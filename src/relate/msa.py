"""Alignment of consonant-class sequences and the concatenated matrix.

The scores are fixed: a match scores ``MATCH`` (2), a mismatch
``MISMATCH`` (-1) and every gap symbol ``GAP_SCORE`` (-2), so a gap run
costs the same per symbol however long it is. In a profile column a gap
against a symbol also scores -2 and a gap against a gap 0.

Each concept's words are aligned progressively: the guide tree comes from
average linkage on pairwise distances, and profiles are merged bottom-up
along it. All concepts of a wordlist are aligned in one batched pass over
padded arrays, each stage run once for all of them: one score-only dynamic
program over every word pair of every concept, one stacked linkage loop,
and for each merge step one traced dynamic program over that step's merge
in every concept. A profile is carried as per-column counts of symbol
codes; a column pair's total score is an integer sum, exact in any order,
divided once by the number of row pairs. Padding never reaches a real
cell, so a concept aligns as it would alone. The per-concept alignments
are concatenated into one character matrix whose columns are the sites of
the phylogenetic model. All tie-breaking is fixed (diagonal over up over
left in the dynamic program, lowest index pair in the guide tree) so the
output is a pure function of the input.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    EmptyConceptError,
    InsufficientDataError,
    ParseError,
    SchemaError,
)
from .lexdata import Wordlist
from .soundclass import GAP, ClassSequence

logger = logging.getLogger(__name__)

MATCH = 2.0
MISMATCH = -1.0
GAP_SCORE = -2.0


def _symbol_scores(n_codes: int) -> np.ndarray:
    """Score of every pair of symbol codes in a profile column, code 0 = gap."""
    table = np.full((n_codes, n_codes), MISMATCH)
    np.fill_diagonal(table, MATCH)
    table[0, :] = table[:, 0] = GAP_SCORE
    table[0, 0] = 0.0
    return table


def _pair_scores(
    codes_a: np.ndarray, codes_b: np.ndarray, len_a: np.ndarray, len_b: np.ndarray
) -> np.ndarray:
    """Optimal alignment score of every word pair, column p of ``codes_a``
    against column p of ``codes_b``: integer-coded words, indexed
    [position, pair] and padded.

    One score-only dynamic program runs for all pairs at once, and each
    pair's score is read at its own (len_a, len_b) corner. A cell depends
    only on cells above and to its left, so padding never reaches a corner.
    """
    # The scores are integers within 2 (len_a + len_b) + 2 of zero, so the
    # program runs on the smallest integer type that holds them.
    dtype = np.min_scalar_type(-2 * (len(codes_a) + len(codes_b)) - 2).type
    gap, match, mismatch = dtype(GAP_SCORE), dtype(MATCH), dtype(MISMATCH)
    # One row of the dynamic program, indexed [j, pair].
    steps = gap * np.arange(len(codes_b) + 1, dtype=dtype)
    row = np.repeat(steps[:, None], codes_b.shape[1], axis=1)
    scores = np.empty(codes_b.shape[1], dtype=dtype)
    for i in range(len(codes_a) + 1):
        if i > 0:
            new = np.where(codes_a[i - 1] == codes_b, match, mismatch)
            new += row[:-1]
            np.maximum(new, row[1:] + gap, out=new)
            row[0] += gap
            row[1:] = new
            for j in range(1, len(row)):
                np.maximum(row[j], row[j - 1] + gap, out=row[j])
        ends = np.flatnonzero(len_a == i)
        scores[ends] = row[len_b[ends], ends]
    return scores


def _linkage_orders(dist: np.ndarray) -> np.ndarray:
    """Average-linkage merge orders of a stack of distance matrices.

    ``dist[c]`` holds the distances of concept c's words, with ``inf`` on
    the diagonal and in the padding; it is overwritten. Returns (i, j)
    cluster-index pairs, i < j, shape (concepts, steps, 2); the merged
    cluster takes index i. A concept of k words is done after k - 1 steps;
    its later pairs are meaningless. Ties go to the lowest (i, j) pair: in
    a symmetric matrix the first minimum in row-major order lies above the
    diagonal.
    """
    n_concepts, n = dist.shape[:2]
    rows = np.arange(n_concepts)
    sizes = np.ones((n_concepts, n), dtype=np.int64)
    order = np.zeros((n_concepts, max(n - 1, 0), 2), dtype=np.int64)
    for step in range(n - 1):
        i, j = np.divmod(dist.reshape(n_concepts, -1).argmin(axis=1), n)
        order[:, step, 0], order[:, step, 1] = i, j
        # Retired and own entries are inf and stay inf, also in a concept
        # that is done.
        size_i, size_j = sizes[rows, i][:, None], sizes[rows, j][:, None]
        merged = (size_i * dist[rows, i] + size_j * dist[rows, j]) / (size_i + size_j)
        dist[rows, i] = dist[rows, :, i] = merged
        dist[rows, j] = dist[rows, :, j] = np.inf
        # A concept that is done finds its minimum, inf, at (0, 0); its
        # sizes stay as they are.
        sizes[rows, i] += np.where(i < j, size_j[:, 0], 0)
    return order


def _column_scores(counts_a: np.ndarray, counts_b: np.ndarray) -> np.ndarray:
    """Mean symbol score of every column pair of two stacks of profiles
    given by their column counts (batch, columns, codes).

    A column pair's total over its row pairs is an integer, exact in any
    order of summation, and is divided once by the number of row pairs, so
    every mean is rounded as a plain loop over the pairs rounds it.
    """
    totals = counts_a @ _symbol_scores(counts_a.shape[2]) @ counts_b.transpose(0, 2, 1)
    # Every column of a profile counts each of its rows once.
    rows_a, rows_b = counts_a[:, :1].sum(axis=2), counts_b[:, :1].sum(axis=2)
    return totals / (rows_a[:, :, None] * rows_b[:, None, :])


def _merge(
    counts_a: np.ndarray, counts_b: np.ndarray, n_a: np.ndarray, n_b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Align profile A against profile B, column against column, in every
    batch element; the profiles are column counts padded past their
    ``n_a`` and ``n_b`` columns. Returns the merged column of every column
    of A (``columns[0]``) and of B (``columns[1]``), the merged widths and
    the optimal scores.

    A column pair scores its mean symbol score. A new gap column scores
    ``GAP_SCORE`` (-2) unscaled, the score of a gap against a symbol, which
    keeps it on the same footing as the averaged column scores.

    This is Gotoh's three-state program (M pairs two columns, X consumes an
    A column against a gap, Y a B column against a gap) with gap opening
    equal to extension, so each state at a cell is the best value H of one
    neighbouring cell plus one score. Rounding is monotone, so
    max(fl(a + g), fl(b + g)) = fl(max(a, b) + g), and one value per cell
    holds all three states. H is filled one anti-diagonal at a time for the
    whole batch; a cell depends only on cells above and to its left, so
    padding never reaches a real cell. The states are then recomputed from
    H, and the traceback walks every element back at once with the
    three-state tie rule, M over X over Y, which makes it prefer diagonal,
    then up, then left: after a diagonal move the states are compared as
    they are, after a gap move each plus the gap score.
    """
    batch, na, nb = len(counts_a), counts_a.shape[1], counts_b.shape[1]
    # Arrays are indexed [..., element], so a slice of cells is contiguous.
    # score[i, j] scores column i - 1 of A against column j - 1 of B,
    # indexed like the cell its diagonal move enters.
    score = np.zeros((na + 1, nb + 1, batch))
    score[1:, 1:] = _column_scores(counts_a, counts_b).transpose(1, 2, 0)
    # h[d, i] is H at cell (i, d - i), so each anti-diagonal is a row;
    # skew holds the scores likewise.
    diagonal, row = np.ogrid[: na + nb + 1, : na + 1]
    skew = score[row, np.clip(diagonal - row, 0, nb)]
    h = np.empty((na + nb + 1, na + 1, batch))
    h[: nb + 1, 0] = GAP_SCORE * np.arange(nb + 1)[:, None]
    h[np.arange(na + 1), np.arange(na + 1)] = GAP_SCORE * np.arange(na + 1)[:, None]
    for d in range(2, na + nb + 1):
        lo, hi = max(1, d - nb), min(na, d - 1) + 1
        gapped = h[d - 1, lo - 1 : hi] + GAP_SCORE
        cells = h[d, lo:hi]
        np.add(h[d - 2, lo - 1 : hi - 1], skew[d, lo:hi], out=cells)
        np.maximum(cells, np.maximum(gapped[:-1], gapped[1:]), out=cells)
    del skew
    cell_i, cell_j = np.ix_(np.arange(na + 1), np.arange(nb + 1))
    h = h[cell_i + cell_j, cell_i]

    # The M, X and Y states at every cell, -inf where a move would leave
    # the table, give the move out of every cell after a diagonal move
    # (states as they are) and after a gap move (each plus the gap score):
    # 0 diagonal, 1 up, 2 left, and 3 at the origin, where the path ends.
    m, x, y = np.full((3, na + 1, nb + 1, batch), -np.inf)
    m[1:, 1:] = h[:-1, :-1] + score[1:, 1:]
    x[1:] = h[:-1] + GAP_SCORE
    y[:, 1:] = h[:, :-1] + GAP_SCORE
    moves = np.empty((2, na + 1, nb + 1, batch), dtype=np.int8)
    for move, shift in zip(moves, (0.0, GAP_SCORE)):
        for state in (m, x, y):
            state += shift
        move[...] = 2
        move[x >= y] = 1
        move[m >= np.maximum(x, y)] = 0
    moves[:, 0, 0] = 3

    rows = np.arange(batch)
    i, j, after_gap = np.array(n_a), np.array(n_b), np.zeros(batch, dtype=np.int64)
    path = np.full((na + nb, batch), 3, dtype=np.int8)
    at = np.zeros((2, na + nb, batch), dtype=np.int64)
    for step in range(na + nb):
        if not (i | j).any():
            break
        move = path[step] = moves[after_gap, i, j, rows]
        at[:, step] = i, j
        i, j = i - (move < 2), j - (move % 2 == 0)
        after_gap = np.minimum(move, 1)
    # Backward step s of a path of width w emits merged column w - 1 - s.
    width = np.count_nonzero(path != 3, axis=0)
    columns = np.zeros((2, batch, max(na, nb)), dtype=np.int64)
    for side, takes in enumerate((path < 2, path % 2 == 0)):
        s, r = np.nonzero(takes)
        columns[side, r, at[side, s, r] - 1] = width[r] - 1 - s
    return columns, width, h[n_a, n_b, rows]


def _guide_distances(codes: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Distances ``1 - score / (MATCH * longer length)`` of every word pair
    of every concept, shaped as :func:`_linkage_orders` takes them;
    ``codes`` and ``lengths`` are as in :func:`_align`. Small integer types
    keep the arrays over all pairs small."""
    n_concepts, n = lengths.shape
    small = np.min_scalar_type(max(n, n_concepts, codes.shape[2]))
    lengths = lengths.astype(small)
    ia, ib = np.triu_indices(n, 1)
    concept, pair = np.nonzero(ib < np.count_nonzero(lengths, axis=1)[:, None])
    a, b, concept = ia[pair].astype(small), ib[pair].astype(small), concept.astype(small)
    del pair
    len_a, len_b = lengths[concept, a], lengths[concept, b]
    by_position = codes.transpose(2, 0, 1)
    scores = _pair_scores(
        by_position[:, concept, a], by_position[:, concept, b], len_a, len_b
    )
    # 1 - score / (MATCH * longer length), computed in place.
    values = MATCH * np.maximum(len_a, len_b)
    np.divide(scores, values, out=values)
    np.subtract(1.0, values, out=values)
    dist = np.full((n_concepts, n, n), np.inf)
    dist[concept, a, b] = dist[concept, b, a] = values
    return dist


def _align(codes: np.ndarray, n_codes: int) -> tuple[np.ndarray, np.ndarray]:
    """Progressive alignment of every concept of a batch at once.

    ``codes[c, w]`` is word w of concept c, coded by ``1..n_codes - 1`` and
    padded with 0; each concept's words come first, at least one, and none
    is empty. Returns the alignment width of every concept and the aligned
    column of every symbol, shaped like ``codes``.
    """
    lengths = np.count_nonzero(codes, axis=2)
    n_words = np.count_nonzero(lengths, axis=1)
    n_concepts, n = lengths.shape

    order = _linkage_orders(_guide_distances(codes, lengths))

    # Every symbol points at its column in its cluster's profile; merge
    # step s of every concept that has one runs as one batch.
    column = np.where(codes > 0, np.arange(codes.shape[2]), 0)
    cluster = np.tile(np.arange(n), (n_concepts, 1))
    width = lengths.copy()
    for step in range(n - 1):
        concept = np.flatnonzero(n_words > step + 1)
        i, j = order[concept, step].T
        side = np.where(cluster[concept] == i[:, None], 0, -1)
        side[cluster[concept] == j[:, None]] = 1
        n_a, n_b = width[concept, i], width[concept, j]
        # Column counts of the two profiles of every merge, code 0 counting
        # gaps, from the words of its two clusters.
        element, w = np.nonzero(side >= 0)
        owner, word_side = concept[element], side[element, w]
        profile = word_side * len(concept) + element
        symbols = codes[owner, w]
        shape = (2, len(concept), max(n_a.max(), n_b.max()), n_codes)
        index = (profile[:, None] * shape[2] + column[owner, w]) * n_codes + symbols
        counts = np.bincount(index[symbols > 0], minlength=np.prod(shape))
        counts = counts.reshape(shape).astype(float)
        members = np.bincount(profile, minlength=2 * len(concept)).reshape(2, -1, 1)
        counts[..., 0] = members - counts.sum(axis=3)
        columns, width[concept, i], _ = _merge(
            counts[0, :, : n_a.max()], counts[1, :, : n_b.max()], n_a, n_b
        )
        current = column[owner, w]
        column[owner, w] = columns[word_side[:, None], element[:, None], current]
        cluster[owner, w] = i[element]
    return width[:, 0], column


def _place(symbols: ClassSequence, columns, width: int) -> ClassSequence:
    """A gap row of ``width`` with ``symbols`` at their aligned columns."""
    row = [GAP] * width
    for symbol, c in zip(symbols, columns):
        row[c] = symbol
    return tuple(row)


def pairwise_align(
    a: ClassSequence, b: ClassSequence
) -> tuple[ClassSequence, ClassSequence, float]:
    """Optimal alignment of two encoded words, each a one-row profile.

    Returns gap-padded versions of ``a`` and ``b`` and the score.
    """
    code = {s: n for n, s in enumerate(dict.fromkeys(a + b), start=1)}
    one_hot = np.eye(len(code) + 1)
    columns, width, score = _merge(
        one_hot[[code[s] for s in a]][None],
        one_hot[[code[s] for s in b]][None],
        np.array([len(a)]),
        np.array([len(b)]),
    )
    rows = (_place(w, columns[side, 0], width[0]) for side, w in enumerate((a, b)))
    return *rows, float(score[0])


@dataclass(frozen=True)
class ConceptAlignment:
    """The aligned words of one concept, one row per language."""

    concept: str
    rows: tuple[ClassSequence, ...]
    width: int

    def __post_init__(self):
        if self.width < 1:
            raise SchemaError("alignment width must be at least 1")
        for row in self.rows:
            if len(row) != self.width:
                raise SchemaError("ragged alignment rows")


def _align_all(
    concepts: Sequence[Sequence[ClassSequence]],
) -> list[tuple[ClassSequence, ...]]:
    """The aligned rows of every concept in one batch, one row per word and
    all-gap rows for the empty words; every concept has a word."""
    present = [[k for k, seq in enumerate(seqs) if seq] for seqs in concepts]
    words = [[seqs[k] for k in ks] for seqs, ks in zip(concepts, present)]
    lengths = np.zeros((len(words), max(map(len, words))), dtype=np.int64)
    n_words = np.array([len(ws) for ws in words])
    lengths[np.arange(lengths.shape[1]) < n_words[:, None]] = [
        len(w) for ws in words for w in ws
    ]
    # The words padded with code 0, in the smallest type that holds a code
    # for every symbol. Scores depend only on which symbols are equal, so
    # any numbering does.
    code: dict[str, int] = {}
    dtype = np.min_scalar_type(lengths.sum())
    codes = np.zeros((*lengths.shape, lengths.max()), dtype=dtype)
    codes[np.arange(codes.shape[2]) < lengths[:, :, None]] = [
        code.setdefault(s, len(code) + 1) for ws in words for w in ws for s in w
    ]
    widths, columns = (a.tolist() for a in _align(codes, len(code) + 1))
    out = []
    for seqs, ks, width, at in zip(concepts, present, widths, columns):
        rows = [(GAP,) * width] * len(seqs)
        for w, k in enumerate(ks):
            rows[k] = _place(seqs[k], at[w], width)
        out.append(tuple(rows))
    return out


def progressive_align(
    seqs: Sequence[ClassSequence], concept: str = "?"
) -> ConceptAlignment:
    """Align one concept's words across languages, as a batch of one.

    ``seqs`` holds one encoded word per language, the empty tuple standing
    for a missing word; missing words come back as all-gap rows. Raises
    :class:`EmptyConceptError` when no language has a word.
    """
    if not any(seqs):
        raise EmptyConceptError(f"concept {concept!r} has no encodable word")
    (rows,) = _align_all([seqs])
    return ConceptAlignment(concept=concept, rows=rows, width=len(rows[0]))


def _cell_array(cells, taxa: tuple[str, ...]) -> np.ndarray:
    """Cells as a 2-D array of one-character strings, or :class:`SchemaError`
    naming the first offending row."""

    def name(r: int) -> str:
        return f"row {r} ({taxa[r]!r})" if r < len(taxa) else f"row {r}"

    if not isinstance(cells, np.ndarray):
        cells = list(cells)
        widths = [len(row) for row in cells]
        for r, w in enumerate(widths):
            if w != widths[0]:
                raise SchemaError(f"{name(r)} has {w} cells, {name(0)} has {widths[0]}")
    array = np.array(cells, dtype=str)
    if array.ndim != 2:
        raise SchemaError("cells must be two-dimensional")
    bad = np.argwhere(np.char.str_len(array) != 1)
    if len(bad):
        r, c = bad[0]
        raise SchemaError(
            f"{name(r)}, site {c}: cell {array[r, c]!r} is not one character"
        )
    return array


class CharacterMatrix:
    """Concatenated per-concept alignments: taxa by sites, gap = ``-``.

    ``concept_bounds`` records, per concept, the half-open column range it
    occupies. ``cells`` is a read-only array of single-character strings.
    """

    def __init__(
        self,
        taxa: Sequence[str],
        cells: np.ndarray | Sequence[Sequence[str]],
        concept_bounds: Sequence[tuple[str, int, int]] = (),
    ):
        self.taxa = tuple(taxa)
        array = _cell_array(cells, self.taxa)
        if array.shape[0] != len(self.taxa):
            raise SchemaError("one row per taxon required")
        if len(set(self.taxa)) != len(self.taxa):
            raise SchemaError("duplicate taxon names")
        if array.shape[1] < 1:
            raise InsufficientDataError("matrix has no sites")
        array.setflags(write=False)
        self.cells = array
        if not concept_bounds:
            concept_bounds = (("all", 0, array.shape[1]),)
        self.concept_bounds = tuple(
            (str(c), int(lo), int(hi)) for c, lo, hi in concept_bounds
        )
        for _, lo, hi in self.concept_bounds:
            if not (0 <= lo < hi <= array.shape[1]):
                raise SchemaError("concept bounds out of range")

    @property
    def sites(self) -> int:
        return self.cells.shape[1]

    def gap_mask(self) -> np.ndarray:
        return self.cells == GAP

    def __eq__(self, other) -> bool:
        if not isinstance(other, CharacterMatrix):
            return NotImplemented
        return (
            self.taxa == other.taxa
            and self.concept_bounds == other.concept_bounds
            and np.array_equal(self.cells, other.cells)
        )

    def __repr__(self) -> str:
        return f"CharacterMatrix({len(self.taxa)} taxa, {self.sites} sites)"

    def to_alignment_text(self) -> str:
        """Relaxed phylip: a count header, then one name and row per taxon."""
        lines = [f"{len(self.taxa)} {self.sites}"]
        for t, taxon in enumerate(self.taxa):
            lines.append(f"{taxon}\t{''.join(self.cells[t])}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_alignment_text(cls, text: str) -> "CharacterMatrix":
        """Parse :meth:`to_alignment_text` output or relaxed phylip. A row
        line splits at its first tab, so a name may hold spaces; a line
        without a tab splits at its first whitespace."""
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ParseError("empty alignment")
        head = lines[0].split()
        if len(head) != 2 or not all(p.isdigit() for p in head):
            raise ParseError("alignment header must be '<taxa> <sites>'", line=1)
        m, n = int(head[0]), int(head[1])
        if len(lines) - 1 != m:
            raise ParseError(f"expected {m} rows, found {len(lines) - 1}")
        taxa, rows = [], []
        for lineno, line in enumerate(lines[1:], start=2):
            parts = line.split("\t", 1) if "\t" in line else line.split(None, 1)
            if len(parts) != 2 or not parts[0].strip():
                raise ParseError("expected '<name> <row>'", line=lineno)
            name, row = parts[0].strip(), parts[1].strip().replace(" ", "")
            if len(row) != n:
                raise ParseError(
                    f"row has {len(row)} sites, expected {n}", line=lineno
                )
            taxa.append(name)
            rows.append(list(row))
        return cls(taxa=taxa, cells=rows)

    @classmethod
    def from_fasta(cls, text: str) -> "CharacterMatrix":
        taxa, rows, current = [], [], None
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith(">"):
                name = line[1:].strip()
                if not name:
                    raise ParseError("empty FASTA header", line=lineno)
                taxa.append(name)
                current = []
                rows.append(current)
            else:
                if current is None:
                    raise ParseError("sequence before first header", line=lineno)
                current.extend(line)
        if not taxa:
            raise ParseError("no FASTA records")
        widths = {len(r) for r in rows}
        if len(widths) != 1:
            raise ParseError("FASTA rows have unequal lengths")
        return cls(taxa=taxa, cells=rows)

    def to_dict(self) -> dict:
        return {
            "taxa": list(self.taxa),
            "rows": ["".join(r) for r in self.cells],
            "concept_bounds": [list(b) for b in self.concept_bounds],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CharacterMatrix":
        """The matrix of a :meth:`to_dict` payload; a payload of another
        shape or type raises :class:`SchemaError`."""
        try:
            taxa, rows = payload["taxa"], payload["rows"]
            bounds = [
                (str(c), int(lo), int(hi)) for c, lo, hi in payload.get("concept_bounds", [])
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"bad matrix payload: {exc}") from exc
        for name, values in (("taxa", taxa), ("rows", rows)):
            if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
                raise SchemaError(f"matrix {name} must be a list of strings")
        return cls(taxa=taxa, cells=[list(r) for r in rows], concept_bounds=bounds)


def build_character_matrix(wl: Wordlist) -> CharacterMatrix:
    """Align and concatenate the class sequences of a preprocessed wordlist.

    Every (language, concept) slot must hold at most one entry. Concepts
    with no encodable word are skipped with a warning; having fewer than two
    languages with any data raises :class:`InsufficientDataError`. The
    concepts are aligned in one batch.
    """
    slots = wl.entry_by_slot()
    if len(wl.languages) < 2:
        raise InsufficientDataError("need at least 2 languages")
    populated = {e.language for e in wl.entries}
    if len(populated) < 2:
        raise InsufficientDataError("need at least 2 languages with data")

    kept, concepts = [], []
    for concept in wl.concepts:
        seqs = []
        for language in wl.languages:
            entry = slots.get((language, concept))
            seqs.append(() if entry is None else wl.classes(entry))
        if not any(seqs):
            logger.warning("concept %r has no encodable word; skipped", concept)
            continue
        kept.append(concept)
        concepts.append(seqs)
    if not kept:
        raise InsufficientDataError("no alignable concepts")
    # The slot map is not needed while the concepts are aligned.
    del slots

    columns: list[list[str]] = [[] for _ in wl.languages]
    bounds = []
    cursor = 0
    for concept, rows in zip(kept, _align_all(concepts)):
        for row, aligned in zip(columns, rows):
            row.extend(aligned)
        bounds.append((concept, cursor, cursor + len(rows[0])))
        cursor += len(rows[0])
    return CharacterMatrix(taxa=wl.languages, cells=columns, concept_bounds=bounds)
