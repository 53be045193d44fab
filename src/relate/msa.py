"""Alignment of consonant-class sequences and the concatenated matrix.

The scores are fixed: a match scores ``MATCH`` (2), a mismatch
``MISMATCH`` (-1) and every gap symbol ``GAP_SCORE`` (-2), so a gap run
costs the same per symbol however long it is. In a profile column a gap
against a symbol also scores -2 and a gap against a gap 0.

Each concept's words are aligned progressively. The guide tree comes from
average linkage on pairwise distances, whose scores are computed
score-only for all word pairs of the concept at once: one dynamic program
over padded integer codes, vectorised across pairs, each pair's score read
at its own corner. Profiles are then merged bottom-up with a traced
dynamic program, and the per-concept alignments are concatenated into one
character matrix whose columns are the sites of the phylogenetic model.
All tie-breaking is fixed (diagonal over up over left in the dynamic
program, lowest index pair in the guide tree) so the output is a pure
function of the input.
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

_NEG_INF = float("-inf")


def _gotoh(
    n_a: int, n_b: int, table: list[list[float]]
) -> tuple[list[tuple[int | None, int | None]], float]:
    """Optimal alignment of two column sequences given by length, where
    ``table[i][j]`` scores column i of A against column j of B and every
    gap symbol scores ``GAP_SCORE``.

    Returns the aligned column pairs (``None`` marks a gap) and the optimal
    score. This is Gotoh's three-state program (M pairs two columns, X
    consumes an A column against a gap, Y a B column against a gap) with
    gap opening equal to extension, so each state at a cell is the best
    value H of one neighbouring cell plus one score. Rounding is monotone,
    so max(fl(a + g), fl(b + g)) = fl(max(a, b) + g), and one value per
    cell holds all three states. The traceback recomputes the states from H
    and keeps the three-state tie rule, M over X over Y, which makes it
    prefer diagonal, then up, then left: after a diagonal move the states
    are compared as they are, after a gap move each plus the gap score.
    """
    # Nested lists: reading and writing numpy scalars cell by cell costs more
    # than the arithmetic.
    h = [[0.0] * (n_b + 1) for _ in range(n_a + 1)]
    for j in range(1, n_b + 1):
        h[0][j] = h[0][j - 1] + GAP_SCORE
    for i in range(1, n_a + 1):
        up, row, scores = h[i - 1], h[i], table[i - 1]
        row[0] = left = up[0] + GAP_SCORE
        for j in range(1, n_b + 1):
            best = up[j - 1] + scores[j - 1]
            if up[j] + GAP_SCORE > best:
                best = up[j] + GAP_SCORE
            if left + GAP_SCORE > best:
                best = left + GAP_SCORE
            row[j] = left = best

    # shift is the gap score after a gap move and 0.0 otherwise.
    pairs: list[tuple[int | None, int | None]] = []
    i, j, shift = n_a, n_b, 0.0
    while i > 0 or j > 0:
        m = h[i - 1][j - 1] + table[i - 1][j - 1] + shift if i and j else _NEG_INF
        x = h[i - 1][j] + GAP_SCORE + shift if i else _NEG_INF
        y = h[i][j - 1] + GAP_SCORE + shift if j else _NEG_INF
        if m >= x and m >= y:
            pairs.append((i - 1, j - 1))
            i, j, shift = i - 1, j - 1, 0.0
        elif x >= y:
            pairs.append((i - 1, None))
            i, shift = i - 1, GAP_SCORE
        else:
            pairs.append((None, j - 1))
            j, shift = j - 1, GAP_SCORE
    pairs.reverse()
    return pairs, h[n_a][n_b]


def pairwise_align(
    a: ClassSequence, b: ClassSequence
) -> tuple[ClassSequence, ClassSequence, float]:
    """Optimal alignment of two encoded words.

    Returns gap-padded versions of ``a`` and ``b`` and the score.
    """
    table = [[MATCH if x == y else MISMATCH for y in b] for x in a]
    pairs, score = _gotoh(len(a), len(b), table)
    out_a = tuple(GAP if i is None else a[i] for i, _ in pairs)
    out_b = tuple(GAP if j is None else b[j] for _, j in pairs)
    return out_a, out_b, score


def _pair_scores(words: Sequence[np.ndarray]) -> np.ndarray:
    """Optimal alignment scores of every word pair (a, b), a < b, in
    ``np.triu_indices`` order; ``words`` are integer-coded.

    One score-only dynamic program runs for all pairs at once over the words
    padded to the longest one, and each pair's score is read at its own
    (len_a, len_b) corner. A cell depends only on cells above and to its left,
    so padding never reaches a corner, and each cell takes the maximum of the
    same sums as :func:`_gotoh`: the scores equal :func:`pairwise_align`'s.
    """
    lengths = np.array([len(w) for w in words])
    width = int(lengths.max())
    codes = np.full((len(words), width), -1)
    for r, word in enumerate(words):
        codes[r, : len(word)] = word
    ia, ib = np.triu_indices(len(words), 1)
    len_a, len_b = lengths[ia], lengths[ib]
    codes_a, codes_b = codes[ia].T, codes[ib].T
    scores = np.empty(len(ia))

    # One row of the dynamic program, indexed [j, pair].
    row = np.empty((width + 1, len(ia)))
    row[0] = 0.0
    for j in range(1, width + 1):
        row[j] = row[j - 1] + GAP_SCORE
    for i in range(width + 1):
        if i > 0:
            column = np.where(codes_a[i - 1] == codes_b, MATCH, MISMATCH)
            new = np.empty_like(row)
            new[0] = row[0] + GAP_SCORE
            new[1:] = np.maximum(row[:-1] + column, row[1:] + GAP_SCORE)
            for j in range(1, width + 1):
                new[j] = np.maximum(new[j], new[j - 1] + GAP_SCORE)
            row = new
        ends = np.flatnonzero(len_a == i)
        scores[ends] = row[len_b[ends], ends]
    return scores


def _guide_distances(words: Sequence[np.ndarray]) -> np.ndarray:
    """Symmetric distance matrix ``1 - score / (MATCH * longer length)``."""
    lengths = np.array([len(w) for w in words])
    ia, ib = np.triu_indices(len(words), 1)
    limit = MATCH * np.maximum(lengths[ia], lengths[ib])
    dist = np.zeros((len(words), len(words)))
    dist[ia, ib] = dist[ib, ia] = 1.0 - _pair_scores(words) / limit
    return dist


def _symbol_scores(n_codes: int) -> np.ndarray:
    """Score of every pair of symbol codes in a profile column, code 0 = gap."""
    table = np.full((n_codes, n_codes), MISMATCH)
    np.fill_diagonal(table, MATCH)
    table[0, :] = table[:, 0] = GAP_SCORE
    table[0, 0] = 0.0
    return table


def _column_scores(
    rows_a: np.ndarray, rows_b: np.ndarray, symbol_scores: np.ndarray
) -> np.ndarray:
    """Mean symbol score of every column pair of two integer-coded profiles.

    The row pairs are summed one by one from 0.0, row of A outer, so every
    mean is rounded as a plain loop over the pairs rounds it.
    """
    (r_a, n_a), (r_b, n_b) = rows_a.shape, rows_b.shape
    terms = np.zeros((r_a * r_b + 1, n_a, n_b))
    terms[1:] = symbol_scores[
        rows_a[:, None, :, None], rows_b[None, :, None, :]
    ].reshape(r_a * r_b, n_a, n_b)
    return np.add.accumulate(terms, axis=0)[-1] / (r_a * r_b)


def _merge_profiles(
    rows_a: np.ndarray, rows_b: np.ndarray, symbol_scores: np.ndarray
) -> np.ndarray:
    """Align two integer-coded profiles (code 0 = gap) column against column.

    A column pair is scored by the mean pairwise symbol score over all row
    combinations, ``symbol_scores[x, y]`` per symbol pair (a match 2, a
    mismatch -1, a gap against a symbol -2, two gaps 0). A new gap column
    scores ``GAP_SCORE`` (-2) unscaled, the score of a gap against a symbol,
    which keeps it on the same footing as the averaged column scores.
    """
    (r_a, n_a), (r_b, n_b) = rows_a.shape, rows_b.shape
    table = _column_scores(rows_a, rows_b, symbol_scores).tolist()
    pairs, _ = _gotoh(n_a, n_b, table)
    merged = np.zeros((r_a + r_b, len(pairs)), dtype=rows_a.dtype)
    for c, (i, j) in enumerate(pairs):
        if i is not None:
            merged[:r_a, c] = rows_a[:, i]
        if j is not None:
            merged[r_a:, c] = rows_b[:, j]
    return merged


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


def _average_linkage_order(dist: np.ndarray) -> list[tuple[int, int]]:
    """Merge order of average-linkage clustering on a symmetric distance
    matrix.

    Returns (i, j) cluster-index pairs, i < j; the merged cluster takes index
    i. Ties go to the lowest (i, j) pair: in a symmetric matrix the first
    minimum in row-major order lies above the diagonal.
    """
    n = dist.shape[0]
    d = np.array(dist, dtype=float)
    np.fill_diagonal(d, np.inf)
    sizes = [1] * n
    merges = []
    for _ in range(n - 1):
        i, j = divmod(int(np.argmin(d)), n)
        merges.append((i, j))
        # Retired and own entries are inf and stay inf.
        merged = (sizes[i] * d[i] + sizes[j] * d[j]) / (sizes[i] + sizes[j])
        d[i] = d[:, i] = merged
        d[j] = d[:, j] = np.inf
        sizes[i] += sizes[j]
    return merges


def progressive_align(
    seqs: Sequence[ClassSequence], concept: str = "?"
) -> ConceptAlignment:
    """Align one concept's words across languages.

    ``seqs`` holds one encoded word per language, the empty tuple standing
    for a missing word; missing words come back as all-gap rows. Raises
    :class:`EmptyConceptError` when no language has a word.
    """
    present = [i for i, s in enumerate(seqs) if s]
    if not present:
        raise EmptyConceptError(f"concept {concept!r} has no encodable word")

    if len(present) == 1:
        width = len(seqs[present[0]])
        aligned = {present[0]: list(seqs[present[0]])}
    else:
        # Code 0 is GAP, which profile scores count as a gap.
        code = {GAP: 0}
        words = [
            np.array([code.setdefault(c, len(code)) for c in seqs[p]]) for p in present
        ]
        symbol_scores = _symbol_scores(len(code))

        profiles = {a: word[None, :] for a, word in enumerate(words)}
        members: dict[int, list[int]] = {a: [p] for a, p in enumerate(present)}
        for i, j in _average_linkage_order(_guide_distances(words)):
            profiles[i] = _merge_profiles(profiles[i], profiles[j], symbol_scores)
            members[i] = members[i] + members[j]
            del profiles[j], members[j]
        (root,) = profiles
        width = profiles[root].shape[1]
        decoded = np.array(list(code))[profiles[root]].tolist()
        aligned = dict(zip(members[root], decoded))

    rows = tuple(
        tuple(aligned[i]) if i in aligned else (GAP,) * width
        for i in range(len(seqs))
    )
    keep = [c for c in range(width) if any(row[c] != GAP for row in rows)]
    if len(keep) != width:
        rows = tuple(tuple(row[c] for c in keep) for row in rows)
        width = len(keep)
    return ConceptAlignment(concept=concept, rows=rows, width=width)


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

    def row(self, taxon: str) -> np.ndarray:
        return self.cells[self.taxa.index(taxon)]

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
    languages with any data raises :class:`InsufficientDataError`.
    """
    slots = wl.entry_by_slot()
    if len(wl.languages) < 2:
        raise InsufficientDataError("need at least 2 languages")
    populated = {e.language for e in wl.entries}
    if len(populated) < 2:
        raise InsufficientDataError("need at least 2 languages with data")

    columns: list[list[str]] = [[] for _ in wl.languages]
    bounds = []
    cursor = 0
    for concept in wl.concepts:
        seqs = []
        for language in wl.languages:
            entry = slots.get((language, concept))
            seqs.append(() if entry is None else wl.classes(entry))
        if not any(seqs):
            logger.warning("concept %r has no encodable word; skipped", concept)
            continue
        alignment = progressive_align(seqs, concept)
        for row, aligned in zip(columns, alignment.rows):
            row.extend(aligned)
        bounds.append((concept, cursor, cursor + alignment.width))
        cursor += alignment.width

    if cursor == 0:
        raise InsufficientDataError("no alignable concepts")
    return CharacterMatrix(taxa=wl.languages, cells=columns, concept_bounds=bounds)
