"""Permutation test of multilateral lexical similarity.

Word distances are crude by design: two words count as similar when their
first consonant classes (or first two, for the stricter variant) agree.
Language distance is the mean word distance over concepts both languages
attest. The significance of a fixed language pair is the probability,
under independent per-language shuffles of words across attested concept
slots, of a language distance at most as small as the observed one.
Shuffling only within a language preserves each language's sound
inventory and gap pattern while destroying any cross-language alignment
of meanings.

The merge tree cannot reuse the fixed-pair null: agglomeration picks out
whichever clusters happen to look similar, so every merge it reports is
biased low relative to a null that holds the pair fixed. Each permutation
is therefore clustered from scratch and merges of equal rank are compared.
The permutations of a chunk are clustered together, one merge step of
every replicate at a time, with the same merges and heights as clustering
each one alone.

A row of the pairwise table is the root (and only) merge of that pair's
two-language merge tree: with two languages the equal-rank null is the
fixed-pair null.

Each language draws its shuffles from its own stream, keyed by the seed
and the language's name (``np.random.SeedSequence(seed, spawn_key=...)``
with the UTF-8 bytes of the name as the key), and lays each shuffle over
its attested concepts in concept-name order. A language's shuffles
therefore depend neither on the other languages of the wordlist, nor on
the row order of the source, nor on how replicates are chunked, so the
pairwise table reads every row from the replicates of the merge tree,
and each row equals the root of the wordlist cut to that pair at the
same seed. A language distance adds its shared concepts in concept-name
order too, so no result depends on the row order. This is draw stream
``DRAW_STREAM``; earlier streams drew from positional children of the
seed or from one generator, or laid the shuffles over the concepts in
order of first appearance, so p-values and ``s_hat`` for a given seed
differ from theirs while everything computed on the observed arrangement
is unchanged.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import IO, Mapping, NamedTuple

import numpy as np

from .errors import (
    DistanceUndefinedError,
    ExternalLookupError,
    InsufficientDataError,
    ParseError,
    SchemaError,
    read_tsv,
)
from .lexdata import Wordlist

logger = logging.getLogger(__name__)

P1_DOLGO = "P1_DOLGO"
TURCHIN = "TURCHIN"
EXTERNAL = "EXTERNAL"

RELATED = "RELATED"
NOT_SUPPORTED = "NOT_SUPPORTED"

#: Version of the permutation draw stream, recorded in report manifests:
#: 4 draws each language from a stream keyed by the seed and its name and
#: shuffles its words over its attested concepts in concept-name order.
DRAW_STREAM = 4


@dataclass(frozen=True)
class WordMetric:
    """A word-level distance: a named rule or an externally supplied table."""

    name: str
    external_table: Mapping[tuple[str, str, str, str], float] | None = None

    def __post_init__(self):
        if self.name not in (P1_DOLGO, TURCHIN, EXTERNAL):
            raise SchemaError(f"unknown metric {self.name!r}")
        if self.name == EXTERNAL and self.external_table is None:
            raise SchemaError("EXTERNAL metric requires a distance table")
        if self.name != EXTERNAL and self.external_table is not None:
            raise SchemaError(f"{self.name} does not take a distance table")

    @classmethod
    def p1_dolgo(cls) -> "WordMetric":
        return cls(name=P1_DOLGO)

    @classmethod
    def turchin(cls) -> "WordMetric":
        return cls(name=TURCHIN)

    @classmethod
    def external(cls, table) -> "WordMetric":
        return cls(name=EXTERNAL, external_table=table)


def load_external_table(source: IO | bytes | str) -> dict[tuple[str, str, str, str], float]:
    """Read a word-distance table from TSV.

    Columns LANG_A, WORD_A, LANG_B, WORD_B, DIST. Both orientations of each
    pair are stored so lookups need not worry about order. A pair may come
    back in either orientation only with the same DIST. ``source`` is read
    by :func:`errors.read_tsv`.
    """
    required = ["LANG_A", "WORD_A", "LANG_B", "WORD_B", "DIST"]
    columns, rows = read_tsv(source, "distance table", required)
    idx = [columns[name] for name in required]
    table: dict[tuple[str, str, str, str], float] = {}
    for lineno, row in rows:
        la, wa, lb, wb, raw_dist = (row[k] for k in idx)
        try:
            dist = float(raw_dist)
        except ValueError:
            raise ParseError("DIST must be a number", line=lineno) from None
        if not 0.0 <= dist < float("inf"):
            raise ParseError("DIST must be finite and non-negative", line=lineno)
        earlier = table.get((la, wa, lb, wb), dist)
        if earlier != dist:
            raise ParseError(
                f"DIST {dist!r} for {la} {wa!r} vs {lb} {wb!r} conflicts with "
                f"an earlier {earlier!r}",
                line=lineno,
            )
        table[(la, wa, lb, wb)] = dist
        table[(lb, wb, la, wa)] = dist
    return table


_NO_WORD = -9
_EMPTY = -1
_NO_SECOND = -1

#: Replicates drawn and scored together. Chunks bound the memory of the
#: stacked slot arrays; results do not depend on the size.
_CHUNK = 128


def _chunk_sizes(n_perm: int):
    """Replicate counts of the chunks that make up ``n_perm`` replicates."""
    return [min(_CHUNK, n_perm - start) for start in range(0, n_perm, _CHUNK)]


class _Engine:
    """Per-wordlist caches that make permutation batches cheap.

    Every language gets an integer array over concepts, in concept-name
    order, pointing into its word list (``_NO_WORD`` marks empty slots);
    metric-specific arrays over words make a pair distance a handful of
    vectorized comparisons.
    Permutations shuffle the pointer arrays, never the caches. Slot arrays
    are stacked over replicates, shape (replicates, concepts), so one call
    draws or scores a whole chunk of replicates; ``observed`` holds the
    observed arrangement as a batch of one. Each language draws from its
    own stream, keyed by its name, and every replicate is computed with the
    same arithmetic as on its own, so a seed gives the same results for any
    chunking and any other languages in the wordlist.
    """

    def __init__(self, metric: WordMetric, wl: Wordlist):
        self.metric = metric
        self.languages = wl.languages
        # Concepts are laid out, and each language's words numbered and
        # shuffled over its attested slots, in concept-name order, so that
        # neither the draws nor the order in which a distance adds its
        # shared concepts depends on the row order of the source.
        self.concepts = sorted(wl.concepts)
        slots = wl.entry_by_slot()

        self.observed: dict[str, np.ndarray] = {}
        self.attested: dict[str, np.ndarray] = {}
        self.forms: dict[str, list[str]] = {}
        self.first: dict[str, np.ndarray] = {}
        self.second: dict[str, np.ndarray] = {}
        class_index = {c: i for i, c in enumerate(wl.alphabet.classes)}
        for language in wl.languages:
            pointers = np.full(len(self.concepts), _NO_WORD, dtype=np.int64)
            attested: list[int] = []
            forms: list[str] = []
            firsts: list[int] = []
            seconds: list[int] = []
            for c, concept in enumerate(self.concepts):
                entry = slots.get((language, concept))
                if entry is None:
                    continue
                pointers[c] = len(forms)
                attested.append(c)
                forms.append(entry.form)
                if metric.name != EXTERNAL:
                    seq = wl.classes(entry)
                    firsts.append(class_index[seq[0]] if seq else _EMPTY)
                    seconds.append(
                        class_index[seq[1]] if len(seq) > 1 else _NO_SECOND
                    )
            self.observed[language] = pointers[np.newaxis]
            self.attested[language] = np.array(attested, dtype=np.int64)
            self.forms[language] = forms
            self.first[language] = np.asarray(firsts, dtype=np.int64)
            self.second[language] = np.asarray(seconds, dtype=np.int64)

        self._pair_table: dict[tuple[str, str], np.ndarray] = {}

    def _external_matrix(self, lang_a: str, lang_b: str) -> np.ndarray:
        """Dense word-by-word distance matrix for one language pair.

        Built eagerly over all word combinations because a permutation can
        pair any two attested words; a hole in the table is an error even
        if the observed arrangement never hits it.
        """
        key = (lang_a, lang_b)
        cached = self._pair_table.get(key)
        if cached is not None:
            return cached
        table = self.metric.external_table
        out = np.empty((len(self.forms[lang_a]), len(self.forms[lang_b])))
        for i, form_a in enumerate(self.forms[lang_a]):
            for j, form_b in enumerate(self.forms[lang_b]):
                value = table.get((lang_a, form_a, lang_b, form_b))
                if value is None:
                    raise ExternalLookupError(
                        f"no distance for {lang_a!r} {form_a!r} vs "
                        f"{lang_b!r} {form_b!r}"
                    )
                out[i, j] = value
        self._pair_table[key] = out
        self._pair_table[(lang_b, lang_a)] = out.T
        return out

    def language_distance(
        self, lang_a: str, lang_b: str, slots_a: np.ndarray, slots_b: np.ndarray
    ) -> np.ndarray:
        """Distance of two languages in every replicate of stacked slots.

        Shuffles keep each language's attested concepts, so the shared
        concepts, and their count, are the same in every replicate.
        """
        shared = (self.observed[lang_a][0] != _NO_WORD) & (
            self.observed[lang_b][0] != _NO_WORD
        )
        n = int(shared.sum())
        if n == 0:
            raise DistanceUndefinedError(
                f"{lang_a!r} and {lang_b!r} share no attested concepts"
            )
        ia, ib = slots_a[:, shared], slots_b[:, shared]
        if self.metric.name == EXTERNAL:
            # The gathered block may come out column-major; each row must
            # be summed along contiguous memory to add its values in the
            # order a one-dimensional mean would.
            values = np.ascontiguousarray(self._external_matrix(lang_a, lang_b)[ia, ib])
            return values.mean(axis=1)
        fa, fb = self.first[lang_a][ia], self.first[lang_b][ib]
        if self.metric.name == P1_DOLGO:
            return np.count_nonzero(fa != fb, axis=1) / n
        sa, sb = self.second[lang_a][ia], self.second[lang_b][ib]
        equal = (fa == fb) & ((sa == sb) | (sa == _NO_SECOND) | (sb == _NO_SECOND))
        return 1.0 - np.count_nonzero(equal, axis=1) / n

    def permuted_slots(
        self, streams: Mapping[str, np.random.Generator], replicates: int = 1
    ) -> dict[str, np.ndarray]:
        """Shuffle each language's words across its attested slots.

        ``streams`` maps each language to its generator. Returns one row
        per replicate, drawn by one ``permuted`` call per language; that
        draws the stream of shuffling the rows one after another, so a
        language's draws do not depend on how replicates are chunked. A
        language's pointers over its attested slots are ``0..m-1``, so
        shuffling a fresh ``0..m-1`` shuffles the pointers.
        """
        out = {}
        for language, rng in streams.items():
            attested = self.attested[language]
            rows = np.tile(np.arange(len(attested)), (replicates, 1))
            rng.permuted(rows, axis=1, out=rows)
            pointers = np.full((replicates, len(self.concepts)), _NO_WORD, dtype=np.int64)
            pointers[:, attested] = rows
            out[language] = pointers
        return out


class PermutationResult(NamedTuple):
    s_hat: float
    p_value: float
    degenerate: bool


def _summary(draws: np.ndarray, observed: float, left, right) -> PermutationResult:
    """Statistics of the observed distance of ``left`` and ``right``
    against its permuted ``draws``: the relative drop below their mean and
    the add-one p-value."""
    expected = float(draws.mean())
    p_value = (int(np.count_nonzero(draws <= observed)) + 1) / (len(draws) + 1)
    degenerate = expected == 0.0
    if degenerate:
        logger.warning("all permuted distances of %r vs %r are zero", left, right)
    s_hat = 0.0 if degenerate else (expected - observed) / expected
    return PermutationResult(
        s_hat=float(s_hat),
        p_value=float(p_value),
        degenerate=degenerate,
    )


@dataclass(frozen=True)
class Merge:
    """One agglomeration step with its statistics."""

    left: tuple[str, ...]
    right: tuple[str, ...]
    distance: float
    s_hat: float
    p_value: float
    degenerate: bool = False

    def to_dict(self) -> dict:
        return {
            "left": list(self.left),
            "right": list(self.right),
            "distance": self.distance,
            "s_hat": self.s_hat,
            "p": self.p_value,
            "degenerate": self.degenerate,
        }


@dataclass(frozen=True)
class MergeTree:
    """Agglomerative clustering of the languages with per-merge statistics.

    The last merge joins everything; its p-value is the multilateral test
    of the whole group.
    """

    languages: tuple[str, ...]
    merges: tuple[Merge, ...]

    @property
    def root(self) -> Merge:
        return self.merges[-1]

    def verdict(self, alpha: float = 0.05) -> str:
        return RELATED if self.root.p_value < alpha else NOT_SUPPORTED

    def to_dict(self) -> dict:
        return {
            "languages": list(self.languages),
            "merges": [m.to_dict() for m in self.merges],
            "verdict": self.verdict(),
        }


def _pair_matrix(
    engine: _Engine, languages: list[str], slots: dict[str, np.ndarray]
) -> np.ndarray:
    """Language distance matrices, shape (replicates, languages, languages)."""
    out = np.zeros((len(slots[languages[0]]), len(languages), len(languages)))
    for i, lang_a in enumerate(languages):
        for j in range(i + 1, len(languages)):
            lang_b = languages[j]
            out[:, i, j] = out[:, j, i] = engine.language_distance(
                lang_a, lang_b, slots[lang_a], slots[lang_b]
            )
    return out


def _cluster_stack(bases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Average-linkage merges of a stack of distance matrices, all at once.

    ``bases`` has shape (replicates, n, n) over languages in name order.
    Returns each replicate's merges as ``(pairs, heights)``: ``pairs``
    (replicates, n - 1, 2) names each side by its smallest language index,
    ``heights`` (replicates, n - 1) is the height of each merge.

    A candidate's height is the mean of the base matrix over all its
    cross-language pairs, taken over the block with the older cluster's
    languages as rows and the newer cluster's as columns, rather than an
    incremental linkage update that drifts with every merge. Clusters are
    disjoint, so ordering candidate pairs by their languages is ordering
    them by the sides' smallest indices: candidates sit in the upper
    triangle of an (n, n) table per replicate at those indices, and the
    first minimum in row-major order is the closest pair, ties to the
    lexicographically smallest. Every step merges one pair in each
    replicate and adds the blocks of the new cluster; blocks of one shape
    are gathered together and summed row by row, which adds each block's
    values in the same order as summing it on its own.
    """
    replicates, n, _ = bases.shape
    each = np.arange(replicates)
    flat_bases = bases.reshape(-1)
    ids = np.arange(n)
    candidates = np.where(ids[:, np.newaxis] < ids, bases, np.inf)
    flat_candidates = candidates.reshape(replicates, n * n)
    # Each language's cluster, named by its smallest language index (one
    # row for all replicates until the first merge), and the size of each
    # cluster under that name (0 once merged away).
    label = ids
    size = np.ones((replicates, n), dtype=np.int64)
    pairs = np.empty((replicates, n - 1, 2), dtype=np.int64)
    heights = np.empty((replicates, n - 1))
    for step in range(n - 1):
        best = flat_candidates.argmin(axis=1)
        keep, gone = np.divmod(best, n)
        pairs[:, step, 0], pairs[:, step, 1] = keep, gone
        heights[:, step] = flat_candidates[each, best]
        if step == n - 2:
            break
        candidates[each, gone, :] = np.inf
        candidates[each, :, gone] = np.inf
        label = np.where(label == gone[:, np.newaxis], keep[:, np.newaxis], label)
        size[each, keep] += size[each, gone]
        size[each, gone] = 0

        # Languages grouped by cluster, each cluster's in index order,
        # and where each cluster starts in that order.
        order = np.argsort(label * n + ids, axis=1)
        start = np.cumsum(size, axis=1) - size
        # Every other cluster is older than the new one.
        others = size > 0
        others[each, keep] = False
        r, c = np.nonzero(others)
        new = keep[r]
        shapes, group = np.unique(size[r, c] * n + size[r, new], return_inverse=True)
        for g, shape in enumerate(shapes.tolist()):
            members = np.flatnonzero(group == g)
            rg, cg, ng = r[members], c[members], new[members]
            older_size, newer_size = divmod(shape, n)
            older = order[rg[:, np.newaxis], start[rg, cg][:, np.newaxis] + np.arange(older_size)]
            newer = order[rg[:, np.newaxis], start[rg, ng][:, np.newaxis] + np.arange(newer_size)]
            index = (
                (rg * n * n)[:, np.newaxis, np.newaxis]
                + older[:, :, np.newaxis] * n
                + newer[:, np.newaxis, :]
            )
            block_size = older_size * newer_size
            blocks = flat_bases[index.reshape(len(members), block_size)]
            candidates[rg, np.minimum(cg, ng), np.maximum(cg, ng)] = (
                np.add.reduce(blocks, axis=1) / block_size
            )
    return pairs, heights


def _named_merges(
    pairs: np.ndarray, heights: np.ndarray, languages: list[str]
) -> list[tuple[tuple[str, ...], tuple[str, ...], float]]:
    """One replicate's merges from ``_cluster_stack`` as (left, right,
    height) with each side's languages; the left side holds the smaller
    language index."""
    clusters = [(lang,) for lang in languages]
    stages = []
    for (keep, gone), height in zip(pairs.tolist(), heights.tolist()):
        left, right = clusters[keep], clusters[gone]
        stages.append((left, right, height))
        clusters[keep] = tuple(sorted(left + right))
    return stages


def _replicate_distances(engine: _Engine, languages: list[str], n_perm: int, seed: int):
    """Language distance matrices of ``n_perm`` replicates drawn from
    ``seed``, one (replicates, languages, languages) stack per chunk.

    Each language draws from the stream keyed by the seed and the UTF-8
    bytes of its name. A given seed gives the same draws and distances as
    drawing and scoring one replicate at a time.
    """
    if n_perm < 1:
        raise ValueError("need at least one permutation")
    streams = {
        language: np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=tuple(language.encode("utf-8")))
        )
        for language in languages
    }
    for count in _chunk_sizes(n_perm):
        # No chunk's slots are held while the next chunk is drawn.
        yield _pair_matrix(engine, languages, engine.permuted_slots(streams, count))


def run_permtest(
    metric: WordMetric,
    wl: Wordlist,
    n_perm: int = 1000,
    seed: int = 42,
) -> MergeTree:
    """Cluster languages bottom-up, testing every merge against permutations.

    Average-linkage agglomeration on the language distance matrix: the
    closest cluster pair (ties to the lexicographically smallest pair)
    merges first. Every permutation replicate reshuffles each language and
    is clustered from scratch, and the k-th merge of the data is compared
    against the k-th merge of each replicate; average-linkage heights never
    decrease across steps, so equal ranks are the comparable events. A null
    that held the observed pair fixed would ignore that agglomeration
    deliberately picks similar clusters and would push root p-values
    toward 1 even on random data.
    """
    if len(wl.languages) < 2:
        raise InsufficientDataError("clustering needs at least 2 languages")
    engine = _Engine(metric, wl)
    languages = sorted(wl.languages)
    pairs, heights = _cluster_stack(_pair_matrix(engine, languages, engine.observed))
    observed = _named_merges(pairs[0], heights[0], languages)
    draws = np.concatenate([
        _cluster_stack(bases)[1]
        for bases in _replicate_distances(engine, languages, n_perm, seed)
    ])
    merges = []
    for k, (left, right, distance) in enumerate(observed):
        result = _summary(draws[:, k], distance, left, right)
        merges.append(
            Merge(left, right, distance, result.s_hat, result.p_value, result.degenerate)
        )
    return MergeTree(languages=wl.languages, merges=tuple(merges))


def pairwise_significance(
    metric: WordMetric,
    wl: Wordlist,
    n_perm: int = 1000,
    seed: int = 42,
) -> list[dict]:
    """Permutation statistics for every language pair, as TSV-ready rows.

    A pair's row is the single merge of that pair's two-language merge
    tree: ``DIST`` is the mean word distance over the concepts both
    languages attest, and ``S_HAT`` and ``P`` compare it with the pair's
    distance in each replicate. Every row reads the replicates that
    ``run_permtest`` clusters at the same seed, and a language's draws do
    not depend on the other languages, so a row equals the root of the
    wordlist cut to its pair.
    """
    if len(wl.languages) < 2:
        raise InsufficientDataError("pairwise statistics need at least 2 languages")
    engine = _Engine(metric, wl)
    languages = sorted(wl.languages)
    index = {language: k for k, language in enumerate(languages)}
    pairs = [(a, b) for i, a in enumerate(wl.languages) for b in wl.languages[i + 1 :]]
    rows_at = [index[a] for a, _ in pairs]
    cols_at = [index[b] for _, b in pairs]
    observed = _pair_matrix(engine, languages, engine.observed)[0, rows_at, cols_at].tolist()
    draws = np.concatenate([
        bases[:, rows_at, cols_at]
        for bases in _replicate_distances(engine, languages, n_perm, seed)
    ])
    rows = []
    for k, (lang_a, lang_b) in enumerate(pairs):
        # A contiguous column is summed as the two-language tree sums it.
        result = _summary(np.ascontiguousarray(draws[:, k]), observed[k], lang_a, lang_b)
        rows.append(
            {
                "LANG_A": lang_a,
                "LANG_B": lang_b,
                "DIST": observed[k],
                "S_HAT": result.s_hat,
                "P": result.p_value,
            }
        )
    return rows
