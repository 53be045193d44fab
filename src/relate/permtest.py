"""Permutation test of multilateral lexical similarity.

Word distances are crude by design: two words count as similar when their
first consonant classes (or first two, for the stricter variant) agree.
Language distance is the mean word distance over concepts both languages
attest; cluster distance is the mean over all cross-language pairs. The
significance of a fixed cluster pair is the probability, under independent
per-language shuffles of words across attested concept slots, of a cluster
distance at most as small as the observed one. Shuffling only within a
language preserves each language's sound inventory and gap pattern while
destroying any cross-language alignment of meanings.

The merge tree cannot reuse the fixed-pair null: agglomeration picks out
whichever clusters happen to look similar, so every merge it reports is
biased low relative to a null that holds the pair fixed. Each permutation
is therefore clustered from scratch and merges of equal rank are compared.
"""

from __future__ import annotations

import csv
import io
import logging
from dataclasses import dataclass
from typing import IO, Mapping, NamedTuple

import numpy as np

from . import soundclass
from .errors import (
    DistanceUndefinedError,
    EmptyInputError,
    ExternalLookupError,
    InsufficientDataError,
    ParseError,
    SchemaError,
    read_text,
)
from .lexdata import Wordlist
from .soundclass import ClassAlphabet

logger = logging.getLogger(__name__)

P1_DOLGO = "P1_DOLGO"
TURCHIN = "TURCHIN"
EXTERNAL = "EXTERNAL"

RELATED = "RELATED"
NOT_SUPPORTED = "NOT_SUPPORTED"

#: Seed offset between pairwise-table cells, so each pair's permutation
#: batch draws from its own stream.
PAIR_SEED_STRIDE = 104729


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
    pair are stored so lookups need not worry about order.
    """
    text = read_text(source, "distance table")
    if not text.strip():
        raise EmptyInputError("distance table is empty")
    reader = csv.reader(io.StringIO(text), delimiter="\t")
    header = [h.strip() for h in next(reader)]
    required = ["LANG_A", "WORD_A", "LANG_B", "WORD_B", "DIST"]
    if any(col not in header for col in required):
        raise SchemaError(f"distance table needs columns {required}, got {header}")
    idx = {col: header.index(col) for col in required}
    table: dict[tuple[str, str, str, str], float] = {}
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(header):
            raise ParseError(f"expected {len(header)} fields", line=lineno)
        la, wa = row[idx["LANG_A"]].strip(), row[idx["WORD_A"]].strip()
        lb, wb = row[idx["LANG_B"]].strip(), row[idx["WORD_B"]].strip()
        try:
            dist = float(row[idx["DIST"]].strip())
        except ValueError:
            raise ParseError("DIST must be a number", line=lineno) from None
        if not 0.0 <= dist < float("inf"):
            raise ParseError("DIST must be finite and non-negative", line=lineno)
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

    Every language gets an integer array over concepts pointing into its
    word list (``_NO_WORD`` marks empty slots); metric-specific arrays over
    words make a pair distance a handful of vectorized comparisons.
    Permutations shuffle the pointer arrays, never the caches. Slot arrays
    are stacked over replicates, shape (replicates, concepts), so one call
    draws or scores a whole chunk of replicates; the observed arrangement
    is a batch of one. Every replicate is computed with the same arithmetic
    as on its own, so a seed gives the same results for any chunking.
    """

    def __init__(self, metric: WordMetric, wl: Wordlist, alphabet: ClassAlphabet | None):
        if alphabet is None and metric.name != EXTERNAL:
            alphabet = soundclass.default_alphabet()
        self.metric = metric
        self.languages = wl.languages
        self.concepts = wl.concepts
        slots = wl.entry_by_slot()

        self.slot_word: dict[str, np.ndarray] = {}
        self.attested: dict[str, np.ndarray] = {}
        self.forms: dict[str, list[str]] = {}
        self.first: dict[str, np.ndarray] = {}
        self.second: dict[str, np.ndarray] = {}
        class_index = (
            {c: i for i, c in enumerate(alphabet.classes)} if alphabet else {}
        )
        for language in wl.languages:
            pointers = np.full(len(wl.concepts), _NO_WORD, dtype=np.int64)
            forms: list[str] = []
            firsts: list[int] = []
            seconds: list[int] = []
            for c, concept in enumerate(wl.concepts):
                entry = slots.get((language, concept))
                if entry is None:
                    continue
                pointers[c] = len(forms)
                forms.append(entry.form)
                if metric.name != EXTERNAL:
                    seq = entry.encode(alphabet)
                    firsts.append(class_index[seq[0]] if seq else _EMPTY)
                    seconds.append(
                        class_index[seq[1]] if len(seq) > 1 else _NO_SECOND
                    )
            self.slot_word[language] = pointers
            self.attested[language] = np.flatnonzero(pointers != _NO_WORD)
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
        self,
        lang_a: str,
        lang_b: str,
        slots_a: np.ndarray | None = None,
        slots_b: np.ndarray | None = None,
    ) -> np.ndarray:
        """Distance of two languages in every replicate of stacked slots.

        Without slot arrays, the observed arrangement as a batch of one.
        Shuffles keep each language's attested concepts, so the shared
        concepts, and their count, are the same in every replicate.
        """
        base_a, base_b = self.slot_word[lang_a], self.slot_word[lang_b]
        shared = (base_a != _NO_WORD) & (base_b != _NO_WORD)
        n = int(shared.sum())
        if n == 0:
            raise DistanceUndefinedError(
                f"{lang_a!r} and {lang_b!r} share no attested concepts"
            )
        wa = base_a[np.newaxis] if slots_a is None else slots_a
        wb = base_b[np.newaxis] if slots_b is None else slots_b
        ia, ib = wa[:, shared], wb[:, shared]
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

    def cluster_distance(
        self,
        cluster_a,
        cluster_b,
        slots: dict[str, np.ndarray] | None = None,
    ) -> np.ndarray:
        """Mean language distance over cross-cluster pairs, per replicate."""
        total = 0.0
        for lang_a in cluster_a:
            for lang_b in cluster_b:
                total += self.language_distance(
                    lang_a,
                    lang_b,
                    None if slots is None else slots[lang_a],
                    None if slots is None else slots[lang_b],
                )
        return total / (len(cluster_a) * len(cluster_b))

    def permuted_slots(
        self, languages, rng: np.random.Generator, replicates: int = 1
    ) -> dict[str, np.ndarray]:
        """Shuffle each language's words across its attested slots.

        Returns one row per replicate. Draws go replicate by replicate and,
        within one, language by language in sorted order, so the stream
        does not depend on how replicates are chunked. A language's
        pointers over its attested slots are ``0..m-1``, so shuffling a
        fresh ``0..m-1`` draws the same stream as shuffling the pointers.
        """
        languages = sorted(languages)
        draws = [
            np.tile(np.arange(len(self.attested[language])), (replicates, 1))
            for language in languages
        ]
        for r in range(replicates):
            for rows in draws:
                rng.shuffle(rows[r])
        out = {}
        for language, rows in zip(languages, draws):
            pointers = np.full((replicates, len(self.concepts)), _NO_WORD, dtype=np.int64)
            pointers[:, self.attested[language]] = rows
            out[language] = pointers
        return out


def _check_clusters(wl: Wordlist, cluster_a, cluster_b):
    a, b = set(cluster_a), set(cluster_b)
    if not a or not b:
        raise SchemaError("clusters must be non-empty")
    if a & b:
        raise SchemaError(f"clusters overlap on {sorted(a & b)}")
    stray = (a | b) - set(wl.languages)
    if stray:
        raise SchemaError(f"unknown languages {sorted(stray)}")


def language_distance(
    metric: WordMetric,
    wl: Wordlist,
    lang_a: str,
    lang_b: str,
    alphabet: ClassAlphabet | None = None,
) -> float:
    """Mean word distance over the concepts both languages attest."""
    _check_clusters(wl, [lang_a], [lang_b])
    return float(_Engine(metric, wl, alphabet).language_distance(lang_a, lang_b)[0])


def cluster_distance(
    metric: WordMetric,
    wl: Wordlist,
    cluster_a,
    cluster_b,
    alphabet: ClassAlphabet | None = None,
) -> float:
    """Mean language distance over all cross-cluster pairs.

    Pairs are added in sorted cluster order. A merge height of
    :func:`run_permtest` is the mean of the same distances added in another
    order, so the two can differ in the last bit.
    """
    _check_clusters(wl, cluster_a, cluster_b)
    engine = _Engine(metric, wl, alphabet)
    return float(engine.cluster_distance(sorted(cluster_a), sorted(cluster_b))[0])


class PermutationResult(NamedTuple):
    s_hat: float
    p_value: float
    expected_distance: float
    degenerate: bool


def _summary(draws: np.ndarray, observed: float) -> PermutationResult:
    """Statistics of an observed distance against its permuted ``draws``:
    the relative drop below their mean and the add-one p-value."""
    expected = float(draws.mean())
    p_value = (int(np.count_nonzero(draws <= observed)) + 1) / (len(draws) + 1)
    degenerate = expected == 0.0
    s_hat = 0.0 if degenerate else (expected - observed) / expected
    return PermutationResult(
        s_hat=float(s_hat),
        p_value=float(p_value),
        expected_distance=expected,
        degenerate=degenerate,
    )


def _significance(
    engine: _Engine,
    cluster_a,
    cluster_b,
    n_perm: int,
    seed: int,
) -> tuple[float, PermutationResult]:
    cluster_a, cluster_b = sorted(cluster_a), sorted(cluster_b)
    observed = float(engine.cluster_distance(cluster_a, cluster_b)[0])
    rng = np.random.default_rng(seed)
    union = cluster_a + cluster_b
    draws = np.concatenate([
        engine.cluster_distance(
            cluster_a, cluster_b, engine.permuted_slots(union, rng, count)
        )
        for count in _chunk_sizes(n_perm)
    ])
    result = _summary(draws, observed)
    if result.degenerate:
        logger.warning(
            "all permuted distances are zero for %r vs %r", cluster_a, cluster_b
        )
    return observed, result


def permutation_significance(
    metric: WordMetric,
    wl: Wordlist,
    cluster_a,
    cluster_b,
    n_perm: int = 1000,
    seed: int = 42,
    alphabet: ClassAlphabet | None = None,
) -> PermutationResult:
    """Similarity score and permutation p-value for one cluster pair.

    The score is the relative drop of the observed cluster distance below
    its permutation expectation; the p-value uses the add-one estimator
    (count of permuted distances at most the observed, plus one, over
    ``n_perm`` plus one).
    """
    if n_perm < 1:
        raise ValueError("need at least one permutation")
    _check_clusters(wl, cluster_a, cluster_b)
    engine = _Engine(metric, wl, alphabet)
    _, result = _significance(engine, cluster_a, cluster_b, n_perm, seed)
    return result


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
    engine: _Engine,
    languages: list[str],
    slots: dict[str, np.ndarray] | None = None,
) -> np.ndarray:
    """Language distance matrices, shape (replicates, languages, languages)."""
    replicates = 1 if slots is None else len(slots[languages[0]])
    out = np.zeros((replicates, len(languages), len(languages)))
    for i, lang_a in enumerate(languages):
        for j in range(i + 1, len(languages)):
            lang_b = languages[j]
            out[:, i, j] = out[:, j, i] = engine.language_distance(
                lang_a,
                lang_b,
                None if slots is None else slots[lang_a],
                None if slots is None else slots[lang_b],
            )
    return out


def _agglomerate(
    base: np.ndarray, languages: list[str]
) -> list[tuple[tuple[str, ...], tuple[str, ...], float]]:
    """Average-linkage merge sequence over a language distance matrix.

    A candidate's height is the mean of the base matrix over all its
    cross-language pairs, taken over the block with the older cluster's
    languages as rows and the newer cluster's as columns, rather than an
    incremental linkage update that drifts with every merge. A cluster's
    languages never change, so each candidate's ``(height, pair)`` key is
    computed once, when the newer cluster forms, and dropped when either
    side merges: a merge adds only the new cluster's blocks.
    """
    clusters = [(lang,) for lang in languages]
    rows = {cluster: np.array([k]) for k, cluster in enumerate(clusters)}
    pair_values = base.tolist()
    candidates = [
        (pair_values[i][j], tuple(sorted((clusters[i], clusters[j]))))
        for i in range(len(clusters))
        for j in range(i + 1, len(clusters))
    ]
    stages = []
    while len(clusters) > 1:
        distance, (left, right) = min(candidates)
        stages.append((left, right, distance))
        merged = tuple(sorted(left + right))
        rows[merged] = np.sort(np.concatenate((rows[left], rows[right])))
        clusters = [c for c in clusters if c != left and c != right]
        candidates = [
            key for key in candidates if left not in key[1] and right not in key[1]
        ]
        for older in clusters:
            # base[np.ix_(rows[older], rows[merged])], summed and divided
            # as block.mean() does, without the wrappers' overhead.
            block = base[rows[older][:, np.newaxis], rows[merged]]
            height = float(np.add.reduce(block, axis=None) / block.size)
            candidates.append((height, tuple(sorted((older, merged)))))
        clusters.append(merged)
    return stages


def run_permtest(
    metric: WordMetric,
    wl: Wordlist,
    n_perm: int = 1000,
    seed: int = 42,
    alphabet: ClassAlphabet | None = None,
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

    Replicates are drawn and scored in chunks, all replicates of a chunk
    at once; each is still clustered on its own, and a given seed gives the
    same draws and heights as scoring one replicate at a time.
    """
    if n_perm < 1:
        raise ValueError("need at least one permutation")
    if len(wl.languages) < 2:
        raise InsufficientDataError("clustering needs at least 2 languages")
    engine = _Engine(metric, wl, alphabet)
    languages = sorted(wl.languages)
    observed = _agglomerate(_pair_matrix(engine, languages)[0], languages)
    rng = np.random.default_rng(seed)
    heights = []
    for count in _chunk_sizes(n_perm):
        # No chunk's slots are held while the next chunk is drawn.
        bases = _pair_matrix(
            engine, languages, engine.permuted_slots(languages, rng, count)
        )
        for base in bases:
            heights.append([h for _, _, h in _agglomerate(base, languages)])
    heights = np.array(heights)
    merges: list[Merge] = []
    for k, (left, right, distance) in enumerate(observed):
        result = _summary(heights[:, k], distance)
        if result.degenerate:
            logger.warning(
                "all permuted merge heights are zero at rank %d (%r vs %r)",
                k,
                left,
                right,
            )
        merges.append(
            Merge(
                left=left,
                right=right,
                distance=float(distance),
                s_hat=result.s_hat,
                p_value=result.p_value,
                degenerate=result.degenerate,
            )
        )
    return MergeTree(languages=wl.languages, merges=tuple(merges))


def pairwise_significance(
    metric: WordMetric,
    wl: Wordlist,
    n_perm: int = 1000,
    seed: int = 42,
    alphabet: ClassAlphabet | None = None,
) -> list[dict]:
    """Permutation statistics for every language pair, as TSV-ready rows."""
    if n_perm < 1:
        raise ValueError("need at least one permutation")
    engine = _Engine(metric, wl, alphabet)
    rows = []
    pair_no = 0
    for i, lang_a in enumerate(wl.languages):
        for lang_b in wl.languages[i + 1 :]:
            pair_no += 1
            pair_seed = seed + pair_no * PAIR_SEED_STRIDE
            observed, result = _significance(
                engine, [lang_a], [lang_b], n_perm, pair_seed
            )
            rows.append(
                {
                    "LANG_A": lang_a,
                    "LANG_B": lang_b,
                    "DIST": observed,
                    "S_HAT": result.s_hat,
                    "P": result.p_value,
                }
            )
    return rows
