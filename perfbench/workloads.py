"""The four workloads: how each makes an input, runs one operation through
the public ``relate`` API, and checks the output.

An operation receives only generated bytes or matrix text. Checks compare
its output with what the generator recorded and with ``reference``, which
computes the same quantities by other routes. A check returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Any, Callable

import numpy as np

import gen
import reference

# Sizes are tuned so that a run holds enough operations for a steady median.
LRT_FAMILIES = (3, 2)
LRT_CONCEPTS = 40
LRT_BRIDGE = 1.0
LRT_K = 3
GAMMA_TAXA = 10
GAMMA_SITES = 500
GAMMA_P_INV = 0.2
GAMMA_SHAPE = 1.0
PERM_FAMILIES = (5, 5)
PERM_CONCEPTS = 100
PERM_N = 1000
MATRIX_FAMILIES = (8, 8, 8)
MATRIX_CONCEPTS = 150

LL_RTOL = 1e-8
STAT_RTOL = 1e-9


@dataclass
class Workload:
    name: str
    make_input: Callable[[int], Any]
    operation: Callable[[Any], Any]
    check: Callable[[Any, Any], list[str]]
    verdict: Callable[[Any], str | None]
    trace_ops: int


@dataclass
class WordlistInput:
    """Generated wordlist, the TSV bytes the program gets, and the seed its
    search and selection use."""

    generated: gen.GeneratedWordlist
    tsv: bytes
    seed: int


def input_seed(seed: int, index: int) -> int:
    """Seed of the index-th input of a run, distinct across runs and inputs."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _close(got: float, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * max(abs(want), 1.0)


def _rows(matrix) -> dict[str, str]:
    return {taxon: "".join(matrix.cells[t]) for t, taxon in enumerate(matrix.taxa)}


def _check_fit(label, fit, rows, p_inv, rates, problems):
    """Frequencies and log likelihood of one fit against the reference."""
    states = sorted(set("".join(rows.values())) - {reference.GAP})
    freqs = reference.smoothed_frequencies(rows.values(), states)
    model = fit.model
    if list(model.alphabet) != states:
        problems.append(f"{label}: alphabet {model.alphabet} is not the observed states {states}")
        return
    if not np.allclose(model.freqs, freqs, rtol=1e-12, atol=0.0):
        problems.append(f"{label}: frequencies differ from smoothed counts")
    if model.p_inv != p_inv:
        problems.append(f"{label}: p_inv {model.p_inv} is not {p_inv}")
    if set(fit.tree.leaf_names.values()) != set(rows):
        problems.append(f"{label}: tree leaves differ from the matrix taxa")
        return
    want = float(
        reference.site_log_likelihoods(
            fit.tree.adjacency, fit.tree.leaf_names, rows, states, freqs, p_inv, rates
        ).sum()
    )
    if abs(fit.log_likelihood - want) > LL_RTOL * abs(want):
        problems.append(f"{label}: log likelihood {fit.log_likelihood!r}, reference {want!r}")


# -- lrt-macro ---------------------------------------------------------------------


def lrt_input(seed: int) -> WordlistInput:
    generated = gen.family_union(seed, LRT_FAMILIES, LRT_CONCEPTS, bridge=LRT_BRIDGE)
    return WordlistInput(generated, generated.to_tsv(gen.BASIC_COLUMNS), seed)


def lrt_operation(inp: WordlistInput):
    import relate
    from relate.lexdata import filter_forms, select_core_form

    wl = select_core_form(filter_forms(relate.parse_wordlist(inp.tsv)), rng_seed=inp.seed)
    matrix = relate.build_character_matrix(wl)
    report = relate.run_lrt(matrix, relate.LrtConfig(k=LRT_K, seed=inp.seed))
    return matrix, report


def lrt_check(inp: WordlistInput, out) -> list[str]:
    matrix, report = out
    problems: list[str] = []
    if list(matrix.taxa) != inp.generated.languages:
        problems.append("matrix taxa differ from the generated languages")
        return problems
    rows = _rows(matrix)
    config = report.config
    if len(report.runs) != config.k:
        problems.append(f"{len(report.runs)} runs, expected {config.k}")
    for run in report.runs:
        for label, fit, p_inv in (
            (f"run {run.index} null", run.fit_null, config.p_inv_null),
            (f"run {run.index} alt", run.fit_alt, config.p_inv_alt),
        ):
            _check_fit(label, fit, rows, p_inv, (1.0,), problems)
        delta = 2.0 * (run.fit_alt.log_likelihood - run.fit_null.log_likelihood)
        if not _close(run.delta_observed, delta, STAT_RTOL):
            problems.append(f"run {run.index}: delta_obs {run.delta_observed!r}, expected {delta!r}")
    observed = np.array(report.delta_observed)
    null = np.array(report.delta_null)
    if np.std(observed - null) == 0.0:
        mean = float(np.mean(observed - null))
        want_p = 0.0 if mean > 0 else (1.0 if mean < 0 else 0.5)
        if report.p_value != want_p:
            problems.append(f"degenerate t-test p {report.p_value!r}, expected {want_p!r}")
    else:
        t, p = reference.paired_t(observed, null)
        if not (_close(report.t_statistic, t, STAT_RTOL) and _close(report.p_value, p, STAT_RTOL)):
            problems.append(f"t, p = {report.t_statistic!r}, {report.p_value!r}; ttest_rel gives {t!r}, {p!r}")
    related = report.p_value < config.alpha and float(np.mean(observed)) > 0
    if report.decision != ("RELATED" if related else "NOT_SUPPORTED"):
        problems.append(f"decision {report.decision} does not follow p and the mean statistic")
    return problems


# -- mltree-gamma ---------------------------------------------------------------------


@dataclass
class GammaInput:
    simulated: gen.SimulatedMatrix
    text: str
    seed: int


def alignment_text(sim: gen.SimulatedMatrix) -> str:
    """The matrix in the alignment format ``relate mltree --matrix`` reads."""
    lines = [f"{len(sim.taxa)} {len(sim.rows[0])}"]
    lines += [f"{taxon}\t{row}" for taxon, row in zip(sim.taxa, sim.rows)]
    return "\n".join(lines) + "\n"


def gamma_input(seed: int) -> GammaInput:
    sim = gen.simulate_gamma_matrix(seed, GAMMA_TAXA, GAMMA_SITES, GAMMA_P_INV, GAMMA_SHAPE)
    return GammaInput(sim, alignment_text(sim), seed)


def gamma_operation(inp: GammaInput):
    import relate
    from relate.mlsearch import ml_tree_estimated

    matrix = relate.CharacterMatrix.from_alignment_text(inp.text)
    fit = ml_tree_estimated(matrix, relate.SearchConfig(seed=inp.seed), use_gamma=True)
    score = relate.gqd(fit.tree, relate.parse_gold_tree(inp.simulated.tree.newick()))
    return fit, score


def gamma_check(inp: GammaInput, out) -> list[str]:
    fit, score = out
    sim = inp.simulated
    problems: list[str] = []
    rows = dict(zip(sim.taxa, sim.rows))
    model = fit.model
    if model.gamma_shape is None or model.n_rate_cats != 2:
        return ["fit has no two-category gamma model"]
    rates = reference.gamma_rates(model.gamma_shape, 2)
    if not 0.0 <= model.p_inv <= 0.5:
        problems.append(f"p_inv {model.p_inv} outside [0, 0.5]")
    _check_fit("fit", fit, rows, model.p_inv, rates, problems)
    if set(fit.tree.leaf_names.values()) != set(sim.taxa):
        return problems
    same = reference.bipartitions(fit.tree.adjacency, fit.tree.leaf_names) == reference.bipartitions(
        sim.tree.adjacency, sim.tree.leaves()
    )
    if not same:
        problems.append("fitted topology differs from the generating tree")
    if same != (score.differing == 0) or score.resolved_gold != math.comb(len(sim.taxa), 4):
        problems.append(
            f"gqd {score.gqd} ({score.differing} of {score.resolved_gold}) disagrees with the bipartitions"
        )
    return problems


# -- permtest-group ---------------------------------------------------------------------


def perm_input(seed: int) -> WordlistInput:
    generated = gen.family_union(seed, PERM_FAMILIES, PERM_CONCEPTS, missing=0.1)
    return WordlistInput(generated, generated.to_tsv(gen.BASIC_COLUMNS), seed)


def perm_operation(inp: WordlistInput):
    import relate
    from relate.lexdata import filter_forms, select_core_form
    from relate.permtest import pairwise_significance

    wl = select_core_form(filter_forms(relate.parse_wordlist(inp.tsv)), rng_seed=inp.seed)
    metric = relate.WordMetric.p1_dolgo()
    merges = relate.run_permtest(metric, wl, n_perm=PERM_N, seed=inp.seed)
    pairs = pairwise_significance(metric, wl, n_perm=PERM_N, seed=inp.seed)
    return merges, pairs


def first_class_distances(generated: gen.GeneratedWordlist, languages) -> np.ndarray:
    """Share of commonly attested concepts whose first classes differ."""
    n = len(languages)
    dist = np.zeros((n, n))
    for i, j in combinations(range(n), 2):
        differ = shared = 0
        for concept in generated.concepts:
            a = generated.slots.get((languages[i], concept))
            b = generated.slots.get((languages[j], concept))
            if a and b:
                shared += 1
                differ += a[0].skeleton[0] != b[0].skeleton[0]
        dist[i, j] = dist[j, i] = differ / shared
    return dist


def _p_ok(p: float, n_perm: int) -> bool:
    scaled = p * (n_perm + 1)
    return abs(scaled - round(scaled)) < 1e-6 and 1 <= round(scaled) <= n_perm + 1


def replay_merges(merges, dist, languages) -> tuple[list[str], bool]:
    """Replay the program's merges on the generator's distances.

    Each merge must join two current clusters at their mean cross-pair
    distance, and no other pair may be closer. Returns the problems and
    whether some step had another pair exactly as close (a tie, which
    average linkage may break either way).
    """
    index = {lang: k for k, lang in enumerate(languages)}
    clusters = {frozenset([lang]) for lang in languages}
    problems, tie = [], False

    def mean(a, b):
        return float(np.mean(dist[np.ix_([index[x] for x in a], [index[y] for y in b])]))

    for step, m in enumerate(merges):
        left, right = frozenset(m.left), frozenset(m.right)
        if left not in clusters or right not in clusters:
            problems.append(f"merge {step} joins clusters that do not exist")
            return problems, tie
        if abs(mean(left, right) - m.distance) > 1e-12:
            problems.append(f"merge {step} height {m.distance!r} is not the mean pair distance")
        others = [mean(a, b) for a, b in combinations(sorted(clusters, key=sorted), 2) if {a, b} != {left, right}]
        closest = min(others, default=np.inf)
        if closest < m.distance - 1e-12:
            problems.append(f"merge {step} at {m.distance!r} skips a pair at {closest!r}")
        tie = tie or abs(closest - m.distance) <= 1e-12
        clusters -= {left, right}
        clusters.add(left | right)
    return problems, tie


def perm_check(inp: WordlistInput, out) -> list[str]:
    merges, pairs = out
    languages = sorted(inp.generated.languages)
    dist = first_class_distances(inp.generated, languages)
    problems, tie = replay_merges(merges.merges, dist, languages)
    heights = [m.distance for m in merges.merges]
    want = reference.average_linkage_heights(dist)
    if not tie and not np.allclose(heights, want, rtol=0.0, atol=1e-12):
        problems.append(f"merge heights {heights} differ from average linkage {list(want)}")
    if any(b < a for a, b in zip(heights, heights[1:])):
        problems.append("merge heights decrease")
    for m in merges.merges:
        if not _p_ok(m.p_value, PERM_N):
            problems.append(f"merge p-value {m.p_value!r} is not k/(n_perm + 1)")
    index = {lang: k for k, lang in enumerate(languages)}
    seen = set()
    for row in pairs:
        a, b = row["LANG_A"], row["LANG_B"]
        seen.add(frozenset((a, b)))
        if not _close(row["DIST"], dist[index[a], index[b]], 1e-12):
            problems.append(f"pair {a}/{b}: DIST {row['DIST']!r}, expected {dist[index[a], index[b]]!r}")
        if not _p_ok(row["P"], PERM_N):
            problems.append(f"pair {a}/{b}: P {row['P']!r} is not k/(n_perm + 1)")
    if len(seen) != len(pairs) or len(seen) != math.comb(len(languages), 2):
        problems.append("pairwise rows do not cover every language pair once")
    return problems


# -- matrix-build ---------------------------------------------------------------------


def matrix_input(seed: int) -> WordlistInput:
    generated = gen.rich_wordlist(seed, MATRIX_FAMILIES, MATRIX_CONCEPTS)
    return WordlistInput(generated, generated.to_tsv(), seed)


def matrix_operation(inp: WordlistInput):
    import relate
    from relate.lexdata import filter_forms, select_core_form

    chosen = select_core_form(filter_forms(relate.parse_wordlist(inp.tsv)), rng_seed=inp.seed)
    return chosen, relate.build_character_matrix(chosen)


def eligible(words: list[gen.SlotWord]) -> list[gen.SlotWord]:
    """Words that may fill a slot: survivors, and of those the lowest
    ranked when any survivor is ranked."""
    survivors = [w for w in words if w.survives]
    ranks = [w.rank for w in survivors if w.rank is not None]
    if ranks:
        return [w for w in survivors if w.rank == min(ranks)]
    return survivors


def matrix_check(inp: WordlistInput, out) -> list[str]:
    chosen, matrix = out
    g = inp.generated
    problems: list[str] = []
    pools = {slot: eligible(words) for slot, words in g.slots.items()}

    picked = {}
    for entry in chosen.entries:
        slot = (entry.language, entry.concept)
        if slot in picked:
            problems.append(f"{slot} keeps two forms")
        picked[slot] = entry
        if entry.flags:
            problems.append(f"{slot}: flagged form {entry.form!r} survived")
        if not any(
            w.form == entry.form and w.rank == entry.core_rank and w.segments == entry.segments
            for w in pools.get(slot, ())
        ):
            problems.append(f"{slot}: {entry.form!r} is not an eligible word")
    for slot, pool in pools.items():
        if pool and slot not in picked:
            problems.append(f"{slot}: no form kept although one survives")

    if list(matrix.taxa) != g.languages:
        return problems + ["matrix taxa differ from the generated languages"]
    # The program keeps concepts in order of first appearance in the TSV.
    order = dict.fromkeys(c for lang in g.languages for c in g.concepts if (lang, c) in g.slots)
    live = [c for c in order if any(pools.get((lang, c)) for lang in g.languages)]
    bounds = matrix.concept_bounds
    if [c for c, _, _ in bounds] != live:
        problems.append("concept blocks are not exactly the concepts with a surviving word")
    cursor = 0
    for concept, lo, hi in bounds:
        if lo != cursor or hi <= lo:
            problems.append(f"concept {concept} block [{lo}, {hi}) is not contiguous")
        cursor = hi
        for t, lang in enumerate(matrix.taxa):
            cells = tuple(c for c in matrix.cells[t, lo:hi] if c != "-")
            pool = pools.get((lang, concept), [])
            if not pool:
                if cells:
                    problems.append(f"{lang}/{concept}: cells where no word survives")
            elif not any(cells == w.skeleton for w in pool):
                problems.append(f"{lang}/{concept}: {cells} matches no eligible word")
    if cursor != matrix.sites:
        problems.append(f"concept blocks cover {cursor} of {matrix.sites} sites")
    if (matrix.cells == "-").all(axis=0).any():
        problems.append("a column is all gaps")
    return problems


WORKLOADS = {
    "lrt-macro": Workload(
        "lrt-macro", lrt_input, lrt_operation, lrt_check, lambda out: out[1].decision, 4
    ),
    "mltree-gamma": Workload(
        "mltree-gamma", gamma_input, gamma_operation, gamma_check, lambda out: None, 4
    ),
    "permtest-group": Workload(
        "permtest-group", perm_input, perm_operation, perm_check, lambda out: out[0].verdict(), 2
    ),
    "matrix-build": Workload(
        "matrix-build", matrix_input, matrix_operation, matrix_check, lambda out: None, 3
    ),
}
