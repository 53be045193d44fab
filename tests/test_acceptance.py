"""End-to-end acceptance checks for the whole toolkit.

Covers oracle equivalence of the likelihood machinery, transition-matrix
algebra, statistical calibration of both relatedness tests, quartet-distance
properties, topology recovery, and CLI determinism. Tests against the
published wordlist datasets run only when RELATE_DATASET_DIR points at a
directory of per-group TSV wordlists (LANGUAGE/CONCEPT/FORM columns, one
file per group, e.g. UAz.tsv); without it they skip.
"""

import itertools
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from helpers import (
    leaf_symbol_map,
    random_freq_model,
    random_tree,
    random_wordlist_rows,
    related_wordlist_rows,
    wordlist_text,
)
from relate.bootsim import simulate_sites
from relate.cli import EXIT_OK, main
from relate.lexdata import FilterPolicy, filter_forms, parse_wordlist, select_core_form
from relate.lrt import RELATED, LrtConfig, paired_t_test, run_lrt
from relate.mlsearch import SearchConfig, ml_tree
from relate.msa import CharacterMatrix, build_character_matrix
from relate.permtest import WordMetric, pairwise_significance, run_permtest
from relate.phylik import (
    parse_newick,
    site_log_likelihoods,
    write_newick,
)
from relate.submodel import transition_prob
from relate.treecmp import gqd, parse_gold_tree

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402

DATASET_DIR = os.environ.get("RELATE_DATASET_DIR")

dataset_gate = pytest.mark.skipif(
    not DATASET_DIR,
    reason="RELATE_DATASET_DIR not set; published wordlist datasets not supplied",
)


def dataset_wordlist(group: str):
    path = os.path.join(DATASET_DIR, f"{group}.tsv")
    if not os.path.exists(path):
        pytest.skip(f"dataset file {path} not found")
    with open(path, "rb") as fh:
        wl = parse_wordlist(fh)
    wl = filter_forms(wl, FilterPolicy())
    return select_core_form(wl, rng_seed=42)


def states_matrix(tree, model, labels, n_sites, seed) -> CharacterMatrix:
    states = simulate_sites(tree, model, n_sites, np.random.default_rng(seed))
    symbols = np.array(model.alphabet)
    cells = np.stack([symbols[states[name]] for name in labels])
    return CharacterMatrix(labels, cells, [("c0", 0, n_sites)])


# -- likelihood oracle equivalence ------------------------------------------


def five_leaf_topologies():
    """All 15 labeled unrooted binary shapes: two cherries plus a middle leaf."""
    leaves = "ABCDE"
    seen = set()
    shapes = []
    for pair_a in itertools.combinations(leaves, 2):
        rest = [x for x in leaves if x not in pair_a]
        for pair_b in itertools.combinations(rest, 2):
            mid = next(x for x in rest if x not in pair_b)
            key = frozenset((frozenset(pair_a), frozenset(pair_b)))
            if key in seen:
                continue
            seen.add(key)
            shapes.append((pair_a, pair_b, mid))
    assert len(shapes) == 15
    return shapes


def test_pruning_matches_enumeration_on_all_five_leaf_topologies():
    rng = np.random.default_rng(17)
    mixtures = [
        random_freq_model(6, seed=1),
        random_freq_model(6, seed=2, p_inv=0.1),
        random_freq_model(6, seed=3, p_inv=0.07, gamma_shape=1.0, n_rate_cats=2),
    ]
    worst = 0.0
    for (a, b), (c, d), mid in five_leaf_topologies():
        for model in mixtures:
            lengths = rng.uniform(0.02, 1.2, size=7)
            text = (
                f"(({a}:{lengths[0]:.4f},{b}:{lengths[1]:.4f}):{lengths[4]:.4f},"
                f"{mid}:{lengths[6]:.4f},"
                f"({c}:{lengths[2]:.4f},{d}:{lengths[3]:.4f}):{lengths[5]:.4f});"
            )
            tree = parse_newick(text)
            cells = rng.choice(list(model.alphabet), size=(5, 20))
            cells = np.where(rng.random((5, 20)) < 0.1, "-", cells)
            matrix = CharacterMatrix(list("ABCDE"), cells, [("c0", 0, 20)])
            got = site_log_likelihoods(tree, model, matrix)
            want = oracles.enumeration_log_likelihoods(
                tree.adjacency,
                leaf_symbol_map(tree, matrix),
                model.alphabet,
                model.freqs,
                p_inv=model.p_inv,
                rates=model.rates,
            )
            worst = max(worst, float(np.max(np.abs(np.expm1(got - want)))))
    assert worst <= 1e-10


# -- transition-matrix algebra ----------------------------------------------


def test_transition_matrix_algebra_on_random_models():
    rng = np.random.default_rng(5)
    for i in range(100):
        n_states = 2 + i % 9
        gamma = 0.5 + rng.random() if i % 3 == 0 else None
        model = random_freq_model(
            n_states,
            seed=1000 + i,
            gamma_shape=gamma,
            n_rate_cats=2 if gamma else 1,
        )
        identity = transition_prob(model, 0.0)
        assert np.max(np.abs(identity - np.eye(n_states))) <= 1e-12
        s, t = rng.uniform(0.05, 4.0, size=2)
        rate = model.rates[i % len(model.rates)]
        ps = transition_prob(model, s, rate)
        pt = transition_prob(model, t, rate)
        pst = transition_prob(model, s + t, rate)
        for matrix in (ps, pt, pst):
            assert np.max(np.abs(matrix.sum(axis=1) - 1.0)) <= 1e-12
        assert np.max(np.abs(ps @ pt - pst)) <= 1e-10
        flux = np.asarray(model.freqs)[:, None] * ps
        assert np.max(np.abs(flux - flux.T)) <= 1e-12


# -- likelihood-ratio test calibration ---------------------------------------


def invariant_mixture_matrix(p_inv: float, trial: int) -> CharacterMatrix:
    labels = [f"T{i:02d}" for i in range(10)]
    tree = random_tree(labels, seed=500 + trial, min_length=0.1, max_length=0.6)
    model = random_freq_model(6, seed=900 + trial, p_inv=p_inv)
    return states_matrix(tree, model, labels, 500, seed=300 + trial)


def test_lrt_decision_rates_match_both_simulation_regimes():
    config = LrtConfig(k=5, seed=101)
    null_related = sum(
        run_lrt(invariant_mixture_matrix(0.01, trial), config).decision == RELATED
        for trial in range(20)
    )
    alt_related = sum(
        run_lrt(invariant_mixture_matrix(0.06, trial), config).decision == RELATED
        for trial in range(20, 40)
    )
    assert null_related <= 2
    assert alt_related >= 18


def binomial_quantile(n: int, p: float, level: float) -> int:
    """Smallest c with P(X > c) <= level for X ~ Binomial(n, p)."""
    tail = 1.0
    for c in range(n + 1):
        tail -= math.comb(n, c) * p**c * (1.0 - p) ** (n - c)
        if tail <= level:
            return c
    return n


def unrelated_union_decision(seed: int) -> str:
    """LRT decision on a union of two unrelated generated 3-language
    families, from wordlist bytes through filtering, form choice and
    alignment."""
    generated = gen.family_union(seed, (3, 3), 30)
    wl = parse_wordlist(generated.to_tsv(gen.BASIC_COLUMNS))
    wl = select_core_form(filter_forms(wl), rng_seed=seed)
    config = LrtConfig(k=5, seed=seed)
    return run_lrt(build_character_matrix(wl), config).decision


#: Seeds of the generated unions, and the most RELATED decisions their
#: unrelated unions may give: X ~ Binomial(10, alpha) exceeds it with
#: probability 0.01 or less.
UNION_SEEDS = range(20, 30)
UNION_RELATED_BOUND = binomial_quantile(len(UNION_SEEDS), LrtConfig().alpha, 0.01)


def test_lrt_rarely_relates_unrelated_generated_unions():
    # The paper's claim: no false positives on unions of unrelated
    # families. Each union is RELATED with probability at most alpha.
    assert UNION_RELATED_BOUND == 3
    related = sum(unrelated_union_decision(s) == RELATED for s in UNION_SEEDS)
    assert related <= UNION_RELATED_BOUND


# -- published-dataset reproduction: likelihood test -------------------------

POSITIVE_GROUPS = ("MKh", "Mun", "MKh-Mun", "IE", "Drav", "May", "MZ", "UAz")
NEGATIVE_GROUPS = ("MKh-May", "MKh-UAz", "AfA-LoBur")


@dataset_gate
@pytest.mark.parametrize("group", POSITIVE_GROUPS)
def test_established_families_score_positive_and_significant(group):
    matrix = build_character_matrix(dataset_wordlist(group))
    report = run_lrt(matrix, LrtConfig(seed=42))
    assert report.mean_delta_observed > 0
    assert report.p_value < 0.05


@dataset_gate
@pytest.mark.parametrize("group", NEGATIVE_GROUPS)
def test_unrelated_family_unions_score_negative(group):
    matrix = build_character_matrix(dataset_wordlist(group))
    report = run_lrt(matrix, LrtConfig(seed=42))
    assert report.mean_delta_observed < 0


# -- permutation-test calibration and reproduction ---------------------------


def test_permutation_root_p_is_calibrated_on_random_wordlists():
    hits = 0
    for trial in range(100):
        rows = random_wordlist_rows(8, 100, seed=5000 + trial)
        wl = parse_wordlist(wordlist_text(rows))
        tree = run_permtest(WordMetric.p1_dolgo(), wl, n_perm=200, seed=trial)
        hits += tree.root.p_value < 0.05
    assert 0.01 <= hits / 100 <= 0.12


def test_permutation_pair_row_p_is_calibrated_on_random_wordlists():
    # The rows of one wordlist share their replicates, so each wordlist
    # gives one row: its first pair in wordlist order.
    hits = 0
    for trial in range(100):
        rows = random_wordlist_rows(8, 100, seed=5000 + trial)
        wl = parse_wordlist(wordlist_text(rows))
        first = pairwise_significance(WordMetric.p1_dolgo(), wl, n_perm=200, seed=trial)[0]
        hits += first["P"] < 0.05
    assert 0.01 <= hits / 100 <= 0.12


@dataset_gate
def test_uto_aztecan_first_class_similarity_is_strong():
    wl = dataset_wordlist("UAz")
    tree = run_permtest(WordMetric.p1_dolgo(), wl, n_perm=1000, seed=42)
    assert tree.root.s_hat > 0.4
    assert tree.root.p_value < 0.01


@dataset_gate
def test_mon_khmer_mayan_union_similarity_is_tiny():
    wl = dataset_wordlist("MKh-May")
    tree = run_permtest(WordMetric.turchin(), wl, n_perm=1000, seed=42)
    assert tree.root.s_hat < 0.01


# -- quartet distance ---------------------------------------------------------


def test_gqd_of_a_tree_with_itself_is_zero():
    labels = [f"L{i}" for i in range(12)]
    tree = random_tree(labels, seed=3)
    score = gqd(tree, tree)
    assert score.differing == 0
    assert score.gqd == 0.0


def test_random_tree_pairs_disagree_on_about_two_thirds_of_quartets():
    labels = [f"L{i:02d}" for i in range(20)]
    values = [
        gqd(random_tree(labels, seed=2 * rep), random_tree(labels, seed=2 * rep + 1)).gqd
        for rep in range(200)
    ]
    assert 0.61 <= float(np.mean(values)) <= 0.72


def test_quartet_scan_matches_path_oracle_for_every_size_up_to_twelve():
    for n in range(4, 13):
        labels = [f"L{i:02d}" for i in range(n)]
        pred = random_tree(labels, seed=n)
        if n % 3 == 0:
            # exercise multifurcating reference trees too
            half = n // 2
            gold = parse_gold_tree(
                "((" + ",".join(labels[:half]) + "),("
                + ",".join(labels[half:]) + "));"
            )
        else:
            gold = parse_gold_tree(_binary_newick(labels, seed=n + 100))
        score = gqd(pred, gold)
        assert (score.resolved_gold, score.differing) == oracles.quartet_counts_by_paths(
            pred.adjacency, pred.leaf_names, gold.adjacency, gold.leaf_names
        )


def _binary_newick(labels, seed: int) -> str:
    return write_newick(random_tree(labels, seed=seed))


# -- t-test oracle ------------------------------------------------------------


def diffs_with_sample_t(t_value: float, k: int) -> np.ndarray:
    """A length-k vector whose one-sample t statistic is exactly t_value."""
    base = np.arange(k, dtype=float)
    base -= base.mean()
    base /= base.std(ddof=1)
    return t_value / np.sqrt(k) + base


def test_paired_t_test_matches_high_precision_tail_oracle():
    for df in (1, 5, 14):
        k = df + 1
        for t_want in (-3.0, 0.0, 1.0, 3.0):
            t_got, p = paired_t_test(diffs_with_sample_t(t_want, k), np.zeros(k))
            assert t_got == pytest.approx(t_want, abs=1e-9)
            assert abs(p - oracles.t_upper_tail(t_want, df)) <= 1e-6


def test_unit_t_at_one_degree_gives_exactly_one_quarter():
    _, p = paired_t_test(diffs_with_sample_t(1.0, 2), np.zeros(2))
    assert abs(p - 0.25) <= 1e-12


# -- topology recovery ---------------------------------------------------------


def test_eight_taxon_topology_recovered_from_simulated_sites():
    truth = parse_newick(
        "((T0:0.22,T1:0.31):0.18,(T2:0.14,T3:0.27):0.21,"
        "((T4:0.19,T5:0.33):0.17,(T6:0.25,T7:0.12):0.23):0.2);"
    )
    model = random_freq_model(6, seed=3)
    labels = [f"T{i}" for i in range(8)]
    wins = 0
    for seed in range(5):
        matrix = states_matrix(truth, model, labels, 2000, seed=seed)
        fit = ml_tree(matrix, 0.0, SearchConfig(seed=seed))
        wins += gqd(fit.tree, truth).gqd == 0.0
    assert wins >= 4


# -- CLI determinism ------------------------------------------------------------


def _without_timestamp(path) -> str:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    return "".join(line for line in lines if '"created_utc"' not in line)


def test_every_command_rerun_is_byte_identical_outside_timestamps(tmp_path):
    wordlist = tmp_path / "words.tsv"
    wordlist.write_text(
        wordlist_text(related_wordlist_rows(4, 12, seed=21, mutation=0.3)),
        encoding="utf-8",
    )
    fit = tmp_path / "fit.json"
    template = tmp_path / "template.txt"
    assert main([
        "mltree", "--wordlist", str(wordlist), "--p-inv", "0.05",
        "--out", str(fit), "--save-matrix", str(template),
    ]) == EXIT_OK
    tree_file = tmp_path / "tree.nwk"
    tree_file.write_text("((A:1,B:2):1,(C:1,D:1):2);\n", encoding="utf-8")

    commands = {
        "lrt": [
            "lrt", "--wordlist", str(wordlist), "--k", "2",
            "--out", str(tmp_path / "lrt.json"),
        ],
        "permtest": [
            "permtest", "--wordlist", str(wordlist), "--n-perm", "60",
            "--pairwise", str(tmp_path / "pairs.tsv"),
            "--out", str(tmp_path / "perm.json"),
        ],
        "mltree": [
            "mltree", "--wordlist", str(wordlist), "--p-inv", "0.05",
            "--out", str(tmp_path / "tree.json"),
        ],
        "simulate": [
            "simulate", "--fit", str(fit), "--template", str(template),
            "--out", str(tmp_path / "replicate.json"),
        ],
        "gqd": [
            "gqd", "--predicted", str(tree_file), "--gold", str(tree_file),
            "--out", str(tmp_path / "gqd.json"),
        ],
    }
    outputs = {
        "lrt": [tmp_path / "lrt.json"],
        "permtest": [tmp_path / "perm.json", tmp_path / "pairs.tsv"],
        "mltree": [tmp_path / "tree.json"],
        "simulate": [tmp_path / "replicate.json"],
        "gqd": [tmp_path / "gqd.json"],
    }
    for name, argv in commands.items():
        assert main(argv) == EXIT_OK, name
        first = [_without_timestamp(path) for path in outputs[name]]
        assert main(argv) == EXIT_OK, name
        second = [_without_timestamp(path) for path in outputs[name]]
        assert first == second, name
        assert all(text for text in first), name
