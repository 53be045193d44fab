"""The checks accept the program's outputs and reject corrupted ones.

    python3 -m pytest perfbench/test_checks.py

Each test runs one operation on a small generated input, confirms that its
check passes, then corrupts one value and confirms that the check fails.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import gen  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from relate import CharacterMatrix, LexEntry, Phylogeny  # noqa: E402


@pytest.fixture(scope="module")
def lrt_case():
    generated = gen.family_union(5, (2, 2), 15)
    inp = workloads.WordlistInput(generated, generated.to_tsv(gen.BASIC_COLUMNS), 5)
    return inp, workloads.lrt_operation(inp)


@pytest.fixture(scope="module")
def gamma_case():
    sim = gen.simulate_gamma_matrix(3, 6, 300)
    inp = workloads.GammaInput(sim, workloads.alignment_text(sim), 3)
    return inp, workloads.gamma_operation(inp)


@pytest.fixture(scope="module")
def perm_case():
    generated = gen.family_union(7, (2, 2), 30, missing=0.1)
    inp = workloads.WordlistInput(generated, generated.to_tsv(gen.BASIC_COLUMNS), 7)
    return inp, workloads.perm_operation(inp)


@pytest.fixture(scope="module")
def matrix_case():
    generated = gen.rich_wordlist(11, (3, 3), 25)
    inp = workloads.WordlistInput(generated, generated.to_tsv(), 11)
    return inp, workloads.matrix_operation(inp)


def _with_null_ll(report, factor):
    run = report.runs[0]
    fit = dataclasses.replace(run.fit_null, log_likelihood=run.fit_null.log_likelihood * factor)
    runs = (dataclasses.replace(run, fit_null=fit),) + report.runs[1:]
    return dataclasses.replace(report, runs=runs)


def test_lrt_check_accepts_the_program_output(lrt_case):
    inp, out = lrt_case
    assert workloads.lrt_check(inp, out) == []


def test_lrt_check_rejects_a_perturbed_log_likelihood(lrt_case):
    inp, (matrix, report) = lrt_case
    problems = workloads.lrt_check(inp, (matrix, _with_null_ll(report, 1 + 1e-7)))
    assert any("log likelihood" in p for p in problems)


def test_lrt_check_rejects_a_wrong_p_value_and_decision(lrt_case):
    inp, (matrix, report) = lrt_case
    flipped = "RELATED" if report.decision == "NOT_SUPPORTED" else "NOT_SUPPORTED"
    bad = dataclasses.replace(report, p_value=report.p_value * 0.5, decision=flipped)
    problems = workloads.lrt_check(inp, (matrix, bad))
    assert any("ttest_rel" in p for p in problems)
    assert any("decision" in p for p in problems)


def test_gamma_check_accepts_the_program_output(gamma_case):
    inp, out = gamma_case
    assert workloads.gamma_check(inp, out) == []


def test_gamma_check_rejects_a_perturbed_log_likelihood(gamma_case):
    inp, (fit, score) = gamma_case
    bad = dataclasses.replace(fit, log_likelihood=fit.log_likelihood * (1 - 1e-7))
    assert any("log likelihood" in p for p in workloads.gamma_check(inp, (bad, score)))


def test_gamma_check_rejects_a_different_topology(gamma_case):
    inp, (fit, score) = gamma_case
    names = dict(fit.tree.leaf_names)
    splits = reference.bipartitions(fit.tree.adjacency, names)
    nodes = sorted(names)
    for a in nodes:
        for b in nodes:
            swapped = dict(names)
            swapped[a], swapped[b] = names[b], names[a]
            if reference.bipartitions(fit.tree.adjacency, swapped) != splits:
                tree = Phylogeny(fit.tree.adjacency, swapped)
                problems = workloads.gamma_check(inp, (dataclasses.replace(fit, tree=tree), score))
                assert "fitted topology differs from the generating tree" in problems
                return
    pytest.fail("no leaf swap changes the topology")


def test_bipartitions_ignore_node_ids_and_lengths():
    a = {0: {4: 0.1}, 1: {4: 0.2}, 2: {5: 0.3}, 3: {5: 0.1}, 4: {0: 0.1, 1: 0.2, 5: 0.5}, 5: {2: 0.3, 3: 0.1, 4: 0.5}}
    names = {0: "A", 1: "B", 2: "C", 3: "D"}
    assert reference.bipartitions(a, names) == {frozenset({"C", "D"})}
    relabelled = {0: "C", 1: "D", 2: "A", 3: "B"}
    assert reference.bipartitions(a, relabelled) == reference.bipartitions(a, names)
    assert reference.bipartitions(a, {0: "A", 1: "C", 2: "B", 3: "D"}) == {frozenset({"B", "D"})}


def test_perm_check_accepts_the_program_output(perm_case):
    inp, out = perm_case
    assert workloads.perm_check(inp, out) == []


def test_perm_check_rejects_a_swapped_merge_height(perm_case):
    inp, (merges, pairs) = perm_case
    first, second = merges.merges[0], merges.merges[-1]
    assert first.distance != second.distance
    swapped = (
        (dataclasses.replace(first, distance=second.distance),)
        + merges.merges[1:-1]
        + (dataclasses.replace(second, distance=first.distance),)
    )
    problems = workloads.perm_check(inp, (dataclasses.replace(merges, merges=swapped), pairs))
    assert any("is not the mean pair distance" in p for p in problems)
    assert "merge heights decrease" in problems


def test_perm_check_rejects_a_p_value_off_the_grid_and_a_wrong_distance(perm_case):
    inp, (merges, pairs) = perm_case
    bad = [dict(row) for row in pairs]
    bad[0]["P"] += 1e-4
    bad[1]["DIST"] += 1e-9
    problems = workloads.perm_check(inp, (merges, bad))
    assert any("is not k/(n_perm + 1)" in p for p in problems)
    assert any("DIST" in p for p in problems)


def test_matrix_check_accepts_the_program_output(matrix_case):
    inp, out = matrix_case
    assert workloads.matrix_check(inp, out) == []


def test_matrix_check_rejects_a_row_with_one_class_changed(matrix_case):
    inp, (chosen, matrix) = matrix_case
    cells = matrix.cells.copy()
    row, col = np.argwhere(cells != "-")[0]
    cells[row, col] = "H" if cells[row, col] != "H" else "P"
    bad = CharacterMatrix(matrix.taxa, cells, matrix.concept_bounds)
    problems = workloads.matrix_check(inp, (chosen, bad))
    assert any("matches no eligible word" in p for p in problems)


def test_matrix_check_rejects_a_surviving_loan(matrix_case):
    inp, (chosen, matrix) = matrix_case
    loans = [
        (lang, concept, w)
        for (lang, concept), words in inp.generated.slots.items()
        for w in words
        if w.loan
    ]
    lang, concept, word = loans[0]
    entries = [e for e in chosen.entries if (e.language, e.concept) != (lang, concept)]
    entries.append(
        LexEntry(lang, concept, word.form, segments=word.segments,
                 flags=frozenset({"LOAN"}), core_rank=word.rank)
    )
    bad = dataclasses.replace(chosen, entries=tuple(entries))
    problems = workloads.matrix_check(inp, (bad, matrix))
    assert any("flagged form" in p for p in problems)


def test_reference_gamma_rates_average_one_and_increase():
    rates = reference.gamma_rates(0.7, 2)
    assert rates[0] < 1.0 < rates[1]
    assert abs(sum(rates) / 2 - 1.0) < 1e-15
