"""The benchmark's tracer still wraps the library names it counts.

``perfbench/tracing.py`` replaces functions of the ``relate`` modules by
name, so renaming or deleting one of them breaks only a traced benchmark
run. These tests install the tracer around small fits and small tests, and
pin what the permutation counters count.
"""

import sys
from pathlib import Path

from helpers import related_wordlist_rows, small_matrix, wordlist_text
from relate import lrt, mlsearch, permtest
from relate.lexdata import parse_wordlist
# Every module the tracer wraps, loaded before the namespaces are compared.
from relate import bootsim, lexdata, msa, phylik, soundclass, submodel, treecmp  # noqa: F401

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402


def namespaces() -> dict:
    """Every attribute of the loaded ``relate`` modules and of the
    permutation engine, by (owner, name)."""
    owners = [m for n, m in sys.modules.items() if n == "relate" or n.startswith("relate.")]
    owners.append(permtest._Engine)
    return {
        (owner.__name__, attr): value
        for owner in owners
        for attr, value in vars(owner).items()
    }


def test_install_counts_the_layers_and_uninstall_restores_them():
    before = namespaces()
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        wrapped = {key for key, value in namespaces().items() if before.get(key) is not value}
        mlsearch.ml_tree(small_matrix(), 0.06)
        lrt.run_lrt(small_matrix(), lrt.LrtConfig(k=2))
    finally:
        tracing.uninstall(undo)
    metrics = tracing.layer_metrics(tracer)
    assert metrics["phylik.edge_evals"][1] > 0
    assert tracer.counts["mlsearch.edge_optimizations"] > 0
    assert metrics["lrt.data_fits"][1] > 0
    assert {("relate.mlsearch", "_optimize_edge"), ("relate.lrt", "ml_tree")} <= wrapped
    after = namespaces()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def traced_layers(run) -> dict:
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        run()
    finally:
        tracing.uninstall(undo)
    return tracing.layer_metrics(tracer)


def test_permutation_counters_count_draw_and_distance_calls():
    # Three languages make three pairs, and _CHUNK + 1 replicates make two
    # chunks. The merge tree draws once per chunk and scores every pair
    # once on the observed slots and once per chunk; the pairwise table
    # reads every cell from the same draws and distances.
    wl = parse_wordlist(wordlist_text(related_wordlist_rows(3, 12, seed=1, mutation=0.3)))
    metric = permtest.WordMetric.p1_dolgo()
    n_perm = permtest._CHUNK + 1
    tree = traced_layers(lambda: permtest.run_permtest(metric, wl, n_perm=n_perm))
    assert tree["permtest.replicates"][1] == 2
    assert tree["permtest.pair_distance_calls"][1] == 3 * (1 + 2)
    pairs = traced_layers(lambda: permtest.pairwise_significance(metric, wl, n_perm=n_perm))
    assert pairs["permtest.replicates"][1] == 2
    assert pairs["permtest.pair_distance_calls"][1] == 3 * (1 + 2)
