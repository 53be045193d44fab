"""Span and count recording around the ``relate`` layers.

:func:`install` replaces functions of the already imported ``relate``
modules with wrappers. A function is replaced under every name that refers
to it, so ``from .mlsearch import ml_tree`` in another module is wrapped
too. Wrappers either record a span (name, start, end, parent) or only bump
a counter; counters are used for functions called so often that a span
would dominate their cost. Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import gzip
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.stack: list[int] = []
        self.sweeps = 0
        self.profile_s = 0.0
        self.data_fit_s = 0.0
        self.replicate_fit_s = 0.0
        self.lrt_matrix = None
        self.lrt_fits: set = set()
        self.distinct_fits = 0

    # -- recording ---------------------------------------------------------------

    def enter(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(index)
        return index

    def leave(self, index: int) -> float:
        span = self.spans[index]
        span[2] = time.perf_counter()
        self.stack.pop()
        return span[2] - span[1]

    def spanned(self, name: str, fn, after=None):
        def wrapper(*args, **kwargs):
            index = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self.leave(index)
            if after is not None:
                after(index, duration, args, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- derived quantities ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time child spans cover."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), covered in zip(self.spans, child_time):
            out[name] += end - start - covered
        return out

    def span_counts(self) -> Counter:
        return Counter(name for name, _, _, _ in self.spans)

    def child_time(self, index: int, name: str) -> float:
        """Time covered by direct children of span ``index`` called ``name``."""
        return sum(
            end - start
            for child, start, end, parent in self.spans[index + 1 :]
            if parent == index and child == name
        )

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart\tend\n")
            for k, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{k}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")


def _replace(original, wrapped, owners, undo):
    for owner in owners:
        for attr, value in list(vars(owner).items()):
            if value is original:
                setattr(owner, attr, wrapped)
                undo.append((owner, attr, original))


def uninstall(undo):
    """Put back what :func:`install` replaced."""
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def install(tracer: Tracer) -> list:
    """Wrap the layer boundaries of every imported ``relate`` module.
    Returns what :func:`uninstall` needs to remove the wrappers."""
    from relate import lexdata, lrt, mlsearch, msa, permtest, phylik, soundclass, submodel
    from relate import bootsim, treecmp
    from relate.phylik import write_newick

    modules = [m for n, m in sys.modules.items() if n == "relate" or n.startswith("relate.")]
    undo: list = []

    def span(module, attr, name, after=None):
        original = getattr(module, attr)
        _replace(original, tracer.spanned(name, original, after), modules, undo)

    def count(module, attr, name):
        original = getattr(module, attr)
        _replace(original, tracer.counted(name, original), modules, undo)

    def kept_entries(index, duration, args, result):
        tracer.counts["lexdata.entries_kept"] += len(result.entries)

    def matrix_sites(index, duration, args, result):
        tracer.counts["msa.sites"] += result.sites

    def profile(index, duration, args, result):
        tracer.profile_s += duration - tracer.child_time(index, "mlsearch.ml_tree")

    def fit_kind(index, duration, args, result):
        if tracer.lrt_matrix is None:
            return
        if args[0] is tracer.lrt_matrix:
            tracer.counts["lrt.data_fits"] += 1
            tracer.data_fit_s += duration
            tracer.lrt_fits.add((write_newick(result.tree), result.log_likelihood))
        else:
            tracer.replicate_fit_s += duration

    def lrt_done(index, duration, args, result):
        tracer.counts["lrt.runs"] += len(result.runs)
        tracer.distinct_fits += len(tracer.lrt_fits)
        tracer.lrt_matrix = None

    span(lexdata, "parse_wordlist", "lexdata.parse")
    span(lexdata, "filter_forms", "lexdata.filter", kept_entries)
    span(lexdata, "select_core_form", "lexdata.filter")
    count(soundclass, "encode_segments", "soundclass.encode_calls")
    span(msa, "build_character_matrix", "msa.build", matrix_sites)
    count(msa, "progressive_align", "msa.progressive_align_calls")
    count(msa, "pairwise_align", "msa.pairwise_align_calls")
    count(submodel, "transition_prob", "submodel.transition_prob_calls")
    count(submodel, "gamma_categories", "submodel.gamma_categories_calls")
    span(phylik, "site_log_likelihoods", "phylik.site_ll")

    edge_fn = phylik.edge_log_likelihood_fn

    def traced_edge_fn(*args, **kwargs):
        index = tracer.enter("phylik.edge_fn")
        try:
            closure = edge_fn(*args, **kwargs)
        finally:
            tracer.leave(index)
        return tracer.spanned("phylik.edge_eval", closure)

    _replace(edge_fn, traced_edge_fn, modules, undo)

    count(mlsearch, "_optimize_edge", "mlsearch.edge_optimizations")
    count(mlsearch, "_nni_candidates", "mlsearch.nni_rounds")
    span(mlsearch, "init_tree", "mlsearch.init_tree")
    span(mlsearch, "ml_tree", "mlsearch.ml_tree", fit_kind)
    span(mlsearch, "ml_tree_estimated", "mlsearch.ml_tree_estimated", profile)

    obl = mlsearch.optimize_branch_lengths

    def traced_obl(tree, *args, **kwargs):
        before = tracer.counts["mlsearch.edge_optimizations"]
        index = tracer.enter("mlsearch.optimize_branch_lengths")
        try:
            return obl(tree, *args, **kwargs)
        finally:
            tracer.leave(index)
            inside = tracer.counts["mlsearch.edge_optimizations"] - before
            tracer.sweeps += inside / len(tree.edges())

    _replace(obl, traced_obl, modules, undo)

    run_lrt = lrt.run_lrt
    traced_lrt_body = tracer.spanned("lrt.run_lrt", run_lrt, lrt_done)

    def traced_run_lrt(matrix, *args, **kwargs):
        tracer.lrt_matrix = matrix
        tracer.lrt_fits = set()
        return traced_lrt_body(matrix, *args, **kwargs)

    _replace(run_lrt, traced_run_lrt, modules, undo)

    span(bootsim, "simulate_matrix", "bootsim.simulate")
    span(permtest, "run_permtest", "permtest.merge_tree")
    span(permtest, "pairwise_significance", "permtest.pairwise")
    engine = permtest._Engine
    for attr, name in (("permuted_slots", "permtest.permute"), ("language_distance", "permtest.pair_distance")):
        original = vars(engine)[attr]
        _replace(original, tracer.spanned(name, original), [engine], undo)
    span(treecmp, "gqd", "treecmp.gqd")
    return undo


def layer_metrics(tracer: Tracer) -> dict[str, tuple[str, float]]:
    """Totals over everything the tracer saw, in the benchmark's units."""
    self_s = tracer.self_times()
    spans = tracer.span_counts()
    counts = tracer.counts
    return {
        "phylik.edge_fn_calls": ("count", spans["phylik.edge_fn"]),
        "phylik.edge_fn_s": ("s", self_s["phylik.edge_fn"]),
        "phylik.edge_evals": ("count", spans["phylik.edge_eval"]),
        "phylik.edge_eval_s": ("s", self_s["phylik.edge_eval"]),
        "phylik.site_ll_calls": ("count", spans["phylik.site_ll"]),
        "phylik.site_ll_s": ("s", self_s["phylik.site_ll"]),
        "submodel.transition_prob_calls": ("count", counts["submodel.transition_prob_calls"]),
        "submodel.gamma_categories_calls": ("count", counts["submodel.gamma_categories_calls"]),
        "mlsearch.bl_sweeps": ("count", tracer.sweeps),
        "mlsearch.profile_s": ("s", tracer.profile_s),
        "mlsearch.ml_tree_calls": ("count", spans["mlsearch.ml_tree"]),
        "mlsearch.ml_tree_s": ("s", self_s["mlsearch.ml_tree"]),
        "mlsearch.init_tree_s": ("s", self_s["mlsearch.init_tree"]),
        "mlsearch.nni_rounds": ("count", counts["mlsearch.nni_rounds"]),
        "lrt.runs": ("count", counts["lrt.runs"]),
        "lrt.data_fits": ("count", counts["lrt.data_fits"]),
        "lrt.data_fits_distinct": ("count", tracer.distinct_fits),
        "lrt.data_fit_s": ("s", tracer.data_fit_s),
        "lrt.replicate_fit_s": ("s", tracer.replicate_fit_s),
        "bootsim.simulate_calls": ("count", spans["bootsim.simulate"]),
        "bootsim.simulate_s": ("s", self_s["bootsim.simulate"]),
        "lexdata.parse_s": ("s", self_s["lexdata.parse"]),
        "lexdata.filter_s": ("s", self_s["lexdata.filter"]),
        "lexdata.entries_kept": ("count", counts["lexdata.entries_kept"]),
        "soundclass.encode_calls": ("count", counts["soundclass.encode_calls"]),
        "msa.build_s": ("s", self_s["msa.build"]),
        "msa.progressive_align_calls": ("count", counts["msa.progressive_align_calls"]),
        "msa.pairwise_align_calls": ("count", counts["msa.pairwise_align_calls"]),
        "msa.sites": ("count", counts["msa.sites"]),
        "permtest.merge_tree_s": ("s", self_s["permtest.merge_tree"]),
        "permtest.pairwise_s": ("s", self_s["permtest.pairwise"]),
        "permtest.replicates": ("count", spans["permtest.permute"]),
        "permtest.permute_s": ("s", self_s["permtest.permute"]),
        "permtest.pair_distance_calls": ("count", spans["permtest.pair_distance"]),
        "permtest.pair_distance_s": ("s", self_s["permtest.pair_distance"]),
        "treecmp.gqd_s": ("s", self_s["treecmp.gqd"]),
    }
