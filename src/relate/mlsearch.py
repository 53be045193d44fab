"""Heuristic maximum-likelihood tree search.

The search starts from a neighbor-joining tree on model-corrected distances,
optimizes branch lengths one edge at a time, and then hill-climbs with
nearest-neighbor interchanges, accepting the best strictly improving move
per round. One-dimensional edge optimization exploits the closed-form
transition probabilities: with everything else fixed, a site's variable
component is affine in exp(-mu * rate * t), so candidate lengths cost only
vector arithmetic once the partials on both sides of the edge are known.
Those partials come from one :class:`phylik.PartialCache` per search,
which each length change invalidates only outward of its edge and each
NNI candidate inherits from the tree it was made from.

Everything is deterministic for a fixed seed: neighbor joining breaks ties
with a seeded draw, edges and moves are visited in sorted order, and ties
between equally good moves go to the lowest edge index.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from . import phylik
from .errors import InsufficientDataError
from .msa import CharacterMatrix
from .phylik import (
    MAX_BRANCH_LENGTH,
    MIN_BRANCH_LENGTH,
    Phylogeny,
    SitePrep,
    prepare_sites,
)
from .submodel import SubstitutionModel, build_model

logger = logging.getLogger(__name__)

#: Branch-length sweeps stop when a full sweep gains less than
#: ``_LL_TOLERANCE`` log likelihood, or after ``_MAX_SWEEPS`` sweeps; each
#: edge is optimized to ``_BL_TOLERANCE`` in length.
_MAX_SWEEPS = 50
_LL_TOLERANCE = 1e-4
_BL_TOLERANCE = 1e-6

#: NNI rounds stop when no move improves, or after this many.
_MAX_NNI_ROUNDS = 200

#: :func:`ml_tree_estimated` starts p_inv here, alternates tree search and
#: profiling this many times, and gives the gamma this many categories.
_P_INV_START = 0.06
_OUTER_ROUNDS = 2
_GAMMA_CATS = 2


@dataclass(frozen=True)
class SearchConfig:
    """Seeding and restarts of the heuristic search."""

    seed: int = 42
    random_restarts: int = 1

    def __post_init__(self):
        if self.random_restarts < 1:
            raise ValueError("random_restarts must be at least 1")


@dataclass(frozen=True)
class MlFit:
    """A fitted tree: topology, branch lengths, model, and search history.

    ``search_trace`` holds (round, log likelihood) pairs, round 0 being the
    starting tree after branch-length optimization.
    """

    tree: Phylogeny
    model: SubstitutionModel
    log_likelihood: float
    search_trace: tuple[tuple[int, float], ...]


def model_distances(matrix: CharacterMatrix, model: SubstitutionModel) -> np.ndarray:
    """Pairwise distances corrected for multiple hits under the model.

    With b = 1 - sum pi^2, a mismatch proportion p maps to
    -b * log(1 - p / b). Saturated or empty pairs are clamped to the
    maximum branch length (a warning notes pairs with no shared sites).
    """
    m = len(matrix.taxa)
    gaps = matrix.gap_mask()
    b = 1.0 - float(model.freqs @ model.freqs)
    dist = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            shared = ~gaps[i] & ~gaps[j]
            n_shared = int(shared.sum())
            if n_shared == 0:
                logger.warning(
                    "taxa %r and %r share no sites; using maximum distance",
                    matrix.taxa[i], matrix.taxa[j],
                )
                d = MAX_BRANCH_LENGTH
            else:
                p = float(
                    np.count_nonzero(matrix.cells[i, shared] != matrix.cells[j, shared])
                ) / n_shared
                arg = 1.0 - p / b
                d = -b * np.log(arg) if arg > 1e-9 else MAX_BRANCH_LENGTH
            dist[i, j] = dist[j, i] = min(max(d, 0.0), MAX_BRANCH_LENGTH)
    return dist


def neighbor_joining(dist: np.ndarray, names, seed: int = 42) -> Phylogeny:
    """Neighbor joining with seeded tie-breaking among minimal Q pairs."""
    names = list(names)
    m = len(names)
    if m < 2:
        raise InsufficientDataError("neighbor joining needs at least 2 taxa")
    if dist.shape != (m, m):
        raise ValueError("distance matrix shape does not match names")
    rng = random.Random(seed)
    leaf_names = {i: name for i, name in enumerate(names)}
    adjacency: dict[int, dict[int, float]] = {i: {} for i in range(m)}

    def connect(u: int, v: int, length: float):
        length = min(max(length, MIN_BRANCH_LENGTH), MAX_BRANCH_LENGTH)
        adjacency[u][v] = length
        adjacency[v][u] = length

    if m == 2:
        length = min(max(dist[0, 1], 0.0), MAX_BRANCH_LENGTH)
        adjacency[0][1] = length
        adjacency[1][0] = length
        return Phylogeny(adjacency, leaf_names)

    size = 2 * m
    d = np.zeros((size, size))
    d[:m, :m] = dist
    active = list(range(m))
    next_id = m
    while len(active) > 3:
        r = len(active)
        sums = {i: sum(d[i, k] for k in active if k != i) for i in active}
        best_q = None
        ties: list[tuple[int, int]] = []
        for ai in range(r):
            for aj in range(ai + 1, r):
                i, j = active[ai], active[aj]
                q = (r - 2) * d[i, j] - sums[i] - sums[j]
                if best_q is None or q < best_q:
                    best_q = q
                    ties = [(i, j)]
                elif q == best_q:
                    ties.append((i, j))
        i, j = ties[0] if len(ties) == 1 else rng.choice(sorted(ties))
        li = 0.5 * d[i, j] + (sums[i] - sums[j]) / (2 * (r - 2))
        lj = d[i, j] - li
        w = next_id
        next_id += 1
        adjacency[w] = {}
        connect(i, w, li)
        connect(j, w, lj)
        for k in active:
            if k in (i, j):
                continue
            d[w, k] = d[k, w] = max(0.5 * (d[i, k] + d[j, k] - d[i, j]), 0.0)
        active.remove(i)
        active.remove(j)
        active.append(w)

    x, y, z = active
    hub = next_id
    adjacency[hub] = {}
    connect(x, hub, 0.5 * (d[x, y] + d[x, z] - d[y, z]))
    connect(y, hub, 0.5 * (d[x, y] + d[y, z] - d[x, z]))
    connect(z, hub, 0.5 * (d[x, z] + d[y, z] - d[x, y]))
    return Phylogeny(adjacency, leaf_names)


def init_tree(matrix: CharacterMatrix, model: SubstitutionModel, seed: int = 42) -> Phylogeny:
    """Neighbor-joining starting tree on model-corrected distances."""
    return neighbor_joining(model_distances(matrix, model), matrix.taxa, seed)


def start_trees(
    matrix: CharacterMatrix, model: SubstitutionModel, config: SearchConfig
) -> list[Phylogeny]:
    """Starting trees of the ``random_restarts`` searches of :func:`ml_tree`;
    tie-breaking seeds count up from ``config.seed``."""
    return [
        init_tree(matrix, model, seed=config.seed + restart)
        for restart in range(config.random_restarts)
    ]


def _optimize_edge(
    tree: Phylogeny,
    model: SubstitutionModel,
    prep: SitePrep,
    u: int,
    v: int,
    cache: phylik.PartialCache | None = None,
) -> float:
    """Maximize the likelihood over one branch length in place.

    Returns the gain in log likelihood (never negative: the current length
    is kept when the optimizer fails to beat it). ``cache`` holds partials
    of ``tree`` and is kept current with the new length.
    """
    if cache is None:
        cache = phylik.PartialCache(tree, model, prep)
    fn = phylik.edge_log_likelihood_fn(tree, model, prep, u, v, cache=cache)
    current = fn(tree.length(u, v))
    result = minimize_scalar(
        lambda t: -fn(t),
        bounds=(MIN_BRANCH_LENGTH, MAX_BRANCH_LENGTH),
        method="bounded",
        options={"xatol": _BL_TOLERANCE},
    )
    # The bounded method never lands exactly on an endpoint, so boundary
    # optima (identical or saturated sequences) must be checked directly.
    best_t, best_ll = float(result.x), -float(result.fun)
    for endpoint in (MIN_BRANCH_LENGTH, MAX_BRANCH_LENGTH):
        ll = fn(endpoint)
        if ll >= best_ll:
            best_t, best_ll = endpoint, ll
    if best_ll > current:
        cache.set_length(u, v, best_t)
        return best_ll - current
    return 0.0


def optimize_branch_lengths(
    tree: Phylogeny,
    model: SubstitutionModel,
    source: CharacterMatrix | SitePrep,
    cache: phylik.PartialCache | None = None,
) -> tuple[Phylogeny, float]:
    """Sweep all edges with bounded one-dimensional optimization until a
    full sweep gains less than ``_LL_TOLERANCE``, or for at most
    ``_MAX_SWEEPS`` sweeps, with a warning when the cap stops it. Returns a
    new tree and its log likelihood; the input tree is untouched. A ``cache`` of the input
    tree moves to the returned tree and is kept current with it."""
    prep = source if isinstance(source, SitePrep) else prepare_sites(model, source)
    work = tree.copy()
    if cache is None:
        cache = phylik.PartialCache(work, model, prep)
    else:
        cache.check(tree, model, prep)
        cache.moved_to(work)
    for _ in range(_MAX_SWEEPS):
        gain = 0.0
        for u, v, _length in work.edges():
            gain += _optimize_edge(work, model, prep, u, v, cache)
        if gain < _LL_TOLERANCE:
            break
    else:
        logger.warning(
            "branch lengths not converged at the cap of %d sweeps: the last "
            "sweep gained %.3g log likelihood (tolerance %.3g)",
            _MAX_SWEEPS, gain, _LL_TOLERANCE,
        )
    ll = float(phylik.site_log_likelihoods(work, model, prep, cache=cache).sum())
    return work, ll


def _apply_nni(tree: Phylogeny, u: int, x: int, v: int, y: int):
    """Exchange subtree x (attached to u) with subtree y (attached to v);
    each subtree keeps its pendant branch length."""
    lx = tree.adjacency[u].pop(x)
    ly = tree.adjacency[v].pop(y)
    del tree.adjacency[x][u], tree.adjacency[y][v]
    tree.adjacency[u][y] = ly
    tree.adjacency[y][u] = ly
    tree.adjacency[v][x] = lx
    tree.adjacency[x][v] = lx


def _nni_candidates(tree: Phylogeny):
    """All interchanges, as (edge_index, u, x, v, y) in deterministic order."""
    for edge_index, (u, v) in enumerate(tree.internal_edges()):
        side_u = [n for n in tree.neighbors(u) if n != v]
        side_v = [n for n in tree.neighbors(v) if n != u]
        b = side_u[1]
        for y in side_v:
            yield edge_index, u, b, v, y


def nni_search(
    start: Phylogeny,
    model: SubstitutionModel,
    source: CharacterMatrix | SitePrep,
) -> MlFit:
    """Hill-climb with nearest-neighbor interchanges.

    Each round scores every candidate move after re-optimizing the five
    branch lengths around the swapped edge, applies the best strictly
    improving one (ties to the lowest edge index), then re-optimizes all
    branch lengths. Stops when no move improves, or at ``_MAX_NNI_ROUNDS``.
    """
    prep = source if isinstance(source, SitePrep) else prepare_sites(model, source)
    cache = phylik.PartialCache(start, model, prep)
    tree, ll = optimize_branch_lengths(start, model, prep, cache=cache)
    trace = [(0, ll)]
    for round_no in range(1, _MAX_NNI_ROUNDS + 1):
        best_ll = ll
        best_tree = best_cache = None
        for _edge_index, u, x, v, y in _nni_candidates(tree):
            candidate = tree.copy()
            _apply_nni(candidate, u, x, v, y)
            cand_cache = cache.after_nni(candidate, u, x, v, y)
            local = [(u, v)]
            local += [(u, n) for n in candidate.neighbors(u) if n != v]
            local += [(v, n) for n in candidate.neighbors(v) if n != u]
            for a, b in local:
                _optimize_edge(candidate, model, prep, a, b, cand_cache)
            cand_ll = float(
                phylik.site_log_likelihoods(candidate, model, prep, cache=cand_cache).sum()
            )
            if cand_ll > best_ll:
                best_ll = cand_ll
                best_tree, best_cache = candidate, cand_cache
        if best_tree is None:
            break
        tree, ll = optimize_branch_lengths(best_tree, model, prep, cache=best_cache)
        cache = best_cache
        if ll < best_ll:
            tree, ll = best_tree, best_ll
            cache = phylik.PartialCache(tree, model, prep)
        trace.append((round_no, ll))
    return MlFit(tree=tree, model=model, log_likelihood=ll, search_trace=tuple(trace))


def ml_tree(
    matrix: CharacterMatrix,
    p_inv: float,
    config: SearchConfig = SearchConfig(),
    gamma_shape: float | None = None,
    n_rate_cats: int = 1,
    alphabet=None,
) -> MlFit:
    """Fit a tree under a fixed ``p_inv`` (and optional gamma rates).

    Runs ``random_restarts`` searches from neighbor-joining starts whose
    tie-breaking seeds increase by one, and returns the best fit (first one
    on ties). Two-taxon matrices return the single-edge tree directly. The
    seed acts only through the starts (see :func:`start_trees`): calls
    whose starts are equal return equal fits.
    """
    if len(matrix.taxa) < 2:
        raise InsufficientDataError("tree inference needs at least 2 taxa")
    model = build_model(
        matrix,
        p_inv=p_inv,
        gamma_shape=gamma_shape,
        n_rate_cats=n_rate_cats,
        alphabet=alphabet,
    )
    prep = prepare_sites(model, matrix)
    best: MlFit | None = None
    for start in start_trees(matrix, model, config):
        fit = nni_search(start, model, prep)
        if best is None or fit.log_likelihood > best.log_likelihood:
            best = fit
    return best


def ml_tree_estimated(
    matrix: CharacterMatrix,
    config: SearchConfig = SearchConfig(),
    use_gamma: bool = False,
    alphabet=None,
) -> MlFit:
    """Fit with ``p_inv`` (and optionally a gamma shape) estimated.

    Alternates tree search at the current parameters with bounded
    one-dimensional profile optimization of p_inv over [0, 0.5] (and of the
    gamma shape over [0.05, 20] on a log scale) against the fixed tree.
    """
    p_inv = _P_INV_START
    shape = 1.0 if use_gamma else None
    cats = _GAMMA_CATS if use_gamma else 1
    fit = None
    for _ in range(_OUTER_ROUNDS):
        fit = ml_tree(
            matrix, p_inv, config,
            gamma_shape=shape, n_rate_cats=cats, alphabet=alphabet,
        )
        prep = prepare_sites(fit.model, matrix)
        # Only the invariant mixture depends on p_inv: prune once per round.
        var_logs = phylik.PartialCache(fit.tree, fit.model, prep).variable_site_logs()

        def p_objective(q: float) -> float:
            return -float(phylik._mix_invariant(var_logs, prep.log_inv, q).sum())

        result = minimize_scalar(
            p_objective, bounds=(0.0, 0.5), method="bounded",
            options={"xatol": 1e-4},
        )
        p_inv = float(result.x)

        if use_gamma:
            def a_objective(log_shape: float) -> float:
                model = fit.model.with_p_inv(p_inv).with_gamma(np.exp(log_shape), cats)
                return -float(phylik.site_log_likelihoods(fit.tree, model, prep).sum())

            result = minimize_scalar(
                a_objective,
                bounds=(np.log(0.05), np.log(20.0)),
                method="bounded",
                options={"xatol": 1e-3},
            )
            shape = float(np.exp(result.x))

    final = ml_tree(
        matrix, p_inv, config,
        gamma_shape=shape, n_rate_cats=cats, alphabet=alphabet,
    )
    return final
