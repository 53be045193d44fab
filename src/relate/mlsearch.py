"""Heuristic maximum-likelihood tree search.

The search starts from a neighbor-joining tree on model-corrected distances,
optimizes branch lengths one edge at a time, and then hill-climbs with
nearest-neighbor interchanges, accepting the best strictly improving move
per round. One-dimensional edge optimization exploits the closed-form
transition probabilities: with everything else fixed, a site's variable
component is affine in exp(-mu * rate * t), so candidate lengths, with the
first and second derivatives that Newton steps use, cost only vector
arithmetic once the partials on both sides of the edge are known.
Those partials come from one :class:`phylik.PartialCache` per search,
which each length change invalidates only outward of its edge and each
NNI candidate inherits from the tree it was made from.

Everything is deterministic for a fixed seed: neighbor joining breaks ties
with a seeded draw, edges and moves are visited in sorted order, and ties
between equally good moves go to the lowest edge index.
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass, replace

import numpy as np

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
#: ``_LL_TOLERANCE`` log likelihood, or after ``_MAX_SWEEPS`` sweeps; the
#: Newton search of one edge stops when its next step is shorter than
#: ``_BL_TOLERANCE``.
_MAX_SWEEPS = 50
_LL_TOLERANCE = 1e-4
_BL_TOLERANCE = 1e-7

#: A one-dimensional line search (the p_inv and gamma-shape profiles)
#: stops after this many evaluations, with a warning, if it has not
#: converged; the Newton search of one branch length after
#: ``_MAX_NEWTON_EVALS``.
_MAX_EVALS = 500
_MAX_NEWTON_EVALS = 100

#: NNI rounds stop when no move improves, or after this many.
_MAX_NNI_ROUNDS = 200

#: :func:`ml_tree_estimated` starts p_inv here, alternates tree search and
#: profiling this many times, and gives the gamma this many categories.
_P_INV_START = 0.06
_OUTER_ROUNDS = 2
_GAMMA_CATS = 2


@dataclass(frozen=True)
class SearchConfig:
    """Seeding of the heuristic search: the seed breaks neighbor-joining
    ties."""

    seed: int = 42


@dataclass(frozen=True)
class MlFit:
    """A fitted tree: topology, branch lengths, model, and search history.

    ``search_trace`` holds (round, log likelihood) pairs, round 0 being the
    starting tree after branch-length optimization. ``converged`` is False
    when any search behind the fit stopped at its cap: a branch-length
    sweep, the Newton search of an edge, the NNI rounds, or a profile of
    :func:`ml_tree_estimated`.
    """

    tree: Phylogeny
    model: SubstitutionModel
    log_likelihood: float
    search_trace: tuple[tuple[int, float], ...]
    converged: bool = True


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
        connect(0, 1, dist[0, 1])
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


_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))


def _minimize_bounded(f, lo: float, hi: float, xatol: float) -> tuple[float, float, bool]:
    """Minimize ``f`` over [lo, hi] by Brent's bounded method.

    Golden-section steps with parabolic interpolation, step for step the
    arithmetic of ``scipy.optimize.minimize_scalar(method="bounded")``
    (scipy 1.17), so the same points are evaluated and the same minimum is
    returned. Endpoints are never evaluated. Returns (x, f(x), converged);
    the search is not converged when it stops at ``_MAX_EVALS`` evaluations
    or meets a NaN.
    """
    a, b = lo, hi
    fulc = a + _GOLDEN_MEAN * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = f(xf)
    num = 1
    fu = math.inf
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    converged = True
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            # Parabola through the three best points.
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 if xm - xf >= 0 else -tol1
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = _GOLDEN_MEAN * e
        step = max(abs(rat), tol1)
        x = xf + step if rat >= 0 else xf - step
        fu = f(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= _MAX_EVALS:
            converged = False
            break
    if math.isnan(xf) or math.isnan(fx) or math.isnan(fu):
        converged = False
    return xf, fx, converged


def _warn_unconverged(what: str, cap: int):
    logger.warning(
        "line search over %s not converged at the cap of %d evaluations",
        what, cap,
    )


def _newton_length(fn, t: float, at_t, beta: float) -> tuple[float, float, bool]:
    """Maximize ``fn`` over [MIN_BRANCH_LENGTH, MAX_BRANCH_LENGTH] by
    safeguarded Newton steps from ``t``.

    ``fn`` is an edge closure of :func:`phylik.edge_log_likelihood_fn`,
    returning (log likelihood, d/dt, d^2/dt^2), and ``at_t`` its value at
    ``t``. Steps are Newton steps in x = exp(-beta * t), in which the log
    likelihood of one rate is concave (a sum of logs of affine functions),
    mapped back to t and clamped to the bounds; where the objective is not
    concave in x the step goes to the bound the slope points at. A step
    that loses likelihood is halved in x until it gains or is shorter than
    ``_BL_TOLERANCE``. The search stops when the next step is shorter than
    ``_BL_TOLERANCE``. Returns (t, log likelihood, converged); it is not
    converged when it stops at ``_MAX_NEWTON_EVALS`` evaluations.
    """
    ll, slope, curvature = at_t
    evals = 1
    while True:
        # In x, the slope is -slope / (beta x) and the curvature
        # (curvature + beta * slope) / (beta x)^2.
        concavity = curvature + beta * slope
        if concavity < 0.0:
            ratio = beta * slope / concavity
            target = MAX_BRANCH_LENGTH if ratio <= -1.0 else t - math.log1p(ratio) / beta
        else:
            target = MAX_BRANCH_LENGTH if slope > 0.0 else MIN_BRANCH_LENGTH
        target = min(max(target, MIN_BRANCH_LENGTH), MAX_BRANCH_LENGTH)
        while True:
            if not abs(target - t) >= _BL_TOLERANCE:
                return t, ll, True
            if evals >= _MAX_NEWTON_EVALS:
                return t, ll, False
            trial = fn(target)
            evals += 1
            if trial[0] >= ll:
                break
            target = -math.log(0.5 * (math.exp(-beta * t) + math.exp(-beta * target))) / beta
        t, (ll, slope, curvature) = target, trial


def _optimize_edge(
    tree: Phylogeny,
    model: SubstitutionModel,
    prep: SitePrep,
    u: int,
    v: int,
    cache: phylik.PartialCache | None = None,
) -> tuple[float, bool]:
    """Maximize the likelihood over one branch length in place.

    A current length outside [MIN_BRANCH_LENGTH, MAX_BRANCH_LENGTH] is
    first clamped to them. Returns the gain in log likelihood over the
    clamped length (never negative: that length is kept unless a better
    one is found) and whether the Newton search converged. ``cache`` holds
    partials of ``tree`` and is kept current with the new length.
    """
    if cache is None:
        cache = phylik.PartialCache(tree, model, prep)
    fn = phylik.edge_log_likelihood_fn(tree, model, prep, u, v, cache=cache)
    current = tree.length(u, v)
    start = float(min(max(current, MIN_BRANCH_LENGTH), MAX_BRANCH_LENGTH))
    at_start = fn(start)
    best_t, best_ll, converged = _newton_length(fn, start, at_start, model.mu)
    if not converged:
        _warn_unconverged(f"the length of edge ({u}, {v})", _MAX_NEWTON_EVALS)
    if best_ll > at_start[0]:
        cache.set_length(u, v, best_t)
        return best_ll - at_start[0], converged
    if start != current:
        cache.set_length(u, v, start)
    return 0.0, converged


def optimize_branch_lengths(
    tree: Phylogeny,
    model: SubstitutionModel,
    source: CharacterMatrix | SitePrep,
    cache: phylik.PartialCache | None = None,
) -> tuple[Phylogeny, float, bool]:
    """Sweep all edges with the Newton search of :func:`_optimize_edge`
    until a full sweep gains less than ``_LL_TOLERANCE``, or for at most
    ``_MAX_SWEEPS`` sweeps, with a warning when the cap stops it. Returns a
    new tree, its log likelihood and whether every sweep and edge search
    converged; the input tree is untouched. A ``cache`` of the input tree
    moves to the returned tree and is kept current with it."""
    prep = source if isinstance(source, SitePrep) else prepare_sites(model, source)
    work = tree.copy()
    if cache is None:
        cache = phylik.PartialCache(work, model, prep)
    else:
        cache.check(tree, model, prep)
        cache.moved_to(work)
    converged = True
    for _ in range(_MAX_SWEEPS):
        gain = 0.0
        for u, v, _length in work.edges():
            edge_gain, edge_converged = _optimize_edge(work, model, prep, u, v, cache)
            gain += edge_gain
            converged &= edge_converged
        if gain < _LL_TOLERANCE:
            break
    else:
        converged = False
        logger.warning(
            "branch lengths not converged at the cap of %d sweeps: the last "
            "sweep gained %.3g log likelihood (tolerance %.3g)",
            _MAX_SWEEPS, gain, _LL_TOLERANCE,
        )
    ll = float(phylik.site_log_likelihoods(work, model, prep, cache=cache).sum())
    return work, ll, converged


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
    tree, ll, converged = optimize_branch_lengths(start, model, prep, cache=cache)
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
                converged &= _optimize_edge(candidate, model, prep, a, b, cand_cache)[1]
            cand_ll = float(
                phylik.site_log_likelihoods(candidate, model, prep, cache=cand_cache).sum()
            )
            if cand_ll > best_ll:
                best_ll = cand_ll
                best_tree, best_cache = candidate, cand_cache
        if best_tree is None:
            break
        tree, ll, swept = optimize_branch_lengths(best_tree, model, prep, cache=best_cache)
        converged &= swept
        cache = best_cache
        if ll < best_ll:
            tree, ll = best_tree, best_ll
            cache = phylik.PartialCache(tree, model, prep)
        trace.append((round_no, ll))
    else:
        converged = False
        logger.warning(
            "NNI search not converged at the cap of %d rounds: the last "
            "round still applied an improving move", _MAX_NNI_ROUNDS,
        )
    return MlFit(
        tree=tree, model=model, log_likelihood=ll,
        search_trace=tuple(trace), converged=converged,
    )


def ml_tree(
    matrix: CharacterMatrix,
    p_inv: float,
    config: SearchConfig = SearchConfig(),
    gamma_shape: float | None = None,
    n_rate_cats: int = 1,
    alphabet=None,
) -> MlFit:
    """Fit a tree under a fixed ``p_inv`` (and optional gamma rates).

    One NNI search from the neighbor-joining start of :func:`init_tree`
    with ``config.seed``. A two-taxon matrix gets a single-edge tree: its
    length is optimized like any other, and there is no NNI move. The seed
    acts only through the start, by breaking neighbor-joining ties: calls
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
    start = init_tree(matrix, model, seed=config.seed)
    return nni_search(start, model, prepare_sites(model, matrix))


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
    converged = True
    for _ in range(_OUTER_ROUNDS):
        fit = ml_tree(
            matrix, p_inv, config,
            gamma_shape=shape, n_rate_cats=cats, alphabet=alphabet,
        )
        converged &= fit.converged
        prep = prepare_sites(fit.model, matrix)
        # Only the invariant mixture depends on p_inv: prune once per round.
        var_logs = phylik.PartialCache(fit.tree, fit.model, prep).variable_site_logs()
        site_logs = phylik._logmeanexp(var_logs)

        def p_objective(q: float) -> float:
            mixture = phylik._invariant_mixture(q, prep.log_inv)
            return -phylik._checked_total(phylik._mix_invariant(site_logs, mixture))

        p_inv, _, profiled = _minimize_bounded(p_objective, 0.0, 0.5, 1e-4)
        if not profiled:
            _warn_unconverged("p_inv", _MAX_EVALS)
        converged &= profiled

        if use_gamma:
            def a_objective(log_shape: float) -> float:
                model = fit.model.with_p_inv(p_inv).with_gamma(np.exp(log_shape), cats)
                return -float(phylik.site_log_likelihoods(fit.tree, model, prep).sum())

            log_shape, _, profiled = _minimize_bounded(
                a_objective, np.log(0.05), np.log(20.0), 1e-3
            )
            if not profiled:
                _warn_unconverged("the gamma shape", _MAX_EVALS)
            converged &= profiled
            shape = float(np.exp(log_shape))

    final = ml_tree(
        matrix, p_inv, config,
        gamma_shape=shape, n_rate_cats=cats, alphabet=alphabet,
    )
    return replace(final, converged=final.converged and converged)
