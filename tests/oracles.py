"""Independent reference implementations used as oracles by the tests.

Every function recomputes something the package computes, by a different
route: matrix exponentials instead of closed forms, exhaustive enumeration
instead of dynamic programming, quadrature instead of library tail
functions. Tests compare the two routes. Oracles take plain data (arrays,
dicts, adjacency maps) so they stay decoupled from production internals.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np
from scipy.linalg import expm

GAP = "-"


# -- substitution model ------------------------------------------------------

def rate_matrix(freqs) -> np.ndarray:
    """Generator with q_ij = mu * pi_j, normalized to one expected event."""
    pi = np.asarray(freqs, dtype=float)
    mu = 1.0 / (1.0 - float(pi @ pi))
    q = mu * np.tile(pi, (len(pi), 1))
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    return q


def expm_transition(freqs, t: float, rate: float = 1.0) -> np.ndarray:
    """P(t) by scaled-squaring matrix exponential of the generator."""
    return expm(rate_matrix(freqs) * t * rate)


def gamma_two_rates(shape: float) -> tuple[float, float]:
    """Two-category discretization by direct quadrature.

    Conditional means of Gamma(shape, scale=1/shape) below and above its
    median, renormalized to average exactly 1.
    """
    from scipy import integrate
    from scipy.stats import gamma

    dist = gamma(shape, scale=1.0 / shape)
    median = dist.ppf(0.5)
    low, _ = integrate.quad(lambda x: x * dist.pdf(x), 0.0, median)
    high, _ = integrate.quad(lambda x: x * dist.pdf(x), median, np.inf,
                             limit=200)
    rates = np.array([low / 0.5, high / 0.5])
    rates /= rates.mean()
    return float(rates[0]), float(rates[1])


# -- tree likelihood by enumeration ------------------------------------------

def enumeration_log_likelihoods(adjacency, leaf_symbols, states, freqs,
                                p_inv: float = 0.0, rates=(1.0,)) -> np.ndarray:
    """Per-site log likelihoods by brute-force sum over state assignments.

    ``adjacency`` maps node -> {neighbor: branch length}; ``leaf_symbols``
    maps leaf node -> list of site symbols (GAP for missing). Transition
    probabilities come from the matrix exponential, so this shares no
    arithmetic with the pruning implementation. Gap leaves are summed over
    like internal nodes (missing data).
    """
    pi = np.asarray(freqs, dtype=float)
    index = {s: i for i, s in enumerate(states)}
    nodes = sorted(adjacency)
    root = nodes[0]

    # Directed edge list, parent before child, from an arbitrary root.
    order: list[tuple[int, int, float]] = []
    seen = {root}
    stack = [root]
    while stack:
        u = stack.pop()
        for v, length in sorted(adjacency[u].items()):
            if v not in seen:
                seen.add(v)
                order.append((u, v, length))
                stack.append(v)

    n_sites = len(next(iter(leaf_symbols.values())))
    trans = {}
    for rate in rates:
        trans[rate] = {(u, v): expm_transition(pi, w, rate)
                       for u, v, w in order}

    out = np.empty(n_sites)
    for site in range(n_sites):
        fixed = {}
        free = []
        for node in nodes:
            if node in leaf_symbols:
                sym = leaf_symbols[node][site]
                if sym == GAP:
                    free.append(node)
                else:
                    fixed[node] = index[sym]
            else:
                free.append(node)

        # Column c of ``grid`` is the c-th assignment of states to the free
        # nodes; every assignment is scored at once.
        grid = np.indices((len(pi),) * len(free)).reshape(len(free), len(pi) ** len(free))
        assign = {node: grid[i] for i, node in enumerate(free)}
        assign.update({node: np.full(grid.shape[1], s) for node, s in fixed.items()})
        per_rate = []
        for rate in rates:
            term = pi[assign[root]]
            for u, v, _ in order:
                term = term * trans[rate][(u, v)][assign[u], assign[v]]
            per_rate.append(float(term.sum()))
        variable = float(np.mean(per_rate))

        present = [leaf_symbols[n][site] for n in leaf_symbols
                   if leaf_symbols[n][site] != GAP]
        if not present:
            invariant = 1.0
        elif len(set(present)) == 1:
            invariant = pi[index[present[0]]]
        else:
            invariant = 0.0
        out[site] = np.log((1.0 - p_inv) * variable + p_inv * invariant)
    return out


# -- edge likelihood by the direct formula -----------------------------------

def reference_logmeanexp(rows) -> np.ndarray:
    """Per column, log of the mean of exp over the rows, with ``np.mean``
    and guards for columns whose peak is not finite."""
    rows = np.asarray(rows, dtype=float)
    peak = rows.max(axis=0)
    safe = np.where(np.isfinite(peak), peak, 0.0)
    mean = np.mean(np.exp(rows - safe[None, :]), axis=0)
    with np.errstate(divide="ignore"):
        return np.where(np.isfinite(peak), safe + np.log(mean), peak)


def reference_edge_log_likelihood(freqs, mu: float, rates, sides_u, sides_v,
                                  log_inv, p_inv: float, t: float) -> float:
    """Total log likelihood with the length of one edge set to ``t``.

    ``sides_u`` and ``sides_v`` hold, per rate, the (scaled partial, log
    scale) pair of each side of the edge. Each rate's variable component is
    a + b * exp(-mu * rate * t), floored at 1e-300, averaged over rates and
    mixed with the invariant component, all recomputed in full at every
    call. Returns None when a site has zero likelihood.
    """
    freqs = np.asarray(freqs, dtype=float)
    rows = []
    for rate, (side_u, logs_u), (side_v, logs_v) in zip(rates, sides_u, sides_v):
        stationary = (freqs @ side_u) * (freqs @ side_v)
        joint = (freqs[:, None] * side_u * side_v).sum(axis=0)
        value = np.maximum(stationary + (joint - stationary) * np.exp(-(mu * rate) * t), 1e-300)
        rows.append(np.log(value) + (logs_u + logs_v))
    site_logs = reference_logmeanexp(rows)
    if p_inv > 0.0:
        site_logs = np.logaddexp(np.log1p(-p_inv) + site_logs, np.log(p_inv) + log_inv)
    if not np.all(np.isfinite(site_logs)):
        return None
    return float(site_logs.sum())


def reference_edge_derivatives(freqs, mu: float, rates, sides_u, sides_v,
                               log_inv, p_inv: float, t: float) -> tuple[float, float]:
    """First and second derivatives in ``t`` of the total log likelihood
    of :func:`reference_edge_log_likelihood`, without its 1e-300 floor, by
    mpmath's numerical differentiation at 40 significant digits."""
    import mpmath

    freqs = np.asarray(freqs, dtype=float)
    terms = []
    for rate, (side_u, logs_u), (side_v, logs_v) in zip(rates, sides_u, sides_v):
        stationary = (freqs @ side_u) * (freqs @ side_v)
        joint = (freqs[:, None] * side_u * side_v).sum(axis=0)
        terms.append((mu * rate, stationary, joint - stationary, logs_u + logs_v))
    with mpmath.workdps(40):
        def total(x):
            out = mpmath.mpf(0)
            for site in range(len(log_inv)):
                variable = mpmath.fsum(
                    mpmath.exp(logs[site]) * (a[site] + b[site] * mpmath.exp(-beta * x))
                    for beta, a, b, logs in terms
                ) / len(terms)
                invariant = mpmath.exp(log_inv[site]) if np.isfinite(log_inv[site]) else 0
                out += mpmath.log((1 - mpmath.mpf(p_inv)) * variable + p_inv * invariant)
            return out

        first = mpmath.diff(total, mpmath.mpf(t), 1)
        second = mpmath.diff(total, mpmath.mpf(t), 2)
    return float(first), float(second)


# -- pairwise alignment by exhaustive search ---------------------------------

def best_alignment_score(a, b, match: float, mismatch: float,
                         gap_open: float, gap_extend: float) -> float:
    """Optimal global alignment score by memoized recursion over gap state.

    The first symbol of a gap run costs ``gap_open``; each further symbol
    costs ``gap_extend``. State 0 = last column was a substitution, 1 =
    gap in b, 2 = gap in a.
    """
    a = tuple(a)
    b = tuple(b)

    @lru_cache(maxsize=None)
    def rec(i: int, j: int, state: int) -> float:
        if i == len(a) and j == len(b):
            return 0.0
        best = -np.inf
        if i < len(a) and j < len(b):
            sub = match if a[i] == b[j] else mismatch
            best = max(best, sub + rec(i + 1, j + 1, 0))
        if i < len(a):
            cost = gap_extend if state == 1 else gap_open
            best = max(best, cost + rec(i + 1, j, 1))
        if j < len(b):
            cost = gap_extend if state == 2 else gap_open
            best = max(best, cost + rec(i, j + 1, 2))
        return best

    return rec(0, 0, 0)


def score_pairwise_rows(row_a, row_b, match: float, mismatch: float,
                        gap_open: float, gap_extend: float) -> float:
    """Score an already-aligned pair of rows under the same gap convention."""
    total = 0.0
    in_gap_a = in_gap_b = False
    for x, y in zip(row_a, row_b):
        if x == GAP and y == GAP:
            continue
        if x == GAP:
            total += gap_extend if in_gap_a else gap_open
            in_gap_a, in_gap_b = True, False
        elif y == GAP:
            total += gap_extend if in_gap_b else gap_open
            in_gap_b, in_gap_a = True, False
        else:
            total += match if x == y else mismatch
            in_gap_a = in_gap_b = False
    return total


# -- progressive alignment, one pair and one cell at a time -----------------
#
# One traced dynamic program with numpy tables per word pair, a dict of
# cluster distances keyed by pairs, and a column score that loops over row
# pairs. The package batches all three and must reproduce this output
# exactly.

def _reference_gotoh(n_a, n_b, column_score, match, mismatch, gap_open,
                     gap_extend):
    """Affine-gap alignment with ties M over X over Y; (pairs, score)."""
    neg_inf = float("-inf")
    if n_a == 0 and n_b == 0:
        return [], 0.0
    if n_a == 0:
        return [(None, j) for j in range(n_b)], gap_open + gap_extend * (n_b - 1)
    if n_b == 0:
        return [(i, None) for i in range(n_a)], gap_open + gap_extend * (n_a - 1)
    shape = (n_a + 1, n_b + 1)
    m_mat = np.full(shape, neg_inf)
    x_mat = np.full(shape, neg_inf)
    y_mat = np.full(shape, neg_inf)
    m_ptr = np.zeros(shape, dtype=np.int8)
    x_ptr = np.zeros(shape, dtype=np.int8)
    y_ptr = np.zeros(shape, dtype=np.int8)
    m_mat[0, 0] = 0.0
    for i in range(1, n_a + 1):
        x_mat[i, 0] = gap_open + gap_extend * (i - 1)
        x_ptr[i, 0] = 1 if i > 1 else 0
    for j in range(1, n_b + 1):
        y_mat[0, j] = gap_open + gap_extend * (j - 1)
        y_ptr[0, j] = 2 if j > 1 else 0

    def argbest(m, x, y):
        if m >= x and m >= y:
            return m, 0
        if x >= y:
            return x, 1
        return y, 2

    for i in range(1, n_a + 1):
        for j in range(1, n_b + 1):
            best, state = argbest(m_mat[i - 1, j - 1], x_mat[i - 1, j - 1],
                                  y_mat[i - 1, j - 1])
            m_mat[i, j] = best + column_score(i - 1, j - 1)
            m_ptr[i, j] = state
            best, state = argbest(m_mat[i - 1, j] + gap_open,
                                  x_mat[i - 1, j] + gap_extend,
                                  y_mat[i - 1, j] + gap_open)
            x_mat[i, j] = best
            x_ptr[i, j] = state
            best, state = argbest(m_mat[i, j - 1] + gap_open,
                                  x_mat[i, j - 1] + gap_open,
                                  y_mat[i, j - 1] + gap_extend)
            y_mat[i, j] = best
            y_ptr[i, j] = state

    score, state = argbest(m_mat[n_a, n_b], x_mat[n_a, n_b], y_mat[n_a, n_b])
    pairs = []
    i, j = n_a, n_b
    while i > 0 or j > 0:
        if state == 0:
            pairs.append((i - 1, j - 1))
            state = m_ptr[i, j]
            i, j = i - 1, j - 1
        elif state == 1:
            pairs.append((i - 1, None))
            state = x_ptr[i, j]
            i -= 1
        else:
            pairs.append((None, j - 1))
            state = y_ptr[i, j]
            j -= 1
    pairs.reverse()
    return pairs, float(score)


def reference_pair_score(a, b, match, mismatch, gap_open, gap_extend) -> float:
    """Score of the traced pairwise alignment of two words."""
    def column_score(i, j):
        return match if a[i] == b[j] else mismatch

    return _reference_gotoh(len(a), len(b), column_score, match, mismatch,
                            gap_open, gap_extend)[1]


def reference_linkage_order(dist):
    n = dist.shape[0]
    active = list(range(n))
    sizes = {i: 1 for i in range(n)}
    d = {frozenset((i, j)): dist[i, j] for i in range(n) for j in range(i + 1, n)}
    merges = []
    while len(active) > 1:
        best_pair = None
        best_val = None
        for ai in range(len(active)):
            for aj in range(ai + 1, len(active)):
                i, j = active[ai], active[aj]
                val = d[frozenset((i, j))]
                if best_val is None or val < best_val:
                    best_val = val
                    best_pair = (i, j)
        i, j = best_pair
        merges.append((i, j))
        for k in active:
            if k in (i, j):
                continue
            d[frozenset((i, k))] = (
                sizes[i] * d[frozenset((i, k))] + sizes[j] * d[frozenset((j, k))]
            ) / (sizes[i] + sizes[j])
        sizes[i] += sizes[j]
        active.remove(j)
    return merges


def reference_column_score(col_a, col_b, match, mismatch, gap_extend):
    """Mean symbol score over all row pairs of two profile columns."""
    def symbol_score(x, y):
        if x == GAP and y == GAP:
            return 0.0
        if x == GAP or y == GAP:
            return gap_extend
        return match if x == y else mismatch

    total = 0.0
    for x in col_a:
        for y in col_b:
            total += symbol_score(x, y)
    return total / (len(col_a) * len(col_b))


def _reference_merge(rows_a, rows_b, match, mismatch, gap_open, gap_extend):
    n_a, n_b = len(rows_a[0]), len(rows_b[0])
    cols_a = [[row[i] for row in rows_a] for i in range(n_a)]
    cols_b = [[row[j] for row in rows_b] for j in range(n_b)]

    def column_score(i, j):
        return reference_column_score(cols_a[i], cols_b[j], match, mismatch,
                                      gap_extend)

    pairs, _ = _reference_gotoh(n_a, n_b, column_score, match, mismatch,
                                gap_open, gap_extend)
    merged = [[] for _ in range(len(rows_a) + len(rows_b))]
    for i, j in pairs:
        col_a = cols_a[i] if i is not None else [GAP] * len(rows_a)
        col_b = cols_b[j] if j is not None else [GAP] * len(rows_b)
        for r, symbol in enumerate(col_a + col_b):
            merged[r].append(symbol)
    return merged


def reference_progressive_align(seqs, match, mismatch, gap_open, gap_extend):
    """Aligned rows (tuples, missing words as all-gap rows) of one concept;
    at least one word must be non-empty."""
    present = [i for i, s in enumerate(seqs) if s]
    if len(present) == 1:
        width = len(seqs[present[0]])
        aligned = {present[0]: list(seqs[present[0]])}
    else:
        k = len(present)
        dist = np.zeros((k, k))
        for a in range(k):
            for b in range(a + 1, k):
                sa, sb = seqs[present[a]], seqs[present[b]]
                score = reference_pair_score(sa, sb, match, mismatch, gap_open,
                                             gap_extend)
                limit = match * max(len(sa), len(sb))
                dist[a, b] = dist[b, a] = 1.0 - score / limit
        profiles = {a: [list(seqs[present[a]])] for a in range(k)}
        members = {a: [present[a]] for a in range(k)}
        for i, j in reference_linkage_order(dist):
            profiles[i] = _reference_merge(profiles[i], profiles[j], match,
                                           mismatch, gap_open, gap_extend)
            members[i] = members[i] + members[j]
            del profiles[j], members[j]
        (root,) = profiles
        width = len(profiles[root][0])
        aligned = dict(zip(members[root], profiles[root]))
    rows = [tuple(aligned[i]) if i in aligned else (GAP,) * width
            for i in range(len(seqs))]
    keep = [c for c in range(width) if any(row[c] != GAP for row in rows)]
    return tuple(tuple(row[c] for c in keep) for row in rows)


# -- Student t upper tail by quadrature --------------------------------------

def t_upper_tail(t_value: float, df: int) -> float:
    """One-sided p = P(T >= t) for Student t, via mpmath quadrature."""
    import mpmath as mp

    mp.mp.dps = 40
    nu = mp.mpf(df)
    coeff = mp.gamma((nu + 1) / 2) / (mp.sqrt(nu * mp.pi) * mp.gamma(nu / 2))

    def density(x):
        return coeff * (1 + x * x / nu) ** (-(nu + 1) / 2)

    # Integrate the lower tail when t is negative to keep quadrature stable.
    if t_value >= 0:
        p = mp.quad(density, [t_value, mp.inf])
    else:
        p = 1 - mp.quad(density, [-mp.inf, t_value])
    return float(p)


# -- quartet topologies -------------------------------------------------------

def bfs_edge_counts(adjacency, source: int) -> dict[int, int]:
    dist = {source: 0}
    queue = [source]
    while queue:
        u = queue.pop(0)
        for v in adjacency[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def quartet_by_paths(adjacency, leaf_of_name, quartet) -> str:
    """Quartet topology from scratch: per-quartet four-point comparison.

    Labels are positional over the sorted quartet: "AB|CD" pairs the two
    smallest names, matching the production convention.
    """
    a, b, c, d = sorted(quartet)
    dist = {name: bfs_edge_counts(adjacency, leaf_of_name[name])
            for name in (a, b, c, d)}
    sums = {"AB|CD": dist[a][leaf_of_name[b]] + dist[c][leaf_of_name[d]],
            "AC|BD": dist[a][leaf_of_name[c]] + dist[b][leaf_of_name[d]],
            "AD|BC": dist[a][leaf_of_name[d]] + dist[b][leaf_of_name[c]]}
    low = min(sums.values())
    winners = [k for k, v in sums.items() if v == low]
    return winners[0] if len(winners) == 1 else "STAR"


def quartet_counts_by_paths(pred_adjacency, pred_names, gold_adjacency,
                            gold_names) -> tuple[int, int]:
    """(quartets the gold tree resolves, how many of them the predicted tree
    does not resolve the same way), one :func:`quartet_by_paths` call per
    quartet and tree. ``*_names`` map leaf node to name."""
    pred_leaf = {name: node for node, name in pred_names.items()}
    gold_leaf = {name: node for node, name in gold_names.items()}
    resolved = differing = 0
    for quartet in itertools.combinations(sorted(gold_leaf), 4):
        gold = quartet_by_paths(gold_adjacency, gold_leaf, quartet)
        if gold != "STAR":
            resolved += 1
            differing += quartet_by_paths(pred_adjacency, pred_leaf, quartet) != gold
    return resolved, differing


def quartets_from_bipartitions(adjacency, name_of_leaf) -> dict[frozenset, frozenset]:
    """Resolved quartets via edge bipartitions (independent second route).

    Returns {frozenset of 4 names: frozenset of two frozenset pairs} for
    every quartet some internal edge resolves. Quartets absent from the
    result are stars of the (possibly multifurcating) tree.
    """
    leaves = set(name_of_leaf)
    resolved: dict[frozenset, frozenset] = {}
    for u in adjacency:
        for v in adjacency[u]:
            if u > v:
                continue
            # Leaf set on v's side of edge (u, v).
            side = set()
            stack = [v]
            seen = {u, v}
            while stack:
                x = stack.pop()
                if x in name_of_leaf:
                    side.add(name_of_leaf[x])
                for y in adjacency[x]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            other = {name_of_leaf[n] for n in leaves} - side
            if len(side) < 2 or len(other) < 2:
                continue
            for pair_a in itertools.combinations(sorted(side), 2):
                for pair_b in itertools.combinations(sorted(other), 2):
                    key = frozenset(pair_a) | frozenset(pair_b)
                    resolved[key] = frozenset((frozenset(pair_a), frozenset(pair_b)))
    return resolved


# -- clustering ----------------------------------------------------------------

def upgma_merge_heights(dist: np.ndarray, names) -> list[tuple[frozenset, float]]:
    """Average-linkage merges as (merged member set, height) pairs."""
    clusters = {i: frozenset([n]) for i, n in enumerate(names)}
    sizes = {i: 1 for i in clusters}
    d = {frozenset((i, j)): float(dist[i, j])
         for i in clusters for j in clusters if i < j}
    merges = []
    next_id = len(names)
    while len(clusters) > 1:
        key = min(d, key=lambda k: (d[k], sorted(k)))
        i, j = sorted(key)
        height = d[key]
        merged = clusters[i] | clusters[j]
        merges.append((merged, height))
        size_new = sizes[i] + sizes[j]
        for other in list(clusters):
            if other in (i, j):
                continue
            val = (d[frozenset((i, other))] * sizes[i]
                   + d[frozenset((j, other))] * sizes[j]) / size_new
            d[frozenset((next_id, other))] = val
        for other in list(clusters):
            d.pop(frozenset((i, other)), None)
            d.pop(frozenset((j, other)), None)
        del clusters[i], clusters[j], sizes[i], sizes[j]
        clusters[next_id] = merged
        sizes[next_id] = size_new
        next_id += 1
    return merges


# -- permutation test, one replicate at a time --------------------------------
#
# ``slots`` maps each language to an integer array over concepts, in
# concept-name order, holding the index of the word filling the slot (words
# numbered 0.. in that order) or -1 for an empty slot. ``tables[a, b][i, j]``
# is the distance between word i of a and word j of b; with ``complement``
# the tables hold word agreements instead and a language distance is one
# minus their mean.

def word_distance(metric: str, a, b) -> float:
    """Distance of two encoded words under the named rule ``P1_DOLGO`` or
    ``TURCHIN``, one word pair at a time.

    0 when the words agree on their first class (P1_DOLGO) or on their
    first two classes as far as the shorter word reaches (TURCHIN), else 1.
    Two empty words (vowels only) agree; an empty and a non-empty word do
    not. Other metrics need language context and raise ``ValueError``.
    """
    if metric not in ("P1_DOLGO", "TURCHIN"):
        raise ValueError(f"{metric} distances need language context")
    if not a and not b:
        return 0.0
    if not a or not b:
        return 1.0
    k = 1 if metric == "P1_DOLGO" else min(2, len(a), len(b))
    return 0.0 if tuple(a[:k]) == tuple(b[:k]) else 1.0


def reference_streams(languages, seed):
    """One generator per language, keyed by the seed and the UTF-8 bytes of
    the language's name."""
    return {
        lang: np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=tuple(lang.encode("utf-8"))))
        for lang in languages
    }


def reference_shuffle(slots, streams):
    """One replicate: each language's words permuted across its attested
    slots, taken in concept order, by its own generator."""
    out = {}
    for language, rng in streams.items():
        pointers = slots[language].copy()
        attested = np.nonzero(pointers >= 0)[0]
        pointers[attested] = rng.permutation(pointers[attested])
        out[language] = pointers
    return out


def reference_language_distance(tables, a, b, slots, complement=False):
    """Mean word distance of a and b over the concepts both attest, added
    in concept order."""
    wa, wb = slots[a], slots[b]
    shared = (wa >= 0) & (wb >= 0)
    mean = tables[a, b][wa[shared], wb[shared]].mean()
    return float(1.0 - mean) if complement else float(mean)


def _reference_statistics(draws, observed):
    expected = float(draws.mean())
    p_value = (int(np.count_nonzero(draws <= observed)) + 1) / (len(draws) + 1)
    s_hat = 0.0 if expected == 0.0 else (expected - observed) / expected
    return float(s_hat), float(p_value), expected, expected == 0.0


def reference_significance(slots, tables, a, b, n_perm, seed, complement):
    """Observed distance of a and b and (s_hat, p, expected, degenerate)."""
    observed = reference_language_distance(tables, a, b, slots, complement)
    streams = reference_streams([a, b], seed)
    draws = np.empty(n_perm)
    for r in range(n_perm):
        shuffled = reference_shuffle(slots, streams)
        draws[r] = reference_language_distance(tables, a, b, shuffled, complement)
    return observed, _reference_statistics(draws, observed)


def reference_pairwise(slots, tables, languages, n_perm, seed, complement=False):
    """(a, b, observed, s_hat, p) for every pair in ``languages`` order,
    every pair read from the same replicates of all languages."""
    pairs = [(a, b) for i, a in enumerate(languages) for b in languages[i + 1:]]
    streams = reference_streams(languages, seed)
    draws = np.empty((len(pairs), n_perm))
    for r in range(n_perm):
        shuffled = reference_shuffle(slots, streams)
        for k, (a, b) in enumerate(pairs):
            draws[k, r] = reference_language_distance(tables, a, b, shuffled, complement)
    rows = []
    for k, (a, b) in enumerate(pairs):
        observed = reference_language_distance(tables, a, b, slots, complement)
        s_hat, p_value, _, _ = _reference_statistics(draws[k], observed)
        rows.append((a, b, observed, s_hat, p_value))
    return rows


def reference_agglomerate(base: np.ndarray, languages):
    """Average linkage that recomputes every candidate block at every step."""
    index = {lang: k for k, lang in enumerate(languages)}
    clusters = [(lang,) for lang in languages]
    rows = {cluster: [index[cluster[0]]] for cluster in clusters}
    stages = []
    while len(clusters) > 1:
        best = None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                block = base[np.ix_(rows[clusters[i]], rows[clusters[j]])]
                key = (float(block.mean()), tuple(sorted((clusters[i], clusters[j]))))
                if best is None or key < best[0]:
                    best = (key, i, j)
        (distance, (left, right)), i, j = best
        stages.append((left, right, distance))
        merged = tuple(sorted(left + right))
        rows[merged] = sorted(rows[clusters[i]] + rows[clusters[j]])
        clusters = [c for k, c in enumerate(clusters) if k not in (i, j)]
        clusters.append(merged)
    return stages


def _reference_pair_matrix(tables, languages, slots, complement):
    out = np.zeros((len(languages), len(languages)))
    for i, a in enumerate(languages):
        for j in range(i + 1, len(languages)):
            out[i, j] = out[j, i] = reference_language_distance(
                tables, a, languages[j], slots, complement)
    return out


def reference_merge_tree(slots, tables, n_perm, seed, complement=False):
    """(left, right, distance, s_hat, p, degenerate) for every merge."""
    languages = sorted(slots)
    observed = reference_agglomerate(
        _reference_pair_matrix(tables, languages, slots, complement), languages)
    streams = reference_streams(languages, seed)
    heights = np.empty((n_perm, len(observed)))
    for r in range(n_perm):
        shuffled = reference_shuffle(slots, streams)
        stages = reference_agglomerate(
            _reference_pair_matrix(tables, languages, shuffled, complement),
            languages)
        heights[r] = [h for _, _, h in stages]
    merges = []
    for k, (left, right, distance) in enumerate(observed):
        s_hat, p_value, _, degenerate = _reference_statistics(heights[:, k], distance)
        merges.append((left, right, distance, s_hat, p_value, degenerate))
    return merges
