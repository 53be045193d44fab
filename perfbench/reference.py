"""Reference computations the checks compare the program's outputs with.

None of this imports ``relate``. Transition matrices come from
``scipy.linalg.expm`` of the generator rather than a closed form, gamma
category rates from numerical quadrature rather than incomplete-gamma
identities, the t-test from ``scipy.stats.ttest_rel``, average linkage from
``scipy.cluster.hierarchy``, and tree comparison from bipartitions rather
than quartets.
"""

from __future__ import annotations

import numpy as np
from scipy import integrate, stats
from scipy.cluster.hierarchy import linkage
from scipy.linalg import expm
from scipy.spatial.distance import squareform

GAP = "-"


def generator_matrix(freqs) -> np.ndarray:
    """Equal-input generator q_ij = mu * pi_j, one expected event per unit."""
    pi = np.asarray(freqs, dtype=float)
    q = np.tile(pi, (len(pi), 1)) / (1.0 - float(pi @ pi))
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    return q


def gamma_rates(shape: float, n_cats: int) -> tuple[float, ...]:
    """Mean rate of each equal-probability bin of a unit-mean gamma, by
    integrating x * density between the bin's quantiles, renormalized to
    average one."""
    if n_cats == 1:
        return (1.0,)
    dist = stats.gamma(shape, scale=1.0 / shape)
    cuts = [0.0] + [float(dist.ppf(k / n_cats)) for k in range(1, n_cats)] + [np.inf]
    means = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        # Splitting at the mean keeps quad accurate on the long right tail.
        pieces = [lo, hi] if hi <= 1.0 or lo >= 1.0 else [lo, 1.0, hi]
        total = sum(
            integrate.quad(lambda x: x * dist.pdf(x), a, b, limit=200, epsabs=1e-14, epsrel=1e-12)[0]
            for a, b in zip(pieces[:-1], pieces[1:])
        )
        means.append(total * n_cats)
    rates = np.array(means)
    rates /= rates.mean()
    return tuple(float(r) for r in rates)


def smoothed_frequencies(rows, states, pseudocount: float = 0.5) -> np.ndarray:
    """(count + pseudocount) / (total + n_states * pseudocount) over the
    non-gap cells of ``rows`` (strings of state symbols)."""
    text = "".join(rows)
    counts = np.array([text.count(s) for s in states], dtype=float)
    freqs = (counts + pseudocount) / (counts.sum() + pseudocount * len(states))
    return freqs / freqs.sum()


def site_log_likelihoods(adjacency, leaf_names, rows, states, freqs, p_inv, rates) -> np.ndarray:
    """Felsenstein pruning of the invariant + variable site mixture.

    ``adjacency`` maps node -> {neighbour: branch length}, ``leaf_names``
    leaf node -> taxon, ``rows`` taxon -> string of symbols (``-`` is
    missing). The variable part averages the rate categories; the
    invariant part is pi_s when every present cell is s, one when the
    column is all gaps, zero otherwise.
    """
    pi = np.asarray(freqs, dtype=float)
    q = generator_matrix(pi)
    index = {s: i for i, s in enumerate(states)}
    n_sites = len(next(iter(rows.values())))
    root = min(node for node in adjacency if node not in leaf_names)
    order = []
    stack = [(root, None)]
    while stack:
        node, parent = stack.pop()
        order.append((node, parent))
        stack.extend((nbr, node) for nbr in adjacency[node] if nbr != parent)

    leaf_partial = {}
    for node, name in leaf_names.items():
        partial = np.zeros((len(states), n_sites))
        for site, symbol in enumerate(rows[name]):
            if symbol == GAP:
                partial[:, site] = 1.0
            else:
                partial[index[symbol], site] = 1.0
        leaf_partial[node] = partial

    per_rate = []
    for rate in rates:
        partial, scale = {}, {}
        for node, parent in reversed(order):
            if node in leaf_names:
                partial[node] = leaf_partial[node]
                scale[node] = np.zeros(n_sites)
                continue
            value = np.ones((len(states), n_sites))
            logs = np.zeros(n_sites)
            for child in adjacency[node]:
                if child == parent:
                    continue
                value = value * (expm(q * rate * adjacency[node][child]) @ partial[child])
                logs = logs + scale[child]
            peak = value.max(axis=0)
            partial[node] = value / peak
            scale[node] = logs + np.log(peak)
        per_rate.append(np.log(pi @ partial[root]) + scale[root])
    per_rate = np.array(per_rate)
    peak = per_rate.max(axis=0)
    variable = peak + np.log(np.mean(np.exp(per_rate - peak), axis=0))

    invariant = np.zeros(n_sites)
    for site in range(n_sites):
        present = {rows[name][site] for name in leaf_names.values()} - {GAP}
        if not present:
            invariant[site] = 1.0
        elif len(present) == 1:
            invariant[site] = pi[index[present.pop()]]
    if p_inv == 0.0:
        return variable
    with np.errstate(divide="ignore"):
        return np.logaddexp(np.log1p(-p_inv) + variable, np.log(p_inv) + np.log(invariant))


def paired_t(observed, null) -> tuple[float, float]:
    """One-sided paired t-test that observed exceeds null."""
    result = stats.ttest_rel(observed, null, alternative="greater")
    return float(result.statistic), float(result.pvalue)


def average_linkage_heights(dist: np.ndarray) -> np.ndarray:
    """Merge heights of average-linkage clustering of a square distance matrix."""
    return linkage(squareform(dist, checks=False), method="average")[:, 2]


def bipartitions(adjacency, leaf_names) -> set[frozenset]:
    """Non-trivial splits of a tree, each as the side without the smallest
    leaf name. ``leaf_names`` maps leaf node -> taxon."""
    everything = frozenset(leaf_names.values())
    anchor = min(everything)
    splits = set()
    for u in adjacency:
        for v in adjacency[u]:
            side = set()
            stack, seen = [v], {u, v}
            while stack:
                x = stack.pop()
                if x in leaf_names:
                    side.add(leaf_names[x])
                for y in adjacency[x]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            side = frozenset(side)
            if anchor in side:
                side = everything - side
            if 2 <= len(side) <= len(everything) - 2:
                splits.add(side)
    return splits
