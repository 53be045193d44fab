"""Quartet-based comparison of an inferred tree against a gold standard.

For every four-leaf subset, a tree either resolves the quartet into one of
three pairings or leaves it unresolved (a star). The score is the fraction
of the gold tree's resolved quartets on which the inferred tree disagrees,
either by resolving differently or by not resolving. Comparing against the
resolved-in-gold set only keeps polytomies in the gold standard from
counting as errors.
"""

from __future__ import annotations

import itertools
import logging
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, TaxaMismatchError
from .phylik import Phylogeny, _topology_from_text

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class GoldTree:
    """A reference tree; multifurcations allowed, branch lengths ignored."""

    adjacency: dict[int, dict[int, float]]
    leaf_names: dict[int, str]

    @property
    def taxa(self) -> tuple[str, ...]:
        return tuple(sorted(self.leaf_names.values()))

    def __repr__(self) -> str:
        return f"GoldTree({len(self.leaf_names)} leaves)"


def parse_gold_tree(text: str) -> GoldTree:
    """Parse Newick into a reference tree, keeping polytomies."""
    adjacency, leaf_names = _topology_from_text(text)
    if len(leaf_names) < 2:
        raise ParseError("reference tree needs at least 2 leaves")
    return GoldTree(adjacency=adjacency, leaf_names=leaf_names)


def _leaf_distances(tree: Phylogeny | GoldTree) -> tuple[tuple[str, ...], np.ndarray]:
    """Edge-count distances between all leaf pairs, leaves sorted by name."""
    names = sorted(tree.leaf_names.values())
    node_of = {name: node for node, name in tree.leaf_names.items()}
    n = len(names)
    dist = np.zeros((n, n), dtype=np.int32)
    for i, name in enumerate(names):
        hops = {node_of[name]: 0}
        queue = deque([node_of[name]])
        while queue:
            node = queue.popleft()
            for nbr in tree.adjacency[node]:
                if nbr not in hops:
                    hops[nbr] = hops[node] + 1
                    queue.append(nbr)
        for j, other in enumerate(names):
            dist[i, j] = hops[node_of[other]]
    return tuple(names), dist


def _pair_sums(dist: np.ndarray, quartets: np.ndarray) -> np.ndarray:
    a, b, c, d = quartets.T
    return np.stack(
        (
            dist[a, b] + dist[c, d],
            dist[a, c] + dist[b, d],
            dist[a, d] + dist[b, c],
        ),
        axis=1,
    )


@dataclass(frozen=True)
class QuartetScore:
    """Generalized quartet distance and its ingredients.

    ``resolved_gold`` counts quartets the gold tree resolves; ``differing``
    counts those the predicted tree fails to match. ``degenerate`` flags a
    gold tree with no resolved quartets, where the distance is reported as
    zero for lack of anything to compare.
    """

    resolved_gold: int
    differing: int
    gqd: float
    degenerate: bool = False

    def to_dict(self) -> dict:
        return {
            "resolved_gold": self.resolved_gold,
            "differing": self.differing,
            "gqd": self.gqd,
            "degenerate": self.degenerate,
        }


def gqd(predicted: Phylogeny | GoldTree, gold: Phylogeny | GoldTree) -> QuartetScore:
    """Generalized quartet distance from ``predicted`` to ``gold``.

    Both trees must name the same leaves. All C(n, 4) quartets are scored
    via vectorized four-point sums on edge-count distance matrices.
    """
    names_p, dist_p = _leaf_distances(predicted)
    names_g, dist_g = _leaf_distances(gold)
    if names_p != names_g:
        raise TaxaMismatchError(
            "trees name different leaves",
            missing=set(names_g) - set(names_p),
            extra=set(names_p) - set(names_g),
        )
    n = len(names_g)
    if n < 4:
        logger.warning("fewer than 4 leaves; quartet distance is vacuous")
        return QuartetScore(resolved_gold=0, differing=0, gqd=0.0, degenerate=True)

    quartets = np.array(list(itertools.combinations(range(n), 4)), dtype=np.int64)
    sums_p = _pair_sums(dist_p, quartets)
    sums_g = _pair_sums(dist_g, quartets)

    def resolve(sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        smallest = sums.min(axis=1, keepdims=True)
        resolved = (sums == smallest).sum(axis=1) == 1
        return resolved, sums.argmin(axis=1)

    resolved_p, topo_p = resolve(sums_p)
    resolved_g, topo_g = resolve(sums_g)
    bq = int(resolved_g.sum())
    if bq == 0:
        logger.warning("gold tree resolves no quartets; distance is vacuous")
        return QuartetScore(resolved_gold=0, differing=0, gqd=0.0, degenerate=True)
    differing = int(np.count_nonzero(resolved_g & (~resolved_p | (topo_p != topo_g))))
    return QuartetScore(resolved_gold=bq, differing=differing, gqd=differing / bq)
