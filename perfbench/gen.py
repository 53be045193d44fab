"""Seeded input generators for the benchmark workloads.

Everything here is independent of the ``relate`` package: the generator
fixes its own consonant classes and the letters that spell them, evolves
words along its own random trees, and samples character matrices with its
own transition matrices. The program under test only ever sees the TSV
bytes or the matrix cells produced here; the recorded classes, trees and
parameters are what the checks compare its outputs against.

Words are consonant-class skeletons of two to four classes, spelled by
alternating each consonant with a vowel (``pa-ti-ku``), so that no two
consonant letters touch and no multi-letter segment can form.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from reference import gamma_rates, generator_matrix

#: The generator's own consonant classes and the letters that spell them.
CLASS_LETTERS = {
    "P": "pbf",
    "T": "td",
    "S": "sz",
    "K": "kg",
    "M": "m",
    "N": "n",
    "R": "rl",
    "W": "wv",
    "J": "jy",
    "H": "h",
}
CLASSES = tuple(CLASS_LETTERS)
VOWELS = "aeiou"
BASIC_COLUMNS = ("LANGUAGE", "CONCEPT", "FORM")
ALL_COLUMNS = BASIC_COLUMNS + ("SEGMENTS", "LOAN", "TAG", "CORE_RANK")


# -- trees ---------------------------------------------------------------------


@dataclass
class Tree:
    """Unrooted binary tree: ``adjacency`` maps node -> {neighbour: length};
    leaves are nodes ``0 .. len(names) - 1``, named by ``names``."""

    adjacency: dict[int, dict[int, float]]
    names: list[str]

    def leaves(self) -> dict[int, str]:
        return dict(enumerate(self.names))

    def preorder_edges(self, root: int):
        """(parent, child, length) with every edge after its parent's edge."""
        out = []
        stack = [(root, None)]
        while stack:
            node, parent = stack.pop()
            for nbr in sorted(self.adjacency[node], reverse=True):
                if nbr != parent:
                    out.append((node, nbr, self.adjacency[node][nbr]))
                    stack.append((nbr, node))
        return out

    def newick(self) -> str:
        root = len(self.names)  # the first internal node

        def render(node, parent):
            if node < len(self.names):
                return self.names[node]
            kids = [render(c, node) for c in sorted(self.adjacency[node]) if c != parent]
            return "(" + ",".join(kids) + ")"

        kids = [render(c, root) for c in sorted(self.adjacency[root])]
        return "(" + ",".join(kids) + ");"


def random_tree(names, rng: random.Random, internal=(0.1, 0.3), pendant=(0.1, 0.4)) -> Tree:
    """Random topology by attaching leaves to uniformly chosen edges.

    Internal branches draw from ``internal`` and pendant ones from
    ``pendant`` (uniform ranges), so every split is supported by data.
    """
    names = list(names)
    n = len(names)
    adjacency: dict[int, dict[int, float]] = {i: {} for i in range(n)}

    def link(u, v, length):
        adjacency[u][v] = length
        adjacency[v][u] = length

    hub = n
    adjacency[hub] = {}
    for leaf in range(3):
        link(hub, leaf, 0.0)
    next_id = n + 1
    for leaf in range(3, n):
        edges = sorted((u, v) for u in adjacency for v in adjacency[u] if u < v)
        u, v = edges[rng.randrange(len(edges))]
        del adjacency[u][v], adjacency[v][u]
        joint = next_id
        next_id += 1
        adjacency[joint] = {}
        link(u, joint, 0.0)
        link(joint, v, 0.0)
        link(joint, leaf, 0.0)
    for u, v in sorted((u, v) for u in adjacency for v in adjacency[u] if u < v):
        lo, hi = pendant if (u < n or v < n) else internal
        link(u, v, rng.uniform(lo, hi))
    return Tree(adjacency, names)


# -- words and wordlists -----------------------------------------------------------


def random_skeleton(rng: random.Random, lo: int = 2, hi: int = 4) -> tuple[str, ...]:
    return tuple(rng.choice(CLASSES) for _ in range(rng.randint(lo, hi)))


def spell(skeleton, rng: random.Random) -> list[str]:
    """Segments of one spelling: consonant, vowel, consonant, vowel, ...
    with an optional leading vowel and an optional final vowel."""
    segments = []
    if rng.random() < 0.2:
        segments.append(rng.choice(VOWELS))
    for k, cls in enumerate(skeleton):
        segments.append(rng.choice(CLASS_LETTERS[cls]))
        if k < len(skeleton) - 1 or rng.random() < 0.6:
            segments.append(rng.choice(VOWELS))
    return segments


def replace_words(words, length: float, rng: random.Random):
    """Each word is replaced by a fresh one with probability 1 - exp(-length)."""
    p_replace = 1.0 - math.exp(-length)
    return [random_skeleton(rng) if rng.random() < p_replace else w for w in words]


def evolve_family(tree: Tree, proto, rng: random.Random):
    """Word skeletons at the leaves after per-branch replacement, starting
    from ``proto`` (one skeleton per concept) at an internal root.
    Returns {leaf name: [skeleton per concept]}."""
    root = len(tree.names)
    words = {root: list(proto)}
    for parent, child, length in tree.preorder_edges(root):
        words[child] = replace_words(words[parent], length, rng)
    return {tree.names[i]: words[i] for i in range(len(tree.names))}


@dataclass
class SlotWord:
    """One generated row: its spelling and what the generator decided."""

    skeleton: tuple[str, ...]
    form: str
    segments: tuple[str, ...] | None = None
    loan: bool = False
    tag: str = ""
    rank: int | None = None

    @property
    def survives(self) -> bool:
        """Kept by the default filter: no loan, no flag, two or more classes."""
        return not self.loan and not self.tag and len(self.skeleton) >= 2


@dataclass
class GeneratedWordlist:
    languages: list[str]
    concepts: list[str]
    slots: dict[tuple[str, str], list[SlotWord]] = field(default_factory=dict)

    def to_tsv(self, columns=ALL_COLUMNS) -> bytes:
        lines = ["\t".join(columns)]
        for language in self.languages:
            for concept in self.concepts:
                for word in self.slots.get((language, concept), ()):
                    cells = {
                        "LANGUAGE": language,
                        "CONCEPT": concept,
                        "FORM": word.form,
                        "SEGMENTS": " ".join(word.segments) if word.segments else "",
                        "LOAN": "1" if word.loan else "0",
                        "TAG": word.tag,
                        "CORE_RANK": "" if word.rank is None else str(word.rank),
                    }
                    lines.append("\t".join(cells[c] for c in columns))
        return ("\n".join(lines) + "\n").encode("utf-8")


def family_union(
    seed: int,
    family_sizes,
    n_concepts: int,
    missing: float = 0.05,
    bridge: float | None = None,
) -> GeneratedWordlist:
    """Union of families, one word per attested slot, no loans, flags,
    ranks or segment columns. Without ``bridge`` the families are
    unrelated; with it their proto-languages descend from one ancestor,
    each ``bridge / 2`` replacement units away from it."""
    rng = random.Random(seed)
    concepts = [f"C{j:03d}" for j in range(n_concepts)]
    out = GeneratedWordlist(languages=[], concepts=concepts)
    ancestor = [random_skeleton(rng) for _ in range(n_concepts)]
    for f, size in enumerate(family_sizes):
        names = [f"F{f}L{i}" for i in range(size)]
        tree = random_tree(names, rng)
        out.languages.extend(names)
        if bridge is None:
            proto = [random_skeleton(rng) for _ in range(n_concepts)]
        else:
            proto = replace_words(ancestor, bridge / 2, rng)
        for name, skeletons in evolve_family(tree, proto, rng).items():
            for concept, skeleton in zip(concepts, skeletons):
                if rng.random() < missing:
                    continue
                out.slots[(name, concept)] = [SlotWord(skeleton, "".join(spell(skeleton, rng)))]
    return out


def rich_wordlist(seed: int, family_sizes, n_concepts: int) -> GeneratedWordlist:
    """Wordlist exercising every ingestion rule.

    Per slot: 5 % are missing; otherwise the evolved word is joined by up to
    two synonyms. Ranked slots give distinct CORE_RANK values to all or only
    some of their words; unranked ones leave the choice to a seeded draw.
    Some words are marked LOAN, some carry a TAG, some are one-class forms
    that the length filter drops, and about a third carry SEGMENTS.
    """
    rng = random.Random(seed)
    concepts = [f"C{j:03d}" for j in range(n_concepts)]
    out = GeneratedWordlist(languages=[], concepts=concepts)
    tags = ("ONOMATOPOEIA", "NURSERY", "SHORT")
    for f, size in enumerate(family_sizes):
        names = [f"F{f}L{i:02d}" for i in range(size)]
        tree = random_tree(names, rng)
        out.languages.extend(names)
        proto = [random_skeleton(rng) for _ in range(n_concepts)]
        for name, skeletons in evolve_family(tree, proto, rng).items():
            for concept, skeleton in zip(concepts, skeletons):
                if rng.random() < 0.05:
                    continue
                n_words = rng.choices((1, 2, 3), weights=(6, 3, 1))[0]
                words = []
                for k in range(n_words):
                    sk = skeleton if k == 0 else random_skeleton(rng, 1, 4)
                    segments = spell(sk, rng)
                    word = SlotWord(sk, "".join(segments))
                    if rng.random() < 0.3:
                        word.segments = tuple(segments)
                    draw = rng.random()
                    if draw < 0.06:
                        word.loan = True
                    elif draw < 0.1:
                        word.tag = rng.choice(tags)
                    words.append(word)
                ranking = rng.random()
                if n_words > 1 and ranking < 0.7:
                    offset = rng.randrange(3)
                    ranks = [r + offset for r in rng.sample(range(n_words), n_words)]
                    partial = ranking < 0.2
                    for k, word in enumerate(words):
                        if not (partial and k == n_words - 1):
                            word.rank = ranks[k]
                rng.shuffle(words)
                out.slots[(name, concept)] = words
    return out


# -- simulated character matrices ----------------------------------------------------


@dataclass
class SimulatedMatrix:
    taxa: list[str]
    rows: list[str]
    tree: Tree
    freqs: np.ndarray
    p_inv: float
    gamma_shape: float


def simulate_gamma_matrix(
    seed: int,
    n_taxa: int,
    n_sites: int,
    p_inv: float = 0.2,
    gamma_shape: float = 1.0,
    gap_rate: float = 0.02,
) -> SimulatedMatrix:
    """Sites along a random tree under the invariant + two-category gamma
    mixture, with transition matrices from ``expm`` of the generator and
    category rates from ``reference.gamma_rates``."""
    rng = np.random.default_rng(seed)
    names = [f"T{i:02d}" for i in range(n_taxa)]
    tree = random_tree(names, random.Random(seed), internal=(0.15, 0.35))
    freqs = rng.dirichlet(np.full(len(CLASSES), 8.0))
    q = generator_matrix(freqs)
    rates = gamma_rates(gamma_shape, 2)
    cum_pi = np.cumsum(freqs)

    def stationary(n):
        return np.minimum(np.searchsorted(cum_pi, rng.random(n), side="right"), len(freqs) - 1)

    invariant = rng.random(n_sites) < p_inv
    category = rng.integers(0, len(rates), size=n_sites)
    root = n_taxa
    states = {root: stationary(n_sites)}
    for parent, child, length in tree.preorder_edges(root):
        cum = np.stack([np.cumsum(expm(q * r * length), axis=1) for r in rates])
        table = cum[category, states[parent], :]
        drawn = (rng.random(n_sites)[:, None] >= table).sum(axis=1)
        states[child] = np.minimum(drawn, len(freqs) - 1)
    inv_states = stationary(n_sites)
    symbols = np.array(CLASSES)
    rows = []
    for i in range(n_taxa):
        leaf = np.where(invariant, inv_states, states[i])
        cells = symbols[leaf]
        cells[rng.random(n_sites) < gap_rate] = "-"
        rows.append("".join(cells))
    return SimulatedMatrix(names, rows, tree, freqs, p_inv, gamma_shape)
