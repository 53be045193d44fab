"""Shared builders for synthetic wordlists, matrices, and models."""

from __future__ import annotations

import random

import numpy as np

from relate.bootsim import simulate_sites
from relate.msa import CharacterMatrix
from relate.phylik import Phylogeny, parse_newick
from relate.submodel import SubstitutionModel

CONSONANTS = "ptkbdgsznmrlfwjh"
VOWELS = "aeiou"


def wordlist_text(rows, header=("LANGUAGE", "CONCEPT", "FORM")) -> str:
    lines = ["\t".join(header)]
    for row in rows:
        lines.append("\t".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def random_word(rng: np.random.Generator, min_syllables: int = 2,
                max_syllables: int = 3) -> str:
    """CV-syllable word over segments the default class table covers."""
    n = int(rng.integers(min_syllables, max_syllables + 1))
    parts = []
    for _ in range(n):
        parts.append(str(rng.choice(list(CONSONANTS))))
        parts.append(str(rng.choice(list(VOWELS))))
    if rng.random() < 0.5:
        parts.append(str(rng.choice(list(CONSONANTS))))
    return "".join(parts)


def random_wordlist_rows(n_languages: int, n_concepts: int, seed: int,
                         missing: float = 0.0) -> list[tuple[str, str, str]]:
    """Unrelated languages: every slot drawn independently."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n_languages):
        lang = f"L{i:02d}"
        for j in range(n_concepts):
            if missing and rng.random() < missing:
                continue
            rows.append((lang, f"c{j:03d}", random_word(rng)))
    return rows


def related_wordlist_rows(n_languages: int, n_concepts: int, seed: int,
                          mutation: float = 0.25) -> list[tuple[str, str, str]]:
    """Languages copied from one proto-stock with per-slot mutations."""
    rng = np.random.default_rng(seed)
    proto = [random_word(rng) for _ in range(n_concepts)]
    rows = []
    for i in range(n_languages):
        lang = f"L{i:02d}"
        for j in range(n_concepts):
            word = proto[j]
            if rng.random() < mutation:
                word = random_word(rng)
            rows.append((lang, f"c{j:03d}", word))
    return rows


def matrix_from_rows(taxa, rows, bounds=None) -> CharacterMatrix:
    cells = [list(r) for r in rows]
    if bounds is None:
        bounds = [("c0", 0, len(cells[0]))]
    return CharacterMatrix(taxa, cells, bounds)


def random_matrix(n_taxa: int, n_sites: int, states: str, seed: int,
                  gap_rate: float = 0.0) -> CharacterMatrix:
    rng = np.random.default_rng(seed)
    symbols = list(states)
    cells = rng.choice(symbols, size=(n_taxa, n_sites))
    if gap_rate:
        mask = rng.random((n_taxa, n_sites)) < gap_rate
        cells = np.where(mask, "-", cells)
    taxa = [f"t{i}" for i in range(n_taxa)]
    return CharacterMatrix(taxa, cells, [("c0", 0, n_sites)])


def random_freq_model(n_states: int, seed: int, p_inv: float = 0.0,
                      gamma_shape: float | None = None,
                      n_rate_cats: int = 1) -> SubstitutionModel:
    rng = np.random.default_rng(seed)
    freqs = rng.dirichlet(np.full(n_states, 5.0))
    alphabet = tuple("ABCDEFGHIJ"[:n_states])
    return SubstitutionModel(
        alphabet=alphabet,
        freqs=tuple(freqs),
        p_inv=p_inv,
        gamma_shape=gamma_shape,
        n_rate_cats=n_rate_cats,
    )


def small_matrix(
    seed: int = 0,
    n_sites: int = 60,
    newick: str = "((A:0.3,B:0.3):0.2,(C:0.3,D:0.3):0.2);",
) -> CharacterMatrix:
    """Sites simulated on ``newick`` under a 4-state model with p_inv 0.1."""
    tree = parse_newick(newick)
    model = random_freq_model(4, seed=seed, p_inv=0.1)
    states = simulate_sites(tree, model, n_sites, np.random.default_rng(seed))
    symbols = np.array(model.alphabet)
    taxa = sorted(states)
    return CharacterMatrix(
        taxa, [symbols[states[t]] for t in taxa], [("c0", 0, n_sites)])


def leaf_symbol_map(tree, matrix) -> dict[int, list[str]]:
    """Bridge a Phylogeny + CharacterMatrix into oracle-friendly form."""
    return {tree.leaf_node(name): list(row) for name, row in zip(matrix.taxa, matrix.cells)}


def random_tree(
    labels,
    seed: int = 42,
    min_length: float = 0.05,
    max_length: float = 0.5,
) -> Phylogeny:
    """Random binary topology over ``labels`` with uniform branch lengths.

    Leaves are attached one at a time to a uniformly chosen existing edge;
    the same seed always yields the same tree.
    """
    labels = list(labels)
    if len(labels) < 2:
        raise ValueError("need at least 2 labels")
    if len(set(labels)) != len(labels):
        raise ValueError("labels must be distinct")
    rng = random.Random(seed)

    def draw() -> float:
        return rng.uniform(min_length, max_length)

    leaf_names = {i: name for i, name in enumerate(labels)}
    if len(labels) == 2:
        length = draw()
        return Phylogeny({0: {1: length}, 1: {0: length}}, leaf_names)

    adjacency: dict[int, dict[int, float]] = {i: {} for i in range(len(labels))}
    center = len(labels)
    adjacency[center] = {}
    for leaf in (0, 1, 2):
        length = draw()
        adjacency[center][leaf] = length
        adjacency[leaf][center] = length
    next_id = center + 1
    for leaf in range(3, len(labels)):
        edges = sorted(
            (u, v) for u, nbrs in adjacency.items() for v in nbrs if u < v
        )
        u, v = edges[rng.randrange(len(edges))]
        old = adjacency[u][v]
        split = rng.random()
        joint = next_id
        next_id += 1
        del adjacency[u][v], adjacency[v][u]
        adjacency[joint] = {}
        adjacency[u][joint] = old * split
        adjacency[joint][u] = old * split
        adjacency[joint][v] = old * (1 - split)
        adjacency[v][joint] = old * (1 - split)
        pendant = draw()
        adjacency[joint][leaf] = pendant
        adjacency[leaf][joint] = pendant
    return Phylogeny(adjacency, leaf_names)
