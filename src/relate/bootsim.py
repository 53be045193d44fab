"""Parametric simulation of character matrices along a fitted tree.

Replicates reproduce the generating process the likelihood assumes: each
site is invariant with probability ``p_inv`` (one stationary draw shared by
all taxa), otherwise it draws a rate category and evolves from a stationary
root state down the tree. The template matrix supplies the taxon order,
the site count and, by default, the gap pattern, so a replicate is missing
exactly where the data are missing.

All randomness comes from one seeded generator consumed in a fixed order
(invariant mask, invariant states, rate categories, root states, then one
uniform array per edge in preorder), so a seed fully determines the output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TaxaMismatchError
from .mlsearch import MlFit
from .msa import CharacterMatrix
from .phylik import Phylogeny, _default_root
from .soundclass import GAP
from .submodel import SubstitutionModel, transition_prob


@dataclass(frozen=True)
class SimConfig:
    """Replicate shape and seeding.

    ``n_sites`` defaults to the template's site count and may only differ
    when the gap mask is not retained. ``p_inv_override`` substitutes the
    model's invariant proportion (it may be 1.0, unlike a model's), which
    lets diagnostics force the invariant branch of the sampler.
    """

    seed: int = 42
    retain_gap_mask: bool = True
    n_sites: int | None = None
    p_inv_override: float | None = None

    def __post_init__(self):
        if self.n_sites is not None and self.n_sites < 1:
            raise ValueError("n_sites must be at least 1")
        if self.p_inv_override is not None and not 0.0 <= self.p_inv_override <= 1.0:
            raise ValueError("p_inv override must lie in [0, 1]")


def _stationary_draw(rng: np.random.Generator, freqs: np.ndarray, n: int) -> np.ndarray:
    cum = np.cumsum(freqs)
    u = rng.random(n)
    return np.minimum(np.searchsorted(cum, u, side="right"), len(freqs) - 1)


def simulate_sites(
    tree: Phylogeny,
    model: SubstitutionModel,
    n_sites: int,
    rng: np.random.Generator,
    p_inv: float | None = None,
) -> dict[str, np.ndarray]:
    """Draw state indices for every leaf; returns {taxon: (n_sites,) ints}."""
    if p_inv is None:
        p_inv = model.p_inv
    n_cats = len(model.rates)

    inv_mask = rng.random(n_sites) < p_inv
    inv_states = _stationary_draw(rng, model.freqs, n_sites)
    if n_cats > 1:
        cats = rng.integers(0, n_cats, size=n_sites)
    else:
        cats = np.zeros(n_sites, dtype=np.int64)
    root = _default_root(tree)
    states = {root: _stationary_draw(rng, model.freqs, n_sites)}

    # Collect edges so that every edge appears after the one leading to its
    # parent; the traversal is deterministic, which pins the draw order.
    order = []
    stack = [(root, None)]
    while stack:
        node, parent = stack.pop()
        for nbr in sorted(tree.adjacency[node], reverse=True):
            if nbr != parent:
                order.append((node, nbr))
                stack.append((nbr, node))
    for parent, child in order:
        length = tree.length(parent, child)
        cum = np.stack(
            [np.cumsum(transition_prob(model, length, rate), axis=1) for rate in model.rates]
        )
        per_site = cum[cats, states[parent], :]
        u = rng.random(n_sites)
        drawn = (u[:, None] >= per_site).sum(axis=1)
        states[child] = np.minimum(drawn, model.n_states - 1)

    out = {}
    for node, name in tree.leaf_names.items():
        leaf_states = np.where(inv_mask, inv_states, states[node])
        out[name] = leaf_states
    return out


def simulate_matrix(
    fit: MlFit,
    template: CharacterMatrix,
    config: SimConfig = SimConfig(),
) -> CharacterMatrix:
    """Simulate a replicate of ``template`` under a fitted tree and model.

    The replicate has the template's taxa (same order) and, unless
    ``retain_gap_mask`` is off, its exact gap pattern and concept bounds.
    """
    tree, model = fit.tree, fit.model
    tree_taxa = set(tree.leaf_names.values())
    template_taxa = set(template.taxa)
    if tree_taxa != template_taxa:
        raise TaxaMismatchError(
            "fit and template name different taxa",
            missing=template_taxa - tree_taxa,
            extra=tree_taxa - template_taxa,
        )
    n_sites = config.n_sites if config.n_sites is not None else template.sites
    if config.retain_gap_mask and n_sites != template.sites:
        raise ValueError(
            "cannot retain the template gap mask with a different site count"
        )

    rng = np.random.default_rng(config.seed)
    leaf_states = simulate_sites(
        tree, model, n_sites, rng, p_inv=config.p_inv_override
    )
    symbols = np.array(model.alphabet, dtype="<U1")
    rows = np.empty((len(template.taxa), n_sites), dtype="<U1")
    for t, taxon in enumerate(template.taxa):
        rows[t] = symbols[leaf_states[taxon]]

    if config.retain_gap_mask:
        rows[template.gap_mask()] = GAP
        bounds = template.concept_bounds
    else:
        bounds = (("simulated", 0, n_sites),)
    return CharacterMatrix(taxa=template.taxa, cells=rows, concept_bounds=bounds)

