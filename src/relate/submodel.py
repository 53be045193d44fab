"""Equal-rates substitution process over the class alphabet.

Exchange into state j happens at rate mu * pi_j regardless of the current
state, so the chain is reversible with stationary distribution pi and the
transition matrix has the closed form

    p_ij(t) = pi_j + (delta_ij - pi_j) * exp(-mu * r * t),

where r is a per-site rate multiplier. mu = 1 / (1 - sum pi_i^2) normalizes
the expected substitution rate at stationarity to one per unit branch
length. A proportion ``p_inv`` of sites never changes, and the variable
sites may draw r from a discretized gamma with ``n_rate_cats`` equally
probable categories (each category's multiplier is the mean of its gamma
quantile bin).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np
from scipy.special import gammainc, gammaincinv

from .errors import SchemaError
from .msa import CharacterMatrix
from .soundclass import GAP

#: Frequencies are validated to sum to one within this tolerance.
FREQ_TOL = 1e-12

#: Added to every state's count when estimating frequencies, so a state the
#: data never show keeps a positive frequency.
PSEUDOCOUNT = 0.5


def gamma_categories(shape: float, n_cats: int) -> tuple[float, ...]:
    """Mean rate multiplier of each of ``n_cats`` equal-probability bins
    of a gamma distribution with unit mean and the given shape.

    Bin means use the identity E[X; X in (a, b)] = F_{shape+1}(b) -
    F_{shape+1}(a) for a unit-mean gamma, then the multipliers are
    renormalized so they average to one exactly.
    """
    if shape <= 0:
        raise ValueError(f"gamma shape must be positive, got {shape}")
    if n_cats < 1:
        raise ValueError(f"need at least one rate category, got {n_cats}")
    if n_cats == 1:
        return (1.0,)
    # Quantiles and bin masses of Gamma(shape, scale=1/shape) from the
    # regularized incomplete gamma functions, with the scale applied as
    # scipy.stats.gamma applies it, so the rates equal its to the last bit
    # without importing scipy.stats.
    scale = 1.0 / shape
    probs = np.arange(1, n_cats) / n_cats
    cuts = gammaincinv(shape, probs) * scale
    edges = np.concatenate(([0.0], cuts, [np.inf]))
    upper = gammainc(shape + 1, edges[1:] / scale)
    lower = gammainc(shape + 1, edges[:-1] / scale)
    rates = n_cats * (upper - lower)
    rates /= rates.mean()
    return tuple(float(r) for r in rates)


@dataclass(frozen=True)
class SubstitutionModel:
    """Frozen parameter bundle: alphabet, frequencies, and rate structure."""

    alphabet: tuple[str, ...]
    freqs: np.ndarray
    mu: float
    p_inv: float = 0.0
    gamma_shape: float | None = None
    n_rate_cats: int = 1
    rates: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        freqs = np.asarray(self.freqs, dtype=float).copy()
        freqs.setflags(write=False)
        object.__setattr__(self, "freqs", freqs)
        if len(self.alphabet) < 2:
            raise SchemaError("alphabet must have at least 2 states")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise SchemaError("alphabet states must be distinct")
        if GAP in self.alphabet:
            raise SchemaError("the gap symbol is not a state")
        if freqs.shape != (len(self.alphabet),):
            raise SchemaError("one frequency per state required")
        if np.any(freqs <= 0):
            raise ValueError("all stationary frequencies must be positive")
        if abs(freqs.sum() - 1.0) > FREQ_TOL:
            raise ValueError(f"frequencies sum to {freqs.sum()!r}, not 1")
        expected_mu = 1.0 / (1.0 - float(freqs @ freqs))
        if not np.isclose(self.mu, expected_mu, rtol=1e-9, atol=0.0):
            raise ValueError(f"mu must be {expected_mu!r} for these frequencies")
        if not 0.0 <= self.p_inv < 1.0:
            raise ValueError(f"p_inv must lie in [0, 1), got {self.p_inv}")
        if self.gamma_shape is None:
            if self.n_rate_cats != 1:
                raise ValueError("rate categories require a gamma shape")
            rates = (1.0,)
        else:
            rates = gamma_categories(self.gamma_shape, self.n_rate_cats)
        object.__setattr__(self, "rates", rates)

    @property
    def n_states(self) -> int:
        return len(self.alphabet)

    def with_p_inv(self, p_inv: float) -> "SubstitutionModel":
        return replace(self, p_inv=p_inv)

    def with_gamma(self, shape: float | None, n_cats: int) -> "SubstitutionModel":
        return replace(self, gamma_shape=shape, n_rate_cats=n_cats)

    def to_dict(self) -> dict:
        return {
            "alphabet": list(self.alphabet),
            "freqs": [float(f) for f in self.freqs],
            "mu": self.mu,
            "p_inv": self.p_inv,
            "gamma_shape": self.gamma_shape,
            "n_rate_cats": self.n_rate_cats,
            "rates": list(self.rates),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SubstitutionModel":
        try:
            return cls(
                alphabet=tuple(payload["alphabet"]),
                freqs=np.asarray(payload["freqs"], dtype=float),
                mu=float(payload["mu"]),
                p_inv=float(payload["p_inv"]),
                gamma_shape=(
                    None if payload.get("gamma_shape") is None
                    else float(payload["gamma_shape"])
                ),
                n_rate_cats=int(payload.get("n_rate_cats", 1)),
            )
        except KeyError as exc:
            raise SchemaError(f"model payload lacks {exc}") from exc


def build_model(
    matrix: CharacterMatrix,
    p_inv: float = 0.0,
    gamma_shape: float | None = None,
    n_rate_cats: int = 1,
    alphabet: Sequence[str] | None = None,
) -> SubstitutionModel:
    """Estimate stationary frequencies from a matrix and assemble a model.

    Frequencies are smoothed symbol counts over the non-gap cells:
    (count + PSEUDOCOUNT) / (total + n_states * PSEUDOCOUNT). ``alphabet``
    defaults to the symbols observed in the matrix, sorted; pass the full
    class alphabet explicitly when unobserved classes must stay in the
    state space.
    """
    observed = sorted(str(s) for s in set(matrix.cells.ravel()) - {GAP})
    if alphabet is None:
        states = tuple(observed)
    else:
        states = tuple(str(s) for s in alphabet)
        stray = set(observed) - set(states)
        if stray:
            raise ValueError(f"matrix contains symbols outside the alphabet: {sorted(stray)}")
    if len(states) < 2:
        raise SchemaError("need at least 2 states; supply a larger alphabet")

    flat = matrix.cells.ravel()
    counts = np.array([np.count_nonzero(flat == s) for s in states], dtype=float)
    total = counts.sum() + PSEUDOCOUNT * len(states)
    freqs = (counts + PSEUDOCOUNT) / total
    freqs /= freqs.sum()
    mu = 1.0 / (1.0 - float(freqs @ freqs))
    return SubstitutionModel(
        alphabet=states,
        freqs=freqs,
        mu=mu,
        p_inv=p_inv,
        gamma_shape=gamma_shape,
        n_rate_cats=n_rate_cats,
    )


def transition_prob(model: SubstitutionModel, t: float, rate: float = 1.0) -> np.ndarray:
    """Transition matrix over a branch of length ``t`` at rate multiplier
    ``rate``, in closed form."""
    if t < 0:
        raise ValueError(f"branch length must be non-negative, got {t}")
    if rate < 0:
        raise ValueError(f"rate multiplier must be non-negative, got {rate}")
    decay = float(np.exp(-model.mu * rate * t))
    p = (1.0 - decay) * np.tile(model.freqs, (model.n_states, 1))
    p[np.diag_indices(model.n_states)] += decay
    return p
