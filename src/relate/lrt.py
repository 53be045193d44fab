"""Likelihood-ratio test of relatedness with a parametric bootstrap null.

The null model fixes a small proportion of invariant sites, the alternative
a larger one; more invariant mass is what shared vertical signal looks like
under this site mixture. Because the regularity conditions behind the usual
chi-square calibration do not hold, the observed statistic is compared
against replicates simulated from the fitted null model: each of ``k``
paired runs searches both models on the data and on one fresh replicate,
and a one-sided paired t-test asks whether the observed statistic exceeds
its parametric-bootstrap counterpart.

The data fits are deterministic and reused between runs whose starting trees
are equal, so the observed statistic is the same in all ``k`` runs unless
neighbor joining breaks ties differently; only the replicates vary.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .bootsim import SimConfig, simulate_matrix
from .errors import InsufficientDataError, RelateError
from .mlsearch import MlFit, SearchConfig, init_tree, ml_tree
from .msa import CharacterMatrix
from .phylik import write_newick
from .submodel import build_model

logger = logging.getLogger(__name__)

RELATED = "RELATED"
NOT_SUPPORTED = "NOT_SUPPORTED"

#: Seed offset between paired runs; any fixed stride works, a large prime
#: keeps run seeds visibly distinct in reports.
RUN_SEED_STRIDE = 10007


@dataclass(frozen=True)
class LrtConfig:
    """Proportions under test, number of paired runs, rejection level, and
    the seed from which each run's search and replicate seeds derive; every
    fit is one search from one neighbor-joining start."""

    p_inv_null: float = 0.01
    p_inv_alt: float = 0.06
    k: int = 15
    alpha: float = 0.05
    seed: int = 42

    def __post_init__(self):
        if not 0.0 <= self.p_inv_null < self.p_inv_alt < 1.0:
            raise ValueError(
                "need 0 <= p_inv_null < p_inv_alt < 1, got "
                f"{self.p_inv_null} and {self.p_inv_alt}"
            )
        if self.k < 2:
            raise ValueError("need at least 2 paired runs for the t-test")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")


def lrt_statistic(fit_alt: MlFit, fit_null: MlFit) -> float:
    """Twice the log-likelihood gap between alternative and null fits."""
    return 2.0 * (fit_alt.log_likelihood - fit_null.log_likelihood)


def paired_t_test(observed, null) -> tuple[float, float]:
    """One-sided paired t-test of observed minus null being positive.

    Returns (t, p) with p from the Student-t survival function at k - 1
    degrees of freedom. A zero-variance difference vector degenerates to
    p = 0, 0.5 or 1 by the sign of the mean.
    """
    observed = np.asarray(observed, dtype=float)
    null = np.asarray(null, dtype=float)
    if observed.shape != null.shape or observed.ndim != 1:
        raise ValueError("observed and null must be equal-length vectors")
    k = observed.size
    if k < 2:
        raise InsufficientDataError("paired t-test needs at least 2 pairs")
    diffs = observed - null
    mean = float(diffs.mean())
    sd = float(diffs.std(ddof=1))
    if sd == 0.0:
        if mean > 0:
            return float("inf"), 0.0
        if mean < 0:
            return float("-inf"), 1.0
        return 0.0, 0.5
    t = mean / (sd / np.sqrt(k))
    # The Student-t upper tail exactly as scipy.stats.t.sf computes it,
    # without importing scipy.stats; scipy.special is imported only here.
    from scipy.special import stdtr

    return float(t), float(stdtr(k - 1, -t))


@dataclass(frozen=True)
class LrtRun:
    """One paired run: fits on the data, the statistic of its replicate, and
    whether all four fits (both proportions on data and replicate) converged."""

    index: int
    seed: int
    delta_observed: float
    delta_null: float
    fit_null: MlFit
    fit_alt: MlFit
    converged: bool

    def to_dict(self) -> dict:
        return {
            "j": self.index,
            "seed": self.seed,
            "delta_obs": self.delta_observed,
            "delta_null": self.delta_null,
            "tree_null": write_newick(self.fit_null.tree),
            "tree_alt": write_newick(self.fit_alt.tree),
            "log_likelihood_null": self.fit_null.log_likelihood,
            "log_likelihood_alt": self.fit_alt.log_likelihood,
            "converged": self.converged,
        }


@dataclass(frozen=True)
class LrtReport:
    """Everything the test produced, ready for serialization."""

    config: LrtConfig
    runs: tuple[LrtRun, ...]
    t_statistic: float
    p_value: float
    decision: str

    @property
    def delta_observed(self) -> tuple[float, ...]:
        return tuple(run.delta_observed for run in self.runs)

    @property
    def delta_null(self) -> tuple[float, ...]:
        return tuple(run.delta_null for run in self.runs)

    @property
    def mean_delta_observed(self) -> float:
        return float(np.mean(self.delta_observed))

    def to_dict(self) -> dict:
        return {
            "config": {
                "p0": self.config.p_inv_null,
                "pa": self.config.p_inv_alt,
                "k": self.config.k,
                "alpha": self.config.alpha,
                "seed": self.config.seed,
            },
            "runs": [run.to_dict() for run in self.runs],
            "mean_delta_obs": self.mean_delta_observed,
            "mean_delta_null": float(np.mean(self.delta_null)),
            "t": self.t_statistic,
            "p": self.p_value,
            "decision": self.decision,
        }


def run_lrt(
    matrix: CharacterMatrix,
    config: LrtConfig = LrtConfig(),
    alphabet=None,
) -> LrtReport:
    """Run the full paired-bootstrap likelihood-ratio test.

    Run j reseeds the search with ``seed + j * RUN_SEED_STRIDE``, fits both
    proportions to the data (taking an earlier run's fits when its
    neighbor-joining start is the same, as the seed then changes
    nothing), simulates one replicate from the fitted null
    (keeping the data's gap pattern), fits both proportions to it, and
    records both statistics. The decision is RELATED when the one-sided
    paired t-test rejects at ``alpha`` and the mean observed statistic is
    positive; a significant result with a negative mean means the data
    carry less invariant signal than the null, not more.
    """
    if len(matrix.taxa) < 3:
        raise InsufficientDataError("the test needs at least 3 taxa")
    # Start trees depend on the frequencies only, not on p_inv.
    freq_model = build_model(matrix, alphabet=alphabet)
    # Starts with equal node ids and lengths make identical searches; their
    # leaf names are always matrix.taxa.
    data_fits: list[tuple[dict, tuple[MlFit, MlFit]]] = []
    runs = []
    for j in range(1, config.k + 1):
        seed_j = config.seed + j * RUN_SEED_STRIDE
        search_j = SearchConfig(seed=seed_j)
        try:
            start = init_tree(matrix, freq_model, seed_j).adjacency
            earlier = next((fits for tree, fits in data_fits if tree == start), None)
            if earlier is not None:
                fit_null, fit_alt = (replace(fit, tree=fit.tree.copy()) for fit in earlier)
            else:
                fit_null = ml_tree(matrix, config.p_inv_null, search_j, alphabet=alphabet)
                fit_alt = ml_tree(matrix, config.p_inv_alt, search_j, alphabet=alphabet)
                data_fits.append((start, (fit_null, fit_alt)))
            delta_observed = lrt_statistic(fit_alt, fit_null)

            replicate = simulate_matrix(fit_null, matrix, SimConfig(seed=seed_j))
            rep_null = ml_tree(replicate, config.p_inv_null, search_j, alphabet=alphabet)
            rep_alt = ml_tree(replicate, config.p_inv_alt, search_j, alphabet=alphabet)
            delta_null = lrt_statistic(rep_alt, rep_null)
        except RelateError:
            logger.error("LRT run %d of %d failed", j, config.k)
            raise
        logger.debug(
            "run %d: delta_obs=%.4f delta_null=%.4f", j, delta_observed, delta_null
        )
        runs.append(
            LrtRun(
                index=j,
                seed=seed_j,
                delta_observed=delta_observed,
                delta_null=delta_null,
                fit_null=fit_null,
                fit_alt=fit_alt,
                converged=all(f.converged for f in (fit_null, fit_alt, rep_null, rep_alt)),
            )
        )

    observed = [run.delta_observed for run in runs]
    null = [run.delta_null for run in runs]
    t, p = paired_t_test(observed, null)
    decision = RELATED if (p < config.alpha and np.mean(observed) > 0) else NOT_SUPPORTED
    return LrtReport(
        config=config,
        runs=tuple(runs),
        t_statistic=t,
        p_value=p,
        decision=decision,
    )
