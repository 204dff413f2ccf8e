"""EM baseline: maximum-likelihood fit of the SNP regression under missing
genotypes, with an exact enumeration E-step for small missing patterns and
a Gibbs-scan Monte Carlo E-step beyond the enumeration cap.

The complete-data model here is Y_i = X_i beta + Z_i gamma + e_i with iid
N(0, sigma^2) errors; kinship is deliberately not part of this baseline.
Per individual, the missing genotypes have the discrete posterior

  P(Z_i^m = c) prop exp(-(Y_i - X_i beta - Z_i^o g^o - c g^m)^2 / (2 sigma^2))

over all genotype tuples c. The E-step collects the first two moments of
each individual's completed design row; the normaliser of this posterior
is the individual's observed log-likelihood term, so the same enumeration
yields the observed log likelihood. The M-step solves

  gamma = (Z'(I-H)Z + V)^{-1} Z'(I-H)Y,        H = X (X'X)^{-1} X',
  beta  = (X'X)^{-1} X'(Y - Z gamma),
  sigma^2 = (|Y - X beta - Z gamma|^2 + gamma' V gamma) / n,

with Z the expected completed design and V the summed within-individual
covariance. These are the exact maximizers of the expected complete-data
log likelihood
  -(n/2) log sigma^2 - (|Y - X beta - Z gamma|^2 + gamma' V gamma) / (2 sigma^2),
which is what guarantees the observed log likelihood never decreases.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .model import GENOTYPE_CODES, Dataset, snp_design_matrix

logger = logging.getLogger(__name__)

__all__ = [
    "EnumerationCapError",
    "MissingPattern",
    "EmConfig",
    "EmState",
    "e_step",
    "m_step",
    "observed_loglik",
    "run_em",
]

GENOTYPE_ARITY = 3
DEFAULT_ENUMERATION_CAP = GENOTYPE_ARITY**6  # 729 tuples per individual


class EnumerationCapError(RuntimeError):
    """Exact enumeration would exceed the configured cap for an individual."""


@dataclass(frozen=True)
class MissingPattern:
    """Missing SNP indices per individual, with enumeration bookkeeping."""

    missing_indices: tuple[tuple[int, ...], ...]
    arity: int = GENOTYPE_ARITY

    @classmethod
    def from_dataset(cls, data: Dataset) -> "MissingPattern":
        mask = data.genotypes.missing_mask
        return cls(tuple(tuple(np.flatnonzero(mask[i])) for i in range(data.n)))

    def k(self, i: int) -> int:
        return len(self.missing_indices[i])

    def enumeration_size(self, i: int) -> int:
        return self.arity ** self.k(i)

    def individuals_with_missing(self) -> tuple[int, ...]:
        return tuple(i for i, idx in enumerate(self.missing_indices) if idx)


@dataclass(frozen=True)
class EmConfig:
    tol: float = 1e-8
    max_iterations: int = 500
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP
    mc_samples: int = 400
    mc_burn_in: int = 50
    seed: int = 0

    def __post_init__(self):
        if not math.isfinite(self.tol) or self.tol < 0:
            raise ValueError(f"EM tol must be a finite number at least 0, got {self.tol}")
        for name, low in (
            ("max_iterations", 1), ("enumeration_cap", 1), ("mc_samples", 1), ("mc_burn_in", 0)
        ):
            if getattr(self, name) < low:
                raise ValueError(f"EM {name} must be at least {low}, got {getattr(self, name)}")


@dataclass
class EmState:
    """Current EM parameters."""

    beta: np.ndarray
    gamma: np.ndarray
    sigma2: float

    def params_vector(self) -> np.ndarray:
        return np.concatenate([self.beta, self.gamma, [self.sigma2]])


@dataclass
class EmRunLog:
    iterations: int = 0
    converged: bool = False
    exact_regime: bool = True
    history: list = field(default_factory=list)  # (iteration, loglik or nan, max delta)


def _genotype_tuples(k: int) -> np.ndarray:
    """All genotype code tuples of length k, shape (3^k, k), the last SNP
    varying fastest."""
    index = np.indices((GENOTYPE_ARITY,) * k).reshape(k, GENOTYPE_ARITY**k)
    return GENOTYPE_CODES.astype(float)[index.T]


def _max_exact_k(cap: int) -> int:
    """The largest missing count whose 3^k completions fit under the cap
    (-1 when not even a complete individual's one completion does)."""
    k = -1
    while GENOTYPE_ARITY ** (k + 1) <= cap:
        k += 1
    return k


def _observed(state: EmState, data: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Z0, the SNP design with every design column of a masked cell zeroed,
    and every individual's residual y - X beta - Z0 gamma."""
    design = snp_design_matrix(data.genotypes.codes, data.snp_coding)
    design[np.repeat(data.genotypes.missing_mask, data.columns_per_snp, axis=1)] = 0.0
    return design, data.y - data.X @ state.beta - design @ state.gamma


def _missing_design_cols(data: Dataset, missing: tuple[int, ...]) -> list[int]:
    cols: list[int] = []
    for j in missing:
        cols.extend(data.design_columns_of_snp(int(j)))
    return cols


def _missing_groups(mask: np.ndarray, k_max: int):
    """The individuals with 1 to k_max missing SNPs, grouped by that count:
    yields (members, missing) with missing the (m, k) SNP indices of each
    member in index order."""
    counts = mask.sum(axis=1)
    # not np.unique, whose hash path (numpy 2.4) adds 1.5 MiB of peak RSS when first run
    for k in sorted(set(counts[(counts > 0) & (counts <= k_max)].tolist())):
        members = np.flatnonzero(counts == k)
        yield members, np.nonzero(mask[members])[1].reshape(members.size, k)


def _enumerate(
    state: EmState, data: Dataset, residual: np.ndarray, members: np.ndarray,
    missing: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Exact completion moments of m individuals sharing a missing count k.

    ``missing`` holds each member's k missing SNPs in index order. Every
    member's 3^k completions share one table of design rows; completion c
    of member i is weighted by exp(-(r_i - gamma_i . row_c)^2 / (2 sigma^2))
    with gamma_i the member's missing-column effects. Returns the (m, k d)
    missing design columns, the (m, 3^k) completion probabilities, the
    (m, k d) means, the (m, k d, k d) covariances and the log normalisers:
    each member's observed log-likelihood term less the Gaussian constant.
    """
    m, k = missing.shape
    rows = snp_design_matrix(_genotype_tuples(k), data.snp_coding)  # (3^k, k d)
    per_snp = data.columns_per_snp
    cols = (per_snp * missing[:, :, None] + np.arange(per_snp)).reshape(m, -1)
    fit = state.gamma[cols] @ rows.T
    logw = -((residual[members, None] - fit) ** 2) / (2.0 * state.sigma2)
    top = logw.max(axis=1)
    w = np.exp(logw - top[:, None])
    total = w.sum(axis=1)
    probs = w / total[:, None]
    means = probs @ rows
    outer = (rows[:, :, None] * rows[:, None, :]).reshape(rows.shape[0], -1)
    covs = (probs @ outer).reshape(m, cols.shape[1], cols.shape[1])
    covs -= means[:, :, None] * means[:, None, :]
    return cols, probs, means, covs, top + np.log(total)


def _moments_mc(state, data, base, i, config, rng):
    """Gibbs-scan Monte Carlo moments of the missing design entries.

    ``base`` is individual i's residual without its missing cells. Each
    cell's three candidate contributions are Python floats and the scan
    carries the sum of the current ones, so one cell costs O(1); the sum
    is recomputed at the start of every sweep, so rounding cannot build
    up. One uniform per cell, drawn a sweep at a time.
    """
    missing = tuple(np.flatnonzero(data.genotypes.missing_mask[i]))
    k = len(missing)
    gam = state.gamma[_missing_design_cols(data, missing)]
    values = data.coding.values  # (3, per_snp)
    per_snp = data.columns_per_snp
    cand = [(values @ gam[t * per_snp : (t + 1) * per_snp]).tolist() for t in range(k)]
    two_sigma2 = 2.0 * state.sigma2
    picks = [1] * k  # index into GENOTYPE_CODES of each missing SNP: code 0
    kept = np.empty((config.mc_samples, k), dtype=np.intp)
    for sweep in range(config.mc_burn_in + config.mc_samples):
        total = sum(a[pick] for a, pick in zip(cand, picks))
        for t, x in enumerate(rng.random(k).tolist()):
            a = cand[t]
            r = base - (total - a[picks[t]])  # less the other cells' contributions
            d0, d1, d2 = r - a[0], r - a[1], r - a[2]
            l0 = -(d0 * d0) / two_sigma2
            l1 = -(d1 * d1) / two_sigma2
            l2 = -(d2 * d2) / two_sigma2
            top = max(l0, l1, l2)
            e0, e1, e2 = math.exp(l0 - top), math.exp(l1 - top), math.exp(l2 - top)
            norm = e0 + e1 + e2
            p0 = e0 / norm
            pick = (p0 < x) + (p0 + e1 / norm < x)  # cumulative bins below x
            total += a[pick] - a[picks[t]]
            picks[t] = pick
        if sweep >= config.mc_burn_in:
            kept[sweep - config.mc_burn_in] = picks
    samples = values[kept].reshape(config.mc_samples, k * per_snp)
    mean = samples.mean(axis=0)
    centered = samples - mean
    cov = centered.T @ centered / max(config.mc_samples - 1, 1)
    return mean, cov


def e_step(
    state: EmState,
    data: Dataset,
    config: Optional[EmConfig] = None,
    rng: Optional[np.random.Generator] = None,
) -> tuple[np.ndarray, np.ndarray, bool, float]:
    """Expected completed design, summed covariance and observed log likelihood.

    Uses exact enumeration whenever an individual's completion count fits
    under the cap, one pass for all individuals that share a missing
    count, otherwise a per-individual Gibbs-scan Monte Carlo estimate.
    The normaliser of each enumeration is that individual's
    log-likelihood term, so the same pass yields the observed log
    likelihood at ``state``. Returns (the expected design, the summed
    covariance V, exact_everywhere, loglik); loglik is nan unless
    exact_everywhere.
    """
    config = config or EmConfig()
    expected, residual = _observed(state, data)
    dim = expected.shape[1]
    V = np.zeros((dim, dim))
    # a complete individual's one (empty) completion
    terms = -(residual**2) / (2.0 * state.sigma2)
    mask = data.genotypes.missing_mask
    k_max = _max_exact_k(config.enumeration_cap)
    for members, missing in _missing_groups(mask, k_max):
        cols, _, means, covs, terms[members] = _enumerate(
            state, data, residual, members, missing
        )
        expected[members[:, None], cols] = means
        np.add.at(V, (cols[:, :, None], cols[:, None, :]), covs)
    # beyond the cap, one Monte Carlo scan per individual in index order
    wide = np.flatnonzero(mask.sum(axis=1) > k_max)
    if wide.size and rng is None:
        rng = np.random.default_rng(config.seed)
    for i in wide:
        cols = _missing_design_cols(data, tuple(np.flatnonzero(mask[i])))
        mean, cov = _moments_mc(state, data, residual[i], i, config, rng)
        expected[i, cols] = mean
        V[np.ix_(cols, cols)] += cov
    exact_everywhere = wide.size == 0
    loglik = float("nan")
    if exact_everywhere:
        loglik = float(-0.5 * data.n * np.log(2.0 * np.pi * state.sigma2) + terms.sum())
    return expected, V, exact_everywhere, loglik


def m_step(
    Z: np.ndarray, V: np.ndarray, data: Dataset
) -> tuple[np.ndarray, np.ndarray, float]:
    """Closed-form maximizers of the expected complete-data log likelihood."""
    X, y = data.X, data.y
    n = y.shape[0]
    XtX = X.T @ X
    Hy = X @ np.linalg.solve(XtX, X.T @ y)
    HZ = X @ np.linalg.solve(XtX, X.T @ Z)
    ZtIH = Z.T @ (Z - HZ)  # Z'(I-H)Z
    lhs = ZtIH + V
    rhs = Z.T @ (y - Hy)
    try:
        gamma = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError:
        logger.warning("singular M-step system; applying diagonal jitter 1e-8")
        gamma = np.linalg.solve(lhs + 1e-8 * np.eye(lhs.shape[0]), rhs)
    beta = np.linalg.solve(XtX, X.T @ (y - Z @ gamma))
    resid = y - X @ beta - Z @ gamma
    sigma2 = (float(resid @ resid) + float(gamma @ V @ gamma)) / n
    return beta, gamma, float(sigma2)


def observed_loglik(
    state: EmState, data: Dataset, cap: int = DEFAULT_ENUMERATION_CAP
) -> float:
    """Observed-data log likelihood, summing each individual's completions.

    Only available in the exact-enumeration regime: the E-step's log
    likelihood at ``state``, each individual's sum taken by log-sum-exp.
    """
    counts = data.genotypes.missing_mask.sum(axis=1)
    over = np.flatnonzero(counts > _max_exact_k(cap))
    if over.size:
        i, k = int(over[0]), int(counts[over[0]])
        raise EnumerationCapError(
            f"individual {i} has {k} missing SNPs ({GENOTYPE_ARITY**k} completions > cap {cap})"
        )
    return e_step(state, data, EmConfig(enumeration_cap=cap))[3]


def run_em(data: Dataset, config: Optional[EmConfig] = None) -> tuple[EmState, EmRunLog]:
    """Iterate E and M steps to convergence (relative parameter change).

    In the exact regime each iteration's observed log likelihood comes from
    the E-step at its estimate, which also gives the next iteration's
    moments; non-convergence at the iteration cap returns the best state
    with the log flagged unconverged.
    """
    config = config or EmConfig()
    rng = np.random.default_rng(config.seed)

    X, y = data.X, data.y
    beta = np.linalg.solve(X.T @ X, X.T @ y)
    resid = y - X @ beta
    sigma2 = float(resid @ resid) / max(data.n, 1) or 1.0
    state = EmState(beta, np.zeros(data.design_dim), sigma2)

    log = EmRunLog()
    expected, V, log.exact_regime, loglik = e_step(state, data, config, rng)
    previous = state.params_vector()
    for it in range(1, config.max_iterations + 1):
        beta, gamma, sigma2 = m_step(expected, V, data)
        # an exactly zero variance (perfect fit) would break the next E-step
        state = EmState(beta, gamma, max(sigma2, 1e-300))
        current = state.params_vector()
        # relative to the larger of the two, so a parameter leaving zero
        # (gamma starts there) reads 1, not 1e12
        scale = np.maximum(np.abs(previous), np.abs(current)) + 1e-12
        delta = float(np.max(np.abs(current - previous) / scale))
        log.converged = delta < config.tol
        last = log.converged or it == config.max_iterations
        # E(theta_t) gives the next moments and, when exact, l(theta_t);
        # outside the exact regime the last one would only be thrown away
        if log.exact_regime or not last:
            expected, V, _, loglik = e_step(state, data, config, rng)
        log.history.append((it, loglik, delta))
        log.iterations = it
        previous = current
        if last:
            break
    if not log.converged:
        logger.warning("EM did not converge in %d iterations", config.max_iterations)
    return state, log
