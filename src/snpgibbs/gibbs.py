"""Gibbs sampler: full-conditional draws, missing-SNP imputation, chain
management and posterior summaries.

The model is Y = X beta + Z gamma + eps with eps ~ N(0, sigma^2 R),
gamma ~ N(0, sigma^2 phi^2 I), flat prior on beta, and inverted-gamma
priors on sigma^2 and phi^2. One sweep draws each block from its full
conditional:

  beta    ~ N((X'R^-1 X)^-1 X'R^-1 (Y - Z gamma), sigma^2 (X'R^-1 X)^-1)
  gamma   ~ N(M^-1 Z'R^-1 (Y - X beta), sigma^2 M^-1),  M = Z'R^-1 Z + I/phi^2
  sigma^2 ~ InvGamma(n/2 + s/2 + a, [(Y-Xb-Zg)'R^-1(Y-Xb-Zg) + |g|^2/phi^2 + 2b]/2)
  phi^2   ~ InvGamma(s/2 + c, (|g|^2/sigma^2 + 2d)/2)

Missing genotypes are multiply imputed inside the chain: each sweep
re-draws one SNP column (cycling), each masked cell in turn from its
exact discrete conditional over the three genotype classes; under a
kinship R that conditional couples the cells through R^-1.

No block multiplies an n-sized residual by R^-1. ``DesignStatistics``, the
one owner of a completed design's Gram under R^-1, keeps W = [Z | X | Y],
R^-1 W and the cross-products W'R^-1 W, whose blocks are G = Z'R^-1 Z,
X'R^-1 Z, Z'R^-1 Y and X'R^-1 Y; when an imputation changes design column
c, that column's products are recomputed from v = R^-1 W[:, c] (exactly,
so nothing drifts). The Bayes-factor search walks its window through the
same class. ``ChainWorkspace``, which every block draw takes, holds the
chain's statistics, the sweep's buffers and what is fixed for the dataset:
R^-1, (X'R^-1 X)^-1 and Lx^-T, and per SNP column its design columns and
masked cells. The blocks read these:
the gamma right-hand side is Z'R^-1 Y - (X'R^-1 Z)' beta, the beta mean
(X'R^-1 X)^-1 (X'R^-1 Y - X'R^-1 Z gamma), and the residual
e = Y - X beta - Z gamma and its image R^-1 e are W and R^-1 W times
(-gamma, -beta, 1). Each gamma draw takes one Cholesky factorization: of
M = G + I/phi^2 bordered by its right-hand side, whose last row then holds
L^-1 of that right-hand side, so one back-substitution with L' gives the
mean and the noise together (the canonical-form sampler of Rue, JRSS-B
2001). A new phi^2 costs nothing extra.

The sigma^2 draw forms R^-1 e in full, into the workspace's ``image``
buffer. ``run_chain`` hands that image to the next imputation, which reads
its u = R^-1 e at the masked rows from it while gamma, beta and the design
are the ones the image was formed from; once an imputation changes the
design (a later column of an ``all`` sweep), and in a call given no
image, u is formed from R^-1 W at the masked rows instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .model import (
    GENOTYPE_CODES,
    Dataset,
    ImputationPrior,
    PriorHyperparams,
    snp_design_matrix,
)

__all__ = [
    "ChainNumericalError",
    "ParameterState",
    "GibbsConfig",
    "PosteriorSamples",
    "coefficient_names",
    "CredibleInterval",
    "ChainWorkspace",
    "DesignStatistics",
    "sample_beta",
    "sample_gamma",
    "sample_sigma2",
    "sample_phi2",
    "impute_snp_column",
    "initial_state",
    "run_chain",
    "hpd_interval",
    "autocorrelations",
    "batch_mean_stderr",
]

# width of the diagonal blocks in the gamma draw's back-substitution
GAMMA_BLOCK = 32

# how many SNP columns a sweep re-imputes: one in turn, every one, or none
IMPUTE_MODES = ("cycle", "all", "off")

# cell pairs per run of columns whose couplings ChainWorkspace gathers at
# once: bounds the run's index temporaries. On 100 columns of 600 rows with
# 20% masked (712,835 pairs) a gather of every column at once holds 26 MiB
# of them, runs of 1 << 16 pairs 2 MiB, in the same time or less.
COUPLING_CHUNK = 1 << 16

# draws an HPD interval needs
HPD_MIN_DRAWS = 100

# lags of every autocorrelation series: 1..ACF_MAX_LAG
ACF_MAX_LAG = 20


class ChainNumericalError(RuntimeError):
    """Numerical failure inside the chain; carries iteration and last state."""

    def __init__(self, message: str, iteration: int = -1, state=None):
        super().__init__(message)
        self.iteration = iteration
        self.state = state


@dataclass
class ParameterState:
    """One Gibbs state: coefficients, variances and the completed genotypes."""

    beta: np.ndarray
    gamma: np.ndarray
    sigma2: float
    phi2: float
    z_imputed: np.ndarray

    def __post_init__(self):
        if not self.sigma2 > 0 or not self.phi2 > 0:
            raise ValueError("sigma2 and phi2 must be positive")


@dataclass(frozen=True)
class GibbsConfig:
    """Chain length, retention and imputation settings.

    ``impute_mode`` selects how missing genotypes are refreshed per sweep:
    "cycle" re-draws one SNP column per iteration (the default), "all"
    re-draws every column, "off" disables imputation. The off/cycle paths
    are rng-identical when nothing is missing. Every mode draws from the
    exact genotype conditional under the dataset's kinship.
    """

    total_iterations: int = 50_000
    burn_in: int = 10_000
    thinning: int = 4
    seed: int = 0
    imputation_prior: ImputationPrior = field(default_factory=ImputationPrior)
    impute_mode: str = "cycle"

    def __post_init__(self):
        if self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        if not self.burn_in < self.total_iterations:
            raise ValueError("burn_in must be smaller than total_iterations")
        if self.thinning < 1:
            raise ValueError("thinning must be >= 1")
        if self.impute_mode not in IMPUTE_MODES:
            raise ValueError(f"unknown impute_mode {self.impute_mode!r}")

    @property
    def retained_count(self) -> int:
        return (self.total_iterations - self.burn_in) // self.thinning


@dataclass(frozen=True)
class CredibleInterval:
    lower: float
    upper: float
    level: float
    contains_zero: bool

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError("interval bounds out of order")
        if not 0 < self.level < 1:
            raise ValueError("level must lie in (0, 1)")


def coefficient_names(data: Dataset) -> tuple[str, ...]:
    """The columns of ``PosteriorSamples.draws``: beta, gamma, sigma2, phi2."""
    return (*data.design.names(), *data.gamma_labels(), "sigma2", "phi2")


@dataclass
class PosteriorSamples:
    """Thinned post-burn-in draws of the chain run on ``data``, in a samples
    file's layout: per retained state, a row of ``draws`` (read-only; its
    columns are ``coefficient_names``) and of ``masked_values``, the codes
    at the dataset's ``masked_cells``. ``betas``, ``gammas``, ``sigma2s``
    and ``phi2s`` are views of ``draws``' columns; ``state(i)``
    re-materializes the full ParameterState. A slice of rows,
    ``samples[-k:]``, is PosteriorSamples of views of both arrays.
    """

    data: Dataset
    draws: np.ndarray  # retained x (p + design_dim + 2), float64
    masked_values: np.ndarray  # retained x n_masked, int8

    def __post_init__(self):
        self.draws.flags.writeable = False

    @property
    def retained_count(self) -> int:
        return self.draws.shape[0]

    @property
    def betas(self) -> np.ndarray:
        return self.draws[:, : self.data.X.shape[1]]

    @property
    def gammas(self) -> np.ndarray:
        return self.draws[:, self.data.X.shape[1] : -2]

    @property
    def sigma2s(self) -> np.ndarray:
        return self.draws[:, -2]

    @property
    def phi2s(self) -> np.ndarray:
        return self.draws[:, -1]

    def __getitem__(self, rows: slice) -> "PosteriorSamples":
        if not isinstance(rows, slice):
            raise TypeError("select PosteriorSamples rows with a slice; state(i) gives one")
        return PosteriorSamples(self.data, self.draws[rows], self.masked_values[rows])

    def state(self, i: int) -> ParameterState:
        z = self.data.genotypes.codes.copy()
        z[self.data.genotypes.masked_cells] = self.masked_values[i]
        return ParameterState(
            self.betas[i].copy(),
            self.gammas[i].copy(),
            float(self.sigma2s[i]),
            float(self.phi2s[i]),
            z,
        )

    def coefficient_table(self) -> tuple[tuple, np.ndarray]:
        """The coefficient names and ``draws`` itself, one column each."""
        return coefficient_names(self.data), self.draws

    def summary(self, level: float = 0.95):
        """Per-coefficient mean and HPD interval rows."""
        names, draws = self.coefficient_table()
        return [(name, float(column.mean()), hpd_interval(column, level))
                for name, column in zip(names, draws.T)]


def _draw_inverse_gamma(rng: np.random.Generator, shape: float, scale: float) -> float:
    return float(scale / rng.gamma(shape))


class MaskedCells(NamedTuple):
    """One SNP column's design columns, masked rows and their block of R^-1."""

    design: slice  # the SNP's columns of the design
    rows: np.ndarray
    diag: list  # R^-1[rows[m], rows[m]] as Python floats
    later: list  # per cell k, (m, R^-1[rows[m], rows[k]]) for each m > k where it is non-zero


class DesignStatistics:
    """W = [Z | X | Y] for a completed design Z (a copy of ``design``),
    R^-1 W and the cross-products W'R^-1 W, kept exact as cells of the
    design are rewritten: the one owner of the completed design's Gram
    under R^-1, for the chain and for the Bayes-factor search alike.

    The views ``gram`` (G = Z'R^-1 Z), ``Xt_Rinv_Z``, ``Zt_Rinv_y`` and
    ``Xt_Rinv_y`` are blocks of the cross-products, ``design`` the first
    s columns of W, so R^-1 Z is those of R^-1 W. A caller writes cells
    of ``design`` in place and then calls ``refresh`` on the columns it
    changed.
    """

    def __init__(self, data: Dataset, Rinv: np.ndarray, design: np.ndarray):
        s, p = design.shape[1], data.X.shape[1]
        self.Rinv = Rinv
        self.W = np.column_stack([design, data.X, data.y])
        self.Rinv_W = Rinv @ self.W
        self.cross = self.W.T @ self.Rinv_W
        self.design = self.W[:, :s]
        self.gram = self.cross[:s, :s]
        self.Xt_Rinv_Z = self.cross[s : s + p, :s]
        self.Zt_Rinv_y = self.cross[:s, -1]
        self.Xt_Rinv_y = self.cross[s : s + p, -1]

    def refresh(self, cols) -> None:
        """Recompute every product of the design column ``cols`` (an index,
        a slice or an index array) from V = R^-1 W[:, cols]; nothing is
        updated incrementally, so nothing drifts."""
        V = self.Rinv @ self.W[:, cols]
        self.Rinv_W[:, cols] = V
        h = self.W.T @ V
        self.cross[:, cols] = h
        self.cross[cols, :] = h.T


class ChainWorkspace:
    """One chain's working set: R^-1, (X'R^-1X)^-1 and Lx^-T, the design
    values of the three genotype codes, per SNP column its design columns
    and masked cells with their couplings through R^-1, ``stats`` (the
    ``DesignStatistics`` of the chain's design, starting from ``design``)
    and the sweep's buffers: ``bordered``, the gamma draw's (s+1) x (s+1)
    work matrix, with views ``precision_diag`` (its leading block's
    diagonal) and ``rhs`` (its last row up to the corner); ``weights``
    (see ``residual_weights``); and ``image``, the residual image R^-1 e
    that ``sample_sigma2`` last formed."""

    def __init__(self, data: Dataset, design: np.ndarray):
        self.Rinv = data.Rinv
        XtRinvX = data.X.T @ (self.Rinv @ data.X)
        try:
            Lx = np.linalg.cholesky(XtRinvX)
        except np.linalg.LinAlgError as exc:
            raise ChainNumericalError(f"X'R^-1X factorization failed: {exc}") from exc
        self.Lx_inv_t = np.linalg.inv(Lx).T  # Lx^-T, with Lx Lx' = X'R^-1X
        self.XtRinvX_inv = self.Lx_inv_t @ self.Lx_inv_t.T
        self.code_values = values = data.coding.values
        # [new][old] genotype code index: offsets of a SNP's design columns
        # whose values differ between the two codes
        self.moved_columns = [
            [np.flatnonzero(a != b).tolist() for b in values] for a in values
        ]
        self.masked = self._masked_cells(data)
        self.stats = DesignStatistics(data, self.Rinv, design)
        s, p = design.shape[1], data.X.shape[1]
        self.bordered = np.empty((s + 1, s + 1))
        self.precision_diag = self.bordered.ravel()[: s * (s + 2) : s + 2]
        self.rhs = self.bordered[s, :s]
        self.weights = np.empty(s + p + 1)
        self.weights[-1] = 1.0
        self.image = np.empty(data.n)

    def _masked_cells(self, data: Dataset) -> list[MaskedCells]:
        """Every SNP column's ``MaskedCells``. The couplings are gathered for
        runs of whole columns at once, about COUPLING_CHUNK cell pairs each."""
        cols, rows = np.nonzero(data.genotypes.missing_mask.T)  # in column order
        bounds = np.searchsorted(cols, np.arange(data.s + 1))
        sizes = np.diff(bounds)
        # the columns where a new run starts, the last one's end
        runs = np.cumsum(sizes * (sizes - 1) // 2) // COUPLING_CHUNK
        edges = [0, *(np.flatnonzero(np.diff(runs)) + 1).tolist(), data.s]
        later: list = []
        for c0, c1 in zip(edges, edges[1:]):
            later += self._couplings(rows, bounds, c0, c1)
        diag = self.Rinv[rows, rows].tolist()
        per_snp, b = data.columns_per_snp, bounds.tolist()
        return [
            MaskedCells(slice(per_snp * j, per_snp * (j + 1)), rows[b[j] : b[j + 1]],
                        diag[b[j] : b[j + 1]], later[b[j] : b[j + 1]])
            for j in range(data.s)
        ]

    def _couplings(self, rows, bounds, c0: int, c1: int) -> list:
        """For each masked cell of columns c0..c1-1, the pairs (m, R^-1 at
        the rows of cell m and of the cell) for every later cell m of its
        column where that entry is not zero, m counted within the column."""
        lo, hi = bounds[c0], bounds[c1]
        sizes = np.diff(bounds[c0 : c1 + 1])
        start = np.repeat(bounds[c0:c1], sizes)  # the column start of each cell
        cell = np.arange(lo, hi)
        counts = np.repeat(bounds[c0 + 1 : c1 + 1], sizes) - cell - 1  # its later cells
        # every (cell, later cell) pair, the later ones cell + 1, cell + 2, ...
        first = np.repeat(cell, counts)
        later = first + 1 + np.arange(first.size) - np.repeat(np.cumsum(counts) - counts, counts)
        values = self.Rinv[rows[later], rows[first]]
        kept = np.flatnonzero(values)
        local = (later - np.repeat(start, counts))[kept]
        pairs = list(zip(local.tolist(), values[kept].tolist()))
        ends = np.cumsum(np.bincount(first[kept] - lo, minlength=hi - lo)).tolist()
        return [pairs[e0:e1] for e0, e1 in zip([0, *ends], ends)]

    def residual_weights(self, state: ParameterState) -> np.ndarray:
        """(-gamma, -beta, 1), written into ``weights``: W = [Z | X | Y]
        times it is the residual Y - X beta - Z gamma, R^-1 W times it the
        residual's image under R^-1."""
        w = self.weights
        s = state.gamma.shape[0]
        np.negative(state.gamma, out=w[:s])
        np.negative(state.beta, out=w[s:-1])
        return w


def sample_beta(
    state: ParameterState, rng: np.random.Generator, work: ChainWorkspace
) -> np.ndarray:
    """Draw beta from its Gaussian full conditional: the GLS mean
    (X'R^-1X)^-1 (X'R^-1 Y - X'R^-1 Z gamma) plus sigma Lx^-T z."""
    stats = work.stats
    mean = work.XtRinvX_inv @ (stats.Xt_Rinv_y - stats.Xt_Rinv_Z @ state.gamma)
    draw = work.Lx_inv_t @ rng.standard_normal(mean.shape[0])
    draw *= math.sqrt(state.sigma2)
    draw += mean
    return draw


def sample_gamma(
    state: ParameterState, rng: np.random.Generator, work: ChainWorkspace
) -> np.ndarray:
    """Draw gamma from N(M^-1 r, sigma^2 M^-1), M = G + I/phi^2,
    r = Z'R^-1 Y - (X'R^-1 Z)' beta.

    One lower Cholesky factorization of the bordered matrix
    [[M, r], [r', c]] gives M = LL' and, in its last row, w = L^-1 r.
    Back-substituting L' gamma = w + sigma z then yields the mean
    L^-T w = M^-1 r plus noise sigma L^-T z of covariance sigma^2 M^-1,
    with no second factorization.

    The corner is c = 2 phi^2 |r|^2 + 1. Since M >= I/phi^2,
    r'M^-1 r <= phi^2 |r|^2, so the corner's Schur complement
    c - r'M^-1 r is at least c/2: the factorization fails only when M
    itself is not positive definite (or a value is not finite), and then
    raises ``np.linalg.LinAlgError``.

    ``np.linalg.cholesky`` reads only the lower triangle, so r goes into
    the bordered matrix's last row alone; its last column above the
    corner is never written.
    """
    stats = work.stats
    s = stats.gram.shape[0]
    rhs = work.rhs
    work.bordered[:s, :s] = stats.gram
    work.precision_diag += 1.0 / state.phi2
    np.subtract(stats.Zt_Rinv_y, stats.Xt_Rinv_Z.T @ state.beta, out=rhs)
    work.bordered[s, s] = 2.0 * state.phi2 * float(rhs @ rhs) + 1.0
    F = np.linalg.cholesky(work.bordered)
    b = F[s, :s] + math.sqrt(state.sigma2) * rng.standard_normal(s)
    # L' gamma = b, last block first; each earlier block goes in front of
    # the solved tail gamma = gamma[j:]
    i = max(s - GAMMA_BLOCK, 0)
    gamma = np.linalg.solve(F[i:s, i:s].T, b[i:])
    for j in range(i, 0, -GAMMA_BLOCK):
        i = max(j - GAMMA_BLOCK, 0)
        head = np.linalg.solve(F[i:j, i:j].T, b[i:j] - gamma @ F[j:s, i:j])
        gamma = np.concatenate([head, gamma])
    return gamma


def sample_sigma2(
    state: ParameterState,
    data: Dataset,
    priors: PriorHyperparams,
    rng: np.random.Generator,
    work: ChainWorkspace,
) -> float:
    """Inverted-gamma draw for sigma^2 given all other blocks; the quadratic
    form is e . R^-1 e, e = Y - X beta - Z gamma, with R^-1 e formed from
    the statistics' R^-1 W into the workspace's ``image``, where it stays
    for the next imputation."""
    stats = work.stats
    weights = work.residual_weights(state)
    image = np.matmul(stats.Rinv_W, weights, out=work.image)
    quad = float((stats.W @ weights) @ image)
    s_dim = state.gamma.shape[0]
    shape = data.n / 2 + s_dim / 2 + priors.a
    scale = (quad + float(state.gamma @ state.gamma) / state.phi2 + 2 * priors.b) / 2
    return _draw_inverse_gamma(rng, shape, scale)


def sample_phi2(
    state: ParameterState, priors: PriorHyperparams, rng: np.random.Generator
) -> float:
    """Inverted-gamma draw for the coefficient-variance scale phi^2."""
    s_dim = state.gamma.shape[0]
    shape = s_dim / 2 + priors.c
    scale = (float(state.gamma @ state.gamma) / state.sigma2 + 2 * priors.d) / 2
    return _draw_inverse_gamma(rng, shape, scale)


def _residual_image_at(
    rows: np.ndarray,
    state: ParameterState,
    work: ChainWorkspace,
    image: Optional[np.ndarray],
) -> list:
    """u = R^-1 (Y - X beta - Z gamma) at ``rows``: read from ``image``
    when one is given, else formed from the statistics' R^-1 W there."""
    if image is None:
        return (work.stats.Rinv_W[rows] @ work.residual_weights(state)).tolist()
    return image[rows].tolist()


def impute_snp_column(
    state: ParameterState,
    data: Dataset,
    j: int,
    rng: np.random.Generator,
    prior: ImputationPrior,
    work: ChainWorkspace,
    image: Optional[np.ndarray] = None,
) -> list[int]:
    """Re-draw the masked cells of SNP column j; observed cells untouched.

    The cells are drawn in turn, each from its exact conditional given the
    others: with u = R^-1 (Y - X beta - Z gamma) at the masked rows and
    a(c) the contribution of code c, cell i weighs c by
    prior(c) * exp((2 a(c) t_i - a(c)^2 R^-1_ii) / (2 sigma^2)), where
    t_i = u_i + R^-1_ii a(old code) removes the cell's own term. When a
    cell changes, u moves at the later cells it is coupled to through R^-1
    (none under R = I). The rest is scalar work, with one uniform per cell
    taken from a single ``rng.random(k)``.

    u comes from ``image``, the full R^-1 e, when it is given: the caller
    passes it only while the state's beta, gamma and design are those it
    was formed from, as ``run_chain`` does with the image the last sigma^2
    draw left in the workspace. Without it, u is formed from the
    statistics' R^-1 W at the masked rows, at O(k (p + s)).

    Mutates ``state.z_imputed`` in place, writes the SNP's design columns
    at the masked rows into the workspace statistics' design, refreshes
    the statistics of every design column that changed and returns their
    indices (at most one for signed coding, two for additive + dominance
    coding); an unchanged column yields an empty list.
    """
    cells = work.masked[j]
    rows = cells.rows
    if rows.size == 0:
        return []
    snp = cells.design
    values = work.code_values
    cand = (values @ state.gamma[snp]).tolist()
    a0, a1, a2 = cand
    b0, b1, b2 = 2.0 * a0, 2.0 * a1, 2.0 * a2
    q0, q1, q2 = a0 * a0, a1 * a1, a2 * a2
    two_sigma2 = 2.0 * state.sigma2
    u = _residual_image_at(rows, state, work, image)
    old_picks = (state.z_imputed[rows, j] + 1).tolist()  # code index into cand
    picks = []
    # a uniform prior's log weights are all zero: adding them changes nothing
    logprior = None if prior.mode == "uniform" else prior.log_weights(rows, j).tolist()
    draws = zip(old_picks, cells.diag, cells.later, rng.random(rows.size).tolist())
    exp = math.exp
    for k, (old, r, later, x) in enumerate(draws):
        a_old = cand[old]
        t = u[k] + r * a_old  # residual image with cell k's term removed
        l0 = (b0 * t - q0 * r) / two_sigma2
        l1 = (b1 * t - q1 * r) / two_sigma2
        l2 = (b2 * t - q2 * r) / two_sigma2
        if logprior is not None:
            lp = logprior[k]
            l0 += lp[0]
            l1 += lp[1]
            l2 += lp[2]
        top = l1 if l1 > l0 else l0  # max(l0, l1, l2), without the call
        if l2 > top:
            top = l2
        e0, e1, e2 = exp(l0 - top), exp(l1 - top), exp(l2 - top)
        total = e0 + e1 + e2
        p0 = e0 / total
        pick = (p0 < x) + (p0 + e1 / total < x)  # cumulative bins below x
        picks.append(pick)
        step = cand[pick] - a_old
        if step != 0.0:
            for m, coupling in later:
                u[m] -= coupling * step

    if picks == old_picks:
        return []
    moved = work.moved_columns
    offsets = set()
    for new, old in zip(picks, old_picks):
        if new != old:
            offsets.update(moved[new][old])
    index = np.array(picks)
    state.z_imputed[rows, j] = GENOTYPE_CODES[index]
    work.stats.design[rows, snp] = values[index]
    changed = [snp.start + w for w in sorted(offsets)]
    work.stats.refresh(slice(changed[0], changed[-1] + 1))
    return changed


def initial_state(
    data: Dataset,
    config: GibbsConfig,
    rng: np.random.Generator,
) -> ParameterState:
    """Starting point: complete-case GLS fit for the coefficients (zeros on
    failure), sample phenotype variance for sigma^2, phi^2 = 1, and missing
    genotypes drawn from the imputation prior."""
    mask = data.genotypes.missing_mask
    z = data.genotypes.codes.copy()
    # every masked cell in column order, one uniform each
    cols, rows = np.nonzero(mask.T)
    if rows.size:
        logw = config.imputation_prior.log_weights(rows, cols)
        w = np.exp(logw - logw.max(axis=1, keepdims=True))
        w /= w.sum(axis=1, keepdims=True)
        u = rng.random(rows.size)
        idx = (w.cumsum(axis=1) < u[:, None]).sum(axis=1)
        z[rows, cols] = GENOTYPE_CODES[np.minimum(idx, 2)]

    Zd = snp_design_matrix(z, data.snp_coding)
    p, sd = data.X.shape[1], Zd.shape[1]
    beta = np.zeros(p)
    gamma = np.zeros(sd)
    complete = np.flatnonzero(~mask.any(axis=1))
    if complete.size >= p + sd:
        W = np.column_stack([data.X[complete], Zd[complete]])
        Rcc = data.R[np.ix_(complete, complete)]
        try:
            RinvW = np.linalg.solve(Rcc, W)
            coef = np.linalg.solve(W.T @ RinvW, RinvW.T @ data.y[complete])
            if np.isfinite(coef).all():
                beta, gamma = coef[:p].copy(), coef[p:].copy()
        except np.linalg.LinAlgError:
            pass
    sigma2 = float(np.var(data.y)) or 1.0
    return ParameterState(beta, gamma, sigma2, 1.0, z)


def run_chain(
    data: Dataset,
    priors: PriorHyperparams,
    config: GibbsConfig,
) -> PosteriorSamples:
    """Run one seeded Gibbs chain and return the thinned retained states.

    The chain's ``ChainWorkspace`` holds its one ``DesignStatistics``, the
    Gram walk the Bayes-factor search also uses: W = [Z | X | Y] for the
    chain's design Z, R^-1 W and the cross-products W'R^-1 W, whose blocks
    are G = Z'R^-1 Z, X'R^-1 Z, Z'R^-1 Y and X'R^-1 Y. Every block draw
    takes that workspace. Per iteration: re-draw
    missing genotypes for one SNP column (cycling j = t mod s) or for every
    column (``impute_mode="all"``), each imputation recomputing the
    statistics of the design columns it changed before the next column is
    drawn; then draw gamma (one Cholesky factorization of G + I/phi^2,
    bordered by Z'R^-1 Y - (X'R^-1 Z)' beta), beta, sigma^2, phi^2, each
    from the statistics rather than from an n-sized residual. The residual
    image R^-1 e that the sigma^2 draw forms is handed to the next
    imputation, until an imputation changes the design. A numerical
    failure raises ChainNumericalError carrying the iteration and the
    state. Fully deterministic for a given seed.
    """
    rng = np.random.default_rng(config.seed)
    state = initial_state(data, config, rng)
    work = ChainWorkspace(data, snp_design_matrix(state.z_imputed, data.snp_coding))
    cells = data.genotypes.masked_cells
    impute = cells[0].size > 0 and config.impute_mode != "off"
    prior = config.imputation_prior

    kept = config.retained_count
    p = data.X.shape[1]
    draws = np.empty((kept, p + data.design_dim + 2))
    masked_values = np.empty((kept, cells[0].size), dtype=np.int8)

    s, cycle, every = data.s, config.impute_mode == "cycle", range(data.s)
    thinning = config.thinning
    keep_at = config.burn_in + thinning - 1  # the next retained iteration
    keep_idx = 0
    # R^-1 e from the last sigma^2 draw while gamma, beta and the design
    # stand; None once an imputation has moved the design
    image = None
    for t in range(config.total_iterations):
        try:
            if impute:
                for j in (t % s,) if cycle else every:
                    if impute_snp_column(state, data, j, rng, prior, work, image):
                        image = None
            state.gamma = sample_gamma(state, rng, work)
            state.beta = sample_beta(state, rng, work)
            state.sigma2 = sample_sigma2(state, data, priors, rng, work)
            image = work.image
            state.phi2 = sample_phi2(state, priors, rng)
        except np.linalg.LinAlgError as exc:
            raise ChainNumericalError(
                f"numerical failure at iteration {t}: {exc}", t, state
            ) from exc

        if t == keep_at:
            keep_at += thinning
            row = draws[keep_idx]
            row[:p] = state.beta
            row[p:-2] = state.gamma
            row[-2:] = state.sigma2, state.phi2
            masked_values[keep_idx] = state.z_imputed[cells]
            keep_idx += 1

    return PosteriorSamples(data, draws, masked_values)


def hpd_interval(samples: np.ndarray, level: float = 0.95) -> CredibleInterval:
    """Shortest interval containing ``level`` posterior mass (sorted-window scan)."""
    draws = np.sort(np.asarray(samples, dtype=float))
    n = draws.shape[0]
    if n < HPD_MIN_DRAWS:
        raise ValueError(f"need at least {HPD_MIN_DRAWS} draws for an HPD interval, got {n}")
    if not 0 < level < 1:
        raise ValueError("level must lie in (0, 1)")
    m = int(np.ceil(level * n))
    m = min(max(m, 1), n)
    widths = draws[m - 1 :] - draws[: n - m + 1]
    k = int(np.argmin(widths))
    lower, upper = float(draws[k]), float(draws[k + m - 1])
    return CredibleInterval(lower, upper, level, contains_zero=lower <= 0.0 <= upper)


def autocorrelations(x: np.ndarray) -> np.ndarray:
    """Sample autocorrelations at lags 1..ACF_MAX_LAG of a series, or of each
    column of a 2-D ``x``, one row of lags per column; zeros for a constant
    series. Each lag of each column is one dot product of that column's
    centred series, in one batched ``np.matmul`` per lag, so a column's row
    is bit for bit what the column alone gives."""
    x = np.asarray(x, dtype=float)
    # a copy, one contiguous row per series
    series = np.array(x.T if x.ndim == 2 else x[None], order="C")
    for row in series:
        row -= row.mean()  # an axis mean of the 2-D array sums in another order
    rows, cols = series[:, None, :], series[:, :, None]
    denom = np.matmul(rows, cols)[:, 0]
    acf = np.empty((series.shape[0], ACF_MAX_LAG))
    for k in range(1, ACF_MAX_LAG + 1):
        acf[:, k - 1] = np.matmul(rows[..., k:], cols[:, :-k])[:, 0, 0]
    np.divide(acf, denom, out=acf, where=denom != 0.0)
    acf[denom[:, 0] == 0.0] = 0.0
    return acf if x.ndim == 2 else acf[0]


def batch_mean_stderr(x: np.ndarray, n_batches: int = 30) -> float:
    """Monte Carlo standard error of the mean via non-overlapping batch means."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    n_batches = max(2, min(n_batches, n))
    size = n // n_batches
    if size < 1:
        return float(x.std(ddof=1) / np.sqrt(n))
    means = x[: size * n_batches].reshape(n_batches, size).mean(axis=1)
    return float(means.std(ddof=1) / np.sqrt(n_batches))
