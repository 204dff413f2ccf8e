"""Model selection: Bayes-factor estimation against the full model and a
Metropolis-Hastings stochastic search over inclusion vectors.

A model is an inclusion vector delta over the SNP-effect coefficients; the
reduced model keeps Y = X beta + Z_delta gamma_delta + eps, with
eps ~ N(0, sigma^2 R). Each candidate is scored by its Bayes factor against
the full model, estimated from posterior draws of the full model as a
sample average of per-state terms

  (phi^2)^{dc/2} |Z_c' R^-1 Z_c|^{1/2}
      * exp( |gamma_c|^2 / (2 sigma^2 phi^2) - C' P_c C / (2 sigma^2) ),

where the subscript c marks the excluded columns, C = Y - X beta -
Z_d gamma_d, and P_c = R^-1 Z_c (Z_c'R^-1Z_c)^-1 Z_c'R^-1 is the
R^-1-weighted projection onto the excluded-column span. The term is the
prior ratio of reduced to full model times the bridge weight
g(theta) = (2 pi sigma^2)^{-dc/2} |Z_c'R^-1Z_c|^{1/2} exp(-C'P_c C/(2 sigma^2)),
whose integral over the excluded coefficients reproduces the reduced-model
likelihood; averaging it over full-model posterior draws is strongly
consistent for the Bayes factor. Everything accumulates in log space.

A search reads the last ``min_samples_per_bf`` rows of the posterior's
arrays (its window) and reduces each state once to statistics of its
completed design: H = Z'R^-1Z and h = Z'R^-1(Y - X beta). The columns
every model excludes (F, the non-candidates) are eliminated from H by one
Cholesky factor per completed design (one per search when no genotype is
missing), leaving candidate-sized arrays. The designs' Grams come from one
``gibbs.DesignStatistics``, the Gram walk the Gibbs chain also uses: the
designs are walked through it in window order by the masked cells whose
imputed code changed since the previous state, so only those cells'
design values are written and only the design columns whose values
changed have their products recomputed. The designs' Grams are reduced in
chunks of at most ``BATCH_ENTRIES`` entries, one batched Cholesky
factorization and one set of batched products per chunk. A design whose
H_FF is singular is dropped with its states; a chunk whose batched
factorization fails is factored design by design, so the other designs
stay. The statistics come out in the kernel's axis order, candidate axis
first, with the per-state terms no model changes (|gamma_F|^2 and
log phi^2) already taken, so a kernel call does only per-model work.

A model is then scored on the Schur complement S_ee of its excluded
candidates, and its term on a design is valid only when S_ee is positive
definite. One kernel scores a batch of models that exclude the same
number of candidates: a Cholesky of every S_ee, written as a loop over
the excluded columns and vectorised over every (model, design, state),
gives log|S_ee| and the solves the terms need. Both searches score a
model as a boolean row over the candidates, through one scorer that takes
any number of rows in batches of equal excluded-set size E, each size's
batches sized by what its models gather (m = max(E, K - E) candidates a
side): the exhaustive search passes every row at once, the
Metropolis-Hastings walk each distinct proposal as a batch of one.

The search chain accepts a proposal with min{1, BF'/BF}; proposals flip a
random coefficient with probability a and jump to an independent uniform
model otherwise (a symmetric kernel).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .gibbs import DesignStatistics, ParameterState, PosteriorSamples
from .model import Dataset, snp_design_matrix

__all__ = [
    "EstimationError",
    "ModelIndicator",
    "BayesFactorEstimate",
    "BayesFactorStatistics",
    "SearchConfig",
    "SearchTrace",
    "bf_sample_term",
    "bayes_factor_statistics",
    "estimate_bayes_factor",
    "propose_model",
    "mh_model_search",
    "exhaustive_search",
]

EXHAUSTIVE_CANDIDATE_LIMIT = 20
# entries of a model batch's largest gathered array, and of the chunk of
# design Grams the statistics reduce at once: a search's memory stays flat
# however many models it scores and however long its window
BATCH_ENTRIES = 2**17


class EstimationError(RuntimeError):
    """Bayes-factor estimation failed (no states, or no valid terms)."""


class _SingularGram(ArithmeticError):
    """Excluded-column Gram matrix is singular for this state."""


@dataclass(frozen=True)
class ModelIndicator:
    """Binary inclusion vector over the SNP-effect coefficients: the view
    of a model that ``SearchTrace.visited`` builds when read. The searches
    themselves work on boolean rows over the candidates."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("indicator bits must be 0 or 1")

    def bitstring(self) -> str:
        return "".join(str(b) for b in self.bits)


@dataclass
class BayesFactorEstimate:
    """Sample-average Bayes-factor estimate with log-space accounting.

    ``weight_ess`` is the importance-weight effective sample size
    (sum w)^2 / sum w^2 of the valid terms w.
    """

    log_value: float
    sample_count: int
    log_term_mean: float
    log_term_variance: float
    invalid_count: int = 0
    weight_ess: float = 0.0


# the per-model columns of a search's summary and of its SearchTrace
ESTIMATE_FIELDS = tuple(f.name for f in fields(BayesFactorEstimate))


@dataclass(frozen=True)
class SearchConfig:
    """Stochastic-search settings.

    ``mixture_prob`` is the probability of a one-coefficient flip move (the
    complement jumps to an independent uniform model). ``min_samples_per_bf``
    is the window of most recent posterior states every estimate uses, so
    candidate and incumbent are always compared on the same states.
    """

    mixture_prob: float = 0.5
    search_iterations: int = 500
    seed: int = 0
    min_samples_per_bf: int = 2000

    def __post_init__(self):
        if not 0.0 <= self.mixture_prob <= 1.0:
            raise ValueError("mixture_prob must lie in [0, 1]")
        if self.search_iterations < 1:
            raise ValueError("search_iterations must be >= 1")
        if self.min_samples_per_bf < 1:
            raise ValueError("min_samples_per_bf must be >= 1")


@dataclass(eq=False)
class SearchTrace:
    """The scored models as per-model columns, one row per visit in visit
    order; an exhaustive search visits each model once, ranked by
    decreasing log Bayes factor with ties in mask order.

    Row r's model includes the ``candidates`` (design columns, ascending,
    as in ``BayesFactorStatistics``) marked in ``included[r]`` and excludes
    every other of the ``s`` columns. The estimate columns are the fields
    of ``BayesFactorEstimate``; ``accepted`` says whether the walk moved to
    the row's model and ``first`` whether the row is its model's first
    visit. ``skipped`` counts proposals with no valid term, which no row
    holds. ``visited`` gives the rows as objects, built when read.
    """

    s: int
    candidates: tuple[int, ...]
    included: np.ndarray  # (N, K) bool
    accepted: np.ndarray  # (N,) bool
    first: np.ndarray  # (N,) bool
    log_value: np.ndarray  # (N,)
    sample_count: np.ndarray  # (N,) int
    invalid_count: np.ndarray  # (N,) int
    log_term_mean: np.ndarray  # (N,)
    log_term_variance: np.ndarray  # (N,)
    weight_ess: np.ndarray  # (N,)
    skipped: int = 0

    def __len__(self) -> int:
        return len(self.log_value)

    @property
    def best_row(self) -> int:
        """The first row with the largest log Bayes factor."""
        return int(np.argmax(self.log_value))

    def bits(self, rows) -> np.ndarray:
        """The inclusion bits of ``rows``' models over all s columns, (R, s)."""
        bits = np.zeros((len(rows), self.s), dtype=np.uint8)
        bits[:, list(self.candidates)] = self.included[rows]
        return bits

    def bitstrings(self, rows) -> list[str]:
        """``ModelIndicator.bitstring`` of each of ``rows``' models."""
        chars = self.bits(rows) + np.uint8(ord("0"))
        return chars.view(f"S{self.s}").ravel().astype(str).tolist()

    def columns(self, row: int) -> list[int]:
        """The design columns row ``row``'s model includes, ascending."""
        return np.flatnonzero(self.bits([row])[0]).tolist()

    @property
    def visited(self) -> list:
        """(ModelIndicator, log_bf, accepted) of every row."""
        deltas = [ModelIndicator(tuple(b)) for b in self.bits(np.arange(len(self))).tolist()]
        return list(zip(deltas, self.log_value.tolist(), self.accepted.tolist()))


# -- per-state reference ----------------------------------------------------


def _excluded_pieces(state, data, included):
    """R^-1-weighted Gram log-determinant and projected quadratic form for
    the excluded set: log|Z_c'R^-1Z_c| and C'P_c C."""
    Zd = snp_design_matrix(state.z_imputed, data.snp_coding)
    Zc = Zd[:, ~included]
    RinvZc = np.linalg.solve(data.R, Zc)
    G = Zc.T @ RinvZc
    sign, logdet = np.linalg.slogdet(G)
    if sign <= 0 or not np.isfinite(logdet):
        bits = "".join(map(str, included.astype(int)))
        raise _SingularGram(f"excluded-column Gram matrix singular for {bits}")
    C = data.y - data.X @ state.beta - Zd[:, included] @ state.gamma[included]
    t = RinvZc.T @ C
    try:
        quad = float(t @ np.linalg.solve(G, t))
    except np.linalg.LinAlgError as exc:
        raise _SingularGram(str(exc)) from None
    return logdet, quad


def bf_sample_term(state: ParameterState, data: Dataset, included: np.ndarray) -> float:
    """Log of one state's Bayes-factor summand (prior ratio times g) for
    the model that keeps the design columns marked in ``included`` (s,).

    The excluded-coefficient prior ratio contributes
    (2 pi sigma^2 phi^2)^{dc/2} exp(+|gamma_c|^2 / (2 sigma^2 phi^2));
    combined with g the (2 pi sigma^2) factors cancel, leaving

      (dc/2) log phi^2 + 0.5 log|Z_c'R^-1Z_c|
        + (|gamma_c|^2 / phi^2 - C'P_c C) / (2 sigma^2).

    For the full model the term is identically 0 (empty products). This is
    the direct per-state evaluation; ``estimate_bayes_factor`` computes the
    same terms from ``BayesFactorStatistics``.
    """
    included = np.asarray(included, dtype=bool)
    if included.all():
        return 0.0
    logdet, quad = _excluded_pieces(state, data, included)
    gam_c = state.gamma[~included]
    return (
        0.5 * gam_c.size * math.log(state.phi2)
        + 0.5 * logdet
        + (float(gam_c @ gam_c) / state.phi2 - quad) / (2.0 * state.sigma2)
    )


# -- per-state statistics -----------------------------------------------------


@dataclass(frozen=True)
class BayesFactorStatistics:
    """Per-state statistics for every model whose included columns lie in
    ``candidates`` (K); the remaining columns ``fixed`` (F) are excluded by
    all of them and already eliminated.

    With H = Z'R^-1Z and h = Z'R^-1(Y - X beta) of a state's completed
    design, the statistics are log|H_FF|, M = H_KF H_FF^-1 H_FK and the
    Schur complement S = H_KK - M, which depend on the design only, and
    q0 = h_F'H_FF^-1 h_F, b = H_KF H_FF^-1 h_F, g = h_K - b, gamma, sigma^2
    and phi^2, which depend on the state. All of them are read from one
    Cholesky factor L_FF of H_FF per design, the designs' factors taken in
    batched chunks (see ``bayes_factor_statistics``). With no missing
    genotype every state shares the observed design, otherwise each state
    has its own; the design axis D holds one entry per design whose H_FF is
    positive definite (in window order) and the states are grouped under
    them (D x L, L states per design). States of a design with a singular
    H_FF are invalid for every model and only counted, whichever chunk the
    design falls in. Every design's H comes from one
    ``gibbs.DesignStatistics`` walked through the window.

    The arrays are laid out in the order the batch kernel gathers them,
    candidate axis first: S and M as (K, K, D), and b, g and gamma (the
    candidates' coefficients only) as (K, D, L). The two per-state terms no
    model changes are kept whole: gamma_f2 = |gamma_F|^2 and log phi^2.
    """

    s: int
    candidates: tuple[int, ...]
    fixed: tuple[int, ...]
    logdet_f: np.ndarray  # (D,)
    M: np.ndarray  # (K, K, D)
    S: np.ndarray  # (K, K, D)
    q0: np.ndarray  # (D, L)
    b: np.ndarray  # (K, D, L)
    g: np.ndarray  # (K, D, L)
    gamma: np.ndarray  # (K, D, L)
    gamma_f2: np.ndarray  # (D, L)
    sigma2: np.ndarray  # (D, L)
    phi2: np.ndarray  # (D, L)
    log_phi2: np.ndarray  # (D, L)
    invalid: int  # states of a design with a singular H_FF

    @property
    def state_count(self) -> int:
        return self.q0.size + self.invalid


def _lifted_factors(grams: np.ndarray, lift: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factors of a chunk of Grams with 1 added to the
    diagonal entries ``lift``, and which of them exist. One batched
    factorization; if it fails, each design is factored on its own and a
    failed one gets the identity as a placeholder. ``grams`` is lifted in
    place and restored exactly."""
    diagonal = grams[:, lift, lift]
    grams[:, lift, lift] += 1.0
    ok = np.ones(len(grams), dtype=bool)
    try:
        factors = np.linalg.cholesky(grams)
    except np.linalg.LinAlgError:
        factors = np.empty_like(grams)
        for i, lifted in enumerate(grams):
            try:
                factors[i] = np.linalg.cholesky(lifted)
            except np.linalg.LinAlgError:
                factors[i], ok[i] = np.eye(len(lifted)), False
    grams[:, lift, lift] = diagonal
    return factors, ok


def bayes_factor_statistics(
    samples: PosteriorSamples, candidates: Iterable[int]
) -> BayesFactorStatistics:
    """Reduce each state of ``samples`` to the candidate-sized statistics
    that score every model including only columns from ``candidates``,
    each of which must be a design column listed once.

    One ``gibbs.DesignStatistics`` of W = [Z_F | Z_K | X | y] is built for
    the first design, with the dataset's ``Rinv``. The later designs
    are walked through it in window order, a chunk at a time, by the masked
    cells whose code differs between consecutive rows of ``masked_values``:
    only those cells' design values are written into its ``design`` (from
    ``model.CODINGS``), and ``refresh`` recomputes the products of only the
    design columns whose values changed. Each design's W'R^-1 W is copied
    into a buffer of (chunk, T, T) Grams,
    T = s + p + 1, with chunk * T^2 at most ``BATCH_ENTRIES``. Each chunk
    then takes one batched lower Cholesky factorization of its Grams with 1
    added to the diagonal of the trailing (K, X, y) block. That block's
    Schur complement is then at least I, so a design's factorization fails
    exactly when its H_FF is singular; when one does, the chunk's designs
    are factored one at a time and only the failing ones are dropped. The
    factor's first |F| columns hold L_FF (hence log|H_FF|) and, below it,
    V = L_FF^-1 Z_F'R^-1[Z_K X y], from which every statistic follows with
    batched matrix products: M = V_K'V_K, S = H_KK - M from the unlifted
    Gram and, per state,
    v = V_y - V_X beta, q0 = |v|^2 and b = V_K'v, each chunk's written
    straight into the kernel-order arrays of ``BayesFactorStatistics``.
    """
    data = samples.data
    count = samples.retained_count
    if count == 0:
        raise EstimationError("no posterior states to estimate from")
    s = data.design_dim
    K = sorted(int(j) for j in candidates)
    for j, after in zip(K, K[1:] + [None]):
        if not 0 <= j < s:
            raise ValueError(f"candidate index {j} out of range")
        if j == after:
            raise ValueError(f"candidate index {j} repeated")
    F = sorted(set(range(s)) - set(K))
    f, k, p = len(F), len(K), data.X.shape[1]
    T = s + p + 1
    position = np.empty(s, dtype=int)  # design column -> column of W
    position[F + K] = np.arange(s)

    # each masked cell's individual and SNP, in masked_values order; with
    # no missing genotype every state shares the observed design
    individuals, snps = data.genotypes.masked_cells
    D = count if individuals.size else 1
    L = count // D
    masked = samples.masked_values[:D]
    codes = data.genotypes.codes.copy()
    codes[individuals, snps] = masked[0]
    # W = [Z_F | Z_K | X | y] of the first design
    stats = DesignStatistics(
        data, data.Rinv, snp_design_matrix(codes, data.snp_coding)[:, F + K]
    )
    # each masked cell's design columns (as columns of W)
    table = data.coding.values
    cell_columns = position[snps[:, None] * table.shape[1] + np.arange(table.shape[1])]

    betas = samples.betas.reshape(D, L, p)
    logdet_f = np.empty(D)
    M, S = np.empty((k, k, D)), np.empty((k, k, D))
    q0, b, g = np.empty((D, L)), np.empty((k, D, L)), np.empty((k, D, L))
    valid = np.ones(D, dtype=bool)
    lift = np.arange(f, T)
    chunk = min(D, max(1, BATCH_ENTRIES // (T * T)))
    grams = np.empty((chunk, T, T))
    for first in range(0, D, chunk):
        span = np.arange(first, min(first + chunk, D))
        m = span.size
        # the cells whose code differs from the design before (the first
        # design is its own), and of those the design entries that change
        before, after = masked[np.maximum(span - 1, 0)], masked[span]
        design, cell = np.nonzero(before != after)
        new = table[after[design, cell] + 1]  # (changed cells, columns per SNP)
        which, t = np.nonzero(new != table[before[design, cell] + 1])
        design, cell = design[which], cell[which]
        individual, column, value = individuals[cell], cell_columns[cell, t], new[which, t]
        changed = np.zeros((m, s), dtype=bool)
        changed[design, column] = True
        changed_design, changed_column = np.nonzero(changed)
        # design i writes entries e[i]:e[i + 1], refreshes changed_column[c[i]:c[i + 1]]
        e = np.searchsorted(design, np.arange(m + 1)).tolist()
        c = np.searchsorted(changed_design, np.arange(m + 1)).tolist()
        for i in range(m):
            write = slice(e[i], e[i + 1])
            stats.design[individual[write], column[write]] = value[write]
            if c[i] < c[i + 1]:
                stats.refresh(changed_column[c[i]:c[i + 1]])
            grams[i] = stats.cross
        done, G = slice(first, first + m), grams[:m]
        factors, valid[done] = _lifted_factors(G, lift)
        # V' = Z_F'R^-1[Z_K X y] L_FF^-T lies below L_FF, by blocks
        V_k, V_x, V_y = factors[:, f:s, :f], factors[:, s:s + p, :f], factors[:, -1:, :f]
        pivots = np.diagonal(factors, axis1=1, axis2=2)[:, :f]
        logdet_f[done] = 2.0 * np.log(pivots).sum(axis=1)
        M_done = V_k @ V_k.transpose(0, 2, 1)
        M[..., done] = M_done.transpose(1, 2, 0)
        S[..., done] = (G[:, f:s, f:s] - M_done).transpose(1, 2, 0)
        v = V_y - betas[done] @ V_x
        q0[done] = np.einsum("dlf,dlf->dl", v, v)
        b_done = v @ V_k.transpose(0, 2, 1)
        b[:, done] = b_done.transpose(2, 0, 1)
        g_done = G[:, -1:, f:s] - betas[done] @ G[:, s:s + p, f:s] - b_done
        g[:, done] = g_done.transpose(2, 0, 1)
    gamma = np.moveaxis(samples.gammas.reshape(D, L, s)[valid], -1, 0)  # (s, D, L)
    gamma_f = gamma[np.array(F, dtype=int)]
    phi2 = samples.phi2s.reshape(D, L)[valid]
    return BayesFactorStatistics(
        s, tuple(K), tuple(F),
        logdet_f=logdet_f[valid],
        M=M[..., valid],
        S=S[..., valid],
        q0=q0[valid],
        b=b[:, valid],
        g=g[:, valid],
        gamma=gamma[np.array(K, dtype=int)],
        gamma_f2=np.einsum("fdl,fdl->dl", gamma_f, gamma_f),
        sigma2=samples.sigma2s.reshape(D, L)[valid],
        phi2=phi2,
        log_phi2=np.log(phi2),
        invalid=L * int((~valid).sum()),
    )


def _batch_size(stats: BayesFactorStatistics, excluded: int) -> int:
    """Models per kernel call among those that exclude ``excluded`` (E) of
    the K candidates: with m = max(E, K - E), a model's largest gathered array
    has at most D * max(L, m) * m entries, and a batch keeps them within
    BATCH_ENTRIES."""
    D, L = stats.q0.shape
    m = max(excluded, len(stats.candidates) - excluded, 1)
    return max(1, BATCH_ENTRIES // max(D * max(L, m) * m, 1))  # D is 0 when no design is valid


def _batch_log_terms(
    stats: BayesFactorStatistics, included: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Log Bayes-factor terms of a batch of B models that exclude the same
    number E of candidates; row b of ``included`` (B, K) marks the
    candidates model b keeps.

    Returns the terms (B, D, L) and whether each model's excluded Schur
    complement S_ee is positive definite on each design (B, D, 1); a term
    is valid only then. One right-looking Cholesky of every S_ee, a loop
    over its E columns vectorised over every (model, design), also
    eliminates the rows v = g_e - S_ed gamma_d of every state below it (a
    forward solve L w = v), giving log|S_ee| = sum of the log pivots and
    v'S_ee^-1 v = |w|^2. The statistics come candidate axis first, so each
    gather of a model's rows and columns is one fancy index that puts the
    model, design and state axes last, and each step is one operation on
    contiguous arrays. Only these per-model gathers and the factorization
    run per call: |gamma_F|^2 and log phi^2 come with the statistics.
    """
    B = included.shape[0]
    inc = np.nonzero(included)[1].reshape(B, -1).T  # (d, B) candidate positions
    exc = np.nonzero(~included)[1].reshape(B, -1).T  # (E, B)
    E = exc.shape[0]
    S, M = stats.S, stats.M
    gamma_d, gamma_e = stats.gamma[inc], stats.gamma[exc]  # (., B, D, L)
    A = S[exc[:, None], exc[None, :]]  # (E, E, B, D), factored in place
    v = stats.g[exc] - np.einsum("ibdl,iebd->ebdl", gamma_d, S[inc[:, None], exc[None, :]])
    quad = (
        stats.q0
        - 2.0 * np.einsum("ibdl,ibdl->bdl", gamma_d, stats.b[inc])
        + np.einsum("ibdl,ijbd,jbdl->bdl", gamma_d, M[inc[:, None], inc[None, :]], gamma_d)
    )
    # a non-positive pivot makes NaN or inf of its own (model, design) only
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(E):
            root = np.sqrt(A[j, j])
            A[j + 1:, j] /= root  # column j of L below the diagonal
            A[j + 1:, j + 1:] -= A[j + 1:, None, j] * A[None, j + 1:, j]
            v[j] /= root[..., None]  # w_j
            v[j + 1:] -= v[j] * A[j + 1:, j, ..., None]
        pivots = A[np.arange(E), np.arange(E)]  # (E, B, D)
        logdet = np.log(pivots).sum(axis=0)
    valid = (pivots > 0.0).all(axis=0) & np.isfinite(logdet)
    quad += np.einsum("ebdl,ebdl->bdl", v, v)
    gamma_c2 = stats.gamma_f2 + np.einsum("ebdl,ebdl->bdl", gamma_e, gamma_e)
    terms = (
        0.5 * (len(stats.fixed) + E) * stats.log_phi2
        + 0.5 * (stats.logdet_f + logdet)[..., None]
        + (gamma_c2 / stats.phi2 - quad) / (2.0 * stats.sigma2)
    )
    return terms, valid[..., None]


def _summaries(
    stats: BayesFactorStatistics, terms: np.ndarray, valid: np.ndarray
) -> dict[str, np.ndarray]:
    """Average each model's valid terms (log-sum-exp): the columns of
    ``ESTIMATE_FIELDS``, one entry per model. A model with no valid term
    has a ``sample_count`` of 0 and meaningless other entries."""
    B = terms.shape[0]
    valid = np.broadcast_to(valid, terms.shape).reshape(B, -1)
    terms = np.where(valid, terms.reshape(B, -1), -np.inf)
    count = valid.sum(axis=1)
    top = terms.max(axis=1, initial=-np.inf)
    top[count == 0] = 0.0  # no valid term: the model is dropped by the caller
    weights = np.exp(terms - top[:, None])
    weight_sum = weights.sum(axis=1)
    kept = np.maximum(count, 1)
    mean = np.where(valid, terms, 0.0).sum(axis=1) / kept
    squares = (np.where(valid, terms - mean[:, None], 0.0) ** 2).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_value = top + np.log(weight_sum) - np.log(kept)
        ess = weight_sum**2 / (weights * weights).sum(axis=1)
    return {
        "log_value": log_value,
        "sample_count": count,
        "log_term_mean": mean,
        "log_term_variance": squares / np.maximum(count - 1, 1),  # 0 for a single term
        "invalid_count": stats.state_count - count,
        "weight_ess": ess,
    }


def _score_models(stats: BayesFactorStatistics, included: np.ndarray) -> dict[str, np.ndarray]:
    """The ``ESTIMATE_FIELDS`` columns of B models, one entry per model; row
    b of ``included`` (B, K) marks the candidates, in ``stats.candidates``
    order, that model b keeps. The models are scored in batches of equal
    excluded-set size, each size's batches as large as its gathered arrays
    allow (``_batch_size``). A model with no valid term has a
    ``sample_count`` of 0."""
    columns = {}
    sizes = included.sum(axis=1)
    # not np.unique, whose hash path (numpy 2.4) adds 1.5 MiB of peak RSS when first run
    for size in sorted(set(sizes.tolist())):
        group = np.flatnonzero(sizes == size)
        batch = _batch_size(stats, len(stats.candidates) - size)
        for start in range(0, group.size, batch):
            rows = group[start:start + batch]
            summary = _summaries(stats, *_batch_log_terms(stats, included[rows]))
            if not columns:
                columns = {name: np.empty(len(sizes), c.dtype) for name, c in summary.items()}
            for name, column in summary.items():
                columns[name][rows] = column
    return columns


def estimate_bayes_factor(
    stats: BayesFactorStatistics, included: np.ndarray
) -> BayesFactorEstimate:
    """Average the per-state terms of the model that keeps the candidates
    marked in ``included`` (K,), in ``stats.candidates`` order, over the
    states of ``stats`` (log-sum-exp).

    States whose excluded Schur complement is not positive definite (for
    example with a monomorphic imputed column) invalidate that term only;
    the invalid count is reported on the estimate. The model is scored by
    ``_score_models`` as a batch of one.
    """
    row = np.asarray(included, dtype=bool)
    if row.shape != (len(stats.candidates),):
        raise ValueError(f"a model row of shape {row.shape}, not one entry per candidate")
    summary = _score_models(stats, row[None])
    if not summary["sample_count"][0]:
        bits = np.zeros(stats.s, dtype=int)
        bits[list(stats.candidates)] = row
        raise EstimationError(
            f"all {stats.state_count} terms invalid for model {''.join(map(str, bits))}"
        )
    return BayesFactorEstimate(**{name: column[0].item() for name, column in summary.items()})


# -- search -------------------------------------------------------------------


def propose_model(
    current: np.ndarray, walk: np.ndarray, rng: np.random.Generator, config: SearchConfig
) -> np.ndarray:
    """Symmetric proposal over the row positions ``walk``: flip one
    uniformly chosen of them with probability ``mixture_prob``, otherwise
    draw each of them independently and uniformly. Positions outside
    ``walk`` keep ``current``'s value."""
    proposal = current.copy()
    if rng.random() < config.mixture_prob:
        proposal[walk[rng.integers(len(walk))]] ^= True
    else:
        proposal[walk] = rng.integers(0, 2, size=len(walk))
    return proposal


def mh_model_search(
    samples: PosteriorSamples,
    candidates: Optional[Sequence[int]],
    config: SearchConfig,
) -> SearchTrace:
    """Metropolis-Hastings walk over inclusion vectors, targeting the
    estimated Bayes factor.

    ``candidates`` restricts proposals to a coefficient subset (everything
    else stays excluded); None searches the full coefficient space. A model
    is a row over ``stats.candidates``; the walk proposes over the
    candidates in the given order (``candidates[k]`` sits at row position
    ``walk[k]``) and scores each distinct row once through
    ``estimate_bayes_factor``. Candidate and incumbent are always scored
    over the same window, the last ``min_samples_per_bf`` rows of
    ``samples``, and accept/reject uses only log-BF differences, so
    rescaling every estimate by a common factor changes nothing. The trace
    holds the starting model, then every scored proposal.
    """
    s = samples.data.design_dim
    candidates = range(s) if candidates is None else [int(j) for j in candidates]
    stats = bayes_factor_statistics(samples[-config.min_samples_per_bf:], candidates)
    walk = np.searchsorted(stats.candidates, candidates)
    rng = np.random.default_rng(config.seed)
    # each distinct model once, keyed by its row's bytes, in the order first
    # scored; a visit is an index into them
    scored: dict[bytes, int] = {}
    rows: list[np.ndarray] = []
    estimates: list[BayesFactorEstimate] = []
    visits: list[int] = []
    accepted: list[bool] = []
    skipped = 0

    def evaluate(row: np.ndarray) -> int:
        key = row.tobytes()
        if key not in scored:
            estimates.append(estimate_bayes_factor(stats, row))
            rows.append(row)
            scored[key] = len(rows) - 1
        return scored[key]

    current_row = np.ones(len(stats.candidates), dtype=bool)
    current = evaluate(current_row)
    visits.append(current)
    accepted.append(True)
    # with no candidate the null model is the only one: nothing to propose
    for _ in range(config.search_iterations if walk.size else 0):
        proposal_row = propose_model(current_row, walk, rng, config)
        try:
            proposal = evaluate(proposal_row)
        except EstimationError:
            skipped += 1
            continue
        log_ratio = estimates[proposal].log_value - estimates[current].log_value
        accept = math.log(rng.random()) < log_ratio
        visits.append(proposal)
        accepted.append(bool(accept))
        if accept:
            current_row, current = proposal_row, proposal
    index = np.array(visits)
    first = np.zeros(index.size, dtype=bool)
    first[np.unique(index, return_index=True)[1]] = True
    return SearchTrace(
        s, stats.candidates, np.array(rows)[index], np.array(accepted), first,
        **{name: np.array([getattr(est, name) for est in estimates])[index]
           for name in ESTIMATE_FIELDS},
        skipped=skipped,
    )


def exhaustive_search(
    samples: PosteriorSamples,
    candidate_snps: Sequence[int],
    config: Optional[SearchConfig] = None,
) -> SearchTrace:
    """Score every subset of the candidate coefficients (others excluded)
    over the last ``min_samples_per_bf`` rows of ``samples``.

    Refuses more than 20 candidates; use mh_model_search for larger spaces.
    Mask m's model includes ``candidate_snps[k]`` when bit k of m is set.
    Every mask's row is scored by ``_score_models`` at once, and the models
    with a valid term are ranked by one stable sort on decreasing log Bayes
    factor, so ties keep mask order.
    """
    candidates = [int(j) for j in candidate_snps]
    if len(candidates) > EXHAUSTIVE_CANDIDATE_LIMIT:
        raise ValueError(
            f"{len(candidates)} candidates exceed the exhaustive limit of "
            f"{EXHAUSTIVE_CANDIDATE_LIMIT}; use mh_model_search instead"
        )
    config = config or SearchConfig()
    stats = bayes_factor_statistics(samples[-config.min_samples_per_bf:], candidates)
    # row m: the candidates (in stats' order) that mask m's model includes
    masks = np.arange(2 ** len(candidates))
    included = np.zeros((masks.size, len(candidates)), dtype=bool)
    included[:, np.searchsorted(stats.candidates, candidates)] = (
        masks[:, None] >> np.arange(len(candidates)) & 1
    )
    columns = _score_models(stats, included)
    kept = np.flatnonzero(columns["sample_count"] > 0)
    skipped = masks.size - kept.size
    if not kept.size:
        raise EstimationError(
            f"every candidate model failed estimation ({skipped} skipped)"
        )
    order = kept[np.argsort(-columns["log_value"][kept], kind="stable")]
    every = np.ones(order.size, dtype=bool)
    return SearchTrace(
        samples.data.design_dim, stats.candidates, included[order], every, every,
        **{name: column[order] for name, column in columns.items()},
        skipped=int(skipped),
    )
