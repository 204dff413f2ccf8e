"""Independent oracles for the test suite.

Nothing here reuses the library's estimation paths: Bayes factors come from
tensor-product Gauss-Hermite quadrature of the beta-marginalized likelihood
over the coefficient prior, posterior state streams come from exact
conjugate Gaussian draws (sigma^2 and phi^2 held fixed), and the genotype
conditional is drawn by a per-cell numpy loop over the full residual image.
The beta and gamma draws, the chain's per-block sweep, EM's exact and
Monte Carlo E-steps, the samples writer, the genotype coding and
decoding, the pedigree ordering and kinship recursion, the chain's
set-up (prior draws and masked-cell couplings), the autocorrelations and
the design-by-design walk of the Bayes-factor statistics, the
row-by-row select writers and the model search's walk over
``ModelIndicator`` objects each have their earlier, plainer form here as
the reference for the faster one (the walk scores its models through the
library's estimator: it pins the walk's draws and bookkeeping, not the
scores). The per-individual genotype conditional
(exact only at R = I) and the Bayes-factor bridge weight g live here too:
only tests use them.
"""

import copy
import itertools
import math

import numpy as np

from snpgibbs import io
from snpgibbs.gibbs import PosteriorSamples, initial_state
from snpgibbs.linalg import ColumnDelta
from snpgibbs.model import (
    GENOTYPE_CODES,
    DataValidationError,
    GenotypeMatrix,
    genotype_column_values,
    snp_design_matrix,
)
from snpgibbs.selector import (
    ESTIMATE_FIELDS,
    BayesFactorStatistics,
    EstimationError,
    ModelIndicator,
    SearchTrace,
    _excluded_pieces,
    bayes_factor_statistics,
    estimate_bayes_factor,
)
from snpgibbs.pedigree import (
    OrderedPedigree,
    PedigreeError,
    RelationshipMatrix,
    _describe_cycle,
)


def _projector_complement(X, R):
    """K = R^-1 - R^-1 X (X'R^-1X)^-1 X'R^-1 (flat-prior beta marginalization)."""
    Rinv = np.linalg.inv(R)
    RX = Rinv @ X
    return Rinv - RX @ np.linalg.solve(X.T @ RX, RX.T)


def quadrature_log_marginal(y, X, Z, R, sigma2, phi2, nodes=48):
    """log of integral N(gamma; 0, sigma2 phi2 I) * exp(-Q(gamma)/(2 sigma2)) dgamma
    by tensor-product Gauss-Hermite, where Q is the beta-marginalized
    quadratic form. Constant factors common to all models are dropped.
    """
    K = _projector_complement(X, R)
    s = Z.shape[1]
    tau = np.sqrt(sigma2 * phi2)
    x, w = np.polynomial.hermite.hermgauss(nodes)
    if s == 0:
        q = float(y @ K @ y)
        return -q / (2.0 * sigma2)
    grids = np.meshgrid(*([x] * s), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1) * (np.sqrt(2.0) * tau)
    weights = np.ones(pts.shape[0])
    for g in np.meshgrid(*([w] * s), indexing="ij"):
        weights = weights * g.ravel()
    resid = y[None, :] - pts @ Z.T
    q = np.einsum("ij,jk,ik->i", resid, K, resid)
    logf = -q / (2.0 * sigma2)
    m = logf.max()
    integral = float(weights @ np.exp(logf - m))
    # pi^{-s/2} from the Gauss-Hermite change of variables
    return m + np.log(integral) - 0.5 * s * np.log(np.pi)


def quadrature_log_bayes_factor(y, X, Z, R, sigma2, phi2, included, nodes=48):
    """log BF of the model keeping ``included`` columns vs the full model."""
    num = quadrature_log_marginal(y, X, Z[:, list(included)], R, sigma2, phi2, nodes)
    den = quadrature_log_marginal(y, X, Z, R, sigma2, phi2, nodes)
    return num - den


def conjugate_posterior_states(data, sigma2, phi2, count, seed):
    """Independent draws from the exact (beta, gamma) posterior of the
    dataset's observed design with sigma^2 and phi^2 fixed: gamma from its
    Gaussian marginal (flat-prior beta integrated out), then beta from its
    Gaussian conditional. Every state keeps the observed codes."""
    rng = np.random.default_rng(seed)
    y, X, R = data.y, data.X, data.R
    Z = snp_design_matrix(data.genotypes.codes, data.snp_coding)
    n, s = Z.shape
    K = _projector_complement(X, R)
    prec = (Z.T @ K @ Z + np.eye(s) / phi2) / sigma2
    cov_g = np.linalg.inv(prec)
    mean_g = cov_g @ (Z.T @ K @ y) / sigma2
    Lg = np.linalg.cholesky(0.5 * (cov_g + cov_g.T))

    Rinv = np.linalg.inv(R)
    XtRinvX = X.T @ Rinv @ X
    cov_b = sigma2 * np.linalg.inv(XtRinvX)
    Lb = np.linalg.cholesky(0.5 * (cov_b + cov_b.T))

    betas, gammas = np.empty((count, X.shape[1])), np.empty((count, s))
    for k in range(count):
        gammas[k] = mean_g + Lg @ rng.standard_normal(s)
        mean_b = np.linalg.solve(XtRinvX, X.T @ Rinv @ (y - Z @ gammas[k]))
        betas[k] = mean_b + Lb @ rng.standard_normal(X.shape[1])
    mask = data.genotypes.missing_mask
    variances = np.tile([float(sigma2), float(phi2)], (count, 1))
    return PosteriorSamples(
        data, np.column_stack([betas, gammas, variances]),
        np.tile(data.genotypes.codes[mask], (count, 1)),
    )


def imputation_probabilities(state, data, j, prior, rows=None):
    """Per-individual genotype-class probabilities for the masked cells of
    SNP column j.

    For each masked individual the three candidate codes c are weighted by
    prior(c) * exp(-(r - contrib(c))^2 / (2 sigma^2)), where r is the
    phenotype residual with SNP j's contribution removed. Normalization is
    done in log space with max subtraction. This is the conditional
    ``impute_snp_column`` draws when R = I; under any other kinship the
    cells couple through R^-1 and these probabilities are not exact.

    Returns (rows, probs) with probs of shape (len(rows), 3) over codes
    (-1, 0, +1).
    """
    if not 0 <= j < data.s:
        raise IndexError(f"SNP index {j} out of range")
    if rows is None:
        rows = np.flatnonzero(data.genotypes.missing_mask[:, j])
    if rows.size == 0:
        return rows, np.zeros((0, 3))
    Zd = snp_design_matrix(state.z_imputed, data.snp_coding)
    cols = list(data.design_columns_of_snp(j))
    gsub = state.gamma[cols]
    contrib_old = Zd[np.ix_(rows, cols)] @ gsub
    full_resid = data.y - data.X @ state.beta - Zd @ state.gamma
    r = full_resid[rows] + contrib_old
    cand = genotype_column_values(GENOTYPE_CODES, data.snp_coding) @ gsub  # (3,)
    logw = prior.log_weights(rows, j) - (r[:, None] - cand[None, :]) ** 2 / (
        2.0 * state.sigma2
    )
    logw -= logw.max(axis=1, keepdims=True)
    probs = np.exp(logw)
    probs /= probs.sum(axis=1, keepdims=True)
    return rows, probs


def g_weight(state, data, included):
    """Bridge weight g(theta) for one state (computed in log space) and the
    model that keeps the design columns marked in ``included`` (s,).

    g = (2 pi sigma^2)^{-dc/2} |Z_c'R^-1Z_c|^{1/2} exp(-C'P_c C / (2 sigma^2)),
    with P_c the R^-1-weighted projection onto the excluded columns.
    Requires a nonempty excluded set; the full model is the caller's
    trivial case.
    """
    included = np.asarray(included, dtype=bool)
    if included.all():
        raise ValueError("g_weight requires a nonempty excluded set")
    logdet, quad = _excluded_pieces(state, data, included)
    log_g = (
        -0.5 * (~included).sum() * math.log(2.0 * math.pi * state.sigma2)
        + 0.5 * logdet
        - quad / (2.0 * state.sigma2)
    )
    return math.exp(log_g)


def per_design_statistics(samples, candidates):
    """Reference ``bayes_factor_statistics``: the window walked design by
    design. Each design is rebuilt in full from its row of codes and
    compared with the one before; the changed columns of A = W[Z_F | Z_K |
    X | y] are rewhitened and their rows and columns of A'A recomputed, and
    each design takes its own Cholesky factor of A'A with 1 added to the
    diagonal of the trailing (K, X, y) block (it fails exactly when H_FF is
    singular) and its own reductions."""
    data = samples.data
    count = samples.retained_count
    if count == 0:
        raise EstimationError("no posterior states to estimate from")
    s = data.design_dim
    K = sorted({int(j) for j in candidates})
    F = sorted(set(range(s)) - set(K))
    f, k, p = len(F), len(K), data.X.shape[1]
    W = np.linalg.inv(np.linalg.cholesky(data.R))
    position = np.empty(s, dtype=int)  # design column -> column of A
    position[F + K] = np.arange(s)
    mask = data.genotypes.missing_mask
    D = count if mask.any() else 1
    L = count // D
    codes = data.genotypes.codes.copy()
    betas = samples.betas.reshape(D, L, p)
    logdet_f = np.empty(D)
    M, S = np.empty((D, k, k)), np.empty((D, k, k))
    q0, b, g = np.empty((D, L)), np.empty((D, L, k)), np.empty((D, L, k))
    valid = np.ones(D, dtype=bool)
    A = np.zeros((data.n, s + p + 1))
    A[:, s:s + p] = W @ data.X
    A[:, -1] = W @ data.y
    H = A.T @ A
    previous = np.full((data.n, s), np.nan)  # NaN != anything: the first design fills A
    lift = np.arange(f, s + p + 1)
    for r in range(D):
        codes[mask] = samples.masked_values[r]
        Z = snp_design_matrix(codes, data.snp_coding)
        changed = np.flatnonzero((Z != previous).any(axis=0))
        previous = Z
        cols = position[changed]
        A[:, cols] = W @ Z[:, changed]
        cross = A.T @ A[:, cols]
        H[:, cols] = cross
        H[cols, :] = cross.T
        lifted = H.copy()
        lifted[lift, lift] += 1.0
        try:
            factor = np.linalg.cholesky(lifted)
        except np.linalg.LinAlgError:
            valid[r] = False
            continue
        V_k, V_x, V_y = factor[f:s, :f], factor[s:s + p, :f], factor[-1, :f]
        logdet_f[r] = 2.0 * np.log(factor.diagonal()[:f]).sum()
        M[r] = V_k @ V_k.T
        S[r] = H[f:s, f:s] - M[r]
        v = V_y - betas[r] @ V_x
        q0[r] = np.einsum("lf,lf->l", v, v)
        b[r] = v @ V_k.T
        g[r] = H[-1, f:s] - betas[r] @ H[s:s + p, f:s] - b[r]
    gamma = samples.gammas.reshape(D, L, s)[valid]
    phi2 = samples.phi2s.reshape(D, L)[valid]
    # in the kernel's axis order: candidate axis first
    return BayesFactorStatistics(
        s, tuple(K), tuple(F),
        logdet_f=logdet_f[valid],
        M=M[valid].transpose(1, 2, 0),
        S=S[valid].transpose(1, 2, 0),
        q0=q0[valid],
        b=b[valid].transpose(2, 0, 1),
        g=g[valid].transpose(2, 0, 1),
        gamma=gamma[..., K].transpose(2, 0, 1),
        gamma_f2=(gamma[..., F] ** 2).sum(axis=-1),
        sigma2=samples.sigma2s.reshape(D, L)[valid],
        phi2=phi2,
        log_phi2=np.log(phi2),
        invalid=L * int((~valid).sum()),
    )


def sequential_impute(state, data, j, rng, prior):
    """Reference draw of SNP column j's masked cells from the exact
    conditional under R: the cells in turn, each from three R^-1-weighted
    log-weights, carrying the full n-vector u = R^-1 (Y - X beta - Z gamma)
    and moving it by R^-1's column when a cell changes. Mutates
    ``state.z_imputed`` and returns the net ColumnDelta per changed design
    column, as ``impute_snp_column`` does."""
    rows = np.flatnonzero(data.genotypes.missing_mask[:, j])
    if rows.size == 0:
        return []
    Zd = snp_design_matrix(state.z_imputed, data.snp_coding)
    old_codes = state.z_imputed[rows, j].copy()
    Rinv = np.linalg.inv(data.R)
    rdiag = np.diag(Rinv).copy()
    cols = list(data.design_columns_of_snp(j))
    gsub = state.gamma[cols]
    cand = genotype_column_values(GENOTYPE_CODES, data.snp_coding) @ gsub  # (3,)
    mu = data.X @ state.beta + Zd @ state.gamma
    u = Rinv @ (data.y - mu)
    logprior = prior.log_weights(rows, j)
    new_codes = np.empty(rows.size, dtype=np.int8)
    for k, i in enumerate(rows):
        a_old = float(
            genotype_column_values(state.z_imputed[i : i + 1, j], data.snp_coding)[0]
            @ gsub
        )
        t_i = u[i] + rdiag[i] * a_old  # residual image with cell i's term removed
        logw = logprior[k] + (2.0 * cand * t_i - cand**2 * rdiag[i]) / (
            2.0 * state.sigma2
        )
        logw -= logw.max()
        p = np.exp(logw)
        p /= p.sum()
        draw = int((p.cumsum() < rng.random()).sum())
        code = int(GENOTYPE_CODES[min(draw, 2)])
        new_codes[k] = code
        a_new = float(
            genotype_column_values(np.array([code], dtype=np.int8), data.snp_coding)[0]
            @ gsub
        )
        if a_new != a_old:
            u -= Rinv[:, i] * (a_new - a_old)

    state.z_imputed[rows, j] = new_codes
    if np.array_equal(new_codes, old_codes):
        return []
    old_vals = genotype_column_values(old_codes, data.snp_coding)
    new_vals = genotype_column_values(new_codes, data.snp_coding)
    deltas = []
    for k, col in enumerate(data.design_columns_of_snp(j)):
        d = np.zeros(data.n)
        d[rows] = new_vals[:, k] - old_vals[:, k]
        if np.any(d):
            deltas.append(ColumnDelta(col, d))
    return deltas


def two_factorization_gamma(state, data, rng):
    """Reference gamma draw: M = Z'R^-1 Z + I/phi^2 factored as LL' for the
    noise, then solve(M, rhs + sigma L z), an LU of M, for the draw."""
    Zd = snp_design_matrix(state.z_imputed, data.snp_coding)
    Rinv = np.linalg.inv(data.R)
    M = Zd.T @ Rinv @ Zd + np.eye(Zd.shape[1]) / state.phi2
    L = np.linalg.cholesky(M)
    rhs = Zd.T @ (Rinv @ (data.y - data.X @ state.beta))
    noise = L @ rng.standard_normal(rhs.shape[0])
    return np.linalg.solve(M, rhs + np.sqrt(state.sigma2) * noise)


def two_solve_beta(state, data, rng):
    """Reference beta draw: an LU solve of X'R^-1X for the GLS mean and a
    triangular solve with its Cholesky factor for the noise."""
    Zd = snp_design_matrix(state.z_imputed, data.snp_coding)
    XtRinv = data.X.T @ np.linalg.inv(data.R)
    XtRinvX = XtRinv @ data.X
    mean = np.linalg.solve(XtRinvX, XtRinv @ (data.y - Zd @ state.gamma))
    Lx = np.linalg.cholesky(XtRinvX)
    noise = np.linalg.solve(Lx.T, rng.standard_normal(mean.shape[0]))
    return mean + np.sqrt(state.sigma2) * noise


def per_block_chain(data, priors, config, rng):
    """Reference chain: the sweep of ``run_chain`` with every block drawn
    from the full residual y - X beta - Z gamma and R^-1 itself. Imputation
    goes through ``sequential_impute`` (column by column in ``all`` mode),
    gamma through ``two_factorization_gamma``, beta through
    ``two_solve_beta``, the variances from their inverted-gamma laws. It
    takes the same normals and uniforms in the same order as ``run_chain``
    and returns (betas, gammas, sigma2s, phi2s, masked values) of the
    retained states."""
    state = initial_state(data, config, rng)
    Rinv = np.linalg.inv(data.R)
    mask = data.genotypes.missing_mask
    impute = mask.any() and config.impute_mode != "off"
    kept = []
    for t in range(config.total_iterations):
        if impute:
            cols = (t % data.s,) if config.impute_mode == "cycle" else range(data.s)
            for j in cols:
                sequential_impute(state, data, j, rng, config.imputation_prior)
        state.gamma = two_factorization_gamma(state, data, rng)
        state.beta = two_solve_beta(state, data, rng)
        Zd = snp_design_matrix(state.z_imputed, data.snp_coding)
        resid = data.y - data.X @ state.beta - Zd @ state.gamma
        g2 = float(state.gamma @ state.gamma)
        shape = data.n / 2 + state.gamma.size / 2 + priors.a
        scale = (float(resid @ Rinv @ resid) + g2 / state.phi2 + 2 * priors.b) / 2
        state.sigma2 = float(scale / rng.gamma(shape))
        shape = state.gamma.size / 2 + priors.c
        scale = (g2 / state.sigma2 + 2 * priors.d) / 2
        state.phi2 = float(scale / rng.gamma(shape))
        if t >= config.burn_in and (t - config.burn_in + 1) % config.thinning == 0:
            kept.append(copy.deepcopy(state))
    return (
        np.array([s.beta for s in kept]),
        np.array([s.gamma for s in kept]),
        np.array([s.sigma2 for s in kept]),
        np.array([s.phi2 for s in kept]),
        np.array([s.z_imputed[mask] for s in kept]),
    )


def gibbs_scan_moments(state, data, base, i, config, rng):
    """Reference Monte Carlo E-step moments for individual i: a Gibbs scan
    over the missing SNPs that recomputes the other k - 1 contributions
    through ``genotype_column_values`` for every cell, one ``rng.random()``
    per cell. ``base`` is i's residual without its missing cells."""
    missing = tuple(np.flatnonzero(data.genotypes.missing_mask[i]))
    k = len(missing)
    cols = [c for j in missing for c in data.design_columns_of_snp(int(j))]
    gam = state.gamma[cols]
    per_snp = len(cols) // k
    current = np.zeros(k)  # genotype codes of the missing SNPs
    design_rows = genotype_column_values(GENOTYPE_CODES, data.snp_coding)  # (3, per_snp)
    samples = np.zeros((config.mc_samples, len(cols)))
    n_kept = 0
    for sweep in range(config.mc_burn_in + config.mc_samples):
        for t in range(k):
            gsub = gam[t * per_snp : (t + 1) * per_snp]
            others = 0.0
            for t2 in range(k):
                if t2 == t:
                    continue
                row = genotype_column_values(current[t2 : t2 + 1], data.snp_coding)[0]
                others += float(row @ gam[t2 * per_snp : (t2 + 1) * per_snp])
            r = base - others
            cand = design_rows @ gsub
            logw = -((r - cand) ** 2) / (2.0 * state.sigma2)
            logw -= logw.max()
            p = np.exp(logw)
            p /= p.sum()
            draw = int((p.cumsum() < rng.random()).sum())
            current[t] = GENOTYPE_CODES[min(draw, 2)]
        if sweep >= config.mc_burn_in:
            samples[n_kept] = np.concatenate(
                [genotype_column_values(current[t : t + 1], data.snp_coding)[0]
                 for t in range(k)]
            )
            n_kept += 1
    mean = samples.mean(axis=0)
    centered = samples - mean
    cov = centered.T @ centered / max(n_kept - 1, 1)
    return mean, cov


def enumerate_completions(state, data, residual, i):
    """Reference exact enumeration for individual i alone: its genotype
    tuples (3^k, k) from ``itertools.product``, their design rows, the
    completion probabilities and the log normaliser. ``residual`` is
    y - X beta - Z0 gamma with every masked design entry zeroed."""
    missing = np.flatnonzero(data.genotypes.missing_mask[i])
    tuples = np.array(
        list(itertools.product(GENOTYPE_CODES.tolist(), repeat=len(missing))), dtype=float
    )
    rows = snp_design_matrix(tuples, data.snp_coding)
    cols = [c for j in missing for c in data.design_columns_of_snp(int(j))]
    logw = -((residual[i] - rows @ state.gamma[cols]) ** 2) / (2.0 * state.sigma2)
    top = logw.max()
    w = np.exp(logw - top)
    total = w.sum()
    return tuples, rows, w / total, float(top + np.log(total))


def observed_residual(state, data):
    """Z0, the design with masked entries zeroed, and y - X beta - Z0 gamma."""
    design = snp_design_matrix(data.genotypes.codes, data.snp_coding)
    per_snp = design.shape[1] // data.s
    design[np.repeat(data.genotypes.missing_mask, per_snp, axis=1)] = 0.0
    return design, data.y - data.X @ state.beta - design @ state.gamma


def per_individual_e_step(state, data, config, rng=None):
    """Reference E-step: every individual with missing genotypes on its own
    in index order, enumerated by ``enumerate_completions`` when its 3^k
    completions fit under the cap and otherwise scanned by
    ``gibbs_scan_moments`` (the generator made from ``config.seed`` at the
    first such individual when none is given). Returns (expected_Z, V_Z,
    exact everywhere, observed log likelihood or nan)."""
    expected, residual = observed_residual(state, data)
    mask = data.genotypes.missing_mask
    V = np.zeros((expected.shape[1], expected.shape[1]))
    terms = -(residual**2) / (2.0 * state.sigma2)
    exact = True
    for i in np.flatnonzero(mask.any(axis=1)):
        missing = np.flatnonzero(mask[i])
        cols = [c for j in missing for c in data.design_columns_of_snp(int(j))]
        if 3 ** len(missing) <= config.enumeration_cap:
            _, rows, probs, terms[i] = enumerate_completions(state, data, residual, i)
            mean = probs @ rows
            centered = rows - mean
            cov = (centered * probs[:, None]).T @ centered
        else:
            exact = False
            if rng is None:
                rng = np.random.default_rng(config.seed)
            mean, cov = gibbs_scan_moments(state, data, residual[i], i, config, rng)
        expected[i, cols] = mean
        V[np.ix_(cols, cols)] += cov
    loglik = float("nan")
    if exact:
        loglik = float(-0.5 * data.n * np.log(2.0 * np.pi * state.sigma2) + terms.sum())
    return expected, V, exact, loglik


def table_write_samples(path, samples, manifest_lines=()):
    """Reference samples writer: every cell through ``io.fmt`` into
    ``io.write_table``, which formats it once more."""
    names, cols = samples.coefficient_table()
    header = list(names)
    data = samples.data
    mask, ids = data.genotypes.missing_mask, data.ids
    s = mask.shape[1]
    for flat in np.flatnonzero(mask.ravel()):
        i, j = divmod(int(flat), s)
        rid = ids[i] if ids else str(i)
        header.append(f"zimp_{rid}_{data.genotypes.names()[j]}")
    body = []
    for i in range(samples.retained_count):
        row = [io.fmt(v) for v in cols[i]]
        if samples.masked_values.shape[1]:
            row += [str(int(v)) for v in samples.masked_values[i]]
        body.append(row)
    io.write_table(path, header, body, manifest_lines)


def row_by_row_select_files(out, trace, gamma_labels, manifest_lines=()):
    """Reference select writers: trace.csv, bf_diagnostics.csv and
    best_model.txt under ``out``, one row per visited model or first visit,
    every cell through ``io.fmt`` in ``io.write_table``."""
    io.write_table(
        out / "trace.csv", ["iteration", "delta", "log_bf", "accepted"],
        [(it, delta.bitstring(), log_bf, accepted)
         for it, (delta, log_bf, accepted) in enumerate(trace.visited)],
        manifest_lines,
    )
    firsts = np.flatnonzero(trace.first)
    io.write_table(
        out / "bf_diagnostics.csv",
        ["delta", "valid", "invalid", "log_term_variance", "weight_ess"],
        zip(trace.bitstrings(firsts),
            *(getattr(trace, name)[firsts].tolist()
              for name in ("sample_count", "invalid_count", "log_term_variance", "weight_ess"))),
        manifest_lines,
    )
    best = trace.best_row
    lines = [*manifest_lines, f"delta={trace.bitstrings([best])[0]}",
             f"log_bf={io.fmt(trace.log_value[best].item())}",
             "included=" + ";".join(gamma_labels[j] for j in trace.columns(best)),
             f"skipped={trace.skipped}"]
    (out / "best_model.txt").write_text("".join(line + "\n" for line in lines))


def indicator_proposal(current, rng, config):
    """Reference proposal on a ``ModelIndicator`` over the walk's
    candidates, in their given order: flip one uniformly chosen bit with
    probability ``mixture_prob``, otherwise draw a uniform model."""
    s = len(current.bits)
    if rng.random() < config.mixture_prob:
        j = int(rng.integers(s))
        bits = list(current.bits)
        bits[j] = 1 - bits[j]
        return ModelIndicator(tuple(bits))
    return ModelIndicator(tuple(int(b) for b in rng.integers(0, 2, size=s)))


def indicator_walk(samples, candidates, config):
    """Reference Metropolis-Hastings walk: each state a ``ModelIndicator``
    over ``candidates`` in their given order, widened to one over all s
    columns and then to a row over the statistics' candidates before it is
    scored, distinct models memoised by their bits."""
    s_full = samples.data.design_dim
    if candidates is None:
        candidates = tuple(range(s_full))
    else:
        candidates = tuple(int(j) for j in candidates)
    stats = bayes_factor_statistics(samples[-config.min_samples_per_bf:], candidates)
    rng = np.random.default_rng(config.seed)
    scored, estimates, visits, accepted = {}, [], [], []
    skipped = 0

    def evaluate(sub):
        if sub.bits not in scored:
            bits = [0] * s_full
            for k, j in enumerate(candidates):
                bits[j] = sub.bits[k]
            row = np.array([bits[j] == 1 for j in stats.candidates], dtype=bool)
            estimates.append(estimate_bayes_factor(stats, row))
            scored[sub.bits] = len(estimates) - 1
        return scored[sub.bits]

    current_sub = ModelIndicator((1,) * len(candidates))
    current = evaluate(current_sub)
    visits.append(current)
    accepted.append(True)
    for _ in range(config.search_iterations if candidates else 0):
        proposal_sub = indicator_proposal(current_sub, rng, config)
        try:
            proposal = evaluate(proposal_sub)
        except EstimationError:
            skipped += 1
            continue
        log_ratio = estimates[proposal].log_value - estimates[current].log_value
        accept = math.log(rng.random()) < log_ratio
        visits.append(proposal)
        accepted.append(bool(accept))
        if accept:
            current_sub, current = proposal_sub, proposal
    rows = np.array(visits)
    first = np.zeros(rows.size, dtype=bool)
    first[np.unique(rows, return_index=True)[1]] = True
    included = np.array(list(scored), dtype=bool).reshape(len(scored), len(candidates))
    return SearchTrace(
        s_full, candidates, included[rows], np.array(accepted), first,
        **{name: np.array([getattr(est, name) for est in estimates])[rows]
           for name in ESTIMATE_FIELDS},
        skipped=skipped,
    )


def loop_encode_genotypes(raw, snp_names=()):
    """Reference genotype coding: every cell through ``str(x).strip()``, a
    set of observed calls and a Python mapping loop per column."""
    calls = np.asarray(raw, dtype=object)
    if calls.ndim != 2:
        raise DataValidationError("raw genotype table must be 2-d")
    n, s = calls.shape
    names = tuple(snp_names) if snp_names else tuple(f"snp{j + 1}" for j in range(s))
    codes = np.zeros((n, s), dtype=np.int8)
    mask = np.zeros((n, s), dtype=bool)
    categories: list[dict] = []
    warnings: list[str] = []
    for j in range(s):
        col = [str(x).strip() for x in calls[:, j]]
        observed = sorted({x for x in col if x and x != "NA"})
        if not observed:
            raise DataValidationError(f"SNP column {names[j]!r} has no observed calls")
        if len(observed) > 3:
            raise DataValidationError(
                f"SNP column {names[j]!r} has {len(observed)} categories: "
                + ", ".join(observed)
            )
        homs = [c for c in observed if len(set(c)) == 1]
        hets = [c for c in observed if len(set(c)) > 1]
        if len(hets) > 1:
            raise DataValidationError(
                f"SNP column {names[j]!r} has multiple heterozygous calls: "
                + ", ".join(hets)
            )
        if len(homs) > 2:
            raise DataValidationError(
                f"SNP column {names[j]!r} has {len(homs)} homozygous calls"
            )
        mapping: dict[str, int] = {}
        if homs:
            mapping[max(homs)] = 1
            if len(homs) == 2:
                mapping[min(homs)] = -1
        if hets:
            mapping[hets[0]] = 0
        if len(observed) == 1:
            warnings.append(f"SNP column {names[j]!r} is monomorphic")
        for i, call in enumerate(col):
            if not call or call == "NA":
                mask[i, j] = True
            else:
                codes[i, j] = mapping[call]
        categories.append({code: call for call, code in mapping.items()})
    gm = GenotypeMatrix(codes, mask, names, tuple(categories))
    return gm, warnings


def ready_set_order(records):
    """Reference pedigree ordering: rescan every pending record for
    placeable ones until none is left, ids sorted within each pass."""
    by_id = {}
    for rec in records:
        if rec.individual_id in by_id:
            raise PedigreeError(f"duplicate individual id {rec.individual_id!r}")
        by_id[rec.individual_id] = rec
    for rec in by_id.values():
        for pid in rec.parents():
            if pid not in by_id:
                raise PedigreeError(
                    f"parent id {pid!r} of {rec.individual_id!r} not in pedigree"
                )
    placed, ordered, pending = set(), [], set(by_id)
    base_count = 0
    while pending:
        ready = sorted(
            rid for rid in pending if all(p in placed for p in by_id[rid].parents())
        )
        if not ready:
            raise PedigreeError(_describe_cycle(by_id, pending))
        for rid in ready:
            base_count += not by_id[rid].parents()
            ordered.append(by_id[rid])
            placed.add(rid)
            pending.discard(rid)
    return OrderedPedigree(tuple(ordered), base_count)


def column_read_numerator_matrix(ped):
    """Reference kinship recursion reading the parents' columns R[:j, g]."""
    n = len(ped)
    pos = {rid: k for k, rid in enumerate(ped.ids)}
    R = np.zeros((n, n))
    for j, rec in enumerate(ped.records):
        parents = [pos[p] for p in rec.parents()]
        if len(parents) == 2:
            g, h = parents
            row = 0.5 * (R[:j, g] + R[:j, h])
            R[j, j] = 1.0 + 0.5 * R[g, h]
        elif len(parents) == 1:
            row = 0.5 * R[:j, parents[0]]
            R[j, j] = 1.0
        else:
            row = np.zeros(j)
            R[j, j] = 1.0
        R[j, :j] = row
        R[:j, j] = row
    return RelationshipMatrix(ped.ids, R)


_DEFAULT_CALLS = {-1: "AA", 0: "AB", 1: "BB"}


def loop_decode_genotypes(gm):
    """Reference call table: every cell looked up in its column's categories
    one at a time."""
    n, s = gm.codes.shape
    out = np.empty((n, s), dtype=object)
    for j in range(s):
        cats = gm.categories[j] if gm.categories else _DEFAULT_CALLS
        for i in range(n):
            if gm.missing_mask[i, j]:
                out[i, j] = "NA"
            else:
                code = int(gm.codes[i, j])
                out[i, j] = cats.get(code, _DEFAULT_CALLS[code])
    return out


def dot_autocorrelations(x, max_lag=20):
    """Reference autocorrelations of one series: one dot product per lag."""
    x = np.asarray(x, dtype=float)
    x = x - x.mean()
    denom = float(x @ x)
    if denom == 0.0:
        return np.zeros(max_lag)
    return np.array([float(x[k:] @ x[:-k]) / denom for k in range(1, max_lag + 1)])


def per_column_masked_cells(Rinv, data):
    """Reference masked cells of every SNP column, as (design columns, rows,
    diagonal of R^-1 there, per cell the (m, R^-1[rows[m], rows[k]]) pairs
    of the later cells m with a non-zero coupling), one column at a time
    from its block of R^-1."""
    mask, per_snp = data.genotypes.missing_mask, data.columns_per_snp
    out = []
    for j in range(data.s):
        rows = np.flatnonzero(mask[:, j])
        block = Rinv[np.ix_(rows, rows)]
        later = [
            [(m, c) for m, c in enumerate(block[k + 1 :, k].tolist(), start=k + 1) if c != 0.0]
            for k in range(rows.size)
        ]
        out.append((slice(per_snp * j, per_snp * (j + 1)), rows.tolist(),
                    np.diag(block).tolist(), later))
    return out


def per_column_prior_draws(data, prior, rng):
    """Reference starting genotypes: each SNP column's masked cells drawn
    from the imputation prior, one ``rng.random`` per column."""
    mask = data.genotypes.missing_mask
    z = data.genotypes.codes.copy()
    for j in range(data.s):
        rows = np.flatnonzero(mask[:, j])
        if rows.size == 0:
            continue
        logw = prior.log_weights(rows, j)
        w = np.exp(logw - logw.max(axis=1, keepdims=True))
        w /= w.sum(axis=1, keepdims=True)
        u = rng.random(rows.size)
        idx = (w.cumsum(axis=1) < u[:, None]).sum(axis=1)
        z[rows, j] = GENOTYPE_CODES[np.minimum(idx, 2)]
    return z


def dense_inverse(A):
    return np.linalg.inv(A)


def random_spd(rng, dim, cond_low=0.5, cond_high=2.0):
    """Well-conditioned random SPD matrix (eigenvalues in [cond_low, cond_high])."""
    Q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    eig = rng.uniform(cond_low, cond_high, size=dim)
    return (Q * eig) @ Q.T
