"""Joint-distribution testing of the full-conditional samplers.

Two simulators of the joint law of (parameters, data) are compared:

  marginal-conditional: draw parameters from the prior, then data from the
      model; every draw is independent.
  successive-conditional: alternate a fresh data draw given the current
      parameters with one sweep of the library's full-conditional samplers
      given that data.

If the conditionals are correct, both simulators target the same joint
distribution, so the means of any test statistic agree. beta has a flat
prior (no prior to draw from) and is held fixed; it is validated separately
against its exact Gaussian conditional.
"""

import dataclasses

import numpy as np

from snpgibbs.gibbs import (
    ParameterState,
    impute_snp_column,
    sample_gamma,
    sample_phi2,
    sample_sigma2,
)
from snpgibbs.model import (
    GENOTYPE_CODES,
    Dataset,
    ImputationPrior,
    PhenotypeVector,
    PriorHyperparams,
    snp_design_matrix,
)

from conftest import fresh_workspace
from _oracles import imputation_probabilities


def _draw_inverse_gamma(rng, shape, scale):
    return float(scale / rng.gamma(shape))


def _draw_prior_state(data, priors, rng):
    sd = data.design_dim
    sigma2 = _draw_inverse_gamma(rng, priors.a, priors.b)
    phi2 = _draw_inverse_gamma(rng, priors.c, priors.d)
    gamma = rng.standard_normal(sd) * np.sqrt(sigma2 * phi2)
    z = data.genotypes.codes.copy()
    mask = data.genotypes.missing_mask
    z[mask] = rng.choice(np.array([-1, 0, 1], dtype=np.int8), size=int(mask.sum()))
    return gamma, sigma2, phi2, z


def _draw_data(data, beta0, gamma, sigma2, z, Lr, rng) -> Dataset:
    Zd = snp_design_matrix(z, data.snp_coding)
    y = data.X @ beta0 + Zd @ gamma + np.sqrt(sigma2) * (Lr @ rng.standard_normal(data.n))
    return dataclasses.replace(data, phenotypes=PhenotypeVector(y))


def _stats(gamma, sigma2, phi2, z, mask):
    return np.array(
        [
            gamma[0],
            float(np.mean(gamma) ** 2),
            np.log(sigma2),
            np.log(phi2),
            float(np.mean(z[mask] == 1)) if mask.any() else 0.0,
            gamma[0] ** 2 * 0.0 + float(np.sum(gamma**2)),
        ]
    )


def exact_impute(state, data, j, rng, prior):
    """The library's exact kernel, on a workspace of the state's design."""
    return impute_snp_column(state, data, j, rng, prior, fresh_workspace(state, data))


def per_individual_impute(state, data, j, rng, prior):
    """Draw column j's masked cells independently, each from its
    per-individual conditional (``imputation_probabilities``). That is the
    exact conditional only when R = I: the negative control's sampler."""
    rows, probs = imputation_probabilities(state, data, j, prior)
    if rows.size:
        u = rng.random(rows.size)
        idx = (probs.cumsum(axis=1) < u[:, None]).sum(axis=1)
        state.z_imputed[rows, j] = GENOTYPE_CODES[np.minimum(idx, 2)]


def geweke_compare(
    data: Dataset,
    beta0,
    priors: PriorHyperparams,
    n_marginal=40_000,
    n_successive=60_000,
    seed=0,
    impute=exact_impute,
    n_batches=40,
):
    """Return z-scores comparing test-statistic means across the two
    simulators (batch-means variance on the successive side). ``impute``
    draws one SNP column's masked cells; the library's exact kernel by
    default."""
    rng = np.random.default_rng(seed)
    beta0 = np.asarray(beta0, dtype=float)
    mask = data.genotypes.missing_mask
    Lr = np.linalg.cholesky(data.R)
    prior_impute = ImputationPrior()

    mc = np.empty((n_marginal, 6))
    for t in range(n_marginal):
        gamma, sigma2, phi2, z = _draw_prior_state(data, priors, rng)
        mc[t] = _stats(gamma, sigma2, phi2, z, mask)

    gamma, sigma2, phi2, z = _draw_prior_state(data, priors, rng)
    state = ParameterState(beta0.copy(), gamma, sigma2, phi2, z)
    sc = np.empty((n_successive, 6))
    for t in range(n_successive):
        current = _draw_data(data, beta0, state.gamma, state.sigma2, state.z_imputed, Lr, rng)
        for j in range(current.s):
            impute(state, current, j, rng, prior_impute)
        # the gamma draw leaves the design, so both blocks read one workspace
        work = fresh_workspace(state, current)
        state.gamma = sample_gamma(state, rng, work)
        state.sigma2 = sample_sigma2(state, current, priors, rng, work)
        state.phi2 = sample_phi2(state, priors, rng)
        sc[t] = _stats(state.gamma, state.sigma2, state.phi2, state.z_imputed, mask)

    var_mc = mc.var(axis=0, ddof=1) / n_marginal
    size = n_successive // n_batches
    batches = sc[: size * n_batches].reshape(n_batches, size, 6).mean(axis=1)
    var_sc = batches.var(axis=0, ddof=1) / n_batches
    z_scores = (mc.mean(axis=0) - sc.mean(axis=0)) / np.sqrt(var_mc + var_sc)
    return z_scores
