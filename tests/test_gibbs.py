import dataclasses

import numpy as np
import pytest
import scipy.stats as st

import snpgibbs.gibbs as gibbs
from snpgibbs.gibbs import (
    ChainNumericalError,
    ChainWorkspace,
    DesignStatistics,
    GibbsConfig,
    ParameterState,
    autocorrelations,
    batch_mean_stderr,
    hpd_interval,
    impute_snp_column,
    initial_state,
    run_chain,
    sample_beta,
    sample_gamma,
    sample_phi2,
    sample_sigma2,
)
from snpgibbs.model import (
    Dataset,
    FamilyDesign,
    GenotypeMatrix,
    ImputationPrior,
    PhenotypeVector,
    PriorHyperparams,
    default_priors,
    snp_design_matrix,
)
from snpgibbs.pedigree import RelationshipMatrix

from conftest import fresh_workspace, make_dataset, poison_phi2
from _oracles import (
    dot_autocorrelations,
    imputation_probabilities,
    per_block_chain,
    per_column_masked_cells,
    per_column_prior_draws,
    sequential_impute,
    two_factorization_gamma,
    two_solve_beta,
)


def state_for(data, beta=None, gamma=None, sigma2=1.0, phi2=1.0, codes=None):
    z = codes.copy() if codes is not None else data.genotypes.codes.copy()
    return ParameterState(
        beta=np.zeros(data.X.shape[1]) if beta is None else np.asarray(beta, float),
        gamma=np.zeros(data.design_dim) if gamma is None else np.asarray(gamma, float),
        sigma2=sigma2,
        phi2=phi2,
        z_imputed=z,
    )


class TestSampleBeta:
    def test_ols_collapse_mean_is_sample_mean(self, rng):
        n = 40
        ids = tuple(f"i{k}" for k in range(n))
        y = rng.normal(5.0, 1.0, size=n)
        data = Dataset(
            genotypes=GenotypeMatrix(
                rng.integers(-1, 2, size=(n, 2)).astype(np.int8),
                np.zeros((n, 2), dtype=bool),
            ),
            phenotypes=PhenotypeVector(y),
            design=FamilyDesign(np.ones((n, 1))),
            kinship=RelationshipMatrix.identity(ids),
        )
        state = state_for(data, sigma2=1e-20)
        draw = sample_beta(state, rng, fresh_workspace(state, data))
        assert abs(draw[0] - y.mean()) < 1e-8

    def test_toy_gls_mean_matches_direct_solve(self, rng):
        data, _ = make_dataset(n=4, s=1, p=2, seed=9, kinship="correlated")
        state = state_for(data, gamma=[0.7], sigma2=1e-22)
        Rinv = np.linalg.inv(data.R)
        resid = data.y - snp_design_matrix(state.z_imputed, "signed") @ state.gamma
        expected = np.linalg.solve(data.X.T @ Rinv @ data.X, data.X.T @ Rinv @ resid)
        draw = sample_beta(state, rng, fresh_workspace(state, data))
        assert np.allclose(draw, expected, atol=1e-9)

    def test_variance_scales_linearly(self, rng):
        data, _ = make_dataset(n=12, s=2, p=1, seed=3)
        draws = {}
        for sigma2 in (1.0, 4.0):
            state = state_for(data, sigma2=sigma2)
            work = fresh_workspace(state, data)
            draws[sigma2] = np.array(
                [sample_beta(state, rng, work)[0] for _ in range(4000)]
            )
        ratio = draws[4.0].var() / draws[1.0].var()
        assert 3.3 < ratio < 4.8

    def test_exact_conditional_distribution(self, rng):
        data, _ = make_dataset(n=8, s=2, p=2, seed=5, kinship="correlated")
        state = state_for(data, gamma=[0.5, -0.2], sigma2=1.7)
        Zd = snp_design_matrix(state.z_imputed, "signed")
        XtRinv = data.X.T @ np.linalg.inv(data.R)
        resid = data.y - Zd @ state.gamma
        mean = np.linalg.solve(XtRinv @ data.X, XtRinv @ resid)
        cov = state.sigma2 * np.linalg.inv(XtRinv @ data.X)
        work = fresh_workspace(state, data)
        draws = np.array([sample_beta(state, rng, work) for _ in range(20000)])
        for k in range(2):
            z = (draws[:, k] - mean[k]) / np.sqrt(cov[k, k])
            assert st.kstest(z, "norm").pvalue > 0.001

    @pytest.mark.parametrize("coding", ["signed", "additive_dominance"])
    @pytest.mark.parametrize("kinship", ["identity", "correlated"])
    def test_matches_two_solve_reference(self, coding, kinship):
        data, _ = make_dataset(n=15, s=3, p=3, seed=8, coding=coding, kinship=kinship)
        setup = np.random.default_rng(2)
        work = ChainWorkspace(data, snp_design_matrix(data.genotypes.codes, data.snp_coding))
        for _ in range(5):
            state = state_for(
                data, gamma=setup.normal(size=data.design_dim),
                sigma2=float(setup.uniform(0.5, 2.0)),
            )
            seed = int(setup.integers(2**32))
            ours = sample_beta(state, np.random.default_rng(seed), work)
            ref = two_solve_beta(state, data, np.random.default_rng(seed))
            assert np.max(np.abs(ours - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestSampleGamma:
    def test_zero_residual_zero_mean(self, rng):
        data, _ = make_dataset(n=10, s=2, p=1, seed=1)
        beta = np.linalg.lstsq(data.X, data.y, rcond=None)[0]
        y_fit = data.X @ beta
        data = dataclasses.replace(data, phenotypes=PhenotypeVector(y_fit))
        state = state_for(data, beta=beta, sigma2=1e-22, phi2=1.0)
        draw = sample_gamma(state, rng, fresh_workspace(state, data))
        assert np.max(np.abs(draw)) < 1e-9

    def test_toy_mean_matches_dense_solve(self, rng):
        data, _ = make_dataset(n=6, s=2, p=1, seed=7, kinship="correlated")
        state = state_for(data, beta=[1.2], sigma2=1e-24, phi2=2.0)
        Zd = snp_design_matrix(state.z_imputed, "signed")
        Rinv = np.linalg.inv(data.R)
        M = Zd.T @ Rinv @ Zd + np.eye(2) / state.phi2
        expected = np.linalg.solve(M, Zd.T @ Rinv @ (data.y - data.X @ state.beta))
        draw = sample_gamma(state, rng, fresh_workspace(state, data))
        assert np.allclose(draw, expected, atol=1e-10)

    def test_ridge_limit_approaches_gls(self, rng):
        data, _ = make_dataset(n=30, s=2, p=1, seed=11)
        Zd = snp_design_matrix(data.genotypes.codes, "signed")
        Rinv = np.eye(30)
        beta = np.zeros(1)
        gls = np.linalg.solve(Zd.T @ Zd, Zd.T @ data.y)
        state = state_for(data, beta=beta, sigma2=1e-24, phi2=1e8)
        draw = sample_gamma(state, rng, fresh_workspace(state, data))
        assert np.allclose(draw, gls, atol=1e-5)

    def test_gram_argument_draws_the_same(self):
        data, _ = make_dataset(
            n=9, s=3, p=1, seed=14, coding="additive_dominance", kinship="correlated"
        )
        state = state_for(data, beta=[0.4], sigma2=0.8, phi2=1.5)
        # statistics of another design, brought to the state's design one
        # column refresh at a time, draw as the ones built from it
        work = ChainWorkspace(data, np.ones((data.n, data.design_dim)))
        work.stats.design[:] = snp_design_matrix(state.z_imputed, data.snp_coding)
        for c in range(data.design_dim):
            work.stats.refresh(c)
        built = sample_gamma(state, np.random.default_rng(7), fresh_workspace(state, data))
        given = sample_gamma(state, np.random.default_rng(7), work)
        np.testing.assert_allclose(given, built, rtol=1e-12, atol=1e-12)

    def test_exact_conditional_distribution(self, rng):
        data, _ = make_dataset(n=9, s=2, p=1, seed=13, kinship="correlated")
        state = state_for(data, beta=[0.4], sigma2=0.8, phi2=1.5)
        Zd = snp_design_matrix(state.z_imputed, "signed")
        Rinv = np.linalg.inv(data.R)
        M = Zd.T @ Rinv @ Zd + np.eye(2) / state.phi2
        Minv = np.linalg.inv(M)
        mean = Minv @ (Zd.T @ Rinv @ (data.y - data.X @ state.beta))
        cov = state.sigma2 * Minv
        work = fresh_workspace(state, data)
        draws = np.array([sample_gamma(state, rng, work) for _ in range(20000)])
        for k in range(2):
            z = (draws[:, k] - mean[k]) / np.sqrt(cov[k, k])
            assert st.kstest(z, "norm").pvalue > 0.001

    @pytest.mark.parametrize("kinship", ["identity", "correlated"])
    @pytest.mark.parametrize("coding", ["signed", "additive_dominance"])
    def test_matches_two_factorization_reference(self, coding, kinship):
        # 70 design columns: two full blocks of the back-substitution and a
        # partial one
        snps = 70 if coding == "signed" else 35
        data, _ = make_dataset(
            n=90, s=snps, p=2, seed=31, missing=0.1, coding=coding, kinship=kinship
        )
        assert data.design_dim == 70
        setup = np.random.default_rng(4)
        rng_ours, rng_ref = np.random.default_rng(8), np.random.default_rng(8)
        for _ in range(5):
            state = state_for(
                data,
                beta=setup.normal(size=2),
                sigma2=float(setup.uniform(0.1, 4.0)),
                phi2=float(10.0 ** setup.uniform(-2, 2)),
            )
            got = sample_gamma(state, rng_ours, fresh_workspace(state, data))
            want = two_factorization_gamma(state, data, rng_ref)
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
            assert rng_ours.bit_generator.state == rng_ref.bit_generator.state

    @pytest.mark.parametrize("snps", [10, 70])  # one block; two full blocks and a partial one
    def test_bordered_upper_triangle_is_never_read(self, snps):
        data, _ = make_dataset(
            n=90, s=snps, p=2, seed=31, missing=0.1, kinship="correlated"
        )
        s = data.design_dim
        work = ChainWorkspace(data, snp_design_matrix(data.genotypes.codes, data.snp_coding))
        setup = np.random.default_rng(4)
        rng_ours, rng_ref = np.random.default_rng(8), np.random.default_rng(8)
        for _ in range(3):
            state = state_for(
                data,
                beta=setup.normal(size=2),
                sigma2=float(setup.uniform(0.1, 4.0)),
                phi2=float(10.0 ** setup.uniform(-2, 2)),
            )
            work.bordered[np.triu_indices(s + 1, 1)] = np.nan
            got = sample_gamma(state, rng_ours, work)
            want = two_factorization_gamma(state, data, rng_ref)
            # the border's upper half was still NaN when it was factorized
            assert np.isnan(work.bordered[:s, s]).all()
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
            assert rng_ours.bit_generator.state == rng_ref.bit_generator.state

    def test_border_never_fails_a_definite_precision(self):
        data, _ = make_dataset(n=40, s=6, p=1, seed=32, kinship="correlated")
        big = dataclasses.replace(data, phenotypes=PhenotypeVector(1e6 * data.y))
        state = state_for(big, sigma2=1.0, phi2=1e6)
        Zd = snp_design_matrix(state.z_imputed, big.snp_coding)
        r = Zd.T @ np.linalg.solve(big.R, big.y)
        assert 1e7 < np.linalg.norm(r) < 1e9
        got = sample_gamma(state, np.random.default_rng(2), fresh_workspace(state, big))
        want = two_factorization_gamma(state, big, np.random.default_rng(2))
        assert np.isfinite(got).all()
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


class TestVarianceDraws:
    def test_sigma2_shape_formula(self, rng):
        # n=10, s=5, a=2 -> shape 9.5; zero residual, gamma 0 -> scale = b
        data, _ = make_dataset(n=10, s=5, p=1, seed=1)
        beta = np.linalg.lstsq(data.X, data.y, rcond=None)[0]
        data = dataclasses.replace(data, phenotypes=PhenotypeVector(data.X @ beta))
        state = state_for(data, beta=beta, gamma=np.zeros(5))
        priors = PriorHyperparams(a=2.0, b=1.0, c=2.0, d=1.0)
        work = fresh_workspace(state, data)
        draws = np.array([sample_sigma2(state, data, priors, rng, work) for _ in range(30000)])
        shape, scale = 10 / 2 + 5 / 2 + 2.0, priors.b
        assert st.kstest(draws, st.invgamma(shape, scale=scale).cdf).pvalue > 0.001

    def test_sigma2_moment_matches(self, rng):
        data, _ = make_dataset(n=10, s=3, p=2, seed=2, kinship="correlated")
        state = state_for(data, beta=[1.0, 2.0], gamma=[0.5, -0.5, 0.2], phi2=1.3)
        priors = default_priors()
        Zd = snp_design_matrix(state.z_imputed, "signed")
        # the design's statistics once, as a chain keeps them
        work = ChainWorkspace(data, Zd)
        resid = data.y - data.X @ state.beta - Zd @ state.gamma
        quad = resid @ work.Rinv @ resid
        shape = 10 / 2 + 3 / 2 + priors.a
        scale = (quad + state.gamma @ state.gamma / state.phi2 + 2 * priors.b) / 2
        draws = np.array(
            [sample_sigma2(state, data, priors, rng, work) for _ in range(1_000_000)]
        )
        expected_mean = scale / (shape - 1)
        assert abs(draws.mean() - expected_mean) / expected_mean < 0.01

    def test_phi2_shape_and_scale(self, rng):
        data, _ = make_dataset(n=8, s=4, p=1, seed=3)
        priors = PriorHyperparams(a=2, b=1, c=2, d=1)
        # gamma = 0 -> scale = d, shape = s/2 + c = 4
        state = state_for(data, gamma=np.zeros(4), sigma2=2.0)
        draws = np.array([sample_phi2(state, priors, rng) for _ in range(30000)])
        assert st.kstest(draws, st.invgamma(4.0, scale=1.0).cdf).pvalue > 0.001

    def test_phi2_quantile_oracle_nontrivial_gamma(self, rng):
        data, _ = make_dataset(n=8, s=3, p=1, seed=4)
        priors = PriorHyperparams(a=2, b=1, c=1.5, d=0.8)
        state = state_for(data, gamma=[1.0, -2.0, 0.5], sigma2=0.7)
        shape = 3 / 2 + priors.c
        scale = (state.gamma @ state.gamma / state.sigma2 + 2 * priors.d) / 2
        draws = np.array([sample_phi2(state, priors, rng) for _ in range(100_000)])
        assert st.kstest(draws, st.invgamma(shape, scale=scale).cdf).pvalue > 0.001


class TestImputation:
    def _one_missing_dataset(self, gamma_j=1.0, sigma2=1.0, resid=1.0):
        # single SNP, one masked cell, engineered residual for that cell
        n = 5
        ids = tuple(f"i{k}" for k in range(n))
        codes = np.array([[1], [0], [-1], [1], [0]], dtype=np.int8)
        mask = np.zeros((n, 1), dtype=bool)
        mask[0, 0] = True
        y = np.zeros(n)
        y[0] = resid  # beta = 0, so residual excluding the cell equals y
        data = Dataset(
            genotypes=GenotypeMatrix(codes, mask),
            phenotypes=PhenotypeVector(y),
            design=FamilyDesign(np.zeros((n, 1)) + 1e-9 * np.eye(n, 1)),
            kinship=RelationshipMatrix.identity(ids),
        )
        return data

    def test_uniform_when_gamma_zero(self):
        data, _ = make_dataset(n=10, s=3, missing=0.2, seed=6)
        state = state_for(data, gamma=np.zeros(3))
        rows, probs = imputation_probabilities(state, data, 0, ImputationPrior())
        if rows.size:
            assert np.allclose(probs, 1.0 / 3.0, atol=1e-12)

    def test_hand_computed_probabilities(self):
        # residual 1, gamma_j 1, sigma2 1: P prop (e^-2, e^-1/2, 1) over (-1, 0, +1)
        data = self._one_missing_dataset()
        state = state_for(data, beta=[0.0], gamma=[1.0], sigma2=1.0)
        state.z_imputed[0, 0] = 0
        rows, probs = imputation_probabilities(state, data, 0, ImputationPrior())
        w = np.array([np.exp(-2.0), np.exp(-0.5), 1.0])
        expected = w / w.sum()
        assert np.allclose(probs[0], expected, atol=1e-12)
        assert np.allclose(probs[0], [0.077695, 0.348208, 0.574097], atol=5e-7)

    def test_probabilities_sum_to_one(self):
        data, _ = make_dataset(n=25, s=4, missing=0.3, seed=8)
        state = state_for(data, gamma=np.array([2.0, -1.0, 0.5, 3.0]), sigma2=0.5)
        for j in range(4):
            rows, probs = imputation_probabilities(state, data, j, ImputationPrior())
            if rows.size:
                assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-12

    def test_sampling_frequencies_chi_square(self):
        data = self._one_missing_dataset()
        state = state_for(data, beta=[0.0], gamma=[1.0], sigma2=1.0)
        _, probs = imputation_probabilities(state, data, 0, ImputationPrior())
        rng = np.random.default_rng(42)
        counts = np.zeros(3)
        for _ in range(100_000):
            impute_snp_column(state, data, 0, rng, ImputationPrior(), fresh_workspace(state, data))
            counts[int(state.z_imputed[0, 0]) + 1] += 1
        pval = st.chisquare(counts, probs[0] * counts.sum()).pvalue
        assert pval > 0.001

    def test_informative_prior_shifts_mass(self):
        data = self._one_missing_dataset()
        state = state_for(data, beta=[0.0], gamma=[0.0], sigma2=1.0)
        w = np.full((5, 1, 3), 1.0 / 3.0)
        w[0, 0] = (0.8, 0.1, 0.1)
        prior = ImputationPrior("weighted", w)
        _, probs = imputation_probabilities(state, data, 0, prior)
        assert np.allclose(probs[0], [0.8, 0.1, 0.1], atol=1e-12)

    def test_observed_entries_never_touched(self, rng):
        data, truth = make_dataset(n=20, s=4, missing=0.25, seed=9)
        state = state_for(data, gamma=rng.normal(size=4))
        mask = data.genotypes.missing_mask
        for j in range(4):
            impute_snp_column(state, data, j, rng, ImputationPrior(), fresh_workspace(state, data))
        assert np.array_equal(state.z_imputed[~mask], data.genotypes.codes[~mask])

    def test_delta_reflects_code_changes(self, rng):
        data, _ = make_dataset(n=30, s=3, missing=0.4, seed=10, coding="additive_dominance")
        state = state_for(data, gamma=rng.normal(size=6), sigma2=0.3)
        before = snp_design_matrix(state.z_imputed, "additive_dominance")
        work = ChainWorkspace(data, before)
        changed = impute_snp_column(state, data, 1, rng, ImputationPrior(), work)
        # the design written in place is the design of the new codes, the
        # returned columns are exactly the ones that moved, and the
        # statistics are those of the new design
        Zd = work.stats.design
        assert np.array_equal(Zd, snp_design_matrix(state.z_imputed, "additive_dominance"))
        assert changed == np.flatnonzero((Zd != before).any(axis=0)).tolist()
        assert changed
        fresh = DesignStatistics(data, work.Rinv, Zd)
        for name in ("Rinv_W", "cross"):
            np.testing.assert_allclose(
                getattr(work.stats, name), getattr(fresh, name), rtol=1e-13, atol=1e-13
            )

    @pytest.mark.parametrize("prior_mode", ["uniform", "file"])
    @pytest.mark.parametrize("kinship", ["identity", "correlated"])
    @pytest.mark.parametrize("coding", ["signed", "additive_dominance"])
    def test_matches_sequential_reference(self, coding, kinship, prior_mode):
        data, _ = make_dataset(
            n=30, s=4, p=2, seed=17, missing=0.3, coding=coding, kinship=kinship
        )
        setup = np.random.default_rng(5)
        prior = ImputationPrior()
        if prior_mode == "file":
            w = setup.dirichlet(np.ones(3), size=(data.n, data.s))
            w[::4, :, 0] = 0.0  # impossible classes: -inf log weights
            prior = ImputationPrior("weighted", w / w.sum(axis=2, keepdims=True))
        ours = state_for(data, beta=setup.normal(size=2))
        ref = ours.copy()
        work = ChainWorkspace(data, snp_design_matrix(ours.z_imputed, data.snp_coding))
        ref_design = work.stats.design.copy()
        rng_ours, rng_ref = np.random.default_rng(9), np.random.default_rng(9)
        changed = 0
        for t in range(200):
            gamma = setup.normal(size=data.design_dim)
            sigma2 = float(setup.uniform(0.2, 3.0))
            ours.gamma, ours.sigma2 = gamma.copy(), sigma2
            ref.gamma, ref.sigma2 = gamma.copy(), sigma2
            j = t % data.s
            got = impute_snp_column(ours, data, j, rng_ours, prior, work)
            want = sequential_impute(ref, data, j, rng_ref, prior)
            assert np.array_equal(ours.z_imputed, ref.z_imputed)
            assert got == [d.column_index for d in want]
            for d in want:
                ref_design[:, d.column_index] += d.delta
            assert np.array_equal(work.stats.design, ref_design)
            assert rng_ours.bit_generator.state == rng_ref.bit_generator.state
            changed += bool(got)
        assert changed > 50


class TestChainSetUp:
    @pytest.mark.parametrize("chunk", [gibbs.COUPLING_CHUNK, 1, 40])
    @pytest.mark.parametrize("kinship", ["identity", "correlated"])
    @pytest.mark.parametrize("coding", ["signed", "additive_dominance"])
    def test_masked_cells_match_per_column_reference(self, monkeypatch, coding, kinship, chunk):
        # chunk 1 gathers each column's couplings alone, 40 a few columns at once
        monkeypatch.setattr(gibbs, "COUPLING_CHUNK", chunk)
        data, _ = make_dataset(
            n=30, s=7, p=2, seed=8, missing=0.35, coding=coding, kinship=kinship
        )
        inv = np.linalg.inv
        Rinv = inv(data.R)
        if kinship == "correlated":  # some zero couplings among non-zero ones
            Rinv[np.abs(Rinv) < np.median(np.abs(Rinv))] = 0.0
        monkeypatch.setattr(
            gibbs.np.linalg, "inv", lambda A: Rinv.copy() if A is data.R else inv(A)
        )
        work = ChainWorkspace(data, snp_design_matrix(data.genotypes.codes, data.snp_coding))
        got = [(c.design, c.rows.tolist(), c.diag, c.later) for c in work.masked]
        assert got == per_column_masked_cells(Rinv, data)
        coupled = [pairs for c in work.masked for pairs in c.later if pairs]
        assert bool(coupled) == (kinship == "correlated")

    def test_kinship_inverted_once_per_dataset(self, monkeypatch):
        # two chains and the Bayes-factor statistics all read one R^-1
        from snpgibbs.selector import bayes_factor_statistics

        data, _ = make_dataset(n=20, s=3, p=2, seed=8, missing=0.2, kinship="correlated")
        inv, calls = np.linalg.inv, []

        def counting(A):
            calls.append(A is data.R)
            return inv(A)

        monkeypatch.setattr(np.linalg, "inv", counting)
        chains = [
            run_chain(data, default_priors(),
                      GibbsConfig(total_iterations=60, burn_in=20, thinning=1, seed=seed))
            for seed in (1, 2)
        ]
        bayes_factor_statistics(chains[0], [0, 1])
        assert sum(calls) == 1
        assert data.Rinv is data.Rinv and not data.Rinv.flags.writeable
        assert data.Rinv.tobytes() == inv(data.R).tobytes()

    def test_masked_cells_of_complete_columns(self):
        data, _ = make_dataset(n=12, s=3, p=2, seed=1, kinship="correlated")
        work = ChainWorkspace(data, snp_design_matrix(data.genotypes.codes, data.snp_coding))
        assert [(c.rows.size, c.diag, c.later) for c in work.masked] == [(0, [], [])] * 3

    @pytest.mark.parametrize("prior_mode", ["uniform", "file"])
    def test_prior_draws_match_per_column_reference(self, prior_mode):
        data, _ = make_dataset(n=40, s=6, p=2, seed=19, missing=0.3)
        prior = ImputationPrior()
        if prior_mode == "file":
            w = np.random.default_rng(2).dirichlet(np.ones(3), size=(data.n, data.s))
            w[::3, :, 2] = 0.0  # impossible classes: -inf log weights
            prior = ImputationPrior("weighted", w / w.sum(axis=2, keepdims=True))
        ours, ref = np.random.default_rng(3), np.random.default_rng(3)
        state = initial_state(data, GibbsConfig(imputation_prior=prior), ours)
        assert np.array_equal(state.z_imputed, per_column_prior_draws(data, prior, ref))
        assert ours.bit_generator.state == ref.bit_generator.state


class TestDesignStatistics:
    def test_refresh_of_an_index_array_matches_a_fresh_build(self):
        # the selector's call form: cells of non-contiguous design columns
        # rewritten, then one refresh of exactly those columns
        data, _ = make_dataset(
            n=25, s=6, p=2, seed=33, coding="additive_dominance", kinship="correlated"
        )
        Rinv = np.linalg.inv(data.R)
        stats = DesignStatistics(
            data, Rinv, snp_design_matrix(data.genotypes.codes, data.snp_coding)
        )
        cols = np.array([1, 4, 9])
        rows = np.array([0, 3, 7, 12, 20])
        stats.design[np.ix_(rows, cols)] = 1.0 - stats.design[np.ix_(rows, cols)]
        fresh = DesignStatistics(data, Rinv, stats.design.copy())
        assert not np.allclose(stats.cross, fresh.cross)  # stale before the refresh
        stats.refresh(cols)
        for name in ("W", "Rinv_W", "cross"):
            got, want = getattr(stats, name), getattr(fresh, name)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestRunChain:
    def test_zero_missingness_matches_disabled_imputation(self):
        data, _ = make_dataset(n=15, s=3, p=2, seed=20)
        priors = default_priors()
        base = dict(total_iterations=300, burn_in=100, thinning=2, seed=5)
        a = run_chain(data, priors, GibbsConfig(**base, impute_mode="cycle"))
        b = run_chain(data, priors, GibbsConfig(**base, impute_mode="off"))
        assert np.array_equal(a.gammas, b.gammas)
        assert np.array_equal(a.betas, b.betas)
        assert np.array_equal(a.sigma2s, b.sigma2s)

    def test_seed_determinism_bitwise(self):
        data, _ = make_dataset(n=12, s=3, p=2, seed=21, missing=0.15)
        priors = default_priors()
        cfg = GibbsConfig(total_iterations=400, burn_in=200, thinning=3, seed=77)
        a = run_chain(data, priors, cfg)
        b = run_chain(data, priors, cfg)
        assert np.array_equal(a.betas, b.betas)
        assert np.array_equal(a.gammas, b.gammas)
        assert np.array_equal(a.sigma2s, b.sigma2s)
        assert np.array_equal(a.phi2s, b.phi2s)
        assert np.array_equal(a.masked_values, b.masked_values)

    def test_retained_count_formula(self):
        data, _ = make_dataset(n=10, s=2, seed=22)
        cfg = GibbsConfig(total_iterations=1005, burn_in=1000, thinning=4, seed=1)
        post = run_chain(data, default_priors(), cfg)
        assert cfg.retained_count == (1005 - 1000) // 4 == 1
        assert post.retained_count == 1
        assert post.betas.shape[0] == 1

    def test_states_view_and_observed_entries(self):
        data, _ = make_dataset(n=12, s=3, missing=0.2, seed=23)
        cfg = GibbsConfig(total_iterations=60, burn_in=30, thinning=3, seed=2)
        post = run_chain(data, default_priors(), cfg)
        mask = data.genotypes.missing_mask
        for state in map(post.state, range(post.retained_count)):
            assert np.array_equal(state.z_imputed[~mask], data.genotypes.codes[~mask])
            assert np.isin(state.z_imputed[mask], [-1, 0, 1]).all()

    @pytest.mark.parametrize("mode", ["cycle", "all"])
    def test_maintained_gram_stays_exact(self, monkeypatch, mode):
        data, _ = make_dataset(
            n=20, s=5, p=2, seed=25, missing=0.3,
            coding="additive_dominance", kinship="correlated",
        )
        Rinv = np.linalg.inv(data.R)
        errors, designs = [], set()
        real = gibbs.sample_gamma

        def checked(state, rng, work):
            stats = work.stats
            design = stats.design
            assert np.array_equal(
                design, snp_design_matrix(state.z_imputed, data.snp_coding)
            )
            RinvZ = Rinv @ design
            fresh = {
                "Rinv_Z": RinvZ,
                "gram": design.T @ RinvZ,
                "Xt_Rinv_Z": data.X.T @ RinvZ,
                "Zt_Rinv_y": RinvZ.T @ data.y,
                "Xt_Rinv_y": data.X.T @ Rinv @ data.y,
            }
            kept = {
                "Rinv_Z": stats.Rinv_W[:, : design.shape[1]],
                "gram": stats.gram,
                "Xt_Rinv_Z": stats.Xt_Rinv_Z,
                "Zt_Rinv_y": stats.Zt_Rinv_y,
                "Xt_Rinv_y": stats.Xt_Rinv_y,
            }
            errors.append(max(
                np.max(np.abs(kept[name] - want)) / np.max(np.abs(want))
                for name, want in fresh.items()
            ))
            designs.add(design.tobytes())
            return real(state, rng, work)

        monkeypatch.setattr(gibbs, "sample_gamma", checked)
        cfg = GibbsConfig(
            total_iterations=1500, burn_in=500, thinning=5, seed=3, impute_mode=mode
        )
        run_chain(data, default_priors(), cfg)
        assert len(errors) == 1500
        assert len(designs) > 100  # imputation kept changing the design
        assert max(errors) < 1e-12

    @pytest.mark.parametrize("kinship", ["identity", "correlated"])
    @pytest.mark.parametrize("mode", ["cycle", "all"])
    def test_imputation_reads_the_current_residual_image(self, monkeypatch, mode, kinship):
        data, _ = make_dataset(
            n=20, s=5, p=2, seed=25, missing=0.3,
            coding="additive_dominance", kinship=kinship,
        )
        errors, handed = [], []
        real = gibbs._residual_image_at

        def checked(rows, state, work, image):
            u = real(rows, state, work, image)
            Zd = snp_design_matrix(state.z_imputed, data.snp_coding)
            resid = data.y - data.X @ state.beta - Zd @ state.gamma
            fresh = np.linalg.solve(data.R, resid)[rows]
            errors.append(np.max(np.abs(np.array(u) - fresh)) / np.max(np.abs(fresh)))
            handed.append(image is not None)
            return u

        monkeypatch.setattr(gibbs, "_residual_image_at", checked)
        cfg = GibbsConfig(
            total_iterations=600, burn_in=100, thinning=2, seed=6, impute_mode=mode
        )
        run_chain(data, default_priors(), cfg)
        assert len(errors) == (600 if mode == "cycle" else 3000)
        assert max(errors) < 1e-12
        # the sigma^2 draw's image was read, and u was formed afresh where
        # there was none (the first sweep; in "all" mode, after a change)
        assert 0 < sum(handed) < len(handed)

    @pytest.mark.parametrize("kinship", ["identity", "correlated"])
    @pytest.mark.parametrize("coding", ["signed", "additive_dominance"])
    @pytest.mark.parametrize("mode", ["cycle", "all", "off"])
    def test_matches_per_block_reference(self, monkeypatch, mode, coding, kinship):
        data, _ = make_dataset(
            n=30, s=4, p=2, seed=17, missing=0.3, coding=coding, kinship=kinship
        )
        priors = default_priors()
        cfg = GibbsConfig(
            total_iterations=300, burn_in=100, thinning=2, seed=4, impute_mode=mode
        )
        made, real_rng = [], np.random.default_rng
        monkeypatch.setattr(
            gibbs.np.random, "default_rng", lambda seed: made.append(real_rng(seed)) or made[-1]
        )
        post = run_chain(data, priors, cfg)
        rng_ref = real_rng(cfg.seed)
        betas, gammas, sigma2s, phi2s, masked = per_block_chain(data, priors, cfg, rng_ref)
        for got, want in [
            (post.betas, betas), (post.gammas, gammas),
            (post.sigma2s, sigma2s), (post.phi2s, phi2s),
        ]:
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
        assert np.array_equal(post.masked_values, masked)
        assert made[0].bit_generator.state == rng_ref.bit_generator.state
        if mode != "off":  # the imputation moved the design
            assert len({row.tobytes() for row in masked}) > 10

    def test_gamma_failure_carries_iteration(self, monkeypatch):
        data, _ = make_dataset(n=12, s=3, p=2, seed=26, missing=0.2)
        poison_phi2(monkeypatch, 37)
        cfg = GibbsConfig(total_iterations=100, burn_in=50, seed=1)
        with pytest.raises(ChainNumericalError) as info:
            run_chain(data, default_priors(), cfg)
        assert info.value.iteration == 37
        assert info.value.state is not None

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GibbsConfig(total_iterations=10, burn_in=10)
        with pytest.raises(ValueError, match="burn_in must be >= 0"):
            GibbsConfig(total_iterations=10, burn_in=-5)
        with pytest.raises(ValueError):
            GibbsConfig(thinning=0)
        with pytest.raises(ValueError):
            GibbsConfig(impute_mode="sometimes")

    def test_default_chain_lengths(self):
        cfg = GibbsConfig()
        assert cfg.total_iterations == 50_000
        assert cfg.burn_in == 10_000
        assert cfg.thinning == 4
        assert cfg.retained_count == 10_000

    def test_initial_state_complete_case_gls(self):
        data, truth = make_dataset(n=60, s=2, p=2, seed=24, sigma2=0.01)
        rng = np.random.default_rng(0)
        state = initial_state(data, GibbsConfig(), rng)
        # complete data, tiny noise: init should land near the truth
        assert np.allclose(state.beta, truth["beta"], atol=0.5)
        assert np.allclose(state.gamma, truth["gamma"], atol=0.5)


class TestHpd:
    def test_normal_interval(self):
        rng = np.random.default_rng(1)
        draws = rng.standard_normal(1_000_000)
        ci = hpd_interval(draws, 0.95)
        assert abs(ci.lower + 1.959964) < 0.01
        assert abs(ci.upper - 1.959964) < 0.01
        assert ci.contains_zero

    def test_symmetric_matches_central_quantiles(self):
        rng = np.random.default_rng(2)
        draws = rng.normal(5.0, 1.0, size=200_000)
        ci = hpd_interval(draws, 0.9)
        lo, hi = np.quantile(draws, [0.05, 0.95])
        assert abs(ci.lower - lo) < 0.05
        assert abs(ci.upper - hi) < 0.05
        assert not ci.contains_zero

    def test_constant_draws_degenerate(self):
        ci = hpd_interval(np.full(500, 2.5), 0.95)
        assert ci.lower == ci.upper == 2.5

    def test_skewed_shorter_than_central(self):
        rng = np.random.default_rng(3)
        draws = rng.gamma(2.0, size=300_000)
        ci = hpd_interval(draws, 0.95)
        lo, hi = np.quantile(draws, [0.025, 0.975])
        assert (ci.upper - ci.lower) < (hi - lo)

    def test_too_few_draws(self):
        with pytest.raises(ValueError, match="100"):
            hpd_interval(np.arange(50), 0.95)

    def test_bad_level(self):
        with pytest.raises(ValueError):
            hpd_interval(np.arange(200.0), 1.5)


class TestDiagnostics:
    def test_autocorrelations_white_noise(self):
        rng = np.random.default_rng(4)
        acf = autocorrelations(rng.standard_normal(20000), max_lag=5)
        assert np.max(np.abs(acf)) < 0.05

    def test_autocorrelations_ar1(self):
        rng = np.random.default_rng(5)
        x = np.zeros(50000)
        for t in range(1, x.size):
            x[t] = 0.8 * x[t - 1] + rng.standard_normal()
        acf = autocorrelations(x, max_lag=3)
        assert abs(acf[0] - 0.8) < 0.03

    @pytest.mark.parametrize("draws", [150, 4000])
    def test_batched_columns_match_single_series(self, draws):
        rng = np.random.default_rng(7)
        cols = rng.standard_normal((draws, 9)) * rng.uniform(0.01, 50, 9) + rng.uniform(-9, 9, 9)
        cols[:, 3] = 2.5  # constant: zeros
        cols[:, 4] = 0.1  # constant, but its mean is not exactly 0.1
        cols[:, 5] = cols[:, 5].round()
        acf = autocorrelations(cols, max_lag=20)
        assert acf.shape == (9, 20) and not acf[3].any()
        for k in range(9):
            assert np.array_equal(acf[k], dot_autocorrelations(cols[:, k], 20))
            assert np.array_equal(acf[k], autocorrelations(cols[:, k], 20))

    def test_batch_mean_stderr_iid(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(30000)
        se = batch_mean_stderr(x)
        assert 0.3 / np.sqrt(30000) < se < 3.0 / np.sqrt(30000)
