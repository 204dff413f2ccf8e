import itertools
import math

import numpy as np
import pytest

import snpgibbs.em as em
from snpgibbs.em import (
    EmConfig,
    EmState,
    EnumerationCapError,
    MissingPattern,
    e_step,
    m_step,
    observed_loglik,
    run_em,
)
from snpgibbs.gibbs import ParameterState
from snpgibbs.model import ImputationPrior, snp_design_matrix

from conftest import make_dataset
from _oracles import (
    enumerate_completions,
    gibbs_scan_moments,
    imputation_probabilities,
    observed_residual,
    per_individual_e_step,
)


def em_state(data, beta=None, gamma=None, sigma2=1.0):
    return EmState(
        beta=np.zeros(data.X.shape[1]) if beta is None else np.asarray(beta, float),
        gamma=np.zeros(data.design_dim) if gamma is None else np.asarray(gamma, float),
        sigma2=sigma2,
    )


def missing_distribution(state, data, i):
    """Individual i's posterior over its missing genotype tuples, from the
    E-step's grouped enumeration run on i alone: (tuples, probabilities),
    the tuples (3^k, k) over its missing SNPs in index order."""
    missing = np.flatnonzero(data.genotypes.missing_mask[i])
    _, residual = em._observed(state, data)
    probs = em._enumerate(state, data, residual, np.array([i]), missing[None, :])[1]
    return em._genotype_tuples(missing.size), probs[0]


def brute_force_distribution(state, data, i):
    """Plain-python enumeration of the missing-tuple posterior."""
    missing = list(np.flatnonzero(data.genotypes.missing_mask[i]))
    k = len(missing)
    tuples = list(itertools.product([-1, 0, 1], repeat=k))
    weights = []
    for values in tuples:
        z = data.genotypes.codes[i].astype(float).copy()
        for t, j in enumerate(missing):
            z[j] = values[t]
        row = snp_design_matrix(z[None, :], data.snp_coding)[0]
        r = data.y[i] - data.X[i] @ state.beta - row @ state.gamma
        weights.append(np.exp(-(r**2) / (2 * state.sigma2)))
    weights = np.array(weights)
    return np.array(tuples, dtype=float), weights / weights.sum()


class TestMissingDistribution:
    def test_uniform_when_gamma_zero(self):
        data, _ = make_dataset(n=8, s=3, missing=0.3, seed=1)
        state = em_state(data)
        pattern = MissingPattern.from_dataset(data)
        i = pattern.individuals_with_missing()[0]
        tuples, probs = missing_distribution(state, data, i)
        assert np.allclose(probs, 1.0 / len(probs), atol=1e-12)

    def test_k1_matches_gibbs_conditional(self):
        data, _ = make_dataset(n=10, s=2, seed=2)
        mask = np.zeros((10, 2), dtype=bool)
        mask[4, 1] = True
        import dataclasses

        from snpgibbs.model import GenotypeMatrix

        data = dataclasses.replace(
            data, genotypes=GenotypeMatrix(data.genotypes.codes, mask)
        )
        state = em_state(data, beta=[0.3, -0.1], gamma=[1.2, -0.7], sigma2=0.8)
        tuples, probs = missing_distribution(state, data, 4)
        gibbs_state = ParameterState(
            state.beta, state.gamma, state.sigma2, 1.0, data.genotypes.codes.copy()
        )
        rows, gprobs = imputation_probabilities(gibbs_state, data, 1, ImputationPrior())
        assert rows[0] == 4
        order = np.argsort(tuples[:, 0])  # tuples over (-1, 0, 1)
        assert np.allclose(probs[order], gprobs[0], atol=1e-12)

    def test_k2_matches_brute_force(self):
        data, _ = make_dataset(n=6, s=3, seed=3)
        mask = np.zeros((6, 3), dtype=bool)
        mask[2, 0] = mask[2, 2] = True
        import dataclasses

        from snpgibbs.model import GenotypeMatrix

        data = dataclasses.replace(
            data, genotypes=GenotypeMatrix(data.genotypes.codes, mask)
        )
        state = em_state(data, gamma=[0.9, -0.4, 1.5], sigma2=0.6)
        tuples, probs = missing_distribution(state, data, 2)
        btuples, bprobs = brute_force_distribution(state, data, 2)
        assert np.allclose(tuples, btuples)
        assert np.allclose(probs, bprobs, atol=1e-12)
        assert abs(probs.sum() - 1.0) < 1e-12

    def test_cap_enforced(self):
        data, _ = make_dataset(n=4, s=8, seed=4)
        mask = np.zeros((4, 8), dtype=bool)
        mask[0, :7] = True  # 3^7 = 2187 > default cap
        import dataclasses

        from snpgibbs.model import GenotypeMatrix

        data = dataclasses.replace(
            data, genotypes=GenotypeMatrix(data.genotypes.codes, mask)
        )
        state = em_state(data)
        with pytest.raises(EnumerationCapError, match="individual 0 has 7 missing SNPs"):
            observed_loglik(state, data)
        # the E-step takes that individual by Monte Carlo instead
        assert not e_step(state, data)[2]


class TestEStep:
    def test_no_missing_data(self):
        data, _ = make_dataset(n=10, s=3, seed=5)
        state = em_state(data)
        expected, V, exact, _ = e_step(state, data)
        assert exact
        assert np.array_equal(expected, snp_design_matrix(data.genotypes.codes, "signed"))
        assert np.array_equal(V, np.zeros((3, 3)))

    def test_symmetric_two_point_posterior(self):
        import dataclasses

        from snpgibbs.model import Dataset, FamilyDesign, GenotypeMatrix, PhenotypeVector
        from snpgibbs.pedigree import RelationshipMatrix

        n = 4
        codes = np.array([[1], [0], [-1], [0]], dtype=np.int8)
        mask = np.zeros((n, 1), dtype=bool)
        mask[0, 0] = True
        data = Dataset(
            genotypes=GenotypeMatrix(codes, mask),
            phenotypes=PhenotypeVector(np.zeros(n)),
            design=FamilyDesign(np.eye(n, 1)),
            kinship=RelationshipMatrix.identity([f"i{k}" for k in range(n)]),
        )
        # additive + dominance with zero additive effect and a large dominance
        # penalty: contributions are 0 for c = -1/+1 and -8 for c = 0, so the
        # posterior is symmetric on {-1, +1} with P(0) ~ 0: E = 0, Var = 1
        data = dataclasses.replace(data, snp_coding="additive_dominance")
        state = em_state(data, gamma=[0.0, -8.0], sigma2=0.5)
        expected, V, exact, _ = e_step(state, data)
        assert exact
        assert abs(expected[0, 0]) < 1e-12
        assert abs(V[0, 0] - 1.0) < 1e-10

    def test_mc_fallback_close_to_exact(self):
        data, _ = make_dataset(n=5, s=3, seed=6)
        mask = np.zeros((5, 3), dtype=bool)
        mask[1] = True  # k = 3 for one individual
        import dataclasses

        from snpgibbs.model import GenotypeMatrix

        data = dataclasses.replace(
            data, genotypes=GenotypeMatrix(data.genotypes.codes, mask)
        )
        state = em_state(data, gamma=[0.8, -0.5, 0.3], sigma2=1.0)
        exp_exact, V_exact, exact, _ = e_step(state, data, EmConfig())
        assert exact
        config = EmConfig(enumeration_cap=2, mc_samples=4000, mc_burn_in=100, seed=0)
        exp_mc, V_mc, exact_mc, _ = e_step(state, data, config)
        assert not exact_mc
        cols = [0, 1, 2]
        se = np.sqrt(np.diag(V_exact)[cols] / 4000) + 1e-3
        assert np.all(np.abs(exp_mc[1, cols] - exp_exact[1, cols]) < 4 * se + 0.05)

    @pytest.mark.parametrize("coding", ["signed", "additive_dominance"])
    def test_mc_scan_matches_reference(self, coding):
        import dataclasses

        from snpgibbs.simulator import (
            MissingnessMask,
            apply_missingness,
            five_signal_design,
            simulate_dataset,
        )

        data, _ = simulate_dataset(five_signal_design(), seed=1)
        data = apply_missingness(data, MissingnessMask(0.2, seed=1))
        data = dataclasses.replace(data, snp_coding=coding)
        setup = np.random.default_rng(3)
        state = em_state(data, gamma=setup.normal(size=data.design_dim), sigma2=0.6)
        _, residual = em._observed(state, data)
        config = EmConfig(mc_samples=150, mc_burn_in=20)
        pattern = MissingPattern.from_dataset(data)
        wide = [
            i for i in pattern.individuals_with_missing()
            if pattern.enumeration_size(i) > config.enumeration_cap
        ]
        assert len(wide) >= 10
        for seed in (1, 2):
            rng_ours, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for i in wide:
                args = (state, data, residual[i], i, config)
                mean, cov = em._moments_mc(*args, rng_ours)
                ref_mean, ref_cov = gibbs_scan_moments(*args, rng_ref)
                # the kept draws are exact design values, so identical draws
                # give bitwise-equal means
                assert np.array_equal(mean, ref_mean)
                np.testing.assert_allclose(cov, ref_cov, rtol=0, atol=1e-12)
                assert rng_ours.bit_generator.state == rng_ref.bit_generator.state

    def test_covariance_zero_for_observed(self):
        data, _ = make_dataset(n=8, s=3, missing=0.2, seed=7)
        state = em_state(data, gamma=[0.5, 0.5, 0.5])
        expected, V, _, _ = e_step(state, data)
        mask = data.genotypes.missing_mask
        fully_observed_cols = [j for j in range(3) if not mask[:, j].any()]
        for j in fully_observed_cols:
            assert np.allclose(V[j], 0.0) and np.allclose(V[:, j], 0.0)

    @pytest.mark.parametrize("coding", ["signed", "additive_dominance"])
    def test_loglik_matches_observed_loglik(self, coding):
        data, _ = make_dataset(n=12, s=3, p=2, missing=0.2, seed=15, coding=coding)
        assert data.genotypes.missing_mask.any()
        dim = snp_design_matrix(data.genotypes.codes, coding).shape[1]
        gamma = np.linspace(-1.0, 1.2, dim)
        state = em_state(data, beta=[0.4, -0.3], gamma=gamma, sigma2=0.7)
        _, _, exact, loglik = e_step(state, data)
        assert exact
        assert abs(loglik - observed_loglik(state, data)) < 1e-12


# missing SNPs per individual of an n = 20, s = 8 dataset: every count
# k = 0..6, and individuals that share a count but not their SNPs
MIXED_PATTERN = (
    (), (0,), (5,), (7,), (0, 1), (3, 6), (2, 4, 7), (0, 5, 6),
    (1, 2, 3, 4), (0, 3, 5, 7), (0, 1, 2, 3, 4), (3, 4, 5, 6, 7),
    (0, 1, 2, 3, 4, 5), (1, 2, 4, 5, 6, 7), (), (6,), (), (2,), (), (),
)


def mixed_pattern_case(coding, sigma2, seed=31):
    import dataclasses

    from snpgibbs.model import GenotypeMatrix

    data, _ = make_dataset(n=len(MIXED_PATTERN), s=8, p=2, seed=seed, coding=coding)
    mask = np.zeros((data.n, data.s), dtype=bool)
    for i, missing in enumerate(MIXED_PATTERN):
        mask[i, list(missing)] = True
    data = dataclasses.replace(data, genotypes=GenotypeMatrix(data.genotypes.codes, mask))
    setup = np.random.default_rng(seed)
    state = em_state(
        data, beta=setup.normal(size=2), gamma=setup.normal(size=data.design_dim),
        sigma2=sigma2,
    )
    return data, state


def assert_relative(actual, reference, rtol=1e-12):
    """Entrywise within rtol of the reference's largest magnitude."""
    scale = max(float(np.abs(reference).max(initial=0.0)), 1e-300)
    np.testing.assert_allclose(actual, reference, rtol=rtol, atol=rtol * scale)


class TestGroupedEnumeration:
    """The E-step enumerates all individuals that share a missing count in
    one pass; the reference enumerates each individual on its own."""

    @pytest.mark.parametrize("sigma2", [0.08, 1.5])
    @pytest.mark.parametrize("coding", ["signed", "additive_dominance"])
    def test_exact_regime_matches_per_individual_reference(self, coding, sigma2):
        data, state = mixed_pattern_case(coding, sigma2)
        config = EmConfig()
        expected, V, exact, loglik = e_step(state, data, config)
        ref_expected, ref_V, ref_exact, ref_loglik = per_individual_e_step(state, data, config)
        assert exact and ref_exact
        assert_relative(expected, ref_expected)
        assert_relative(V, ref_V)
        assert abs(loglik - ref_loglik) <= 1e-12 * abs(ref_loglik)

    @pytest.mark.parametrize("seeded", [True, False])
    @pytest.mark.parametrize("coding", ["signed", "additive_dominance"])
    def test_mixed_regime_monte_carlo_rows_bitwise(self, coding, seeded):
        data, state = mixed_pattern_case(coding, 0.7)
        config = EmConfig(enumeration_cap=27, mc_samples=60, mc_burn_in=10, seed=4)
        rng_ours = np.random.default_rng(9) if seeded else None
        rng_ref = np.random.default_rng(9) if seeded else None
        expected, V, exact, loglik = e_step(state, data, config, rng_ours)
        ref_expected, ref_V, ref_exact, ref_loglik = per_individual_e_step(
            state, data, config, rng_ref
        )
        assert not exact and not ref_exact
        assert np.isnan(loglik) and np.isnan(ref_loglik)
        wide = [i for i, missing in enumerate(MIXED_PATTERN) if len(missing) > 3]
        narrow = [i for i in range(data.n) if i not in wide]
        assert np.array_equal(expected[wide], ref_expected[wide])
        assert_relative(expected[narrow], ref_expected[narrow])
        # the Monte Carlo covariances agree to 1e-12 with the reference scan's
        assert_relative(V, ref_V)
        if seeded:
            assert rng_ours.bit_generator.state == rng_ref.bit_generator.state

    @pytest.mark.parametrize("cap", [729, 27])
    def test_five_signal_mixed_regime(self, cap):
        import dataclasses

        from snpgibbs.simulator import (
            MissingnessMask,
            apply_missingness,
            five_signal_design,
            simulate_dataset,
        )

        data, _ = simulate_dataset(five_signal_design(), seed=1)
        data = apply_missingness(data, MissingnessMask(0.2, seed=1))
        data = dataclasses.replace(data, snp_coding="additive_dominance")
        setup = np.random.default_rng(5)
        state = em_state(data, gamma=setup.normal(size=data.design_dim), sigma2=0.6)
        config = EmConfig(enumeration_cap=cap, mc_samples=30, mc_burn_in=5)
        rng_ours, rng_ref = np.random.default_rng(2), np.random.default_rng(2)
        expected, V, exact, _ = e_step(state, data, config, rng_ours)
        ref_expected, ref_V, _, _ = per_individual_e_step(state, data, config, rng_ref)
        pattern = MissingPattern.from_dataset(data)
        wide = [
            i for i in pattern.individuals_with_missing()
            if pattern.enumeration_size(i) > cap
        ]
        assert not exact and len(wide) >= 10
        narrow = [i for i in range(data.n) if i not in wide]
        assert np.array_equal(expected[wide], ref_expected[wide])
        assert_relative(expected[narrow], ref_expected[narrow])
        assert_relative(V, ref_V)
        assert rng_ours.bit_generator.state == rng_ref.bit_generator.state

    @pytest.mark.parametrize("coding", ["signed", "additive_dominance"])
    def test_missing_distribution_matches_reference(self, coding):
        data, state = mixed_pattern_case(coding, 0.3)
        _, residual = observed_residual(state, data)
        for i in range(data.n):
            tuples, probs = missing_distribution(state, data, i)
            ref_tuples, _, ref_probs, _ = enumerate_completions(state, data, residual, i)
            assert np.array_equal(tuples, ref_tuples)
            assert_relative(probs, ref_probs)

    @pytest.mark.parametrize("coding", ["signed", "additive_dominance"])
    def test_observed_loglik_matches_reference_and_keeps_the_cap(self, coding):
        data, state = mixed_pattern_case(coding, 0.9)
        ref_loglik = per_individual_e_step(state, data, EmConfig())[3]
        loglik = observed_loglik(state, data)
        assert abs(loglik - ref_loglik) <= 1e-12 * abs(ref_loglik)
        with pytest.raises(EnumerationCapError, match="individual 8 has 4 missing SNPs"):
            observed_loglik(state, data, cap=27)
        assert missing_distribution(state, data, 7)[1].shape == (27,)

    @pytest.mark.parametrize(
        "field, value",
        [("max_iterations", 0), ("max_iterations", -1), ("enumeration_cap", 0),
         ("mc_samples", 0), ("mc_burn_in", -1),
         ("tol", -1e-8), ("tol", math.nan), ("tol", math.inf)],
    )
    def test_config_rejects_out_of_range(self, field, value):
        with pytest.raises(ValueError, match=field):
            EmConfig(**{field: value})
        EmConfig(tol=0.0, mc_burn_in=0)  # both in range


class TestMStep:
    def test_complete_data_reduces_to_least_squares(self):
        data, _ = make_dataset(n=20, s=3, p=2, seed=8)
        Zd = snp_design_matrix(data.genotypes.codes, "signed")
        expected, V = Zd.astype(float), np.zeros((3, 3))
        beta, gamma, sigma2 = m_step(expected, V, data)
        W = np.column_stack([data.X, Zd])
        coef = np.linalg.lstsq(W, data.y, rcond=None)[0]
        assert np.allclose(beta, coef[:2], atol=1e-10)
        assert np.allclose(gamma, coef[2:], atol=1e-10)
        resid = data.y - W @ coef
        assert abs(sigma2 - resid @ resid / 20) < 1e-12

    def test_perfect_fit_zero_variance(self):
        data, truth = make_dataset(n=15, s=2, p=1, seed=9)
        Zd = snp_design_matrix(data.genotypes.codes, "signed")
        import dataclasses

        from snpgibbs.model import PhenotypeVector

        y_exact = data.X @ np.array([2.0]) + Zd @ np.array([1.0, -1.0])
        data = dataclasses.replace(data, phenotypes=PhenotypeVector(y_exact))
        beta, gamma, sigma2 = m_step(Zd.astype(float), np.zeros((2, 2)), data)
        assert sigma2 < 1e-20

    def test_normal_equations_oracle(self):
        data, _ = make_dataset(n=8, s=2, p=1, seed=10)
        Zd = snp_design_matrix(data.genotypes.codes, "signed")
        beta, gamma, sigma2 = m_step(Zd.astype(float), np.zeros((2, 2)), data)
        W = np.column_stack([data.X, Zd])
        coef = np.linalg.solve(W.T @ W, W.T @ data.y)
        assert np.allclose(np.concatenate([beta, gamma]), coef, atol=1e-10)


class TestObservedLoglik:
    def test_no_missing_is_normal_loglik(self):
        data, _ = make_dataset(n=12, s=2, seed=11)
        state = em_state(data, beta=[1.0, 2.0], gamma=[0.5, -0.5], sigma2=1.3)
        Zd = snp_design_matrix(data.genotypes.codes, "signed")
        resid = data.y - data.X @ state.beta - Zd @ state.gamma
        expected = -6 * np.log(2 * np.pi * 1.3) - resid @ resid / (2 * 1.3)
        assert abs(observed_loglik(state, data) - expected) < 1e-10

    def test_single_missing_logsumexp_of_three(self):
        data, _ = make_dataset(n=6, s=2, seed=12)
        mask = np.zeros((6, 2), dtype=bool)
        mask[3, 0] = True
        import dataclasses

        from snpgibbs.model import GenotypeMatrix

        data = dataclasses.replace(
            data, genotypes=GenotypeMatrix(data.genotypes.codes, mask)
        )
        state = em_state(data, gamma=[0.7, -0.2], sigma2=0.9)
        ll = observed_loglik(state, data)
        # direct recomputation
        Zd = snp_design_matrix(data.genotypes.codes, "signed").astype(float)
        total = -3.0 * np.log(2 * np.pi * 0.9)
        for i in range(6):
            if i == 3:
                terms = []
                for c in (-1.0, 0.0, 1.0):
                    z = Zd[i].copy()
                    z[0] = c
                    r = data.y[i] - data.X[i] @ state.beta - z @ state.gamma
                    terms.append(-(r**2) / (2 * 0.9))
                total += np.log(np.sum(np.exp(terms)))
            else:
                r = data.y[i] - data.X[i] @ state.beta - Zd[i] @ state.gamma
                total += -(r**2) / (2 * 0.9)
        assert abs(ll - total) < 1e-12


class TestRunEm:
    def test_complete_data_lands_on_least_squares(self):
        data, _ = make_dataset(n=25, s=3, p=2, seed=13)
        state, log = run_em(data)
        assert log.converged
        Zd = snp_design_matrix(data.genotypes.codes, "signed")
        W = np.column_stack([data.X, Zd])
        coef = np.linalg.lstsq(W, data.y, rcond=None)[0]
        assert np.allclose(np.concatenate([state.beta, state.gamma]), coef, atol=1e-10)

    def test_ascent_property_randomized(self):
        failures = 0
        for seed in range(50):
            data, _ = make_dataset(
                n=int(10 + seed % 8),
                s=2 + seed % 3,
                p=1 + seed % 2,
                seed=100 + seed,
                missing=0.15,
            )
            state, log = run_em(data, EmConfig(max_iterations=60))
            assert log.exact_regime
            logliks = [h[1] for h in log.history]
            diffs = np.diff(logliks)
            if diffs.size and diffs.min() < -1e-9:
                failures += 1
        assert failures == 0

    def test_cross_method_agreement_with_gibbs(self):
        # six families, strong effects, light missingness: EM betas near Gibbs betas
        from snpgibbs.gibbs import GibbsConfig, run_chain
        from snpgibbs.model import PriorHyperparams
        from snpgibbs.simulator import (
            MissingnessMask,
            SimDesign,
            apply_missingness,
            simulate_dataset,
        )

        design = SimDesign(
            family_sizes=(10,) * 6,
            snp_count=3,
            genotype_freqs=((0.25, 0.5, 0.25),) * 3,
            beta_true=(15.0, 20.0, 25.0, 30.0, 35.0, 40.0),
            gamma_true=(2.0, -1.5, 1.0),
            sigma2_true=1.0,
            kinship_mode="pedigree",
            coding="signed",
            name="em-cross",
        )
        data, truth = simulate_dataset(design, seed=21)
        data = apply_missingness(data, MissingnessMask(0.05, seed=21))
        em_fit, log = run_em(data, EmConfig(max_iterations=200))
        post = run_chain(
            data,
            PriorHyperparams(),
            GibbsConfig(total_iterations=6000, burn_in=3000, thinning=2, seed=5),
        )
        gibbs_beta = post.betas.mean(axis=0)
        # both estimators ride the same family-mean noise; the agreement
        # between methods is tight even when the common deviation is not
        assert np.all(np.abs(em_fit.beta - gibbs_beta) < 0.5)
        assert np.all(np.abs(em_fit.beta - np.array(truth.beta_true)) < 2.5)
        assert np.all(np.abs(gibbs_beta - np.array(truth.beta_true)) < 2.5)

    def test_additive_dominance_coding_supported(self):
        data, _ = make_dataset(n=15, s=2, missing=0.1, seed=14, coding="additive_dominance")
        state, log = run_em(data, EmConfig(max_iterations=80))
        assert state.gamma.shape == (4,)
        logliks = [h[1] for h in log.history]
        assert np.diff(logliks).min() > -1e-9

    @pytest.mark.parametrize("coding", ["signed", "additive_dominance"])
    def test_logged_deltas_are_relative_changes(self, coding):
        # gamma starts at zero: the first change is relative to the new value
        data, _ = make_dataset(n=20, s=3, p=2, missing=0.15, seed=18, coding=coding)
        _, log = run_em(data, EmConfig(max_iterations=30))
        deltas = np.array([h[2] for h in log.history])
        assert np.isfinite(deltas).all()
        assert deltas.max() <= 2.0
        assert deltas[0] == pytest.approx(1.0)

    def test_one_pass_records_loglik_of_final_state(self, monkeypatch):
        data, _ = make_dataset(n=14, s=3, missing=0.15, seed=16, coding="additive_dominance")
        calls = []
        e_step_fn = em.e_step
        monkeypatch.setattr(em, "e_step", lambda *a: calls.append(1) or e_step_fn(*a))

        def no_second_pass(*a):
            raise AssertionError("run_em must take the log likelihood from the E-step")

        monkeypatch.setattr(em, "observed_loglik", no_second_pass)
        state, log = run_em(data, EmConfig(tol=0.0, max_iterations=7))
        monkeypatch.undo()
        assert log.exact_regime and log.iterations == 7
        assert len(calls) == log.iterations + 1
        # the last row is l(theta_t) of the returned state, not l(theta_{t-1})
        assert abs(log.history[-1][1] - observed_loglik(state, data)) < 1e-12

    def test_monte_carlo_regime_runs_one_e_step_per_iteration(self, monkeypatch):
        data, _ = make_dataset(n=10, s=3, seed=17)
        mask = np.zeros((10, 3), dtype=bool)
        mask[2, :2] = mask[5, 1] = True  # 9 and 3 completions, cap 2
        import dataclasses

        from snpgibbs.model import GenotypeMatrix

        data = dataclasses.replace(
            data, genotypes=GenotypeMatrix(data.genotypes.codes, mask)
        )
        calls = []
        e_step_fn = em.e_step
        monkeypatch.setattr(em, "e_step", lambda *a: calls.append(1) or e_step_fn(*a))
        config = EmConfig(tol=0.0, max_iterations=4, enumeration_cap=2, mc_samples=50, mc_burn_in=5)
        _, log = run_em(data, config)
        assert not log.exact_regime
        assert len(calls) == log.iterations == 4
        assert all(np.isnan(h[1]) for h in log.history)
