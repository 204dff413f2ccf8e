import dataclasses

import numpy as np
import pytest

from snpgibbs.gibbs import GibbsConfig, run_chain
from snpgibbs.model import PriorHyperparams
from snpgibbs.simulator import (
    MissingnessMask,
    SimDesign,
    apply_missingness,
    equicorrelated_design,
    five_signal_design,
    recovery_report,
    simulate_dataset,
    six_family_design,
)


class TestDesigns:
    def test_six_family_preset(self):
        design = six_family_design()
        assert design.n == 120
        assert design.snp_count == 5
        assert design.coding == "additive_dominance"
        assert design.beta_true == (15.0, 20.0, 25.0, 30.0, 35.0, 40.0)
        assert len(design.gamma_true) == 10

    def test_five_signal_preset_exactly_five_nonzero(self):
        design = five_signal_design()
        nonzero = [g for g in design.gamma_true if g != 0.0]
        assert len(nonzero) == 5
        assert all(abs(g) >= 1.0 for g in nonzero)
        assert design.kinship_mode == "identity"

    def test_equicorrelated_preset_thresholded(self):
        design = equicorrelated_design()
        assert design.rho == 0.8
        assert all(g == 0.0 or abs(g) >= 3.0 for g in design.gamma_true)

    def test_frequency_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            SimDesign(
                family_sizes=(5,),
                snp_count=1,
                genotype_freqs=((0.5, 0.2, 0.2),),
                beta_true=(1.0,),
                gamma_true=(0.0,),
            )

    def test_rho_range_validation(self):
        with pytest.raises(ValueError, match="rho"):
            SimDesign(
                family_sizes=(10, 10),
                snp_count=1,
                genotype_freqs=((0.3, 0.4, 0.3),),
                beta_true=(1.0, 2.0),
                gamma_true=(0.0,),
                kinship_mode="equicorrelation",
                rho=-0.5,
            )

    def test_equicorrelation_of_single_member_families_rejected(self):
        with pytest.raises(ValueError, match="at least two members"):
            SimDesign(
                family_sizes=(1, 1),
                snp_count=1,
                genotype_freqs=((0.25, 0.5, 0.25),),
                beta_true=(1.0, 2.0),
                gamma_true=(0.5,),
                kinship_mode="equicorrelation",
                rho=0.5,
            )


class TestSimulate:
    def test_dataset_validates_and_dimensions(self):
        data, truth = simulate_dataset(six_family_design(), seed=0)
        assert data.n == 120 and data.s == 5
        assert data.design_dim == 10
        assert len(truth.ids) == 120

    def test_pedigree_kinship_structure(self):
        data, _ = simulate_dataset(six_family_design(), seed=1)
        R = data.R
        assert R[0, 0] == 1.0
        assert R[0, 1] == 0.5  # same family, full sibs
        assert R[0, 20] == 0.0  # across families

    def test_equicorrelation_kinship_pd(self):
        data, _ = simulate_dataset(equicorrelated_design(), seed=2)
        assert data.kinship.is_positive_definite()
        assert data.R[0, 1] == 0.8
        assert data.R[0, -1] == 0.0

    def test_genotype_frequencies_recovered(self):
        design = SimDesign(
            family_sizes=(10_000,),
            snp_count=1,
            genotype_freqs=((0.0331, 0.1950, 0.7719),),
            beta_true=(0.0,),
            gamma_true=(0.0,),
            kinship_mode="identity",
        )
        data, _ = simulate_dataset(design, seed=3)
        codes = data.genotypes.codes[:, 0]
        freqs = [(codes == c).mean() for c in (-1, 0, 1)]
        assert np.allclose(freqs, (0.0331, 0.1950, 0.7719), atol=0.02)

    def test_null_snps_covered_by_intervals(self):
        design = SimDesign(
            family_sizes=(15, 15),
            snp_count=3,
            genotype_freqs=((0.25, 0.5, 0.25),) * 3,
            beta_true=(10.0, 20.0),
            gamma_true=(0.0, 0.0, 0.0),
            kinship_mode="identity",
        )
        data, truth = simulate_dataset(design, seed=4)
        post = run_chain(
            data,
            PriorHyperparams(),
            GibbsConfig(total_iterations=4000, burn_in=2000, thinning=2, seed=1),
        )
        report = recovery_report(truth, post)
        for row in report.parameter_rows:
            if row["name"].startswith("snp"):
                assert row["hpd_lower"] <= 0.0 <= row["hpd_upper"]

    def test_seed_changes_data(self):
        a, _ = simulate_dataset(six_family_design(), seed=5)
        b, _ = simulate_dataset(six_family_design(), seed=6)
        assert not np.array_equal(a.genotypes.codes, b.genotypes.codes)

    def test_same_seed_identical(self):
        a, ta = simulate_dataset(six_family_design(), seed=7)
        b, tb = simulate_dataset(six_family_design(), seed=7)
        assert np.array_equal(a.genotypes.codes, b.genotypes.codes)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(ta.true_codes, tb.true_codes)


class TestMissingness:
    def test_zero_fraction_unchanged(self):
        data, _ = simulate_dataset(six_family_design(), seed=8)
        masked = apply_missingness(data, MissingnessMask(0.0, seed=1))
        assert not masked.genotypes.missing_mask.any()
        assert np.array_equal(masked.genotypes.codes, data.genotypes.codes)

    def test_exact_count_within_binomial_bounds(self):
        data, _ = simulate_dataset(six_family_design(), seed=9)
        masked = apply_missingness(data, MissingnessMask(0.20, seed=2))
        count = int(masked.genotypes.missing_mask.sum())
        assert abs(count - 120) <= 29  # binomial 3 sigma envelope
        # exact-count masking also satisfies the +-1% realized-fraction bound
        assert abs(masked.genotypes.missing_fraction - 0.20) <= 0.01

    def test_same_seed_same_mask(self):
        data, _ = simulate_dataset(six_family_design(), seed=10)
        m1 = apply_missingness(data, MissingnessMask(0.15, seed=3))
        m2 = apply_missingness(data, MissingnessMask(0.15, seed=3))
        assert np.array_equal(m1.genotypes.missing_mask, m2.genotypes.missing_mask)

    def test_phenotypes_untouched(self):
        data, _ = simulate_dataset(six_family_design(), seed=11)
        masked = apply_missingness(data, MissingnessMask(0.2, seed=4))
        assert np.array_equal(masked.y, data.y)

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            MissingnessMask(0.99)
        with pytest.raises(ValueError):
            MissingnessMask(-0.1)

    def test_masked_values_hidden(self):
        data, truth = simulate_dataset(six_family_design(), seed=12)
        masked = apply_missingness(data, MissingnessMask(0.3, seed=5))
        mask = masked.genotypes.missing_mask
        # observed cells still match the truth; masked placeholders are zeroed
        assert np.array_equal(masked.genotypes.codes[~mask], truth.true_codes[~mask])
        assert (masked.genotypes.codes[mask] == 0).all()


class TestRecoveryReport:
    def test_degenerate_posterior_zero_deviation(self):
        data, truth = simulate_dataset(five_signal_design(), seed=13)
        post = run_chain(
            data,
            PriorHyperparams(),
            GibbsConfig(total_iterations=300, burn_in=100, thinning=1, seed=2),
        )
        # draws that are the exact truth (phi^2 aside): deviations collapse to zero
        draws = post.draws.copy()
        draws[:, :-1] = [*truth.beta_true, *truth.gamma_true, truth.sigma2_true]
        post = dataclasses.replace(post, draws=draws)
        report = recovery_report(truth, post)
        for row in report.parameter_rows:
            if row["name"] not in ("phi2",):
                assert abs(row["deviation"]) < 1e-12
        # nothing missing: imputation frequencies are n/a
        assert all(v is None for v in report.imputation_frequencies.values())

    def test_imputation_frequency_counts(self):
        data, truth = simulate_dataset(six_family_design(), seed=14)
        masked = apply_missingness(data, MissingnessMask(0.10, seed=6))
        post = run_chain(
            masked,
            PriorHyperparams(),
            GibbsConfig(total_iterations=400, burn_in=200, thinning=2, seed=3),
        )
        report = recovery_report(truth, post)
        mask = masked.genotypes.missing_mask
        for j, name in enumerate(truth.snp_names):
            freq = report.imputation_frequencies[name]
            if mask[:, j].any():
                assert 0.0 <= freq <= 1.0
            else:
                assert freq is None
        # hand-recompute one SNP's frequency
        j = int(np.flatnonzero(mask.any(axis=0))[0])
        cells = np.flatnonzero(mask.ravel()) % 5 == j
        manual = (
            post.masked_values[:, cells]
            == truth.true_codes.ravel()[np.flatnonzero(mask.ravel())][cells][None, :]
        ).mean()
        assert abs(report.imputation_frequencies[truth.snp_names[j]] - manual) < 1e-12
