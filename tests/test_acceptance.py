"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with output visible:  pytest -s tests/test_acceptance.py

The six-family recovery campaign (criteria 3-5) is shared through a
module-scoped fixture: three seeds, five missingness levels, 20,000
burn-in, the chain's genotype conditional (exact under pedigree kinship).
Recovery tolerances apply to the per-parameter deviation of the mean over
the three seeds.
"""

import math
import time

import numpy as np
import pytest
import scipy.stats as st

from snpgibbs.gibbs import (
    GibbsConfig,
    ParameterState,
    batch_mean_stderr,
    hpd_interval,
    impute_snp_column,
    run_chain,
)
from snpgibbs.linalg import (
    ColumnDelta,
    InverseCache,
    column_delta_inverse_update,
    dual_form_inverse,
    rank_one_chain,
    sherman_morrison_update,
    woodbury_update,
)
from snpgibbs.em import EmConfig, m_step, run_em
from snpgibbs.model import (
    ImputationPrior,
    PriorHyperparams,
    snp_design_matrix,
)
from snpgibbs.pedigree import build_numerator_matrix, order_pedigree
from snpgibbs.selector import (
    SearchConfig,
    bayes_factor_statistics,
    estimate_bayes_factor,
    exhaustive_search,
)
from snpgibbs.simulator import (
    MissingnessMask,
    apply_missingness,
    five_signal_design,
    recovery_report,
    simulate_dataset,
    six_family_design,
)

from conftest import fresh_workspace, make_dataset
from test_pedigree import _random_pedigree
from _geweke import geweke_compare
from _oracles import (
    conjugate_posterior_states,
    imputation_probabilities,
    quadrature_log_bayes_factor,
    random_spd,
)

SEEDS = (101, 202, 303)
MISSING_LEVELS = (0.0, 0.05, 0.10, 0.15, 0.20)
Z_CRIT = 3.29  # two-sided p = 0.001


def report(criterion, ok, detail=""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    return ok


# -------------------------------------------------------------------- 1


def test_criterion_01_kinship_exactness():
    t0 = time.perf_counter()
    from snpgibbs.pedigree import PedigreeRecord

    records = [
        PedigreeRecord("P1"),
        PedigreeRecord("P2"),
        PedigreeRecord("P3"),
        PedigreeRecord("O1", "P1", "P2"),
        PedigreeRecord("O2", "P1", "P2"),
        PedigreeRecord("H1", "P1", "P3"),
    ]
    R = build_numerator_matrix(order_pedigree(records))
    full_sib = R.entries[R.index_of("O1"), R.index_of("O2")]
    half_sib = R.entries[R.index_of("O1"), R.index_of("H1")]

    big = build_numerator_matrix(_random_pedigree(1000, seed=17))
    eig = np.linalg.eigvalsh(big.entries)
    pd_ok = eig[0] > 1e-10 * eig[-1]
    elapsed = time.perf_counter() - t0

    ok = full_sib == 0.5 and half_sib == 0.25 and pd_ok and elapsed < 1.0
    assert report(
        1,
        ok,
        f"full-sib {full_sib}, half-sib {half_sib}, 1000-pedigree min/max eig "
        f"{eig[0]:.3e}/{eig[-1]:.3e}, {elapsed:.2f}s",
    )
    assert full_sib == 0.5 and half_sib == 0.25
    assert pd_ok
    assert elapsed < 1.0


# -------------------------------------------------------------------- 2


def test_criterion_02_linear_algebra_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    count = 0

    def check(approx, exact):
        nonlocal worst, count
        err = np.max(np.abs(approx - exact)) / np.max(np.abs(exact))
        worst = max(worst, err)
        count += 1
        assert err < 1e-8, err

    for _ in range(400):  # rank-one updates
        dim = int(rng.integers(2, 51))
        A = random_spd(rng, dim)
        u = rng.standard_normal(dim) * 0.5
        v = rng.standard_normal(dim) * 0.5
        check(sherman_morrison_update(np.linalg.inv(A), u, v), np.linalg.inv(A + np.outer(u, v)))

    for _ in range(250):  # low-rank block updates
        dim = int(rng.integers(2, 51))
        k = int(rng.integers(1, 6))
        A = random_spd(rng, dim)
        U = rng.standard_normal((dim, k)) * 0.3
        V = rng.standard_normal((k, dim)) * 0.3
        check(woodbury_update(np.linalg.inv(A), U, V), np.linalg.inv(A + U @ V))

    for _ in range(150):  # chained updates
        dim = int(rng.integers(5, 51))
        steps = int(rng.integers(1, 101))
        A = random_spd(rng, dim, 5.0, 10.0)
        updates = [
            (rng.standard_normal(dim) * 0.1, rng.standard_normal(dim) * 0.1)
            for _ in range(steps)
        ]
        total = A + sum(np.outer(u, v) for u, v in updates)
        check(rank_one_chain(np.linalg.inv(A), updates), np.linalg.inv(total))

    for _ in range(200):  # column-delta cache updates
        n = int(rng.integers(4, 31))
        s = int(rng.integers(2, 16))
        Z = rng.integers(-1, 2, size=(n, s)).astype(float)
        Rinv = np.linalg.inv(random_spd(rng, n, 0.8, 2.0))
        phi_old, phi_new = 1.0, float(rng.uniform(0.5, 2.0))
        A = Z.T @ Rinv @ Z + np.eye(s) / phi_old
        cache = InverseCache.from_matrix(A)
        j = int(rng.integers(s))
        d = np.zeros(n)
        rows = rng.choice(n, size=min(3, n), replace=False)
        d[rows] = rng.integers(-2, 3, size=rows.size)
        column_delta_inverse_update(cache, Z, ColumnDelta(j, d), Rinv, phi_old, phi_new)
        Z1 = Z.copy()
        Z1[:, j] += d
        check(cache.inverse, np.linalg.inv(Z1.T @ Rinv @ Z1 + np.eye(s) / phi_new))

    ident_worst = 0.0
    for _ in range(1000):  # the two dual inverse forms agree
        n = int(rng.integers(2, 51))
        s = int(rng.integers(1, 51))
        Z = rng.standard_normal((n, s))
        R = random_spd(rng, n)
        phi2 = float(rng.uniform(0.2, 5.0))
        a = dual_form_inverse(Z, R, phi2, branch="direct")
        b = dual_form_inverse(Z, R, phi2, branch="dual")
        err = np.max(np.abs(a - b)) / np.max(np.abs(a))
        ident_worst = max(ident_worst, err)
        assert err < 1e-10, err

    elapsed = time.perf_counter() - t0
    ok = elapsed < 30.0
    assert report(
        2,
        ok,
        f"{count} update oracles (worst {worst:.2e}), 1000 dual-form identities "
        f"(worst {ident_worst:.2e}), {elapsed:.1f}s",
    )


# ---------------------------------------------------------------- 3/4/5


@pytest.fixture(scope="module")
def six_family_campaign():
    """Three seeds x five missingness levels on the six-family design."""
    design = six_family_design()
    results = {}
    for level in MISSING_LEVELS:
        per_seed = []
        for seed in SEEDS:
            data, truth = simulate_dataset(design, seed=seed)
            if level:
                data = apply_missingness(data, MissingnessMask(level, seed=seed))
            config = GibbsConfig(
                total_iterations=26_000,
                burn_in=20_000,
                thinning=2,
                seed=seed + 7,
            )
            post = run_chain(data, PriorHyperparams(), config)
            per_seed.append(recovery_report(truth, post))
        results[level] = (truth, per_seed)
    return results


def _mean_deviation(reports, name):
    return float(np.mean([r.deviation(name) for r in reports]))


def test_criterion_03_family_effect_recovery(six_family_campaign):
    lines = []
    ok = True
    for level in (0.0, 0.05, 0.10, 0.15):
        truth, reports = six_family_campaign[level]
        tol = 2.0 if level == 0.05 else 1.5
        devs = [abs(_mean_deviation(reports, f"F{i}")) for i in range(1, 7)]
        level_ok = max(devs) <= tol
        ok &= level_ok
        lines.append(f"{level:.0%}: max|dev| {max(devs):.2f} (tol {tol})")
    assert report(3, ok, "; ".join(lines))


def test_criterion_04_snp_effect_recovery(six_family_campaign):
    lines = []
    ok = True
    for level in (0.0, 0.05, 0.10, 0.15):
        truth, reports = six_family_campaign[level]
        devs = [abs(_mean_deviation(reports, name)) for name in truth.gamma_labels]
        level_ok = max(devs) <= 0.9
        ok &= level_ok
        lines.append(f"{level:.0%}: max|dev| {max(devs):.2f} (tol 0.9)")
    assert report(4, ok, "; ".join(lines))


def test_criterion_05_imputation_frequency(six_family_campaign):
    truth, reports = six_family_campaign[0.10]
    freqs = {
        name: float(np.mean([r.imputation_frequencies[name] for r in reports]))
        for name in truth.snp_names
    }
    dominant = "snp4"  # major-genotype frequency 0.7719
    ok = all(f >= 0.45 for f in freqs.values()) and freqs[dominant] >= 0.75
    assert report(
        5,
        ok,
        "10% missing, mean frequency per SNP: "
        + ", ".join(f"{k}={v:.3f}" for k, v in freqs.items()),
    )


# -------------------------------------------------------------------- 6


def test_criterion_06_bayes_factor_correctness():
    t0 = time.perf_counter()
    data, _ = make_dataset(n=12, s=3, p=2, seed=40, gamma=[1.0, -0.8, 0.0], sigma2=1.0)
    Z = snp_design_matrix(data.genotypes.codes, "signed")
    sigma2, phi2 = 1.0, 1.5
    samples = conjugate_posterior_states(data, sigma2, phi2, 100_000, seed=7)

    def estimate(window, included):
        stats = bayes_factor_statistics(window, included)
        return estimate_bayes_factor(stats, np.ones(len(included), dtype=bool))

    full = estimate(samples[:1000], (0, 1, 2))
    exact_one = full.log_value == 0.0

    lines = [f"log BF(full)={full.log_value}"]
    ok = exact_one
    for included in ((0, 1), (0,), ()):
        oracle = quadrature_log_bayes_factor(
            data.y, data.X, Z, data.R, sigma2, phi2, included, nodes=48
        )
        err4 = abs(math.exp(estimate(samples[:10_000], included).log_value - oracle) - 1)
        err5 = abs(math.exp(estimate(samples, included).log_value - oracle) - 1)
        ok &= err4 < 0.10 and err5 < 0.03
        lines.append(f"keep{included}: err@1e4 {err4:.3%}, err@1e5 {err5:.3%}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 300.0
    assert report(6, ok, "; ".join(lines) + f"; {elapsed:.0f}s")


# -------------------------------------------------------------------- 7


def test_criterion_07_two_stage_search_subset_property():
    design = five_signal_design()
    lines = []
    ok = True
    for seed in SEEDS:
        data, truth = simulate_dataset(design, seed=seed)
        data = apply_missingness(data, MissingnessMask(0.20, seed=seed))
        post = run_chain(
            data,
            PriorHyperparams(),
            GibbsConfig(total_iterations=14_000, burn_in=8_000, thinning=2, seed=seed + 1),
        )
        significant = [
            k
            for k in range(25)
            if not hpd_interval(post.gammas[:, k], 0.95).contains_zero
        ]
        assert significant, "stage one found no significant SNPs"
        trace = exhaustive_search(post, significant, SearchConfig(min_samples_per_bf=2000))
        best = set(trace.columns(trace.best_row))
        subset_ok = best.issubset(set(significant))
        ok &= subset_ok
        lines.append(
            f"seed {seed}: stage1={sorted(significant)}, best={sorted(best)}"
        )
    assert report(7, ok, "; ".join(lines))


# -------------------------------------------------------------------- 8


def test_criterion_08_single_column_update_fidelity():
    data, _ = make_dataset(
        n=30, s=5, p=2, seed=77, missing=0.10, gamma=[1.5, -1.0, 0.0, 0.8, 0.0]
    )
    priors = PriorHyperparams()
    base = dict(total_iterations=24_000, burn_in=4_000, thinning=2)
    single = run_chain(data, priors, GibbsConfig(**base, seed=10, impute_mode="cycle"))
    full = run_chain(data, priors, GibbsConfig(**base, seed=20, impute_mode="all"))
    gaps = []
    ok = True
    for k in range(5):
        a, b = single.gammas[:, k], full.gammas[:, k]
        se = math.sqrt(batch_mean_stderr(a) ** 2 + batch_mean_stderr(b) ** 2)
        gap = abs(a.mean() - b.mean())
        gaps.append(gap / se if se else 0.0)
        ok &= gap < 3 * se + 1e-9
    assert report(8, ok, "gamma mean gaps in MC-se units: " + ", ".join(f"{g:.2f}" for g in gaps))


# -------------------------------------------------------------------- 9


def test_criterion_09_em_ascent_and_least_squares():
    violations = 0
    for seed in range(50):
        data, _ = make_dataset(
            n=int(10 + seed % 8),
            s=2 + seed % 3,
            p=1 + seed % 2,
            seed=500 + seed,
            missing=0.15,
        )
        state, log = run_em(data, EmConfig(max_iterations=60))
        assert log.exact_regime
        logliks = np.array([h[1] for h in log.history])
        if logliks.size > 1 and np.diff(logliks).min() < -1e-9:
            violations += 1

    data, _ = make_dataset(n=25, s=3, p=2, seed=990)
    Zd = snp_design_matrix(data.genotypes.codes, "signed")
    beta, gamma, _ = m_step(Zd.astype(float), np.zeros((3, 3)), data)
    W = np.column_stack([data.X, Zd])
    coef = np.linalg.lstsq(W, data.y, rcond=None)[0]
    ls_gap = float(np.max(np.abs(np.concatenate([beta, gamma]) - coef)))

    ok = violations == 0 and ls_gap < 1e-10
    assert report(
        9, ok, f"0 ascent violations in 50 instances: {violations == 0}; "
        f"complete-data vs least squares gap {ls_gap:.2e}"
    )


# ------------------------------------------------------------------- 10


def test_criterion_10_conditional_sampler_validity():
    # sampling frequencies of the genotype conditional match its probabilities
    from snpgibbs.model import (
        Dataset,
        FamilyDesign,
        GenotypeMatrix,
        PhenotypeVector,
    )
    from snpgibbs.pedigree import RelationshipMatrix

    n = 5
    codes = np.array([[1], [0], [-1], [1], [0]], dtype=np.int8)
    mask = np.zeros((n, 1), dtype=bool)
    mask[0, 0] = True
    y = np.zeros(n)
    y[0] = 1.0
    data = Dataset(
        genotypes=GenotypeMatrix(codes, mask),
        phenotypes=PhenotypeVector(y),
        design=FamilyDesign(np.eye(n, 1)),
        kinship=RelationshipMatrix.identity([f"i{k}" for k in range(n)]),
    )
    state = ParameterState(np.zeros(1), np.array([1.0]), 1.0, 1.0, codes.copy())
    _, probs = imputation_probabilities(state, data, 0, ImputationPrior())
    rng = np.random.default_rng(42)
    counts = np.zeros(3)
    for _ in range(100_000):
        impute_snp_column(state, data, 0, rng, ImputationPrior(), fresh_workspace(state, data))
        counts[int(state.z_imputed[0, 0]) + 1] += 1
    chi_p = st.chisquare(counts, probs[0] * counts.sum()).pvalue

    priors = PriorHyperparams(5.0, 4.0, 5.0, 4.0)
    data_i, _ = make_dataset(n=6, s=2, p=1, seed=31, missing=0.25)
    z_identity = geweke_compare(
        data_i, beta0=[0.5], priors=priors, n_marginal=40_000, n_successive=60_000, seed=3
    )
    data_r, _ = make_dataset(n=6, s=2, p=1, seed=31, missing=0.25, kinship="correlated")
    z_weighted = geweke_compare(
        data_r, beta0=[0.5], priors=priors,
        n_marginal=40_000, n_successive=60_000, seed=3,
    )
    geweke_ok = np.max(np.abs(z_identity)) < Z_CRIT and np.max(np.abs(z_weighted)) < Z_CRIT
    ok = chi_p > 0.001 and geweke_ok
    assert report(
        10,
        ok,
        f"chi-square p={chi_p:.3f}; joint-distribution max|z| "
        f"{np.max(np.abs(z_identity)):.2f} (R=I), {np.max(np.abs(z_weighted)):.2f} (correlated R)",
    )


# ------------------------------------------------------------------- 11


def test_criterion_11_reproducibility(tmp_path):
    from snpgibbs.cli import main

    sim = tmp_path / "sim"
    assert main([
        "simulate", "--preset", "six-family", "--missing", "0.1", "--seed", "5",
        "--out-dir", str(sim),
    ]) == 0
    args = [
        "run", "--genotypes", str(sim / "genotypes.csv"),
        "--phenotypes", str(sim / "phenotypes.csv"),
        "--families", str(sim / "families.csv"),
        "--pedigree", str(sim / "pedigree.csv"),
        "--kinship", "pedigree", "--coding", "additive_dominance",
        "--iters", "400", "--burnin", "100", "--thin", "2", "--seed", "17",
    ]
    out1, out2, out3 = tmp_path / "r1", tmp_path / "r2", tmp_path / "r3"
    assert main(args + ["--out-dir", str(out1)]) == 0
    assert main(args + ["--out-dir", str(out2)]) == 0
    assert main(["run", "--config", str(out1 / "manifest.txt"), "--out-dir", str(out3)]) == 0

    names = ("samples.csv", "summary.csv", "intervals.csv", "autocorr.csv")
    same_cmd = all((out1 / f).read_bytes() == (out2 / f).read_bytes() for f in names)
    from_manifest = all((out1 / f).read_bytes() == (out3 / f).read_bytes() for f in names)
    ok = same_cmd and from_manifest
    assert report(
        11, ok, f"re-run bitwise identical: {same_cmd}; manifest replay identical: {from_manifest}"
    )
