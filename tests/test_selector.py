import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats as st

from snpgibbs import io, selector
from snpgibbs.gibbs import GibbsConfig, PosteriorSamples, run_chain
from snpgibbs.model import GenotypeMatrix, PhenotypeVector, PriorHyperparams, snp_design_matrix
from snpgibbs.selector import (
    ESTIMATE_FIELDS,
    EstimationError,
    ModelIndicator,
    SearchConfig,
    BayesFactorStatistics,
    _SingularGram,
    _batch_log_terms,
    _batch_size,
    bayes_factor_statistics,
    bf_sample_term,
    estimate_bayes_factor,
    exhaustive_search,
    mh_model_search,
    propose_model,
)

from conftest import make_dataset
from _oracles import (
    conjugate_posterior_states,
    g_weight,
    indicator_proposal,
    indicator_walk,
    per_design_statistics,
    quadrature_log_bayes_factor,
    row_by_row_select_files,
)


def toy_states(
    n=12, s=3, seed=40, gamma=(1.0, -0.8, 0.0), count=20_000, phi2=1.5, kinship="identity"
):
    data, _ = make_dataset(
        n=n, s=s, p=2, seed=seed, gamma=list(gamma), sigma2=1.0, kinship=kinship
    )
    Z = snp_design_matrix(data.genotypes.codes, "signed")
    return data, Z, conjugate_posterior_states(data, 1.0, phi2, count, seed=7)


def estimate(samples, included):
    """The Bayes-factor estimate of the model that includes the design
    columns ``included`` over every state of ``samples``."""
    stats = bayes_factor_statistics(samples, included)
    return estimate_bayes_factor(stats, np.ones(len(included), dtype=bool))


def model(*bits):
    """The boolean row over the design columns that ``bf_sample_term``
    takes, from 0/1 bits."""
    return np.array(bits, dtype=bool)


def best_bits(trace):
    return trace.bitstrings([trace.best_row])[0]


def first_visits(trace):
    """(row over all s columns, {field: value}) of each distinct model at
    its first visit, in visit order."""
    rows = np.flatnonzero(trace.first)
    return [
        (bits.astype(bool), {name: getattr(trace, name)[r].item() for name in ESTIMATE_FIELDS})
        for bits, r in zip(trace.bits(rows), rows)
    ]


def trace_columns(trace):
    return {name: getattr(trace, name).tolist()
            for name in ("included", "accepted", "first", *ESTIMATE_FIELDS)}


def states_of(samples):
    return [samples.state(i) for i in range(samples.retained_count)]


class TestModelIndicator:
    def test_construction_and_sets(self):
        delta = ModelIndicator((1, 0, 1, 0))
        assert delta.bitstring() == "1010"
        # equal bits, equal models: a set holds each model once
        assert len({delta, ModelIndicator((1, 0, 1, 0)), ModelIndicator((1, 1, 1, 1))}) == 2

    def test_bad_bits(self):
        with pytest.raises(ValueError):
            ModelIndicator((0, 2))


class TestGWeight:
    def test_orthogonal_excluded_column(self):
        # one excluded column orthogonal to the residual: weight = (2 pi s2)^{-1/2} |z'z|^{1/2}
        data, Z, samples = toy_states()
        state = samples.state(0)
        state.beta = np.zeros(2)
        state.gamma = np.zeros(3)
        zc = Z[:, 2]
        y_orth = np.ones(12) - (np.ones(12) @ zc) / (zc @ zc) * zc
        object.__setattr__(data.phenotypes, "values", y_orth)
        delta = model(1, 1, 0)
        expected = (2 * np.pi * state.sigma2) ** -0.5 * np.sqrt(zc @ zc)
        assert abs(g_weight(state, data, delta) - expected) < 1e-12 * expected

    def test_hand_evaluation(self):
        data, Z, samples = toy_states(n=4, s=2, seed=2, gamma=(0.5, 0.0), count=10)
        state = samples.state(0)
        delta = model(1, 0)
        zc = Z[:, 1]
        C = data.y - data.X @ state.beta - Z[:, [0]] @ state.gamma[[0]]
        quad = (C @ zc) ** 2 / (zc @ zc)
        expected = (
            (2 * np.pi * state.sigma2) ** -0.5
            * np.sqrt(zc @ zc)
            * np.exp(-quad / (2 * state.sigma2))
        )
        assert abs(g_weight(state, data, delta) - expected) < 1e-10 * expected

    def test_full_model_rejected(self):
        data, _, samples = toy_states(count=10)
        with pytest.raises(ValueError):
            g_weight(samples.state(0), data, model(1, 1, 1))

    def test_determinant_scaling(self):
        # duplicating all rows doubles Z_c'Z_c, scaling the weight by sqrt(2)^dc
        data, Z, samples = toy_states(count=5)
        delta = model(1, 1, 0)
        zero_y = dataclasses.replace(data, phenotypes=PhenotypeVector(np.zeros(12)))
        state = samples.state(0)
        state.gamma = np.zeros(3)
        state.beta = np.zeros(2)
        w1 = g_weight(state, zero_y, delta)

        doubled = np.vstack([data.genotypes.codes, data.genotypes.codes])
        data2, _ = make_dataset(n=24, s=3, p=2, seed=0, gamma=[0, 0, 0])
        data2 = dataclasses.replace(
            data2,
            genotypes=GenotypeMatrix(doubled, np.zeros_like(doubled, dtype=bool)),
            phenotypes=PhenotypeVector(np.zeros(24)),
        )
        state2 = samples.state(1)
        state2.beta = np.zeros(2)
        state2.gamma = np.zeros(3)
        state2.sigma2 = state.sigma2
        state2.z_imputed = doubled
        w2 = g_weight(state2, data2, delta)
        # residuals are zero in both, so only the determinant factor moves
        assert abs(w2 / w1 - np.sqrt(2)) < 1e-9


class TestBfTerm:
    def test_full_model_term_is_zero(self):
        data, _, samples = toy_states(count=5)
        assert bf_sample_term(samples.state(0), data, model(1, 1, 1)) == 0.0

    def test_direct_arithmetic(self):
        data, Z, samples = toy_states(count=5)
        state = samples.state(0)
        delta = model(1, 0, 0)
        exc = [1, 2]
        Zc = Z[:, exc]
        G = Zc.T @ Zc
        C = data.y - data.X @ state.beta - Z[:, [0]] @ state.gamma[[0]]
        t = Zc.T @ C
        quad = t @ np.linalg.solve(G, t)
        gc = state.gamma[exc]
        expected = (
            0.5 * 2 * math.log(state.phi2)
            + 0.5 * math.log(np.linalg.det(G))
            + (gc @ gc / state.phi2 - quad) / (2 * state.sigma2)
        )
        assert abs(bf_sample_term(state, data, delta) - expected) < 1e-10

    def test_zero_gamma_orthogonal_reduction(self):
        data, Z, samples = toy_states(count=5)
        state = samples.state(0)
        state.gamma = np.zeros(3)
        state.beta = np.zeros(2)
        object.__setattr__(data.phenotypes, "values", np.zeros(12))
        delta = model(1, 1, 0)
        zc = Z[:, 2]
        expected = 0.5 * math.log(state.phi2) + 0.5 * math.log(zc @ zc)
        assert abs(bf_sample_term(state, data, delta) - expected) < 1e-12


class TestEstimator:
    def test_full_model_exactly_one(self):
        _, _, samples = toy_states(count=500)
        est = estimate(samples, (0, 1, 2))
        assert est.log_value == 0.0

    @pytest.mark.parametrize("kinship", ["identity", "correlated"])
    def test_matches_quadrature_oracle(self, kinship):
        data, Z, samples = toy_states(count=100_000, kinship=kinship)
        for included, tol_1e4, tol_1e5 in [((0, 1), 0.10, 0.03), ((), 0.10, 0.03)]:
            oracle = quadrature_log_bayes_factor(
                data.y, data.X, Z, data.R, 1.0, 1.5, included, nodes=48
            )
            est4 = estimate(samples[:10_000], included)
            est5 = estimate(samples, included)
            assert abs(math.exp(est4.log_value - oracle) - 1) < tol_1e4
            assert abs(math.exp(est5.log_value - oracle) - 1) < tol_1e5

    def test_determinism_over_fixed_stream(self):
        _, _, samples = toy_states(count=2000)
        a = estimate(samples, (0, 2))
        b = estimate(samples, (0, 2))
        assert a.log_value == b.log_value
        assert a.sample_count == b.sample_count

    def test_empty_window_rejected(self):
        _, _, samples = toy_states(count=10)
        with pytest.raises(EstimationError, match="no posterior states"):
            estimate(samples[:0], (0, 2))
        with pytest.raises(EstimationError, match="no posterior states"):
            exhaustive_search(samples[10:], [0, 1])

    def test_singular_gram_terms_invalidated(self):
        # an excluded all-zero observed column makes the Gram matrix singular
        # for all states
        data, _, samples = toy_states(count=50)
        codes = data.genotypes.codes.copy()
        codes[:, 2] = 0
        data = dataclasses.replace(
            data, genotypes=dataclasses.replace(data.genotypes, codes=codes)
        )
        samples = dataclasses.replace(samples, data=data)
        with pytest.raises(EstimationError, match="invalid for model 110"):
            estimate(samples, (0, 1))

    def test_indefinite_schur_complement_invalid(self):
        # S = -I_2 has determinant +1, yet it is not positive definite: a
        # model excluding both candidates has no valid term
        L = 3
        stats = BayesFactorStatistics(
            2, (0, 1), (),
            logdet_f=np.zeros(1),
            M=np.zeros((2, 2, 1)),
            S=-np.eye(2)[..., None],
            q0=np.zeros((1, L)),
            b=np.zeros((2, 1, L)),
            g=np.ones((2, 1, L)),
            gamma=np.full((2, 1, L), 0.5),
            gamma_f2=np.zeros((1, L)),
            sigma2=np.ones((1, L)),
            phi2=np.ones((1, L)),
            log_phi2=np.zeros((1, L)),
            invalid=0,
        )
        assert np.linalg.slogdet(stats.S[..., 0])[0] > 0
        for row in ([False, False], [True, False]):
            with pytest.raises(EstimationError, match=f"all {L} terms invalid"):
                estimate_bayes_factor(stats, np.array(row))
        assert estimate_bayes_factor(stats, np.ones(2, dtype=bool)).log_value == 0.0

    def test_row_of_wrong_length_refused(self):
        _, _, samples = toy_states(count=10)
        stats = bayes_factor_statistics(samples, [0, 2])
        with pytest.raises(ValueError, match="one entry per candidate"):
            estimate_bayes_factor(stats, np.ones(3, dtype=bool))


def imputed_states(coding, kinship, count=40, seed=5, missing=0.2, constant_snp=None):
    """PosteriorSamples whose states each complete the missing genotypes
    differently, so every state has its own design (with ``missing=0`` all
    share the observed one).

    With ``constant_snp`` that SNP's observed cells are all 0 and state 7
    completes its masked cells with 0 as well, so the SNP's additive design
    column is all-zero in that state's design only; every other state
    completes one of its cells with 1."""
    data, _ = make_dataset(
        n=20, s=5, p=2, seed=seed, missing=missing, coding=coding, kinship=kinship
    )
    rng = np.random.default_rng(seed)
    mask = data.genotypes.missing_mask
    p, sd = data.X.shape[1], data.design_dim
    betas, gammas = np.empty((count, p)), np.empty((count, sd))
    sigma2s, phi2s = np.empty(count), np.empty(count)
    masked = np.empty((count, int(mask.sum())), dtype=np.int8)
    for k in range(count):
        masked[k] = rng.integers(-1, 2, size=masked.shape[1])
        betas[k] = rng.normal(size=p)
        gammas[k] = rng.normal(0.0, 0.5, size=sd)
        sigma2s[k] = rng.uniform(0.5, 2.0)
        phi2s[k] = rng.uniform(0.5, 3.0)
    if constant_snp is not None:
        codes = data.genotypes.codes.copy()
        codes[:, constant_snp] = 0
        data = dataclasses.replace(
            data, genotypes=dataclasses.replace(data.genotypes, codes=codes)
        )
        cells = np.flatnonzero(np.nonzero(mask)[1] == constant_snp)  # in masked_values order
        assert cells.size > 1
        masked[:, cells[0]] = 1
        masked[7, cells] = 0
    draws = np.column_stack([betas, gammas, sigma2s, phi2s])
    return data, PosteriorSamples(data, draws, masked)


def reference_log_bf(states, data, delta):
    """Log mean of the per-state ``bf_sample_term``s of the states whose
    excluded Gram matrix is nonsingular, and how many those are."""
    terms = _reference_terms(states, data, delta)
    top = max(terms)
    return top + math.log(sum(math.exp(t - top) for t in terms) / len(terms)), len(terms)


class TestBlockElimination:
    @pytest.mark.parametrize("coding", ["signed", "additive_dominance"])
    @pytest.mark.parametrize("kinship", ["identity", "correlated"])
    def test_search_matches_per_state_reference(self, coding, kinship):
        # SNP 4 is never a candidate: its monomorphic completion in state 7
        # makes the always-excluded block of that one state singular
        data, samples = imputed_states(coding, kinship, constant_snp=4)
        states = states_of(samples)
        assert len({state.z_imputed.tobytes() for state in states}) == len(states)
        assert not states[7].z_imputed[:, 4].any()
        candidates = data.design_columns_of_snp(0) + data.design_columns_of_snp(2)
        trace = exhaustive_search(
            samples, candidates, SearchConfig(min_samples_per_bf=len(states))
        )
        assert trace.first.sum() == 2 ** len(candidates)
        for delta, est in first_visits(trace):
            reference, valid = reference_log_bf(states, data, delta)
            assert valid == len(states) - 1
            assert abs(est["log_value"] - reference) < 1e-9
            assert est["invalid_count"] == 1
            assert est["sample_count"] == len(states) - 1

    @pytest.mark.parametrize("kinship", ["identity", "correlated"])
    def test_shared_design_matches_per_state_reference(self, kinship):
        data, samples = imputed_states("additive_dominance", kinship, missing=0.0)
        states = states_of(samples)
        candidates = data.design_columns_of_snp(1) + data.design_columns_of_snp(3)
        trace = exhaustive_search(
            samples, candidates, SearchConfig(min_samples_per_bf=len(states))
        )
        assert trace.first.sum() == 2 ** len(candidates)
        for delta, est in first_visits(trace):
            reference, _ = reference_log_bf(states, data, delta)
            assert abs(est["log_value"] - reference) < 1e-9
            assert est["sample_count"] == len(states) and est["invalid_count"] == 0

    def test_search_reads_only_the_window(self):
        data, _ = make_dataset(n=15, s=3, seed=3, missing=0.2)
        post = run_chain(
            data, PriorHyperparams(),
            GibbsConfig(total_iterations=300, burn_in=100, thinning=1, seed=1),
        )
        config = SearchConfig(search_iterations=60, seed=2, min_samples_per_bf=50)
        window = post[150:]  # the last min_samples_per_bf of 200 rows
        assert window.retained_count == 50
        for search in (
            lambda samples: exhaustive_search(samples, [0, 1], config),
            lambda samples: mh_model_search(samples, None, config),
        ):
            whole, part = search(post), search(window)
            assert whole.visited == part.visited
            assert trace_columns(whole) == trace_columns(part)
        # a different window scores differently
        assert trace_columns(exhaustive_search(post[100:150], [0, 1], config)) != (
            trace_columns(exhaustive_search(window, [0, 1], config))
        )


ESTIMATE_FIELDS = (
    "log_value", "sample_count", "invalid_count",
    "log_term_mean", "log_term_variance", "weight_ess",
)


def _assert_batches_match_single_models(samples, candidates, window):
    """Each model of an exhaustive search (scored in batches) equals its
    single-model ``estimate_bayes_factor`` field by field, within 1e-12
    relative."""
    trace = exhaustive_search(samples, candidates, SearchConfig(min_samples_per_bf=window))
    assert trace.first.sum() == 2 ** len(candidates)
    stats = bayes_factor_statistics(samples[-window:], candidates)
    assert trace.candidates == stats.candidates
    for row in range(len(trace)):
        single = estimate_bayes_factor(stats, trace.included[row])
        for name in ESTIMATE_FIELDS:
            assert math.isclose(
                getattr(trace, name)[row], getattr(single, name), rel_tol=1e-12, abs_tol=0.0
            ), (trace.bitstrings([row]), name)
    return stats


@pytest.fixture
def kernel_calls(monkeypatch):
    """Record each ``_batch_log_terms`` call as (models, excluded-set size,
    largest array any of its einsums reads or writes)."""
    calls, largest = [], []
    kernel, einsum = selector._batch_log_terms, np.einsum

    def recording_einsum(subscripts, *operands, **kwargs):
        result = einsum(subscripts, *operands, **kwargs)
        if largest:
            largest[-1] = max(largest[-1], result.size, *(a.size for a in operands))
        return result

    def recording_kernel(stats, included):
        largest.append(0)
        try:
            return kernel(stats, included)
        finally:
            calls.append((len(included), int((~included[0]).sum()), largest.pop()))

    monkeypatch.setattr(np, "einsum", recording_einsum)
    monkeypatch.setattr(selector, "_batch_log_terms", recording_kernel)
    return calls


def _assert_batches_within_cap(calls, designs, states):
    """Every batch's gathered arrays stay within BATCH_ENTRIES: those its
    einsums read, and its (E, E, B, D) excluded Schur complements."""
    for models, excluded, largest in calls:
        assert largest <= selector.BATCH_ENTRIES
        assert excluded * excluded * models * designs <= selector.BATCH_ENTRIES
        assert models * designs * states <= largest


class TestBatchedScoring:
    @pytest.mark.parametrize("kinship", ["identity", "correlated"])
    def test_missing_genotypes(self, kinship):
        data, samples = imputed_states("additive_dominance", kinship)
        candidates = data.design_columns_of_snp(0) + data.design_columns_of_snp(3)
        stats = _assert_batches_match_single_models(samples, candidates, 40)
        assert stats.q0.shape == (40, 1)

    @pytest.mark.parametrize("kinship", ["identity", "correlated"])
    def test_shared_design(self, kinship):
        data, samples = imputed_states("additive_dominance", kinship, missing=0.0)
        candidates = data.design_columns_of_snp(1) + data.design_columns_of_snp(2)
        stats = _assert_batches_match_single_models(samples, candidates, 40)
        assert stats.q0.shape == (1, 40)

    def test_pedigree_kinship_over_several_batches(self):
        from snpgibbs.simulator import (
            MissingnessMask, apply_missingness, simulate_dataset, six_family_design,
        )

        data, _ = simulate_dataset(six_family_design(), seed=3)
        data = apply_missingness(data, MissingnessMask(0.1, seed=3))
        post = run_chain(
            data, PriorHyperparams(),
            GibbsConfig(total_iterations=300, burn_in=100, thinning=1, seed=3),
        )
        candidates = list(range(data.design_dim))  # 10 columns, 1024 models
        stats = _assert_batches_match_single_models(post, candidates, 200)
        # the largest excluded-set size spans several batches of the cap
        assert stats.q0.shape == (200, 1)
        half = len(candidates) // 2
        batch = _batch_size(stats, half)
        assert 1 < batch and 4 * batch < math.comb(len(candidates), half)

    def test_one_call_per_excluded_set_size_at_seven_candidates(self, kernel_calls):
        # 7 of 10 design columns over 100 designs: each size's 1-35 models
        # fit one batch; sized by the largest size (D * K^2 = 4900 entries
        # a model) the two 35-model sizes took two calls each
        data, samples = imputed_states("additive_dominance", "correlated", count=100)
        candidates = [0, 1, 2, 4, 5, 7, 9]
        trace = exhaustive_search(samples, candidates, SearchConfig(min_samples_per_bf=100))
        assert len(trace) + trace.skipped == 2 ** len(candidates)
        assert [(models, excluded) for models, excluded, _ in kernel_calls] == [
            (math.comb(7, e), e) for e in range(7, -1, -1)
        ]
        _assert_batches_within_cap(kernel_calls, 100, 1)

    def test_each_size_batched_within_the_cap(self, kernel_calls, monkeypatch):
        # a cap of 36 * D entries allows 36 // m^2 models a batch, so every
        # size but the full and the null model's spans several batches
        data, samples = imputed_states("additive_dominance", "identity", count=50)
        candidates = [0, 1, 3, 4, 6, 8]
        monkeypatch.setattr(selector, "BATCH_ENTRIES", 50 * 3 * 3 * 4)
        exhaustive_search(samples, candidates, SearchConfig(min_samples_per_bf=50))
        calls = {}
        for models, excluded, _ in kernel_calls:
            calls.setdefault(excluded, []).append(models)
        for excluded, batches in calls.items():
            m = max(excluded, 6 - excluded)
            assert sum(batches) == math.comb(6, excluded)
            assert max(batches) == min(math.comb(6, excluded), 36 // (m * m)), excluded
        assert all(len(calls[excluded]) > 1 for excluded in range(1, 6))
        _assert_batches_within_cap(kernel_calls, 50, 1)


def read_body(path):
    """The rows of a written table: no manifest line, no header."""
    return [line for line in path.read_text().splitlines() if not line.startswith("#")][1:]


def _masks(trace, candidates):
    """Each row's mask: bit k set when its model includes candidates[k]."""
    bits = trace.bits(np.arange(len(trace)))[:, list(candidates)].astype(np.int64)
    return (bits << np.arange(len(candidates))).sum(axis=1)


def _singular_column_states():
    """toy_states whose SNP 2 is all 0: every model excluding it has no
    valid term."""
    data, _, samples = toy_states(count=50)
    codes = data.genotypes.codes.copy()
    codes[:, 2] = 0
    data = dataclasses.replace(
        data, genotypes=dataclasses.replace(data.genotypes, codes=codes)
    )
    return data, dataclasses.replace(samples, data=data)


SELECT_FILES = ("trace.csv", "bf_diagnostics.csv", "best_model.txt")


def _write_select_files(out, trace, labels, manifest=()):
    out.mkdir()
    io.write_trace(out / "trace.csv", trace, manifest)
    io.write_bf_diagnostics(out / "bf_diagnostics.csv", trace, manifest)
    io.write_best_model(out / "best_model.txt", trace, labels, manifest)


class TestTraceColumns:
    # six candidate columns, out of design order
    @staticmethod
    def _search_inputs(kinship="correlated"):
        data, samples = imputed_states("additive_dominance", kinship)
        candidates = (data.design_columns_of_snp(3) + data.design_columns_of_snp(0)
                      + data.design_columns_of_snp(1))
        return data, samples, candidates

    @pytest.mark.parametrize("kinship", ["identity", "correlated"])
    def test_columns_equal_single_model_estimates(self, kinship):
        data, samples, candidates = self._search_inputs(kinship)
        assert data.genotypes.missing_mask.any()
        trace = exhaustive_search(samples, candidates, SearchConfig(min_samples_per_bf=40))
        assert len(trace) == 2 ** len(candidates) and trace.skipped == 0
        assert trace.first.all() and trace.accepted.all()
        stats = bayes_factor_statistics(samples, candidates)
        assert trace.candidates == stats.candidates
        for row in range(len(trace)):
            single = estimate_bayes_factor(stats, trace.included[row])
            for name in ESTIMATE_FIELDS:
                assert getattr(trace, name)[row] == getattr(single, name), (row, name)

    @pytest.mark.parametrize("coarse", [False, True])
    def test_rank_is_a_stable_sort_in_mask_order(self, monkeypatch, coarse):
        data, samples, candidates = self._search_inputs()
        if coarse:  # log BFs rounded to whole nats: many ties
            summaries = selector._summaries

            def rounded(*args):
                summary = summaries(*args)
                summary["log_value"] = np.round(summary["log_value"])
                return summary

            monkeypatch.setattr(selector, "_summaries", rounded)
        trace = exhaustive_search(samples, candidates, SearchConfig(min_samples_per_bf=40))
        masks = _masks(trace, candidates).tolist()
        log_bf = dict(zip(masks, trace.log_value.tolist()))
        assert len(log_bf) == 2 ** len(candidates)
        if coarse:
            assert len(set(log_bf.values())) < len(log_bf) // 2
        reference = sorted(sorted(log_bf.items()), key=lambda item: item[1], reverse=True)
        assert masks == [m for m, _ in reference]
        assert trace.best_row == 0

    def test_model_without_valid_term_skipped_and_written_nowhere(self, tmp_path):
        data, samples = _singular_column_states()
        labels = data.gamma_labels()
        config = SearchConfig(search_iterations=50, seed=1, min_samples_per_bf=50)
        for name, trace in (("exhaustive", exhaustive_search(samples, [0, 1, 2], config)),
                            ("mh", mh_model_search(samples, None, config))):
            scored = {"001", "011", "101", "111"}  # those including SNP 2
            assert trace.skipped == (4 if name == "exhaustive" else 21)
            assert len(trace) == (4 if name == "exhaustive" else 50 + 1 - 21)
            _write_select_files(tmp_path / name, trace, labels)
            rows = [r.split(",") for r in read_body(tmp_path / name / "trace.csv")]
            diagnostics = [r.split(",") for r in read_body(tmp_path / name / "bf_diagnostics.csv")]
            assert {r[1] for r in rows} == {r[0] for r in diagnostics} == scored
            assert len(diagnostics) == 4
            best = (tmp_path / name / "best_model.txt").read_text().splitlines()
            assert best[-1] == f"skipped={trace.skipped}"

    @pytest.mark.parametrize("search", ["exhaustive", "mh"])
    @pytest.mark.parametrize("chunked", [False, True])
    def test_files_match_row_by_row_reference(self, tmp_path, monkeypatch, search, chunked):
        data, samples, candidates = self._search_inputs()
        if chunked:  # the writers format 3 rows at a time
            monkeypatch.setattr(io, "BATCH_ENTRIES", 3 * data.design_dim)
        config = SearchConfig(search_iterations=80, seed=3, min_samples_per_bf=40)
        if search == "exhaustive":
            trace = exhaustive_search(samples, candidates, config)
        else:
            trace = mh_model_search(samples, candidates, config)
            # repeated visits and rejected proposals
            assert trace.first.sum() < len(trace) and not trace.accepted.all()
        labels = data.gamma_labels()
        manifest = ["# command=select", "# seed=3"]
        _write_select_files(tmp_path / "columns", trace, labels, manifest)
        (tmp_path / "reference").mkdir()
        row_by_row_select_files(tmp_path / "reference", trace, labels, manifest)
        for name in SELECT_FILES:
            assert (tmp_path / "columns" / name).read_bytes() == (
                tmp_path / "reference" / name
            ).read_bytes(), name

    def test_more_candidates_than_a_machine_word(self):
        # the walk's bits are a boolean row per model, not an integer mask
        data, _ = make_dataset(n=40, s=70, p=1, seed=2)
        post = conjugate_posterior_states(data, 1.0, 1.5, 30, seed=7)
        trace = mh_model_search(post, None, SearchConfig(search_iterations=5, seed=1,
                                                         min_samples_per_bf=30))
        assert trace.included.shape[1] == 70
        assert trace.bitstrings([0]) == ["1" * 70]
        assert [delta.bitstring() for delta, _, _ in trace.visited] == (
            trace.bitstrings(np.arange(len(trace)))
        )


def _reference_terms(states, data, delta):
    """Per-state ``bf_sample_term``s of the states whose excluded Gram
    matrix is nonsingular, in window order."""
    terms = []
    for state in states:
        try:
            terms.append(bf_sample_term(state, data, delta))
        except _SingularGram:
            pass
    return terms


def _assert_walk_matches_reference(samples, candidates):
    """Every model over ``candidates``: the batch kernel, scoring the models
    of each excluded-set size as one batch, keeps the reference's valid
    states, and each of its per-state terms equals the reference within
    1e-9. Returns how many terms each model kept."""
    data, states = samples.data, states_of(samples)
    stats = bayes_factor_statistics(samples, candidates)
    position = [stats.candidates.index(c) for c in candidates]
    masks = range(2 ** len(candidates))
    included = np.zeros((len(masks), len(stats.candidates)), dtype=bool)
    for mask in masks:
        for k in range(len(candidates)):
            included[mask, position[k]] = bool(mask >> k & 1)
    kept = {}
    for size in set(included.sum(axis=1)):
        rows = np.flatnonzero(included.sum(axis=1) == size)
        terms, valid = _batch_log_terms(stats, included[rows])
        valid = np.broadcast_to(valid, terms.shape)
        for b, mask in enumerate(rows):
            chosen = [c for k, c in enumerate(candidates) if mask >> k & 1]
            delta = np.isin(np.arange(data.design_dim), chosen)
            reference = _reference_terms(states, data, delta)
            model_terms = terms[b][valid[b]]
            assert len(model_terms) == len(reference)
            assert np.max(np.abs(model_terms - reference), initial=0.0) < 1e-9
            kept[tuple(chosen)] = len(model_terms)
    return kept


def chain_window(kinship, thinning, count=60, seed=4):
    """The last ``count`` states of a cycle-mode chain with missing
    genotypes, under additive-dominance coding."""
    data, _ = make_dataset(
        n=30, s=8, p=2, seed=seed, missing=0.2, coding="additive_dominance",
        kinship=kinship,
    )
    config = GibbsConfig(
        total_iterations=100 + count * thinning, burn_in=100, thinning=thinning, seed=seed
    )
    return run_chain(data, PriorHyperparams(), config)


def changed_design_columns(samples):
    designs = [
        snp_design_matrix(state.z_imputed, samples.data.snp_coding)
        for state in states_of(samples)
    ]
    return [int((a != b).any(axis=0).sum()) for a, b in zip(designs, designs[1:])]


class TestWindowWalk:
    @pytest.mark.parametrize("thinning", [1, 4])
    @pytest.mark.parametrize("kinship", ["identity", "correlated"])
    def test_chain_window_matches_per_state_reference(self, kinship, thinning):
        samples = chain_window(kinship, thinning)
        data = samples.data
        changed = changed_design_columns(samples)
        if thinning == 1:  # one SNP redrawn per sweep: 0-2 design columns change
            assert 0 in changed and max(changed) == 2
        else:
            assert min(changed) < data.design_dim and max(changed) > 2
        candidates = data.design_columns_of_snp(1) + data.design_columns_of_snp(3)
        kept = _assert_walk_matches_reference(samples, candidates)
        assert set(kept.values()) == {samples.retained_count}

    def test_singular_design_mid_window(self):
        samples = chain_window("correlated", 4)
        # with the observed cells of never-candidate SNP 4 all 0, state 30's
        # all-0 completion of it makes the always-excluded block of that one
        # state singular
        data = samples.data
        codes = data.genotypes.codes.copy()
        codes[:, 4] = 0
        data = dataclasses.replace(
            data, genotypes=dataclasses.replace(data.genotypes, codes=codes)
        )
        masked = samples.masked_values.copy()
        masked[30, np.nonzero(data.genotypes.missing_mask)[1] == 4] = 0
        samples = dataclasses.replace(samples, data=data, masked_values=masked)
        count = samples.retained_count
        candidates = data.design_columns_of_snp(0) + data.design_columns_of_snp(2)
        stats = bayes_factor_statistics(samples, candidates)
        assert stats.invalid == 1 and stats.q0.shape == (count - 1, 1)
        kept = _assert_walk_matches_reference(samples, candidates)
        assert set(kept.values()) == {count - 1}

    def test_all_zero_candidate_column(self):
        data, samples = imputed_states("signed", "correlated")
        codes = data.genotypes.codes.copy()
        mask = data.genotypes.missing_mask.copy()
        kept_cells = np.nonzero(mask)[1] != 2  # column 2 loses its masked cells
        codes[:, 2], mask[:, 2] = 0, False
        data = dataclasses.replace(data, genotypes=GenotypeMatrix(codes, mask))
        samples = dataclasses.replace(
            samples, data=data, masked_values=samples.masked_values[:, kept_cells]
        )
        count = samples.retained_count
        kept = _assert_walk_matches_reference(samples, [0, 2])
        assert kept == {(): 0, (0,): 0, (2,): count, (0, 2): count}


STATISTICS_FIELDS = (
    "logdet_f", "M", "S", "q0", "b", "g", "gamma", "gamma_f2", "sigma2", "phi2", "log_phi2",
)


def _assert_statistics_match_oracle(samples, candidates):
    """``bayes_factor_statistics`` equals the design-by-design reference in
    every field, each within 1e-12 of its largest magnitude, with the same
    grouping and invalid count."""
    stats = bayes_factor_statistics(samples, candidates)
    reference = per_design_statistics(samples, candidates)
    assert (stats.s, stats.candidates, stats.fixed) == (
        reference.s, reference.candidates, reference.fixed
    )
    assert stats.invalid == reference.invalid
    for name in STATISTICS_FIELDS:
        value, expected = getattr(stats, name), getattr(reference, name)
        assert value.shape == expected.shape, name
        scale = np.max(np.abs(expected), initial=0.0)
        assert np.max(np.abs(value - expected), initial=0.0) <= 1e-12 * scale, name
    return stats


@pytest.fixture
def factor_batches(monkeypatch):
    """Record how many designs each Cholesky call factors (1 for a single
    matrix); a test clears the record before the call it checks."""
    sizes = []
    cholesky = np.linalg.cholesky

    def recording(a):
        sizes.append(len(a) if np.ndim(a) == 3 else 1)
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", recording)
    return sizes


def _chunk_designs(monkeypatch, samples, designs):
    """Cap the chunk buffer at ``designs`` Grams of the window's size."""
    T = samples.data.design_dim + samples.data.X.shape[1] + 1
    monkeypatch.setattr(selector, "BATCH_ENTRIES", designs * T * T)


class TestChunkedStatistics:
    @pytest.mark.parametrize("coding", ["signed", "additive_dominance"])
    @pytest.mark.parametrize("kinship", ["identity", "correlated"])
    def test_chunks_match_per_design_reference(
        self, coding, kinship, monkeypatch, factor_batches
    ):
        data, samples = imputed_states(coding, kinship)
        candidates = data.design_columns_of_snp(1) + data.design_columns_of_snp(3)
        _chunk_designs(monkeypatch, samples, 7)
        factor_batches.clear()
        stats = _assert_statistics_match_oracle(samples, candidates)
        assert stats.q0.shape == (40, 1) and stats.invalid == 0
        # six chunks of the 40 designs, the last partial
        assert factor_batches[:6] == [7, 7, 7, 7, 7, 5]

    @pytest.mark.parametrize("thinning", [1, 4])
    @pytest.mark.parametrize("kinship", ["identity", "correlated"])
    def test_chain_window_matches_per_design_reference(
        self, kinship, thinning, monkeypatch
    ):
        # one SNP redrawn per sweep: consecutive designs share most cells,
        # and at thinning 1 some designs change none
        samples = chain_window(kinship, thinning)
        data = samples.data
        candidates = data.design_columns_of_snp(0) + data.design_columns_of_snp(5)
        _chunk_designs(monkeypatch, samples, 16)
        stats = _assert_statistics_match_oracle(samples, candidates)
        assert stats.q0.shape == (60, 1)

    def test_singular_design_in_a_later_chunk(self, monkeypatch, factor_batches):
        # state 7's design has a singular H_FF: its chunk of designs 6-8
        # fails as a batch and is factored design by design
        data, samples = imputed_states("additive_dominance", "correlated", constant_snp=4)
        candidates = data.design_columns_of_snp(0) + data.design_columns_of_snp(2)
        _chunk_designs(monkeypatch, samples, 3)
        factor_batches.clear()
        stats = _assert_statistics_match_oracle(samples, candidates)
        assert stats.invalid == 1 and stats.q0.shape == (39, 1)
        # 14 chunks, the third retried per design
        assert factor_batches[:17] == [3, 3, 3, 1, 1, 1] + [3] * 10 + [1]

    @pytest.mark.parametrize("coding", ["signed", "additive_dominance"])
    @pytest.mark.parametrize("kinship", ["identity", "correlated"])
    def test_complete_genotypes_one_design(self, coding, kinship, factor_batches):
        data, samples = imputed_states(coding, kinship, missing=0.0)
        candidates = data.design_columns_of_snp(2)
        factor_batches.clear()
        stats = _assert_statistics_match_oracle(samples, candidates)
        assert stats.q0.shape == (1, 40)
        assert factor_batches[:1] == [1]


class TestProposal:
    # the walk's coordinates in a non-ascending candidate order
    WALK = np.array([2, 0, 3, 1])

    def test_pure_flip_moves_hamming_one(self, rng):
        config = SearchConfig(mixture_prob=1.0)
        current = np.array([True, False, True, True])
        for _ in range(200):
            prop = propose_model(current, self.WALK, rng, config)
            assert (prop != current).sum() == 1
        assert current.tolist() == [True, False, True, True]  # not changed in place

    def test_pure_jump_uniform_chi_square(self, rng):
        config = SearchConfig(mixture_prob=0.0)
        current = np.ones(4, dtype=bool)
        counts = np.zeros(16)
        for _ in range(100_000):
            prop = propose_model(current, self.WALK, rng, config)
            counts[int("".join("1" if b else "0" for b in prop), 2)] += 1
        assert st.chisquare(counts).pvalue > 0.001

    def test_exact_symmetry(self):
        # q(a -> b) == q(b -> a) for every pair of rows of four positions,
        # three of them walked out of order, summed exactly over every draw
        # of each branch: a flip of coordinate k has probability p / K, a
        # jump to the 0/1 vector v has (1 - p) / 2^K
        walk = np.array([2, 0, 3])
        K, p = len(walk), Fraction(3, 10)
        config = SearchConfig(mixture_prob=0.3)
        flips = [(_Steered(0.0, k, (K,), None), p / K) for k in range(K)]
        jumps = [(_Steered(1.0, np.array(v), (0, 2), K), (1 - p) / 2**K)
                 for v in np.ndindex(*(2,) * K)]
        rows = [np.array(bits, dtype=bool) for bits in np.ndindex(2, 2, 2, 2)]
        q = {}
        for a in rows:
            for steered, weight in flips + jumps:
                b = propose_model(a, walk, steered, config)
                assert b[1] == a[1]  # the position outside the walk keeps its value
                key = (a.tobytes(), b.tobytes())
                q[key] = q.get(key, 0) + weight
        assert sum(weight for _, weight in flips + jumps) == 1
        assert all(q[a, b] == q.get((b, a), 0) for a, b in q)
        assert len(q) == 2 * 2**K * 2**K  # within each value of position 1, every pair


class _Steered:
    """A generator stand-in that sends ``propose_model`` down one branch:
    ``random()`` returns ``uniform``, ``integers`` the one ``draw``, after
    checking that it was asked for the draw's range and size."""

    def __init__(self, uniform, draw, args, size):
        self.uniform, self.draw, self.args, self.size = uniform, draw, args, size

    def random(self):
        return self.uniform

    def integers(self, *args, size=None):
        assert (args, size) == (self.args, self.size)
        return self.draw


TRACE_COLUMNS = ("accepted", "first", *ESTIMATE_FIELDS)


def _assert_walk_matches_indicator_walk(samples, candidates, config):
    """The row walk returns the reference ``ModelIndicator`` walk's trace:
    the same models over all s columns and the same columns, exactly."""
    trace = mh_model_search(samples, candidates, config)
    reference = indicator_walk(samples, candidates, config)
    rows = np.arange(len(reference))
    assert len(trace) == len(reference) and trace.skipped == reference.skipped
    assert np.array_equal(trace.bits(rows), reference.bits(rows))
    for name in TRACE_COLUMNS:
        assert np.array_equal(getattr(trace, name), getattr(reference, name)), name
    ascending = range(samples.data.design_dim) if candidates is None else sorted(candidates)
    assert trace.candidates == tuple(ascending)
    return trace


class TestWalkMatchesIndicatorWalk:
    @pytest.mark.parametrize("mixture_prob", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_candidates_out_of_order(self, seed, mixture_prob):
        data, samples = imputed_states("additive_dominance", "correlated")
        candidates = [7, 2, 5, 0, 9, 3]
        config = SearchConfig(mixture_prob=mixture_prob, search_iterations=60, seed=seed,
                              min_samples_per_bf=40)
        trace = _assert_walk_matches_indicator_walk(samples, candidates, config)
        assert trace.first.sum() > 1

    @pytest.mark.parametrize("mixture_prob", [0.0, 0.5, 1.0])
    def test_skipped_proposals(self, mixture_prob):
        # every model excluding the all-zero SNP 2 has no valid term
        _, samples = _singular_column_states()
        config = SearchConfig(mixture_prob=mixture_prob, search_iterations=50, seed=1,
                              min_samples_per_bf=50)
        trace = _assert_walk_matches_indicator_walk(samples, None, config)
        assert trace.skipped > 0

    def test_proposals_draw_as_the_indicator_proposal(self):
        config = SearchConfig(mixture_prob=0.5)
        walk = np.array([4, 1, 3, 0, 2])
        row = np.array([True, False, False, True, True])
        ours, theirs = np.random.default_rng(11), np.random.default_rng(11)
        for _ in range(500):
            sub = ModelIndicator(tuple(int(row[k]) for k in walk))
            row = propose_model(row, walk, ours, config)
            assert tuple(int(row[k]) for k in walk) == indicator_proposal(sub, theirs, config).bits
        assert ours.random() == theirs.random()


class TestRepeatedCandidate:
    @pytest.mark.parametrize("search", ["exhaustive", "mh"])
    def test_refused(self, search):
        _, _, samples = toy_states(count=50)
        config = SearchConfig(search_iterations=10, seed=1, min_samples_per_bf=50)
        run = exhaustive_search if search == "exhaustive" else mh_model_search
        with pytest.raises(ValueError, match="candidate index 1 repeated"):
            run(samples, [0, 1, 1], config)
        with pytest.raises(ValueError, match="candidate index 1 repeated"):
            bayes_factor_statistics(samples, [1, 0, 1])


class TestSearch:
    def test_two_model_occupancy(self):
        # s = 1: strong null; dominant model occupied > 95% of the time
        _, _, samples = toy_states(n=24, s=1, seed=3, gamma=(0.0,), count=4000, phi2=400.0)
        config = SearchConfig(mixture_prob=0.5, search_iterations=4000, seed=1, min_samples_per_bf=4000)
        null = ModelIndicator((0,))
        bf_null = estimate(samples, ()).log_value
        assert bf_null > math.log(50.0)  # engineered dominance
        trace = mh_model_search(samples, None, config)
        occupancy = _occupancy(trace, null, config.search_iterations)
        assert occupancy > 0.95
        assert best_bits(trace) == "0"

    def test_degenerate_single_snp_explores_both(self):
        _, _, samples = toy_states(n=14, s=1, seed=3, gamma=(0.0,), count=2000)
        config = SearchConfig(search_iterations=500, seed=2)
        trace = mh_model_search(samples, None, config)
        seen = {d.bits for d, _, _ in trace.visited}
        assert len(seen) == 2
        ex = exhaustive_search(samples, [0], config)
        assert best_bits(trace) == best_bits(ex)

    def test_exhaustive_counts_and_ranking(self):
        _, _, samples = toy_states(count=3000)
        config = SearchConfig(min_samples_per_bf=3000)
        trace = exhaustive_search(samples, [0, 1], config)
        assert len(trace.visited) == 4
        log_bfs = [lb for _, lb, _ in trace.visited]
        assert log_bfs == sorted(log_bfs, reverse=True)
        assert trace.log_value[trace.best_row] == log_bfs[0]

    def test_exhaustive_zero_candidates_single_null_eval(self):
        _, _, samples = toy_states(count=500)
        trace = exhaustive_search(samples, [])
        assert len(trace.visited) == 1
        assert trace.visited[0][0] == ModelIndicator((0, 0, 0))

    def test_exhaustive_refuses_large_candidate_list(self):
        _, _, samples = toy_states(count=200)
        with pytest.raises(ValueError, match="mh_model_search"):
            exhaustive_search(samples, list(range(21)))

    def test_mh_argmax_matches_exhaustive(self):
        _, _, samples = toy_states(n=15, s=3, seed=8, gamma=(2.0, 0.0, 0.0), count=4000)
        config = SearchConfig(search_iterations=800, seed=5, min_samples_per_bf=4000)
        mh = mh_model_search(samples, None, config)
        ex = exhaustive_search(samples, [0, 1, 2], config)
        assert best_bits(mh) == best_bits(ex)
        assert abs(mh.log_value[mh.best_row] - ex.log_value[ex.best_row]) < 1e-12

    def test_acceptance_shift_invariance(self):
        # accept/reject depends only on log-BF differences
        rng1 = np.random.default_rng(4)
        rng2 = np.random.default_rng(4)
        for _ in range(1000):
            l_new, l_old = rng1.normal(size=2)
            u = rng1.random()
            shift = rng1.normal() * 100
            assert (math.log(u) < l_new - l_old) == (
                math.log(u) < (l_new + shift) - (l_old + shift)
            )
            rng2.normal(size=2), rng2.random(), rng2.normal()

    def test_candidate_restriction(self):
        _, _, samples = toy_states(count=1500)
        config = SearchConfig(search_iterations=300, seed=9, min_samples_per_bf=1500)
        trace = mh_model_search(samples, [0, 2], config)
        for delta, _, _ in trace.visited:
            assert delta.bits[1] == 0  # non-candidate stays excluded

    def test_two_stage_pipeline_equicorrelated_families(self):
        # correlated-family design end to end: chain with the kinship-coupled
        # genotype conditional, stage-one interval screen, stage-two search;
        # the best model stays inside the screened set and the screen finds
        # mostly true signals
        from snpgibbs.gibbs import GibbsConfig, hpd_interval, run_chain
        from snpgibbs.simulator import (
            MissingnessMask,
            apply_missingness,
            equicorrelated_design,
            simulate_dataset,
        )

        design = equicorrelated_design()
        truth_nonzero = {k for k, g in enumerate(design.gamma_true) if g != 0.0}
        data, _ = simulate_dataset(design, seed=42)
        data = apply_missingness(data, MissingnessMask(0.20, seed=42))
        post = run_chain(
            data,
            PriorHyperparams(),
            GibbsConfig(
                total_iterations=12_000, burn_in=6_000, thinning=2, seed=43,
            ),
        )
        significant = [
            k for k in range(25)
            if not hpd_interval(post.gammas[:, k], 0.95).contains_zero
        ]
        assert significant
        true_hits = truth_nonzero & set(significant)
        assert len(true_hits) >= max(1, len(significant) // 2)
        trace = exhaustive_search(post, significant, SearchConfig(min_samples_per_bf=2000))
        assert set(trace.columns(trace.best_row)).issubset(set(significant))


def _occupancy(trace, target, iterations):
    # reconstruct chain occupancy from the visited/accepted sequence
    current = trace.visited[0][0]
    hits = 0
    steps = 0
    for delta, _, accepted in trace.visited[1:]:
        if accepted:
            current = delta
        hits += current == target
        steps += 1
    return hits / max(steps, 1)
