import numpy as np
import pytest

from snpgibbs.model import (
    ADDITIVE_DOMINANCE,
    DataValidationError,
    Dataset,
    FamilyDesign,
    GenotypeMatrix,
    ImputationPrior,
    PhenotypeVector,
    PriorHyperparams,
    decode_genotypes,
    encode_genotypes,
    family_design,
    genotype_column_values,
    missingness_warnings,
    snp_coding,
    snp_design_matrix,
)
from snpgibbs.pedigree import RelationshipMatrix
from conftest import make_dataset
from _oracles import loop_decode_genotypes, loop_encode_genotypes


class TestEncode:
    def test_stated_mapping(self):
        raw = [["GG"], ["GC"], ["CC"], ["NA"]]
        gm, warnings = encode_genotypes(raw)
        assert list(gm.codes[:, 0]) == [1, 0, -1, 0]
        assert list(gm.missing_mask[:, 0]) == [False, False, False, True]
        assert not warnings

    def test_monomorphic_warning(self):
        gm, warnings = encode_genotypes([["GG"], ["GG"], ["NA"]])
        assert list(gm.codes[:2, 0]) == [1, 1]
        assert gm.missing_mask[2, 0]
        assert any("monomorphic" in w for w in warnings)

    def test_four_categories_rejected(self):
        raw = [["AA"], ["AT"], ["TT"], ["CC"]]
        with pytest.raises(DataValidationError, match="4 categories"):
            encode_genotypes(raw)

    def test_all_missing_column_rejected(self):
        with pytest.raises(DataValidationError, match="no observed"):
            encode_genotypes([["NA"], ["NA"]])

    def test_two_het_calls_rejected(self):
        with pytest.raises(DataValidationError, match="heterozygous"):
            encode_genotypes([["AT"], ["TA"], ["AA"]])

    def test_round_trip_on_observed(self):
        rng = np.random.default_rng(3)
        calls = np.array(["CC", "CG", "GG", "NA"], dtype=object)
        raw = calls[rng.integers(0, 4, size=(30, 4))]
        gm, _ = encode_genotypes(raw)
        back = decode_genotypes(gm)
        gm2, _ = encode_genotypes(back)
        assert np.array_equal(gm.codes[~gm.missing_mask], gm2.codes[~gm2.missing_mask])
        assert np.array_equal(gm.missing_mask, gm2.missing_mask)
        assert np.array_equal(back[~gm.missing_mask], raw[~gm.missing_mask])


def _encode_outcome(encode, raw, **kwargs):
    try:
        gm, warnings = encode(raw, **kwargs)
    except DataValidationError as exc:
        return "error", str(exc)
    return gm.codes.dtype, gm.codes.tolist(), gm.missing_mask.tolist(), gm.snp_names, \
        gm.categories, warnings


class TestEncodeMatchesLoopReference:
    def test_random_tables(self):
        rng = np.random.default_rng(11)
        pool = np.array(
            ["AA", " AA", "AA  ", "AG", "GA ", "GG", "\tGG", "NA", " NA ", "", "  ", "-"],
            dtype=object,
        )
        for _ in range(40):
            s = int(rng.integers(1, 6))
            raw = np.empty((int(rng.integers(1, 12)), s), dtype=object)
            for j in range(s):
                # a few calls per column, so some columns are monomorphic and
                # some break a rule
                raw[:, j] = rng.choice(rng.choice(pool, size=int(rng.integers(2, 6))),
                                       size=raw.shape[0])
            assert _encode_outcome(encode_genotypes, raw) == _encode_outcome(
                loop_encode_genotypes, raw
            )

    def test_row_lists_code_as_their_table(self):
        # a list of row lists is flattened as it is, with the outcome of the
        # object table of the same cells
        rng = np.random.default_rng(13)
        pool = np.array(["AA", " AG", "GG", "NA", "", "CC", "CT"], dtype=object)
        for _ in range(40):
            n, s = int(rng.integers(1, 12)), int(rng.integers(1, 6))
            raw = rng.choice(pool, size=(n, s))
            assert _encode_outcome(encode_genotypes, raw.tolist()) == _encode_outcome(
                encode_genotypes, raw
            )

    @pytest.mark.parametrize("raw", [
        [[" GG", "AT"], ["GC ", "TT"], ["CC", "NA"], ["", " AA"], ["NA", "TA"]],
        [["GG", "AA"], [" GG ", ""], ["NA", "AA"]],  # monomorphic columns
        [["AA"], ["AT"], ["TT"], ["CC"]],  # four categories
        [["NA"], [""], ["  "]],  # no observed call
        [["AT"], ["TA"], ["AA"]],  # two heterozygotes
        [["A"], ["C"], ["G"]],  # three homozygotes
        [["AA", "CC"], ["AT", "TA"]],  # second column fails
        ["AA", "AT"],  # not 2-d
        [[1, 1.0], [2, "2"], [None, "NA"]],  # non-string calls compare by text
    ])
    def test_cases(self, raw):
        names = ("first", "second")[: np.asarray(raw, dtype=object).shape[-1]]
        for kwargs in ({}, {"snp_names": names}):
            assert _encode_outcome(encode_genotypes, raw, **kwargs) == _encode_outcome(
                loop_encode_genotypes, raw, **kwargs
            )


    def test_wide_tables_share_code_maps(self):
        # many columns of a few call sets each, so columns share a code map,
        # and at most one broken column, anywhere
        rng = np.random.default_rng(12)
        sets = [("AA", "AG", "GG"), ("GG", "AG"), ("CC", "CT", "TT", " CC"), ("TT",),
                ("AA", "AG", "GG", "NA")]
        broken = [("AA", "AT", "TT", "CC"), ("NA",), ("AT", "TA"), ("A", "C", "G")]
        for _ in range(30):
            n, s = int(rng.integers(2, 30)), int(rng.integers(20, 80))
            raw = np.empty((n, s), dtype=object)
            for j in range(s):
                raw[:, j] = rng.choice(sets[rng.integers(len(sets))], size=n)
            if rng.random() < 0.5:
                bad = broken[rng.integers(len(broken))]
                raw[:, rng.integers(s)] = [bad[i % len(bad)] for i in range(n)]
            assert _encode_outcome(encode_genotypes, raw) == _encode_outcome(
                loop_encode_genotypes, raw
            )


class TestDecodeMatchesLoopReference:
    def test_random_matrices(self):
        rng = np.random.default_rng(21)
        for trial in range(20):
            n, s = int(rng.integers(1, 15)), int(rng.integers(1, 8))
            codes = rng.integers(-1, 2, size=(n, s)).astype(np.int8)
            mask = rng.random((n, s)) < 0.3
            mask[0] = False  # every column keeps an observed cell
            # a column's categories may lack a code: that code reads AA/AB/BB
            categories = tuple(
                {c: f"{c}{j}" for c in (-1, 0, 1) if rng.random() < 0.7} for j in range(s)
            ) if trial % 2 else ()
            gm = GenotypeMatrix(codes, mask, (), categories)
            got, want = decode_genotypes(gm), loop_decode_genotypes(gm)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tolist() == want.tolist()


class TestDesignCoding:
    def test_signed_matrix_is_codes(self):
        codes = np.array([[1, -1], [0, 1]], dtype=np.int8)
        assert np.array_equal(snp_design_matrix(codes, "signed"), codes.astype(float))

    def test_additive_dominance_expansion(self):
        codes = np.array([[-1], [0], [1]], dtype=np.int8)
        Zd = snp_design_matrix(codes, ADDITIVE_DOMINANCE)
        assert np.array_equal(Zd, np.array([[-1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]))

    def test_column_values_match_matrix(self):
        codes = np.array([[-1, 0], [1, 0], [0, 1]], dtype=np.int8)
        Zd = snp_design_matrix(codes, ADDITIVE_DOMINANCE)
        for j in range(2):
            vals = genotype_column_values(codes[:, j], ADDITIVE_DOMINANCE)
            assert np.array_equal(Zd[:, 2 * j : 2 * j + 2], vals)

    def test_gamma_labels(self):
        data, _ = make_dataset(n=10, s=2, coding=ADDITIVE_DOMINANCE)
        assert data.gamma_labels() == ("snp1:a", "snp1:d", "snp2:a", "snp2:d")

    @pytest.mark.parametrize("coding", ["signed", ADDITIVE_DOMINANCE])
    def test_columns_of_a_snp_follow_the_table(self, coding):
        data, _ = make_dataset(n=10, s=3, coding=coding)
        k = data.columns_per_snp
        assert k == snp_coding(coding).values.shape[1]
        assert data.design_dim == 3 * k
        Zd = snp_design_matrix(data.genotypes.codes, coding)
        for j in range(3):
            cols = data.design_columns_of_snp(j)
            assert cols == tuple(range(k * j, k * j + k))
            values = genotype_column_values(data.genotypes.codes[:, j], coding)
            assert np.array_equal(Zd[:, list(cols)], values)

    def test_unknown_coding_rejected(self):
        data, _ = make_dataset(n=10, s=2)
        with pytest.raises(DataValidationError, match="unknown snp coding"):
            snp_design_matrix(data.genotypes.codes, "dominant")
        with pytest.raises(DataValidationError, match="unknown snp coding"):
            Dataset(data.genotypes, data.phenotypes, data.design, data.kinship, "dominant")


class TestPriors:
    def test_defaults(self):
        priors = PriorHyperparams()
        assert (priors.a, priors.b, priors.c, priors.d) == (2.0, 1.0, 2.0, 1.0)

    def test_zero_rejected(self):
        with pytest.raises(DataValidationError):
            PriorHyperparams(a=0.0)

    @pytest.mark.parametrize("name", ["a", "b", "c", "d"])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_not_finite_rejected(self, name, value):
        with pytest.raises(DataValidationError, match=f"{name} must be finite and > 0"):
            PriorHyperparams(**{name: value})

    def test_half_everywhere_accepted(self):
        priors = PriorHyperparams(0.5, 0.5, 0.5, 0.5)
        assert priors.a == 0.5


class TestImputationPrior:
    def test_uniform_log_weights_zero(self):
        prior = ImputationPrior()
        assert np.array_equal(prior.log_weights(np.array([0, 1]), 0), np.zeros((2, 3)))

    def test_weighted_validation(self):
        w = np.full((2, 2, 3), 1.0 / 3.0)
        prior = ImputationPrior("weighted", w)
        assert prior.weights.shape == (2, 2, 3)
        bad = w.copy()
        bad[0, 0] = (0.5, 0.2, 0.2)
        with pytest.raises(DataValidationError, match="sum to 1"):
            ImputationPrior("weighted", bad)

    def test_negative_weight_rejected(self):
        w = np.full((1, 1, 3), 1.0 / 3.0)
        w[0, 0] = (-0.1, 0.55, 0.55)
        with pytest.raises(DataValidationError, match=">= 0"):
            ImputationPrior("weighted", w)


    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_not_finite_weight_rejected(self, value):
        # a nan triple's sum is nan, which no tolerance comparison rejects
        w = np.full((1, 2, 3), 1.0 / 3.0)
        w[0, 1] = (value, 0.5, 0.5)
        with pytest.raises(DataValidationError, match="must be finite"):
            ImputationPrior("weighted", w)


class TestValidation:
    def test_clean_dataset_passes(self):
        data, _ = make_dataset(n=20, s=4, missing=0.10, seed=2)
        assert abs(data.genotypes.missing_fraction - 0.10) < 0.01
        assert missingness_warnings(data.genotypes) == []

    def test_high_missingness_warns(self):
        data, _ = make_dataset(n=20, s=5, missing=0.20, seed=2)
        assert missingness_warnings(data.genotypes) == [
            "overall missingness 20.0% exceeds 15%; interpret estimates with caution"
        ]

    def test_indefinite_kinship_rejected(self):
        data, _ = make_dataset(n=3, s=1, p=1)
        entries = np.array([[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]])
        kinship = RelationshipMatrix(data.ids, entries)  # symmetric, unit diagonal
        with pytest.raises(DataValidationError, match="not positive definite"):
            Dataset(data.genotypes, data.phenotypes, data.design, kinship)

    @pytest.mark.parametrize("cell", [(0, 1), (1, 1)])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_kinship_rejected(self, cell, value):
        # nan fails no comparison in the symmetry and diagonal checks, and a
        # Cholesky factorization of a nan matrix need not raise
        data, _ = make_dataset(n=3, s=1, p=1)
        entries = np.eye(3)
        entries[cell] = entries[cell[::-1]] = value
        kinship = RelationshipMatrix(data.ids, entries)
        with pytest.raises(DataValidationError, match="kinship entries must be finite"):
            Dataset(data.genotypes, data.phenotypes, data.design, kinship)

    def test_asymmetric_kinship_rejected(self):
        data, _ = make_dataset(n=3, s=1, p=1)
        entries = np.eye(3)
        entries[0, 1] = 0.2
        kinship = RelationshipMatrix(data.ids, entries)
        with pytest.raises(DataValidationError, match="symmetric"):
            Dataset(data.genotypes, data.phenotypes, data.design, kinship)

    def test_kinship_diagonal_out_of_range_rejected(self):
        data, _ = make_dataset(n=2, s=1, p=1)
        kinship = RelationshipMatrix(data.ids, np.eye(2) * 0.5)
        with pytest.raises(DataValidationError, match="diagonal"):
            Dataset(data.genotypes, data.phenotypes, data.design, kinship)

    def test_duplicate_design_column_fails_construction(self):
        X = np.ones((10, 2))
        with pytest.raises(DataValidationError, match="rank"):
            FamilyDesign(X)

    def test_dimension_mismatch(self):
        data, _ = make_dataset(n=10, s=2)
        with pytest.raises(DataValidationError, match="dimensions"):
            Dataset(
                genotypes=data.genotypes,
                phenotypes=PhenotypeVector(np.zeros(9)),
                design=data.design,
                kinship=data.kinship,
            )

    def test_phenotype_nan_rejected(self):
        with pytest.raises(DataValidationError, match="finite"):
            PhenotypeVector(np.array([1.0, np.nan]))

    def test_family_design_from_labels(self):
        fd = family_design(["a", "b", "a", "b", "c"])
        assert fd.design.shape == (5, 3)
        assert fd.names() == ("a", "b", "c")
        assert np.array_equal(fd.design.sum(axis=1), np.ones(5))


class TestGenotypeMatrix:
    def test_all_masked_column_rejected(self):
        codes = np.zeros((3, 2), dtype=np.int8)
        mask = np.zeros((3, 2), dtype=bool)
        mask[:, 1] = True
        with pytest.raises(DataValidationError, match="no observed"):
            GenotypeMatrix(codes, mask)

    def test_masked_placeholder_stored_as_zero(self):
        codes = np.array([[1, -9], [-1, 0]])
        mask = np.array([[False, True], [False, False]])
        gm = GenotypeMatrix(codes, mask)
        assert gm.codes.tolist() == [[1, 0], [-1, 0]]
        assert snp_design_matrix(gm.codes, ADDITIVE_DOMINANCE)[0].tolist() == [1, 0, 0, 1]

    def test_masked_cells_are_the_mask_in_row_major_order(self):
        mask = np.array([[False, True, True], [True, False, False], [False, False, True]])
        gm = GenotypeMatrix(np.zeros((3, 3), dtype=np.int8), mask)
        rows, cols = gm.masked_cells
        want_rows, want_cols = np.nonzero(mask)
        assert rows.tolist() == want_rows.tolist() == [0, 0, 1, 2]
        assert cols.tolist() == want_cols.tolist() == [1, 2, 0, 2]
        assert gm.masked_cells is gm.masked_cells
        with pytest.raises(ValueError, match="read-only"):
            rows[0] = 2

    def test_bad_code_rejected(self):
        codes = np.array([[2]], dtype=np.int8)
        with pytest.raises(DataValidationError, match="-1, 0 or"):
            GenotypeMatrix(codes, np.zeros((1, 1), dtype=bool))
