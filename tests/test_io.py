import dataclasses

import numpy as np
import pytest

from snpgibbs import io
from snpgibbs.gibbs import GibbsConfig, run_chain
from snpgibbs.model import DataValidationError, GenotypeMatrix, default_priors
from snpgibbs.pedigree import PedigreeRecord, RelationshipMatrix
from snpgibbs.simulator import (
    MissingnessMask,
    apply_missingness,
    simulate_dataset,
    six_family_design,
)

from conftest import make_dataset
from _oracles import loop_decode_genotypes, table_write_samples


def chain_samples(coding, missing):
    """A short chain's samples with awkward floats in the gamma columns."""
    data, _ = make_dataset(n=14, s=3, p=2, seed=41, missing=missing, coding=coding)
    cfg = GibbsConfig(total_iterations=60, burn_in=20, thinning=2, seed=4)
    post = run_chain(data, default_priors(), cfg)
    gammas = post.gammas.copy()
    awkward = [-0.0, 5e-324, 1e-300, -1.7976931348623157e308, 0.1, 1.0 / 3.0]
    gammas[0, : len(awkward)] = awkward[: gammas.shape[1]]
    return data, dataclasses.replace(post, gammas=gammas)


class TestTables:
    def test_comment_lines_skipped(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# a=b\n# c=d\nid,value\nx,1.5\n")
        header, rows = io.read_table(path)
        assert header == ["id", "value"]
        assert rows == [["x", "1.5"]]

    def test_fmt_round_trips_floats(self):
        for x in (0.1, 1.0 / 3.0, 1e-300, 123456.789, np.float64(np.pi)):
            assert float(io.fmt(x)) == float(x)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("")
        with pytest.raises(DataValidationError):
            io.read_table(path)

    def test_cells_stripped_of_whitespace(self, tmp_path):
        lines = ["id,a,b", " x ,1,\t2", "y,3,4\r", "z,\xa05,6\u3000", "w,7,8", "v,9 9,10"]
        path = tmp_path / "t.csv"
        path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
        header, rows = io.read_table(path)
        assert [header, *rows] == [[c.strip() for c in line.split(",")] for line in lines]

    @pytest.mark.parametrize("reader", ["table", "samples", "truth", "config"])
    def test_byte_order_mark_dropped(self, tmp_path, reader):
        plain, marked = tmp_path / "plain", tmp_path / "marked"
        if reader == "samples":
            data, post = chain_samples("signed", 0.2)
            io.write_samples(plain, post, ["# subcommand=run"])
            read = lambda path: io.read_samples(path, data).masked_values.tolist()
        elif reader == "truth":
            _, truth = simulate_dataset(six_family_design(), seed=6)
            io.write_truth(plain, truth)  # no comment: the mark meets the first key
            def read(path):
                back = io.read_truth(path)
                return back.design_name, back.true_codes.tolist()
        elif reader == "config":
            plain.write_text("iters=100\nseed=3\n")
            read = io.read_config_file
        else:
            plain.write_text("id,value\nx,1.5\n")  # no comment: the mark meets the header
            read = io.read_table
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert read(marked) == read(plain)


class TestPedigreeFile:
    def test_round_trip(self, tmp_path):
        records = [
            PedigreeRecord("A"),
            PedigreeRecord("B"),
            PedigreeRecord("C", "A", "B"),
            PedigreeRecord("D", "A", None),
        ]
        path = tmp_path / "ped.csv"
        io.write_pedigree(path, records, ["# x=y"])
        back = io.read_pedigree(path)
        assert back == records

    def test_empty_field_is_unknown_parent(self, tmp_path):
        path = tmp_path / "ped.csv"
        path.write_text("id,sire,dam\nA,,\nB,A,\n")
        back = io.read_pedigree(path)
        assert back[0].parents() == ()
        assert back[1].parents() == ("A",)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "ped.csv"
        path.write_text("individual,father,mother\nA,,\n")
        with pytest.raises(DataValidationError, match="id,sire,dam"):
            io.read_pedigree(path)


class TestKinshipFile:
    def test_round_trip_exact(self, tmp_path):
        entries = np.array([[1.0, 0.5, 0.25], [0.5, 1.0, 0.5], [0.25, 0.5, 1.0]])
        R = RelationshipMatrix(["a", "b", "c"], entries)
        path = tmp_path / "kin.csv"
        io.write_kinship_matrix(path, R)
        back = io.read_kinship_matrix(path)
        assert back.ids == ("a", "b", "c")
        assert np.array_equal(back.entries, entries)

    def test_round_trip_asymmetry_symmetrised(self, tmp_path):
        path = tmp_path / "kin.csv"
        path.write_text("id,a,b\na,1.0,0.5\nb,0.5000000000000004,1.0\n")
        back = io.read_kinship_matrix(path)
        assert np.array_equal(back.entries, back.entries.T)
        assert back.entries[0, 1] == 0.5 * (0.5 + 0.5000000000000004)

    def test_duplicate_header_id_rejected(self, tmp_path):
        path = tmp_path / "kin.csv"
        path.write_text("id,a,a\na,1.0,0.5\na,0.5,1.0\n")
        with pytest.raises(DataValidationError) as info:
            io.read_kinship_matrix(path)
        assert str(info.value) == f"{path}: duplicate individual id 'a'"

    def test_matrix_rejects_a_repeated_id(self):
        with pytest.raises(ValueError, match="duplicate individual id 'b'"):
            RelationshipMatrix(["a", "b", "c", "b"], np.eye(4))

    def test_cell_not_a_number_names_file_and_row(self, tmp_path):
        path = tmp_path / "kin.csv"
        path.write_text("id,a,b\na,1.0,0.5\nb,half,1.0\n")
        with pytest.raises(DataValidationError) as info:
            io.read_kinship_matrix(path)
        assert str(path) in str(info.value) and "'b,half,1.0'" in str(info.value)


class TestPhenotypeAndFamilyFiles:
    def test_value_not_a_number_names_file_and_row(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("id,value\nF1_01,abc\nF1_02,1.5\n")
        with pytest.raises(DataValidationError) as info:
            io.read_phenotypes(path)
        assert str(path) in str(info.value) and "'F1_01,abc'" in str(info.value)

    def test_duplicate_family_id_rejected(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("id,family\nF1_01,F1\nF1_02,F1\nF1_01,F6\n")
        with pytest.raises(DataValidationError, match="duplicate id 'F1_01'"):
            io.read_families(path)


class TestDatasetFiles:
    def _write_inputs(self, tmp_path, missing=0.1, seed=0):
        data, truth = simulate_dataset(six_family_design(), seed=seed)
        if missing:
            data = apply_missingness(data, MissingnessMask(missing, seed=seed))
        io.write_genotypes(tmp_path / "g.csv", data.ids, data.genotypes)
        io.write_phenotypes(tmp_path / "p.csv", data.ids, data.y)
        from snpgibbs.simulator import family_labels, family_pedigree_records

        io.write_families(tmp_path / "f.csv", data.ids, family_labels((20,) * 6))
        io.write_pedigree(
            tmp_path / "ped.csv", family_pedigree_records((20,) * 6, data.ids)
        )
        return data, truth

    def test_genotype_round_trip(self, tmp_path):
        data, _ = self._write_inputs(tmp_path, missing=0.2)
        ids, snp_names, calls = io.read_genotype_calls(tmp_path / "g.csv")
        assert tuple(ids) == data.ids
        assert tuple(snp_names) == data.genotypes.names()
        from snpgibbs.model import encode_genotypes

        gm, _ = encode_genotypes(calls, snp_names=snp_names)
        assert np.array_equal(gm.missing_mask, data.genotypes.missing_mask)
        observed = ~gm.missing_mask
        assert np.array_equal(gm.codes[observed], data.genotypes.codes[observed])

    def test_genotype_calls_are_row_lists(self, tmp_path):
        # the calls reach encode_genotypes as the file's row lists, and code
        # exactly as the object table of the same cells does
        data, _ = self._write_inputs(tmp_path, missing=0.2)
        _, snp_names, calls = io.read_genotype_calls(tmp_path / "g.csv")
        assert type(calls) is list and all(type(row) is list for row in calls)
        from snpgibbs.model import encode_genotypes

        gm, warnings = encode_genotypes(calls, snp_names=snp_names)
        table, table_warnings = encode_genotypes(np.array(calls, dtype=object), snp_names=snp_names)
        assert gm.codes.tobytes() == table.codes.tobytes()
        assert gm.missing_mask.tobytes() == table.missing_mask.tobytes()
        assert gm.categories == table.categories and warnings == table_warnings

    @pytest.mark.parametrize("text", [
        "id,snp1,snp2\na,AA,AB,BB\nb,AA,AB,BB\n",  # every row one call too long
        "id,snp1,snp2\na,AA,AB\nb,AA,AB,BB\n",  # one row too long
    ])
    def test_ragged_genotype_rows_rejected(self, tmp_path, text):
        path = tmp_path / "g.csv"
        path.write_text(text)
        with pytest.raises(DataValidationError) as info:
            io.read_genotype_calls(path)
        assert str(info.value) == f"{path}: ragged genotype rows"

    def test_genotype_file_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("id,snp1\nF1_01,AA\nF1_02,AB\nF1_01,BB\n")
        with pytest.raises(DataValidationError) as info:
            io.read_genotype_calls(path)
        assert str(info.value) == f"{path}: duplicate id 'F1_01'"

    @pytest.mark.parametrize("categories", [True, False])
    def test_write_genotypes_matches_table_reference(self, tmp_path, categories):
        data, _ = self._write_inputs(tmp_path, missing=0.2)
        gm = data.genotypes
        if not categories:  # the default calls AA, AB, BB
            gm = GenotypeMatrix(gm.codes, gm.missing_mask, gm.snp_names)
        manifest = ["# subcommand=simulate"]
        ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
        io.write_genotypes(ours, data.ids, gm, "-", manifest)
        calls = loop_decode_genotypes(gm, "-")
        rows = [[rid, *calls[i]] for i, rid in enumerate(data.ids)]
        io.write_table(ref, ["id", *gm.names()], rows, manifest)
        assert ours.read_bytes() == ref.read_bytes()

    def test_assemble_dataset_pedigree_mode(self, tmp_path):
        data, _ = self._write_inputs(tmp_path)
        loaded, warnings = io.assemble_dataset(
            tmp_path / "g.csv",
            tmp_path / "p.csv",
            kinship_mode="pedigree",
            pedigree_path=tmp_path / "ped.csv",
            families_path=tmp_path / "f.csv",
        )
        assert loaded.n == 120
        assert np.allclose(loaded.R, data.R)
        assert np.allclose(loaded.y, data.y)
        assert loaded.design.design.shape == (120, 6)

    def test_assemble_families_from_pedigree_parents(self, tmp_path):
        self._write_inputs(tmp_path)
        loaded, _ = io.assemble_dataset(
            tmp_path / "g.csv",
            tmp_path / "p.csv",
            kinship_mode="pedigree",
            pedigree_path=tmp_path / "ped.csv",
        )
        # parent pairs group the 6 families
        assert loaded.design.design.shape == (120, 6)

    def test_assemble_intercept_fallback(self, tmp_path):
        self._write_inputs(tmp_path)
        loaded, _ = io.assemble_dataset(
            tmp_path / "g.csv", tmp_path / "p.csv", kinship_mode="identity"
        )
        assert loaded.design.design.shape == (120, 1)
        assert np.array_equal(loaded.R, np.eye(120))

    def test_asymmetric_kinship_file_rejected(self, tmp_path):
        data, _ = self._write_inputs(tmp_path)
        entries = np.eye(data.n)
        entries[0, 1] = 0.2
        io.write_kinship_matrix(tmp_path / "k.csv", RelationshipMatrix(data.ids, entries))
        with pytest.raises(DataValidationError, match="not symmetric"):
            io.assemble_dataset(
                tmp_path / "g.csv", tmp_path / "p.csv",
                kinship_mode="file", kinship_path=tmp_path / "k.csv",
            )

    def test_missing_phenota_id_rejected(self, tmp_path):
        self._write_inputs(tmp_path)
        (tmp_path / "p2.csv").write_text("id,value\nF1_01,1.0\n")
        with pytest.raises(DataValidationError, match="lacks ids"):
            io.assemble_dataset(
                tmp_path / "g.csv", tmp_path / "p2.csv", kinship_mode="identity"
            )


class TestSamplesRoundTrip:
    def test_padding_and_reload(self, tmp_path):
        data, truth = simulate_dataset(six_family_design(), seed=3)
        data = apply_missingness(data, MissingnessMask(0.1, seed=3))
        cfg = GibbsConfig(total_iterations=60, burn_in=20, thinning=2, seed=4)
        post = run_chain(data, default_priors(), cfg)
        path = tmp_path / "samples.csv"
        io.write_samples(path, post, ["# run=1"])
        back = io.read_samples(path, data)
        assert np.array_equal(back.betas, post.betas)
        assert np.array_equal(back.gammas, post.gammas)
        assert np.array_equal(back.sigma2s, post.sigma2s)
        assert np.array_equal(back.phi2s, post.phi2s)
        assert np.array_equal(back.masked_values, post.masked_values)

    @pytest.mark.parametrize("missing", [0.0, 0.2])
    @pytest.mark.parametrize("coding", ["signed", "additive_dominance"])
    def test_round_trip_bitwise(self, tmp_path, coding, missing):
        data, post = chain_samples(coding, missing)
        assert bool(post.masked_values.shape[1]) == bool(missing)
        path = tmp_path / "samples.csv"
        io.write_samples(path, post)
        back = io.read_samples(path, data)
        for name in ("betas", "gammas", "sigma2s", "phi2s"):
            want = getattr(post, name)
            assert np.array_equal(getattr(back, name).view(np.int64), want.view(np.int64))
        assert np.array_equal(back.masked_values, post.masked_values)

    @pytest.mark.parametrize("missing", [0.0, 0.2])
    @pytest.mark.parametrize("coding", ["signed", "additive_dominance"])
    def test_writer_matches_table_reference(self, tmp_path, coding, missing):
        data, post = chain_samples(coding, missing)
        manifest = ["# subcommand=run", "# seed=4"]
        ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
        io.write_samples(ours, post, manifest)
        table_write_samples(ref, post, manifest)
        assert ours.read_bytes() == ref.read_bytes()

    def test_malformed_cell_rejected(self, tmp_path):
        data, post = chain_samples("signed", 0.2)
        path = tmp_path / "samples.csv"
        io.write_samples(path, post)
        header, *rows = path.read_text().splitlines()
        rows[1] = rows[1].replace(",", ",x", 1)
        path.write_text("\n".join([header, *rows]) + "\n")
        with pytest.raises(ValueError, match="could not convert"):
            io.read_samples(path, data)

    def test_rows_narrower_than_header_rejected(self, tmp_path):
        data, post = chain_samples("signed", 0.2)
        path = tmp_path / "samples.csv"
        io.write_samples(path, post)
        header, *rows = path.read_text().splitlines()
        rows = [row.rsplit(",", 1)[0] for row in rows]
        path.write_text("\n".join([header, *rows]) + "\n")
        with pytest.raises(DataValidationError, match="columns"):
            io.read_samples(path, data)

    @pytest.mark.parametrize(
        "column, value, message",
        [
            ("zimp_", "2.7", "codes must be -1, 0 or 1"),
            ("zimp_", "2", "codes must be -1, 0 or 1"),
            ("zimp_", "-2", "codes must be -1, 0 or 1"),
            ("zimp_", "nan", "codes must be -1, 0 or 1"),
            ("sigma2", "0.0", "finite and positive"),
            ("sigma2", "-1.5", "finite and positive"),
            ("phi2", "inf", "finite and positive"),
            ("phi2", "nan", "finite and positive"),
            ("beta1", "nan", "beta and gamma must be finite"),
            ("beta2", "-inf", "beta and gamma must be finite"),
            ("snp1", "inf", "beta and gamma must be finite"),
            ("snp3", "nan", "beta and gamma must be finite"),
        ],
    )
    def test_impossible_sample_rejected(self, tmp_path, column, value, message):
        data, post = chain_samples("signed", 0.2)
        path = tmp_path / "samples.csv"
        io.write_samples(path, post)
        header, *rows = path.read_text().splitlines()
        k = next(i for i, name in enumerate(header.split(",")) if name.startswith(column))
        cells = rows[3].split(",")
        cells[k] = value
        rows[3] = ",".join(cells)
        path.write_text("\n".join([header, *rows]) + "\n")
        with pytest.raises(DataValidationError, match=f"sample row 4: .*{message}"):
            io.read_samples(path, data)

    def test_wrong_shape_rejected(self, tmp_path):
        data, _ = simulate_dataset(six_family_design(), seed=5)
        path = tmp_path / "samples.csv"
        path.write_text("a,b\n1.0,2.0\n")
        with pytest.raises(DataValidationError, match="columns"):
            io.read_samples(path, data)


class TestTruthFile:
    def test_bit_exact_round_trip(self, tmp_path):
        _, truth = simulate_dataset(six_family_design(), seed=6)
        path = tmp_path / "truth.txt"
        io.write_truth(path, truth, ["# m=1"])
        back = io.read_truth(path)
        assert back.beta_true == truth.beta_true
        assert back.gamma_true == truth.gamma_true
        assert back.sigma2_true == truth.sigma2_true
        assert np.array_equal(back.true_codes, truth.true_codes)
        assert back.ids == truth.ids
        assert back.gamma_labels == truth.gamma_labels


class TestImputationPriorFile:
    def test_defaults_and_overrides(self, tmp_path):
        path = tmp_path / "prior.csv"
        path.write_text(
            "id,snp,w_minus1,w_0,w_plus1\n" "i1,snp2,0.5,0.25,0.25\n"
        )
        prior = io.read_imputation_prior(path, ["i0", "i1"], ["snp1", "snp2"])
        assert prior.mode == "weighted"
        assert np.allclose(prior.weights[0, 0], 1.0 / 3.0)
        assert np.allclose(prior.weights[1, 1], (0.5, 0.25, 0.25))

    def test_unknown_id_rejected(self, tmp_path):
        path = tmp_path / "prior.csv"
        path.write_text("id,snp,w_minus1,w_0,w_plus1\nwho,snp1,1,0,0\n")
        with pytest.raises(DataValidationError, match="unknown individual"):
            io.read_imputation_prior(path, ["i0"], ["snp1"])

    def test_weight_not_a_number_names_file_and_row(self, tmp_path):
        path = tmp_path / "prior.csv"
        path.write_text("id,snp,w_minus1,w_0,w_plus1\ni0,snp1,0.5,x,0.5\n")
        with pytest.raises(DataValidationError) as info:
            io.read_imputation_prior(path, ["i0"], ["snp1"])
        assert str(path) in str(info.value) and "'i0,snp1,0.5,x,0.5'" in str(info.value)


class TestConfigFile:
    def test_manifest_loadable_as_config(self, tmp_path):
        path = tmp_path / "manifest.txt"
        io.write_manifest_file(path, {"version": "0.1.0", "iters": "100", "seed": "3"})
        cfg = io.read_config_file(path)
        assert cfg["iters"] == "100"
        assert cfg["seed"] == "3"

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("iters 100\n")
        with pytest.raises(DataValidationError, match="malformed"):
            io.read_config_file(path)
