import hashlib
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import snpgibbs
import snpgibbs.cli as cli

from snpgibbs.cli import THIN_BF_ESS, main

from conftest import poison_phi2


def run_cli(*args) -> int:
    return main([str(a) for a in args])


def simulate_inputs(tmp_path, missing="0.1", preset="six-family", seed="1"):
    out = tmp_path / "sim"
    code = run_cli(
        "simulate", "--preset", preset, "--missing", missing, "--seed", seed,
        "--out-dir", out,
    )
    assert code == 0
    return out


def read_noncomment_lines(path):
    return [l for l in Path(path).read_text().splitlines() if not l.startswith("#")]


def assert_replays(subcommand, out, names):
    """Feed ``out/manifest.txt`` back through --config: the same bytes."""
    replay = out.with_name(out.name + "_replay")
    assert run_cli(subcommand, "--config", out / "manifest.txt", "--out-dir", replay) == 0
    for name in (*names, "manifest.txt"):
        assert (out / name).read_bytes() == (replay / name).read_bytes(), name


class TestSimulateCommand:
    def test_emits_expected_files(self, tmp_path):
        out = simulate_inputs(tmp_path)
        for name in ("genotypes.csv", "phenotypes.csv", "families.csv",
                     "pedigree.csv", "truth.txt", "manifest.txt"):
            assert (out / name).exists()

    def test_identity_design_emits_kinship_file(self, tmp_path):
        out = tmp_path / "sim"
        assert run_cli("simulate", "--preset", "five-signal", "--out-dir", out) == 0
        assert not (out / "pedigree.csv").exists()

    def test_equicorrelated_emits_matrix(self, tmp_path):
        out = tmp_path / "sim"
        assert run_cli("simulate", "--preset", "equicorrelated", "--out-dir", out) == 0
        assert (out / "kinship.csv").exists()

    def test_unobserved_column_exit_3_without_directory(self, tmp_path, capsys):
        # the mask leaves a SNP column with no observed call: refused before
        # --out-dir is made
        out = tmp_path / "sim"
        code = run_cli("simulate", "--preset", "five-signal", "--missing", "0.95",
                       "--seed", "1", "--out-dir", out)
        assert code == 3
        assert "SNP column 'snp5' has no observed entries" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_replay_bitwise(self, tmp_path):
        # mask_seed is an int whose default is None: the replay must read
        # it back as 5, not fall back to the seed
        s1 = tmp_path / "s1"
        assert run_cli(
            "simulate", "--preset", "six-family", "--missing", "0.1",
            "--seed", "3", "--mask-seed", "5", "--out-dir", s1,
        ) == 0
        assert "mask_seed=5" in (s1 / "manifest.txt").read_text().splitlines()
        assert_replays("simulate", s1, (
            "genotypes.csv", "phenotypes.csv", "families.csv", "pedigree.csv", "truth.txt",
        ))


class TestRunCommand:
    def test_run_pipeline_and_summary_shape(self, tmp_path):
        sim = simulate_inputs(tmp_path)
        out = tmp_path / "run"
        code = run_cli(
            "run", "--genotypes", sim / "genotypes.csv",
            "--phenotypes", sim / "phenotypes.csv",
            "--pedigree", sim / "pedigree.csv",
            "--families", sim / "families.csv",
            "--kinship", "pedigree", "--coding", "additive_dominance",
            "--iters", "300", "--burnin", "100", "--thin", "2", "--seed", "9",
            "--out-dir", out,
        )
        assert code == 0
        rows = read_noncomment_lines(out / "summary.csv")
        # header + p + s_design + 2 parameter rows
        assert len(rows) == 1 + 6 + 10 + 2
        intervals = read_noncomment_lines(out / "intervals.csv")
        assert len(intervals) == 1 + 10
        assert (out / "samples.csv").exists()
        assert (out / "autocorr.csv").exists()

    def test_retained_count_contract(self, tmp_path):
        sim = simulate_inputs(tmp_path, missing="0")
        out = tmp_path / "run"
        code = run_cli(
            "run", "--genotypes", sim / "genotypes.csv",
            "--phenotypes", sim / "phenotypes.csv",
            "--families", sim / "families.csv",
            "--kinship", "identity",
            "--iters", "500", "--burnin", "100", "--thin", "4", "--seed", "2",
            "--out-dir", out,
        )
        assert code == 0
        samples = read_noncomment_lines(out / "samples.csv")
        assert len(samples) - 1 == (500 - 100) // 4

    def test_identity_kinship_without_pedigree(self, tmp_path):
        sim = simulate_inputs(tmp_path, missing="0")
        out = tmp_path / "run"
        code = run_cli(
            "run", "--genotypes", sim / "genotypes.csv",
            "--phenotypes", sim / "phenotypes.csv",
            "--kinship", "identity", "--iters", "150", "--burnin", "10",
            "--thin", "1", "--out-dir", out,
        )
        assert code == 0

    def test_multi_chain_outputs(self, tmp_path):
        sim = simulate_inputs(tmp_path, missing="0")
        out = tmp_path / "run"
        code = run_cli(
            "run", "--genotypes", sim / "genotypes.csv",
            "--phenotypes", sim / "phenotypes.csv",
            "--families", sim / "families.csv",
            "--kinship", "identity", "--chains", "2",
            "--iters", "260", "--burnin", "20", "--thin", "2", "--out-dir", out,
        )
        assert code == 0
        assert (out / "samples_chain1.csv").exists()
        assert (out / "samples_chain2.csv").exists()

    @pytest.mark.parametrize("kinship", ["identity", "pedigree"])
    def test_repeated_genotype_id_exit_3_without_directory(self, tmp_path, capsys, kinship):
        sim = simulate_inputs(tmp_path)
        lines = (sim / "genotypes.csv").read_text().splitlines(keepends=True)
        first = next(k for k, line in enumerate(lines) if not line.startswith("#")) + 1
        repeated = tmp_path / "repeated.csv"
        repeated.write_text("".join(lines[: first + 1] + lines[first:]))
        capsys.readouterr()
        out = tmp_path / "run"
        code = run_cli(
            "run", "--genotypes", repeated, "--phenotypes", sim / "phenotypes.csv",
            "--pedigree", sim / "pedigree.csv", "--kinship", kinship,
            "--iters", "150", "--burnin", "10", "--thin", "1", "--out-dir", out,
        )
        assert code == 3
        assert capsys.readouterr().err == f"error: {repeated}: duplicate id 'F1_01'\n"
        assert not out.exists()

    def test_genotype_file_with_byte_order_mark(self, tmp_path):
        sim = simulate_inputs(tmp_path)
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + (sim / "genotypes.csv").read_bytes())
        for name, genotypes in (("plain", sim / "genotypes.csv"), ("marked", marked)):
            assert run_cli(
                "run", "--genotypes", genotypes, "--phenotypes", sim / "phenotypes.csv",
                "--pedigree", sim / "pedigree.csv", "--kinship", "pedigree",
                "--iters", "150", "--burnin", "10", "--thin", "1", "--out-dir", tmp_path / name,
            ) == 0
        assert read_noncomment_lines(tmp_path / "plain" / "samples.csv") == (
            read_noncomment_lines(tmp_path / "marked" / "samples.csv")
        )

    def test_missing_required_inputs_exit_3(self, tmp_path):
        assert run_cli("run", "--out-dir", tmp_path / "x") == 3

    def test_nonexistent_file_exit_3(self, tmp_path):
        code = run_cli(
            "run", "--genotypes", tmp_path / "nope.csv",
            "--phenotypes", tmp_path / "nope2.csv", "--out-dir", tmp_path / "x",
        )
        assert code == 3

    def test_zero_chains_exit_3(self, tmp_path, capsys):
        sim = simulate_inputs(tmp_path, missing="0")
        out = tmp_path / "run"
        code = run_cli(
            "run", "--genotypes", sim / "genotypes.csv",
            "--phenotypes", sim / "phenotypes.csv",
            "--kinship", "identity", "--chains", "0", "--out-dir", out,
        )
        assert code == 3
        assert "--chains" in capsys.readouterr().err
        assert not (out / "summary.csv").exists()

    def test_too_few_draws_exit_3_before_any_chain(self, tmp_path, capsys):
        # 50 retained draws: the summary's HPD intervals need 100
        sim = simulate_inputs(tmp_path)
        data = [
            "--genotypes", sim / "genotypes.csv",
            "--phenotypes", sim / "phenotypes.csv",
            "--families", sim / "families.csv",
            "--iters", "150", "--burnin", "100", "--thin", "1", "--seed", "1",
        ]
        out = tmp_path / "run"
        assert run_cli("run", *data, "--out-dir", out) == 3
        err = capsys.readouterr().err
        assert "--iters 150 --burnin 100 --thin 1 keep 50 draws" in err
        assert not out.exists()
        # two such chains keep 100 draws in all: enough for the summary
        assert run_cli("run", *data, "--chains", "2", "--out-dir", out) == 0
        assert (out / "summary.csv").exists()

    def test_usage_error_exit_2(self):
        assert run_cli("run", "--not-a-flag") == 2
        assert run_cli() == 2

    def test_non_pd_kinship_file_exit_3(self, tmp_path, capsys):
        sim = simulate_inputs(tmp_path, missing="0")
        kin = tmp_path / "bad_kin.csv"
        ids = read_noncomment_lines(sim / "genotypes.csv")[1:]
        ids = [r.split(",")[0] for r in ids]
        n = len(ids)
        entries = np.full((n, n), 1.2)
        np.fill_diagonal(entries, 1.0)  # symmetric, diag in bounds, not PD
        lines = ["id," + ",".join(ids)]
        for i in range(n):
            lines.append(ids[i] + "," + ",".join(map(repr, entries[i].tolist())))
        kin.write_text("\n".join(lines) + "\n")
        code = run_cli(
            "run", "--genotypes", sim / "genotypes.csv",
            "--phenotypes", sim / "phenotypes.csv",
            "--kinship", "file", "--kinship-file", kin,
            "--iters", "120", "--burnin", "10", "--thin", "1",
            "--out-dir", tmp_path / "x",
        )
        assert code == 3
        assert "kinship matrix is not positive definite" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["off_diagonal", "diagonal"])
    def test_nan_kinship_file_exit_3(self, tmp_path, capsys, cell):
        (tmp_path / "g.csv").write_text("id,snp1\na,AA\nb,AB\nc,BB\n")
        (tmp_path / "y.csv").write_text("id,value\na,1.0\nb,2.0\nc,0.5\n")
        rows = (["a,1.0,nan,0", "b,nan,1.0,0", "c,0,0,1.0"] if cell == "off_diagonal"
                else ["a,nan,0,0", "b,0,1.0,0", "c,0,0,1.0"])
        kin = tmp_path / "k.csv"
        kin.write_text("\n".join(["id,a,b,c", *rows]) + "\n")
        out = tmp_path / "x"
        code = run_cli(
            "run", "--genotypes", tmp_path / "g.csv", "--phenotypes", tmp_path / "y.csv",
            "--kinship", "file", "--kinship-file", kin,
            "--iters", "120", "--burnin", "10", "--thin", "1", "--out-dir", out,
        )
        assert code == 3
        assert "kinship entries must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_imputation_prior_weight_exit_3(self, tmp_path, capsys):
        sim = simulate_inputs(tmp_path)
        ids = [row.split(",")[0] for row in read_noncomment_lines(sim / "genotypes.csv")[1:]]
        prior = tmp_path / "prior.csv"
        prior.write_text(f"id,snp,w_minus1,w_0,w_plus1\n{ids[0]},snp1,nan,0.5,0.5\n")
        out = tmp_path / "x"
        code = run_cli(
            "run", "--genotypes", sim / "genotypes.csv", "--phenotypes", sim / "phenotypes.csv",
            "--imputation-prior", "file", "--imputation-prior-file", prior,
            "--iters", "110", "--burnin", "10", "--thin", "1", "--out-dir", out,
        )
        assert code == 3
        assert "imputation prior weights must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_imputation_prior_file_digested(self, tmp_path):
        sim = simulate_inputs(tmp_path)
        ids = [row.split(",")[0] for row in read_noncomment_lines(sim / "genotypes.csv")[1:]]
        prior = tmp_path / "prior.csv"
        prior.write_text(f"id,snp,w_minus1,w_0,w_plus1\n{ids[0]},snp1,0.5,0.25,0.25\n")
        base = [
            "run", "--genotypes", sim / "genotypes.csv",
            "--phenotypes", sim / "phenotypes.csv",
            "--iters", "110", "--burnin", "10", "--thin", "1",
        ]
        with_prior, plain = tmp_path / "with_prior", tmp_path / "plain"
        assert run_cli(
            *base, "--imputation-prior", "file", "--imputation-prior-file", prior,
            "--out-dir", with_prior,
        ) == 0
        assert run_cli(*base, "--out-dir", plain) == 0
        digest = hashlib.sha256(prior.read_bytes()).hexdigest()
        assert f"digest_imputation_prior_file={digest}" in (
            (with_prior / "manifest.txt").read_text().splitlines()
        )
        assert "digest_imputation_prior_file" not in (plain / "manifest.txt").read_text()

    @pytest.mark.parametrize(
        "kind",
        ["phenotypes", "families", "kinship_short", "kinship_long", "kinship_extra", "prior",
         "phenotypes_long", "families_long", "prior_long"],
    )
    def test_short_input_row_exit_3(self, tmp_path, capsys, kind):
        # a row with fewer cells than its header or more, or a kinship row
        # beyond the header's ids names the file and the row, before
        # --out-dir is made
        sim = simulate_inputs(tmp_path)
        ids = [row.split(",")[0] for row in read_noncomment_lines(sim / "genotypes.csv")[1:]]
        kinship = ["id," + ",".join(ids)] + [
            f"{i}," + ",".join("1.0" if i == j else "0.0" for j in ids) for i in ids
        ]
        inputs = {"phenotypes": sim / "phenotypes.csv", "families": sim / "families.csv"}
        bad = tmp_path / "bad.csv"
        extra = []
        name = kind.removesuffix("_long")
        if name in inputs:  # the second data row loses its value, or gains a cell
            lines = read_noncomment_lines(inputs[name])
            row = lines[2] = lines[2] + ",7.5" if kind.endswith("_long") else ids[1]
            inputs[name] = bad
        elif kind == "kinship_short":
            lines = kinship
            row = lines[2] = lines[2].rsplit(",", 1)[0]
            extra = ["--kinship", "file", "--kinship-file", bad]
        elif kind == "kinship_long":
            lines = kinship
            row = lines[2] = lines[2] + ",0.0"
            extra = ["--kinship", "file", "--kinship-file", bad]
        elif kind == "kinship_extra":
            row = "X," + kinship[1].split(",", 1)[1]
            lines = kinship + [row]
            extra = ["--kinship", "file", "--kinship-file", bad]
        else:
            row = f"{ids[0]},snp1,0.2,0.3" + (",0.5,0.1" if kind == "prior_long" else "")
            lines = ["id,snp,w_minus1,w_0,w_plus1", row]
            extra = ["--imputation-prior", "file", "--imputation-prior-file", bad]
        bad.write_text("\n".join(lines) + "\n")
        code = run_cli(
            "run", "--genotypes", sim / "genotypes.csv",
            "--phenotypes", inputs["phenotypes"], "--families", inputs["families"],
            *extra, "--iters", "20", "--burnin", "10", "--thin", "1",
            "--out-dir", tmp_path / "x",
        )
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error:") and str(bad) in err and repr(row) in err
        assert not (tmp_path / "x").exists()

    def test_numerical_failure_exit_4(self, tmp_path):
        # a SNP column of all heterozygotes is a zero design column, so every
        # Bayes-factor term for models excluding it has a singular Gram matrix
        n = 12
        rng = np.random.default_rng(0)
        gt = ["id,snp1,snp2"]
        for i in range(n):
            a = rng.choice(["GG", "GC", "CC"])
            gt.append(f"i{i},{a},GC")
        (tmp_path / "g.csv").write_text("\n".join(gt) + "\n")
        (tmp_path / "p.csv").write_text(
            "id,value\n" + "\n".join(f"i{i},{rng.normal():.6f}" for i in range(n)) + "\n"
        )
        code = run_cli(
            "select", "--genotypes", tmp_path / "g.csv",
            "--phenotypes", tmp_path / "p.csv", "--kinship", "identity",
            "--iters", "300", "--burnin", "100", "--thin", "1", "--seed", "1",
            "--candidates", "0", "--exhaustive", "--min-samples-per-bf", "100",
            "--out-dir", tmp_path / "sel",
        )
        assert code == 4

    def test_gamma_failure_exit_4_names_iteration(self, tmp_path, monkeypatch, capsys):
        sim = simulate_inputs(tmp_path)
        poison_phi2(monkeypatch, 40)
        code = run_cli(
            "run", "--genotypes", sim / "genotypes.csv",
            "--phenotypes", sim / "phenotypes.csv",
            "--families", sim / "families.csv", "--kinship", "identity",
            "--iters", "120", "--burnin", "10", "--thin", "1",
            "--out-dir", tmp_path / "x",
        )
        assert code == 4
        assert "at iteration 40:" in capsys.readouterr().err

    def test_reproducibility_same_command_bitwise(self, tmp_path):
        sim = simulate_inputs(tmp_path)
        args = [
            "run", "--genotypes", sim / "genotypes.csv",
            "--phenotypes", sim / "phenotypes.csv",
            "--families", sim / "families.csv",
            "--kinship", "identity", "--coding", "additive_dominance",
            "--iters", "340", "--burnin", "100", "--thin", "2", "--seed", "11",
        ]
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run_cli(*args, "--out-dir", out1) == 0
        assert run_cli(*args, "--out-dir", out2) == 0
        for name in ("samples.csv", "summary.csv", "intervals.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_reproduce_from_manifest(self, tmp_path):
        sim = simulate_inputs(tmp_path)
        out1 = tmp_path / "r1"
        assert run_cli(
            "run", "--genotypes", sim / "genotypes.csv",
            "--phenotypes", sim / "phenotypes.csv",
            "--families", sim / "families.csv",
            "--kinship", "identity", "--coding", "additive_dominance",
            "--iters", "300", "--burnin", "50", "--thin", "2", "--seed", "13",
            "--out-dir", out1,
        ) == 0
        assert_replays(
            "run", out1, ("samples.csv", "summary.csv", "intervals.csv", "autocorr.csv")
        )

    @pytest.mark.parametrize("line", ["iters=many", "kinship=bogus"])
    def test_bad_config_value_exit_3(self, tmp_path, capsys, line):
        sim = simulate_inputs(tmp_path, missing="0")
        config = tmp_path / "config.txt"
        config.write_text(line + "\n")
        code = run_cli(
            "run", "--genotypes", sim / "genotypes.csv",
            "--phenotypes", sim / "phenotypes.csv",
            "--config", config, "--out-dir", tmp_path / "x",
        )
        assert code == 3
        assert f"config {line.split('=')[0]}=" in capsys.readouterr().err

    def test_r_weighted_flag_and_manifest_key_have_no_effect(self, tmp_path):
        sim = simulate_inputs(tmp_path)
        base = [
            "run", "--genotypes", sim / "genotypes.csv",
            "--phenotypes", sim / "phenotypes.csv",
            "--families", sim / "families.csv",
            "--pedigree", sim / "pedigree.csv",
            "--kinship", "pedigree", "--coding", "additive_dominance",
            "--iters", "300", "--burnin", "50", "--thin", "2", "--seed", "13",
        ]
        plain, flagged, replay = tmp_path / "plain", tmp_path / "flagged", tmp_path / "replay"
        assert run_cli(*base, "--out-dir", plain) == 0
        assert run_cli(*base, "--r-weighted-imputation", "--out-dir", flagged) == 0
        samples = (plain / "samples.csv").read_bytes()
        assert (flagged / "samples.csv").read_bytes() == samples
        # a manifest written before the flag lost its effect carries the key
        old_manifest = tmp_path / "old_manifest.txt"
        old_manifest.write_text(
            (plain / "manifest.txt").read_text() + "r_weighted_imputation=1\n"
        )
        assert run_cli("run", "--config", old_manifest, "--out-dir", replay) == 0
        assert (replay / "samples.csv").read_bytes() == samples

    def test_outputs_start_with_manifest(self, tmp_path):
        sim = simulate_inputs(tmp_path, missing="0")
        out = tmp_path / "run"
        run_cli(
            "run", "--genotypes", sim / "genotypes.csv",
            "--phenotypes", sim / "phenotypes.csv", "--kinship", "identity",
            "--iters", "120", "--burnin", "10", "--thin", "1", "--out-dir", out,
        )
        for name in ("samples.csv", "summary.csv", "intervals.csv", "autocorr.csv"):
            first = (out / name).read_text().splitlines()[0]
            assert first.startswith("# version=")


class TestSelectCommand:
    def _run_and_select(self, tmp_path, extra=()):
        sim = simulate_inputs(tmp_path, missing="0.1", preset="five-signal", seed="3")
        base = [
            "--genotypes", sim / "genotypes.csv",
            "--phenotypes", sim / "phenotypes.csv",
            "--families", sim / "families.csv",
            "--kinship", "identity",
            "--iters", "1500", "--burnin", "500", "--thin", "1", "--seed", "21",
        ]
        run_out = tmp_path / "run"
        assert run_cli("run", *base, "--out-dir", run_out) == 0
        sel_out = tmp_path / "sel"
        code = run_cli(
            "select", *base, "--search-iters", "200",
            "--min-samples-per-bf", "1000", "--out-dir", sel_out, *extra,
        )
        return code, run_out, sel_out, base

    def test_live_select_writes_trace_and_best(self, tmp_path):
        code, _, sel_out, _ = self._run_and_select(tmp_path)
        assert code == 0
        trace = read_noncomment_lines(sel_out / "trace.csv")
        assert len(trace) > 1
        best = (sel_out / "best_model.txt").read_text()
        assert "delta=" in best and "log_bf=" in best

    def test_bf_diagnostics_one_row_per_distinct_model(self, tmp_path):
        code, _, sel_out, _ = self._run_and_select(tmp_path)
        assert code == 0
        trace = [r.split(",") for r in read_noncomment_lines(sel_out / "trace.csv")[1:]]
        diag = [r.split(",") for r in read_noncomment_lines(sel_out / "bf_diagnostics.csv")]
        assert diag[0] == ["delta", "valid", "invalid", "log_term_variance", "weight_ess"]
        deltas = [r[0] for r in diag[1:]]
        assert len(deltas) == len(set(deltas))
        assert set(deltas) == {r[1] for r in trace}
        for _, valid, invalid, variance, ess in diag[1:]:
            assert int(valid) + int(invalid) == 1000
            assert float(variance) >= 0.0
            assert 1.0 <= float(ess) <= int(valid) * (1 + 1e-12)
        best = read_noncomment_lines(sel_out / "best_model.txt")
        assert any(line.startswith("skipped=") for line in best)

    def test_thin_bayes_factor_warns(self, tmp_path, capsys):
        code, _, sel_out, _ = self._run_and_select(tmp_path)
        assert code == 0
        err = capsys.readouterr().err
        best = read_noncomment_lines(sel_out / "best_model.txt")
        delta = best[0].removeprefix("delta=")
        diag = [r.split(",") for r in read_noncomment_lines(sel_out / "bf_diagnostics.csv")]
        ess = float(next(r[4] for r in diag[1:] if r[0] == delta))
        assert ess < THIN_BF_ESS
        assert (
            "warning: the best model's Bayes factor rests on an importance-weight "
            f"ESS of {ess:.1f} states"
        ) in err
        assert not any("warning" in line for line in best)

    def test_well_supported_best_model_no_warning(self, tmp_path, capsys):
        # the full model over every SNP wins: each term is exactly 1, ESS = N
        sim = simulate_inputs(tmp_path, missing="0.1", preset="six-family", seed="1")
        out = tmp_path / "sel"
        assert run_cli(
            "select", "--genotypes", sim / "genotypes.csv",
            "--phenotypes", sim / "phenotypes.csv",
            "--families", sim / "families.csv", "--kinship", "identity",
            "--iters", "1500", "--burnin", "500", "--thin", "1", "--seed", "21",
            "--exhaustive", "--candidates", "0,1,2,3,4",
            "--min-samples-per-bf", "1000", "--out-dir", out,
        ) == 0
        assert read_noncomment_lines(out / "best_model.txt")[0] == "delta=11111"
        assert "importance-weight ESS" not in capsys.readouterr().err

    @pytest.mark.parametrize("search", [("--exhaustive",), ("--search-iters", "20")])
    def test_select_reads_only_the_trace_columns(self, tmp_path, monkeypatch, capsys, search):
        # the per-model objects of ``visited`` are for callers of the
        # library; select writes its files and its warning from the columns
        from snpgibbs.selector import SearchTrace

        def unread(self):
            pytest.fail("select built the per-model objects")

        monkeypatch.setattr(SearchTrace, "visited", property(unread))
        sim = simulate_inputs(tmp_path, missing="0.1", preset="six-family", seed="1")
        out = tmp_path / "sel"
        assert run_cli(
            "select", "--genotypes", sim / "genotypes.csv",
            "--phenotypes", sim / "phenotypes.csv",
            "--families", sim / "families.csv", "--kinship", "identity",
            "--iters", "400", "--burnin", "100", "--thin", "1", "--seed", "21",
            "--candidates", "0,1,2,3", *search,
            "--min-samples-per-bf", "300", "--out-dir", out,
        ) == 0
        assert "best model:" in capsys.readouterr().out
        assert len(read_noncomment_lines(out / "bf_diagnostics.csv")) > 2

    def test_live_select_runs_every_chain(self, tmp_path):
        sim = simulate_inputs(tmp_path, missing="0.1", preset="five-signal", seed="3")
        base = [
            "select",
            "--genotypes", sim / "genotypes.csv",
            "--phenotypes", sim / "phenotypes.csv",
            "--families", sim / "families.csv",
            "--kinship", "identity",
            "--iters", "500", "--burnin", "300", "--thin", "1", "--seed", "21",
            "--search-iters", "30", "--min-samples-per-bf", "1000",
        ]
        traces = {}
        for chains in (1, 2):
            out = tmp_path / f"sel{chains}"
            assert run_cli(*base, "--chains", chains, "--out-dir", out) == 0
            diag = [r.split(",") for r in read_noncomment_lines(out / "bf_diagnostics.csv")]
            assert {int(r[1]) + int(r[2]) for r in diag[1:]} == {200 * chains}
            traces[chains] = read_noncomment_lines(out / "trace.csv")[1:]
        assert traces[1] != traces[2]

    def test_recorded_equals_live(self, tmp_path):
        code, run_out, sel_live, base = self._run_and_select(tmp_path)
        assert code == 0
        sel_rec = tmp_path / "sel_rec"
        code = run_cli(
            "select", *base, "--samples", run_out / "samples.csv",
            "--search-iters", "200", "--min-samples-per-bf", "1000",
            "--out-dir", sel_rec,
        )
        assert code == 0
        live_best = read_noncomment_lines(sel_live / "best_model.txt")
        rec_best = read_noncomment_lines(sel_rec / "best_model.txt")
        assert live_best == rec_best

    def test_exhaustive_sixteen_rows(self, tmp_path):
        sim = simulate_inputs(tmp_path, missing="0", preset="five-signal", seed="4")
        out = tmp_path / "sel"
        code = run_cli(
            "select",
            "--genotypes", sim / "genotypes.csv",
            "--phenotypes", sim / "phenotypes.csv",
            "--families", sim / "families.csv",
            "--kinship", "identity",
            "--iters", "800", "--burnin", "300", "--thin", "1", "--seed", "5",
            "--candidates", "0,1,2,3", "--exhaustive",
            "--min-samples-per-bf", "500", "--out-dir", out,
        )
        assert code == 0
        trace = read_noncomment_lines(out / "trace.csv")
        assert len(trace) == 1 + 16

    def test_mixture_prob_one_hamming_moves(self, tmp_path):
        code, run_out, _, base = self._run_and_select(tmp_path)
        out = tmp_path / "sel_h1"
        assert run_cli(
            "select", *base, "--samples", run_out / "samples.csv",
            "--mixture-prob", "1.0", "--search-iters", "120",
            "--min-samples-per-bf", "500", "--candidates", "0,1,2,3,4",
            "--out-dir", out,
        ) == 0
        rows = [r.split(",") for r in read_noncomment_lines(out / "trace.csv")[1:]]
        incumbent = rows[0][1]
        for _, delta, _, accepted in rows[1:]:
            hamming = sum(a != b for a, b in zip(delta, incumbent))
            assert hamming == 1  # pure-flip proposals
            if accepted == "1":
                incumbent = delta

    def test_exhaustive_replays_from_manifest(self, tmp_path):
        # exhaustive is a switch: the manifest's exhaustive=1 must read back
        sim = simulate_inputs(tmp_path)
        base = [
            "--genotypes", sim / "genotypes.csv",
            "--phenotypes", sim / "phenotypes.csv",
            "--families", sim / "families.csv",
            "--pedigree", sim / "pedigree.csv", "--kinship", "pedigree",
            "--coding", "additive_dominance",
            "--iters", "300", "--burnin", "100", "--thin", "2", "--seed", "4",
        ]
        run_out, sel_out = tmp_path / "run", tmp_path / "sel"
        assert run_cli("run", *base, "--out-dir", run_out) == 0
        assert run_cli(
            "select", *base, "--samples", run_out / "samples.csv",
            "--candidates", "snp1:a,snp2:a,snp3:a", "--exhaustive",
            "--min-samples-per-bf", "100", "--out-dir", sel_out,
        ) == 0
        assert "exhaustive=1" in (sel_out / "manifest.txt").read_text().splitlines()
        assert len(read_noncomment_lines(sel_out / "trace.csv")) == 1 + 8
        assert_replays("select", sel_out, ("trace.csv", "bf_diagnostics.csv", "best_model.txt"))

    def test_too_many_exhaustive_candidates_exit_3(self, tmp_path, capsys):
        code, run_out, _, base = self._run_and_select(tmp_path)
        capsys.readouterr()
        out = tmp_path / "sel_big"
        code = run_cli(
            "select", *base, "--samples", run_out / "samples.csv",
            "--candidates", ",".join(str(k) for k in range(21)),
            "--exhaustive", "--out-dir", out,
        )
        assert code == 3
        # the remedy is a flag of the command line, not a library function
        err = capsys.readouterr().err
        assert "21 candidates exceed the exhaustive limit of 20" in err
        assert "drop --exhaustive" in err and "mh_model_search" not in err
        assert not out.exists()  # an explicit list is counted before any work

    def test_samples_file_without_rows_exit_3(self, tmp_path, capsys):
        sim = simulate_inputs(tmp_path)
        data = [
            "--genotypes", sim / "genotypes.csv",
            "--phenotypes", sim / "phenotypes.csv",
            "--families", sim / "families.csv",
            "--kinship", "identity",
        ]
        run_out = tmp_path / "run"
        assert run_cli(
            "run", *data, "--iters", "300", "--burnin", "100", "--thin", "2",
            "--out-dir", run_out,
        ) == 0
        samples = run_out / "samples.csv"
        manifest = [l for l in samples.read_text().splitlines() if l.startswith("#")]
        header_only = tmp_path / "header_only.csv"
        header_only.write_text("\n".join([*manifest, read_noncomment_lines(samples)[0]]) + "\n")
        code = run_cli(
            "select", *data, "--samples", header_only, "--out-dir", tmp_path / "sel"
        )
        assert code == 3
        assert "no sample rows" in capsys.readouterr().err

    def test_live_select_zero_chains_exit_3(self, tmp_path, capsys):
        sim = simulate_inputs(tmp_path, missing="0")
        out = tmp_path / "sel"
        code = run_cli(
            "select", "--genotypes", sim / "genotypes.csv",
            "--phenotypes", sim / "phenotypes.csv",
            "--kinship", "identity", "--chains", "0", "--out-dir", out,
        )
        assert code == 3
        assert "--chains" in capsys.readouterr().err
        assert not (out / "trace.csv").exists()

    def test_live_significant_select_too_few_draws_exit_3(self, tmp_path, capsys):
        sim = simulate_inputs(tmp_path)
        data = [
            "--genotypes", sim / "genotypes.csv",
            "--phenotypes", sim / "phenotypes.csv",
            "--families", sim / "families.csv",
            "--iters", "150", "--burnin", "100", "--thin", "1", "--seed", "1",
        ]
        out = tmp_path / "sel"
        assert run_cli("select", *data, "--candidates", "significant", "--out-dir", out) == 3
        assert "--iters 150 --burnin 100 --thin 1 keep 50 draws" in capsys.readouterr().err
        assert not out.exists()
        # explicit candidates need no HPD interval: the same chain selects
        assert run_cli("select", *data, "--candidates", "snp1,snp2", "--out-dir", out) == 0
        assert (out / "trace.csv").exists()

    def test_significant_select_on_short_samples_exit_3(self, tmp_path, capsys):
        sim = simulate_inputs(tmp_path)
        data = [
            "--genotypes", sim / "genotypes.csv",
            "--phenotypes", sim / "phenotypes.csv",
            "--families", sim / "families.csv",
        ]
        run_out = tmp_path / "run"
        assert run_cli("run", *data, "--iters", "500", "--burnin", "100", "--thin", "4",
                       "--seed", "1", "--out-dir", run_out) == 0
        # the manifest lines, the header and the first 14 sample rows
        lines = (run_out / "samples.csv").read_text().splitlines(keepends=True)
        header = next(k for k, line in enumerate(lines) if not line.startswith("#"))
        head = tmp_path / "head.csv"
        head.write_text("".join(lines[: header + 15]))
        out = tmp_path / "sel"
        code = run_cli("select", *data, "--samples", head, "--candidates", "significant",
                       "--out-dir", out)
        assert code == 3
        err = capsys.readouterr().err
        assert f"{head} holds 14 draws" in err
        assert "--candidates significant" in err
        assert not out.exists()

    def test_unknown_listed_candidate_exit_3_before_any_chain(
        self, tmp_path, capsys, monkeypatch
    ):
        sim = simulate_inputs(tmp_path)
        monkeypatch.setattr(cli, "run_chain", lambda *a: pytest.fail("a chain ran"))
        out = tmp_path / "sel"
        code = run_cli(
            "select", "--genotypes", sim / "genotypes.csv",
            "--phenotypes", sim / "phenotypes.csv", "--families", sim / "families.csv",
            "--iters", "300", "--burnin", "100", "--candidates", "snp1,snp9:a",
            "--out-dir", out,
        )
        assert code == 3
        assert "unknown candidate 'snp9:a'" in capsys.readouterr().err
        assert not out.exists()

    def test_out_of_range_candidate_index_exit_3(self, tmp_path, capsys):
        sim = simulate_inputs(tmp_path)
        data = [
            "--genotypes", sim / "genotypes.csv",
            "--phenotypes", sim / "phenotypes.csv",
            "--families", sim / "families.csv",
        ]
        run_out = tmp_path / "run"
        assert run_cli("run", *data, "--iters", "300", "--burnin", "100", "--thin", "2",
                       "--seed", "1", "--out-dir", run_out) == 0
        capsys.readouterr()
        for token in ("99", "-1"):
            out = tmp_path / f"sel{token}"
            code = run_cli("select", *data, "--samples", run_out / "samples.csv",
                           "--candidates", f"0,{token}", "--out-dir", out)
            assert code == 3
            assert f"unknown candidate {token!r}" in capsys.readouterr().err
            assert not out.exists()

    def test_repeated_candidates_scored_once(self, tmp_path):
        sim = simulate_inputs(tmp_path)
        base = [
            "--genotypes", sim / "genotypes.csv",
            "--phenotypes", sim / "phenotypes.csv",
            "--families", sim / "families.csv",
            "--coding", "additive_dominance",
            "--iters", "400", "--burnin", "100", "--thin", "2", "--seed", "4",
        ]
        run_out = tmp_path / "run"
        assert run_cli("run", *base, "--out-dir", run_out) == 0
        # the second list has 21 entries, 2 of them distinct ("0" is snp1:a):
        # only distinct candidates count toward the exhaustive limit of 20
        specs = {"sel": "snp1:a,snp1:a,snp2:a", "sel_many": ",".join(["snp1:a", "snp2:a"] + ["0"] * 19)}
        for name, spec in specs.items():
            out = tmp_path / name
            assert run_cli(
                "select", *base, "--samples", run_out / "samples.csv",
                "--candidates", spec, "--exhaustive",
                "--min-samples-per-bf", "100", "--out-dir", out,
            ) == 0
            trace = read_noncomment_lines(out / "trace.csv")
            assert len(trace) == 1 + 4
            assert len({row.split(",")[1] for row in trace[1:]}) == 4


class TestKinshipCommand:
    def test_three_record_pedigree(self, tmp_path):
        ped = tmp_path / "ped.csv"
        ped.write_text("id,sire,dam\nA,,\nB,,\nC,A,B\n")
        out = tmp_path / "kin"
        assert run_cli("kinship", "--pedigree", ped, "--out-dir", out) == 0
        rows = read_noncomment_lines(out / "kinship.csv")
        assert len(rows) == 4  # header + 3
        assert rows[0] == "id,A,B,C"

    def test_submatrix_extraction(self, tmp_path):
        ped = tmp_path / "ped.csv"
        ped.write_text("id,sire,dam\nA,,\nB,,\nC,A,B\nD,A,B\n")
        out = tmp_path / "kin"
        assert run_cli("kinship", "--pedigree", ped, "--ids", "C,D", "--out-dir", out) == 0
        rows = read_noncomment_lines(out / "kinship.csv")
        assert rows[0] == "id,C,D"
        assert float(rows[1].split(",")[2]) == 0.5

    def test_cycle_exit_3(self, tmp_path):
        ped = tmp_path / "ped.csv"
        ped.write_text("id,sire,dam\nA,B,\nB,A,\n")
        assert run_cli("kinship", "--pedigree", ped, "--out-dir", tmp_path / "k") == 3

    def test_replays_from_manifest(self, tmp_path):
        sim = simulate_inputs(tmp_path)
        out = tmp_path / "kin"
        assert run_cli(
            "kinship", "--pedigree", sim / "pedigree.csv", "--ids", "F1_01,F1_02,F2_01",
            "--out-dir", out,
        ) == 0
        assert_replays("kinship", out, ("kinship.csv",))

    def test_unknown_id_exit_3_without_quotes_or_directory(self, tmp_path, capsys):
        sim = simulate_inputs(tmp_path)
        capsys.readouterr()
        out = tmp_path / "kin"
        code = run_cli(
            "kinship", "--pedigree", sim / "pedigree.csv", "--ids", "F1_01,nobody",
            "--out-dir", out,
        )
        assert code == 3
        assert capsys.readouterr().err == "error: unknown individual id 'nobody'\n"
        assert not out.exists()

    def test_repeated_id_exit_3_without_directory(self, tmp_path, capsys):
        sim = simulate_inputs(tmp_path)
        capsys.readouterr()
        out = tmp_path / "kin"
        code = run_cli(
            "kinship", "--pedigree", sim / "pedigree.csv", "--ids", "F1_01,F1_01",
            "--out-dir", out,
        )
        assert code == 3
        assert capsys.readouterr().err == "error: duplicate individual id 'F1_01'\n"
        assert not out.exists()

    def test_missing_pedigree_exit_3(self, tmp_path, capsys):
        assert run_cli("kinship", "--out-dir", tmp_path / "k") == 3
        assert "--pedigree" in capsys.readouterr().err


class TestEmCommand:
    def test_complete_data_one_step_convergence(self, tmp_path):
        sim = simulate_inputs(tmp_path, missing="0")
        out = tmp_path / "em"
        code = run_cli(
            "em", "--genotypes", sim / "genotypes.csv",
            "--phenotypes", sim / "phenotypes.csv",
            "--families", sim / "families.csv",
            "--coding", "additive_dominance", "--out-dir", out,
        )
        assert code == 0
        log_rows = read_noncomment_lines(out / "em_log.csv")
        # complete data: the first M-step lands on least squares, the second
        # records a zero delta and stops
        assert len(log_rows) == 1 + 2
        estimates = read_noncomment_lines(out / "em_estimates.csv")
        assert len(estimates) == 1 + 6 + 10 + 1

    def test_with_missing_data(self, tmp_path):
        sim = simulate_inputs(tmp_path, missing="0.05", seed="7")
        out = tmp_path / "em"
        code = run_cli(
            "em", "--genotypes", sim / "genotypes.csv",
            "--phenotypes", sim / "phenotypes.csv",
            "--families", sim / "families.csv",
            "--coding", "additive_dominance", "--max-iter", "100",
            "--out-dir", out,
        )
        assert code == 0


    def test_monomorphic_column_warns_once(self, tmp_path, capsys):
        sim = simulate_inputs(tmp_path, missing="0.05")
        lines = read_noncomment_lines(sim / "genotypes.csv")
        mono = tmp_path / "mono.csv"
        rows = [lines[0]]
        for line in lines[1:]:
            cells = line.split(",")
            cells[1] = cells[1] if cells[1] == "NA" else "AA"
            rows.append(",".join(cells))
        mono.write_text("\n".join(rows) + "\n")
        capsys.readouterr()
        code = run_cli(
            "em", "--genotypes", mono, "--phenotypes", sim / "phenotypes.csv",
            "--max-iter", "2", "--out-dir", tmp_path / "em",
        )
        assert code == 0
        warnings = [l for l in capsys.readouterr().err.splitlines() if l.startswith("warning:")]
        assert warnings == ["warning: SNP column 'snp1' is monomorphic"]

    def test_replays_from_manifest(self, tmp_path):
        sim = simulate_inputs(tmp_path)
        out = tmp_path / "em"
        assert run_cli(
            "em", "--genotypes", sim / "genotypes.csv",
            "--phenotypes", sim / "phenotypes.csv",
            "--families", sim / "families.csv", "--coding", "additive_dominance",
            "--max-iter", "5", "--seed", "2", "--out-dir", out,
        ) == 0
        assert_replays("em", out, ("em_estimates.csv", "em_log.csv"))

    def test_config_kinship_ignored(self, tmp_path):
        # EM runs at R = I: a config's kinship keys are not em settings
        sim = simulate_inputs(tmp_path)
        config = tmp_path / "config.txt"
        config.write_text(
            f"genotypes={sim / 'genotypes.csv'}\nphenotypes={sim / 'phenotypes.csv'}\n"
            f"kinship=file\nkinship_file={tmp_path / 'nope.csv'}\nmax_iter=2\n"
        )
        out = tmp_path / "em"
        assert run_cli("em", "--config", config, "--out-dir", out) == 0
        assert not any(
            line.startswith("kinship") for line in (out / "manifest.txt").read_text().splitlines()
        )
        assert run_cli("em", "--config", config, "--kinship", "file", "--out-dir", out) == 2

    @pytest.mark.parametrize("max_iter", ["0", "-1"])
    def test_max_iter_below_one_exit_3(self, tmp_path, capsys, max_iter):
        sim = simulate_inputs(tmp_path)
        out = tmp_path / "em"
        code = run_cli(
            "em", "--genotypes", sim / "genotypes.csv",
            "--phenotypes", sim / "phenotypes.csv",
            "--families", sim / "families.csv",
            "--max-iter", max_iter, "--out-dir", out,
        )
        assert code == 3
        assert f"--max-iter {max_iter}: " in capsys.readouterr().err
        assert not out.exists()


class TestSettingsCheckedBeforeAnyWork:
    """A setting that a config type or the settings table refuses exits 3
    and is named, before --out-dir exists and before any chain runs."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("inputs")
        sim = simulate_inputs(tmp)
        data = [
            "--genotypes", sim / "genotypes.csv", "--phenotypes", sim / "phenotypes.csv",
            "--families", sim / "families.csv", "--coding", "additive_dominance",
        ]
        chain = ["--iters", "300", "--burnin", "100", "--thin", "2"]
        assert run_cli("run", *data, *chain, "--out-dir", tmp / "run") == 0
        return data, chain, tmp / "run" / "samples.csv"

    @pytest.fixture
    def no_chain(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a chain ran")

        monkeypatch.setattr(cli, "run_chain", refuse)

    @staticmethod
    def assert_refused(capsys, out, args, named):
        capsys.readouterr()
        assert run_cli(*args, "--out-dir", out) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err, err
        assert not out.exists()

    @pytest.mark.parametrize("prior", ["a", "b", "c", "d"])
    @pytest.mark.parametrize("subcommand", ["run", "select"])
    def test_prior_not_positive(self, tmp_path, capsys, inputs, no_chain, subcommand, prior):
        data, chain, _ = inputs
        args = [subcommand, *data, *chain, f"--prior-{prior}", "0"]
        if subcommand == "select":
            args += ["--candidates", "snp1:a,snp2:a"]
        self.assert_refused(capsys, tmp_path / "out", args, f"--prior-{prior} 0.0")

    @pytest.mark.parametrize("prior", ["a", "b", "c", "d"])
    @pytest.mark.parametrize("subcommand", ["run", "select"])
    def test_prior_not_finite(self, tmp_path, capsys, inputs, no_chain, subcommand, prior):
        data, chain, _ = inputs
        args = [subcommand, *data, *chain, f"--prior-{prior}", "inf"]
        if subcommand == "select":
            args += ["--candidates", "snp1:a,snp2:a"]
        self.assert_refused(capsys, tmp_path / "out", args, f"--prior-{prior} inf")

    @pytest.mark.parametrize(
        "subcommand, flag",
        [("run", "--seed"), ("select", "--seed"), ("em", "--seed"),
         ("simulate", "--seed"), ("simulate", "--mask-seed")],
    )
    def test_negative_seed(self, tmp_path, capsys, inputs, no_chain, subcommand, flag):
        data, chain, _ = inputs
        if subcommand == "simulate":
            args = ["simulate", "--missing", "0.1"]
        else:
            args = [subcommand, *data, *(chain if subcommand != "em" else ())]
        self.assert_refused(capsys, tmp_path / "out", [*args, flag, "-1"],
                            f"{flag} must be at least 0, got -1")

    @pytest.mark.parametrize("subcommand", ["run", "select"])
    def test_level_outside_unit_interval(self, tmp_path, capsys, inputs, no_chain, subcommand):
        data, chain, _ = inputs
        self.assert_refused(capsys, tmp_path / "out", [subcommand, *data, *chain, "--level", "1"],
                            "--level must lie in (0, 1), got 1.0")

    @pytest.mark.parametrize(
        "flag, value, named",
        [("--mixture-prob", "2", "--mixture-prob 2.0"),
         ("--search-iters", "0", "--search-iters 0"),
         ("--min-samples-per-bf", "0", "--min-samples-per-bf 0")],
    )
    @pytest.mark.parametrize("source", ["live", "samples"])
    def test_search_setting_refused(self, tmp_path, capsys, inputs, no_chain, source,
                                    flag, value, named):
        data, chain, samples = inputs
        given = chain if source == "live" else ["--samples", samples]
        args = ["select", *data, *given, "--candidates", "snp1:a,snp2:a", flag, value]
        self.assert_refused(capsys, tmp_path / "out", args, named)

    @pytest.mark.parametrize("subcommand", ["run", "select"])
    def test_negative_burn_in(self, tmp_path, capsys, inputs, no_chain, subcommand):
        # a negative burn-in would count more draws than the chain makes
        data, _, _ = inputs
        args = [subcommand, *data, "--iters", "200", "--burnin", "-5", "--thin", "1"]
        if subcommand == "select":
            args += ["--candidates", "snp1:a,snp2:a"]
        self.assert_refused(capsys, tmp_path / "out", args,
                            "--burnin -5 --thin 1 --impute-mode cycle: burn_in must be >= 0")

    def test_live_chains_that_keep_no_draw(self, tmp_path, capsys, inputs, no_chain):
        data, _, _ = inputs
        args = ["select", *data, "--iters", "200", "--burnin", "100", "--thin", "200",
                "--candidates", "snp1:a,snp2:a"]
        self.assert_refused(capsys, tmp_path / "out", args,
                            "--iters 200 --burnin 100 --thin 200 keep 0 draws")

    def test_missing_fraction_above_limit(self, tmp_path, capsys):
        self.assert_refused(capsys, tmp_path / "out", ["simulate", "--missing", "0.99"],
                            "--missing 0.99: missing fraction must lie in [0, 0.95]")

    @pytest.mark.parametrize("tol, named", [("nan", "--tol nan"), ("inf", "--tol inf"),
                                            ("-1", "--tol -1.0")])
    def test_em_tolerance_not_finite_or_negative(self, tmp_path, capsys, inputs, tol, named):
        data, _, _ = inputs
        self.assert_refused(capsys, tmp_path / "out", ["em", *data, "--tol", tol],
                            f"{named} --max-iter 500: EM tol must be a finite number at least 0")

    def test_em_zero_tolerance_runs(self, tmp_path, inputs):
        # no step is below 0: EM runs every iteration
        data, _, _ = inputs
        out = tmp_path / "em"
        assert run_cli("em", *data, "--tol", "0", "--max-iter", "2", "--out-dir", out) == 0
        assert len(read_noncomment_lines(out / "em_log.csv")) == 3


SUBCOMMANDS = ("run", "select", "kinship", "em", "simulate")


class TestParser:
    def test_help_names_every_subcommand(self, capsys):
        assert run_cli("--help") == 0
        out = capsys.readouterr().out
        assert "{" + ",".join(SUBCOMMANDS) + "}" in out
        for name in SUBCOMMANDS:
            assert f"\n    {name} " in out, name

    def test_version(self, capsys):
        assert run_cli("--version") == 0
        assert capsys.readouterr().out.strip() == snpgibbs.__version__

    @pytest.mark.parametrize("subcommand", SUBCOMMANDS)
    def test_subcommand_help_lists_its_settings(self, capsys, subcommand):
        assert run_cli(subcommand, "--help") == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: snpgibbs {subcommand} ")
        for key in (*cli.SUBCOMMAND_SETTINGS[subcommand], "config"):
            assert cli._flag(key) + " " in out, key

    def test_unknown_subcommand_exit_2(self, capsys):
        assert run_cli("bogus", "--seed", "1") == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    def test_only_the_named_subcommand_declares_its_arguments(self):
        args = ["run", "--iters", "5"]
        assert cli.build_parser("run").parse_args(args).iters == 5
        with pytest.raises(SystemExit):
            cli.build_parser("em").parse_args(args)


class TestImports:
    def test_cli_does_not_load_linalg(self):
        # the column-update kernels are tested and benchmarked, never run
        src = str(Path(snpgibbs.__file__).parents[1])
        code = (
            f"import sys; sys.path.insert(0, {src!r}); import snpgibbs.cli; "
            "sys.exit('snpgibbs.linalg' in sys.modules)"
        )
        assert subprocess.run([sys.executable, "-c", code]).returncode == 0
