"""Command-line surface: run, select, kinship, em, simulate.

Every run writes a manifest (tool version, every effective setting, seed,
input digests) both as '#'-prefixed header lines at the top of each output
file and as a standalone ``manifest.txt`` that can be fed back through
``--config`` to reproduce the run bit-exactly.

Exit codes: 0 success, 2 usage, 3 data validation/parse, 4 numerical.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

import numpy as np

from . import __version__, io
from .em import EmConfig, run_em
from .gibbs import (
    ChainNumericalError,
    GibbsConfig,
    PosteriorSamples,
    run_chain,
)
from .model import (
    CODINGS,
    SIGNED,
    DataValidationError,
    ImputationPrior,
    PriorHyperparams,
)
from .pedigree import PedigreeError, build_numerator_matrix, extract_submatrix, order_pedigree
from .selector import EstimationError, SearchConfig, exhaustive_search, mh_model_search
from .simulator import (
    MissingnessMask,
    apply_missingness,
    equicorrelated_design,
    family_labels,
    family_pedigree_records,
    five_signal_design,
    simulate_dataset,
    six_family_design,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

# `select` warns when the best model's importance-weight ESS is below this
# many states: its log BF then carries a large Monte Carlo error
THIN_BF_ESS = 10

# the settings that name an input file: a manifest digests every one given
INPUT_FILE_KEYS = (
    "genotypes",
    "phenotypes",
    "pedigree",
    "families",
    "kinship_file",
    "imputation_prior_file",
    "samples",
)

PRESETS = {
    "six-family": six_family_design,
    "five-signal": five_signal_design,
    "equicorrelated": equicorrelated_design,
}


class Settings:
    """Effective option values: flag > config file > default."""

    def __init__(self, args: argparse.Namespace, defaults: dict):
        self.defaults = dict(defaults)
        self.file_config = {}
        if getattr(args, "config", None):
            self.file_config = io.read_config_file(args.config)
        self.args = args
        self.effective: dict = {}
        for key, default in self.defaults.items():
            flag_val = getattr(args, key, None)
            if flag_val is not None:
                value = flag_val
            elif key in self.file_config:
                value = self._cast(self.file_config[key], default)
            else:
                value = default
            self.effective[key] = value

    @staticmethod
    def _cast(raw: str, default):
        if isinstance(default, bool):
            return raw.lower() in ("1", "true", "yes")
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
        if raw == "":
            return None
        return raw

    def __getitem__(self, key):
        return self.effective[key]

    def manifest(self, subcommand: str) -> dict:
        manifest = {"version": __version__, "subcommand": subcommand}
        for key in sorted(self.effective):
            if key == "out_dir":  # output routing, not part of the run definition
                continue
            value = self.effective[key]
            manifest[key] = "" if value is None else io.fmt(value)
        for key in sorted(INPUT_FILE_KEYS):
            if self.effective.get(key):
                manifest[f"digest_{key}"] = io.file_digest(self.effective[key])
        return manifest


def _manifest_lines(manifest: dict) -> list[str]:
    return [f"# {k}={v}" for k, v in manifest.items()]


_RUN_DEFAULTS = {
    "genotypes": None,
    "phenotypes": None,
    "pedigree": None,
    "families": None,
    "kinship": "identity",
    "kinship_file": None,
    "coding": SIGNED,
    "iters": 50_000,
    "burnin": 10_000,
    "thin": 4,
    "seed": 0,
    "chains": 1,
    "prior_a": 2.0,
    "prior_b": 1.0,
    "prior_c": 2.0,
    "prior_d": 1.0,
    "imputation_prior": "uniform",
    "imputation_prior_file": None,
    "impute_mode": "cycle",
    "level": 0.95,
    "out_dir": "out",
}

_SELECT_EXTRA = {
    "samples": None,
    "candidates": "significant",
    "exhaustive": False,
    "mixture_prob": 0.5,
    "search_iters": 500,
    "min_samples_per_bf": 2000,
}

_SIMULATE_DEFAULTS = {
    "preset": "six-family",
    "missing": 0.0,
    "seed": 0,
    "mask_seed": None,
    "out_dir": "out",
}

_EM_DEFAULTS = {
    "genotypes": None,
    "phenotypes": None,
    "pedigree": None,
    "families": None,
    "kinship": "identity",
    "kinship_file": None,
    "coding": SIGNED,
    "tol": 1e-8,
    "max_iter": 500,
    "seed": 0,
    "out_dir": "out",
}

_KINSHIP_DEFAULTS = {"pedigree": None, "ids": None, "out_dir": "out"}


def _add_common_data_flags(p: argparse.ArgumentParser):
    p.add_argument("--genotypes", help="genotype call file (csv)")
    p.add_argument("--phenotypes", help="phenotype file (id,value)")
    p.add_argument("--pedigree", help="pedigree file (id,sire,dam)")
    p.add_argument("--families", help="family membership file (id,family)")
    p.add_argument("--coding", choices=list(CODINGS), help="SNP design coding")


def _add_run_flags(p: argparse.ArgumentParser):
    _add_common_data_flags(p)
    p.add_argument("--kinship", choices=["pedigree", "identity", "file"])
    p.add_argument("--kinship-file", dest="kinship_file")
    p.add_argument("--iters", type=int)
    p.add_argument("--burnin", type=int)
    p.add_argument("--thin", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--chains", type=int)
    p.add_argument("--prior-a", dest="prior_a", type=float)
    p.add_argument("--prior-b", dest="prior_b", type=float)
    p.add_argument("--prior-c", dest="prior_c", type=float)
    p.add_argument("--prior-d", dest="prior_d", type=float)
    p.add_argument("--imputation-prior", dest="imputation_prior", choices=["uniform", "file"])
    p.add_argument("--imputation-prior-file", dest="imputation_prior_file")
    p.add_argument("--impute-mode", dest="impute_mode", choices=["cycle", "all", "off"])
    p.add_argument(
        "--r-weighted-imputation",
        action="store_true",
        help="no effect, kept so that old command lines still run: missing "
        "genotypes are always drawn from the exact kinship-coupled conditional",
    )
    p.add_argument("--level", type=float, help="credible interval level")
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--config", help="key=value settings file; flags win")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snpgibbs",
        description="SNP effect estimation under missing genotypes via Gibbs sampling",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_run = sub.add_parser("run", help="run the Gibbs sampler")
    _add_run_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sel = sub.add_parser("select", help="Bayes-factor model search")
    _add_run_flags(p_sel)
    p_sel.add_argument("--samples", help="recorded samples file (skip the live chain)")
    p_sel.add_argument("--candidates", help="'significant', or comma list of names/indices")
    p_sel.add_argument("--exhaustive", action="store_const", const=True)
    p_sel.add_argument("--mixture-prob", dest="mixture_prob", type=float)
    p_sel.add_argument("--search-iters", dest="search_iters", type=int)
    p_sel.add_argument("--min-samples-per-bf", dest="min_samples_per_bf", type=int)
    p_sel.set_defaults(func=cmd_select)

    p_kin = sub.add_parser("kinship", help="build a numerator relationship matrix")
    p_kin.add_argument("--pedigree", required=True)
    p_kin.add_argument("--ids", help="comma list: extract this principal submatrix")
    p_kin.add_argument("--out-dir", dest="out_dir")
    p_kin.add_argument("--config")
    p_kin.set_defaults(func=cmd_kinship)

    p_em = sub.add_parser("em", help="EM maximum-likelihood baseline")
    _add_common_data_flags(p_em)
    p_em.add_argument("--tol", type=float)
    p_em.add_argument("--max-iter", dest="max_iter", type=int)
    p_em.add_argument("--seed", type=int)
    p_em.add_argument("--out-dir", dest="out_dir")
    p_em.add_argument("--config")
    p_em.set_defaults(func=cmd_em)

    p_sim = sub.add_parser("simulate", help="emit a synthetic benchmark dataset")
    p_sim.add_argument("--preset", choices=sorted(PRESETS))
    p_sim.add_argument("--missing", type=float)
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--mask-seed", dest="mask_seed", type=int)
    p_sim.add_argument("--out-dir", dest="out_dir")
    p_sim.add_argument("--config")
    p_sim.set_defaults(func=cmd_simulate)

    return parser


def _outdir(settings) -> Path:
    out = Path(settings["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_dataset(settings):
    if not settings["genotypes"] or not settings["phenotypes"]:
        raise DataValidationError("--genotypes and --phenotypes are required")
    data, warnings = io.assemble_dataset(
        settings["genotypes"],
        settings["phenotypes"],
        kinship_mode=settings["kinship"],
        pedigree_path=settings["pedigree"],
        kinship_path=settings["kinship_file"],
        families_path=settings["families"],
        snp_coding=settings["coding"],
    )
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return data


def _imputation_prior(settings, data) -> ImputationPrior:
    if settings["imputation_prior"] == "file":
        if not settings["imputation_prior_file"]:
            raise DataValidationError(
                "--imputation-prior file requires --imputation-prior-file"
            )
        return io.read_imputation_prior(
            settings["imputation_prior_file"], data.ids, data.genotypes.names()
        )
    return ImputationPrior()


def _gibbs_config(settings, data, seed) -> GibbsConfig:
    return GibbsConfig(
        total_iterations=settings["iters"],
        burn_in=settings["burnin"],
        thinning=settings["thin"],
        seed=seed,
        imputation_prior=_imputation_prior(settings, data),
        impute_mode=settings["impute_mode"],
    )


def _priors(settings) -> PriorHyperparams:
    return PriorHyperparams(
        settings["prior_a"], settings["prior_b"], settings["prior_c"], settings["prior_d"]
    )


def _run_chains(settings, data) -> list[PosteriorSamples]:
    # one after another: the work is many small GIL-bound numpy calls, so
    # threads only add hand-over cost
    if settings["chains"] < 1:
        raise DataValidationError(f"--chains must be at least 1, got {settings['chains']}")
    priors = _priors(settings)
    return [
        run_chain(data, priors, _gibbs_config(settings, data, settings["seed"] + k))
        for k in range(settings["chains"])
    ]


def _merge_chains(chains: list[PosteriorSamples]) -> PosteriorSamples:
    if len(chains) == 1:
        return chains[0]
    draws = ("betas", "gammas", "sigma2s", "phi2s", "masked_values")
    return PosteriorSamples(
        chains[0].data,
        *(np.concatenate([getattr(c, name) for c in chains]) for name in draws),
    )


def cmd_run(args) -> int:
    settings = Settings(args, _RUN_DEFAULTS)
    data = _load_dataset(settings)
    manifest = settings.manifest("run")
    lines = _manifest_lines(manifest)
    out = _outdir(settings)
    chains = _run_chains(settings, data)
    merged = _merge_chains(chains)
    level = settings["level"]
    if len(chains) == 1:
        io.write_samples(out / "samples.csv", chains[0], lines)
    else:
        for k, chain in enumerate(chains, start=1):
            io.write_samples(out / f"samples_chain{k}.csv", chain, lines)
    io.write_summary(out / "summary.csv", merged, level, lines)
    io.write_intervals(out / "intervals.csv", merged, level, lines)
    io.write_autocorrelations(out / "autocorr.csv", chains[0], 20, lines)
    io.write_manifest_file(out / "manifest.txt", manifest)
    print(f"run complete: outputs in {out}")
    return EXIT_OK


def _parse_candidates(spec: str, samples: PosteriorSamples, level: float) -> list[int]:
    labels = list(samples.data.gamma_labels())
    if spec == "significant":
        rows = samples.summary(level)
        p = samples.betas.shape[1]
        picked = []
        for k, label in enumerate(labels):
            _, _, interval = rows[p + k]
            if not interval.contains_zero:
                picked.append(k)
        return picked
    picked = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        if token in labels:
            index = labels.index(token)
        else:
            try:
                index = int(token)
            except ValueError:
                raise DataValidationError(f"unknown candidate {token!r}") from None
        if index not in picked:  # a repeat would score the same models again
            picked.append(index)
    return picked


def cmd_select(args) -> int:
    settings = Settings(args, {**_RUN_DEFAULTS, **_SELECT_EXTRA})
    data = _load_dataset(settings)
    manifest = settings.manifest("select")
    lines = _manifest_lines(manifest)
    out = _outdir(settings)

    if settings["samples"]:
        samples = io.read_samples(settings["samples"], data)
    else:
        samples = _merge_chains(_run_chains(settings, data))

    candidates = _parse_candidates(settings["candidates"], samples, settings["level"])
    config = SearchConfig(
        mixture_prob=settings["mixture_prob"],
        search_iterations=settings["search_iters"],
        seed=settings["seed"],
        min_samples_per_bf=settings["min_samples_per_bf"],
    )
    if settings["exhaustive"]:
        trace = exhaustive_search(samples, candidates, config)
    else:
        trace = mh_model_search(samples, candidates, config)
    io.write_trace(out / "trace.csv", trace, lines)
    io.write_bf_diagnostics(out / "bf_diagnostics.csv", trace, lines)
    labels = samples.data.gamma_labels()
    io.write_best_model(out / "best_model.txt", trace, labels, lines)
    io.write_manifest_file(out / "manifest.txt", manifest)
    best_ess = trace.estimates[trace.best[0]].weight_ess
    if best_ess < THIN_BF_ESS:
        print(f"warning: the best model's Bayes factor rests on an importance-weight "
              f"ESS of {best_ess:.1f} states (< {THIN_BF_ESS})", file=sys.stderr)
    best_labels = [labels[j] for j in trace.best[0].included()]
    print("best model: " + (";".join(best_labels) if best_labels else "<empty>"))
    return EXIT_OK


def cmd_kinship(args) -> int:
    settings = Settings(args, _KINSHIP_DEFAULTS)
    manifest = settings.manifest("kinship")
    lines = _manifest_lines(manifest)
    out = _outdir(settings)
    records = io.read_pedigree(settings["pedigree"])
    R = build_numerator_matrix(order_pedigree(records))
    if settings["ids"]:
        R = extract_submatrix(R, [x.strip() for x in settings["ids"].split(",")])
    io.write_kinship_matrix(out / "kinship.csv", R, lines)
    io.write_manifest_file(out / "manifest.txt", manifest)
    print(f"kinship matrix ({R.dim}x{R.dim}) written to {out / 'kinship.csv'}")
    return EXIT_OK


def cmd_em(args) -> int:
    settings = Settings(args, _EM_DEFAULTS)
    # EM ignores kinship, so the dataset is assembled with identity R
    data = _load_dataset(settings)
    manifest = settings.manifest("em")
    lines = _manifest_lines(manifest)
    out = _outdir(settings)
    config = EmConfig(
        tol=settings["tol"], max_iterations=settings["max_iter"], seed=settings["seed"]
    )
    state, log = run_em(data, config)
    io.write_table(
        out / "em_log.csv",
        ["iteration", "loglik", "max_delta"],
        log.history,
        lines,
    )
    names = list(data.design.names()) + list(data.gamma_labels()) + ["sigma2"]
    values = list(state.beta) + list(state.gamma) + [state.sigma2]
    io.write_table(out / "em_estimates.csv", ["name", "value"], zip(names, values), lines)
    io.write_manifest_file(out / "manifest.txt", manifest)
    status = "converged" if log.converged else "not converged"
    print(f"EM {status} after {log.iterations} iterations")
    return EXIT_OK


def cmd_simulate(args) -> int:
    settings = Settings(args, _SIMULATE_DEFAULTS)
    manifest = settings.manifest("simulate")
    lines = _manifest_lines(manifest)
    out = _outdir(settings)
    design = PRESETS[settings["preset"]]()
    data, truth = simulate_dataset(design, settings["seed"])
    if settings["missing"]:
        mask_seed = settings["mask_seed"]
        mask_seed = settings["seed"] if mask_seed is None else int(mask_seed)
        data = apply_missingness(data, MissingnessMask(settings["missing"], mask_seed))

    io.write_genotypes(out / "genotypes.csv", data.ids, data.genotypes, manifest_lines=lines)
    io.write_phenotypes(out / "phenotypes.csv", data.ids, data.y, lines)
    io.write_families(
        out / "families.csv", data.ids, family_labels(design.family_sizes), lines
    )
    if design.kinship_mode == "pedigree":
        io.write_pedigree(
            out / "pedigree.csv",
            family_pedigree_records(design.family_sizes, data.ids),
            lines,
        )
    else:
        io.write_kinship_matrix(out / "kinship.csv", data.kinship, lines)
    io.write_truth(out / "truth.txt", truth, lines)
    io.write_manifest_file(out / "manifest.txt", manifest)
    print(f"simulated dataset ({data.n} x {data.s}) written to {out}")
    return EXIT_OK


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (DataValidationError, PedigreeError, FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ChainNumericalError, EstimationError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
