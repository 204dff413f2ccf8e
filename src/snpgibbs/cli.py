"""Command-line surface: run, select, kinship, em, simulate.

Each setting is declared once, in ``SETTINGS`` (default, kind, help); the
flags of every subcommand, the parsing of config values and the manifest
all read that table. A setting that gives a field of a config type takes
its default from that type, which also checks its value.

Every subcommand works in one order: it builds and checks every config
object from its settings, then makes ``--out-dir`` (``_outputs``), does
its work, and writes ``manifest.txt`` last. So a bad setting exits 3
before any directory is made or any chain runs. The manifest (tool
version, every effective setting, seed, input digests) heads each output
file as '#'-prefixed lines, and ``manifest.txt`` can be fed back through
``--config`` to reproduce the run bit-exactly.

Exit codes: 0 success, 2 usage, 3 data validation/parse, 4 numerical.
"""

from __future__ import annotations

import argparse
import logging
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from . import __version__, io
from .em import EmConfig, run_em
from .gibbs import (
    HPD_MIN_DRAWS,
    IMPUTE_MODES,
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
from .selector import (
    EXHAUSTIVE_CANDIDATE_LIMIT,
    EstimationError,
    SearchConfig,
    exhaustive_search,
    mh_model_search,
)
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


class Setting(NamedTuple):
    """A settable value. ``kind`` is a type, a tuple of choices, or ``bool``
    for a switch; it parses the flag and the config value alike. ``field``
    is the (config type, field name) the value gives, if any."""

    default: object
    kind: object
    help: str
    field: Optional[tuple] = None


def _field(cls, name: str, kind, help_text: str) -> Setting:
    """The setting that gives ``cls``'s field ``name``, with its default."""
    return Setting(getattr(cls, name), kind, help_text, (cls, name))


SETTINGS = {
    "genotypes": Setting(None, str, "genotype call file (csv)"),
    "phenotypes": Setting(None, str, "phenotype file (id,value)"),
    "pedigree": Setting(None, str, "pedigree file (id,sire,dam)"),
    "families": Setting(None, str, "family membership file (id,family)"),
    "coding": Setting(SIGNED, tuple(CODINGS), "SNP design coding"),
    "kinship": Setting("identity", ("pedigree", "identity", "file"), "relationship matrix R"),
    "kinship_file": Setting(None, str, "dense kinship matrix file (csv)"),
    "iters": _field(GibbsConfig, "total_iterations", int, "sweeps per chain, burn-in included"),
    "burnin": _field(GibbsConfig, "burn_in", int, "sweeps discarded at the start of a chain"),
    "thin": _field(GibbsConfig, "thinning", int, "keep every thin-th sweep after burn-in"),
    "seed": Setting(GibbsConfig.seed, int, "random seed"),
    "chains": Setting(1, int, "chains run one after another, seeded seed, seed+1, ..."),
    "prior_a": _field(PriorHyperparams, "a", float, "inverted-gamma shape of sigma^2"),
    "prior_b": _field(PriorHyperparams, "b", float, "inverted-gamma scale of sigma^2"),
    "prior_c": _field(PriorHyperparams, "c", float, "inverted-gamma shape of phi^2"),
    "prior_d": _field(PriorHyperparams, "d", float, "inverted-gamma scale of phi^2"),
    "imputation_prior": Setting("uniform", ("uniform", "file"), "missing-genotype prior"),
    "imputation_prior_file": Setting(None, str, "id,snp,w_minus1,w_0,w_plus1 weights file"),
    "impute_mode": _field(GibbsConfig, "impute_mode", IMPUTE_MODES,
                          "SNP columns re-imputed per sweep"),
    "level": Setting(0.95, float, "credible interval level"),
    "samples": Setting(None, str, "recorded samples file (skip the live chain)"),
    "candidates": Setting("significant", str, "'significant', or comma list of names/indices"),
    "exhaustive": Setting(False, bool, "score every subset of the candidates"),
    "mixture_prob": _field(SearchConfig, "mixture_prob", float,
                           "probability of a one-coefficient flip move"),
    "search_iters": _field(SearchConfig, "search_iterations", int,
                           "Metropolis-Hastings search steps"),
    "min_samples_per_bf": _field(SearchConfig, "min_samples_per_bf", int,
                                 "posterior states behind each Bayes factor"),
    "tol": _field(EmConfig, "tol", float, "EM convergence tolerance"),
    "max_iter": _field(EmConfig, "max_iterations", int, "EM iteration limit"),
    "ids": Setting(None, str, "comma list: extract this principal submatrix"),
    "preset": Setting("six-family", tuple(sorted(PRESETS)), "simulated design"),
    "missing": Setting(0.0, float, "fraction of genotype calls masked",
                       (MissingnessMask, "fraction")),
    "mask_seed": Setting(None, int, "seed of the missingness mask (default: --seed)"),
    "out_dir": Setting("out", str, "output directory"),
}

_DATA = ("genotypes", "phenotypes", "pedigree", "families", "coding")
_CHAIN = (
    *_DATA, "kinship", "kinship_file", "iters", "burnin", "thin", "seed", "chains",
    "prior_a", "prior_b", "prior_c", "prior_d", "imputation_prior",
    "imputation_prior_file", "impute_mode", "level", "out_dir",
)
# EM ignores kinship by design, so it has no kinship setting and runs at R = I
SUBCOMMAND_SETTINGS = {
    "run": _CHAIN,
    "select": (
        *_CHAIN, "samples", "candidates", "exhaustive", "mixture_prob",
        "search_iters", "min_samples_per_bf",
    ),
    "kinship": ("pedigree", "ids", "out_dir"),
    "em": (*_DATA, "tol", "max_iter", "seed", "out_dir"),
    "simulate": ("preset", "missing", "seed", "mask_seed", "out_dir"),
}


def _parse_config_value(name: str, raw: str):
    default, kind, *_ = SETTINGS[name]
    if kind is bool:
        return raw.lower() in ("1", "true", "yes")
    if raw == "" and default is None:
        return None
    if isinstance(kind, tuple):
        if raw not in kind:
            raise DataValidationError(f"config {name}={raw!r} is not one of {', '.join(kind)}")
        return raw
    try:
        return kind(raw)
    except ValueError:
        raise DataValidationError(f"config {name}={raw!r} is not {kind.__name__}") from None


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


class Settings:
    """Effective values of a subcommand's settings: flag > config file >
    default. The checks no config type makes are made here: a seed below 0
    and a credible level outside (0, 1) exit 3."""

    def __init__(self, args: argparse.Namespace):
        file_config = io.read_config_file(args.config) if args.config else {}
        self.subcommand = args.subcommand
        self.effective: dict = {}
        for name in SUBCOMMAND_SETTINGS[args.subcommand]:
            value = getattr(args, name)
            if value is None and name in file_config:
                value = _parse_config_value(name, file_config[name])
            self.effective[name] = SETTINGS[name].default if value is None else value
        for name in ("seed", "mask_seed"):
            if (self.get(name) or 0) < 0:
                raise DataValidationError(f"{_flag(name)} must be at least 0, got {self[name]}")
        if "level" in self.effective and not 0 < self["level"] < 1:
            raise DataValidationError(f"--level must lie in (0, 1), got {self['level']}")

    def __getitem__(self, key):
        return self.effective[key]

    def get(self, key, default=None):
        return self.effective.get(key, default)

    def manifest(self) -> dict:
        manifest = {"version": __version__, "subcommand": self.subcommand}
        for key in sorted(self.effective):
            if key == "out_dir":  # output routing, not part of the run definition
                continue
            value = self.effective[key]
            manifest[key] = "" if value is None else io.fmt(value)
        for key in sorted(INPUT_FILE_KEYS):
            if self.get(key):
                manifest[f"digest_{key}"] = io.file_digest(self.effective[key])
        return manifest


def _build(cls, settings: Settings, **given):
    """``cls`` from the settings that give its fields, plus ``given``; a
    value it refuses exits 3 and names those settings."""
    names = [name for name, s in SETTINGS.items() if s.field and s.field[0] is cls]
    try:
        return cls(**{SETTINGS[name].field[1]: settings[name] for name in names}, **given)
    except ValueError as exc:
        values = " ".join(f"{_flag(name)} {io.fmt(settings[name])}" for name in names)
        raise DataValidationError(f"{values}: {exc}") from None


class _Outputs(NamedTuple):
    dir: Path
    manifest_lines: list

    def write(self, name: str, writer, *args) -> None:
        """``writer`` of the file ``name``, headed by the manifest lines."""
        writer(self.dir / name, *args, manifest_lines=self.manifest_lines)


@contextmanager
def _outputs(settings: Settings):
    """Make --out-dir for the body's files; write manifest.txt once the
    body has written every other one."""
    manifest = settings.manifest()
    out = _Outputs(Path(settings["out_dir"]), [f"# {k}={v}" for k, v in manifest.items()])
    out.dir.mkdir(parents=True, exist_ok=True)
    yield out
    io.write_manifest_file(out.dir / "manifest.txt", manifest)


def build_parser(subcommand: Optional[str]) -> argparse.ArgumentParser:
    """The command-line parser. It lists every subcommand but declares the
    arguments of ``subcommand`` alone (of none when that names no
    subcommand), since a call parses one subcommand's arguments."""
    parser = argparse.ArgumentParser(
        prog="snpgibbs",
        description="SNP effect estimation under missing genotypes via Gibbs sampling",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    commands = {
        "run": (cmd_run, "run the Gibbs sampler"),
        "select": (cmd_select, "Bayes-factor model search"),
        "kinship": (cmd_kinship, "build a numerator relationship matrix"),
        "em": (cmd_em, "EM maximum-likelihood baseline"),
        "simulate": (cmd_simulate, "emit a synthetic benchmark dataset"),
    }
    for name, (func, description) in commands.items():
        p = sub.add_parser(name, help=description)
        if name != subcommand:
            continue
        for key in SUBCOMMAND_SETTINGS[name]:
            _, kind, help_text, _ = SETTINGS[key]
            flag = _flag(key)
            # every flag defaults to None, so Settings can tell "not given"
            if kind is bool:
                p.add_argument(flag, dest=key, action="store_const", const=True, help=help_text)
            elif isinstance(kind, tuple):
                p.add_argument(flag, dest=key, choices=kind, help=help_text)
            else:
                p.add_argument(flag, dest=key, type=kind, help=help_text)
        if name in ("run", "select"):
            p.add_argument(
                "--r-weighted-imputation",
                action="store_true",
                help="no effect, kept so that old command lines still run: missing "
                "genotypes are always drawn from the exact kinship-coupled conditional",
            )
        p.add_argument("--config", help="key=value settings file; flags win")
        p.set_defaults(func=func)
    return parser


def _load_dataset(settings):
    if not settings["genotypes"] or not settings["phenotypes"]:
        raise DataValidationError("--genotypes and --phenotypes are required")
    data, warnings = io.assemble_dataset(
        settings["genotypes"],
        settings["phenotypes"],
        # `em` has no kinship setting: it runs at R = I
        kinship_mode=settings.get("kinship", "identity"),
        pedigree_path=settings["pedigree"],
        kinship_path=settings.get("kinship_file"),
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


def _chain_configs(settings, data, summary: bool) -> list[GibbsConfig]:
    """One config per live chain, seeded seed, seed+1, ..., checked before
    any chain runs: --chains below 1, a bad imputation prior file, chain
    settings GibbsConfig refuses, and chains that keep no draw in all or,
    when the draws feed HPD intervals (``summary``), fewer than
    HPD_MIN_DRAWS, exit 3."""
    chains = settings["chains"]
    if chains < 1:
        raise DataValidationError(f"--chains must be at least 1, got {chains}")
    prior = _imputation_prior(settings, data)
    configs = [
        _build(GibbsConfig, settings, seed=settings["seed"] + k, imputation_prior=prior)
        for k in range(chains)
    ]
    draws = chains * configs[0].retained_count
    needed, use = (HPD_MIN_DRAWS, "HPD intervals need") if summary else (1, "a search needs")
    if draws < needed:
        raise DataValidationError(
            f"--iters {settings['iters']} --burnin {settings['burnin']} "
            f"--thin {settings['thin']} keep {draws} draws over {chains} chain(s); "
            f"{use} at least {needed}"
        )
    return configs


def _run_chains(data, priors, configs) -> list[PosteriorSamples]:
    # one after another: the work is many small GIL-bound numpy calls, so
    # threads only add hand-over cost
    return [run_chain(data, priors, config) for config in configs]


def _merge_chains(chains: list[PosteriorSamples]) -> PosteriorSamples:
    if len(chains) == 1:
        return chains[0]
    return PosteriorSamples(
        chains[0].data,
        np.concatenate([c.draws for c in chains]),
        np.concatenate([c.masked_values for c in chains]),
    )


def cmd_run(settings: Settings) -> int:
    priors = _build(PriorHyperparams, settings)
    data = _load_dataset(settings)
    configs = _chain_configs(settings, data, summary=True)
    with _outputs(settings) as out:
        chains = _run_chains(data, priors, configs)
        merged = _merge_chains(chains)
        if len(chains) == 1:
            out.write("samples.csv", io.write_samples, chains[0])
        else:
            for k, chain in enumerate(chains, start=1):
                out.write(f"samples_chain{k}.csv", io.write_samples, chain)
        summary = merged.summary(settings["level"])
        p, sd = merged.betas.shape[1], merged.gammas.shape[1]
        out.write("summary.csv", io.write_summary, summary)
        out.write("intervals.csv", io.write_intervals, summary[p : p + sd])
        out.write("autocorr.csv", io.write_autocorrelations, chains[0])
    print(f"run complete: outputs in {out.dir}")
    return EXIT_OK


def _significant_candidates(samples: PosteriorSamples, level: float) -> list[int]:
    """The SNP coefficients whose HPD interval excludes zero."""
    rows = samples.summary(level)
    p = samples.betas.shape[1]
    return [k for k in range(samples.gammas.shape[1]) if not rows[p + k][2].contains_zero]


def _listed_candidates(spec: str, labels) -> list[int]:
    """The design columns a comma list names, by label or by index, each
    once; a token that names none exits 3."""
    labels = list(labels)
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
                index = -1
            if not 0 <= index < len(labels):
                raise DataValidationError(
                    f"unknown candidate {token!r}: give a coefficient name or an "
                    f"index from 0 to {len(labels) - 1}"
                )
        if index not in picked:  # a repeat would score the same models again
            picked.append(index)
    return picked


def _check_exhaustive_limit(settings, candidates: list[int]) -> None:
    if settings["exhaustive"] and len(candidates) > EXHAUSTIVE_CANDIDATE_LIMIT:
        raise DataValidationError(
            f"{len(candidates)} candidates exceed the exhaustive limit of "
            f"{EXHAUSTIVE_CANDIDATE_LIMIT}; drop --exhaustive to search them "
            "by Metropolis-Hastings"
        )


def cmd_select(settings: Settings) -> int:
    priors = _build(PriorHyperparams, settings)
    config = _build(SearchConfig, settings, seed=settings["seed"])
    data = _load_dataset(settings)
    live = not settings["samples"]
    significant = settings["candidates"] == "significant"
    if not significant:  # an explicit list is checked before any work
        candidates = _listed_candidates(settings["candidates"], data.gamma_labels())
        _check_exhaustive_limit(settings, candidates)
    if live:
        configs = _chain_configs(settings, data, significant)
    else:
        samples = io.read_samples(settings["samples"], data)
        if significant and samples.retained_count < HPD_MIN_DRAWS:
            raise DataValidationError(
                f"{settings['samples']} holds {samples.retained_count} draws; "
                f"--candidates significant needs at least {HPD_MIN_DRAWS} for "
                "its HPD intervals"
            )
    with _outputs(settings) as out:
        if live:
            samples = _merge_chains(_run_chains(data, priors, configs))
        if significant:
            candidates = _significant_candidates(samples, settings["level"])
            _check_exhaustive_limit(settings, candidates)
        if settings["exhaustive"]:
            trace = exhaustive_search(samples, candidates, config)
        else:
            trace = mh_model_search(samples, candidates, config)
        labels = samples.data.gamma_labels()
        out.write("trace.csv", io.write_trace, trace)
        out.write("bf_diagnostics.csv", io.write_bf_diagnostics, trace)
        out.write("best_model.txt", io.write_best_model, trace, labels)
    best = trace.best_row
    best_ess = trace.weight_ess[best]
    if best_ess < THIN_BF_ESS:
        print(f"warning: the best model's Bayes factor rests on an importance-weight "
              f"ESS of {best_ess:.1f} states (< {THIN_BF_ESS})", file=sys.stderr)
    best_labels = [labels[j] for j in trace.columns(best)]
    print("best model: " + (";".join(best_labels) if best_labels else "<empty>"))
    return EXIT_OK


def cmd_kinship(settings: Settings) -> int:
    if not settings["pedigree"]:
        raise DataValidationError("--pedigree is required")
    records = io.read_pedigree(settings["pedigree"])
    R = build_numerator_matrix(order_pedigree(records))
    if settings["ids"]:
        R = extract_submatrix(R, [x.strip() for x in settings["ids"].split(",")])
    with _outputs(settings) as out:
        out.write("kinship.csv", io.write_kinship_matrix, R)
    print(f"kinship matrix ({R.dim}x{R.dim}) written to {out.dir / 'kinship.csv'}")
    return EXIT_OK


def cmd_em(settings: Settings) -> int:
    config = _build(EmConfig, settings, seed=settings["seed"])
    data = _load_dataset(settings)
    with _outputs(settings) as out:
        state, log = run_em(data, config)
        out.write("em_log.csv", io.write_table, ["iteration", "loglik", "max_delta"],
                  log.history)
        names = list(data.design.names()) + list(data.gamma_labels()) + ["sigma2"]
        values = list(state.beta) + list(state.gamma) + [state.sigma2]
        out.write("em_estimates.csv", io.write_table, ["name", "value"], zip(names, values))
    status = "converged" if log.converged else "not converged"
    print(f"EM {status} after {log.iterations} iterations")
    return EXIT_OK


def cmd_simulate(settings: Settings) -> int:
    mask_seed = settings["seed"] if settings["mask_seed"] is None else settings["mask_seed"]
    mask = _build(MissingnessMask, settings, seed=mask_seed)
    design = PRESETS[settings["preset"]]()
    # drawn before --out-dir is made, so a mask the data refuses makes none
    data, truth = simulate_dataset(design, settings["seed"])
    if mask.fraction:
        data = apply_missingness(data, mask)
    with _outputs(settings) as out:
        out.write("genotypes.csv", io.write_genotypes, data.ids, data.genotypes)
        out.write("phenotypes.csv", io.write_phenotypes, data.ids, data.y)
        out.write("families.csv", io.write_families, data.ids,
                  family_labels(design.family_sizes))
        if design.kinship_mode == "pedigree":
            out.write("pedigree.csv", io.write_pedigree,
                      family_pedigree_records(design.family_sizes, data.ids))
        else:
            out.write("kinship.csv", io.write_kinship_matrix, data.kinship)
        out.write("truth.txt", io.write_truth, truth)
    print(f"simulated dataset ({data.n} x {data.s}) written to {out.dir}")
    return EXIT_OK


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    argv = sys.argv[1:] if argv is None else list(argv)
    # the program's own options take no value: the first other word names
    # the subcommand
    parser = build_parser(next((word for word in argv if not word.startswith("-")), None))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(Settings(args))
    except (DataValidationError, PedigreeError, FileNotFoundError, KeyError, ValueError) as exc:
        # str() of a KeyError is the repr of its message, quotes and all
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return EXIT_DATA
    except (ChainNumericalError, EstimationError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
