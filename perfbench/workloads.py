"""Workloads: input generators and the subcommand lines each one runs.

A generator is a pure function of the benchmark seed. It writes the CSV
files the program reads, and ``truth.json`` for the output checks; the
program sees only the CSV files.

The work of one pipeline repetition is fixed by the workload, not by the
random draws, so that timings at different seeds compare:

- ``select`` gets an explicit candidate list taken from the truth. The
  size of ``--candidates significant`` changes with the seed, and each
  extra candidate doubles an exhaustive search.
- EM runs a fixed number of iterations (``--tol 0``), not up to a
  convergence point that depends on the data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from snpgibbs import io as sio
from snpgibbs.cli import main as cli_main
from snpgibbs.model import GenotypeMatrix
from snpgibbs.pedigree import (
    PedigreeRecord,
    build_numerator_matrix,
    extract_submatrix,
    order_pedigree,
)


def _simulate(preset: str, missing: str, seed: int, out: Path) -> dict:
    argv = ["simulate", "--preset", preset, "--missing", missing,
            "--seed", str(seed), "--out-dir", str(out)]
    if cli_main(argv) != 0:
        raise RuntimeError(f"snpgibbs {' '.join(argv)} failed")
    truth = sio.read_truth(out / "truth.txt")
    return {
        "beta": dict(zip(truth.beta_labels, truth.beta_true)),
        "gamma": dict(zip(truth.gamma_labels, truth.gamma_true)),
    }


def _six_family(seed: int, out: Path) -> dict:
    truth = _simulate("six-family", "0.10", seed, out)
    # the 7 columns with a true effect of at least 1: 128 models
    truth["candidates"] = [k for k, g in truth["gamma"].items() if abs(g) >= 1.0]
    return truth


def _five_signal(seed: int, out: Path) -> dict:
    truth = _simulate("five-signal", "0.20", seed, out)
    truth["candidates"] = list(truth["gamma"])
    return truth


def _wide_pedigree(seed: int, out: Path) -> dict:
    """Five generations of 200 random matings; the last one is genotyped,
    at 128 Hardy-Weinberg SNPs with 5% of the calls missing."""
    rng = np.random.default_rng(seed)
    generations, size, s, herds, causal_count = 5, 200, 128, 4, 5
    records, previous = [], []
    for g in range(generations):
        current = [f"G{g}_{k:03d}" for k in range(size)]
        for rid in current:
            if previous:  # even positions are sires, odd ones dams
                sire = previous[2 * rng.integers(size // 2)]
                dam = previous[2 * rng.integers(size // 2) + 1]
                records.append(PedigreeRecord(rid, sire, dam))
            else:
                records.append(PedigreeRecord(rid))
        previous = current
    ids = previous
    R = extract_submatrix(build_numerator_matrix(order_pedigree(records)), ids).entries

    n = len(ids)
    missing = np.zeros(n * s, dtype=bool)
    missing[rng.choice(n * s, size=round(0.05 * n * s), replace=False)] = True
    missing = missing.reshape(n, s)
    codes = np.empty((n, s), dtype=np.int8)
    for j in range(s):
        p = rng.uniform(0.2, 0.8)
        freqs = [(1 - p) ** 2, 2 * p * (1 - p), p**2]
        # the file's coding puts the larger observed homozygote at +1, so
        # both homozygotes must be observed for the truth to keep its sign
        while True:
            codes[:, j] = rng.choice(np.array([-1, 0, 1], dtype=np.int8), size=n, p=freqs)
            if {-1, 1} <= set(codes[~missing[:, j], j].tolist()):
                break

    herd = np.array([f"H{1 + k % herds}" for k in rng.permutation(n)])
    herd_effect = {f"H{h + 1}": 10.0 + 5.0 * h for h in range(herds)}
    causal = sorted(rng.choice(s, size=causal_count, replace=False).tolist())
    gamma = np.zeros(s)
    gamma[causal] = (rng.choice([-1.0, 1.0], size=causal_count)
                     * rng.uniform(0.6, 1.2, size=causal_count))
    noise = np.linalg.cholesky(R) @ rng.standard_normal(n)
    y = np.array([herd_effect[h] for h in herd]) + codes @ gamma + noise

    names = tuple(f"snp{j + 1}" for j in range(s))
    masked = np.where(missing, 0, codes)
    sio.write_genotypes(out / "genotypes.csv", ids, GenotypeMatrix(masked, missing, names))
    sio.write_phenotypes(out / "phenotypes.csv", ids, y)
    sio.write_families(out / "families.csv", ids, herd)
    sio.write_pedigree(out / "pedigree.csv", records)
    nulls = [j for j in range(s) if j not in causal]
    return {
        "beta": herd_effect,
        "gamma": dict(zip(names, gamma.tolist())),
        "candidates": [names[j] for j in causal + nulls[:15]],
    }


@dataclass(frozen=True)
class Workload:
    """How to make a workload's inputs and which subcommands it runs."""

    name: str
    generator: Callable[[int, Path], dict]
    chains: int
    iters: int
    burnin: int
    thin: int
    run_flags: tuple[str, ...]
    select_flags: tuple[str, ...]
    em_flags: tuple[str, ...] | None  # None: the workload runs no EM
    exact_em: bool  # every individual fits the exact enumeration E-step
    # Posterior means must land within these distances of the simulation
    # truth: at least twice the largest deviation seen over 40 seeds or more
    # at the seed commit. Coarse on purpose; the check catches a wrong sampler,
    # not an imprecise one (short chains, small samples, heavy missingness).
    beta_tol: float
    gamma_tol: float

    @property
    def retained(self) -> int:
        return (self.iters - self.burnin) // self.thin


WORKLOADS = {w.name: w for w in (
    # The paper's design: 6 full-sib families of 20, additive + dominance
    # coding (10 design columns), pedigree kinship. The per-cell R-weighted
    # imputation loop and the 10-step phi-shift rank-one chain dominate a
    # sweep; exhaustive Bayes factors over 128 models dominate select; EM
    # stays in exact enumeration.
    Workload(
        name="six-family", generator=_six_family,
        chains=2, iters=500, burnin=100, thin=4,
        run_flags=("--kinship", "pedigree", "--coding", "additive_dominance",
                   "--r-weighted-imputation"),
        select_flags=("--exhaustive", "--min-samples-per-bf", "100"),
        em_flags=("--coding", "additive_dominance", "--tol", "0", "--max-iter", "20"),
        exact_em=True, beta_tol=7.0, gamma_tol=4.0,
    ),
    # 200 genotyped animals of a 1000-animal pedigree, 128 signed SNPs.
    # Every sweep pays an O(s^3) inverse refresh and the gamma Cholesky;
    # each Bayes-factor term carries a ~118-column excluded Gram matrix;
    # the pedigree recursion runs at n = 1000. The search makes only
    # independent jumps over 20 candidates, so every proposal is a new
    # model of about the same size and the search's work does not depend
    # on where the walk goes. No EM: with 6.4 missing SNPs per animal on
    # average, about half the animals exceed the enumeration cap of 3^6
    # completions, and the Monte Carlo E-step for them would dwarf the
    # rest of the pipeline.
    Workload(
        name="wide-pedigree", generator=_wide_pedigree,
        chains=1, iters=500, burnin=100, thin=4,
        run_flags=("--kinship", "pedigree", "--r-weighted-imputation"),
        select_flags=("--mixture-prob", "0", "--search-iters", "20",
                      "--min-samples-per-bf", "100"),
        em_flags=None,
        exact_em=False, beta_tol=4.0, gamma_tol=1.5,
    ),
    # n = 50, 25 SNPs, 20% missing, R = I. Every column is re-imputed and
    # the gamma inverse rebuilt by dual form on every sweep; the MH walk
    # over all 25 coefficients exercises flips, jumps and the memo cache;
    # about a dozen individuals exceed the enumeration cap, so the EM
    # E-step is Monte Carlo and never meets a tolerance: one iteration.
    # Not listed in BENCHMARK.json: over ten seeds of 35-second runs on a
    # shared 2-vCPU VM, before the timings were calibrated, its
    # run_sweeps_per_s spread (quartile distance over median) was 0.27,
    # above the largest bound allowed. Run it by hand for the per-layer
    # numbers of those three paths.
    Workload(
        name="five-signal-search", generator=_five_signal,
        chains=1, iters=500, burnin=100, thin=4,
        run_flags=("--impute-mode", "all"),
        select_flags=("--search-iters", "60", "--min-samples-per-bf", "100"),
        em_flags=("--tol", "0", "--max-iter", "1"),
        exact_em=False, beta_tol=6.5, gamma_tol=7.0,
    ),
)}


def generate(workload: Workload, seed: int, out: Path) -> dict:
    """Write the workload's inputs for ``seed`` under ``out``; return the truth."""
    out.mkdir(parents=True, exist_ok=True)
    truth = workload.generator(seed, out)
    (out / "truth.json").write_text(json.dumps(truth, sort_keys=True))
    return truth


def data_flags(inputs: Path, pedigree: bool = True) -> list[str]:
    flags = ["--genotypes", str(inputs / "genotypes.csv"),
             "--phenotypes", str(inputs / "phenotypes.csv"),
             "--families", str(inputs / "families.csv")]
    if pedigree and (inputs / "pedigree.csv").exists():
        flags += ["--pedigree", str(inputs / "pedigree.csv")]
    return flags


def samples_files(workload: Workload, run_dir: Path) -> list[Path]:
    if workload.chains == 1:
        return [run_dir / "samples.csv"]
    return [run_dir / f"samples_chain{k}.csv" for k in range(1, workload.chains + 1)]


def commands(workload: Workload, seed: int, inputs: Path, truth: dict, rep: Path):
    """The pipeline of one repetition as (subcommand, argv) pairs."""
    data = data_flags(inputs)
    run_dir = rep / "run"
    steps = [
        ("run", ["run", *data, *workload.run_flags,
                 "--chains", str(workload.chains), "--iters", str(workload.iters),
                 "--burnin", str(workload.burnin), "--thin", str(workload.thin),
                 "--seed", str(seed), "--out-dir", str(run_dir)]),
        ("select", ["select", *data, *workload.run_flags, *workload.select_flags,
                    "--samples", str(samples_files(workload, run_dir)[0]),
                    "--candidates", ",".join(truth["candidates"]),
                    "--seed", str(seed), "--out-dir", str(rep / "select")]),
    ]
    if workload.em_flags is not None:
        steps.append(("em", ["em", *data_flags(inputs, pedigree=False), *workload.em_flags,
                             "--seed", str(seed), "--out-dir", str(rep / "em")]))
    return steps
