"""Synthetic family datasets with known truth, plus recovery scoring.

Presets cover the benchmark layouts used by the acceptance suite: a
six-family design with additive + dominance SNP effects and pedigree
kinship, a three-family equicorrelated design, and an uncorrelated
(R = I) design with five strong SNP signals among many nulls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .gibbs import PosteriorSamples
from .model import (
    ADDITIVE_DOMINANCE,
    SIGNED,
    Dataset,
    GenotypeMatrix,
    PhenotypeVector,
    family_design,
    snp_coding,
    snp_design_matrix,
)
from .pedigree import (
    PedigreeRecord,
    RelationshipMatrix,
    build_numerator_matrix,
    extract_submatrix,
    order_pedigree,
)

__all__ = [
    "SimDesign",
    "SimTruth",
    "MissingnessMask",
    "RecoveryReport",
    "simulate_dataset",
    "apply_missingness",
    "recovery_report",
    "six_family_design",
    "five_signal_design",
    "equicorrelated_design",
    "family_labels",
    "family_pedigree_records",
]

KINSHIP_MODES = ("pedigree", "equicorrelation", "identity")


@dataclass(frozen=True)
class SimDesign:
    """Layout of a simulated dataset.

    ``genotype_freqs`` holds one probability triple per SNP over the codes
    (-1, 0, +1). ``gamma_true`` is one value per design column, in the
    coding's column order: length s for signed coding, length 2s
    (additive, dominance interleaved) for additive + dominance coding.
    """

    family_sizes: tuple[int, ...]
    snp_count: int
    genotype_freqs: tuple[tuple[float, float, float], ...]
    beta_true: tuple[float, ...]
    gamma_true: tuple[float, ...]
    sigma2_true: float = 1.0
    kinship_mode: str = "pedigree"
    rho: float = 0.0
    coding: str = SIGNED
    name: str = "custom"

    def __post_init__(self):
        if self.kinship_mode not in KINSHIP_MODES:
            raise ValueError(f"unknown kinship mode {self.kinship_mode!r}")
        if len(self.genotype_freqs) != self.snp_count:
            raise ValueError("need one genotype frequency triple per SNP")
        for j, triple in enumerate(self.genotype_freqs):
            arr = np.asarray(triple, dtype=float)
            if (arr < 0).any() or abs(arr.sum() - 1.0) > 1e-9:
                raise ValueError(f"genotype frequencies of SNP {j} must sum to 1")
        if len(self.beta_true) != len(self.family_sizes):
            raise ValueError("one family effect per family required")
        expected = self.snp_count * snp_coding(self.coding).columns_per_snp
        if len(self.gamma_true) != expected:
            raise ValueError(
                f"gamma_true needs {expected} entries for coding {self.coding!r}"
            )
        if self.sigma2_true <= 0:
            raise ValueError("sigma2_true must be positive")
        if self.kinship_mode == "equicorrelation":
            if max(self.family_sizes) < 2:
                raise ValueError("equicorrelation needs a family of at least two members")
            low = -1.0 / (max(self.family_sizes) - 1)
            if not low < self.rho < 1.0:
                raise ValueError(f"rho must lie in ({low:.4f}, 1)")

    @property
    def n(self) -> int:
        return int(sum(self.family_sizes))


@dataclass(frozen=True)
class SimTruth:
    """Everything needed to score recovery of a simulated dataset."""

    design_name: str
    seed: int
    beta_true: tuple[float, ...]
    gamma_true: tuple[float, ...]
    sigma2_true: float
    true_codes: np.ndarray
    beta_labels: tuple[str, ...]
    gamma_labels: tuple[str, ...]
    snp_names: tuple[str, ...]
    ids: tuple[str, ...]


@dataclass(frozen=True)
class MissingnessMask:
    """Uniform value-independent masking at an exact overall fraction."""

    fraction: float
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.fraction <= 0.95:
            raise ValueError("missing fraction must lie in [0, 0.95]")

    def draw(self, n: int, s: int) -> np.ndarray:
        """Boolean mask with round(fraction * n * s) cells set, chosen
        uniformly without replacement; identical for identical seeds."""
        total = n * s
        count = int(round(self.fraction * total))
        mask = np.zeros(total, dtype=bool)
        if count:
            rng = np.random.default_rng(self.seed)
            mask[rng.choice(total, size=count, replace=False)] = True
        return mask.reshape(n, s)


def family_labels(family_sizes: Sequence[int]) -> list[str]:
    labels = []
    for f, size in enumerate(family_sizes):
        labels.extend([f"F{f + 1}"] * size)
    return labels


def family_pedigree_records(family_sizes, ids) -> list[PedigreeRecord]:
    """Full-sib family pedigree: one unrelated parent pair per family."""
    records = []
    offset = 0
    for f, size in enumerate(family_sizes):
        sire, dam = f"S{f + 1}", f"D{f + 1}"
        records.append(PedigreeRecord(sire))
        records.append(PedigreeRecord(dam))
        for k in range(size):
            records.append(PedigreeRecord(ids[offset + k], sire, dam))
        offset += size
    return records


def _pedigree_kinship(family_sizes, ids) -> RelationshipMatrix:
    records = family_pedigree_records(family_sizes, ids)
    full = build_numerator_matrix(order_pedigree(records))
    return extract_submatrix(full, ids)


def _equicorrelation_kinship(family_sizes, ids, rho) -> RelationshipMatrix:
    n = int(sum(family_sizes))
    R = np.zeros((n, n))
    offset = 0
    for size in family_sizes:
        block = np.full((size, size), rho)
        np.fill_diagonal(block, 1.0)
        R[offset : offset + size, offset : offset + size] = block
        offset += size
    return RelationshipMatrix(ids, R)


def simulate_dataset(design: SimDesign, seed: int = 0) -> tuple[Dataset, SimTruth]:
    """Draw a complete dataset from the design and return it with its truth."""
    rng = np.random.default_rng(seed)
    n, s = design.n, design.snp_count
    labels = family_labels(design.family_sizes)
    ids = tuple(
        f"F{f + 1}_{k + 1:02d}"
        for f, size in enumerate(design.family_sizes)
        for k in range(size)
    )
    codes = np.empty((n, s), dtype=np.int8)
    for j in range(s):
        codes[:, j] = rng.choice(
            np.array([-1, 0, 1], dtype=np.int8), size=n, p=design.genotype_freqs[j]
        )

    X = family_design(labels)
    if design.kinship_mode == "pedigree":
        kinship = _pedigree_kinship(design.family_sizes, ids)
    elif design.kinship_mode == "equicorrelation":
        kinship = _equicorrelation_kinship(design.family_sizes, ids, design.rho)
    else:
        kinship = RelationshipMatrix.identity(ids)

    snp_names = tuple(f"snp{j + 1}" for j in range(s))
    genotypes = GenotypeMatrix(codes, np.zeros((n, s), dtype=bool), snp_names)
    Zd = snp_design_matrix(codes, design.coding)
    beta = np.asarray(design.beta_true, dtype=float)
    gamma = np.asarray(design.gamma_true, dtype=float)
    L = np.linalg.cholesky(kinship.entries)
    eps = np.sqrt(design.sigma2_true) * (L @ rng.standard_normal(n))
    y = X.design @ beta + Zd @ gamma + eps

    data = Dataset(
        genotypes=genotypes,
        phenotypes=PhenotypeVector(y),
        design=X,
        kinship=kinship,
        snp_coding=design.coding,
        ids=ids,
    )
    truth = SimTruth(
        design_name=design.name,
        seed=seed,
        beta_true=tuple(float(b) for b in beta),
        gamma_true=tuple(float(g) for g in gamma),
        sigma2_true=float(design.sigma2_true),
        true_codes=codes.copy(),
        beta_labels=X.names(),
        gamma_labels=data.gamma_labels(),
        snp_names=snp_names,
        ids=ids,
    )
    return data, truth


def apply_missingness(d: Dataset, mask: MissingnessMask) -> Dataset:
    """Mask genotype cells uniformly at random; phenotypes untouched."""
    where = mask.draw(d.n, d.s)
    codes = d.genotypes.codes.copy()
    codes[where] = 0  # placeholder; masked cells are defined by the mask only
    genotypes = GenotypeMatrix(
        codes, where | d.genotypes.missing_mask, d.genotypes.snp_names, d.genotypes.categories
    )
    return Dataset(
        genotypes=genotypes,
        phenotypes=d.phenotypes,
        design=d.design,
        kinship=d.kinship,
        snp_coding=d.snp_coding,
        ids=d.ids,
    )


@dataclass
class RecoveryReport:
    """Truth vs posterior for every parameter, plus imputation accuracy."""

    parameter_rows: list = field(default_factory=list)
    imputation_frequencies: dict = field(default_factory=dict)

    def deviation(self, name: str) -> float:
        for row in self.parameter_rows:
            if row["name"] == name:
                return row["deviation"]
        raise KeyError(name)


def recovery_report(
    truth: SimTruth,
    posterior: PosteriorSamples,
    level: float = 0.95,
) -> RecoveryReport:
    """Score posterior recovery of the simulation truth.

    Imputation frequency per SNP is the fraction of retained states whose
    completion matches the true genotype, averaged over that SNP's masked
    cells in the posterior's dataset (None when the SNP has none).
    """
    report = RecoveryReport()
    truths = [*truth.beta_true, *truth.gamma_true, truth.sigma2_true]  # phi^2 has none
    for k, (name, mean, interval) in enumerate(posterior.summary(level)):
        true_val = truths[k] if k < len(truths) else float("nan")
        report.parameter_rows.append(
            {
                "name": name,
                "truth": true_val,
                "posterior_mean": mean,
                "hpd_lower": interval.lower,
                "hpd_upper": interval.upper,
                "significant": not interval.contains_zero,
                "deviation": mean - true_val,
            }
        )

    rows, cols = posterior.data.genotypes.masked_cells
    correct = posterior.masked_values == truth.true_codes[rows, cols]
    for j, name in enumerate(truth.snp_names):
        cells = np.flatnonzero(cols == j)
        report.imputation_frequencies[name] = (
            float(correct[:, cells].mean()) if cells.size else None
        )
    return report


# ---------------------------------------------------------------------------
# named benchmark designs


def six_family_design() -> SimDesign:
    """Six full-sib families of 20, five SNPs with additive + dominance
    effects, pedigree kinship, unit error variance."""
    return SimDesign(
        family_sizes=(20,) * 6,
        snp_count=5,
        genotype_freqs=(
            (0.3384, 0.5307, 0.1309),
            (0.3113, 0.3875, 0.3012),
            (0.1023, 0.0796, 0.8181),
            (0.0331, 0.1950, 0.7719),
            (0.0592, 0.5425, 0.3983),
        ),
        beta_true=(15.0, 20.0, 25.0, 30.0, 35.0, 40.0),
        gamma_true=(-2.0, 1.0, 1.0, -1.0, 3.0, 0.0, 2.5, 0.1, 0.3, 3.0),
        sigma2_true=1.0,
        kinship_mode="pedigree",
        coding=ADDITIVE_DOMINANCE,
        name="six-family",
    )


def _thresholded_gamma(s: int, rng: np.random.Generator, keep_top: Optional[int]):
    """Strong-effect generator: normal draws with small values zeroed.

    With ``keep_top`` set, only that many largest-magnitude coordinates
    survive; otherwise every coordinate below 3 in absolute value is
    dropped.
    """
    raw = rng.normal(0.0, 3.0, size=s)
    gamma = raw.copy()
    if keep_top is None:
        gamma[np.abs(gamma) < 3.0] = 0.0
    else:
        order = np.argsort(-np.abs(gamma))
        drop = order[keep_top:]
        gamma[drop] = 0.0
    return tuple(float(g) for g in gamma)


def five_signal_design(gamma_seed: int = 7) -> SimDesign:
    """Fifty uncorrelated individuals in three families, 25 SNPs of which
    exactly five carry a (strong) effect; R = I."""
    rng = np.random.default_rng(gamma_seed)
    s = 25
    return SimDesign(
        family_sizes=(16, 17, 17),
        snp_count=s,
        genotype_freqs=((0.25, 0.5, 0.25),) * s,
        beta_true=(5.0, 10.0, 15.0),
        gamma_true=_thresholded_gamma(s, rng, keep_top=5),
        sigma2_true=1.0,
        kinship_mode="identity",
        coding=SIGNED,
        name="five-signal",
    )


def equicorrelated_design(gamma_seed: int = 11) -> SimDesign:
    """Three families (16/17/17) with within-family correlation 0.8 and
    thresholded strong SNP effects."""
    rng = np.random.default_rng(gamma_seed)
    s = 25
    return SimDesign(
        family_sizes=(16, 17, 17),
        snp_count=s,
        genotype_freqs=((0.25, 0.5, 0.25),) * s,
        beta_true=(5.0, 10.0, 15.0),
        gamma_true=_thresholded_gamma(s, rng, keep_top=None),
        sigma2_true=1.0,
        kinship_mode="equicorrelation",
        rho=0.8,
        coding=SIGNED,
        name="equicorrelated",
    )
