"""Core data model: genotype coding, dataset assembly, prior configuration.

Genotypes are coded -1/0/+1 (the two homozygotes and the heterozygote).
A dataset can expose SNPs to the linear model either directly through that
signed coding (one design column per SNP) or through an additive +
dominance pair per SNP (additive -1/0/+1 and dominance 0/1/0), which
separates allele-dosage effects from heterozygote deviation. ``CODINGS``
is the one table of both: per coding, the design values of each genotype
code (row code + 1) and the label suffix of each of a SNP's columns. SNP
j's columns are j * columns_per_snp onwards, in the table's order.

A ``Dataset`` is valid by construction: matching dimensions, a design of
full rank, a positive-definite kinship and a known coding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .pedigree import RelationshipMatrix

__all__ = [
    "DataValidationError",
    "GenotypeMatrix",
    "PhenotypeVector",
    "FamilyDesign",
    "PriorHyperparams",
    "ImputationPrior",
    "Dataset",
    "SnpCoding",
    "CODINGS",
    "snp_coding",
    "encode_genotypes",
    "decode_genotypes",
    "missingness_warnings",
    "family_design",
    "snp_design_matrix",
    "genotype_column_values",
    "SIGNED",
    "ADDITIVE_DOMINANCE",
    "GENOTYPE_CODES",
]

SIGNED = "signed"
ADDITIVE_DOMINANCE = "additive_dominance"

# candidate genotype codes, in the order imputation probabilities are laid out
GENOTYPE_CODES = np.array([-1, 0, 1], dtype=np.int8)

MISSINGNESS_WARN_FRACTION = 0.15

# the call that marks a genotype missing, as an empty cell does
MISSING_CALL = "NA"

# a kinship matrix may be this far from symmetric (a file round trip), no further
KINSHIP_SYMMETRY_TOL = 1e-12


class DataValidationError(ValueError):
    """Dataset contents violate a hard structural requirement."""


class SnpCoding(NamedTuple):
    """One coding's design columns of a SNP: ``values[g + 1]`` holds the
    values of genotype code g, ``suffixes`` each column's label suffix."""

    values: np.ndarray  # (3, columns per SNP)
    suffixes: tuple[str, ...]

    @property
    def columns_per_snp(self) -> int:
        return len(self.suffixes)


def _table(rows) -> np.ndarray:
    values = np.array(rows, dtype=float)
    values.setflags(write=False)  # shared by every dataset of the coding
    return values


CODINGS = {
    SIGNED: SnpCoding(_table([[-1.0], [0.0], [1.0]]), ("",)),
    ADDITIVE_DOMINANCE: SnpCoding(
        _table([[-1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]), (":a", ":d")
    ),
}


def snp_coding(name: str) -> SnpCoding:
    """The table entry of a coding; the one place an unknown one is rejected."""
    try:
        return CODINGS[name]
    except KeyError:
        raise DataValidationError(f"unknown snp coding {name!r}") from None


@dataclass(frozen=True)
class GenotypeMatrix:
    """n x s coded genotypes plus an explicit missingness mask.

    ``codes`` holds -1/0/+1 for observed cells; masked cells are defined
    only through the mask, and whatever placeholder they are given is
    stored as 0.
    """

    codes: np.ndarray
    missing_mask: np.ndarray
    snp_names: tuple[str, ...] = ()
    categories: tuple[dict, ...] = ()  # per-SNP {code: category label}

    def __post_init__(self):
        codes = np.asarray(self.codes)
        mask = np.asarray(self.missing_mask, dtype=bool)
        if codes.ndim != 2:
            raise DataValidationError("genotype codes must be a 2-d matrix")
        if codes.shape != mask.shape:
            raise DataValidationError("codes and missing mask shapes differ")
        observed = codes[~mask]
        if observed.size and not np.isin(observed, GENOTYPE_CODES).all():
            raise DataValidationError("observed genotype codes must be -1, 0 or +1")
        if mask.size and mask.all(axis=0).any():
            col = int(np.flatnonzero(mask.all(axis=0))[0])
            name = self.snp_names[col] if self.snp_names else str(col)
            raise DataValidationError(f"SNP column {name!r} has no observed entries")
        object.__setattr__(self, "codes", np.where(mask, 0, codes).astype(np.int8))
        object.__setattr__(self, "missing_mask", mask)
        if self.snp_names and len(self.snp_names) != codes.shape[1]:
            raise DataValidationError("snp_names length does not match column count")

    @property
    def n(self) -> int:
        return self.codes.shape[0]

    @property
    def s(self) -> int:
        return self.codes.shape[1]

    @property
    def missing_fraction(self) -> float:
        return float(self.missing_mask.mean()) if self.missing_mask.size else 0.0

    @cached_property
    def masked_cells(self) -> tuple[np.ndarray, np.ndarray]:
        """(rows, cols) of the masked cells, read-only, in row-major order:
        the order of ``PosteriorSamples.masked_values`` and of ``zimp_`` columns."""
        rows, cols = np.nonzero(self.missing_mask)
        rows.flags.writeable = cols.flags.writeable = False
        return rows, cols

    def names(self) -> tuple[str, ...]:
        if self.snp_names:
            return self.snp_names
        return tuple(f"snp{j + 1}" for j in range(self.s))


@dataclass(frozen=True)
class PhenotypeVector:
    """Continuous trait values, one per individual; no missing entries."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1:
            raise DataValidationError("phenotypes must be a 1-d vector")
        if not np.isfinite(vals).all():
            raise DataValidationError("phenotypes must be finite (no missing values)")
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class FamilyDesign:
    """n x p covariate design, typically 0/1 family-membership indicators."""

    design: np.ndarray
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        X = np.asarray(self.design, dtype=float)
        if X.ndim != 2:
            raise DataValidationError("design must be a 2-d matrix")
        n, p = X.shape
        if p >= n:
            raise DataValidationError(f"design needs p < n, got p={p}, n={n}")
        if np.linalg.matrix_rank(X) < p:
            raise DataValidationError("design matrix is rank deficient")
        object.__setattr__(self, "design", X)
        if self.labels and len(self.labels) != p:
            raise DataValidationError("design labels length does not match p")

    @property
    def n(self) -> int:
        return self.design.shape[0]

    @property
    def p(self) -> int:
        return self.design.shape[1]

    def names(self) -> tuple[str, ...]:
        if self.labels:
            return self.labels
        return tuple(f"beta{k + 1}" for k in range(self.p))


def family_design(labels: Sequence[str]) -> FamilyDesign:
    """Cell-means indicator design from per-individual family labels."""
    labels = [str(x) for x in labels]
    families = sorted(set(labels))
    X = np.zeros((len(labels), len(families)))
    index = {f: k for k, f in enumerate(families)}
    for i, f in enumerate(labels):
        X[i, index[f]] = 1.0
    return FamilyDesign(X, tuple(families))


@dataclass(frozen=True)
class PriorHyperparams:
    """Inverted-gamma shapes/scales for the two variance parameters."""

    a: float = 2.0  # sigma^2 shape
    b: float = 1.0  # sigma^2 scale
    c: float = 2.0  # phi^2 shape
    d: float = 1.0  # phi^2 scale

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            if not 0 < getattr(self, name) < np.inf:
                raise DataValidationError(f"prior hyperparameter {name} must be finite and > 0")


@dataclass(frozen=True)
class ImputationPrior:
    """Per-genotype prior weights used when drawing missing genotypes.

    ``uniform`` gives each genotype class equal weight. ``weighted`` mode
    carries an n x s x 3 table of probabilities over codes (-1, 0, +1),
    e.g. Mendelian-transmission weights derived from parental genotypes.
    """

    mode: str = "uniform"
    weights: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.mode not in ("uniform", "weighted"):
            raise DataValidationError(f"unknown imputation prior mode {self.mode!r}")
        if self.mode == "weighted":
            w = np.asarray(self.weights, dtype=float)
            if w.ndim != 3 or w.shape[2] != 3:
                raise DataValidationError("weights must have shape (n, s, 3)")
            if not (np.isfinite(w) & (w >= 0)).all():
                raise DataValidationError("imputation prior weights must be finite and >= 0")
            if np.max(np.abs(w.sum(axis=2) - 1.0)) > 1e-12:
                raise DataValidationError("each weight triple must sum to 1")
            object.__setattr__(self, "weights", w)

    def log_weights(self, rows: np.ndarray, col) -> np.ndarray:
        """Log prior weights for the given cells, shape (len(rows), 3): the
        cells of column ``col`` at ``rows``, or, with ``col`` an index
        array as long as ``rows``, the cells (rows[k], col[k])."""
        if self.mode == "uniform":
            return np.zeros((len(rows), 3))
        with np.errstate(divide="ignore"):
            return np.log(self.weights[rows, col, :])


@dataclass(frozen=True)
class Dataset:
    """Genotypes, phenotypes, covariate design and kinship.

    Valid by construction: a known coding, one row per individual in every
    member and a finite, symmetric, positive-definite kinship with its
    diagonal in [1, 1.5] (the design's rank is checked by ``FamilyDesign``).
    """

    genotypes: GenotypeMatrix
    phenotypes: PhenotypeVector
    design: FamilyDesign
    kinship: RelationshipMatrix
    snp_coding: str = SIGNED
    ids: tuple[str, ...] = ()

    def __post_init__(self):
        snp_coding(self.snp_coding)
        n = self.genotypes.n
        if self.phenotypes.n != n or self.design.n != n or self.kinship.dim != n:
            raise DataValidationError(
                "inconsistent dimensions: "
                f"genotypes n={n}, phenotypes n={self.phenotypes.n}, "
                f"design n={self.design.n}, kinship dim={self.kinship.dim}"
            )
        if self.ids and len(self.ids) != n:
            raise DataValidationError("ids length does not match n")
        R = self.kinship.entries
        if not np.isfinite(R).all():
            raise DataValidationError("kinship entries must be finite")
        if np.max(np.abs(R - R.T)) > KINSHIP_SYMMETRY_TOL:
            raise DataValidationError("kinship matrix is not symmetric")
        diag = np.diag(R)
        if diag.min() < 1.0 - 1e-12 or diag.max() > 1.5 + 1e-12:
            raise DataValidationError("kinship diagonal must lie in [1, 1.5]")
        if not self.kinship.is_positive_definite():
            raise DataValidationError("kinship matrix is not positive definite")

    @property
    def n(self) -> int:
        return self.genotypes.n

    @property
    def s(self) -> int:
        return self.genotypes.s

    @property
    def coding(self) -> SnpCoding:
        return snp_coding(self.snp_coding)

    @property
    def columns_per_snp(self) -> int:
        return self.coding.columns_per_snp

    @property
    def design_dim(self) -> int:
        return self.s * self.columns_per_snp

    @property
    def y(self) -> np.ndarray:
        return self.phenotypes.values

    @property
    def X(self) -> np.ndarray:
        return self.design.design

    @property
    def R(self) -> np.ndarray:
        return self.kinship.entries

    @cached_property
    def Rinv(self) -> np.ndarray:
        """R^-1 from ``np.linalg.inv``, computed once and read-only: every
        chain and the Bayes-factor search read this one inverse."""
        inverse = np.linalg.inv(self.R)
        inverse.flags.writeable = False
        return inverse

    def gamma_labels(self) -> tuple[str, ...]:
        suffixes = self.coding.suffixes
        return tuple(name + tail for name in self.genotypes.names() for tail in suffixes)

    def design_columns_of_snp(self, j: int) -> tuple[int, ...]:
        k = self.columns_per_snp
        return tuple(range(k * j, k * j + k))


def genotype_column_values(codes: np.ndarray, coding: str) -> np.ndarray:
    """Design values of genotype codes, one table row per code: shape
    codes.shape + (columns per SNP,), so (n, 1) for one signed SNP column
    and (n, 2) for one additive + dominance one."""
    index = np.asarray(codes, dtype=np.int8) + 1
    return np.take(snp_coding(coding).values, index, axis=0)


def snp_design_matrix(codes: np.ndarray, coding: str) -> np.ndarray:
    """Full SNP design matrix from an n x s genotype code matrix: SNP j's
    columns are j * columns_per_snp onwards."""
    values = genotype_column_values(codes, coding)
    n, s, k = values.shape
    return values.reshape(n, s * k)


def missingness_warnings(genotypes: GenotypeMatrix) -> list[str]:
    """A warning when overall missingness exceeds the level beyond which
    estimates become unreliable."""
    fraction = genotypes.missing_fraction
    if fraction <= MISSINGNESS_WARN_FRACTION:
        return []
    return [
        f"overall missingness {fraction:.1%} exceeds "
        f"{MISSINGNESS_WARN_FRACTION:.0%}; interpret estimates with caution"
    ]


def encode_genotypes(raw, snp_names: Sequence[str] = ()) -> tuple[GenotypeMatrix, list]:
    """Code a categorical call table as -1/0/+1 with a missingness mask;
    an empty call or ``MISSING_CALL`` is missing.

    Within each column the lexicographically smaller homozygote maps to -1,
    the larger to +1, and the heterozygote (a call whose two characters
    differ) to 0. Returns the coded matrix and a list of warnings
    (monomorphic columns).
    """
    cells, n, s = _flat_calls(raw)
    names = tuple(snp_names) if snp_names else tuple(f"snp{j + 1}" for j in range(s))
    # factor the table once: every cell becomes the index of its distinct call
    distinct = list(dict.fromkeys(cells))
    if not all(isinstance(x, str) for x in distinct):
        cells = list(map(str, cells))  # non-string calls compare by their text
        distinct = list(dict.fromkeys(cells))
    index = {x: u for u, x in enumerate(distinct)}
    inverse = np.fromiter(map(index.__getitem__, cells), dtype=np.intp, count=n * s)
    inverse = inverse.reshape(n, s)
    text = [str(x).strip() for x in distinct]
    missing = np.array([not x or x == MISSING_CALL for x in text], dtype=bool)
    observed = np.zeros((s, len(distinct)), dtype=bool)
    observed[np.arange(s), inverse] = True
    observed &= ~missing
    # columns with the same set of observed calls share one code map
    patterns, pattern_of = np.unique(observed, axis=0, return_inverse=True)
    pattern_of = pattern_of.ravel()
    maps = [_code_map(sorted({text[u] for u in np.flatnonzero(row)})) for row in patterns]
    failed = [k for k, m in enumerate(maps) if isinstance(m, str)]
    if failed:
        j = int(np.flatnonzero(np.isin(pattern_of, failed))[0])
        raise DataValidationError(f"SNP column {names[j]!r} {maps[pattern_of[j]]}")
    code_of = np.array([[m.get(x, 0) for x in text] for m in maps], dtype=np.int8)
    code_of = code_of.reshape(len(maps), len(text))  # also when nothing was read
    codes = code_of[pattern_of, inverse]
    mask = missing[inverse]
    categories = tuple({code: call for call, code in maps[k].items()} for k in pattern_of)
    warnings = [f"SNP column {names[j]!r} is monomorphic"
                for j, k in enumerate(pattern_of.tolist()) if len(maps[k]) == 1]
    gm = GenotypeMatrix(codes, mask, names, categories)
    return gm, warnings


def _flat_calls(raw) -> tuple[list, int, int]:
    """The cells of a 2-D call table in row order, and its shape. A list of
    row lists of one length is flattened as it is; any other table goes
    through an object ndarray."""
    if isinstance(raw, list) and raw and all(type(row) is list for row in raw):
        s = len(raw[0])
        if all(len(row) == s for row in raw):
            return list(chain.from_iterable(raw)), len(raw), s
    calls = np.asarray(raw, dtype=object)
    if calls.ndim != 2:
        raise DataValidationError("raw genotype table must be 2-d")
    return calls.ravel().tolist(), *calls.shape


def _code_map(observed: list[str]):
    """The codes of one column's sorted distinct observed calls, or what is
    wrong with them: the larger homozygote (one repeated character) +1,
    the smaller -1, the heterozygote 0."""
    if not observed:
        return "has no observed calls"
    if len(observed) > 3:
        return f"has {len(observed)} categories: " + ", ".join(observed)
    homs = [c for c in observed if len(set(c)) == 1]
    hets = [c for c in observed if len(set(c)) > 1]
    if len(hets) > 1:
        return "has multiple heterozygous calls: " + ", ".join(hets)
    if len(homs) > 2:
        return f"has {len(homs)} homozygous calls"
    mapping: dict[str, int] = {}
    if homs:
        mapping[max(homs)] = 1
        if len(homs) == 2:
            mapping[min(homs)] = -1
    if hets:
        mapping[hets[0]] = 0
    return mapping


_DEFAULT_CALLS = {-1: "AA", 0: "AB", 1: "BB"}


def decode_genotypes(gm: GenotypeMatrix) -> np.ndarray:
    """Categorical call table from a coded matrix (inverse of encode), a
    missing cell written as ``MISSING_CALL``."""
    s = gm.s
    # per column, the calls of codes -1, 0 and +1, then the missing call
    table = np.empty((s, 4), dtype=object)
    for j in range(s):
        cats = gm.categories[j] if gm.categories else _DEFAULT_CALLS
        table[j, :3] = [cats.get(c, _DEFAULT_CALLS[c]) for c in (-1, 0, 1)]
    table[:, 3] = MISSING_CALL
    return table[np.arange(s), np.where(gm.missing_mask, 3, gm.codes + 1)]
