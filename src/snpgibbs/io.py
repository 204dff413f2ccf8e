"""File formats: pedigree/genotype/phenotype/kinship inputs, sample dumps,
summaries, traces, and the reproducibility manifest.

Every output file starts with the run manifest as '#'-prefixed key=value
lines; every reader skips '#' lines. Floats are written with repr, which
round-trips exactly, so a file can be reloaded bit-identically.
"""

from __future__ import annotations

import hashlib
from itertools import chain, zip_longest
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .gibbs import ACF_MAX_LAG, PosteriorSamples, autocorrelations, coefficient_names
from .model import (
    Dataset,
    KINSHIP_SYMMETRY_TOL,
    DataValidationError,
    FamilyDesign,
    GenotypeMatrix,
    ImputationPrior,
    PhenotypeVector,
    decode_genotypes,
    encode_genotypes,
    family_design,
    missingness_warnings,
)
from .pedigree import (
    PedigreeRecord,
    RelationshipMatrix,
    build_numerator_matrix,
    extract_submatrix,
    order_pedigree,
    repeated_id,
)
from .selector import BATCH_ENTRIES, SearchTrace
from .simulator import SimTruth

__all__ = [
    "fmt",
    "file_digest",
    "read_table",
    "write_table",
    "read_pedigree",
    "write_pedigree",
    "read_genotype_calls",
    "write_genotypes",
    "read_phenotypes",
    "write_phenotypes",
    "read_families",
    "write_families",
    "read_kinship_matrix",
    "write_kinship_matrix",
    "read_imputation_prior",
    "write_samples",
    "read_samples",
    "write_summary",
    "write_intervals",
    "write_autocorrelations",
    "write_trace",
    "write_bf_diagnostics",
    "write_best_model",
    "write_truth",
    "read_truth",
    "read_config_file",
    "write_manifest_file",
    "assemble_dataset",
]


def fmt(x) -> str:
    """Round-trip decimal formatting for numeric output."""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def file_digest(path) -> str:
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()


def read_table(path, short_rows: bool = False) -> tuple[list[str], list[list[str]]]:
    """Comma-separated file as (header, rows); '#' lines skipped, cells
    stripped of surrounding whitespace, a leading UTF-8 byte-order mark
    dropped. A row with more cells than the header is an error, and so is
    one with fewer unless ``short_rows``."""
    header: Optional[list[str]] = None
    rows: list[list[str]] = []
    with open(path, "r", encoding="utf-8-sig") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            cells = line.split(",")
            # every whitespace character but the space is unprintable
            if " " in line or not line.isprintable():
                cells = [c.strip() for c in cells]
            if header is None:
                header = cells
            elif len(cells) > len(header):
                raise DataValidationError(
                    f"{path}: row {line!r} has {len(cells)} cells, more than the "
                    f"header's {len(header)}"
                )
            elif len(cells) < len(header) and not short_rows:
                raise DataValidationError(
                    f"{path}: row {line!r} has {len(cells)} of the header's {len(header)} cells"
                )
            else:
                rows.append(cells)
    if header is None:
        raise DataValidationError(f"{path}: empty file")
    return header, rows


def _check_unique(path, ids) -> None:
    """Exit on the first id that ``ids`` lists twice, naming the file."""
    repeated = repeated_id(ids)
    if repeated is not None:
        raise DataValidationError(f"{path}: duplicate id {repeated!r}")


def _numbers(path, rows, first: int, last: Optional[int] = None) -> list[list[float]]:
    """The cells row[first:last] of every row as floats; a cell that is not
    a number names the file and its row."""
    out = []
    for row in rows:
        try:
            out.append([float(c) for c in row[first:last]])
        except ValueError as exc:
            raise DataValidationError(f"{path}: row {','.join(row)!r}: {exc}") from None
    return out


def write_table(path, header: Sequence[str], rows: Iterable[Sequence], manifest_lines=()):
    _write_csv(path, header, (",".join(fmt(c) for c in row) for row in rows), manifest_lines)


def _write_lines(path, lines: Iterable[str], manifest_lines=()):
    """The manifest lines, then ``lines``, each ended by a newline: the one
    place an output file is opened."""
    with open(path, "w", encoding="utf-8") as fh:
        for line in chain(manifest_lines, lines):
            fh.write(line + "\n")


def _write_csv(path, header: Sequence[str], rows: Iterable[str], manifest_lines=()):
    """The manifest lines, the header, then the rows already joined."""
    _write_lines(path, chain([",".join(map(str, header))], rows), manifest_lines)


# -- pedigree ----------------------------------------------------------------


def read_pedigree(path) -> list[PedigreeRecord]:
    header, rows = read_table(path, short_rows=True)  # a missing parent may be left off
    if [h.lower() for h in header[:3]] != ["id", "sire", "dam"]:
        raise DataValidationError(f"{path}: expected header id,sire,dam")
    records = []
    for row in rows:
        rid, sire, dam = (row + ["", ""])[:3]
        records.append(PedigreeRecord(rid, sire or None, dam or None))
    return records


def write_pedigree(path, records: Iterable[PedigreeRecord], manifest_lines=()):
    rows = [(r.individual_id, r.sire_id or "", r.dam_id or "") for r in records]
    write_table(path, ["id", "sire", "dam"], rows, manifest_lines)


# -- genotypes / phenotypes / families ---------------------------------------


def read_genotype_calls(path):
    """Genotype file as (ids, snp_names, calls), the calls one list per row
    (the 2-D table ``encode_genotypes`` takes)."""
    header, rows = read_table(path)
    if not header or header[0].lower() != "id":
        raise DataValidationError(f"{path}: first genotype column must be 'id'")
    snp_names = header[1:]
    ids = [r[0] for r in rows]
    _check_unique(path, ids)
    return ids, snp_names, [r[1:] for r in rows]


def write_genotypes(path, ids, gm: GenotypeMatrix, manifest_lines=()):
    """The bytes ``write_table`` would write, each row's calls joined as
    they are: every call is text."""
    calls = decode_genotypes(gm).tolist()
    lines = (fmt(rid) + "," + ",".join(row) for rid, row in zip(ids, calls))
    _write_csv(path, ["id", *gm.names()], lines, manifest_lines)


def read_phenotypes(path) -> dict[str, float]:
    header, rows = read_table(path)
    if [h.lower() for h in header[:2]] != ["id", "value"]:
        raise DataValidationError(f"{path}: expected header id,value")
    values = _numbers(path, rows, 1, 2)
    _check_unique(path, [row[0] for row in rows])
    return {row[0]: value for row, (value,) in zip(rows, values)}


def write_phenotypes(path, ids, values, manifest_lines=()):
    write_table(path, ["id", "value"], zip(ids, values), manifest_lines)


def read_families(path) -> dict[str, str]:
    header, rows = read_table(path)
    if [h.lower() for h in header[:2]] != ["id", "family"]:
        raise DataValidationError(f"{path}: expected header id,family")
    _check_unique(path, [row[0] for row in rows])
    return {row[0]: row[1] for row in rows}


def write_families(path, ids, families, manifest_lines=()):
    write_table(path, ["id", "family"], zip(ids, families), manifest_lines)


# -- kinship -----------------------------------------------------------------


def read_kinship_matrix(path) -> RelationshipMatrix:
    header, rows = read_table(path)
    ids = header[1:]
    if len(rows) > len(ids):
        raise DataValidationError(
            f"{path}: row {','.join(rows[len(ids)])!r} is beyond the header's {len(ids)} ids"
        )
    if any(row[0] != ids[k] for k, row in enumerate(rows)):
        raise DataValidationError(f"{path}: kinship row ids must match header order")
    entries = np.array(_numbers(path, rows, 1))
    try:
        R = RelationshipMatrix(ids, entries)  # checks the shape and the ids
    except ValueError as exc:
        raise DataValidationError(f"{path}: {exc}") from None
    # symmetrise what a decimal round trip leaves; Dataset rejects anything more
    if np.max(np.abs(entries - entries.T)) <= KINSHIP_SYMMETRY_TOL:
        R.entries = 0.5 * (entries + entries.T)
    return R


def write_kinship_matrix(path, R: RelationshipMatrix, manifest_lines=()):
    rows = [[R.ids[i]] + list(R.entries[i]) for i in range(R.dim)]
    write_table(path, ["id"] + list(R.ids), rows, manifest_lines)


# -- imputation prior ---------------------------------------------------------


def read_imputation_prior(path, ids, snp_names) -> ImputationPrior:
    """Weighted imputation prior from rows id,snp,w_minus1,w_0,w_plus1.

    Cells not listed default to the uniform triple.
    """
    header, rows = read_table(path)
    expected = ["id", "snp", "w_minus1", "w_0", "w_plus1"]
    if [h.lower() for h in header[:5]] != expected:
        raise DataValidationError(f"{path}: expected header {','.join(expected)}")
    id_index = {x: i for i, x in enumerate(ids)}
    snp_index = {x: j for j, x in enumerate(snp_names)}
    weights = np.full((len(ids), len(snp_names), 3), 1.0 / 3.0)
    for row, triple in zip(rows, _numbers(path, rows, 2, 5)):
        rid, snp = row[0], row[1]
        if rid not in id_index:
            raise DataValidationError(f"{path}: unknown individual id {rid!r}")
        if snp not in snp_index:
            raise DataValidationError(f"{path}: unknown SNP name {snp!r}")
        weights[id_index[rid], snp_index[snp]] = triple
    return ImputationPrior(mode="weighted", weights=weights)


# -- posterior samples ---------------------------------------------------------


def _samples_header(data: Dataset) -> list[str]:
    """The header of a samples file of ``data``: the coefficient names, then
    zimp_<id>_<snp> of every masked cell, in ``masked_cells`` order."""
    snp_names = data.genotypes.names()
    rows, cols = (index.tolist() for index in data.genotypes.masked_cells)
    labels = (f"zimp_{data.ids[i] if data.ids else i}_{snp_names[j]}" for i, j in zip(rows, cols))
    return [*coefficient_names(data), *labels]


# each masked genotype code's cell with its leading comma, by code + 1
_CODE_CELLS = np.array([b",-1", b",0", b",1"])


def write_samples(path, samples: PosteriorSamples, manifest_lines=()):
    """One row per retained state: coefficients, variances, then the
    imputed genotype codes of every masked cell."""
    codes = samples.masked_values
    if codes.size and (codes.min() < -1 or codes.max() > 1):
        raise ValueError("masked genotype codes must be -1, 0 or 1")
    # the cells fmt would write: repr of each float, str of each code; a
    # row's codes come from the byte table, which pads its shorter cells
    # with NUL bytes
    lines = (
        ",".join(map(repr, values))
        + _CODE_CELLS[row + 1].tobytes().replace(b"\0", b"").decode("ascii")
        for values, row in zip(samples.draws.tolist(), codes, strict=True)
    )
    _write_csv(path, _samples_header(samples.data), lines, manifest_lines)


def read_samples(path, data: Dataset) -> PosteriorSamples:
    """Rebuild PosteriorSamples from a dump written for ``data``.

    The first line that is neither blank nor a '#' comment is the header,
    which must name the columns ``write_samples`` writes for ``data``: its
    coefficients, then its masked cells. The rows below it are parsed in
    one ``np.loadtxt``. Every beta and gamma must be finite, every sigma^2
    and phi^2 finite and positive, every imputed code -1, 0 or 1.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        lines = [line for line in fh if line.strip() and not line.startswith("#")]
    if not lines:
        raise DataValidationError(f"{path}: empty file")
    header = [cell.strip() for cell in lines[0].split(",")]
    expected = _samples_header(data)
    if header != expected:
        k = next(k for k, (a, b) in enumerate(zip_longest(header, expected)) if a != b)
        got, want = (repr(names[k]) if k < len(names) else "no column"
                     for names in (header, expected))
        raise DataValidationError(
            f"{path}: the header's columns do not match this dataset's: column {k + 1} "
            f"is {got}, expected {want}"
        )
    if len(lines) == 1:
        raise DataValidationError(f"{path}: header but no sample rows")
    values = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    if values.shape[1] != len(header):
        raise DataValidationError(
            f"{path}: sample rows have {values.shape[1]} columns, the header {len(header)}"
        )
    width = len(header) - data.genotypes.masked_cells[0].size
    draws, codes = values[:, :width], values[:, width:]
    finite = np.isfinite(draws)
    for bad, what in (
        (~finite[:, :-2], "beta and gamma must be finite"),
        (~(finite[:, -2:] & (draws[:, -2:] > 0)), "sigma2 and phi2 must be finite and positive"),
        (~np.isin(codes, (-1.0, 0.0, 1.0)), "imputed genotype codes must be -1, 0 or 1"),
    ):
        if bad.any():
            row = int(np.flatnonzero(bad.any(axis=1))[0])
            raise DataValidationError(f"{path}: sample row {row + 1}: {what}")
    return PosteriorSamples(data, draws, codes.astype(np.int8))


def write_summary(path, summary, manifest_lines=()):
    """Per-coefficient mean and HPD interval, from the (name, mean,
    interval) rows of ``PosteriorSamples.summary``."""
    write_table(
        path,
        ["name", "mean", "hpd_lower", "hpd_upper", "significant"],
        [(name, mean, iv.lower, iv.upper, not iv.contains_zero) for name, mean, iv in summary],
        manifest_lines,
    )


def write_intervals(path, summary, manifest_lines=()):
    """Interval rows (lower / mean / upper), from the SNP coefficients'
    rows of ``PosteriorSamples.summary``."""
    write_table(
        path,
        ["name", "lower", "mean", "upper", "significant"],
        [(name, iv.lower, mean, iv.upper, not iv.contains_zero) for name, mean, iv in summary],
        manifest_lines,
    )


def write_autocorrelations(path, samples: PosteriorSamples, manifest_lines=()):
    """Lags 1..ACF_MAX_LAG of every coefficient's autocorrelation, one row
    each; the cells are the repr of each float, as ``fmt`` writes them."""
    names, draws = samples.coefficient_table()
    acf = autocorrelations(draws)
    header = ["name"] + [f"lag{k}" for k in range(1, ACF_MAX_LAG + 1)]
    lines = (",".join([name, *map(repr, row)]) for name, row in zip(names, acf.tolist()))
    _write_csv(path, header, lines, manifest_lines)


def _cells(values: np.ndarray) -> list[str]:
    """The text ``fmt`` writes for each entry: repr of a float, str of an
    integer, 1 or 0 of a bool."""
    if values.dtype.kind == "f":
        return list(map(repr, values.tolist()))
    return list(map(str, values.astype(np.int64).tolist()))


def _model_lines(trace: SearchTrace, rows: np.ndarray, columns) -> Iterable[str]:
    """One line per row of ``rows``: the cells of ``columns``, each a
    per-row array of ``trace`` or None for the model's bitstring. Built a
    chunk of rows at a time, so a long trace's text never exists at once."""
    step = max(1, BATCH_ENTRIES // max(trace.s, 1))
    for start in range(0, len(rows), step):
        chunk = rows[start:start + step]
        cells = [trace.bitstrings(chunk) if c is None else _cells(c[chunk]) for c in columns]
        yield from map(",".join, zip(*cells))


def write_trace(path, trace: SearchTrace, manifest_lines=()):
    """One row per visit: its index, the model's bitstring, its log Bayes
    factor and whether the search accepted it."""
    rows = np.arange(len(trace))
    lines = _model_lines(trace, rows, (rows, None, trace.log_value, trace.accepted))
    _write_csv(path, ["iteration", "delta", "log_bf", "accepted"], lines, manifest_lines)


def write_bf_diagnostics(path, trace: SearchTrace, manifest_lines=()):
    """One row per scored model: valid and invalid terms, the variance of
    the log terms and the importance-weight ESS (sum w)^2 / sum w^2."""
    columns = (None, trace.sample_count, trace.invalid_count,
               trace.log_term_variance, trace.weight_ess)
    lines = _model_lines(trace, np.flatnonzero(trace.first), columns)
    header = ["delta", "valid", "invalid", "log_term_variance", "weight_ess"]
    _write_csv(path, header, lines, manifest_lines)


def write_best_model(path, trace: SearchTrace, gamma_labels, manifest_lines=()):
    row = trace.best_row
    included = [gamma_labels[j] for j in trace.columns(row)]
    lines = [
        f"delta={trace.bitstrings([row])[0]}",
        f"log_bf={fmt(trace.log_value[row])}",
        "included=" + ";".join(included),
        f"skipped={trace.skipped}",
    ]
    _write_lines(path, lines, manifest_lines)


# -- simulation truth ----------------------------------------------------------


def write_truth(path, truth: SimTruth, manifest_lines=()):
    """Key=value truth record; genotype truth rides along as code rows."""
    lines = [
        f"design_name={truth.design_name}",
        f"seed={truth.seed}",
        "beta_labels=" + ";".join(truth.beta_labels),
        "beta_true=" + ";".join(fmt(b) for b in truth.beta_true),
        "gamma_labels=" + ";".join(truth.gamma_labels),
        "gamma_true=" + ";".join(fmt(g) for g in truth.gamma_true),
        f"sigma2_true={fmt(truth.sigma2_true)}",
        "snp_names=" + ";".join(truth.snp_names),
        "ids=" + ";".join(truth.ids),
    ]
    codes = ("codes=" + ";".join(map(str, row)) for row in truth.true_codes.tolist())
    _write_lines(path, chain(lines, codes), manifest_lines)


def read_truth(path) -> SimTruth:
    fields: dict[str, str] = {}
    code_rows = []
    with open(path, "r", encoding="utf-8-sig") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            if key == "codes":
                code_rows.append([int(c) for c in value.split(";")])
            else:
                fields[key] = value
    return SimTruth(
        design_name=fields["design_name"],
        seed=int(fields["seed"]),
        beta_true=tuple(float(x) for x in fields["beta_true"].split(";")),
        gamma_true=tuple(float(x) for x in fields["gamma_true"].split(";")),
        sigma2_true=float(fields["sigma2_true"]),
        true_codes=np.array(code_rows, dtype=np.int8),
        beta_labels=tuple(fields["beta_labels"].split(";")),
        gamma_labels=tuple(fields["gamma_labels"].split(";")),
        snp_names=tuple(fields["snp_names"].split(";")),
        ids=tuple(fields["ids"].split(";")),
    )


# -- config / manifest ----------------------------------------------------------


def read_config_file(path) -> dict[str, str]:
    """Plain key=value settings; '#' lines allowed (a manifest is loadable)."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8-sig") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise DataValidationError(f"{path}: malformed config line {line!r}")
            out[key.strip()] = value.strip()
    return out


def write_manifest_file(path, manifest: dict):
    _write_lines(path, (f"{key}={value}" for key, value in manifest.items()))


# -- dataset assembly -----------------------------------------------------------


def assemble_dataset(
    genotypes_path,
    phenotypes_path,
    kinship_mode: str = "identity",
    pedigree_path=None,
    kinship_path=None,
    families_path=None,
    snp_coding: str = "signed",
) -> tuple[Dataset, list]:
    """Load and align the input files into a Dataset.

    Row order follows the genotype file. The covariate design comes from
    the families file when given, else from pedigree parent pairs, else a
    plain intercept. Kinship: 'pedigree' builds the numerator matrix and
    extracts the genotyped ids, 'file' loads a matrix, 'identity' uses I.
    Returns the dataset and the warnings about its genotypes: monomorphic
    columns and high overall missingness.
    """
    ids, snp_names, calls = read_genotype_calls(genotypes_path)
    genotypes, warnings = encode_genotypes(calls, snp_names)
    phen = read_phenotypes(phenotypes_path)
    missing_ids = [i for i in ids if i not in phen]
    if missing_ids:
        raise DataValidationError(
            "phenotype file lacks ids: " + ", ".join(missing_ids[:5])
        )
    y = PhenotypeVector(np.array([phen[i] for i in ids]))

    pedigree_records = read_pedigree(pedigree_path) if pedigree_path else None

    if families_path:
        fam = read_families(families_path)
        absent = [i for i in ids if i not in fam]
        if absent:
            raise DataValidationError(
                "families file lacks ids: " + ", ".join(absent[:5])
            )
        design = family_design([fam[i] for i in ids])
    elif pedigree_records is not None:
        parents = {
            r.individual_id: (r.sire_id or "", r.dam_id or "") for r in pedigree_records
        }
        labels = []
        for i in ids:
            if i not in parents:
                raise DataValidationError(f"pedigree lacks genotyped id {i!r}")
            sire, dam = parents[i]
            labels.append(f"{sire}x{dam}" if (sire or dam) else "base")
        design = family_design(labels)
    else:
        design = FamilyDesign(np.ones((len(ids), 1)), ("intercept",))

    if kinship_mode == "pedigree":
        if pedigree_records is None:
            raise DataValidationError("kinship mode 'pedigree' requires --pedigree")
        R = extract_submatrix(
            build_numerator_matrix(order_pedigree(pedigree_records)), ids
        )
    elif kinship_mode == "file":
        if not kinship_path:
            raise DataValidationError("kinship mode 'file' requires --kinship-file")
        full = read_kinship_matrix(kinship_path)
        R = extract_submatrix(full, ids) if list(full.ids) != list(ids) else full
    elif kinship_mode == "identity":
        R = RelationshipMatrix.identity(ids)
    else:
        raise DataValidationError(f"unknown kinship mode {kinship_mode!r}")

    data = Dataset(
        genotypes=genotypes,
        phenotypes=y,
        design=design,
        kinship=R,
        snp_coding=snp_coding,
        ids=tuple(ids),
    )
    return data, warnings + missingness_warnings(genotypes)
