"""Output checks. Each returns a list of problems; an empty list passes.

The files are parsed here, independently of the package's own readers,
so that a reader bug cannot hide a writer bug.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

# EM's observed log likelihood may fall by rounding error only.
LOGLIK_SLACK = 1e-8


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError(f"{path.name}: empty")
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _all_finite(path: Path, skip_cols: int = 0) -> list[str]:
    header, rows = read_csv(path)
    if not rows:
        return [f"{path.name}: no rows"]
    for row in rows:
        if len(row) != len(header):
            return [f"{path.name}: ragged row"]
        for cell in row[skip_cols:]:
            if not math.isfinite(float(cell)):
                return [f"{path.name}: non-finite value {cell!r}"]
    return []


def check_run(samples: list[Path], summary: Path, truth: dict, retained: int,
              beta_tol: float, gamma_tol: float) -> list[str]:
    """Finite samples of the expected length; posterior means within the
    workload's tolerances of the simulation truth."""
    problems = []
    for path in samples:
        problems += _all_finite(path)
        _, rows = read_csv(path)
        if len(rows) != retained:
            problems.append(f"{path.name}: {len(rows)} rows, expected {retained}")
    problems += _all_finite(summary, skip_cols=1)  # name
    header, rows = read_csv(summary)
    means = {row[0]: float(row[header.index("mean")]) for row in rows}
    for group, tol in (("beta", beta_tol), ("gamma", gamma_tol)):
        for name, true in truth[group].items():
            if name not in means:
                problems.append(f"summary lacks {name}")
            elif not abs(means[name] - true) <= tol:
                problems.append(f"{name}: posterior mean {means[name]:.3f}, truth {true:.3f}")
    return problems


def check_select(select_dir: Path, candidates: list[str]) -> tuple[list[str], int]:
    """Finite trace and best log BF, best model within the candidates.
    Also returns the number of distinct models the search scored."""
    problems = _all_finite(select_dir / "trace.csv", skip_cols=2)  # iteration, delta
    _, rows = read_csv(select_dir / "trace.csv")
    models = len({row[1] for row in rows})
    fields = {}
    for line in (select_dir / "best_model.txt").read_text().splitlines():
        if line and not line.startswith("#"):
            key, _, value = line.partition("=")
            fields[key] = value
    if not math.isfinite(float(fields.get("log_bf", "nan"))):
        problems.append(f"best log BF {fields.get('log_bf')!r} is not finite")
    included = [x for x in fields.get("included", "").split(";") if x]
    outside = sorted(set(included) - set(candidates))
    if outside:
        problems.append(f"best model includes non-candidates {outside}")
    return problems, models


def check_em(em_dir: Path, exact: bool) -> list[str]:
    problems = _all_finite(em_dir / "em_estimates.csv", skip_cols=1)
    if exact:
        _, rows = read_csv(em_dir / "em_log.csv")
        loglik = [float(row[1]) for row in rows]
        if not all(math.isfinite(v) for v in loglik):
            problems.append("exact-regime EM log likelihood is not finite")
        for k in range(1, len(loglik)):
            if loglik[k] < loglik[k - 1] - LOGLIK_SLACK * abs(loglik[k - 1]):
                problems.append(f"EM log likelihood fell at iteration {k + 1}")
                break
    return problems
