"""Benchmark of the snpgibbs pipeline: run -> select -> em, end to end.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload six-family --seed 1 --seconds 30 --trace 0

One process on one CPU, BLAS pinned to one thread. The set-up (a fresh
import of the package plus generating the workload's input files from the
seed) is timed several times. Then the pipeline runs through ``snpgibbs.cli.main``,
repetition after repetition, until the time budget is spent. Every output
is checked, a report is printed, and the last line of standard output is
one JSON object with the end-to-end metrics (``--trace 0``) or the
per-layer metrics (``--trace 1``). With ``--trace 1`` untraced and traced
repetitions alternate: the traced ones wrap the package's layer boundaries
(``layers.py``) and give the per-layer numbers, the untraced ones the
tracing overhead.

End-to-end metrics (the gated ones are listed in BENCHMARK.json):

- ``setup_s``: fresh import plus input generation, median of seven.
- ``run_sweeps_per_s``: chains x iterations / wall time of ``run``, which
  includes loading the data, the kinship, the chains and the outputs.
- ``select_models_per_s``: distinct models scored / wall time of
  ``select``, which includes loading the samples and writing the trace.
  A rate rather than ``select_s``, because an MH walk scores a number of
  distinct models that depends on the data.
- ``pipeline_s``: wall time of run + select + em, what a user waits for.
- ``peak_rss_mb``: peak resident memory of the benchmark process.
- reported only: ``run_s``, ``select_s``, ``em_s`` (not every workload
  runs EM) and ``ops_failed_frac``, failed / attempted subcommands, whose
  two counts the JSON line carries as ``failed`` and ``attempted``.

Each timed value in the JSON line is the median over the run's
repetitions; the report also gives the highest percentile with at least
ten repetitions beyond it, when there are twenty or more, and the count.

The timed metrics in the JSON line are calibrated: scaled to a reference
host speed by the host's slowdown, which a fixed calibration loop
(``calibration.py``) measures in slices timed before and between the
set-ups and after every repetition. The shared host drifts in speed by a
quarter within minutes; the report prints the raw values beside the
calibrated ones, and the slowdown.

Workloads are defined in ``workloads.py``. Scratch files, the spans of a
traced run and ``result.json`` go to ``.bench_work/`` in the checkout.
"""

import os

# before numpy is imported anywhere
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# the set-up runs this many times per run; setup_s is the median
SETUP_REPEATS = 7
# calibration slices (about 40 ms each) timed before the set-ups, after
# each set-up and after each repetition
CALIBRATION_START, CALIBRATION_PER_SETUP, CALIBRATION_PER_REP = 4, 2, 6
TAIL_PERCENTILES = (99, 95, 90, 75, 50)

# timed series reported per workload: name -> (unit, gated end-to-end
# metric, power of the host slowdown that calibrates it)
SERIES = {
    "run_sweeps_per_s": ("sweeps/s", True, 1),
    "select_models_per_s": ("models/s", True, 1),
    "pipeline_s": ("s", True, -1),
    "run_s": ("s", False, -1),
    "select_s": ("s", False, -1),
    "em_s": ("s", False, -1),
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def summarise(values: list[float]) -> dict:
    """Median, the highest listed percentile with at least ten samples
    beyond it (None with fewer than twenty samples), and the count."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "count": n, "tail": None}
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            out["tail"] = [p, ordered[min(n - 1, math.ceil(p / 100 * n) - 1)]]
            break
    return out


def environment() -> dict:
    import numpy as np

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = "unknown"
    with contextlib.suppress(Exception):
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info['version']}"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "cpu_affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else "unknown",
        "commit": git_commit(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree (read, not run)."""
    git = ROOT / ".git"
    with contextlib.suppress(OSError):
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def import_seconds() -> float:
    """Wall time of importing the package in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import snpgibbs.cli; "
            "print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60, check=True)
    return float(done.stdout)


class Pipeline:
    """Runs the workload's subcommands, times them and checks their outputs."""

    def __init__(self, workload, seed, inputs, truth, work, log):
        self.workload, self.seed, self.inputs, self.truth = workload, seed, inputs, truth
        self.rep_dir = work / "rep"
        self.log = log
        self.attempted = 0
        self.failed = 0
        self.problems: dict[str, None] = {}  # ordered set
        self.samples_digests = None
        self.samples_bytes = 0

    def repetition(self, tracer=None) -> dict | None:
        """One pass of the pipeline. Returns the wall seconds of each
        subcommand and the distinct models ``select`` scored, or None when
        a subcommand exited non-zero. Failed output checks are counted
        and recorded, and the repetition is still timed."""
        import workloads
        from snpgibbs.cli import main

        if self.rep_dir.exists():
            shutil.rmtree(self.rep_dir)
        steps = workloads.commands(self.workload, self.seed, self.inputs, self.truth,
                                   self.rep_dir)
        times = {}
        for k, (label, argv) in enumerate(steps):
            self.attempted += 1
            span = tracer.span(f"cli.{label}") if tracer else contextlib.nullcontext()
            t0 = time.perf_counter()
            with span, contextlib.redirect_stdout(self.log), contextlib.redirect_stderr(self.log):
                try:
                    rc = main(argv)
                except Exception:  # a crash is a failed subcommand, not a failed benchmark
                    traceback.print_exc(file=self.log)
                    rc = "an uncaught exception, traceback in program.log"
            times[f"{label}_s"] = time.perf_counter() - t0
            try:
                problems = [f"exited with {rc}"] if rc != 0 else self.check(label, times)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems = [f"unreadable output: {exc!r}"]
            if problems:
                self.failed += 1
                self.problems.update(dict.fromkeys(f"{label}: {p}" for p in problems))
                if rc != 0:  # the later subcommands need this one's outputs
                    self.attempted += len(steps) - k - 1
                    self.failed += len(steps) - k - 1
                    return None
        times.setdefault("models", 0)  # a failed select check counts none
        return times

    def check(self, label, times) -> list[str]:
        import checks
        import workloads

        w = self.workload
        if label == "run":
            samples = workloads.samples_files(w, self.rep_dir / "run")
            problems = checks.check_run(samples, self.rep_dir / "run" / "summary.csv",
                                        self.truth, w.retained, w.beta_tol, w.gamma_tol)
            digests = [checks.digest(p) for p in samples]
            if self.samples_digests is None:
                self.samples_digests = digests
                self.samples_bytes = sum(p.stat().st_size for p in samples)
            elif digests != self.samples_digests:
                problems.append("samples differ from the first repetition at the same seed")
            return problems
        if label == "select":
            problems, models = checks.check_select(self.rep_dir / "select",
                                                   self.truth["candidates"])
            times["models"] = models
            return problems
        return checks.check_em(self.rep_dir / "em", w.exact_em)


def pin_to_one_cpu() -> None:
    """Keep the process, and the import subprocesses it starts, on one CPU.

    six-family runs its two chains on two threads that hand the GIL back
    and forth. Spread over two vCPUs of the shared host, each hand-off
    waits for the host to wake the other vCPU; that wait moved the run's
    sweeps per second by 40% from one minute to the next, while on one CPU
    the same hand-offs stay inside it.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_to_one_cpu()
    if not (SRC / "snpgibbs" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import snpgibbs
    import workloads

    if Path(snpgibbs.__file__).resolve().parent != SRC / "snpgibbs":
        print(f"error: imported snpgibbs from {snpgibbs.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    with open(work / "program.log", "w") as log:
        logging.basicConfig(stream=log, level=logging.WARNING,
                            format="%(levelname)s %(name)s: %(message)s")
        return bench(args, workloads.WORKLOADS[args.workload], work, log)


def bench(args, workload, work, log) -> int:
    import checks
    import workloads

    from calibration import Calibration

    env = environment()
    calibration = Calibration()
    calibration.sample(CALIBRATION_START)
    import_times, gen_times, digests = [], [], set()
    for k in range(SETUP_REPEATS):
        import_times.append(import_seconds())
        out = work / f"inputs{k}"
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(log):
            truth = workloads.generate(workload, args.seed, out)
        gen_times.append(time.perf_counter() - t0)
        digests.add(tuple(checks.digest(p) for p in sorted(out.glob("*.csv"))))
        calibration.sample(CALIBRATION_PER_SETUP)
    setup_s = statistics.median(i + g for i, g in zip(import_times, gen_times))

    pipe = Pipeline(workload, args.seed, work / "inputs0", truth, work, log)
    if len(digests) != 1:
        pipe.problems["set-up: inputs differ between generations of one seed"] = None
    tracer = None
    if args.trace:
        import layers
        from spans import Tracer

        tracer = Tracer()
    untraced, traced, layer_rows, spans = [], [], [], []
    start = time.perf_counter()
    rep_seconds: list[float] = []
    # start another repetition only if a typical one still fits the budget
    while not rep_seconds or (time.perf_counter() - start
                              + statistics.median(rep_seconds) <= args.seconds):
        t0 = time.perf_counter()
        if tracer is not None and len(untraced) > len(traced):
            tracer.clear()
            layers.install(tracer)
            try:
                times = pipe.repetition(tracer)
            finally:
                tracer.uninstall()
            if times is not None:
                traced.append(times)
                layer_rows.append(layers.layer_metrics(tracer, workload.chains * workload.iters,
                                                       workload.chains))
                spans += [(len(traced), s) for s in tracer.spans]
        else:
            times = pipe.repetition()
            if times is not None:
                untraced.append(times)
        calibration.sample(CALIBRATION_PER_REP)
        rep_seconds.append(time.perf_counter() - t0)
    if not untraced:
        for p in pipe.problems:
            print(f"problem: {p}", file=sys.stderr)
        print("error: no repetition of the pipeline ran to the end", file=sys.stderr)
        return 1

    series = timed_series(workload, untraced)
    slowdown = calibration.slowdown()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"host slowdown: {slowdown:.4f} (trimmed mean of {len(calibration.slices)} "
          "calibration slices over the reference slice)")
    print(f"setup_s: {setup_s / slowdown:.4f} s calibrated, {setup_s:.4f} s raw, median of "
          f"{SETUP_REPEATS} (import median {statistics.median(import_times):.4f} s, "
          f"generation median {statistics.median(gen_times):.4f} s, raw)")
    summaries = {name: summarise(values) for name, values in series.items()}
    for name, s in summaries.items():
        tail = (f"p{s['tail'][0]} {s['tail'][1]:.4f}" if s["tail"]
                else "no tail percentile (fewer than 20 samples)")
        unit, _, power = SERIES[name]
        print(f"{name}: median {s['median'] * slowdown ** power:.4f} {unit} calibrated, "
              f"{s['median']:.4f} raw, {tail} raw, n={s['count']}")
    print(f"peak_rss_mb: {peak_rss_mb:.1f} MiB")
    print(f"ops_failed_frac: {pipe.failed / pipe.attempted:.4f} "
          f"({pipe.failed} of {pipe.attempted} subcommands)")
    for p in pipe.problems:
        print(f"problem: {p}")

    if args.trace:
        metrics = trace_metrics(workload, pipe, layer_rows, untraced, traced)
        print("spans of the last traced repetition: name, calls, wall ms, self CPU ms")
        for name, calls, wall, self_cpu in layers.self_time_table(tracer):
            print(f"  {name:28s} {calls:7d} {wall:10.1f} {self_cpu:10.1f}")
        write_spans(work / "spans.jsonl", spans)
    else:
        metrics = {"setup_s": (setup_s / slowdown, "s")}
        metrics.update((name, (s["median"] * slowdown ** SERIES[name][2], SERIES[name][0]))
                       for name, s in summaries.items() if SERIES[name][1])
        metrics["peak_rss_mb"] = (peak_rss_mb, "MiB")
    result = {
        "correct": not pipe.problems,
        "attempted": pipe.attempted,
        "failed": pipe.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (work / "result.json").write_text(json.dumps(
        {"env": env, "summaries": summaries, "series": series, "setup_s_raw": setup_s,
         "setup_import_s": import_times, "setup_generate_s": gen_times,
         "slowdown": slowdown, "calibration_slices_s": calibration.slices, **result}, indent=1))
    print(json.dumps(result))
    return 0


def timed_series(workload, reps: list[dict]) -> dict[str, list[float]]:
    sweeps = workload.chains * workload.iters
    out = {
        "run_sweeps_per_s": [sweeps / t["run_s"] for t in reps],
        "select_models_per_s": [t["models"] / t["select_s"] for t in reps],
        "pipeline_s": [sum(v for k, v in t.items() if k.endswith("_s")) for t in reps],
        "run_s": [t["run_s"] for t in reps],
        "select_s": [t["select_s"] for t in reps],
    }
    if workload.em_flags is not None:
        out["em_s"] = [t["em_s"] for t in reps]
    return out


def trace_metrics(workload, pipe, layer_rows, untraced, traced) -> dict:
    from layers import LAYER_METRICS, chain_ess

    out = {name: statistics.median(row[name] for row in layer_rows)
           for name in layer_rows[0]} if layer_rows else {}
    untraced_rate = statistics.median(timed_series(workload, untraced)["run_sweeps_per_s"])
    traced_rate = (statistics.median(timed_series(workload, traced)["run_sweeps_per_s"])
                   if traced else untraced_rate)
    ess = chain_ess(workload, pipe.rep_dir / "run")
    chain_seconds = workload.iters / untraced_rate * workload.chains
    out["gibbs.ess_median"] = statistics.median(ess)
    out["gibbs.ess_min"] = min(ess)
    out["gibbs.ess_per_s"] = out["gibbs.ess_median"] / chain_seconds
    out["io.samples_bytes"] = float(pipe.samples_bytes)
    out["trace.overhead_frac"] = untraced_rate / traced_rate - 1.0
    print(f"tracing overhead: run_sweeps_per_s untraced {untraced_rate:.1f}, traced "
          f"{traced_rate:.1f} ({len(untraced)} untraced, {len(traced)} traced repetitions)")
    for name, unit in LAYER_METRICS.items():
        print(f"  {name}: {out.get(name, 0.0):.6g} {unit}")
    return {name: (out.get(name, 0.0), unit) for name, unit in LAYER_METRICS.items()}


def write_spans(path: Path, spans) -> None:
    with open(path, "w") as fh:
        for rep, s in spans:
            fh.write(json.dumps({"rep": rep, "id": s.id, "name": s.name, "parent": s.parent,
                                 "thread": s.thread, "start": s.t0, "end": s.t1,
                                 "cpu": s.cpu, "attrs": s.attrs}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
