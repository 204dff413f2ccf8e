"""Per-layer instrumentation of the package and the metrics derived from it.

The layers are the package's modules: gibbs, linalg, selector, em,
pedigree and io. ``install`` wraps each public function at the attribute
its caller looks up; ``layer_metrics`` turns the spans of one traced
pipeline repetition into the per-layer numbers. Busy times are the calling
thread's CPU time, and a block's time is its self time: the part not spent
in another wrapped call, so the blocks of one layer add up without double
counting.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np
import snpgibbs.cli as cli
import snpgibbs.em as em
import snpgibbs.gibbs as gibbs
import snpgibbs.io as sio
import snpgibbs.linalg as linalg
import snpgibbs.selector as selector

import checks
import workloads
from ess import bulk_ess
from spans import Tracer

# Every per-layer metric, in report order. A layer that does not run on a
# workload (EM on wide-pedigree, the MH walk under an exhaustive search)
# reports 0 for its metrics.
LAYER_METRICS = {
    "gibbs.impute_us_per_sweep": "us",
    "gibbs.impute_cells_per_sweep": "count",
    "gibbs.impute_changed_frac": "ratio",
    "gibbs.gamma_us_per_sweep": "us",
    "gibbs.beta_us_per_sweep": "us",
    "gibbs.sigma2_us_per_sweep": "us",
    "gibbs.phi2_us_per_sweep": "us",
    "gibbs.loop_self_us_per_sweep": "us",
    "gibbs.chain_setup_ms": "ms",
    "gibbs.ess_median": "count",
    "gibbs.ess_min": "count",
    "gibbs.ess_per_s": "1/s",
    "linalg.column_update_us_per_sweep": "us",
    "linalg.phi_shift_us_per_sweep": "us",
    "linalg.updates_per_sweep": "count",
    "linalg.refreshes": "count",
    "linalg.singular_fallbacks": "count",
    "linalg.dual_form_us_per_sweep": "us",
    "selector.models_scored": "count",
    "selector.bf_ms_per_model": "ms",
    "selector.bf_us_per_state": "us",
    "selector.invalid_terms": "count",
    "selector.skipped": "count",
    "selector.mh_accept_frac": "ratio",
    "selector.mh_cache_hit_frac": "ratio",
    "selector.states_load_ms": "ms",
    "em.iterations": "count",
    "em.estep_ms_per_iter": "ms",
    "em.mstep_ms_per_iter": "ms",
    "em.loglik_ms_per_iter": "ms",
    "em.mc_individuals": "count",
    "pedigree.order_ms": "ms",
    "pedigree.build_ms": "ms",
    "pedigree.extract_ms": "ms",
    "io.read_ms": "ms",
    "io.write_ms": "ms",
    "io.samples_bytes": "bytes",
    "trace.overhead_frac": "ratio",
}

_IO_READERS = ("read_genotype_calls", "read_phenotypes", "read_families",
               "read_pedigree", "read_kinship_matrix", "read_samples")
_IO_WRITERS = ("write_samples", "write_summary", "write_intervals",
               "write_autocorrelations", "write_trace", "write_best_model",
               "write_table", "write_manifest_file")


def install(tracer: Tracer) -> None:
    """Wrap the package's layer boundaries; ``tracer.uninstall()`` undoes it."""
    w = tracer.wrap
    w(cli, "run_chain", "gibbs.run_chain",
      lambda a, k, r: {"sweeps": a[2].total_iterations})
    w(gibbs, "impute_snp_column", "gibbs.impute",
      lambda a, k, r: {"cells": int(a[1].genotypes.missing_mask[:, a[2]].sum()),
                       "changed": bool(r)})
    for block in ("gamma", "beta", "sigma2", "phi2"):
        w(gibbs, f"sample_{block}", f"gibbs.{block}")
    w(gibbs, "ChainWorkspace", "gibbs.chain_setup")
    w(gibbs, "initial_state", "gibbs.chain_setup")
    w(gibbs.PosteriorSamples, "state", "gibbs.posterior_state")

    # a zero column delta with a changed phi^2 is the per-sweep identity shift
    w(linalg, "column_delta_inverse_update",
      lambda a, k: "linalg.phi_shift" if a[4] != a[5] else "linalg.column_update")
    w(linalg, "dual_form_inverse", "linalg.dual_form")
    def keep_cache(args, kwargs, cache):
        tracer.objects["caches"].append(cache)
        return {}

    w(linalg.InverseCache, "from_matrix", "linalg.cache_build", keep_cache)
    tracer.tally(linalg.InverseCache, "apply_updates", "linalg.rank_one_updates",
                 lambda a, k: len(a[1]))

    w(cli, "exhaustive_search", "selector.search",
      lambda a, k, r: {"skipped": r.skipped})
    # the trace records the starting model, then every scored proposal
    w(cli, "mh_model_search", "selector.search",
      lambda a, k, r: {"skipped": r.skipped, "proposals": a[2].search_iterations,
                       "scored": len(r.visited) - 1,
                       "distinct": len({delta.bits for delta, _, _ in r.visited}),
                       "accepted": sum(acc for _, _, acc in r.visited[1:])})
    w(selector, "estimate_bayes_factor", "selector.estimate_bf",
      lambda a, k, r: {"invalid": r.invalid_count, "states": r.sample_count + r.invalid_count})
    w(selector, "bf_sample_term", "selector.bf_term")

    w(cli, "run_em", "em.run_em", lambda a, k, r: {"iterations": r[1].iterations})
    w(em, "e_step", "em.e_step", lambda a, k, r: {"mc": _mc_individuals(a)})
    w(em, "m_step", "em.m_step")
    w(em, "observed_loglik", "em.loglik")

    # io.assemble_dataset looks the pedigree functions up in its own module
    w(sio, "order_pedigree", "pedigree.order")
    w(sio, "build_numerator_matrix", "pedigree.build")
    w(sio, "extract_submatrix", "pedigree.extract")
    for name in _IO_READERS + _IO_WRITERS:
        w(sio, name, f"io.{name}")


def _mc_individuals(args) -> int:
    data = args[1]
    config = args[2] if len(args) > 2 and args[2] is not None else em.EmConfig()
    pattern = em.MissingPattern.from_dataset(data)
    return sum(pattern.enumeration_size(i) > config.enumeration_cap
               for i in pattern.individuals_with_missing())


def layer_metrics(tracer: Tracer, sweeps: int, chains: int) -> dict[str, float]:
    """Per-layer numbers from one traced pipeline repetition.

    ``sweeps`` counts every sweep of every chain. ESS, samples bytes and
    the tracing overhead are filled in by the caller.
    """
    spans = tracer.spans
    self_cpu = tracer.self_times()
    by_id = {s.id: s for s in spans}
    total = defaultdict(float)  # name -> summed self CPU seconds
    calls = defaultdict(int)
    attrs = defaultdict(float)  # "name.attr" -> summed attribute
    for s in spans:
        total[s.name] += self_cpu[s.id]
        calls[s.name] += 1
        for key, value in s.attrs.items():
            attrs[f"{s.name}.{key}"] += float(value)

    def inclusive(name):
        return sum(s.cpu for s in spans if s.name == name)

    def per_sweep_us(name):
        return 1e6 * total[name] / sweeps if sweeps else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    def io_cpu(prefix):
        # a writer called by another writer is already inside its span
        return sum(s.cpu for s in spans if s.name.startswith(prefix)
                   and (s.parent is None or not by_id[s.parent].name.startswith(prefix)))

    caches = tracer.objects["caches"]
    proposals = attrs["selector.search.proposals"]  # 0 unless an MH search ran
    em_iters = attrs["em.run_em.iterations"]
    loads = calls["pedigree.build"]
    return {
        "gibbs.impute_us_per_sweep": per_sweep_us("gibbs.impute"),
        "gibbs.impute_cells_per_sweep": ratio(attrs["gibbs.impute.cells"], sweeps),
        "gibbs.impute_changed_frac": ratio(attrs["gibbs.impute.changed"], calls["gibbs.impute"]),
        "gibbs.gamma_us_per_sweep": per_sweep_us("gibbs.gamma"),
        "gibbs.beta_us_per_sweep": per_sweep_us("gibbs.beta"),
        "gibbs.sigma2_us_per_sweep": per_sweep_us("gibbs.sigma2"),
        "gibbs.phi2_us_per_sweep": per_sweep_us("gibbs.phi2"),
        "gibbs.loop_self_us_per_sweep": per_sweep_us("gibbs.run_chain"),
        "gibbs.chain_setup_ms": 1e3 * ratio(inclusive("gibbs.chain_setup"), chains),
        "linalg.column_update_us_per_sweep": 1e6 * ratio(inclusive("linalg.column_update"), sweeps),
        "linalg.phi_shift_us_per_sweep": 1e6 * ratio(inclusive("linalg.phi_shift"), sweeps),
        "linalg.updates_per_sweep": ratio(tracer.counters["linalg.rank_one_updates"], sweeps),
        "linalg.refreshes": float(sum(c.refreshes for c in caches)),
        "linalg.singular_fallbacks": float(sum(c.singular_fallbacks for c in caches)),
        "linalg.dual_form_us_per_sweep": 1e6 * ratio(inclusive("linalg.dual_form"), sweeps),
        "selector.models_scored": float(calls["selector.estimate_bf"]),
        "selector.bf_ms_per_model": 1e3 * ratio(inclusive("selector.estimate_bf"),
                                                calls["selector.estimate_bf"]),
        "selector.bf_us_per_state": 1e6 * ratio(inclusive("selector.estimate_bf"),
                                                attrs["selector.estimate_bf.states"]),
        "selector.invalid_terms": attrs["selector.estimate_bf.invalid"],
        "selector.skipped": attrs["selector.search.skipped"],
        "selector.mh_accept_frac": ratio(attrs["selector.search.accepted"],
                                         attrs["selector.search.scored"]),
        "selector.mh_cache_hit_frac": (1.0 - (attrs["selector.search.distinct"] - 1) / proposals
                                       if proposals else 0.0),
        # only select reads samples and materialises states
        "selector.states_load_ms": 1e3 * (inclusive("io.read_samples")
                                          + inclusive("gibbs.posterior_state")),
        "em.iterations": em_iters,
        "em.estep_ms_per_iter": 1e3 * ratio(inclusive("em.e_step"), em_iters),
        "em.mstep_ms_per_iter": 1e3 * ratio(inclusive("em.m_step"), em_iters),
        "em.loglik_ms_per_iter": 1e3 * ratio(inclusive("em.loglik"), em_iters),
        "em.mc_individuals": ratio(attrs["em.e_step.mc"], calls["em.e_step"]),
        "pedigree.order_ms": 1e3 * ratio(inclusive("pedigree.order"), loads),
        "pedigree.build_ms": 1e3 * ratio(inclusive("pedigree.build"), loads),
        "pedigree.extract_ms": 1e3 * ratio(inclusive("pedigree.extract"), loads),
        "io.read_ms": 1e3 * io_cpu("io.read_"),
        "io.write_ms": 1e3 * io_cpu("io.write_"),
    }


def self_time_table(tracer: Tracer) -> list[tuple[str, int, float, float]]:
    """(span name, calls, wall ms, self CPU ms) per span name, by self CPU."""
    self_cpu = tracer.self_times()
    rows = defaultdict(lambda: [0, 0.0, 0.0])
    for s in tracer.spans:
        row = rows[s.name]
        row[0] += 1
        row[1] += 1e3 * (s.t1 - s.t0)
        row[2] += 1e3 * self_cpu[s.id]
    return sorted(((name, *row) for name, row in rows.items()), key=lambda r: -r[3])


def chain_ess(workload, run_dir) -> list[float]:
    """Bulk ESS of every retained SNP coefficient of every chain."""
    values = []
    for path in workloads.samples_files(workload, run_dir):
        header, rows = checks.read_csv(path)
        draws = np.array([[float(c) for c in row] for row in rows])
        for k, name in enumerate(header):
            if name.startswith("snp"):  # SNP effects; imputed cells are zimp_*
                e = bulk_ess(draws[:, k])
                if math.isfinite(e):
                    values.append(e)
    return values
