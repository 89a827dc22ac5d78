"""One workload in one fresh process; prints one JSON object on stdout.

Started by ``run.py`` with the pinned environment and the round count.
The timed rounds run with nothing attached but the host-speed samples
taken between their ops (``probe.py``); with ``--traced`` they are followed by
one round under cProfile (the per-layer ledger and the per-op counts)
and one under tracemalloc (peak allocation), so tracing never touches an
end-to-end number.
"""

from __future__ import annotations

import time

_PROCESS_START = time.monotonic()  # before the heavy imports below

import argparse
import cProfile
import gc
import hashlib
import json
import resource
import statistics
import sys
import tracemalloc
from typing import Dict, List, Optional, Tuple

import numpy as np

import ledger
import probe
import spec
from workloads import REGISTRY, Census, Recorder, Round, Workload, peek

#: Host-speed samples right after set-up whose median scales ``setup_s``.
SETUP_PROBES = 9


def quartiles(values: List[float]) -> List[float]:
    """[q1, median, q3]; a single value is its own quartiles."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def percentile(values: List[float], pct: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), pct))


def sim_counts(wl: Workload) -> Dict[str, float]:
    """Cumulative ``FlowSimulator.perf_counters()``; the only state of the
    program a timed run reads.  Per-round figures are differences."""
    sim = wl.dep.sim.perf_counters()
    return {
        "flows": sim.get("flows_completed", 0),
        "recomputations": sim.get("rate_recomputations", 0),
        "heap_pushes": sim.get("heap_pushes", 0),
        "scalar_solves": sim.get("solver_scalar_solves", 0),
    }


def gc_collections() -> int:
    return sum(gen["collections"] for gen in gc.get_stats())


class GcClock:
    """Wall seconds the collector held the program (a ``gc.callbacks``
    entry); attached in the traced worker only."""

    def __init__(self) -> None:
        self.total_s = 0.0
        self._started = 0.0

    def __call__(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.total_s += time.perf_counter() - self._started


class Series:
    """One ``MetricsRegistry.snapshot()`` of the deployment's telemetry,
    the public source of the per-layer counts.  A series nobody has
    incremented yet does not exist, so a missing one reads 0."""

    def __init__(self, wl: Workload) -> None:
        self.snap = wl.dep.telemetry().metrics.snapshot()

    def total(self, name: str, field: str = "value", **labels: object) -> float:
        samples = self.snap.get(name, {}).get("samples", [])
        return float(
            sum(
                sample[field]
                for sample in samples
                if all(str(sample["labels"].get(k)) == str(v) for k, v in labels.items())
            )
        )

    def count(self) -> int:
        return sum(len(metric["samples"]) for metric in self.snap.values())


def run_rounds(
    wl: Workload, rec: Recorder, rounds: int, keep_spans: bool
) -> Tuple[List[Round], Dict[str, float]]:
    """``rounds`` rounds, each with the host's speed while it ran: the
    median of a sample before it, those the workload took every few ops,
    and one after it.

    Also returns the simulator counters as they stood after the first
    round, the *reference round* the simulated-time digest is taken over
    (timed and traced runs of a seed run different numbers of rounds).
    """
    out: List[Round] = []
    after_first: Dict[str, float] = {}
    for _ in range(rounds):
        if keep_spans:
            rec.spans = []
        wl.host_samples = [wl.host.sample()]
        rnd = wl.run_round()
        rnd.host = statistics.median(wl.host_samples + [wl.host.sample()])
        out.append(rnd)
        if len(out) == 1:
            after_first = sim_counts(wl)
    return out, after_first


def sim_digest(first: Round, deltas: Dict[str, float]) -> str:
    """sha256 of the first round's (op, sim start, sim end) and netsim counts."""
    h = hashlib.sha256()
    for label, start, end in sorted(first.sim):
        h.update(f"{label} {float(start).hex()} {float(end).hex()}\n".encode())
    for key in ("flows", "recomputations", "heap_pushes"):
        h.update(f"{key} {deltas[key]}\n".encode())
    return h.hexdigest()


def end_to_end(rounds: List[Round], tail_pct: float) -> Dict[str, object]:
    """Wall figures are normalised to the reference host (each round's
    times divided by that round's ``host`` slowdown); the same figures as
    the clock read them are beside them under ``raw_``."""
    rates = [r.ops * r.host / r.wall_s for r in rounds]
    raw_rates = [r.ops / r.wall_s for r in rounds]
    segs = [ms / r.host for r in rounds for ms in r.seg_ms]
    raw_segs = [ms for r in rounds for ms in r.seg_ms]
    sims = [(end - start) * 1e3 for r in rounds for _, start, end in r.sim]
    attempted = sum(r.ops for r in rounds)
    failed = sum(r.failed for r in rounds)
    rate_q = quartiles(rates)
    seg_q = quartiles(segs)
    return {
        "ops_per_s": rate_q[1],
        "ops_per_s_quartiles": [rate_q[0], rate_q[2]],
        "op_ms_p50": seg_q[1],
        "op_ms_quartiles": [seg_q[0], seg_q[2]],
        "op_ms_p99": percentile(segs, 99.0),
        "sim_op_ms_p50": percentile(sims, 50.0),
        "sim_op_ms_tail": percentile(sims, tail_pct),
        "sim_tail_pct": tail_pct,
        "sim_samples": len(sims),
        "failed_share": failed / attempted,
        "wall_s": sum(r.wall_s / r.host for r in rounds),
        "raw_ops_per_s": statistics.median(raw_rates),
        "raw_op_ms_p50": statistics.median(raw_segs),
        "raw_wall_s": sum(r.wall_s for r in rounds),
        "host_slowdown": statistics.median(r.host for r in rounds),
        "attempted": attempted,
        "failed": failed,
        "rounds": len(rounds),
        "segments": len(segs),
        "per_round_ops_per_s": rates,
        "per_round_host_slowdown": [r.host for r in rounds],
        "per_round_ops": [r.ops for r in rounds],
    }


def traced_passes(
    wl: Workload,
    rec: Recorder,
    timed: List[Round],
    timed_delta: Dict[str, float],
    e2e: Dict[str, object],
) -> Dict[str, Optional[float]]:
    """The per-layer numbers: ledger, counts, spans, allocation peak.
    ``None`` marks a figure whose source a refactor has moved."""
    out: Dict[str, Optional[float]] = {}
    ops_timed = sum(r.ops for r in timed)

    def per_op(attr: str) -> float:
        """Normalised ms per op of one of the harness's own spans."""
        return sum(getattr(r, attr) / r.host for r in timed) * 1e3 / ops_timed

    # Spans of the harness's own calls, from the (untraced) timed rounds.
    out["bench.issue_ms_per_op"] = per_op("issue_s")
    out["bench.drive_ms_per_op"] = per_op("drive_s")
    out["bench.verify_ms_per_op"] = per_op("verify_s")
    out["bench.op_ms_p99"] = e2e["op_ms_p99"]
    q1, q3 = e2e["ops_per_s_quartiles"]
    out["bench.ops_per_s_iqr_share"] = (q3 - q1) / e2e["ops_per_s"]
    out["bench.gc_collections"] = timed_delta["gc"]
    out["bench.gc_pause_share"] = timed_delta["gc_pause_s"] / e2e["raw_wall_s"]
    out["bench.host_slowdown"] = e2e["host_slowdown"]
    out["sim.op_ms_p50"] = e2e["sim_op_ms_p50"]
    out["sim.op_ms_tail"] = e2e["sim_op_ms_tail"]
    out["netsim.events_per_s"] = timed_delta["flows"] / sum(
        r.drive_s / r.host for r in timed
    )
    out["collectives.payload_gb_per_s"] = (
        sum(r.payload_bytes for r in timed) / e2e["wall_s"] / 1e9
    )

    # One round under the profiler; its shares are ratios and need no
    # host-speed samples, which would only show up in the ledger as ``bench``.
    # A full collection of the heap costs a third of a round and is charged
    # to whichever layer happened to allocate when it fell due, so one is
    # done first: the ledger is the program between full collections, and
    # ``bench.gc_pause_share`` says what they add.
    wl.host = None
    rec.spans = None
    gc.collect()
    rec.census = Census()
    rec.census.sample(wl.dep)
    tables_before = set(rec.census.connections or ())
    before, series_before = sim_counts(wl), Series(wl)
    profile = rec.profile = cProfile.Profile()
    profile.enable()
    rnd = wl.run_round()
    profile.disable()
    rec.profile = None
    delta = {k: v - before[k] for k, v in sim_counts(wl).items()}
    series = Series(wl)
    rec.census.sample(wl.dep)
    census, rec.census = rec.census, None
    ops = rnd.ops

    def grew(name: str, field: str = "value", **labels: object) -> float:
        """Growth of a telemetry series over the profiled round."""
        return series.total(name, field, **labels) - series_before.total(
            name, field, **labels
        )

    def mean_ms(name: str) -> float:
        """Mean of what a telemetry histogram observed in the round."""
        count = grew(name, "count")
        return grew(name, "sum") * 1e3 / count if count else 0.0

    folded = ledger.fold(profile)
    total = sum(sec for sec, _ in folded.values())
    for layer, (sec, calls) in folded.items():
        out[f"{layer}.self_share"] = sec / total
        out[f"{layer}.calls_per_op"] = calls / ops
    out["bench.trace_overhead_share"] = 1.0 - (ops / rnd.wall_s) / e2e["raw_ops_per_s"]

    out["netsim.flows_per_op"] = delta["flows"] / ops
    out["netsim.rate_recomputations_per_op"] = delta["recomputations"] / ops
    out["netsim.heap_pushes_per_op"] = delta["heap_pushes"] / ops
    out["netsim.scalar_solve_share"] = (
        delta["scalar_solves"] / delta["recomputations"]
        if delta["recomputations"]
        else 0.0
    )
    out["core.program_cache_hit_share"] = None
    if census.cache is not None:
        hits = sum(c["hits"] for c in census.cache.values())
        misses = sum(c["misses"] for c in census.cache.values())
        out["core.program_cache_hit_share"] = (
            hits / (hits + misses) if hits + misses else 0.0
        )
    out["core.journal.records_per_op"] = grew("mccs_journal_appends_total") / ops
    out["core.reconfig.sessions_per_op"] = grew("mccs_reconfigs_total") / ops
    out["core.reconfig.sim_ms_mean"] = mean_ms("mccs_reconfig_duration_seconds")
    out["core.inconsistent_collectives"] = float(sum(census.inconsistent.values()))
    out["transport.connections_per_op"] = None
    if census.connections is not None:
        out["transport.connections_per_op"] = (
            sum(n for key, n in census.connections.items() if key not in tables_before)
            / ops
        )
    out["telemetry.series_count"] = float(series.count())
    out["telemetry.spans_evicted"] = peek(lambda: float(wl.dep.telemetry().spans.evicted))
    route = "POST /v1/collectives"
    answered = grew("mccs_gateway_requests_total", route=route)
    out["service.admitted_share"] = (
        grew("mccs_gateway_requests_total", route=route, code=200) / answered
        if answered
        else 0.0
    )
    out["service.shed_share"] = (
        grew("mccs_gateway_rejections_total") / answered if answered else 0.0
    )
    out["service.retries_per_op"] = grew("mccs_gateway_retries_total") / ops
    # Accepted -> answered minus issued -> completed: what a request spent
    # in the gateway's queues and dispatch, outside its collective.
    out["service.queue_wait_sim_ms_mean"] = (
        max(
            0.0,  # the two sums round differently when nothing ever waited
            mean_ms("mccs_gateway_request_seconds")
            - mean_ms("mccs_collective_duration_seconds"),
        )
        if answered
        else 0.0
    )

    # A short third pass: peak traced allocation over a tenth of a round.
    wl.quick = True
    tracemalloc.start()
    base, _ = tracemalloc.get_traced_memory()
    wl.run_round()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    out["collectives.peak_alloc_mb"] = (peak - base) / 1e6

    out_of_step = {m.name for m in spec.PER_LAYER} ^ set(out)
    if out_of_step:
        raise RuntimeError(f"per-layer metrics differ from spec.py: {sorted(out_of_step)}")
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(REGISTRY))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--quick", action="store_true", help="counts / 10")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument(
        "--t0", type=float, default=_PROCESS_START,
        help="parent's time.monotonic() just before it spawned this process",
    )
    args = parser.parse_args(argv)
    wspec = spec.workload(args.workload)

    rec = Recorder()
    wl = REGISTRY[args.workload](args.seed, args.quick, rec)
    wl.setup()
    wl.host = probe.HostProbe(wspec.numpy_share)
    gc.collect()
    gc.freeze()  # set-up objects leave the collector's working set; GC stays on
    raw_setup_s = time.monotonic() - args.t0
    # Kernel time of a set-up is first-touch page faults, and what one costs
    # is the hypervisor's affair: the same 31 500 faults of large_allreduce
    # took 0.15 s in most processes, 2-3 s in some, 20 s in one.  setup_s
    # leaves it out (peak_rss_mb shows memory moved into set-up) and
    # reports it beside.
    kernel_s = resource.getrusage(resource.RUSAGE_SELF).ru_stime
    slowdown = statistics.median(wl.host.sample() for _ in range(SETUP_PROBES))
    setup = {
        "setup_s": (raw_setup_s - kernel_s) / slowdown,
        "raw_setup_s": raw_setup_s,
        "setup_kernel_s": kernel_s,
        "host_slowdown": slowdown,
    }
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    gc_clock = GcClock()
    if args.traced:
        gc.callbacks.append(gc_clock)
    before = dict(sim_counts(wl), gc=gc_collections())
    timed, after_first = run_rounds(wl, rec, args.rounds, keep_spans=args.traced)
    after = dict(sim_counts(wl), gc=gc_collections())
    if args.traced:
        gc.callbacks.remove(gc_clock)
    timed_delta = {k: after[k] - before[k] for k in after}
    timed_delta["gc_pause_s"] = gc_clock.total_s
    spans = rec.spans

    e2e = end_to_end(timed, wspec.tail_pct)
    e2e["setup"] = setup
    e2e["probe_py_ms"] = statistics.median(wl.host.py_samples) * 1e3
    e2e["probe_mem_ms"] = statistics.median(wl.host.mem_samples or [0.0]) * 1e3
    # After a fixed amount of work, so a footprint, not a throughput.
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result: Dict[str, object] = {
        "workload": args.workload,
        "seed": args.seed,
        "numpy": np.__version__,
        "end_to_end": e2e,
        "sim_digest": sim_digest(
            timed[0], {k: after_first[k] - before[k] for k in after_first}
        ),
    }
    if args.traced:
        result["per_layer"] = traced_passes(wl, rec, timed, timed_delta, e2e)
        result["spans"] = spans

    problems = [m for r in timed for m in r.mismatches] + wl.finish()
    result["problems"] = problems
    result["correct"] = not problems and e2e["failed"] == 0
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
