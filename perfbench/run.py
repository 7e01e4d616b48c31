"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload shard-read-leased --seed 1 \\
        --seconds 60 --trace 0

The program under test is built from ``src/`` of the checkout.  With
``--trace 0`` the run repeats the workload's fixed simulated window,
freshly built from the seed each time, until ``--seconds`` of host time
are used, and reports the end-to-end metrics: set-up as the median over
the reps, simulator speed against a fixed reference loop run at
intervals through each window (``reference.py``).  With ``--trace 1``
it runs the window once untraced and once traced, and reports the
per-layer metrics.  Every run checks the program's outputs; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``NOTES.md`` for the
workloads and metric definitions.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))

#: Seed used for claims; a later claim must also hold on the held-out seed.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7

#: Environment toggles the program reads; cleared so the run measures
#: the program's defaults whatever the caller's environment holds.
PROGRAM_TOGGLES = (
    "REPRO_NOC_EXPRESS", "REPRO_CONSENSUS_BATCH", "REPRO_BFT_LEASES",
    "REPRO_TABLE_LOG",
)

#: Share of the traced window (net of the tracer's own time) that named
#: layers other than the kernel loop should account for.  Checked as a
#: harness check: it judges the trace, not the program's outputs, so it
#: is recorded and printed but leaves ``correct`` alone.
MIN_ATTRIBUTED = 0.9

#: Where the traced run writes its spans, relative to the checkout root.
TRACE_DIR = ".perfbench"

E2E_UNITS = {
    "sim_ops_per_ref": "ops/ref",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "model_ops_per_s": "ops/s",
    "model_p50_ms": "ms",
    "model_p99_ms": "ms",
}

LAYER_UNITS = {
    "sim.events": "count", "sim.events_per_wall_s": "1/s", "sim.self_s": "s",
    "noc.self_s": "s", "noc.packets": "count", "noc.flit_hops": "count",
    "noc.hop_events_per_packet": "ratio", "noc.dropped": "count",
    "soc.self_s": "s", "soc.sends": "count", "soc.charges": "count",
    "bft.self_s": "s", "bft.ordered_ops": "count", "bft.msgs_per_op": "ratio",
    "bft.mean_batch": "ratio", "bft.us_per_op_growth": "ratio",
    "crypto.calls": "count", "crypto.self_s": "s",
    "hybrids.usig_calls": "count", "hybrids.self_s": "s",
    "shard.self_s": "s", "shard.submits": "count", "shard.local_read_frac": "ratio",
    "shard.lease_fallbacks": "count",
    "mesoscale.self_s": "s", "mesoscale.offered": "count", "mesoscale.shed": "count",
    "metrics.self_s": "s", "metrics.observations": "count",
    "core.self_s": "s", "core.rejuvenations": "count", "fabric.icap_writes": "count",
    "pdes.windows": "count", "pdes.remote_ops": "count", "pdes.start_s": "s",
    "pdes.send_s": "s", "pdes.wait_s": "s", "pdes.coord_s": "s",
    "trace.overhead_frac": "ratio", "trace.attributed_frac": "ratio",
}


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _load_program(root: str) -> None:
    """Make the checkout's ``src/`` importable, or exit without a result."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.stderr.write(
            f"perfbench: no program sources at {src}/repro; run from the root "
            "of a full checkout\n"
        )
        raise SystemExit(2)
    for name in PROGRAM_TOGGLES:
        os.environ.pop(name, None)
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def _model_metrics(outputs: Any) -> Dict[str, Any]:
    """Modelled metrics: identical for every rep of one seed."""
    from measure import percentile

    p50 = percentile(outputs.latencies_ms, 50)
    p99 = percentile(outputs.latencies_ms, 99)
    return {
        "model_ops_per_s": outputs.completed / outputs.window_sim_s,
        "model_p50_ms": p50.value,
        "model_p99_ms": p99.value,
        "p99_samples": p99.samples,
        "p99_beyond": p99.beyond,
        "p99_valid": p99.valid,
    }


def _checks(reps: List[Any], extra: Dict[str, bool]) -> Dict[str, bool]:
    checks: Dict[str, bool] = {}
    for rep in reps:
        for name, ok in rep.outputs.checks.items():
            checks[name] = checks.get(name, True) and ok
    checks["repeatable_digest"] = len({rep.outputs.digest for rep in reps}) == 1
    checks.update(extra)
    return checks


def _accounting(outputs: Any, correct: bool) -> Dict[str, Any]:
    from measure import failed_frac, failed_ops

    return {
        "attempted": outputs.offered,
        "failed": failed_ops(outputs.offered, outputs.shed, outputs.failed, correct),
        "failed_frac": failed_frac(outputs.offered, outputs.shed, outputs.failed, correct),
    }


#: What one set-up imports afresh: the benchmark's modules and the program.
IMPORTED = ("workloads", ("workloads", "measure", "tracer", "repro"))


def _untraced(workload: Any, seed: int, seconds: float):
    """Repeat set-up and window until ``seconds`` would be exceeded.

    Each rep first times a fresh import of the program, then builds,
    warms up and runs the window, with passes of the reference loop at
    intervals through it.  ``sim_ops_per_ref`` is the ops of one window
    ÷ the mean window, in units of the mean reference pass: the
    machine's speed drifts and slows window and reference alike, so
    their ratio holds where either time alone does not.  ``setup_s`` is
    the median over reps of import + build + warmup.
    """
    from statistics import mean, median

    from measure import import_seconds, vm_hwm_mib
    from reference import reference_seconds

    reps, import_s = [], []
    begun = time.perf_counter()
    while True:
        gc.collect()
        started = time.perf_counter()
        import_s.append(import_seconds(*IMPORTED))
        gc.collect()
        reps.append(workload.rep(seed, reference=reference_seconds))
        took = time.perf_counter() - started
        if time.perf_counter() - begun + took > seconds:
            break
    outputs = reps[0].outputs
    model = _model_metrics(outputs)
    checks = _checks(reps, {"p99_sample_count": model["p99_valid"]})
    correct = all(checks.values())
    window_s = mean(r.window_s for r in reps)
    reference = mean(t for r in reps for t in r.reference_s)
    host = {
        "sim_ops_per_ref": outputs.completed / (window_s / reference),
        "setup_s": median(i + r.setup_s for i, r in zip(import_s, reps)),
        "peak_rss_mb": vm_hwm_mib() + max(r.worker_rss_mib for r in reps),
    }
    metrics = {name: _metric(v, E2E_UNITS[name]) for name, v in host.items()}
    for name in ("model_ops_per_s", "model_p50_ms", "model_p99_ms"):
        metrics[name] = _metric(model[name], E2E_UNITS[name])
    record = {
        "reps": len(reps),
        "rep_import_s": import_s,
        "rep_setup_s": [r.setup_s for r in reps],
        "rep_window_s": [r.window_s for r in reps],
        "rep_reference_s": [r.reference_s for r in reps],
        "sim_ops_per_wall_s": outputs.completed / window_s,
        "rep_worker_rss_mib": [r.worker_rss_mib for r in reps],
        "p99_samples": model["p99_samples"],
        "p99_beyond": model["p99_beyond"],
        "offered": outputs.offered, "completed": outputs.completed,
        "shed": outputs.shed, "op_failures": outputs.failed,
        "in_flight_at_end": outputs.in_flight,
        "events": outputs.events,
        "digest": outputs.digest,
        "checks": checks,
        "notes": outputs.notes,
    }
    return correct, outputs, metrics, record


def _layer_metrics(tracer: Any, base: Any, traced: Any) -> Dict[str, float]:
    """Per-layer metrics of the traced rep.

    For ``pdes-*`` the simulation runs in forked workers: their spans
    give the simulator layers, and the coordinator process's own spans
    give the ``pdes`` layer (its window time outside host calls is the
    coordinator's barrier bookkeeping, ``pdes.coord_s``).
    """
    from tracer import TraceStats

    out = traced.outputs
    counts = out.counts
    window = traced.window_s
    local = tracer.stats(window)
    is_pdes = bool(tracer.worker_stats)
    sim_stats = TraceStats.merged(tracer.worker_stats) if is_pdes else local

    def layer(name: str) -> float:
        seconds = sim_stats.self_s.get(name, 0.0)
        if is_pdes and name == "pdes":
            seconds += local.self_s.get(name, 0.0)
        return seconds

    events = counts.get("sim.events", 0.0)
    packets = counts.get("noc.packets", 0.0)
    ordered = counts.get("bft.ordered_ops", 0.0)
    reads = counts.get("shard.reads", 0.0)
    growth = 0.0
    q_self, q_ops = traced.quarter_self_s, out.quarter_ops
    if len(q_self) == 4 and q_ops and min(q_ops) > 0:
        first = q_self[0].get("bft", 0.0) / q_ops[0]
        last = (q_self[3].get("bft", 0.0) - q_self[2].get("bft", 0.0)) / q_ops[3]
        growth = last / first if first else 0.0
    pdes_send = local.seconds("ProcessHost.send_advance")
    pdes_wait = local.seconds("ProcessHost.recv_window")
    metrics = {
        "sim.events": events,
        "sim.events_per_wall_s": events / base.window_s,
        "sim.self_s": sim_stats.kernel_s + sim_stats.self_s.get("sim", 0.0),
        "noc.self_s": layer("noc"),
        "noc.packets": packets,
        "noc.flit_hops": counts.get("noc.flit_hops", 0.0),
        "noc.hop_events_per_packet": (
            sim_stats.layer_calls("noc", "event:") / packets if packets else 0.0
        ),
        "noc.dropped": counts.get("noc.dropped", 0.0),
        "soc.self_s": layer("soc"),
        "soc.sends": sim_stats.calls("Node.send"),
        "soc.charges": sim_stats.calls("Node.charge"),
        "bft.self_s": layer("bft"),
        "bft.ordered_ops": ordered,
        "bft.msgs_per_op": counts.get("bft.replica_sends", 0.0) / ordered if ordered else 0.0,
        "bft.mean_batch": counts.get("bft.mean_batch", 0.0),
        "bft.us_per_op_growth": growth,
        "crypto.calls": sim_stats.layer_calls("crypto"),
        "crypto.self_s": layer("crypto"),
        "hybrids.usig_calls": sim_stats.calls(
            "Usig.create_ui", "UsigVerifier.verify_ui", "UsigVerifier.accept_sequential"
        ),
        "hybrids.self_s": layer("hybrids"),
        "shard.self_s": layer("shard"),
        "shard.submits": sim_stats.calls("ShardRouter.submit"),
        "shard.local_read_frac": counts.get("shard.reads_local", 0.0) / reads if reads else 0.0,
        "shard.lease_fallbacks": counts.get("shard.lease_fallbacks", 0.0),
        "mesoscale.self_s": layer("mesoscale"),
        "mesoscale.offered": counts.get("mesoscale.offered", 0.0),
        "mesoscale.shed": counts.get("mesoscale.shed", 0.0),
        "metrics.self_s": layer("metrics"),
        "metrics.observations": sim_stats.calls("Histogram.observe"),
        "core.self_s": layer("core"),
        "core.rejuvenations": counts.get("core.rejuvenations", 0.0),
        "fabric.icap_writes": sim_stats.calls("IcapPort.write"),
        "pdes.windows": counts.get("pdes.windows", 0.0),
        "pdes.remote_ops": counts.get("pdes.remote_ops", 0.0),
        "pdes.start_s": local.seconds("ProcessHost.start", "ProcessHost.wait_ready"),
        "pdes.send_s": pdes_send,
        "pdes.wait_s": pdes_wait,
        "pdes.coord_s": window - pdes_send - pdes_wait if is_pdes else 0.0,
        "trace.overhead_frac": window / base.window_s - 1.0,
        "trace.attributed_frac": sim_stats.attributed_frac(),
    }
    return metrics


def _traced(workload: Any, seed: int, root: str):
    from tracer import Tracer, installed

    gc.collect()
    base = workload.rep(seed)
    gc.collect()
    tracer = Tracer()
    tracer.spill_dir = os.path.join(root, TRACE_DIR)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 20_000))  # each span adds two frames
    try:
        with installed(tracer):
            traced = workload.rep(seed, tracer)
    finally:
        sys.setrecursionlimit(limit)
    model = _model_metrics(traced.outputs)
    checks = _checks(
        [base, traced],
        {"p99_sample_count": model["p99_valid"]},
    )
    checks["trace_preserves_digest"] = checks.pop("repeatable_digest")
    correct = all(checks.values())
    layers = _layer_metrics(tracer, base, traced)
    harness = {"trace_attribution": layers["trace.attributed_frac"] >= MIN_ATTRIBUTED}
    metrics = {name: _metric(layers[name], LAYER_UNITS[name]) for name in LAYER_UNITS}
    files = tracer.write(
        os.path.join(root, TRACE_DIR, f"trace-{workload.name}"),
        {"workload": workload.name, "seed": seed, "window_s": traced.window_s},
    )
    record = {
        "untraced_window_s": base.window_s,
        "traced_window_s": traced.window_s,
        "self_s_by_layer": tracer.self_seconds(),
        "tracer_own_s": tracer.tracer_s,
        "worker_tracer_own_s": [w.tracer_s for w in tracer.worker_stats],
        "worker_self_s_by_layer": [w.self_s for w in tracer.worker_stats],
        "spans": len(tracer.span_id),
        "span_files": [os.path.relpath(f, root) for f in files],
        "digest": traced.outputs.digest,
        "checks": checks,
        "harness_checks": harness,
        "notes": traced.outputs.notes,
    }
    return correct, traced.outputs, metrics, record


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    root = os.getcwd()
    _load_program(root)
    from measure import provenance
    from workloads import WORKLOADS

    own_import_s = time.perf_counter() - PROCESS_START
    if args.workload not in WORKLOADS:
        sys.stderr.write(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {', '.join(sorted(WORKLOADS))}\n"
        )
        return 2
    workload = WORKLOADS[args.workload]
    if args.trace:
        correct, outputs, metrics, record = _traced(workload, args.seed, root)
    else:
        correct, outputs, metrics, record = _untraced(workload, args.seed, args.seconds)
        record["own_import_s"] = own_import_s
    accounting = _accounting(outputs, correct)
    role = {DEFAULT_SEED: "default", HELD_OUT_SEED: "held-out"}.get(args.seed, "other")
    record = {
        "workload": workload.name,
        "loop": workload.loop,
        "provenance": provenance(root, args.seed, bool(args.trace), role),
        "correct": correct,
        **accounting,
        "metrics": metrics,
        **record,
    }
    for name, metric in metrics.items():
        print(f"{workload.name:20s} {name:26s} {metric['value']:.6g} {metric['unit']}")
    print(f"{workload.name:20s} {'failed_frac':26s} {accounting['failed_frac']:.6g} ratio")
    if "sim_ops_per_wall_s" in record:
        print(f"{workload.name:20s} {'sim_ops_per_wall_s':26s} "
              f"{record['sim_ops_per_wall_s']:.6g} ops/s (not gated)")
    if "p99_samples" in record:
        print(f"{workload.name:20s} {'model_p99_ms samples':26s} "
              f"{record['p99_samples']} ({record['p99_beyond']} beyond)")
    print(f"{workload.name:20s} {'digest':26s} {record['digest']}")
    failed_checks = sorted(k for k, ok in record["checks"].items() if not ok)
    if failed_checks:
        print(f"{workload.name:20s} FAILED CHECKS: {', '.join(failed_checks)}")
    failed_harness = sorted(k for k, ok in record.get("harness_checks", {}).items() if not ok)
    if failed_harness:
        print(f"{workload.name:20s} FAILED HARNESS CHECKS: {', '.join(failed_harness)}")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": accounting["attempted"],
        "failed": accounting["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
