"""The benchmark's workloads: build, warm up, run one measured window.

One *rep* of a workload builds the modelled system from the seed, warms
it up, runs a fixed simulated window in four equal quarters and gathers
the modelled outputs.  Everything modelled is a pure function of the
seed, so every rep of one seed — traced or not — must produce the same
digest; host times are measured around the phases.  Given a
``reference`` (a callable that times one pass of the reference loop),
a rep runs it at intervals through the window — after each quarter, or
every few PDES barrier windows — and keeps that time out of the
window's.

Simulated time is in milliseconds throughout (the protocol layers'
unit).  See ``NOTES.md`` for why each workload exists.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import random
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from measure import model_digest, vm_hwm_mib
from repro.bft import ClientConfig, ClientNode, GroupConfig, build_group
from repro.bft.batching import BatchConfig
from repro.bft.group import protocol_config_for
from repro.bft.leases import LeaseConfig
from repro.mesoscale import PopulationConfig
from repro.mesoscale.population import SHED_QUEUE_FULL
from repro.pdes import PdesConfig
from repro.pdes import coordinator as pdes_coordinator
from repro.pdes import worker as pdes_worker
from repro.pdes.coordinator import PdesCoordinator
from repro.pdes.domain import SimDomain
from repro.pdes.merge import merged_registry, summary_bytes
from repro.shard import ShardConfig, ShardedSystem
from repro.sim import Simulator
from repro.soc import Chip, ChipConfig
from repro.workloads import kv_workload
from tracer import TraceStats, patched

QUARTERS = 4


@dataclass
class Outputs:
    """Modelled outputs of one rep (identical for every rep of a seed)."""

    offered: int
    completed: int
    shed: int
    failed: int
    in_flight: int
    #: Latency of every completed op in the window, from its generated
    #: arrival time, in simulated ms, ascending.
    latencies_ms: List[float]
    window_sim_s: float
    events: int
    quarter_ops: List[int]
    checks: Dict[str, bool]
    digest: str
    #: Deterministic per-layer counts over the window.
    counts: Dict[str, float] = field(default_factory=dict)
    notes: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Rep:
    """Host timings of one rep plus its modelled outputs."""

    setup_s: float
    window_s: float
    outputs: Outputs
    #: Peak RSS of worker processes (PDES only), summed, in MiB.
    worker_rss_mib: float = 0.0
    #: Times of the reference passes run during the window.
    reference_s: List[float] = field(default_factory=list)
    #: Per-quarter snapshots of the tracer's per-layer self time.
    quarter_self_s: List[Dict[str, float]] = field(default_factory=list)


def _quarter_counts(times: List[float], start: float, quarter: float) -> List[int]:
    counts = [0] * QUARTERS
    for t in times:
        q = min(QUARTERS - 1, int((t - start) // quarter))
        counts[q] += 1
    return counts


def _registry_delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {k: v - before.get(k, 0.0) for k, v in after.items()}


def _group_totals(groups: Dict[str, Any]) -> Dict[str, Dict[str, float]]:
    """Per-group ordering counters read straight off the groups."""
    return {
        gid: {
            "ordered_slots": g.safety.highest_committed,
            "slot_executions": g.safety.total_commits,
            "replica_sends": sum(r.messages_sent for r in g.replicas.values()),
        }
        for gid, g in sorted(groups.items())
    }


def _bft_counts(groups: Dict[str, Any], before: Dict[str, Dict[str, float]],
                registry: Dict[str, float]) -> Dict[str, float]:
    after = _group_totals(groups)
    slots = sum(a["ordered_slots"] - before[g]["ordered_slots"] for g, a in after.items())
    executions = sum(
        a["slot_executions"] - before[g]["slot_executions"] for g, a in after.items()
    )
    sends = sum(
        max(0, a["replica_sends"] - before[g]["replica_sends"]) for g, a in after.items()
    )
    committed = sum(registry.get(f"{g}.committed_ops", 0.0) for g in groups)
    mean_batch = committed / executions if executions else 0.0
    return {
        "bft.ordered_slots": slots,
        "bft.ordered_ops": slots * mean_batch,
        "bft.mean_batch": mean_batch,
        "bft.replica_sends": sends,
    }


def _noc_counts(registry: Dict[str, float]) -> Dict[str, float]:
    delivered = registry.get("noc.delivered", 0.0)
    dropped = registry.get("noc.dropped", 0.0)
    return {
        "noc.packets": delivered + dropped,
        "noc.delivered": delivered,
        "noc.dropped": dropped,
        "noc.flit_hops": registry.get("noc.flit_hops", 0.0),
    }


class _Quarters:
    """Host-time marks (and tracer snapshots) at each quarter's end.

    After each mark the reference pass, if given, runs outside the
    window's time.
    """

    def __init__(self, tracer: Any, reference: Optional[Callable[[], float]] = None) -> None:
        self.tracer = tracer
        self.reference = reference
        self.start = 0.0
        self.paused = 0.0
        self.marks: List[float] = []
        self.self_s: List[Dict[str, float]] = []
        self.reference_s: List[float] = []

    def begin(self) -> None:
        if self.tracer is not None:
            self.tracer.begin()
        self.start = time.perf_counter()

    def mark(self) -> None:
        self.marks.append(time.perf_counter() - self.start - self.paused)
        if self.tracer is not None:
            self.self_s.append(self.tracer.self_seconds())
        if self.reference is not None:
            paused = time.perf_counter()
            self.reference_s.append(self.reference())
            self.paused += time.perf_counter() - paused

    def end(self) -> float:
        if self.tracer is not None:
            self.tracer.end()
        return self.marks[-1]


# ----------------------------------------------------------------------
# Open-loop sharded service (shard-write, shard-read-leased)
# ----------------------------------------------------------------------

class ArrivalProbe:
    """Times each population op from the tick that generated it.

    An open-mode population samples a tick's demand, queues it and
    drains the queue FIFO; ``_drain`` runs right after every tick, so
    the cumulative queued count seen at each drain marks the tick that
    queued those ops.  An op's index in the queue order is the
    population's issue counter at submit time, which maps it back to
    its tick.  The probe only observes: it passes every call through.
    """

    def __init__(self, population: Any, is_read: Callable[[Any], bool]) -> None:
        self.queued_ends: List[int] = []
        self.tick_times: List[float] = []
        self.completions: List[List[float]] = []
        self.reads = 0
        drain = population._drain
        submit = population.router.submit
        sim = population.sim

        def observed_drain() -> None:
            queued = population.offered - population.shed_by_reason.get(
                SHED_QUEUE_FULL, 0
            )
            if queued > (self.queued_ends[-1] if self.queued_ends else 0):
                self.queued_ends.append(queued)
                self.tick_times.append(sim.now)
            drain()

        def timed_submit(op: Any, on_complete: Any = None) -> int:
            index = population._issued - 1
            arrival = self.tick_times[bisect_right(self.queued_ends, index)]
            if is_read(op):
                self.reads += 1

            def done(result: Any) -> None:
                if result.ok:
                    now = sim.now
                    self.completions.append([now, now - arrival])
                if on_complete is not None:
                    on_complete(result)

            return submit(op, done)

        population._drain = observed_drain
        population.router.submit = timed_submit


@dataclass(frozen=True)
class ShardService:
    """A ShardedSystem at its defaults driven by one open-loop population."""

    name: str
    protocol: str
    n_shards: int
    read_ratio: float
    batching: Optional[BatchConfig] = None
    leases: Optional[LeaseConfig] = None
    window_ms: float = 400_000.0
    warmup_ms: float = 60_000.0
    n_clients: int = 1000
    rate_per_client: float = 1e-5  # ops per simulated ms per modelled client
    keys: int = 64
    loop: str = "open"

    def _config(self, seed: int) -> ShardConfig:
        kwargs: Dict[str, Any] = {}
        if self.batching is not None:
            kwargs["protocol_config"] = protocol_config_for(
                self.protocol, batching=self.batching, leases=self.leases
            )
        elif self.leases is not None:
            kwargs["leases"] = self.leases
        return ShardConfig(
            seed=seed, n_shards=self.n_shards, protocol=self.protocol, f=1, **kwargs
        )

    def rep(self, seed: int, tracer: Any = None,
            reference: Optional[Callable[[], float]] = None) -> Rep:
        t0 = time.perf_counter()
        system = ShardedSystem(self._config(seed))
        workload = kv_workload(
            keys=self.keys, read_ratio=self.read_ratio,
            rate_per_client=self.rate_per_client,
        )
        population = system.attach_population(
            "pop", PopulationConfig(n_clients=self.n_clients, workload=workload)
        )
        probe = ArrivalProbe(population, workload.is_read)
        system.start(warmup=self.warmup_ms)
        setup_s = time.perf_counter() - t0

        sim = system.sim
        registry = system.chip.metrics
        groups = {sid: shard.group for sid, shard in system.shards.items()}
        schedulers = [s.rejuvenation for s in system.shards.values() if s.rejuvenation]
        before = registry.snapshot()
        groups_before = _group_totals(groups)
        passes_before = sum(s.passes for s in schedulers)
        events_before = sim.events_fired
        start = sim.now
        quarter = self.window_ms / QUARTERS
        quarters = _Quarters(tracer, reference)
        quarters.begin()
        for _ in range(QUARTERS):
            system.run(quarter)
            quarters.mark()
        window_s = quarters.end()

        delta = _registry_delta(registry.snapshot(), before)
        completions = probe.completions
        latencies = sorted(lat for _, lat in completions)
        violations = {
            gid: [v.detail for v in g.safety.violations[:3]]
            for gid, g in groups.items() if not g.safety.is_safe
        }
        checks = {
            "smr_safety": not violations,
            # The probe and the population must agree on what completed.
            "latency_samples": len(completions) == population.completed,
        }
        counts = {
            **_noc_counts(delta),
            **_bft_counts(groups, groups_before, delta),
            "sim.events": sim.events_fired - events_before,
            "mesoscale.offered": population.offered,
            "mesoscale.shed": population.shed,
            "shard.reads": probe.reads,
            "shard.reads_local": sum(delta.get(f"{sid}.reads.local", 0.0) for sid in groups),
            "shard.lease_fallbacks": sum(
                delta.get(f"shard.{sid}.lease_fallbacks", 0.0) for sid in groups
            ),
            "core.rejuvenations": sum(s.passes for s in schedulers) - passes_before,
        }
        material = {
            "events": counts["sim.events"],
            "completions": completions,
            "noc": _noc_counts(delta),
            "groups": {
                gid: {
                    "ordered_slots": g.safety.highest_committed,
                    "committed_ops": delta.get(f"{gid}.committed_ops", 0.0),
                }
                for gid, g in sorted(groups.items())
            },
            "offered": population.offered,
            "shed": population.shed,
            "failed": population.failures,
        }
        outputs = Outputs(
            offered=population.offered,
            completed=len(completions),
            shed=population.shed,
            failed=population.failures,
            in_flight=population.inflight + population.backlog,
            latencies_ms=latencies,
            window_sim_s=self.window_ms / 1000.0,
            events=counts["sim.events"],
            quarter_ops=_quarter_counts([t for t, _ in completions], start, quarter),
            checks=checks,
            digest=model_digest(material),
            counts=counts,
            notes={"violations": violations} if violations else {},
        )
        return Rep(setup_s, window_s, outputs, quarter_self_s=quarters.self_s,
                   reference_s=quarters.reference_s)


# ----------------------------------------------------------------------
# Closed-loop CFT group with a primary crash (group-crash-history)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class GroupCrashHistory:
    """One batched CFT group, one client, the primary crashed early."""

    name: str = "group-crash-history"
    quarter_ms: float = 200_000.0
    crash_at_ms: float = 40_000.0
    drain_ms: float = 500_000.0
    outstanding: int = 8
    think_ms: float = 50.0
    loop: str = "closed"

    @property
    def window_ms(self) -> float:
        return self.quarter_ms * QUARTERS

    def rep(self, seed: int, tracer: Any = None,
            reference: Optional[Callable[[], float]] = None) -> Rep:
        t0 = time.perf_counter()
        sim = Simulator(seed=seed)
        chip = Chip(sim, ChipConfig(width=6, height=6))
        batching = BatchConfig(batch_size=4, batch_delay=100.0, max_inflight=4)
        group = build_group(
            chip,
            GroupConfig(protocol="cft", f=1, group_id="g",
                        protocol_config=protocol_config_for("cft", batching)),
        )
        # Inputs drawn from the seed: the client's think time, up to 1%
        # below nominal, and its key/value stream.  (Just above 50 ms the
        # loop locks into another batching phase with ~13% higher p50;
        # drawing from one side keeps every seed in the nominal phase.)
        think_ms = self.think_ms * random.Random(seed).uniform(0.99, 1.0)
        ops = kv_workload(keys=64, zipf_s=1.1, seed=seed)
        client = ClientNode(
            "c0",
            ClientConfig(think_time=think_ms, timeout=20_000.0,
                         max_outstanding=self.outstanding, op_factory=ops.op),
        )
        group.attach_client(client)
        sim.schedule_at(self.crash_at_ms, group.crash, group.members[0])
        setup_s = time.perf_counter() - t0

        registry = chip.metrics
        groups = {"g": group}
        before = registry.snapshot()
        groups_before = _group_totals(groups)
        quarters = _Quarters(tracer, reference)
        quarters.begin()
        client.start()
        for _ in range(QUARTERS):
            sim.run(until=sim.now + self.quarter_ms)
            quarters.mark()
        window_s = quarters.end()

        delta = _registry_delta(registry.snapshot(), before)
        times = list(client._completion_times)
        completions = [[t, lat] for t, lat in zip(times, client.latencies)]
        latencies = sorted(client.latencies)
        offered = client._rid
        completed = client.completed
        in_flight = len(client._outstanding)
        counts = {
            **_noc_counts(delta),
            **_bft_counts(groups, groups_before, delta),
            "sim.events": sim.events_fired,
        }
        # Drain (outside the window): stop the client, let in-flight
        # rounds finish, then every correct replica must hold one state.
        client.stop()
        sim.run(until=sim.now + self.drain_ms)
        digests = sorted({r.app.state_digest().hex() for r in group.correct_replicas()})
        checks = {
            "smr_safety": group.safety.is_safe,
            "replica_state_agreement": len(digests) == 1,
            "closed_loop_accounting": offered == completed + in_flight,
        }
        material = {
            "events": counts["sim.events"],
            "completions": completions,
            "noc": _noc_counts(delta),
            "groups": {"g": {"ordered_slots": counts["bft.ordered_slots"],
                             "committed_ops": delta.get("g.committed_ops", 0.0)}},
            "state_digests": digests,
        }
        outputs = Outputs(
            offered=offered,
            completed=completed,
            shed=0,
            failed=0,
            in_flight=in_flight,
            latencies_ms=latencies,
            window_sim_s=self.window_ms / 1000.0,
            events=counts["sim.events"],
            quarter_ops=_quarter_counts(times, 0.0, self.quarter_ms),
            checks=checks,
            digest=model_digest(material),
            counts=counts,
        )
        return Rep(setup_s, window_s, outputs, quarter_self_s=quarters.self_s,
                   reference_s=quarters.reference_s)


# ----------------------------------------------------------------------
# Conservative PDES over worker processes (pdes-2w)
# ----------------------------------------------------------------------

class _PdesProbe:
    """Window boundaries, worker memory and per-domain counts.

    The window opens at the first barrier advance (everything before it
    — fork, domain build, warmup, ready — is set-up) and closes when the
    last window's outboxes are back.  Every ``reference_every`` barrier
    windows the reference pass, if given, runs between two windows, and
    its time is kept out of the window's.  Worker peak RSS is read while
    the workers are still alive, just before they are told to finish.

    Each domain also reports, wherever it is hosted, the ops its
    generator made (its op counter) and the events its kernel fired
    after warmup.  They ride back on the domain's result payload under
    :data:`EXTRA` and are taken off it before the program summarises the
    results, so the summary and its digest are unchanged.
    """

    EXTRA = "perfbench"

    def __init__(self, host_cls: Any, tracer: Any = None,
                 on_finish: Optional[Callable[[Any], None]] = None,
                 reference: Optional[Callable[[], float]] = None,
                 reference_every: int = 1) -> None:
        self.host_cls = host_cls
        self.tracer = tracer
        self.on_finish = on_finish
        self.reference = reference
        self.reference_every = reference_every
        self.reference_s: List[float] = []
        self.paused = 0.0
        self.first_advance: Optional[float] = None
        self.last_window: Optional[float] = None
        self.windows_done = 0
        self.hosts_back = 0  # replies since the last advance
        self.worker_rss_mib = 0.0
        self.results: Optional[Dict[str, Any]] = None
        self.domains: Dict[str, Dict[str, int]] = {}

    def patches(self) -> List[Tuple[Any, str, Any]]:
        cls = self.host_cls
        send_advance, recv_window = cls.send_advance, cls.recv_window
        send_finish = cls.send_finish
        build_summary = pdes_coordinator.build_summary
        start, finish = SimDomain.start, SimDomain.finish
        warm_events: Dict[str, int] = {}  # per process: filled where the domain runs

        def observed_start(domain: Any) -> None:
            start(domain)
            warm_events[domain.domain_id] = domain.sim.events_fired

        def counted_finish(domain: Any) -> Dict[str, Any]:
            if self.on_finish is not None:
                self.on_finish(domain)
            payload = finish(domain)
            payload[self.EXTRA] = {
                "generated": domain._op_seq,
                "window_events": domain.sim.events_fired - warm_events[domain.domain_id],
            }
            return payload

        def observed_advance(host: Any, *args: Any) -> Any:
            if self.first_advance is None:
                self.first_advance = time.perf_counter()
            elif self.hosts_back:  # every host replied: a new window starts
                self.hosts_back = 0
                self.windows_done += 1
                if self.reference is not None and self.windows_done % self.reference_every == 0:
                    paused = time.perf_counter()
                    self.reference_s.append(self.reference())
                    self.paused += time.perf_counter() - paused
            return send_advance(host, *args)

        def observed_window(host: Any) -> Any:
            out = recv_window(host)
            self.last_window = time.perf_counter()
            self.hosts_back += 1
            return out

        def observed_finish(host: Any) -> Any:
            if self.tracer is not None:
                self.tracer.end()  # the window is over
            proc = getattr(host, "_proc", None)
            if proc is not None and proc.pid is not None:
                self.worker_rss_mib += vm_hwm_mib(proc.pid)
            return send_finish(host)

        def kept_results(config: Any, results: Any, *args: Any) -> Any:
            self.domains = {did: r.pop(self.EXTRA) for did, r in sorted(results.items())}
            self.results = results
            return build_summary(config, results, *args)

        return [
            (cls, "send_advance", observed_advance),
            (cls, "recv_window", observed_window),
            (cls, "send_finish", observed_finish),
            (SimDomain, "start", observed_start),
            (SimDomain, "finish", counted_finish),
            (pdes_coordinator, "build_summary", kept_results),
        ]


class _WorkerSpill:
    """Trace the simulation inside forked PDES workers.

    Workers inherit the parent's patched classes and tracer when they
    fork.  Each one starts recording at its first barrier window, counts
    as its window only the time spent advancing domains (not waiting on
    the pipe), and writes its spans and aggregates before it reports its
    results, so the coordinator can collect them once the run is over.
    Creating a spill removes the files of the previous traced run.
    :attr:`on_finish` is the hook the :class:`_PdesProbe` calls as each
    domain finishes.
    """

    def __init__(self, tracer: Any, workload: str) -> None:
        self.tracer = tracer
        self.prefix = os.path.join(tracer.spill_dir or ".", f"trace-{workload}-worker-")
        self.parent = os.getpid()
        for stale in glob.glob(self.prefix + "*"):
            os.remove(stale)

    def patches(self) -> List[Tuple[Any, str, Any]]:
        tracer, parent, prefix = self.tracer, self.parent, self.prefix
        run_window = pdes_worker._run_window
        state = {"window_s": 0.0, "started": False, "written": False}

        def traced_window(domains: Any, until: float, incoming: Any) -> Any:
            if os.getpid() == parent:
                return run_window(domains, until, incoming)
            if not state["started"]:
                state["started"] = True
                tracer.begin(forked=True)
            start = time.perf_counter()
            try:
                return run_window(domains, until, incoming)
            finally:
                state["window_s"] += time.perf_counter() - start

        def traced_finish(domain: Any) -> None:
            if os.getpid() != parent and not state["written"]:
                state["written"] = True
                tracer.end()
                stats = tracer.stats(state["window_s"])
                tracer.write(prefix + domain.domain_id, {"stats": stats.to_json()})

        self.on_finish = traced_finish
        return [(pdes_worker, "_run_window", traced_window)]

    def collect(self) -> List[TraceStats]:
        stats = []
        for path in sorted(glob.glob(self.prefix + "*.json")):
            with open(path) as header:
                stats.append(TraceStats.from_json(json.load(header)["stats"]))
        return stats


@dataclass(frozen=True)
class PdesFleet:
    """Four single-shard domains behind the lookahead barrier."""

    name: str = "pdes-2w"
    workers: int = 2
    n_domains: int = 4
    rate_per_tick: float = 0.2
    inter_domain_hops: int = 500
    window_ms: float = 480_000.0
    warmup_ms: float = 60_000.0
    loop: str = "open"
    #: Barrier windows between reference passes: 9 passes in 480 windows.
    reference_every: int = 48

    def config(self, seed: int, workers: Optional[int] = None) -> PdesConfig:
        return PdesConfig(
            seed=seed, n_domains=self.n_domains, shards_per_domain=1,
            rate_per_tick=self.rate_per_tick,
            inter_domain_hops=self.inter_domain_hops,
            duration=self.window_ms, warmup=self.warmup_ms,
            workers=self.workers if workers is None else workers,
        )

    def rep(self, seed: int, tracer: Any = None,
            reference: Optional[Callable[[], float]] = None,
            workers: Optional[int] = None) -> Rep:
        config = self.config(seed, workers)
        parallel = config.workers > 1 and config.n_domains > 1
        host_cls = pdes_worker.ProcessHost if parallel else pdes_worker.InlineHost
        patches: List[Tuple[Any, str, Any]] = []
        on_finish = None
        if tracer is not None:
            spill = _WorkerSpill(tracer, self.name)
            patches += spill.patches()
            on_finish = spill.on_finish
        probe = _PdesProbe(host_cls, tracer, on_finish, reference, self.reference_every)
        patches += probe.patches()
        if tracer is not None:
            tracer.begin()
        with patched(patches):
            t0 = time.perf_counter()
            coordinator = PdesCoordinator(config)
            summary = coordinator.run()
        if tracer is not None:
            tracer.end()
            tracer.worker_stats = spill.collect()
        assert probe.first_advance is not None and probe.last_window is not None
        assert probe.results is not None
        setup_s = probe.first_advance - t0
        window_s = probe.last_window - probe.first_advance - probe.paused
        merged = merged_registry(probe.results)
        latencies = sorted(
            merged.histogram("pdes.latency").values()
            + merged.histogram("pdes.remote_latency").values()
        )
        totals = summary["totals"]
        snapshot = summary["metrics"]
        checks: Dict[str, bool] = {"smr_safety": bool(totals["safe"])}
        router_inflight = 0.0
        for did, dom in summary["domains"].items():
            inflight = sum(
                v for k, v in snapshot.items()
                if k.startswith(f"shard.{did}.") and k.endswith(".inflight")
            )
            router_inflight += inflight
            checks[f"{did}.safety"] = bool(dom["safe"])
            # Every op a domain's router took resolved or is still in it.
            checks[f"{did}.router_accounting"] = (
                dom["local_submitted"] + dom["remote_in"]
                == dom["completed_ok"] + dom["completed_failed"] + inflight
            )
        # Remote ops leave one domain and either arrive, are shed on
        # arrival, or are still on the inter-region link at the end.
        unaccounted = totals["remote_out"] - totals["remote_in"] - totals["in_flight_at_end"]
        checks["interconnect_accounting"] = 0 <= unaccounted <= totals["shed"]
        in_flight = int(router_inflight) + totals["in_flight_at_end"]
        completed = totals["completed_ok"]
        failed = totals["completed_failed"]
        shed = totals["shed"]
        # Offered is counted at the generators, independently of how the
        # ops ended; every one of them must be accounted for.
        offered = sum(d["generated"] for d in probe.domains.values())
        checks["offered_accounting"] = offered == completed + failed + shed + in_flight
        window_events = sum(d["window_events"] for d in probe.domains.values())
        counts = {
            "sim.events": window_events,
            "noc.packets": snapshot.get("noc.delivered", 0.0) + snapshot.get("noc.dropped", 0.0),
            "noc.delivered": snapshot.get("noc.delivered", 0.0),
            "noc.dropped": snapshot.get("noc.dropped", 0.0),
            "noc.flit_hops": snapshot.get("noc.flit_hops", 0.0),
            "pdes.windows": coordinator.n_windows,
            "pdes.remote_ops": totals["remote_out"],
        }
        outputs = Outputs(
            offered=offered,
            completed=completed,
            shed=shed,
            failed=failed,
            in_flight=in_flight,
            latencies_ms=latencies,
            window_sim_s=self.window_ms / 1000.0,
            events=window_events,
            quarter_ops=[],
            checks=checks,
            digest=hashlib.sha256(summary_bytes(summary)).hexdigest(),
            counts=counts,
        )
        return Rep(setup_s, window_s, outputs, worker_rss_mib=probe.worker_rss_mib,
                   reference_s=probe.reference_s)


WORKLOADS: Dict[str, Any] = {
    "shard-write": ShardService(
        name="shard-write", protocol="pbft", n_shards=4, read_ratio=0.1,
        batching=BatchConfig(batch_size=8, batch_delay=100.0, max_inflight=4),
    ),
    "shard-read-leased": ShardService(
        name="shard-read-leased", protocol="minbft", n_shards=2, read_ratio=0.9,
        leases=LeaseConfig(n_ranges=64, duration=30_000.0, renew_period=1_000.0),
    ),
    "group-crash-history": GroupCrashHistory(),
    "pdes-2w": PdesFleet(),
}

__all__ = ["Outputs", "Rep", "WORKLOADS", "ArrivalProbe", "QUARTERS"]
