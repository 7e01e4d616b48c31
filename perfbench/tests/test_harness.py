"""Tests for the benchmark harness: attribution, self time, accounting, digests.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

from measure import MIN_BEYOND, failed_frac, failed_ops, import_seconds, percentile
from tracer import OTHER, TraceStats, Tracer, installed, layer_of_module, resolve_callback
from workloads import WORKLOADS

from repro.crypto.mac import digest
from repro.noc.network import NocNetwork
from repro.sim import Simulator
from repro.sim.timers import PeriodicTimer, Timeout

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def layer(callback):
    return layer_of_module(resolve_callback(callback)[0])


# ----------------------------------------------------------------------
# Callback -> layer attribution
# ----------------------------------------------------------------------

def test_bound_method_belongs_to_the_instance_class():
    sim = Simulator(seed=1)
    assert layer(sim.stop) == "sim"
    # A method defined on a base class in another package belongs to the
    # instance's own class: NocNetwork.send bound to a NocNetwork is noc.
    assert layer(NocNetwork.send.__get__(object.__new__(NocNetwork))) == "noc"


def test_inherited_method_is_attributed_to_the_subclass_module():
    from repro.bft.client import ClientNode

    client = ClientNode("c0")
    # _handle_if_alive is defined in repro.soc.node, but the work it does
    # is the client's on_message: the client's module decides.
    assert resolve_callback(client._handle_if_alive) == (
        "repro.bft.client", "ClientNode._handle_if_alive"
    )
    assert layer(client._handle_if_alive) == "bft"


def test_lambda_belongs_to_its_defining_module():
    in_shard = eval("lambda: None", {"__name__": "repro.shard.router"})
    assert layer(in_shard) == "shard"
    assert layer(lambda: None) == OTHER


def test_partial_is_looked_through():
    assert layer(functools.partial(digest, b"payload")) == "crypto"
    nested = functools.partial(functools.partial(digest), b"x")
    assert layer(nested) == "crypto"


def test_timer_wrappers_are_looked_through():
    sim = Simulator(seed=1)
    network = object.__new__(NocNetwork)
    target = NocNetwork.send.__get__(network)
    timer = PeriodicTimer(sim, 10.0, target)
    timeout = Timeout(sim, 10.0, functools.partial(digest, b"x"))
    # The kernel sees the timers' own bound methods ...
    assert layer(timer._fire) == "noc"
    assert layer(timeout._expire) == "crypto"
    # ... and the tracer resolves them per timer, not from a cache.
    tracer = Tracer()
    assert tracer.layers[tracer.event_ids(timer._fire)[0]] == "noc"
    assert tracer.layers[tracer.event_ids(timeout._expire)[0]] == "crypto"


def test_modules_outside_the_program_are_other():
    assert layer_of_module("repro.mesoscale.population") == "mesoscale"
    assert layer_of_module("workloads") == OTHER
    assert layer_of_module(None) == OTHER


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def work(self, seconds):
        self.now += seconds


def test_self_time_subtracts_direct_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    bft, noc, soc = (tracer.layer_id(n) for n in ("bft", "noc", "soc"))
    handle, send, hop = (tracer.name_id(n) for n in ("handle", "send", "hop"))
    tracer.begin()

    def do_hop():
        clock.work(2.0)

    def do_send():
        clock.work(1.0)
        tracer.call(noc, hop, 0, do_hop, (), {})
        clock.work(0.5)

    def do_handle():
        clock.work(3.0)
        tracer.call(soc, send, 0, do_send, (), {})
        tracer.call(soc, send, 0, do_send, (), {})

    tracer.call(bft, handle, 0, do_handle, (), {})
    # handle: 3 + 2 * (1 + 2 + 0.5) = 10 total, 3 of it its own.
    stats = tracer.stats(window_s=12.0)
    assert stats.self_s["bft"] == pytest.approx(3.0)
    assert stats.self_s["soc"] == pytest.approx(3.0)
    assert stats.self_s["noc"] == pytest.approx(4.0)
    assert stats.top_level_s == pytest.approx(10.0)
    assert stats.kernel_s == pytest.approx(2.0)
    assert sum(stats.self_s.values()) + stats.kernel_s == pytest.approx(12.0)
    assert stats.calls("send") == 2
    assert stats.seconds("send") == pytest.approx(7.0)
    # Spans are recorded as they end: hop, send, hop, send, handle.
    names = [tracer.names[n] for n in tracer.span_name]
    assert names == ["hop", "send", "hop", "send", "handle"]
    ids, parents = list(tracer.span_id), list(tracer.span_parent)
    handle_id = ids[4]
    assert parents == [ids[1], handle_id, ids[3], handle_id, 0]


class TickClock(FakeClock):
    """A fake clock whose every read itself takes ``tick`` seconds."""

    def __init__(self, tick):
        super().__init__()
        self.tick = tick

    def __call__(self):
        self.now += self.tick
        return self.now


def test_the_tracers_own_time_is_kept_out_of_layers_and_kernel():
    clock = TickClock(tick=0.01)
    tracer = Tracer(clock=clock)
    bft, noc = tracer.layer_id("bft"), tracer.layer_id("noc")
    handle, send = tracer.name_id("handle"), tracer.name_id("send")
    tracer.begin()
    window_start = clock.now

    def do_send():
        clock.work(2.0)

    def do_handle():
        clock.work(3.0)
        tracer.wrap_event(do_send)  # scheduling from inside the span
        tracer.call(noc, send, 0, do_send, (), {})

    tracer.call(bft, handle, 0, do_handle, (), {})
    clock.work(1.0)  # the kernel loop between events
    window = clock.now - window_start
    stats = tracer.stats(window)
    # A read's cost comes before the time it returns.  So each span keeps
    # its closing read in its own self time and leaves its opening read
    # in the enclosing span (or the kernel); wrapping a callback leaves
    # its first read in the scheduling span.  The rest of each span's
    # bookkeeping (two reads) and of the wrapping (one) is the tracer's.
    assert stats.self_s["bft"] == pytest.approx(3.0 + 3 * 0.01)
    assert stats.self_s["noc"] == pytest.approx(2.0 + 0.01)
    assert stats.tracer_s == pytest.approx(2 * 0.02 + 0.01)
    assert stats.kernel_s == pytest.approx(1.0 + 0.01)
    assert sum(stats.self_s.values()) + stats.tracer_s + stats.kernel_s == pytest.approx(window)
    assert stats.attributed_frac() == pytest.approx(5.04 / (window - stats.tracer_s))


def test_attributed_share_leaves_out_the_kernel_and_outside_callbacks():
    stats = TraceStats(window_s=10.0, top_level_s=8.0, tracer_s=1.0,
                       self_s={"bft": 5.0, "noc": 1.0, OTHER: 1.0}, names={})
    assert stats.kernel_s == pytest.approx(2.0)
    assert stats.attributed_frac() == pytest.approx(6.0 / 9.0)
    merged = TraceStats.merged([stats, stats])
    assert merged.tracer_s == pytest.approx(2.0)
    assert merged.attributed_frac() == pytest.approx(6.0 / 9.0)
    assert TraceStats.from_json(stats.to_json()) == stats


def test_event_span_cause_is_the_scheduling_span():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.begin()
    fired = []
    lid, nid = tracer.layer_id("bft"), tracer.name_id("schedule")
    captured = []

    def schedules():
        captured.append(tracer.wrap_event(lambda: fired.append(tracer.current())))

    tracer.call(lid, nid, 0, schedules, (), {})
    scheduler_span = tracer.span_id[-1]
    captured[0]()
    assert tracer.span_cause[-1] == scheduler_span
    assert tracer.span_parent[-1] == 0
    assert fired == [tracer.span_id[-1]]


def test_begin_refuses_inside_a_span_unless_forked():
    tracer = Tracer()
    tracer.begin()
    lid, nid = tracer.layer_id("x"), tracer.name_id("x")
    with pytest.raises(RuntimeError):
        tracer.call(lid, nid, 0, tracer.begin, (), {})
    # A forked worker inherits the frames open in its parent at fork
    # time; they never close in the child, so the child discards them.
    tracer._stack.append([99, 0.0])
    tracer.begin(forked=True)
    assert tracer.current() == 0


# ----------------------------------------------------------------------
# Percentiles and failure accounting
# ----------------------------------------------------------------------

def test_p99_needs_ten_samples_beyond_it():
    assert MIN_BEYOND == 10
    short = percentile(list(range(1, 1000)), 99)  # 999 samples
    assert (short.samples, short.beyond, short.valid) == (999, 9, False)
    enough = percentile(list(range(1, 1001)), 99)  # 1000 samples
    assert (enough.value, enough.beyond, enough.valid) == (990.0, 10, True)
    assert percentile([5.0], 50).value == 5.0
    assert percentile([], 99) == percentile([], 50)
    assert not percentile([], 99).valid


def test_failed_frac_counts_shed_and_failed_against_offered():
    assert failed_ops(offered=200, shed=3, failed=2, correct=True) == 5
    assert failed_frac(offered=200, shed=3, failed=2, correct=True) == 0.025
    assert failed_frac(offered=200, shed=0, failed=0, correct=True) == 0.0


def test_a_failed_check_counts_every_offered_op_as_failed():
    assert failed_ops(offered=200, shed=0, failed=0, correct=False) == 200
    assert failed_frac(offered=200, shed=0, failed=0, correct=False) == 1.0
    assert failed_frac(offered=0, shed=0, failed=0, correct=True) == 1.0


# ----------------------------------------------------------------------
# Digests: traced == untraced, parallel == inline
# ----------------------------------------------------------------------

SHORT = {
    "shard-read-leased": dict(window_ms=40_000.0),
    "group-crash-history": dict(quarter_ms=15_000.0, drain_ms=100_000.0),
}


@pytest.mark.parametrize("name", sorted(SHORT))
def test_tracing_leaves_the_model_digest_unchanged(name):
    workload = dataclasses.replace(WORKLOADS[name], **SHORT[name])
    plain = workload.rep(seed=3)
    tracer = Tracer()
    with installed(tracer):
        traced = workload.rep(seed=3, tracer=tracer)
    assert plain.outputs.digest == traced.outputs.digest
    assert all(traced.outputs.checks.values()), traced.outputs.checks
    assert traced.outputs.completed > 0
    stats = tracer.stats(traced.window_s)
    assert stats.self_s.get(OTHER, 0.0) == 0.0
    assert stats.top_level_s <= traced.window_s
    # The wrappers are gone once the context exits.
    again = workload.rep(seed=3)
    assert again.outputs.digest == plain.outputs.digest


def test_open_loop_latency_runs_from_the_generating_tick():
    workload = dataclasses.replace(WORKLOADS["shard-read-leased"], window_ms=40_000.0)
    rep = workload.rep(seed=2)
    out = rep.outputs
    assert out.checks["latency_samples"]
    assert out.offered == out.completed + out.in_flight + out.shed + out.failed
    # Every op waits at least until the router answers; arrival-based
    # latencies can only be longer than the router's own.
    assert out.latencies_ms[0] > 0


def test_pdes_digest_matches_the_inline_run():
    workload = dataclasses.replace(WORKLOADS["pdes-2w"], window_ms=20_000.0)
    parallel = workload.rep(seed=4)
    inline = workload.rep(seed=4, workers=1)
    assert parallel.outputs.digest == inline.outputs.digest
    assert all(parallel.outputs.checks.values()), parallel.outputs.checks
    assert "offered_accounting" in parallel.outputs.checks
    # Offered ops and window events are counted in the domains,
    # wherever they run, so both hostings report the same.
    assert parallel.outputs.offered == inline.outputs.offered > 0
    assert parallel.outputs.events == inline.outputs.events > 0
    assert parallel.worker_rss_mib > 0
    assert inline.worker_rss_mib == 0


def _pausing_reference(seconds):
    def reference():
        time.sleep(seconds)
        return seconds
    return reference


def test_reference_passes_run_outside_the_window():
    shard = dataclasses.replace(WORKLOADS["shard-read-leased"], window_ms=40_000.0)
    plain = shard.rep(seed=3)
    timed = shard.rep(seed=3, reference=_pausing_reference(0.5))
    assert timed.reference_s == [0.5] * 4  # one pass after each quarter
    assert timed.outputs.digest == plain.outputs.digest
    assert timed.window_s < 2.0  # the four pauses are not in the window
    # PDES: a pass after every 5th of 20 barrier windows, none after the last.
    pdes = dataclasses.replace(WORKLOADS["pdes-2w"], window_ms=20_000.0, reference_every=5)
    plain = pdes.rep(seed=4)
    timed = pdes.rep(seed=4, reference=_pausing_reference(1.0))
    assert timed.reference_s == [1.0] * 3
    assert timed.outputs.digest == plain.outputs.digest
    assert timed.window_s < 3.0


def test_pdes_events_cover_the_window_only():
    workload = dataclasses.replace(WORKLOADS["pdes-2w"], window_ms=10_000.0, workers=1)
    short = workload.rep(seed=4).outputs.events
    longer = dataclasses.replace(workload, window_ms=20_000.0).rep(seed=4).outputs.events
    # Warmup is the same for both; with it counted, the ratio would be
    # well below two.
    assert longer > 1.8 * short


def test_a_fresh_import_leaves_the_loaded_modules_in_place():
    loaded = dict(sys.modules)
    seconds = import_seconds("workloads", ("workloads", "measure", "tracer", "repro"))
    assert seconds > 0
    assert sys.modules == loaded
    with pytest.raises(RuntimeError):
        import_seconds("no_such_module_anywhere", ("no_such_module_anywhere",))


# ----------------------------------------------------------------------
# The command line
# ----------------------------------------------------------------------

def test_without_program_sources_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pdes-2w", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_benchmark_spec_matches_the_metrics_the_run_prints():
    import run

    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
