"""Span tracer for the benchmark's traced run.

Spans are recorded from outside the program: the tracer wraps
``Simulator.schedule_at`` so every fired callback becomes a span, and it
wraps the public entry points of synchronous cross-layer calls listed in
:data:`ENTRY_POINTS`.  Nothing in ``src/`` knows it is being traced, and
the wrappers never change what the simulation does — the benchmark
checks that traced and untraced runs produce the same model digest.

A span has an id, a layer, a name, a start and an end (host seconds), a
*cause* (the span that was active when the work was requested: for an
event, the span that scheduled it) and a *parent* (the span it ran
inside, synchronously).  A layer's self time is the sum over its spans
of the span's duration minus the durations of its direct children.

The tracer times its own bookkeeping around every span and every
scheduled callback and keeps it out of the layers' self time and out of
the kernel loop's share: it is reported as the tracer's own seconds.
What it cannot time — the call into the wrapper before its first clock
read and the dispatch between a span's clock reads and the real work —
stays in the kernel's or the layer's share.

Spans are kept in memory in compact columns and written out by
:meth:`Tracer.write` when the benchmark ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from array import array
from dataclasses import dataclass
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Layer for callbacks defined outside the ``repro`` package.
OTHER = "other"

#: Synchronous cross-layer entry points, wrapped during the traced run:
#: ``(layer, module, class or None for module functions, attributes)``.
ENTRY_POINTS: Tuple[Tuple[str, str, Optional[str], Tuple[str, ...]], ...] = (
    ("noc", "repro.noc.network", "NocNetwork", ("send", "multicast")),
    ("soc", "repro.soc.node", "Node", ("send", "broadcast", "charge", "deliver")),
    ("crypto", "repro.crypto.mac", "Authenticator", ("create", "verify")),
    ("crypto", "repro.crypto.mac", None,
     ("compute_mac", "compute_mac_bytes", "verify_mac", "verify_mac_bytes", "digest")),
    ("hybrids", "repro.hybrids.usig", "Usig", ("create_ui",)),
    ("hybrids", "repro.hybrids.usig", "UsigVerifier", ("verify_ui", "accept_sequential")),
    ("shard", "repro.shard.router", "ShardRouter", ("submit", "on_message")),
    ("mesoscale", "repro.mesoscale.admission", "AdmissionController", ("decide",)),
    ("metrics", "repro.metrics.collectors", "Histogram", ("observe",)),
    ("core", "repro.core.rejuvenation", "RejuvenationScheduler", ("rejuvenate_now",)),
    ("fabric", "repro.fabric.icap", "IcapPort", ("write",)),
    ("pdes", "repro.pdes.worker", "ProcessHost",
     ("start", "wait_ready", "send_advance", "recv_window")),
)

_TIMER_MODULE = "repro.sim.timers"


def layer_of_module(module: Optional[str]) -> str:
    """``repro.<package>...`` → ``<package>``; anything else → :data:`OTHER`."""
    if module and module.startswith("repro."):
        return module.split(".", 2)[1]
    return OTHER


def resolve_callback(callback: Any) -> Tuple[str, str]:
    """The ``(module, qualified name)`` that defines a scheduled callback.

    Looks through ``functools.partial``, the ``sim.timers`` wrappers
    (``PeriodicTimer``/``Timeout`` schedule their own bound methods and
    call the user's ``callback`` from them) and bound methods, whose
    owner is the *instance's* class — so ``Node._handle_if_alive`` bound
    to a PBFT replica belongs to the replica's module, not ``repro.soc``.
    Lambdas and plain functions belong to the module that defines them.
    """
    for _ in range(16):
        if isinstance(callback, functools.partial):
            callback = callback.func
            continue
        owner = getattr(callback, "__self__", None)
        if owner is not None and not isinstance(owner, type(sys)):
            cls = type(owner)
            if cls.__module__ == _TIMER_MODULE and hasattr(owner, "callback"):
                callback = owner.callback
                continue
            name = getattr(callback, "__name__", "?")
            return cls.__module__, f"{cls.__qualname__}.{name}"
        module = getattr(callback, "__module__", None) or ""
        return module, getattr(callback, "__qualname__", repr(callback))
    return "", repr(callback)


@dataclass
class TraceStats:
    """Per-layer aggregates of one traced window, mergeable across processes."""

    window_s: float
    #: Total duration of top-level spans (kernel events, or host calls),
    #: plus the tracer's own measured seconds outside them.
    top_level_s: float
    self_s: Dict[str, float]
    #: Span name -> (layer, calls, total seconds).
    names: Dict[str, Tuple[str, int, float]]
    #: The tracer's own measured seconds (in no layer's self time).
    tracer_s: float = 0.0

    @property
    def kernel_s(self) -> float:
        """Window time outside every top-level span and the tracer's own time."""
        return self.window_s - self.top_level_s

    def attributed_frac(self) -> float:
        """Share of the window, net of the tracer's own time, that is
        self time of a named layer: neither the kernel loop nor a
        callback defined outside the program."""
        net = self.window_s - self.tracer_s
        named = sum(s for layer, s in self.self_s.items() if layer != OTHER)
        return named / net if net > 0 else 0.0

    def calls(self, *names: str) -> int:
        return sum(self.names[n][1] for n in names if n in self.names)

    def seconds(self, *names: str) -> float:
        return sum(self.names[n][2] for n in names if n in self.names)

    def layer_calls(self, layer: str, prefix: str = "") -> int:
        return sum(
            calls for name, (lay, calls, _) in self.names.items()
            if lay == layer and name.startswith(prefix)
        )

    @classmethod
    def merged(cls, parts: List["TraceStats"]) -> "TraceStats":
        """Sum of several windows' aggregates (e.g. one per worker)."""
        self_s: Dict[str, float] = {}
        names: Dict[str, Tuple[str, int, float]] = {}
        for part in parts:
            for layer, seconds in part.self_s.items():
                self_s[layer] = self_s.get(layer, 0.0) + seconds
            for name, (layer, calls, seconds) in part.names.items():
                _, c, s = names.get(name, (layer, 0, 0.0))
                names[name] = (layer, c + calls, s + seconds)
        return cls(
            window_s=sum(p.window_s for p in parts),
            top_level_s=sum(p.top_level_s for p in parts),
            self_s=self_s, names=names,
            tracer_s=sum(p.tracer_s for p in parts),
        )

    def to_json(self) -> Dict[str, Any]:
        return {
            "window_s": self.window_s, "top_level_s": self.top_level_s,
            "self_s": self.self_s,
            "names": {k: list(v) for k, v in self.names.items()},
            "tracer_s": self.tracer_s,
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "TraceStats":
        return cls(
            window_s=data["window_s"], top_level_s=data["top_level_s"],
            self_s=dict(data["self_s"]),
            names={k: (v[0], int(v[1]), float(v[2])) for k, v in data["names"].items()},
            tracer_s=data["tracer_s"],
        )


class Tracer:
    """Records nested spans and per-layer self time.

    ``clock`` is injectable so the self-time arithmetic can be tested
    with a fake clock.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.layers: List[str] = []
        self._layer_ids: Dict[str, int] = {}
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._callback_cache: Dict[Any, Tuple[int, int]] = {}
        # Active spans: [span id, child time] per frame.
        self._stack: List[List[Any]] = []
        self._next_id = 1
        self.recording = False
        #: Directory where forked worker processes write their spans.
        self.spill_dir: Optional[str] = None
        #: Stats harvested from forked worker processes.
        self.worker_stats: List["TraceStats"] = []
        self._reset_stats()

    # ------------------------------------------------------------------
    # Ids
    # ------------------------------------------------------------------
    def layer_id(self, layer: str) -> int:
        lid = self._layer_ids.get(layer)
        if lid is None:
            lid = self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
            self.self_time.append(0.0)
        return lid

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.name_time.append(0.0)
            self.name_layer.append(-1)
        return nid

    def _reset_stats(self) -> None:
        self.self_time: List[float] = [0.0] * len(self.layers)
        self.calls: List[int] = [0] * len(self.names)
        self.name_time: List[float] = [0.0] * len(self.names)
        self.name_layer: List[int] = [-1] * len(self.names)
        #: Total duration of top-level spans (those with no parent),
        #: plus the tracer's own time outside them.
        self.top_level_s = 0.0
        #: The tracer's own measured time.
        self.tracer_s = 0.0
        self.span_id = array("q")
        self.span_cause = array("q")
        self.span_parent = array("q")
        self.span_layer = array("i")
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def begin(self, forked: bool = False) -> None:
        """Drop everything recorded so far and start recording.

        A forked worker inherits its parent's active spans, which never
        end in the child; ``forked=True`` discards them.
        """
        if forked:
            self._stack.clear()
        if self._stack:
            raise RuntimeError("cannot reset the tracer inside an active span")
        self._reset_stats()
        self.recording = True

    def end(self) -> None:
        """Stop recording (wrappers keep passing calls straight through)."""
        self.recording = False

    def current(self) -> int:
        """Id of the innermost active span, 0 when none is active."""
        return self._stack[-1][0] if self._stack else 0

    def call(self, layer: int, name: int, cause: int, fn: Callable[..., Any],
             args: Tuple[Any, ...], kwargs: Dict[str, Any],
             entered: Optional[float] = None) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span.

        The bookkeeping before ``start`` and after ``end`` is timed too
        and counted as the tracer's own: the enclosing span sees this
        span's whole footprint as child time.  A wrapper that read the
        clock on entry passes it as ``entered``.
        """
        if not self.recording:
            return fn(*args, **kwargs)
        clock = self.clock
        if entered is None:
            entered = clock()
        stack = self._stack
        span = self._next_id
        self._next_id += 1
        frame = [span, 0.0]
        stack.append(frame)
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
            duration = end - start
            parent_frame = stack[-1] if stack else None
            parent = parent_frame[0] if parent_frame else 0
            self.self_time[layer] += duration - frame[1]
            self.calls[name] += 1
            self.name_time[name] += duration
            self.name_layer[name] = layer
            self.span_id.append(span)
            self.span_cause.append(cause or parent)
            self.span_parent.append(parent)
            self.span_layer.append(layer)
            self.span_name.append(name)
            self.span_start.append(start)
            self.span_end.append(end)
            own = start - entered + clock() - end
            self.tracer_s += own
            if parent_frame is not None:
                parent_frame[1] += duration + own
            else:
                self.top_level_s += duration + own

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def event_ids(self, callback: Any) -> Tuple[int, int]:
        """``(layer id, name id)`` of a scheduled callback (cached)."""
        key = callback
        owner = getattr(callback, "__self__", None)
        if owner is not None:
            if type(owner).__module__ == _TIMER_MODULE:
                key = None  # the timer's target varies per instance
            else:
                key = (type(owner), getattr(callback, "__func__", None))
        elif isinstance(callback, functools.partial):
            key = None
        else:
            key = getattr(callback, "__code__", None)
        if key is not None:
            hit = self._callback_cache.get(key)
            if hit is not None:
                return hit
        module, qualname = resolve_callback(callback)
        ids = (self.layer_id(layer_of_module(module)), self.name_id(f"event:{qualname}"))
        if key is not None:
            self._callback_cache[key] = ids
        return ids

    def wrap_event(self, callback: Callable[..., Any]) -> Callable[..., Any]:
        """The callback the kernel fires instead of ``callback``.

        While recording, the time spent wrapping is the tracer's own.
        """
        started = self.clock()
        layer, name = self.event_ids(callback)
        cause = self.current()

        clock = self.clock

        def fire(*args: Any) -> Any:
            return self.call(layer, name, cause, callback, args, {}, clock())

        if self.recording:
            own = self.clock() - started
            self.tracer_s += own
            if self._stack:
                self._stack[-1][1] += own
            else:
                self.top_level_s += own
        return fire

    def wrap_entry(self, layer: str, qualname: str,
                   fn: Callable[..., Any]) -> Callable[..., Any]:
        """A synchronous entry point recorded as a span of ``layer``."""
        lid = self.layer_id(layer)
        nid = self.name_id(qualname)

        clock = self.clock

        @functools.wraps(fn)
        def entry(*args: Any, **kwargs: Any) -> Any:
            return self.call(lid, nid, 0, fn, args, kwargs, clock())

        return entry

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def self_seconds(self) -> Dict[str, float]:
        """Self time per layer over the recorded spans."""
        return {layer: self.self_time[i] for i, layer in enumerate(self.layers)}

    def stats(self, window_s: float) -> "TraceStats":
        """Aggregates of the recorded spans over a window of ``window_s``."""
        return TraceStats(
            window_s=window_s,
            top_level_s=self.top_level_s,
            self_s=self.self_seconds(),
            tracer_s=self.tracer_s,
            names={
                name: (self.layers[self.name_layer[i]], self.calls[i], self.name_time[i])
                for i, name in enumerate(self.names) if self.calls[i]
            },
        )

    def write(self, path_prefix: str, extra: Dict[str, Any]) -> List[str]:
        """Write the recorded spans: a JSON header plus raw columns.

        ``<prefix>.json`` names the layers, span names and columns;
        ``<prefix>.bin`` holds the columns back to back, in header order.
        """
        columns = [
            ("id", self.span_id), ("cause", self.span_cause),
            ("parent", self.span_parent), ("layer", self.span_layer),
            ("name", self.span_name), ("start", self.span_start),
            ("end", self.span_end),
        ]
        header = {
            "spans": len(self.span_id),
            "layers": self.layers,
            "names": self.names,
            "columns": [
                {"name": name, "typecode": col.typecode, "itemsize": col.itemsize}
                for name, col in columns
            ],
            **extra,
        }
        os.makedirs(os.path.dirname(path_prefix) or ".", exist_ok=True)
        with open(path_prefix + ".bin", "wb") as out:
            for _, col in columns:
                col.tofile(out)
        with open(path_prefix + ".json", "w") as out:
            json.dump(header, out, indent=1, sort_keys=True)
        return [path_prefix + ".json", path_prefix + ".bin"]


@contextmanager
def patched(patches: List[Tuple[Any, str, Any]]) -> Iterator[None]:
    """Set each ``(object, attribute, value)`` while active, then restore."""
    originals = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
    try:
        for obj, attr, value in patches:
            setattr(obj, attr, value)
        yield
    finally:
        for obj, attr, value in reversed(originals):
            setattr(obj, attr, value)


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap the kernel's scheduler and every entry point while active.

    Class attributes are patched, and module functions are patched in
    every loaded ``repro`` module that imported them, under whatever
    name; all are restored on exit.  Only the traced system should run meanwhile.
    """
    from repro.sim.simulator import Simulator

    original_schedule_at = Simulator.schedule_at

    # ``schedule`` and ``call_soon`` both go through ``schedule_at``,
    # so wrapping it covers all three scheduling calls exactly once.
    def schedule_at(sim: Any, when: float, callback: Callable[..., Any],
                    *args: Any, priority: int = 0) -> Any:
        return original_schedule_at(
            sim, when, tracer.wrap_event(callback), *args, priority=priority
        )

    patches: List[Tuple[Any, str, Any]] = [(Simulator, "schedule_at", schedule_at)]
    for layer, module_name, class_name, attrs in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        if class_name is not None:
            cls = getattr(module, class_name)
            for attr in attrs:
                fn = cls.__dict__[attr]
                patches.append(
                    (cls, attr, tracer.wrap_entry(layer, f"{class_name}.{attr}", fn))
                )
            continue
        for attr in attrs:
            fn = getattr(module, attr)
            wrapped = tracer.wrap_entry(layer, attr, fn)
            # Importers may have bound the function under another name
            # (``from repro.crypto.mac import digest as _digest``).
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("repro"):
                    continue
                for name, value in list(vars(loaded).items()):
                    if value is fn:
                        patches.append((loaded, name, wrapped))
    with patched(patches):
        yield tracer


__all__ = [
    "ENTRY_POINTS", "OTHER", "TraceStats", "Tracer", "installed", "layer_of_module",
    "patched", "resolve_callback",
]
