"""Outside-in layer tracer for the benchmark's traced runs.

The tracer installs timing wrappers on each layer's public entry points
(the list below), records one span per call, and derives per-layer self
time from the spans afterwards.  Nothing inside ``src/`` knows about it:
the wrappers replace class attributes and module functions for the
duration of a traced section and put the originals back afterwards.

Wrappers must go in before any ``Machine`` is built, because the fast
replay engine binds ``Core.exec_*`` to locals when its thread generators
start; a generator started before installation keeps the unwrapped
methods.  Work that the fast engine inlines (it transcribes the
``ThreadAPI`` lowering) therefore lands in ``replay.self_s``.

A span is ``(name, start, end, parent, op)``.  Spans are appended to
flat ``array`` columns so a traced pass of a few million calls stays a
few tens of bytes per call, and are written out once, at the end.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: Layer of the spans the benchmark opens around its own calls; their
#: self time is everything no wrapped entry point covers.
OTHER = "other"

#: ``(layer, module, class or None, attributes)``.  ``None`` wraps module
#: functions; a class entry also wraps subclasses that override the
#: attribute.  ``"exec_*"`` expands to every ``exec_`` method.
TARGETS: Tuple[Tuple[str, str, Optional[str], Tuple[str, ...]], ...] = (
    ("workloads", "repro.harness.runner", None, ("prepare_workload",)),
    ("workloads", "repro.workloads.base", "Workload", ("setup",)),
    ("replay.compile", "repro.sim.replay", None, ("compile_trace",)),
    ("replay", "repro.sim.replay", None, ("run_compiled",)),
    ("txn", "repro.txn.runtime", "ThreadAPI", ("tx_begin", "tx_commit", "read", "write")),
    ("core", "repro.sim.core", "Core", ("exec_*",)),
    (
        "hierarchy",
        "repro.sim.hierarchy",
        "CacheHierarchy",
        ("load", "load_fast", "store_prepare", "store_finish", "clwb", "force_writeback"),
    ),
    ("hierarchy", "repro.sim.cache", "SetAssociativeCache", ("lookup", "fill")),
    ("memctrl", "repro.sim.memctrl", "MemoryController", ("read", "write", "retire")),
    ("nvram", "repro.sim.nvram", "NVRAM", ("read", "write", "poke")),
    ("log", "repro.core.hwl", "HardwareLogging", ("on_store", "on_tx_commit")),
    ("log", "repro.core.logbuffer", "LogBuffer", ("push",)),
    ("log", "repro.core.nvlog", "CircularLog", ("place",)),
    ("log", "repro.core.logrecord", "LogRecord", ("encode",)),
    ("fwb", "repro.core.fwb", "ForceWriteBack", ("scan",)),
    ("recovery", "repro.core.recovery", "RecoveryManager", ("recover",)),
    ("sched", "repro.sched.shard", "ShardMachine", ("step",)),
    ("sched", "repro.sched.loop", "EventLoopScheduler", ("run_open_loop",)),
    ("repl", "repro.sched.replicate", "ShardReplicator", ("on_horizon",)),
    ("repl", "repro.dist.node", "ReplicaNode", ("compact_below",)),
)

#: Every layer that reports self time, in report order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(target[0] for target in TARGETS)) + (OTHER,)


#: Counters read at the wrappers: ``(span name, counter, read(args,
#: result))``; each call adds ``read``'s value to the counter.
COUNTERS: Tuple[Tuple[str, str, Callable], ...] = (
    ("prepare_workload", "workloads.image_bytes", lambda _a, out: len(out.image_prefix)),
    ("run_compiled", "replay.ops", lambda args, _out: args[0].op_count()),
    ("ShardMachine.step", "sched.steps", lambda _a, advances: advances),
    ("ShardReplicator.on_horizon", "repl.shipped", lambda _a, shipped: shipped),
    ("RecoveryManager.recover", "recovery.records_scanned", lambda _a, out: out.records_scanned),
    ("RecoveryManager.recover", "recovery.torn_skipped", lambda _a, out: out.torn_records_skipped),
)


class SpanLog:
    """In-memory span store plus counters taken at the wrappers."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layers: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_ix = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack: List[int] = []
        self.op_id = -1
        self.counters: Dict[str, int] = {}

    def name_id(self, name: str, layer: str) -> int:
        """Intern ``name`` (belonging to ``layer``) in the name table."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return nid

    def __len__(self) -> int:
        return len(self.start)

    def record(
        self, name: str, layer: str, start: float, end: float, parent: int = -1, op: int = -1
    ) -> int:
        """Append a finished span directly (tests and root spans)."""
        idx = len(self.start)
        self.name_ix.append(self.name_id(name, layer))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.op.append(op)
        return idx

    @contextmanager
    def span(self, name: str, layer: str = OTHER):
        """Open a span around a block of the benchmark's own code."""
        idx = self.record(name, layer, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op_id)
        self.stack.append(idx)
        self.start[idx] = time.perf_counter()
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self.stack.pop()

    def wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        """A timing wrapper around ``fn`` that records into this log."""
        nid = self.name_id(name, layer)
        readers = [(counter, read) for span, counter, read in COUNTERS if span == name]
        name_ix, start, end = self.name_ix, self.start, self.end
        parent, op, stack, counters = self.parent, self.op, self.stack, self.counters
        clock = time.perf_counter
        log = self

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_ix.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(log.op_id)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            for counter, read in readers:
                counters[counter] = counters.get(counter, 0) + read(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # ------------------------------------------------------------------
    def calls(self) -> Dict[str, int]:
        """Number of spans per name."""
        counts = [0] * len(self.names)
        for nid in self.name_ix:
            counts[nid] += 1
        return {name: counts[nid] for nid, name in enumerate(self.names)}

    def _covered(self) -> array:
        """Per span, the time covered by the union of its children.

        Children of one parent arrive in start order (the log is written
        in call order), so the union is accumulated in one pass: each
        child adds only the part of its interval past the furthest end
        already covered under that parent.
        """
        n = len(self.start)
        start, end, parent = self.start, self.end, self.parent
        covered = array("d", bytes(8 * n))
        reach = array("d", bytes(8 * n))
        for idx in range(n):
            p = parent[idx]
            if p < 0:
                continue
            lo = start[idx]
            if reach[p] > lo:
                lo = reach[p]
            hi = end[idx]
            if hi > lo:
                covered[p] += hi - lo
                reach[p] = hi
        return covered

    def self_times(self) -> List[float]:
        """Per-span self time: duration minus the time children cover."""
        covered = self._covered()
        return [e - s - c for s, e, c in zip(self.start, self.end, covered)]

    def layer_self_seconds(self) -> Dict[str, float]:
        """Self time summed per layer (every layer in :data:`LAYERS`)."""
        by_name = [0.0] * len(self.names)
        for nid, s, e, c in zip(self.name_ix, self.start, self.end, self._covered()):
            by_name[nid] += e - s - c
        totals = dict.fromkeys(LAYERS, 0.0)
        for nid, seconds in enumerate(by_name):
            totals[self.layers[nid]] += seconds
        return totals

    def layers_seen(self) -> Dict[str, int]:
        """Span count per layer."""
        counts: Dict[str, int] = {}
        for name, calls in self.calls().items():
            layer = self.layers[self._ids[name]]
            counts[layer] = counts.get(layer, 0) + calls
        return counts

    def write(self, path) -> None:
        """Write every span (gzip: one JSON header line, then the columns)."""
        header = {
            "names": self.names,
            "layers": self.layers,
            "spans": len(self.start),
            "columns": ["name_ix:H", "start:d", "end:d", "parent:i", "op:i"],
        }
        with gzip.open(path, "wb", compresslevel=1) as out:
            out.write(json.dumps(header).encode() + b"\n")
            for column in (self.name_ix, self.start, self.end, self.parent, self.op):
                column.tofile(out)

    @classmethod
    def read(cls, path) -> "SpanLog":
        """Load a span file written by :meth:`write`."""
        log = cls()
        with gzip.open(path, "rb") as src:
            header = json.loads(src.readline())
            n = header["spans"]
            for name, layer in zip(header["names"], header["layers"]):
                log.name_id(name, layer)
            for column in (log.name_ix, log.start, log.end, log.parent, log.op):
                column.frombytes(src.read(n * column.itemsize))
        return log


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------
def _subclasses(cls) -> Iterable[type]:
    seen = []
    todo = [cls]
    while todo:
        klass = todo.pop()
        if klass in seen:
            continue
        seen.append(klass)
        todo.extend(klass.__subclasses__())
    return seen


class Installation:
    """Wrappers currently in place; :meth:`remove` restores the originals."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def patch(self, owner, attr: str, value) -> None:
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, value)

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def install(log: SpanLog) -> Installation:
    """Wrap every entry point in :data:`TARGETS` to record into ``log``."""
    # Concrete workloads must exist before Workload.setup overrides are
    # collected.
    importlib.import_module("repro.workloads")
    importlib.import_module("repro.workloads.whisper")
    done = Installation()
    for layer, module_name, class_name, attrs in TARGETS:
        module = importlib.import_module(module_name)
        if class_name is None:
            for attr in attrs:
                original = getattr(module, attr)
                wrapped = log.wrap(original, attr, layer)
                # Modules that imported the function by name hold their
                # own reference; rebind those too.
                for name, other in list(sys.modules.items()):
                    ours = name == "repro" or name.startswith("repro.")
                    if ours and getattr(other, attr, None) is original:
                        done.patch(other, attr, wrapped)
            continue
        base = getattr(module, class_name)
        for klass in _subclasses(base):
            names = [
                name
                for pattern in attrs
                for name in (
                    sorted(n for n in vars(klass) if n.startswith(pattern[:-1]))
                    if pattern.endswith("*")
                    else [pattern]
                )
            ]
            for attr in names:
                original = vars(klass).get(attr)
                if original is None or not callable(original):
                    continue
                span_name = f"{class_name}.{attr}"
                done.patch(klass, attr, log.wrap(original, span_name, layer))
    return done
