"""Spans recorded around the program's public calls, from outside it.

The benchmark never edits the program.  In a traced run it replaces
each function or method named in :data:`LAYERS` by a wrapper that
records ``(name, start, end, depth)`` on ``CLOCK_MONOTONIC``, in every
module that holds a reference to it, and restores the originals when
the pass ends.  The fabric worker installs the same wrappers through
``worker_host.py``; because every process reads the same clock, its
spans nest under the client's ``runtime.net.run`` span.

:func:`waterfall` turns spans into self times: each instant of an
operation belongs to the deepest span active at that instant (ties go
to the latest start), or to the residual when none is.  For one thread
this is the usual "duration minus children"; for the client and worker
running at once it still counts every instant exactly once, so the
self times plus the residual add up to the traced wall clock.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
import types
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple


def _gz_or_file(args, kwargs) -> str:
    path = str(args[0] if args else kwargs.get("path"))
    return "io.gz.inflate" if path.lower().endswith(".gz") else "io.archive.read"


def _count_fingerprint(tracer, result, args) -> None:
    # "blake2b:<hex>:<size>" — the size is the number of bytes hashed.
    tracer.count("io.fingerprint.bytes", int(str(result).rsplit(":", 1)[1]))


def _count_ledger_get(tracer, result, args) -> None:
    tracer.count("fleet.ledger.hits" if result is not None else "fleet.ledger.misses")


def _count_ledger_save(tracer, result, args) -> None:
    tracer.count("fleet.ledger.bytes", args[0].path.stat().st_size)


#: (module, attribute path, span name or namer, counter hook).  A span
#: name of ``None`` records counters only.
LAYERS: Tuple[Tuple[str, str, object, Optional[Callable]], ...] = (
    # io: text formats, gzip, archive enumeration and raw reads
    ("repro.io.archive", "load_capture_columns", "io.archive.read", None),
    ("repro.io.archive", "CaptureArchive.__init__", "io.archive.read", None),
    ("repro.io.archive", "CaptureArchive.write_capture", "io.archive.write", None),
    ("repro.io._gz", "read_bytes", _gz_or_file, None),
    ("repro.io.log", "read_candump_columns", "io.log.parse", None),
    ("repro.io.csvlog", "read_csv_columns", "io.csvlog.parse", None),
    # io: block container, decoded-block cache, content fingerprints
    ("repro.io.blocks", "write_blocks", "io.blocks.write", None),
    ("repro.io.blocks", "BlockReader.__init__", "io.blocks.read", None),
    ("repro.io.blocks", "BlockReader.read_block", "io.blocks.read", None),
    ("repro.io.blocks", "BlockReader.to_columns", "io.blocks.read", None),
    ("repro.io.fingerprint", "fingerprint_file", "io.fingerprint.hash", _count_fingerprint),
    # core: kernel, engine, report assembly, inference
    ("repro.core.kernel", "scan_windows", "core.kernel.scan", None),
    ("repro.core.engine", "BatchEntropyEngine.scan", "core.engine.scan", None),
    ("repro.core.engine", "BatchEntropyEngine.scan_block", "core.engine.scan", None),
    ("repro.core.engine", "BatchEntropyEngine.scan_stream", "core.engine.scan", None),
    ("repro.core.engine", "BatchEntropyEngine.scan_stream_block", "core.engine.scan", None),
    ("repro.core.pipeline", "IDSPipeline.analyze_archive", "core.pipeline.assemble", None),
    ("repro.core.pipeline", "IDSPipeline._finish_report", "core.pipeline.assemble", None),
    ("repro.core.pipeline", "DetectionReport.to_dict", "core.pipeline.codec", None),
    ("repro.core.pipeline", "DetectionReport.from_dict", "core.pipeline.codec", None),
    ("repro.core.inference", "InferenceEngine.infer_from_windows", "core.inference", None),
    ("repro.core.inference", "InferenceEngine.estimate_k", "core.inference", None),
    # runtime: sharding, executors, result encoding, wire, fabric
    ("repro.core.shard", "ShardedScanner.scan_archive", "runtime.shard.scan", None),
    ("repro.runtime.serial", "SerialExecutor.run", "runtime.serial.run", None),
    ("repro.runtime.base", "EntropyScanSpec.make_scanner", "runtime.base.make_scanner", None),
    ("repro.runtime.base", "EntropyScanSpec.encode_result", "runtime.base.encode", None),
    ("repro.runtime.base", "EntropyScanSpec.decode_result", "runtime.base.decode", None),
    ("repro.runtime.protocol", "TaskResult.to_wire", "runtime.protocol.wire", None),
    ("repro.runtime.protocol", "TaskResult.from_wire", "runtime.protocol.wire", None),
    ("repro.runtime.protocol", "TaskMessage.to_wire", "runtime.protocol.wire", None),
    ("repro.runtime.protocol", "TaskMessage.from_wire", "runtime.protocol.wire", None),
    ("repro.runtime.protocol", "execute_task", "runtime.worker.task", None),
    ("repro.runtime.net", "_Connection.send", "runtime.protocol.wire", None),
    ("repro.runtime.net", "json.loads", "runtime.protocol.wire", None),
    ("repro.runtime.net", "NetExecutor.run", "runtime.net.run", None),
    # fleet: store, ledger, watch scan, drift, retraining, daemon
    ("repro.fleet.store", "FleetStore.add_capture", "fleet.store.add_capture", None),
    ("repro.fleet.store", "FleetStore.compact_ledgers", "fleet.store.compact", None),
    ("repro.fleet.store", "FleetStore.load_template", "fleet.store.template", None),
    ("repro.fleet.ledger", "ScanLedger.__init__", "fleet.ledger.load", None),
    ("repro.fleet.ledger", "ScanLedger.save", "fleet.ledger.save", _count_ledger_save),
    ("repro.fleet.ledger", "ScanLedger.get", None, _count_ledger_get),
    ("repro.fleet.watch", "watch_scan", "fleet.watch.scan", None),
    ("repro.fleet.drift", "analyze_fleet", "fleet.drift.analyze", None),
    ("repro.fleet.drift", "aggregate_vehicle", "fleet.drift.analyze", None),
    ("repro.fleet.retrain", "should_retrain", "fleet.retrain", None),
    ("repro.fleet.retrain", "retrain_vehicle", "fleet.retrain", None),
    ("repro.fleet.daemon", "WatchDaemon.run_cycle", "fleet.daemon.cycle", None),
)


class Tracer:
    """Records spans from the main thread while :attr:`active` is set."""

    def __init__(self, sink=None) -> None:
        self.spans: List[Tuple[str, int, int, int]] = []
        self.counters: Dict[str, int] = defaultdict(int)
        self.active = False
        self._depth = 0
        self._main = threading.main_thread()
        self._undo: List[Callable[[], None]] = []
        self._sink = sink  # file: one JSON span per line, flushed per top-level span

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] += n

    def _record(self, name: str, start: int, end: int, depth: int) -> None:
        self.spans.append((name, start, end, depth))
        if self._sink is not None:
            self._sink.write(json.dumps([name, start, end, depth]) + "\n")
            if depth == 0:
                self._sink.flush()

    def wrap(self, fn: Callable, name, hook: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active or threading.current_thread() is not tracer._main:
                return fn(*args, **kwargs)
            if name is None:
                result = fn(*args, **kwargs)
                hook(tracer, result, args)
                return result
            label = name(args, kwargs) if callable(name) else name
            depth = tracer._depth
            tracer._depth = depth + 1
            start = time.monotonic_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.monotonic_ns()
                tracer._depth = depth
                tracer._record(label, start, end, depth)
            if hook is not None:
                hook(tracer, result, args)
            return result

        return traced

    def install(self, layers: Sequence = LAYERS) -> None:
        """Wrap every layer entry point; :meth:`uninstall` undoes it."""
        for module_name, attr, name, hook in layers:
            module = importlib.import_module(module_name)
            owner_name, _, leaf = attr.rpartition(".")
            if owner_name == "json":
                # The wire layer's NDJSON decode: give the module its own
                # json namespace so the stdlib function stays untouched.
                shim = types.SimpleNamespace(**vars(module.json))
                shim.loads = self.wrap(module.json.loads, name, hook)
                self._rebind(module, "json", shim)
            elif owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[leaf]
                if isinstance(raw, classmethod):
                    traced = classmethod(self.wrap(raw.__func__, name, hook))
                else:
                    traced = self.wrap(raw, name, hook)
                self._rebind(owner, leaf, traced)
            else:
                original = getattr(module, leaf)
                traced = self.wrap(original, name, hook)
                # Rebind in every module that imported the function by name.
                for other in list(sys.modules.values()):
                    if getattr(other, "__name__", "").startswith("repro") and \
                            getattr(other, leaf, None) is original:
                        self._rebind(other, leaf, traced)

    def _rebind(self, owner, attr: str, value) -> None:
        previous = owner.__dict__[attr]
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, previous))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()


def load_span_file(path) -> List[Tuple[str, int, int, int]]:
    """Spans a worker host wrote, one JSON list per line."""
    spans = []
    try:
        with open(path, encoding="ascii") as handle:
            for line in handle:
                try:
                    name, start, end, depth = json.loads(line)
                except (TypeError, ValueError):
                    continue  # torn last line of a worker that died mid-write
                spans.append((name, int(start), int(end), int(depth)))
    except FileNotFoundError:
        pass
    return spans


def exclusive_times(
    window: Tuple[int, int], spans: Sequence[Tuple[str, int, int, int]]
) -> Tuple[Dict[str, int], int]:
    """Self time per span name inside ``window``, plus the residual.

    Every instant of the window goes to the deepest active span (ties:
    the latest start) or, when no span is active, to the residual, so
    ``sum(self) + residual == window length`` exactly.
    """
    lo, hi = window
    clipped = [
        (name, max(start, lo), min(end, hi), depth, i)
        for i, (name, start, end, depth) in enumerate(spans)
        if min(end, hi) > max(start, lo)
    ]
    points = sorted({lo, hi, *(s[1] for s in clipped), *(s[2] for s in clipped)})
    self_ns: Dict[str, int] = defaultdict(int)
    residual = 0
    by_start = sorted(clipped, key=lambda s: s[1])
    active: List[tuple] = []
    nxt = 0
    for a, b in zip(points, points[1:]):
        while nxt < len(by_start) and by_start[nxt][1] <= a:
            active.append(by_start[nxt])
            nxt += 1
        active = [s for s in active if s[2] > a]
        if not active:
            residual += b - a
            continue
        owner = max(active, key=lambda s: (s[3], s[1], s[4]))
        self_ns[owner[0]] += b - a
    return dict(self_ns), residual
