"""The three closed-loop workloads: one client, one operation at a time.

Each workload drives a real entry point of the program over files made
from the shared corpus, and checks every report it gets back against
the serial in-RAM reference of the same columns.  A workload is a fixed
round of operations; the loop in ``run.py`` repeats whole rounds, so
every run has the same operation mix whatever its length.

* ``text_archive`` — ``IDSPipeline.analyze_archive`` with the serial
  executor over one vehicle's uploads in candump ``.log``, ``.csv`` and
  ``.log.gz``, one upload directory per operation.  Text parse and
  gzip inflate run here and nowhere else.
* ``fleet_watch`` — ``FleetStore.add_capture`` of one new ``.npb`` drive
  followed by one ``WatchDaemon.run_cycle`` (serial executor, daemon
  defaults), timed together: upload to verdict.  The only workload that
  writes (``.npb`` codec selection and deflate, ledger saves) as well
  as reads; each round starts from a freshly set-up store under a new
  path, so cycle cost does not grow without bound and no decoded block
  carries over.
* ``fabric_net`` — one ``analyze_archive`` job per aligned ``.npz``
  capture through ``NetExecutor(drain=False)`` to a ``repro-ids serve``
  with one ``repro-ids worker --connect``.  The only workload that
  crosses process boundaries: result encoding, the NDJSON wire, the
  coordinator relay and the worker's idle poll dominate.
"""

from __future__ import annotations

import json
import re
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from repro.core.pipeline import IDSPipeline
from repro.fleet.daemon import WatchDaemon
from repro.fleet.store import FleetStore
from repro.io.columnar import ColumnTrace
from repro.io.csvlog import write_csv_columns
from repro.io.log import write_candump_columns
from repro.runtime.net import NetExecutor
from repro.runtime.serial import SerialExecutor

import corpus as corpus_mod
import stats
from fabric import Fabric

#: Bound on one fabric job.  The longest legitimate job of the workload
#: (a 128 s capture) takes about 0.25 s, mostly the worker's 0.2 s poll.
JOB_TIMEOUT_S = 2.0

#: Wire envelope around a result's window list on the NDJSON line.
_ENVELOPE_BYTES = 256


@dataclass
class Item:
    """One operation's input: a capture (or upload directory)."""

    name: str
    path: Path
    frames: int
    digest: str


def _drive_digest(drive) -> str:
    return stats.digest(drive.reference)


def _report_cause(report, expected: str) -> Optional[str]:
    if stats.digest(corpus_mod.canonical(report)) != expected:
        return "report differs from the serial in-RAM reference"
    return None


class Workload:
    """Common shape; subclasses fill in the operation."""

    name = ""
    setup_samples = 5
    #: Seconds one round takes on the reference host (2 shared cores).
    round_s = 1.0
    #: Run one untimed round before measuring.
    warm_up = True

    def __init__(self, root: Path, work: Path, corpus) -> None:
        self.root = root
        self.work = work
        self.corpus = corpus
        self.pipeline: Optional[IDSPipeline] = None
        self.stored_bytes: List[float] = []

    def prepare(self) -> Dict[str, object]:
        """Write the workload's inputs (untimed); returns corpus checks."""
        raise NotImplementedError

    def setup(self) -> float:
        """One timed sample of the set-up the program makes a user pay."""
        start = time.perf_counter()
        template = corpus_mod.train_template(self.corpus)
        elapsed = time.perf_counter() - start
        self.pipeline = IDSPipeline(template, self.corpus.config, self.corpus.id_pool)
        return elapsed

    def items(self) -> List[Item]:
        raise NotImplementedError

    def before_op(self, item: Item) -> None:
        pass

    def call(self, item: Item):
        raise NotImplementedError

    def verify(self, item: Item, result) -> Optional[str]:
        raise NotImplementedError

    def failure_cause(self, item: Item, exc: Exception) -> str:
        return f"{type(exc).__name__}: {exc}"

    def end_round(self) -> List[float]:
        """Untimed work between rounds; returns any set-up samples taken."""
        return []

    def probe_items(self) -> List[Item]:
        """Inputs run once after the timed loop, outside every metric."""
        return []

    def mark(self) -> None:
        """Start of a timed loop (other processes' accounting)."""

    def settle(self) -> dict:
        return {"cpu_s": 0.0, "peak_rss_mb": {}}

    def disk_bytes_per_frame(self) -> float:
        return stats.median(self.stored_bytes)

    def close(self) -> None:
        pass


class TextArchive(Workload):
    name = "text_archive"
    round_s = 1.8
    _FORMATS = (".log", ".csv", ".log.gz")

    def prepare(self):
        self._items = []
        total_bytes = 0
        for k, drive in enumerate(self.corpus.drives):
            upload = self.work / "uploads" / f"upload{k:02d}"
            upload.mkdir(parents=True)
            path = upload / f"{drive.name}{self._FORMATS[k % 3]}"
            if path.name.endswith(".csv"):
                write_csv_columns(drive.columns, path)
            else:
                write_candump_columns(drive.columns, path)
            total_bytes += path.stat().st_size
            self._items.append(Item(drive.name, upload, drive.frames, _drive_digest(drive)))
        frames = sum(item.frames for item in self._items)
        self.stored_bytes = [total_bytes / frames]
        return corpus_mod.check(self.corpus, self.corpus.drives)

    def items(self):
        return self._items

    def call(self, item):
        return self.pipeline.analyze_archive(item.path, executor=SerialExecutor())

    def end_round(self):
        # Template training takes ~15 ms: sample it throughout the run so
        # the median does not hang on the machine's state at start-up.
        return [self.setup() for _ in range(2)]

    def verify(self, item, result):
        if len(result) != 1:
            return f"archive report has {len(result)} captures, expected 1"
        return _report_cause(result.captures[0][1], item.digest)


class FleetWatch(Workload):
    name = "fleet_watch"
    round_s = 6.0
    VEHICLES = 4
    # Every round starts with a fresh set-up, which adds a sample; the
    # set-up's cold cycle already warms the code paths of a round.
    setup_samples = 1
    warm_up = False

    def prepare(self):
        stage = self.work / "stage"
        stage.mkdir(parents=True)
        self._digests = {}
        self._stage = {}
        for drive in self.corpus.history + self.corpus.drives:
            path = stage / f"{drive.name}.npz"
            drive.columns.save_npz(path)
            self._stage[drive.name] = path
        self._history = [(d.name, d.frames) for d in self.corpus.history]
        self._items = []
        for k, drive in enumerate(self.corpus.drives):
            name = f"upload{k:02d}.npb"
            self._digests[name] = _drive_digest(drive)
            self._items.append(Item(name, self._stage[drive.name], drive.frames, self._digests[name]))
        for drive in self.corpus.history:
            self._digests[f"{drive.name}.npb"] = _drive_digest(drive)
        self._round = 0
        return corpus_mod.check(self.corpus, self.corpus.drives)

    def setup(self):
        """Template training, landing the initial store, first cold cycle."""
        history = [ColumnTrace.load_npz(self._stage[name]) for name, _ in self._history]
        root = self.work / f"store{self._round:03d}"
        start = time.perf_counter()
        super().setup()
        store = FleetStore(root)
        for k, ((name, _), columns) in enumerate(zip(self._history, history)):
            vehicle = f"vehicle{k % self.VEHICLES}"
            store.add_capture(vehicle, f"{name}.npb", columns)
            store.save_template(vehicle, self.pipeline.template,
                                window_us=self.corpus.config.window_us)
        daemon = WatchDaemon(store, self.pipeline, executor=SerialExecutor(), log=None)
        cycle = daemon.run_cycle()
        elapsed = time.perf_counter() - start
        cause = self._cycle_cause(cycle)
        if cause is not None:
            raise RuntimeError(f"fleet set-up cycle: {cause}")
        self.store, self.daemon = store, daemon
        self._stored_frames = sum(frames for _, frames in self._history)
        return elapsed

    def items(self):
        return self._items

    def before_op(self, item):
        self._columns = ColumnTrace.load_npz(item.path)

    def _vehicle(self, item) -> str:
        return f"vehicle{self._items.index(item) % self.VEHICLES}"

    def call(self, item):
        self.store.add_capture(self._vehicle(item), item.name, self._columns)
        return self.daemon.run_cycle()

    def _cycle_cause(self, cycle) -> Optional[str]:
        for result in cycle.report.watch.values():
            for path, report in result.report.captures:
                cause = _report_cause(report, self._digests[path.name])
                if cause is not None:
                    return f"{path.name}: {cause}"
        return None

    def verify(self, item, result):
        self._columns = None
        self._stored_frames += item.frames
        stored = sum(
            p.stat().st_size for p in self.store.root.rglob("*")
            if p.suffix == ".npb" or p.name == "ledger.json"
        )
        self.stored_bytes.append(stored / self._stored_frames)
        landed = [path.name for path, _ in result.report.watch[self._vehicle(item)].report.captures]
        if item.name not in landed:
            return "landed capture missing from the cycle report"
        return self._cycle_cause(result)

    def end_round(self):
        shutil.rmtree(self.store.root)
        self._round += 1
        return [self.setup()]


class FabricNet(Workload):
    name = "fabric_net"
    round_s = 2.0

    def prepare(self):
        self._items, self._probe = [], []
        for k, drive in enumerate(self.corpus.drives):
            capdir = self.work / "captures" / f"cap{k:02d}"
            capdir.mkdir(parents=True)
            path = capdir / f"{drive.name}.npz"
            drive.columns.save_npz(path)
            item = Item(drive.name, capdir, drive.frames, _drive_digest(drive))
            windows = json.loads(drive.reference)["windows"]
            line = len(json.dumps(windows)) + _ENVELOPE_BYTES
            # Operations must not fail, so captures whose result line the
            # coordinator cannot read go to the line-limit probe instead.
            fits = line <= corpus_mod.LINE_LIMIT_BYTES
            (self._items if fits else self._probe).append(item)
        frames = sum(item.frames for item in self._items)
        stored = sum(p.stat().st_size for item in self._items for p in item.path.iterdir())
        self.stored_bytes = [stored / frames]
        self.fabric: Optional[Fabric] = None
        self._starts = 0
        return corpus_mod.check(self.corpus, self.corpus.drives)

    def setup(self):
        """Template training plus fabric start until the worker registers."""
        if self.fabric is not None:
            self.fabric.stop()
        fabric_dir = self.work / f"fabric{self._starts:02d}"
        fabric_dir.mkdir()
        self._starts += 1
        self.fabric = Fabric(self.root, fabric_dir)
        elapsed = super().setup() + self.fabric.start()
        self.executor = NetExecutor(self.fabric.address, drain=False, timeout_s=JOB_TIMEOUT_S)
        return elapsed

    def items(self):
        return self._items

    def probe_items(self):
        return self._probe

    def before_op(self, item):
        if not self.fabric.worker_alive():
            self.fabric.restart_worker()

    def call(self, item):
        return self.pipeline.analyze_archive(item.path, executor=self.executor)

    def verify(self, item, result):
        if len(result) != 1:
            return f"archive report has {len(result)} captures, expected 1"
        return _report_cause(result.captures[0][1], item.digest)

    def failure_cause(self, item, exc):
        parts = []
        if "LimitOverrunError" in self.fabric.new_errors():
            parts.append("coordinator: result line over the 64 KiB StreamReader limit")
        if not self.fabric.worker_alive():
            stopped = re.search(r"\(stopped: ([^)]*)\)", self.fabric.worker_exits[-1])
            parts.append(f"worker exited ({stopped.group(1) if stopped else 'no reason logged'})")
        if "made no progress" in str(exc):
            parts.append(f"client: no result within timeout_s={JOB_TIMEOUT_S:g}")
        else:
            parts.append(f"client: {type(exc).__name__}: {exc}")
        return "; ".join(parts)

    def mark(self):
        self.fabric.mark()

    def settle(self):
        return self.fabric.settle()

    def close(self):
        if self.fabric is not None:
            self.fabric.stop()


WORKLOADS = {cls.name: cls for cls in (TextArchive, FleetWatch, FabricNet)}
