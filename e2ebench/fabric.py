"""The scan fabric under test: ``repro-ids serve`` plus one worker.

Both run as subprocesses of the benchmark from the checkout's ``src``:
the coordinator is the plain CLI, the worker runs through
``worker_host.py`` so a traced run can record its spans.  The benchmark
watches the worker: when it exits, the exit is reaped with its CPU
usage, and :meth:`Fabric.restart_worker` starts a new one outside the
timed section and waits until the coordinator lists it.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.runtime.net import fetch_stats

import stats

HERE = Path(__file__).resolve().parent

#: Limit on any start-up wait; a fabric that needs longer is broken.
START_TIMEOUT_S = 60.0


class Fabric:
    """One coordinator and one worker, with their CPU and memory books."""

    def __init__(self, root: Path, work: Path, spans_path: Optional[Path] = None) -> None:
        self.root = root
        self.work = work
        self.spans_path = spans_path
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.serve: Optional[subprocess.Popen] = None
        self.worker: Optional[subprocess.Popen] = None
        self.address = ""
        self.restarts = 0
        self.worker_exits: List[str] = []
        self._err_offset = 0
        # CPU and peak RSS of the fabric processes inside the timed loop.
        self.cpu_s = 0.0
        self._cpu_base = {}
        self.worker_peak_mb = 0.0

    # -- lifecycle ------------------------------------------------------
    def start(self) -> float:
        """Start serve + worker; seconds until the worker is registered."""
        begin = time.perf_counter()
        out = self.work / "serve.out"
        with open(out, "w") as stdout, open(self.work / "serve.err", "w") as stderr:
            self.serve = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
                stdout=stdout, stderr=stderr, env=self.env, cwd=self.work,
            )
        deadline = time.monotonic() + START_TIMEOUT_S
        while not self.address:
            for line in out.read_text().splitlines():
                if line.startswith("serving on "):
                    self.address = line.split()[-1]
            if self.serve.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("repro-ids serve did not start")
            time.sleep(0.005)
        self._spawn_worker()
        return time.perf_counter() - begin

    def _spawn_worker(self, extra=()) -> None:
        cmd = [sys.executable, str(HERE / "worker_host.py"), "--connect", self.address]
        if self.spans_path is not None:
            cmd += ["--spans", str(self.spans_path)]
        with open(self.work / "worker.out", "a") as log:
            self.worker = subprocess.Popen(
                cmd + list(extra), stdout=log, stderr=subprocess.STDOUT,
                env=self.env, cwd=self.work,
            )
        name_suffix = f":{self.worker.pid}"
        deadline = time.monotonic() + START_TIMEOUT_S
        while True:
            rows = fetch_stats(self.address)["workers"]
            if any(row["name"].endswith(name_suffix) for row in rows):
                break
            if not self.worker_alive() or time.monotonic() > deadline:
                raise RuntimeError("fabric worker did not register")
            time.sleep(0.005)
        self._cpu_base[self.worker.pid] = stats.proc_cpu_s(self.worker.pid) or 0.0
        stats.reset_peak_rss(self.worker.pid)

    def worker_alive(self) -> bool:
        """Reap the worker if it exited, keeping its CPU and peak RSS."""
        if self.worker is None or self.worker.returncode is not None:
            return False
        pid, status, usage = os.wait4(self.worker.pid, os.WNOHANG)
        if pid == 0:
            return True
        self.worker.returncode = os.waitstatus_to_exitcode(status)
        self.cpu_s += usage.ru_utime + usage.ru_stime - self._cpu_base.pop(pid, 0.0)
        self.worker_peak_mb = max(self.worker_peak_mb, usage.ru_maxrss / 1024.0)
        log = (self.work / "worker.out").read_text().strip().splitlines()
        self.worker_exits.append(log[-1] if log else f"exit {self.worker.returncode}")
        return False

    def restart_worker(self, extra=()) -> None:
        self.restarts += 1
        self._spawn_worker(extra)

    def replace_worker(self, spans_path: Optional[Path]) -> None:
        """Swap the worker for one that records spans (not a restart)."""
        self.spans_path = spans_path
        self.worker.kill()
        while self.worker_alive():
            time.sleep(0.01)
        self._spawn_worker()

    def stop(self) -> None:
        for proc in (self.worker, self.serve):
            if proc is not None and proc.returncode is None:
                proc.send_signal(signal.SIGKILL)
                try:
                    proc.wait(timeout=30)
                except ChildProcessError:
                    pass

    # -- accounting -----------------------------------------------------
    def mark(self) -> None:
        """Start of the timed loop: zero CPU and peak-RSS accounting."""
        self.cpu_s = 0.0
        self.worker_peak_mb = 0.0
        for proc in (self.serve, self.worker):
            if proc is not None and proc.returncode is None:
                self._cpu_base[proc.pid] = stats.proc_cpu_s(proc.pid) or 0.0
                stats.reset_peak_rss(proc.pid)

    def settle(self) -> dict:
        """End of the timed loop: CPU seconds and peak RSS of both."""
        cpu = self.cpu_s
        live = [self.serve] + ([self.worker] if self.worker_alive() else [])
        for proc in live:
            now = stats.proc_cpu_s(proc.pid)
            if now is not None:
                cpu += now - self._cpu_base.get(proc.pid, now)
        worker_peak = self.worker_peak_mb
        if len(live) == 2:
            worker_peak = max(worker_peak, stats.peak_rss_mb(self.worker.pid) or 0.0)
        serve_peak = stats.peak_rss_mb(self.serve.pid) or 0.0
        return {"cpu_s": cpu, "peak_rss_mb": {"serve": serve_peak, "worker": worker_peak}}

    def new_errors(self) -> str:
        """Coordinator stderr written since the last call."""
        text = (self.work / "serve.err").read_text()
        fresh, self._err_offset = text[self._err_offset:], len(text)
        return fresh

    def wire_counters(self) -> dict:
        snapshot = fetch_stats(self.address)
        return {
            "bytes": snapshot["wire"]["bytes_in"] + snapshot["wire"]["bytes_out"],
            "reposted": snapshot["tasks"]["reposted"],
        }
