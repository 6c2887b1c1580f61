"""End-to-end benchmark of the entropy IDS, with a traced per-layer pass.

Usage, from the root of a checkout::

    python3 e2ebench/run.py --workload text_archive --seed 1 --seconds 20 --trace 0

The workloads are listed in ``BENCHMARK.json`` and described in
``workloads.py``; the corpus in ``corpus.py``.  A run:

1. synthesises the corpus from ``--seed`` and writes the workload's
   input files (untimed; checks the corpus, see ``corpus.check``);
2. times the program's own set-up several times and reports the median
   as ``setup_s``;
3. runs one untimed warm-up round of operations;
4. with ``--trace 0``, repeats whole rounds of operations, one client
   and one operation in flight, as many rounds as take ``--seconds`` on
   the reference host (see ``rounds_for``), and reports the end-to-end
   metrics;
5. with ``--trace 1``, runs one untraced round, then installs span
   wrappers around each layer's public calls (``spans.py``) and repeats
   as many traced rounds; it reports the per-layer waterfall.

Every operation's report is compared bit for bit with the serial in-RAM
reference.  ``correct`` is false when any returned report differs; an
operation that raises counts in ``failed``.  The last line of standard
output is the result; the line before it is the detail record.
Working files live in ``.e2ebench_work/`` of the checkout and are
removed at exit.  Harness self-tests: ``python3 e2ebench/selftest.py``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import math
import os
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import stats  # noqa: E402

#: Per-layer metric -> the span name whose self time it reports.
SELF_TIME_METRICS = {
    "io.log.parse_ms": "io.log.parse",
    "io.csvlog.parse_ms": "io.csvlog.parse",
    "io.gz.inflate_ms": "io.gz.inflate",
    "io.archive.read_ms": "io.archive.read",
    "io.blocks.write_ms": "io.blocks.write",
    "io.blocks.read_ms": "io.blocks.read",
    "io.fingerprint.hash_ms": "io.fingerprint.hash",
    "fleet.ledger.load_ms": "fleet.ledger.load",
    "fleet.ledger.save_ms": "fleet.ledger.save",
    "fleet.store.compact_ms": "fleet.store.compact",
    "fleet.drift.analyze_ms": "fleet.drift.analyze",
    "fleet.retrain.ms": "fleet.retrain",
    "runtime.base.encode_ms": "runtime.base.encode",
    "runtime.base.decode_ms": "runtime.base.decode",
    "runtime.protocol.wire_ms": "runtime.protocol.wire",
    "core.kernel.scan_ms": "core.kernel.scan",
    "core.engine.scan_ms": "core.engine.scan",
    "core.pipeline.assemble_ms": "core.pipeline.assemble",
    "core.inference.ms": "core.inference",
}


@dataclass
class Outcome:
    item: object
    start_ns: int
    end_ns: int
    cpu_s: float
    cause: Optional[str]
    mismatch: bool = False

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9

    @property
    def ok(self) -> bool:
        return self.cause is None


@dataclass
class Pass:
    outcomes: List[Outcome] = field(default_factory=list)
    rounds: int = 0
    setup: List[float] = field(default_factory=list)
    other: dict = field(default_factory=dict)
    client_peak_mb: float = 0.0

    @property
    def wall_s(self) -> float:
        return sum(o.seconds for o in self.outcomes)


def run_op(wl, item, tracer=None) -> Outcome:
    wl.before_op(item)
    if tracer is not None:
        tracer.active = True
    cpu0, start = time.process_time(), time.monotonic_ns()
    try:
        result, exc = wl.call(item), None
    except Exception as error:  # noqa: BLE001 - a failed operation is counted, not fatal
        result, exc = None, error
    end, cpu1 = time.monotonic_ns(), time.process_time()
    if tracer is not None:
        tracer.active = False
    if exc is not None:
        return Outcome(item, start, end, cpu1 - cpu0, wl.failure_cause(item, exc))
    cause = wl.verify(item, result)
    return Outcome(item, start, end, cpu1 - cpu0, cause, mismatch=cause is not None)


def run_pass(wl, rounds: int, tracer=None) -> Pass:
    """``rounds`` whole rounds of the workload's operations."""
    result = Pass()
    wl.mark()
    stats.reset_peak_rss(os.getpid())
    for done in range(1, rounds + 1):
        for item in wl.items():
            result.outcomes.append(run_op(wl, item, tracer))
        result.rounds = done
        if done < rounds:
            result.setup += wl.end_round()
    result.client_peak_mb = stats.peak_rss_mb(os.getpid()) or 0.0
    result.other = wl.settle()
    result.setup += wl.end_round()
    return result


def rounds_for(wl, seconds: float) -> int:
    """Rounds that take about ``seconds`` on the reference host.

    The run length is a fixed number of operations, not a deadline, so
    two runs (and two commits) always compare the same operation mix
    and the tail percentile always falls on the same rank.
    """
    return max(1, math.ceil(seconds / wl.round_s))


def end_to_end(wl, run: Pass, setup: List[float]) -> Dict[str, tuple]:
    outcomes = run.outcomes
    latencies = [o.seconds if o.ok else stats.FAILED for o in outcomes]
    verified_frames = sum(o.item.frames for o in outcomes if o.ok)
    attempted_frames = sum(o.item.frames for o in outcomes)
    cpu = sum(o.cpu_s for o in outcomes) + run.other["cpu_s"]
    rss = run.client_peak_mb + sum(run.other["peak_rss_mb"].values())
    return {
        "frames_per_s": (verified_frames / run.wall_s, "1/s"),
        "op_ms_p50": (stats.median(latencies) * 1e3, "ms"),
        "op_ms_tail": (stats.tail(latencies)["value"] * 1e3, "ms"),
        "verified_frac": (sum(o.ok for o in outcomes) / len(outcomes), "1"),
        "cpu_us_per_frame": (cpu * 1e6 / attempted_frames, "us"),
        "peak_rss_mb": (rss, "MB"),
        "disk_bytes_per_frame": (wl.disk_bytes_per_frame(), "B"),
        "setup_s": (stats.median(setup), "s"),
    }


def per_layer(base: Pass, traced: Pass, tracer, worker_spans, counters) -> tuple:
    """Per-layer metrics and the waterfall of the traced pass."""
    from spans import exclusive_times

    n = len(traced.outcomes)
    total: Dict[str, int] = {}
    residual = wall = claim = worker_busy = 0
    client = sorted(tracer.spans, key=lambda s: s[1])
    for o in traced.outcomes:
        window = (o.start_ns, o.end_ns)
        spans = [s for s in client if s[1] >= o.start_ns and s[2] <= o.end_ns]
        for net in [s for s in spans if s[0] == "runtime.net.run"]:
            inside = [
                (name, max(a, net[1]), min(b, net[2]), d + net[3] + 1)
                for name, a, b, d in worker_spans if min(b, net[2]) > max(a, net[1])
            ]
            tasks = [s for s in inside if s[0] == "runtime.worker.task"]
            if tasks:
                claim += min(s[1] for s in tasks) - net[1]
                worker_busy += sum(s[2] - s[1] for s in tasks)
            spans += inside
        self_ns, rest = exclusive_times(window, spans)
        for name, ns in self_ns.items():
            total[name] = total.get(name, 0) + ns
        residual += rest
        wall += o.end_ns - o.start_ns
    if sum(total.values()) + residual != wall:
        raise RuntimeError("waterfall parts do not add up to the traced wall clock")
    per_op = {name: ns / n / 1e6 for name, ns in total.items()}
    metrics = {m: (per_op.get(span, 0.0), "ms") for m, span in SELF_TIME_METRICS.items()}
    relay = max(0, total.get("runtime.net.run", 0) - claim)
    attempted_frames = sum(o.item.frames for o in traced.outcomes)

    def ratio(hit: float, miss: float) -> float:
        return hit / (hit + miss) if hit + miss else 0.0

    metrics.update({
        "io.blockcache.hit_ratio": (ratio(counters["cache_hits"], counters["cache_misses"]), "1"),
        "io.fingerprint.bytes_per_op": (tracer.counters["io.fingerprint.bytes"] / n, "count"),
        "fleet.ledger.bytes_per_op": (tracer.counters["fleet.ledger.bytes"] / n, "count"),
        "fleet.ledger.hit_ratio": (
            ratio(tracer.counters["fleet.ledger.hits"], tracer.counters["fleet.ledger.misses"]), "1"),
        "runtime.net.claim_wait_ms": (claim / n / 1e6, "ms"),
        "runtime.net.relay_wait_ms": (relay / n / 1e6, "ms"),
        "runtime.net.wire_bytes_per_frame": (counters["wire_bytes"] / attempted_frames, "count"),
        "runtime.worker.busy_frac": (worker_busy / wall, "1"),
        "runtime.net.reposted_per_op": (counters["reposted"] / n, "count"),
        "runtime.worker.restarts_per_op": (counters["restarts"] / n, "count"),
        "trace.wall_ms": (wall / n / 1e6, "ms"),
        "trace.residual_ms": (residual / n / 1e6, "ms"),
        "trace.coverage": (1.0 - residual / wall, "1"),
        "trace.overhead_frac": (
            (traced.wall_s / traced.rounds) / (base.wall_s / base.rounds) - 1.0, "1"),
    })
    waterfall = dict(sorted(per_op.items(), key=lambda kv: -kv[1]))
    waterfall["(residual)"] = residual / n / 1e6
    return metrics, waterfall


def release_free_heap() -> None:
    """Return freed heap pages to the kernel, so the client's peak RSS
    counts the system under test and not the corpus synthesis before it."""
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass  # not glibc: the peak then includes the allocator's slack


def src_line_count() -> int:
    return sum(
        len(path.read_bytes().splitlines()) for path in (ROOT / "src").rglob("*.py")
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import corpus as corpus_mod
    import selftest
    from workloads import WORKLOADS

    declared = selftest.declared_metrics()
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    work = ROOT / ".e2ebench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    wl = None
    try:
        corpus = corpus_mod.build(args.seed)
        wl = WORKLOADS[args.workload](ROOT, work, corpus)
        checks = wl.prepare()
        for drive in corpus.drives + corpus.history:
            drive.columns = None  # the client holds only what a user would
        gc.collect()
        release_free_heap()
        setup = [wl.setup() for _ in range(wl.setup_samples)]
        detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "src_lines": src_line_count(), "corpus": checks}
        if wl.warm_up:
            # One untimed round first: lazy imports, allocator growth and
            # the worker's engine cache settle before anything is measured.
            setup += run_pass(wl, 1).setup
        if args.trace:
            run, metrics = traced_run(wl, args.seconds, detail)
        else:
            run = run_pass(wl, rounds_for(wl, args.seconds))
            setup += run.setup
            metrics = end_to_end(wl, run, setup)
            detail["setup_s_samples"] = setup
        describe(run, detail)
        # The probe's failures cost a job bound each; traced runs carry it.
        probe = [run_op(wl, item) for item in wl.probe_items()] if args.trace else []
        if probe:
            detail["line_limit_probe"] = {
                "sent": len(probe), "failed": sum(not o.ok for o in probe),
                "causes": count_causes(probe),
                "worker_restarts": wl.fabric.restarts,
            }
    finally:
        if wl is not None:
            wl.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    outcomes = run.outcomes
    selftest.check_names(metrics, declared[bool(args.trace)])
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not any(o.mismatch for o in outcomes + probe),
        "attempted": len(outcomes),
        "failed": sum(not o.ok for o in outcomes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def count_causes(outcomes) -> Dict[str, int]:
    causes: Dict[str, int] = {}
    for o in outcomes:
        if not o.ok:
            causes[o.cause] = causes.get(o.cause, 0) + 1
    return causes


def describe(run: Pass, detail: dict) -> None:
    latencies = [o.seconds if o.ok else stats.FAILED for o in run.outcomes]
    tail = stats.tail(latencies)
    per_round = len(run.outcomes) // run.rounds
    detail.update({
        "rounds": run.rounds,
        "ops": len(run.outcomes),
        "timed_wall_s": run.wall_s,
        "round_wall_s": [sum(o.seconds for o in run.outcomes[i:i + per_round])
                         for i in range(0, len(run.outcomes), per_round)],
        "tail": {"percentile": tail["percentile"], "n": tail["n"], "qualified": tail["qualified"]},
        "failures": count_causes(run.outcomes),
        "cpu_s_other_processes": run.other["cpu_s"],
        "peak_rss_mb": {"client": run.client_peak_mb, **run.other["peak_rss_mb"]},
    })


def traced_run(wl, seconds: float, detail: dict):
    """The traced pass: returns it and its per-layer metrics."""
    from repro import obs
    from repro.io import blockcache

    from spans import Tracer, load_span_file

    base = run_pass(wl, 1)
    spans_path = None
    fabric = getattr(wl, "fabric", None)
    if fabric is not None:
        spans_path = wl.work / "worker-spans.jsonl"
        fabric.replace_worker(spans_path)
        wire0 = fabric.wire_counters()
        restarts0 = fabric.restarts
    cache0 = blockcache.default_cache().stats()
    tracer = Tracer()
    tracer.install()
    registry = obs.enable()
    try:
        traced = run_pass(wl, rounds_for(wl, seconds), tracer)
    finally:
        obs.disable()
        tracer.uninstall()
    cache1 = blockcache.default_cache().stats()
    counters = {
        "cache_hits": cache1["hits"] - cache0["hits"],
        "cache_misses": cache1["misses"] - cache0["misses"],
        "wire_bytes": 0, "reposted": 0, "restarts": 0,
    }
    worker_spans = []
    if fabric is not None:
        wire1 = fabric.wire_counters()
        counters.update(
            wire_bytes=wire1["bytes"] - wire0["bytes"],
            reposted=wire1["reposted"] - wire0["reposted"],
            restarts=fabric.restarts - restarts0,
        )
        time.sleep(0.3)  # the worker flushes its last span after the client returns
        worker_spans = load_span_file(spans_path)
    metrics, waterfall = per_layer(base, traced, tracer, worker_spans, counters)
    detail["waterfall_ms_per_op"] = waterfall
    detail["obs_spans"] = {
        name: {"count": h["count"], "total_ms": h["total_s"] * 1e3}
        for name, h in registry.snapshot()["histograms"].items()
    }
    return traced, metrics


if __name__ == "__main__":
    sys.exit(main())
