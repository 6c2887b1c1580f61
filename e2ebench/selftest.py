"""Self-tests of the benchmark harness.

Run from the root of a checkout::

    python3 e2ebench/selftest.py

They check the harness, not the program: the tail rule, failures as
``+inf``, bit-exact report comparison, the waterfall sum, metric names
against ``BENCHMARK.json``, and that a fabric worker dying mid-operation
becomes a counted failure within the job bound instead of a hang.
``run.py`` imports :func:`declared_metrics` and :func:`check_names`.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def declared_metrics() -> dict:
    """``{False: end-to-end names, True: per-layer names}``, validated."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {False: [m["name"] for m in spec["end_to_end"]],
             True: [m["name"] for m in spec["per_layer"]]}
    every = names[False] + names[True] + [w["name"] for w in spec["workloads"]]
    bad = [n for n in every if not _NAME.match(n)]
    if bad or len(set(every)) != len(every):
        raise SystemExit(f"BENCHMARK.json names break the name rule or repeat: {bad}")
    return {k: set(v) for k, v in names.items()}


def check_names(metrics: dict, declared: set) -> None:
    if set(metrics) != declared:
        raise SystemExit(
            f"emitted metrics differ from BENCHMARK.json: missing "
            f"{sorted(declared - set(metrics))}, extra {sorted(set(metrics) - declared)}"
        )


def test_tail_rule():
    import stats

    values = list(range(1, 101))  # 100 operations
    t = stats.tail(values)
    assert t["value"] == 90 and t["percentile"] == 90.0 and t["qualified"]
    assert sum(v > t["value"] for v in values) == 10
    t = stats.tail(list(range(1, 12)))  # 11 operations: rank 1
    assert t["value"] == 1 and sum(v > 1 for v in range(1, 12)) == 10
    assert not stats.tail([3.0] * 10)["qualified"]


def test_failure_is_infinite():
    import stats

    ok = [0.2] * 30
    failing = ok[:20] + [stats.FAILED] * 10
    fixed = ok[:20] + [0.9] * 10  # a later fix makes the failures slow but verified
    assert stats.median(failing) == 0.2 and stats.tail(failing)["value"] == 0.2
    assert math.isinf(stats.median(ok[:10] + [stats.FAILED] * 20))
    assert stats.tail(fixed)["value"] <= stats.tail(failing + [stats.FAILED])["value"]
    assert stats.median(fixed) <= stats.median([stats.FAILED if v == 0.9 else v for v in fixed])


def test_report_comparison_is_bit_exact():
    import corpus
    import stats
    from repro.core.pipeline import DetectionReport

    c = corpus.build(0)
    c.drives = c.drives[:1]
    report = c.pipeline().analyze(c.drives[0].columns)
    reference = stats.digest(corpus.canonical(report))
    assert stats.digest(corpus.canonical(DetectionReport.from_dict(report.to_dict()))) == reference

    def changed(mutate) -> bool:
        d = report.to_dict()
        mutate(d["windows"][0])
        return stats.digest(json.dumps(d)) != reference

    def retype(w):
        w["n_messages"] = float(w["n_messages"])

    def reorder(w):
        items = list(w.items())
        w.clear()
        w.update(items[1:] + items[:1])

    def negate_zero(w):
        w["deviations"][0] = -0.0 if w["deviations"][0] == 0.0 else 0.0

    assert changed(retype) and changed(reorder) and changed(negate_zero)
    assert changed(lambda w: w["deviations"].__setitem__(0, w["deviations"][0] * (1 + 2**-52)))
    assert 0.0 == -0.0 and json.dumps(-0.0) != json.dumps(0.0)


def test_waterfall_adds_up():
    from spans import exclusive_times

    spans = [
        ("a", 0, 100, 0), ("b", 10, 40, 1), ("c", 20, 30, 2), ("b", 50, 60, 1),
        ("w", 55, 80, 1),  # a concurrent span from another process
        ("x", 150, 170, 0),  # outside the window
    ]
    self_ns, residual = exclusive_times((-5, 120), spans)
    assert sum(self_ns.values()) + residual == 125
    assert residual == 25 and self_ns["c"] == 10 and self_ns["b"] == 20 + 5


def test_names_match_benchmark_json():
    import run

    declared = declared_metrics()
    check_names({k: 0 for k in declared[False]}, declared[False])
    traced_names = set(run.SELF_TIME_METRICS) | {
        "io.blockcache.hit_ratio", "io.fingerprint.bytes_per_op",
        "fleet.ledger.bytes_per_op", "fleet.ledger.hit_ratio",
        "runtime.net.claim_wait_ms", "runtime.net.relay_wait_ms",
        "runtime.net.wire_bytes_per_frame", "runtime.worker.busy_frac",
        "runtime.net.reposted_per_op", "runtime.worker.restarts_per_op",
        "trace.wall_ms", "trace.residual_ms", "trace.coverage", "trace.overhead_frac",
    }
    check_names({k: 0 for k in traced_names}, declared[True])
    try:
        check_names({"bogus": 0}, declared[False])
    except SystemExit:
        pass
    else:
        raise AssertionError("an undeclared metric name was accepted")


def test_dying_worker_is_a_counted_failure():
    import corpus
    import run
    import workloads

    work = ROOT / ".e2ebench_work" / "selftest-fabric"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    c = corpus.build(0)
    c.drives = c.drives[:1]
    wl = workloads.FabricNet(ROOT, work, c)
    try:
        wl.prepare()
        wl.setup()
        wl.fabric.worker.kill()
        while wl.fabric.worker_alive():
            time.sleep(0.01)
        wl.fabric.restart_worker(extra=["--die-on-task"])
        item = wl.items()[0]
        start = time.monotonic()
        outcome = run.run_op(wl, item)
        elapsed = time.monotonic() - start
        assert not outcome.ok and not outcome.mismatch, outcome
        assert "worker exited" in outcome.cause, outcome.cause
        assert elapsed < workloads.JOB_TIMEOUT_S + 5.0, elapsed
    finally:
        wl.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # a benchmark run still uses it


def main() -> int:
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    failed = 0
    for test in tests:
        try:
            test()
        except Exception as exc:  # noqa: BLE001 - report every test
            failed += 1
            print(f"FAIL {test.__name__}: {type(exc).__name__}: {exc}")
        else:
            print(f"ok   {test.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
