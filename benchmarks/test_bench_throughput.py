"""Micro-benchmarks of the detection kernels (the Section V.E
"light-weight detection algorithm" claim, measured).

The paper argues the bit-slice method is cheap enough for embedded
deployment: 11 counters updated per message, an 11-term entropy sum per
window.  These benchmarks measure the reference implementation's
throughput for the streaming update path, the window judgement, the
whole-trace scan, and — for contrast — the Muter baseline's histogram
path on the same trace.
"""

import os

import numpy as np
import pytest

from conftest import append_artifact, append_bench, save_artifact
from repro.baselines import MuterEntropyIDS
from repro.core import BatchEntropyEngine, BitCounter, EntropyDetector, binary_entropy
from repro.core.entropy import shannon_entropy
from repro.experiments import ooc_smoke, throughput
from repro.vehicle.traffic import record_template_windows, simulate_drive

#: Capture size for the large-capture benchmark.  The default keeps the
#: suite quick; set REPRO_BENCH_FRAMES=10000000 to measure the full
#: ten-million-frame regime (the experiment module's own default).
BENCH_FRAMES = int(os.environ.get("REPRO_BENCH_FRAMES", "1000000"))


@pytest.fixture(scope="module")
def drive_trace(setup):
    return simulate_drive(10.0, scenario="city", seed=13, catalog=setup.catalog)


@pytest.fixture(scope="module")
def drive_columns(drive_trace):
    return drive_trace.to_columns()


@pytest.fixture(scope="module")
def drive_ids(drive_trace):
    return drive_trace.ids()


class TestCounterKernels:
    def test_bench_streaming_update(self, benchmark, drive_ids):
        """Per-message streaming update (the embedded hot path)."""
        ids = [int(i) for i in drive_ids[:2000]]

        def run():
            counter = BitCounter(11)
            for can_id in ids:
                counter.update(can_id)
            return counter

        counter = benchmark(run)
        assert counter.total == len(ids)

    def test_bench_vectorised_update(self, benchmark, drive_ids):
        """Batch update over a full 10 s capture."""
        def run():
            counter = BitCounter(11)
            counter.update_many(drive_ids)
            return counter

        counter = benchmark(run)
        assert counter.total == len(drive_ids)

    def test_bench_entropy_vector(self, benchmark, drive_ids):
        """The 11-term entropy evaluation the paper counts as the saving."""
        counter = BitCounter.from_ids(drive_ids)
        probabilities = counter.probabilities()
        result = benchmark(lambda: binary_entropy(probabilities))
        assert np.all(result <= 1.0)

    def test_bench_muter_histogram_entropy(self, benchmark, drive_trace):
        """The baseline's per-window work: a 223-bin histogram + entropy
        over hundreds of elements (the cost the paper contrasts)."""
        def run():
            histogram = drive_trace.id_histogram()
            return shannon_entropy(np.fromiter(histogram.values(), dtype=float))

        entropy = benchmark(run)
        assert entropy > 0.0


class TestDetectorThroughput:
    def test_bench_streaming_scan(self, benchmark, setup, drive_trace):
        """Full streaming detection over a 10 s capture."""
        def run():
            detector = EntropyDetector(setup.template, setup.config)
            return detector.scan(drive_trace)

        windows = benchmark(run)
        assert windows
        rate = len(drive_trace) / 1.0  # messages per scan
        benchmark.extra_info["messages_per_scan"] = rate

    def test_bench_batch_scan(self, benchmark, setup, drive_columns):
        """Vectorised batch detection over the same capture, columnar."""
        def run():
            return BatchEntropyEngine(setup.template, setup.config).scan(
                drive_columns
            )

        windows = benchmark(run)
        assert windows
        benchmark.extra_info["messages_per_scan"] = len(drive_columns) / 1.0

    def test_bench_muter_scan(self, benchmark, setup, drive_trace):
        clean = record_template_windows(6, 2.0, seed=3, catalog=setup.catalog)
        muter = MuterEntropyIDS(window_us=setup.config.window_us).fit(clean)
        verdicts = benchmark(lambda: muter.scan(drive_trace))
        assert verdicts

    def test_bench_muter_scan_columns(self, benchmark, setup, drive_columns):
        """The baseline's vectorised columnar path, for contrast."""
        clean = record_template_windows(6, 2.0, seed=3, catalog=setup.catalog)
        muter = MuterEntropyIDS(window_us=setup.config.window_us).fit(clean)
        verdicts = benchmark(lambda: muter.scan(drive_columns))
        assert verdicts

    def test_streaming_scan_is_realtime_capable(self, setup, drive_trace):
        """The reference implementation must process a 10 s capture far
        faster than real time (the paper targets sub-second reaction)."""
        import time

        detector = EntropyDetector(setup.template, setup.config)
        start = time.perf_counter()
        detector.scan(drive_trace)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0  # > 1x real time with huge margin

    def test_batch_scan_outpaces_streaming(self, setup, drive_trace, drive_columns):
        """The batch engine must deliver >= 10x the streaming path's
        messages/second on a 10 s city capture — while producing the
        identical window verdicts."""
        import time

        detector = EntropyDetector(setup.template, setup.config)
        engine = BatchEntropyEngine(setup.template, setup.config)
        # Warm both paths (template arrays, numpy caches), then take the
        # best of three to shield the ratio from scheduler noise.
        detector.scan(drive_trace)
        engine.scan(drive_columns)

        def best_of(fn, repeats=3):
            elapsed = []
            for _ in range(repeats):
                start = time.perf_counter()
                fn()
                elapsed.append(time.perf_counter() - start)
            return min(elapsed)

        streaming_s = best_of(lambda: EntropyDetector(
            setup.template, setup.config).scan(drive_trace))
        batch_s = best_of(lambda: BatchEntropyEngine(
            setup.template, setup.config).scan(drive_columns))
        streaming_mps = len(drive_trace) / streaming_s
        batch_mps = len(drive_columns) / batch_s
        # Speedup ratios are only stable with a core to spare; a
        # single-core host records the honest number without asserting.
        if (os.cpu_count() or 1) > 1:
            assert batch_mps >= 10 * streaming_mps, (
                f"batch {batch_mps:,.0f} msg/s vs streaming {streaming_mps:,.0f} msg/s"
            )

        stream_windows = EntropyDetector(setup.template, setup.config).scan(drive_trace)
        batch_windows = BatchEntropyEngine(setup.template, setup.config).scan(drive_columns)
        assert len(stream_windows) == len(batch_windows)
        for s, b in zip(stream_windows, batch_windows):
            assert s.judged == b.judged and s.alarm == b.alarm
            assert np.array_equal(s.deviations, b.deviations)


class TestLargeCaptureThroughput:
    def test_bench_large_capture_both_paths(self, setup):
        """Both detection paths measured on a multi-million-frame
        synthetic capture (REPRO_BENCH_FRAMES frames; default 1M, the
        paper-scale regime is 10M)."""
        result = throughput.run(
            setup.template,
            setup.config,
            n_frames=BENCH_FRAMES,
            catalog=setup.catalog,
        )
        append_artifact("throughput", result.render())
        append_bench("throughput", result.bench_records())
        assert result.n_frames == BENCH_FRAMES
        if (os.cpu_count() or 1) > 1:
            assert result.speedup >= 10.0, result.render()


class TestFusedKernelThroughput:
    def test_bench_fused_kernel_vs_legacy(self, setup):
        """The fused single-pass kernel against the per-bit reduceat
        path it replaced, same capture, best-of-N in one process.  The
        kernel's acceptance bar is an integer-multiple win with
        bit-identical verdicts."""
        result = throughput.run_kernel(
            setup.template,
            setup.config,
            n_frames=BENCH_FRAMES,
            catalog=setup.catalog,
        )
        append_artifact("throughput", result.render())
        append_bench("throughput", result.bench_records())
        # Speedup without parity is meaningless; assert parity first
        # (unconditionally — correctness does not depend on cores).
        assert result.parity_ok, result.render()
        if (os.cpu_count() or 1) > 1:
            assert result.kernel_speedup >= 2.0, result.render()
            # The chunked out-of-core driver must not give the win back.
            assert result.stream_speedup >= 2.0, result.render()


class TestOutOfCoreCeiling:
    def test_bench_rss_bounded_out_of_core_scan(self, setup):
        """A capture several times larger than an enforced RLIMIT_DATA
        ceiling scans out-of-core to a report bit-identical to the
        in-RAM scan (and the eager load correctly dies trying)."""
        result = ooc_smoke.run(setup.template, setup.config)
        append_artifact("throughput", result.render())
        append_bench("throughput", result.bench_records())
        assert result.identical, result.render()
        assert result.eager_failed, result.render()
        assert result.size_over_limit >= 4.0, result.render()


#: Codec benchmark sizing (frames written/decoded; scale up with the
#: env knob for full-capture measurements).
INGEST_FRAMES = int(os.environ.get("REPRO_BENCH_INGEST_FRAMES", "200000"))


class TestCodecThroughput:
    def test_bench_codec_container_v2_vs_v1(self, setup):
        """The v2 codec pipeline against the v1 raw-zlib container on
        the same payload-bearing capture: disk footprint, cold
        scan_stream rate, and the warm decoded-block-cache rescan.
        Parity (v1 == v2 == warm == in-RAM) is unconditional, and so
        are the codec bars: the filters are single-core wins, so they
        must hold even on this 1-CPU runner (a small tolerance guards
        the rate ratios against timer noise)."""
        result = throughput.run_codec(
            n_frames=INGEST_FRAMES, catalog=setup.catalog
        )
        append_artifact("throughput", result.render())
        append_bench("ingest", result.bench_records())
        assert result.parity_ok, result.render()
        # v2 strictly smaller, by the target margin (deterministic).
        assert result.v2_bytes < result.v1_bytes, result.render()
        assert result.size_ratio >= 1.5, result.render()
        # At least as fast as v1 cold (5% timer-noise guard) and
        # measurably faster warm.
        assert result.scan_speedup >= 0.95, result.render()
        assert result.warm_speedup >= 1.05, result.render()
        assert result.cache_hits > 0, result.render()


#: Archive benchmark sizing (kept modest by default; scale up with the
#: env knobs for fleet-regime measurements).
ARCHIVE_CAPTURES = int(os.environ.get("REPRO_BENCH_ARCHIVE_CAPTURES", "4"))
ARCHIVE_FRAMES = int(os.environ.get("REPRO_BENCH_ARCHIVE_FRAMES", "120000"))


class TestArchiveThroughput:
    def test_bench_archive_loading_and_sharded_scan(self, setup):
        """Archive-scale end-to-end: columnar-native loading vs the
        record round-trip, and sharded scan scaling vs worker count.
        The section lands in results/throughput.txt next to the
        single-capture numbers."""
        result = throughput.run_archive(
            setup.template,
            setup.config,
            n_captures=ARCHIVE_CAPTURES,
            frames_per_capture=ARCHIVE_FRAMES,
            worker_counts=(1, 2, 4),
            catalog=setup.catalog,
        )
        append_artifact("throughput", result.render())
        append_bench("throughput", result.bench_records())
        # Columnar-native loading must beat loading through records by
        # a wide margin on both formats (speedup ratios only asserted
        # with a core to spare).
        if (os.cpu_count() or 1) > 1:
            assert result.candump_load_speedup >= 5.0, result.render()
            assert result.csv_load_speedup >= 5.0, result.render()
        # Sharding can only help when the host actually has cores; CI
        # and laptops do, the single-core container records the honest
        # number without asserting on it.
        if (os.cpu_count() or 1) >= 4:
            assert result.scan_speedup(4) >= 2.0, result.render()
