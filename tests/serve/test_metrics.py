"""Serve metrics: percentiles, histograms, snapshots, rendering."""

import pytest

from repro.analysis.serving import (
    render_serve_histograms,
    render_serve_metrics,
    render_serve_report,
)
from repro.errors import ValidationError
from repro.serve import ServeMetrics, log2_histogram, quantiles


class TestQuantiles:
    def test_empty_is_zero(self):
        assert quantiles([]) == (0.0, 0.0, 0.0)

    def test_known_values(self):
        p50, p95, p99 = quantiles(list(range(1, 101)))
        assert p50 == pytest.approx(50.5)
        assert p95 == pytest.approx(95.05)
        assert p99 == pytest.approx(99.01)

    def test_single_value(self):
        assert quantiles([42.0]) == (42.0, 42.0, 42.0)

    def test_all_identical(self):
        assert quantiles([7.0] * 50) == (7.0, 7.0, 7.0)

    def test_nan_rejected_with_one_line_error(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="NaN is not a sample"):
            quantiles([1.0, float("nan"), 3.0])


class TestHistogram:
    def test_log2_buckets(self):
        hist = log2_histogram([0, 1, 2, 3, 4, 5, 1000])
        # <=1: {0,1}; <=2: {2}; <=4: {3,4}; <=8: {5}; <=1024: {1000}
        assert hist == {0: 2, 1: 1, 2: 2, 3: 1, 10: 1}

    def test_sorted_keys(self):
        hist = log2_histogram([1000, 1, 30])
        assert list(hist) == sorted(hist)

    def test_empty_is_empty(self):
        assert log2_histogram([]) == {}

    def test_single_sample(self):
        assert log2_histogram([5]) == {3: 1}

    def test_all_identical(self):
        assert log2_histogram([8.0] * 4) == {3: 4}

    def test_nan_rejected_with_one_line_error(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="NaN is not a sample"):
            log2_histogram([1.0, float("nan")])


class TestServeMetrics:
    def _filled(self):
        m = ServeMetrics()
        m.record_batch(4, "size", 1, 10_000.0)
        m.record_batch(2, "window", 0, 5_000.0)
        for i in range(6):
            m.record_replies([0.0], 100.0 * i, 200.0 * i)
        return m

    @staticmethod
    def _depths():
        """Two queue-depth samples, on the one high-water mark there is:
        the admission controller's."""
        from repro.serve import AdmissionController

        ac = AdmissionController(8, "reject")
        ac.record_admitted(3)
        ac.record_admitted(7)
        return ac.stats()

    def test_snapshot_counters(self):
        snap = self._filled().snapshot(self._depths())
        assert snap.completed == 6
        assert snap.batches == 2
        assert snap.close_reasons == {"size": 1, "window": 1}
        assert snap.duplicates_coalesced == 1
        assert snap.queue_depth_high_watermark == 7
        assert self._filled().snapshot().queue_depth_high_watermark == 0
        assert snap.mean_batch_size == 3.0
        assert snap.service_ns_total == 15_000.0
        assert snap.wait_ns_p50 == pytest.approx(250.0)

    def test_throughput_requires_elapsed(self):
        m = self._filled()
        assert m.snapshot().throughput_rps is None
        assert m.snapshot(elapsed_s=2.0).throughput_rps == pytest.approx(3.0)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValidationError):
            ServeMetrics().record_batch(0, "size", 0, 0.0)

    def test_admission_stats_merge(self):
        from repro.serve import AdmissionController

        ac = AdmissionController(4, "shed-oldest")
        ac.decide(4)  # one shed
        ac.record_admitted(2)
        snap = self._filled().snapshot(ac.stats())
        assert snap.accepted == 1
        assert snap.shed == 1
        assert snap.rejected == 0

    def test_admission_enabled_flag(self):
        from repro.serve import AdmissionController

        # no controller stats: zero rejects means "admission was off",
        # and the snapshot says so instead of implying a perfect run
        assert self._filled().snapshot().admission_enabled is False
        ac = AdmissionController(4, "reject")
        assert self._filled().snapshot(ac.stats()).admission_enabled is True


class TestRendering:
    def test_tables_render(self):
        snap = TestServeMetrics()._filled().snapshot(elapsed_s=1.0)
        text = render_serve_metrics(snap)
        assert "completed" in text and "6" in text
        assert "throughput" in text
        hist = render_serve_histograms(snap)
        assert "batch size" in hist and "wait (ns)" in hist

    def test_report_composes_cache_stats(self):
        import numpy as np

        from repro.csr import build_csr_serial
        from repro.query import RowCache

        rng = np.random.default_rng(3)
        src = np.sort(rng.integers(0, 20, 100))
        g = build_csr_serial(src, rng.integers(0, 20, 100), 20)
        cache = RowCache(g, capacity=500)
        cache.neighbors(1)
        cache.neighbors(1)
        snap = TestServeMetrics()._filled().snapshot()
        text = render_serve_report(snap, cache)
        assert "serving report" in text
        assert "row cache (serve path)" in text
        assert "hit rate" in text

    def test_report_without_cache(self):
        snap = ServeMetrics().snapshot()
        text = render_serve_report(snap)
        assert "row cache" not in text

    def test_admission_off_labelled_not_zero(self):
        text = render_serve_metrics(self._filled_snapshot())
        assert "off (no controller wired)" in text
        assert "rejected" not in text

    def test_admission_on_shows_reject_rows(self):
        from repro.serve import AdmissionController

        ac = AdmissionController(4, "reject")
        snap = TestServeMetrics()._filled().snapshot(ac.stats())
        text = render_serve_metrics(snap)
        assert "rejected" in text
        assert "off (no controller wired)" not in text

    @staticmethod
    def _filled_snapshot():
        return TestServeMetrics()._filled().snapshot()
