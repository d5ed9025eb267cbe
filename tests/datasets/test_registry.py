"""Paper-graph registry and stand-in generation."""

import numpy as np
import pytest

from repro.datasets.registry import PAPER_GRAPHS, paper_names, standin
from repro.errors import ValidationError
from repro.utils import is_sorted


class TestPaperSpecs:
    def test_table2_graphs_present(self):
        assert paper_names() == ["livejournal", "pokec", "orkut", "webnotredame"]

    def test_published_counts(self):
        lj = PAPER_GRAPHS["livejournal"]
        assert lj.num_nodes == 4_847_571
        assert lj.num_edges == 68_993_773
        assert lj.times_ms[64] == pytest.approx(17.613)
        assert lj.speedup_pct[64] == pytest.approx(89.31)

    def test_speedups_consistent_with_times(self):
        """Table II's last column must follow from its time column."""
        for spec in PAPER_GRAPHS.values():
            t1 = spec.times_ms[1]
            for p, pct in spec.speedup_pct.items():
                derived = (1 - spec.times_ms[p] / t1) * 100
                assert derived == pytest.approx(pct, abs=0.6), spec.name

    def test_avg_degree(self):
        assert PAPER_GRAPHS["orkut"].avg_degree == pytest.approx(38.1, abs=0.5)


class TestStandin:
    def test_scaled_counts(self):
        ds = standin("pokec", scale=1 / 100)
        assert ds.num_edges == pytest.approx(ds.paper.num_edges / 100, rel=0.01)
        assert ds.num_nodes == pytest.approx(ds.paper.num_nodes / 100, rel=0.01)

    def test_sorted_and_in_range(self):
        ds = standin("webnotredame", scale=1 / 20)
        assert is_sorted(ds.sources)
        assert ds.sources.max() < ds.num_nodes
        assert ds.destinations.max() < ds.num_nodes

    def test_deterministic(self):
        a = standin("orkut", scale=1 / 500, seed=42)
        b = standin("orkut", scale=1 / 500, seed=42)
        assert np.array_equal(a.sources, b.sources)
        c = standin("orkut", scale=1 / 500, seed=43)
        assert not np.array_equal(a.sources, c.sources)

    def test_avg_degree_tracks_paper(self):
        ds = standin("livejournal", scale=1 / 64)
        assert ds.avg_degree == pytest.approx(ds.paper.avg_degree, rel=0.05)

    def test_degree_skew_is_social(self):
        ds = standin("livejournal", scale=1 / 256)
        deg = np.bincount(ds.sources, minlength=ds.num_nodes)
        assert deg.max() > 20 * max(1.0, deg.mean())

    def test_unknown_graph(self):
        with pytest.raises(ValidationError, match="known:"):
            standin("friendster")

    def test_scale_bounds(self):
        with pytest.raises(ValidationError):
            standin("pokec", scale=0)
        with pytest.raises(ValidationError):
            standin("pokec", scale=1.5)


class TestChurnEvents:
    def test_stream_shape(self):
        from repro.datasets.temporal import churn_events

        ev = churn_events(
            100, 300, 10, add_per_frame=30, delete_per_frame=20,
            rng=np.random.default_rng(1),
        )
        assert ev.num_frames == 10
        assert ev.num_nodes == 100
        # frame 0 holds the base graph
        u0, _ = ev.frame_slice(0)
        assert u0.shape[0] > 200

    def test_deletions_toggle_active_edges(self):
        from repro.datasets.temporal import churn_events

        ev = churn_events(
            50, 200, 6, add_per_frame=0, delete_per_frame=40,
            rng=np.random.default_rng(2),
        )
        # active set must shrink monotonically with pure deletions
        sizes = [ev.active_keys_at(f).shape[0] for f in range(6)]
        assert sizes == sorted(sizes, reverse=True)
        assert sizes[-1] < sizes[0]

    def test_validation(self):
        from repro.datasets.temporal import churn_events

        with pytest.raises(ValidationError):
            churn_events(1, 10, 5)
        with pytest.raises(ValidationError):
            churn_events(10, 10, 0)
