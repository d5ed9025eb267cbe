"""Text table/series rendering."""

import pytest

from repro.analysis.tables import format_value, render_series, render_table, sparkline
from repro.errors import ValidationError


class TestFormatValue:
    @pytest.mark.parametrize(
        "value,expect",
        [
            (0.0, "0"),
            (3.14159, "3.14"),
            (0.001234, "0.0012"),
            (123456.7, "123,456.7"),
            (1234567, "1,234,567"),
            (42, "42"),
            (None, "None"),
            (True, "True"),
        ],
    )
    def test_cases(self, value, expect):
        assert format_value(value) == expect


class TestRenderTable:
    def test_alignment_and_structure(self):
        out = render_table(
            ["name", "count"],
            [["alpha", 10], ["b", 2000]],
            title="T",
        )
        lines = out.splitlines()
        assert lines[0] == "T"
        assert lines[1].startswith("name")
        # numeric column right-aligned
        assert lines[3].rstrip().endswith("10")
        assert lines[4].rstrip().endswith("2,000" if "2,000" in out else "2000")

    def test_row_width_mismatch(self):
        with pytest.raises(ValidationError, match="row 0"):
            render_table(["a", "b"], [[1]])

    def test_needs_headers(self):
        with pytest.raises(ValidationError):
            render_table([], [])

    def test_empty_rows_ok(self):
        out = render_table(["a"], [])
        assert "a" in out


class TestSparkline:
    def test_monotone_ramp(self):
        line = sparkline([1, 2, 3, 4])
        assert line[0] == "▁" and line[-1] == "█"

    def test_flat(self):
        assert sparkline([5, 5, 5]) == "▁▁▁"

    def test_empty(self):
        assert sparkline([]) == ""


class TestRenderSeries:
    def test_union_of_x_values_with_gaps(self):
        out = render_series(
            "S",
            {"a": {1: 1.0, 4: 4.0}, "b": {1: 2.0, 8: 8.0}},
        )
        lines = out.splitlines()
        assert lines[0] == "S"
        assert "8" in lines[1]
        assert "-" in out  # missing points dashed

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            render_series("S", {})
