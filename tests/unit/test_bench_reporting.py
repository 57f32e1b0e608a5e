"""Unit tests for benchmark reporting."""

from repro.bench.reporting import format_series, format_table


class TestReporting:
    def test_format_table_alignment(self):
        out = format_table("T", ["name", "value"],
                           [["a", 1.0], ["bb", 123456.0]])
        lines = out.splitlines()
        assert lines[0] == "== T =="
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_format_numbers(self):
        out = format_table("T", ["v"], [[0.123456], [12.3], [1234567.0]])
        assert "0.123" in out
        assert "12.3" in out
        assert "1,234,567" in out

    def test_format_series(self):
        out = format_series("S", "x", [1, 2],
                            {"a": [10.0, 20.0], "b": [1.0, 2.0]})
        assert "x" in out and "a" in out and "b" in out
        assert out.count("\n") == 4
