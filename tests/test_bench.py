"""The perf-regression harness: timing, results files, comparison, CLI."""

from __future__ import annotations

import json

import pytest

from repro.bench.compare import compare_results, format_table
from repro.bench.results import (
    BenchResult,
    host_metadata,
    load_results,
    write_results,
)
from repro.bench.timing import measure
from repro.cli import main


class TestMeasure:
    def test_returns_result_and_counts_calls(self):
        calls = []

        def fn(value):
            calls.append(value)
            return value * 2

        result, timing = measure(fn, 21, rounds=3, iterations=2, warmup=1)
        assert result == 42
        assert len(calls) == 1 + 3 * 2
        assert timing.rounds == 3
        assert timing.iterations == 2

    def test_best_is_minimum_of_rounds(self):
        result, timing = measure(lambda: None, rounds=5)
        assert timing.best <= timing.mean <= timing.worst
        assert timing.best <= timing.median <= timing.worst
        assert timing.total > 0

    def test_kwargs_forwarded(self):
        result, _ = measure(lambda a, b=0: a + b, 1, b=2, rounds=1, warmup=0)
        assert result == 3

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            measure(lambda: None, rounds=0)
        with pytest.raises(ValueError):
            measure(lambda: None, iterations=0)
        with pytest.raises(ValueError):
            measure(lambda: None, warmup=-1)


class TestResultsFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        write_results(path, [
            BenchResult(id="b::one", wall_seconds=0.5, mean_seconds=0.6,
                        median_seconds=0.55, rounds=3, iterations=1),
            BenchResult(id="b::two", wall_seconds=1.5),
        ])
        loaded = load_results(path)
        assert set(loaded) == {"b::one", "b::two"}
        assert loaded["b::one"].wall_seconds == 0.5
        assert loaded["b::one"].rounds == 3
        assert loaded["b::one"].median_seconds == 0.55
        assert loaded["b::two"].mean_seconds is None

    def test_host_metadata_recorded(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        payload = write_results(path, [])
        for key in ("platform", "python", "numpy", "cpu_count", "timestamp"):
            assert key in payload["host"]
        assert json.loads(path.read_text())["schema_version"] == 2

    def test_schema_v1_loads(self, tmp_path):
        """Historical committed baselines (schema 1) stay comparable."""
        path = tmp_path / "BENCH_v1.json"
        path.write_text(json.dumps({
            "schema_version": 1,
            "benchmarks": [{"id": "b::old", "wall_seconds": 2.0}],
        }))
        loaded = load_results(path)
        assert loaded["b::old"].wall_seconds == 2.0

    def test_non_bench_file_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text("{}")
        with pytest.raises(ValueError, match="benchmarks"):
            load_results(path)

    def test_host_metadata_standalone(self):
        meta = host_metadata()
        assert meta["cpu_count"] >= 1


class TestCompare:
    def _results(self, **wall):
        return {
            name: BenchResult(id=name, wall_seconds=seconds)
            for name, seconds in wall.items()
        }

    def test_statuses(self):
        rows = compare_results(
            self._results(a=1.0, b=1.0, c=1.0, gone=1.0),
            self._results(a=1.05, b=2.0, c=0.4, fresh=1.0),
            tolerance=0.25,
        )
        by_id = {row.id: row for row in rows}
        assert by_id["a"].status == "ok"
        assert by_id["b"].status == "regression"
        assert by_id["b"].ratio == pytest.approx(2.0)
        assert by_id["c"].status == "improved"
        assert by_id["fresh"].status == "new"
        assert by_id["gone"].status == "missing"

    def test_regressions_sort_first(self):
        rows = compare_results(
            self._results(z=1.0, a=1.0), self._results(z=5.0, a=1.0)
        )
        assert rows[0].id == "z"

    def test_zero_baseline_counts_as_regression(self):
        rows = compare_results(self._results(a=0.0), self._results(a=1.0))
        assert rows[0].status == "regression"

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            compare_results({}, {}, tolerance=-0.1)

    def test_table_formatting(self):
        rows = compare_results(
            self._results(a=1.0, b=0.0001), self._results(a=1.6, b=0.0001)
        )
        table = format_table(rows, tolerance=0.25)
        assert "regression" in table
        assert "+60.0%" in table
        assert "100.0µs" in table
        assert "1 regression(s)" in table

    def test_paths_accepted(self, tmp_path):
        base = tmp_path / "base.json"
        cur = tmp_path / "cur.json"
        write_results(base, [BenchResult(id="x", wall_seconds=1.0)])
        write_results(cur, [BenchResult(id="x", wall_seconds=1.1)])
        rows = compare_results(base, cur)
        assert rows[0].status == "ok"


class TestBenchCli:
    def _write(self, path, wall):
        write_results(path, [BenchResult(id="b::t", wall_seconds=wall)])

    def test_compare_ok_exit_zero(self, tmp_path, capsys):
        base, cur = tmp_path / "b.json", tmp_path / "c.json"
        self._write(base, 1.0)
        self._write(cur, 1.1)
        code = main(["bench", "compare", "--baseline", str(base),
                     "--current", str(cur)])
        assert code == 0
        assert "0 regression(s)" in capsys.readouterr().out

    def test_compare_regression_gates_only_with_flag(self, tmp_path, capsys):
        base, cur = tmp_path / "b.json", tmp_path / "c.json"
        self._write(base, 1.0)
        self._write(cur, 3.0)
        assert main(["bench", "compare", "--baseline", str(base),
                     "--current", str(cur)]) == 0
        assert main(["bench", "compare", "--baseline", str(base),
                     "--current", str(cur), "--fail-on-regression"]) == 1
        out = capsys.readouterr().out
        assert "regression" in out

    def test_compare_tolerance_flag(self, tmp_path):
        base, cur = tmp_path / "b.json", tmp_path / "c.json"
        self._write(base, 1.0)
        self._write(cur, 1.4)
        assert main(["bench", "compare", "--baseline", str(base),
                     "--current", str(cur), "--tolerance", "0.5",
                     "--fail-on-regression"]) == 0
        assert main(["bench", "compare", "--baseline", str(base),
                     "--current", str(cur), "--tolerance", "0.1",
                     "--fail-on-regression"]) == 1

    def test_compare_missing_file_exit_two(self, tmp_path, capsys):
        code = main(["bench", "compare",
                     "--baseline", str(tmp_path / "nope.json"),
                     "--current", str(tmp_path / "nope2.json")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_run_missing_benchmarks_dir(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["bench", "run", "--benchmarks-dir",
                  str(tmp_path / "missing"), "--out",
                  str(tmp_path / "out.json")])
