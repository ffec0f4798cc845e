"""Tests of the benchmark's own code: span arithmetic, metric names, smoke runs.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import sys
import types
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
ELEMRANGE, CLI = run.import_cli()


def tiny(name: str):
    """The named workload cut to one small instance per batch."""
    return replace(workloads.WORKLOADS[name], batch=1, directions=8, judged=1)


class TestSelfTimes:
    def test_nested_spans(self):
        # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
        s = [(0.0, 10.0, -1), (1.0, 4.0, 0), (2.0, 3.0, 1), (5.0, 9.0, 0)]
        assert spans.self_times(s) == pytest.approx([3.0, 2.0, 1.0, 4.0])

    def test_overlapping_children_count_once(self):
        s = [(0.0, 10.0, -1), (1.0, 5.0, 0), (3.0, 7.0, 0), (8.0, 9.0, 0)]
        assert spans.self_times(s)[0] == pytest.approx(10.0 - 6.0 - 1.0)

    def test_children_clipped_to_parent(self):
        s = [(2.0, 6.0, -1), (0.0, 3.0, 0), (5.0, 9.0, 0)]
        assert spans.self_times(s)[0] == pytest.approx(2.0)

    def test_self_times_sum_to_root_duration(self):
        s = [(0.0, 8.0, -1), (0.5, 7.0, 0), (1.0, 2.0, 1), (2.5, 6.0, 1), (3.0, 4.0, 3)]
        assert sum(spans.self_times(s)) == pytest.approx(8.0)

    def test_table_attributes_phases_by_parent(self):
        names = ["cli.main", "orbit.banach_region", "unitary_opt.maximize_grouped"]
        raw = [
            (0, 0.0, 10.0, -1, -1, None),
            (1, 1.0, 9.0, 0, 0, [3, 2]),
            (2, 1.0, 4.0, 1, 0, (True, 2, 1, 200)),
            (2, 5.0, 6.0, 1, 0, (False, 2, 2, 30)),
        ]
        table = spans.SpanTable(names, raw)
        mg = "unitary_opt.maximize_grouped"
        assert table.inclusive(mg, "orbit.banach_region", lambda i: i[0]) == 3.0
        assert table.inclusive(mg, "orbit.banach_region", lambda i: not i[0]) == 1.0
        values, absent = spans.evaluate(table, "cli.main", 1, set(names))
        assert values["orbit.ray_shifts_mean"][0] == 2.5
        assert values["unitary_opt.converged_fraction"][0] == 0.75
        assert values["unitary_opt.iterations_max"][0] == 200
        assert values["trace.covered_frac"][0] == pytest.approx(0.8)
        assert "orbit.chain_polish_s" in absent


class TestMetricNames:
    def test_names_and_units_are_well_formed(self):
        for entry in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
            assert NAME.fullmatch(entry["name"]), entry
            assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", entry["unit"]), entry
        names = [e["name"] for e in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
        assert len(names) == len(set(names))

    def test_per_layer_list_matches_the_tracer(self):
        table = spans.SpanTable([], [])
        defined = {
            name: {"name": name, "unit": unit, "better": better}
            for name, unit, better, _, _ in spans.layer_metrics(table, "cli.main", 1)
        }
        defined["trace.overhead_frac"] = {
            "name": "trace.overhead_frac", "unit": "ratio", "better": "lower",
        }
        assert sorted(BENCHMARK["per_layer"], key=lambda e: e["name"]) == sorted(
            defined.values(), key=lambda e: e["name"]
        )

    def test_workloads_match_the_benchmark_file(self):
        assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


class TestRunLength:
    def test_rounds_end_nearest_the_deadline(self, monkeypatch):
        monkeypatch.setattr(run.time, "perf_counter", lambda: 120.0)
        # 20 s in two rounds: a third ends at 30 s, 0 s late; go on.
        assert run.another_round(100.0, 2, 1, 30.0)
        # 20 s in one round: a second ends at 40 s, 10 s late; stop 10 s early.
        assert not run.another_round(100.0, 1, 1, 30.0)
        assert run.another_round(100.0, 1, 2, 30.0)  # below the minimum
        assert not run.another_round(100.0, 4, 1, 10.0)


class TestTracer:
    def test_missing_private_name_is_reported_not_raised(self):
        mod = types.ModuleType("fake.orbit")

        def orbit_region():
            return 1

        orbit_region.__module__ = "fake.orbit"
        orbit_region.__qualname__ = "orbit_region"
        mod.orbit_region = orbit_region
        pkg = types.SimpleNamespace(__name__="fake", orbit=mod)
        tracer = spans.Tracer()
        tracer.install(pkg)
        try:
            assert mod.orbit_region() == 1
        finally:
            tracer.restore()
        assert mod.orbit_region is orbit_region
        assert "orbit._chain_polish" in tracer.missing
        assert "cli" in tracer.missing
        assert [tracer.names[s[0]] for s in tracer.spans] == ["orbit.orbit_region"]


class TestGate:
    def _result(self, tmp_path, name="verify-n2k2"):
        wl = tiny(name)
        paths, docs = workloads.write_batch(wl, 3, 0, tmp_path)
        out = tmp_path / "result.json"
        code, _, _ = run.call_cli(CLI, wl.argv(paths, out))
        return wl, docs, code, out.read_bytes()

    def test_failures_count_every_check_of_the_batch(self, tmp_path):
        wl, docs, _, payload = self._result(tmp_path)
        assert workloads.check_batch(wl, docs, 1, payload, 3).failed == 3
        assert workloads.check_batch(wl, docs, 0, b"{not json", 3).failed == 3
        assert workloads.check_batch(wl, docs, 0, payload, 3).failed == 0

    def test_tampered_region_fails(self, tmp_path):
        wl, docs, code, payload = self._result(tmp_path)
        result = json.loads(payload)
        for pair in result["instances"][0]["regions"]["lhs"]["support"]:
            pair[1] -= 1.0
        chk = workloads.check_batch(wl, docs, code, json.dumps(result).encode(), 3)
        assert chk.failed == 1 and "main_formula" in chk.problems[0]

    def test_derivation_checked_against_own_oracle(self, tmp_path):
        wl, docs, code, payload = self._result(tmp_path, "derivation-n4")
        result = json.loads(payload)
        assert workloads.check_batch(wl, docs, code, payload, 3).failed == 0
        result["instances"][0]["regions"]["rhs"]["support"][0][1] += 1.0
        chk = workloads.check_batch(wl, docs, code, json.dumps(result).encode(), 3)
        assert chk.failed == 1

    def test_instances_are_a_function_of_the_seed(self):
        wl = workloads.WORKLOADS["verify-n2k2"]
        assert workloads.make_instance(wl, 5, 2, 1) == workloads.make_instance(wl, 5, 2, 1)
        assert workloads.make_instance(wl, 5, 2, 1) != workloads.make_instance(wl, 6, 2, 1)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_passes_the_gate(name, tmp_path):
    untraced = run.Run(tiny(name), 1, tmp_path, CLI)
    metrics = run.run_untraced(untraced, 0.0)
    assert untraced.failed == 0 and untraced.attempted > 0, untraced.problems
    e2e = {e["name"] for e in BENCHMARK["end_to_end"]}
    assert set(metrics) == e2e - {"setup_s"}

    traced = run.Run(tiny(name), 1, tmp_path, CLI)
    layers, identical = run.run_traced(traced, 0.0, ELEMRANGE, tmp_path / "spans.jsonl.gz")
    assert identical and traced.failed == 0, traced.problems
    assert set(layers) == {e["name"] for e in BENCHMARK["per_layer"]}
    assert layers["trace.covered_frac"]["value"] >= 0.95
    assert (tmp_path / "spans.jsonl.gz").stat().st_size > 0
