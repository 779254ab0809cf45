"""Tests of the benchmark's own helpers: spans and self time, binding
replacement, metric names and units, and failure counting."""
from __future__ import annotations

import json
import re
import statistics
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import report
import run
import workloads
from tracer import Span, Target, Tracer
from workloads import Fit, Op, PassLog

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class FakeClock:
    """Returns the given instants in order."""

    def __init__(self, *ticks: float):
        self.ticks = list(ticks)

    def __call__(self) -> float:
        return self.ticks.pop(0)


def test_self_time_is_duration_minus_children():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
    tracer = Tracer(clock=FakeClock(0, 1, 2, 3, 4, 5, 9, 10))
    with tracer.span("bench.pass"):
        with tracer.span("solver.a"):
            with tracer.span("tensors.b"):
                pass
        with tracer.span("solver.c"):
            pass
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["tensors.b"].self_s == 1
    assert by_name["solver.a"].self_s == 2
    assert by_name["solver.c"].self_s == 4
    assert by_name["bench.pass"].self_s == 3
    assert tracer.self_by_layer() == {"bench": 3, "solver": 6, "tensors": 1}
    assert sum(tracer.self_by_layer().values()) == by_name["bench.pass"].duration
    assert tracer.total("solver.a", "solver.c") == 7
    assert tracer.calls("solver.a", "solver.c", "nope") == 2
    assert tracer.self_time("solver.a", "solver.c") == 6


def test_span_closes_when_the_call_raises():
    tracer = Tracer(clock=FakeClock(0, 1, 3, 4))
    with pytest.raises(RuntimeError):
        with tracer.span("bench.pass"):
            with tracer.span("solver.a"):
                raise RuntimeError("boom")
    assert [s.name for s in tracer.spans] == ["solver.a", "bench.pass"]
    assert tracer.spans[1].self_s == 2


@pytest.fixture
def fake_module():
    """A module whose ``outer`` looks ``inner`` up in its own globals."""
    mod = types.ModuleType("bench_fake_consumer")
    exec("def inner(x):\n    return x + 1\n\n"
         "def outer(x):\n    return inner(x) * 2\n", mod.__dict__)
    sys.modules[mod.__name__] = mod
    yield mod
    del sys.modules[mod.__name__]


def test_installed_wraps_the_consumer_binding_and_restores_it(fake_module):
    original = fake_module.inner
    seen = []
    tracer = Tracer()
    targets = [Target("bench_fake_consumer", "inner", "tensors.inner",
                      lambda args, kwargs, result: seen.append((args, result)))]
    with tracer.installed(targets):
        assert fake_module.outer(1) == 4
    assert fake_module.inner is original
    assert [s.name for s in tracer.spans] == ["tensors.inner"]
    assert seen == [((1,), 2)]
    assert fake_module.outer(1) == 4
    assert len(tracer.spans) == 1  # nothing recorded once restored


def test_missing_target_is_reported_absent_not_raised(fake_module):
    tracer = Tracer()
    targets = [Target("bench_fake_consumer", "removed_by_refactor", "solver.gone"),
               Target("bench_no_such_module", "f", "solver.f"),
               Target("bench_fake_consumer", "inner", "tensors.inner")]
    with tracer.installed(targets):
        fake_module.outer(0)
    assert tracer.absent == ["bench_fake_consumer.removed_by_refactor",
                             "bench_no_such_module.f"]
    assert tracer.calls("tensors.inner") == 1


def test_bindings_restored_when_the_block_raises(fake_module):
    original = fake_module.inner
    with pytest.raises(ValueError):
        with Tracer().installed([Target("bench_fake_consumer", "inner", "tensors.inner")]):
            raise ValueError
    assert fake_module.inner is original


def test_benchmark_json_matches_emitted_metrics():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layer = {m["name"]: m for m in spec["per_layer"]}
    assert {n: m["unit"] for n, m in e2e.items()} == report.E2E_UNITS
    assert {n: m["unit"] for n, m in layer.items()} == report.LAYER_UNITS
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    for m in e2e.values():
        assert 0 < m["bound"] <= 0.25
    for m in [*e2e.values(), *layer.values(), *spec["workloads"]]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", m["name"])
    for m in [*e2e.values(), *layer.values()]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
        assert m["better"] in ("lower", "higher")


def test_result_line_has_exactly_the_declared_metrics():
    units = {"wall_s": "s", "accuracy_min": "fraction"}
    line = report.result_line(True, 3, 0, {"wall_s": 1.25, "accuracy_min": 1.0}, units)
    doc = json.loads(line)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["metrics"]["wall_s"] == {"value": 1.25, "unit": "s"}
    with pytest.raises(ValueError, match="missing"):
        report.result_line(True, 3, 0, {"wall_s": 1.25}, units)


def test_quartiles_follow_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    q1, med, q3 = report.quartiles(values)
    assert [q1, med, q3] == statistics.quantiles(values, n=4)
    assert report.quartiles([2.5]) == (2.5, 2.5, 2.5)
    assert report.summarize([1.0, 3.0])["n"] == 2
    assert report.gmean([1.0, 4.0]) == pytest.approx(2.0)
    assert report.gmean([0.0, 4.0]) == 0.0


def test_working_set_is_compared_with_the_last_level_cache():
    caches = {"L1": "48K", "L2": "2048K", "L3": "300M"}
    assert report._size_bytes("2048K") == 2048 * 1024
    assert report.working_set_line(5_200_000, caches).endswith("fits in L3: True")
    assert report.working_set_line(400 << 20, caches).endswith("fits in L3: False")


def test_differing_bytes_fail_against_the_first_pass():
    first = run.Pass(False, 1.0, Tracer(), PassLog(), [Op("a", True, "x"), Op("b", True, "y")])
    same = run.Pass(False, 1.0, Tracer(), PassLog(), [Op("a", True, "x"), Op("b", True, "y")])
    drift = run.Pass(False, 1.0, Tracer(), PassLog(), [Op("a", True, "x"), Op("b", True, "z")])
    short = run.Pass(False, 1.0, Tracer(), PassLog(), [Op("a", True, "x")])
    run.check_against_first([first, same, drift, short])
    assert all(op.ok for op in same.ops)
    assert [op.ok for op in drift.ops] == [True, False]
    assert not short.ops[-1].ok


def test_accounting_check_flags_unknown_layers():
    tracer = Tracer(clock=FakeClock(0, 1, 2, 4))
    with tracer.span("bench.pass"):
        with tracer.span("solver.a"):
            pass
    assert run.check_accounting(run.Pass(True, 4.0, tracer, PassLog(), [])).ok
    tracer.spans.append(Span("mystery.f", 0, 0, 0.0))
    assert not run.check_accounting(run.Pass(True, 4.0, tracer, PassLog(), [])).ok


def test_non_finite_or_missing_embedding_fails():
    good = Fit("m2e_fit", 0.1, False, 500, "d", True)
    assert workloads._fit_op("hiv/m2e_fit", good).ok
    assert not workloads._fit_op("hiv/m2e_fit", None).ok

    log = PassLog()
    sol = types.SimpleNamespace(final_objective=2.0, converged=False, iterations=7,
                                consensus=np.array([[1.0, np.nan]]))
    log.on_m2e_fit("m2e_fit", ([np.ones((2, 2, 1))],), {}, sol)
    assert log.fits[0].rel_objective == 0.5  # 2.0 over the energy of four ones
    assert not log.fits[0].finite
    assert not workloads._fit_op("hiv/m2e_fit", log.fits[0]).ok


def test_pass_metrics_from_spans():
    # fit [1, 5] holds a block system [2, 3]; evaluate [6, 7]; pass [0, 8]
    tracer = Tracer(clock=FakeClock(0, 1, 2, 3, 5, 6, 7, 8))
    log = PassLog(fits=[Fit("m2e_fit", 0.25, True, 4, "d", True),
                        Fit("m2e_ts_fit", 0.04, False, 6, "e", True),
                        Fit("m2e_ds_fit", 500.0, False, 5, "g", True),
                        Fit("cp_als_fit", float("nan"), True, 3, "f", True)],
                  accuracies=[1.0, 0.75])
    with tracer.span("bench.pass"):
        with tracer.span("solver.m2e_fit"):
            with tracer.span("solver.node_system"):
                pass
        with tracer.span("runner.run_evaluate"):
            pass
    e2e = workloads.e2e_values(tracer, log, 8.0)
    assert e2e == {"wall_s": 8.0, "fit_s": 4.0, "eval_s": 1.0, "accuracy_min": 0.75}
    layers = workloads.layer_values(tracer, log, 8.0)
    assert layers["solver.block_system_s"] == 1.0
    assert layers["solver.loop_self_s"] == 3.0
    assert layers["solver.outer_iters"] == 15
    assert layers["solver.ms_per_iter"] == pytest.approx(4000.0 / 15)
    assert layers["solver.converged_frac"] == pytest.approx(1 / 3)
    assert layers["solver.rel_objective_gmean"] == pytest.approx(5 ** (1 / 3))
    assert layers["cp.iters"] == 3
    assert layers["trace.unattributed_s"] == 3.0
    self_total = sum(layers[f"{layer}.self_s"] for layer in report.LAYERS)
    assert self_total + layers["trace.unattributed_s"] == layers["trace.wall_s"]
    assert set(layers) | {"trace.overhead_frac", "setup.import_s", "setup.generate_s",
                          "setup.warmup_s"} == set(report.LAYER_UNITS)


def test_run_refuses_without_package_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "cli-disk", "--seed", "1", "--seconds", "1"])
    assert code == 2
    assert capsys.readouterr().out == ""
