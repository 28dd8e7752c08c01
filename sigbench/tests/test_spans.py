"""The outside-in tracer: patching, span nesting, self time, metric names."""

import json
from pathlib import Path

import sigcalc.cli
import sigcalc.indexcalc
from spans import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parents[2]


def _traced_dlog():
    with Tracer() as tracer:
        tracer.op = 0
        m = sigcalc.cli.index_calculus_dlog(1021, 5, 10, 800, 1000, 11)
    return tracer, m


def test_tracer_wraps_every_importer_and_restores_them():
    original = sigcalc.indexcalc.index_calculus_dlog
    assert sigcalc.cli.index_calculus_dlog is original
    with Tracer():
        assert sigcalc.cli.index_calculus_dlog is not original
        assert sigcalc.cli.index_calculus_dlog is sigcalc.indexcalc.index_calculus_dlog
    assert sigcalc.cli.index_calculus_dlog is original
    assert sigcalc.indexcalc.index_calculus_dlog is original


def test_traced_answer_is_unchanged():
    tracer, m = _traced_dlog()
    assert m == sigcalc.indexcalc.index_calculus_dlog(1021, 5, 10, 800, 1000, 11)


def test_spans_nest_under_their_caller_and_self_time_excludes_children():
    tracer, _ = _traced_dlog()
    top = tracer.spans[0]
    assert top.name == "indexcalc.index_calculus_dlog" and top.parent is None
    theta = tracer.spans_named("indexcalc.build_theta_table", "indexcalc.index_calculus_dlog")
    assert len(theta) == 1
    for span in tracer.spans:
        assert span.op == 0
        assert 0 <= span.self_seconds <= span.seconds
        if span.parent is not None:
            parent = tracer.spans[span.parent]
            assert parent.start <= span.start <= span.end <= parent.end
    calls, _ = tracer.hot_total("seeds.rng_for", "indexcalc.collect_relations")
    assert calls > 0
    table = tracer.self_times()
    assert table["indexcalc.index_calculus_dlog"]["self_s"] < table["indexcalc.index_calculus_dlog"]["total_s"]


def test_layer_metrics_count_what_ran():
    tracer, _ = _traced_dlog()
    m = layer_metrics(tracer)
    assert m["indexcalc.collect_calls"] == m["indexcalc.solve_calls"] >= 1
    assert m["indexcalc.relations_collected"] >= m["indexcalc.solve_rank"] > 0
    assert 0 < m["indexcalc.relation_useful_ratio"] <= 1
    assert 0 < m["indexcalc.smooth_yield"] <= 1
    assert m["charsig.lift_calls"] == m["ecurve.point_count_calls"] == 0


def test_metric_names_and_units_match_benchmark_json():
    import run

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    tracer, _ = _traced_dlog()
    extra = ["cli.interp_s", "cli.import_s", "cli.modules_loaded", "cli.command_s",
             "charsig.generic_attempted", "charsig.generic_solved", "trace_overhead_frac"]
    produced = {name: run.per_layer_unit(name) for name in [*layer_metrics(tracer), *extra]}
    assert produced == declared
    assert {m["name"] for m in bench["end_to_end"]} == {
        "setup_s", "best_ops_per_s", "peak_rss_mb"}
