import importlib
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import tracing
from tracing import Span


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(0, None, 0, "root", "x", 0.0, 10.0),
        Span(1, 0, 0, "a", "x", 1.0, 4.0),
        Span(2, 1, 0, "b", "x", 2.0, 3.0),
        Span(3, 0, 0, "a", "x", 3.5, 6.0),  # overlaps the first child: union counts once
        Span(4, 0, 0, "c", "x", 9.0, 12.0),  # runs past the parent: clipped at its end
    ]
    assert tracing.self_times(spans) == pytest.approx([10 - 5 - 1, 2.0, 1.0, 2.5, 3.0])


def test_layer_metrics_count_nested_same_name_spans_once():
    tracer = tracing.Tracer()
    tracer.spans = [
        Span(0, None, 0, "claws.find_claw", "claws", 0.0, 4.0),
        Span(1, 0, 0, "claws.find_claw", "oracle", 1.0, 2.0),
    ]
    m = tracing.layer_metrics(tracer, [0])
    assert m["claws.find_claw_s"] == 4.0 and m["claws.find_claw_calls"] == 2
    assert m["oracle.nodes"] == 1


def _sites():
    out = []
    for _, module, attr in tracing.SITES:
        found = tracing._resolve(module, attr)
        assert found is not None, f"{module}.{attr} missing"
        container, key, is_dict = found
        if is_dict:
            out.extend((container, k, v, True) for k, v in container.items())
        else:
            out.append((container, key, getattr(container, key), False))
    return out


def test_wrappers_are_uninstalled_after_a_traced_run(tmp_path):
    import clawdel.cli as cli

    before = _sites()
    path = tmp_path / "g.bip"
    cli.main(["gen", "--family", "bip-dense", "--seed", "1", "--t", "3", "--na", "5", "--nb", "8",
              "--output", str(path)])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        out = io.StringIO()
        with redirect_stdout(out):
            assert cli.main(["solve", "--alg", "exact", "--input", str(path), "--json"]) == 0
    finally:
        tracer.uninstall()
    for container, key, fn, is_dict in before:
        now = container[key] if is_dict else getattr(container, key)
        assert now is fn
    m = tracing.layer_metrics(tracer, [0])
    assert m["oracle.exact_s"] > 0 and m["oracle.nodes"] > 0 and m["solvers.primal_dual_s"] > 0
    assert json.loads(out.getvalue())["algorithm"] == "exact"


def test_a_removed_name_is_reported_absent_and_reads_zero(monkeypatch):
    oracle = importlib.import_module("clawdel.oracle")
    monkeypatch.delattr(oracle, "exact_min_deletion_set")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["clawdel.oracle.exact_min_deletion_set"]
    assert tracing.layer_metrics(tracer, [0])["oracle.exact_s"] == 0


def test_benchmark_json_declares_every_per_layer_metric():
    spec = json.loads((Path(tracing.__file__).parents[1] / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert declared == tracing.per_layer_spec()


def test_a_changed_result_shape_is_reported_not_raised(monkeypatch):
    solvers = importlib.import_module("clawdel.solvers")
    monkeypatch.setattr(solvers, "reverse_delete", lambda g, ordered: None)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert solvers.reverse_delete(None, [1, 2]) is None
    finally:
        tracer.uninstall()
    assert tracer.unobserved == {"claws.reverse_delete"}
