"""The tracer records consistent spans and every per-layer metric."""

import json
import random

import run
import spans
import workloads


def test_per_layer_metrics_are_the_ones_benchmark_json_declares():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert [(m["name"], m["unit"]) for m in declared] == list(spans.PER_LAYER)


def test_traced_operation_gives_consistent_spans(tmp_path):
    pkg = run._import_package()
    ops = workloads.SETUPS["recode"](random.Random(5), tmp_path, run.DATA, 1)
    tracer = spans.Tracer()
    untraced_caches = run._caches(pkg)
    tracer.install(pkg)
    assert {id(c) for c in run._caches(pkg)} == {id(c) for c in untraced_caches}
    assert len(untraced_caches) >= 3  # blocks, enumerate_periodic, _essential_flags
    run_cli = tracer.wrap("cli.run_cli", pkg.cli.run_cli)
    tracer.read_caches()
    _, results, error = run.run_op(run_cli, ops[0])
    tracer.read_caches()
    assert error is None and ops[0].check(results) == []

    ids = {}
    for span_id, parent, name, start, end in tracer.spans:
        ids[span_id] = (start, end)
    for span_id, parent, name, start, end in tracer.spans:
        assert start <= end
        if parent:  # a child lies inside its parent
            p_start, p_end = ids[parent]
            assert p_start <= start and end <= p_end
    top = [s for s in tracer.spans if s[1] == 0]
    assert [s[2] for s in top] == ["cli.run_cli", "cli.run_cli"]
    wall = sum(end - start for _, _, _, start, end in top)
    assert 0 < sum(tracer.self_s.values()) <= wall * 1.001

    metrics = tracer.per_layer(rounds=1, output_bytes=100)
    assert list(metrics) == [name for name, _ in spans.PER_LAYER]
    assert metrics["matrices.mat_mul.calls"]["value"] > 0
    assert metrics["matrices.mat_mul.dense_madds"]["value"] > 0
    assert 0 < metrics["matrices.mat_mul.operand_density"]["value"] < 1
    assert metrics["flips.FlipPair.calls"]["value"] > 0
    assert 0 < metrics["shifts.blocks.cache_hit_ratio"]["value"] < 1
    assert metrics["constructions.decompose_conjugacy.self_s"]["value"] > 0

    out = tmp_path / "spans.csv"
    tracer.write_spans(out)
    assert len(out.read_text().splitlines()) == len(tracer.spans) + 1
