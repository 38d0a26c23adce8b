"""Tests for the benchmark's own code: builders, checks and tracing.

Run with ``python3 -m pytest bench``.
"""

import json
import os
import random

import pytest

import clock
import inputs
import run
import tracer
import workloads as wl
from sutured import exactlin, glue, pieces, sfc, surface

HERE = os.path.dirname(os.path.abspath(__file__))


def _ranks(d):
    hom = sfc.homology(d)
    return hom.total, sorted(hom.by_class.values())


def test_builders_make_valid_nice_admissible_diagrams():
    built = [inputs.punctured_grid(3, 1), inputs.punctured_grid(4, 1),
             inputs.punctured_grid(5, 2), inputs.bigonpair_power(3)]
    for d in built:
        assert surface.validate(d) == []
        assert sfc.is_nice(d)[0]
        assert sfc.is_admissible(d)[0]
    plans = [wl._plan(7, "test", "stab", pieces.build("fix-stab"), 1, wl.SMALL_SHAPES[-1]),
             wl._plan(7, "test", "grid", inputs.punctured_grid(3, 1), 6, wl.GRID_SHAPES[1])]
    assert [len(p.specs) for p in plans] == [8, 4]
    assert wl.setup_problems(plans) == []
    grids = [wl.Instance("g3", inputs.punctured_grid(3, 1), generators=6),
             wl.Instance("b3", inputs.bigonpair_power(3), generators=8)]
    assert wl.setup_problems(grids) == []


def test_known_counts():
    assert len(sfc.generators(inputs.punctured_grid(4, 1))) == 24
    assert _ranks(inputs.punctured_grid(3, 1))[0] == 4  # 2^(n-1), correct at n = 3
    assert _ranks(inputs.bigonpair_power(3)) == (8, [8])


def test_relabeling_keeps_ranks():
    for n in (3, 4):
        d = inputs.punctured_grid(n, 1)
        one = inputs.relabel(d, random.Random(1))
        two = inputs.relabel(d, random.Random(2))
        # the id-sorted face order differs: puncture squares move around
        shape = lambda x: [len(x.faces[f].word) for f in sorted(x.faces)]  # noqa: E731
        assert shape(one) != shape(two)
        assert _ranks(d) == _ranks(one) == _ranks(two)


def _ops(tmp_path):
    rng = random.Random(3)
    instances = [
        wl.Instance("g3", inputs.relabel(inputs.punctured_grid(3, 1), rng), generators=6, rank=4),
        wl._plan(3, "test", "pair", inputs.bigonpair_power(2), 4, wl.SMALL_SHAPES[3]),
    ]
    return wl.write(instances, str(tmp_path))


def test_tracing_leaves_outputs_unchanged(tmp_path):
    ops = _ops(tmp_path)
    plain = run.run_passes(ops, 0)[0]
    assert [r[2] for r in plain] == [wl.OK, wl.OK]
    orig = sfc.differential, glue.f2_rank_kernel
    t = tracer.Tracer()
    t.install()
    try:
        assert sfc.differential is not orig[0]
        assert glue.f2_rank_kernel is not orig[1]
        traced = run.run_passes(ops, 0, [r[1].digest() for r in plain])[0]
    finally:
        t.uninstall()
    assert (sfc.differential, glue.f2_rank_kernel) == orig
    assert glue.f2_rank_kernel is exactlin.f2_rank_kernel
    assert [r[1].stdout for r in traced] == [r[1].stdout for r in plain]
    assert [r[2] for r in traced] == [wl.OK, wl.OK]
    m = t.metrics()
    assert m["cli.main.self_s"] > 0 and m["sfc.differential.calls"] > 0
    assert 0 < m["sfc.differential.reuse_ratio"] <= 1
    assert m["sfc.action_census.candidates"] > 0
    # self times partition the top-level spans' duration
    top = sum(end - start for (_i, parent, _n, start, end) in t.spans if parent is None)
    assert abs(sum(v for k, v in m.items() if k.endswith(".self_s")) - top) < 0.2 * top


def test_wrong_answers_and_refusals_are_failures(tmp_path):
    ops = _ops(tmp_path)
    ops[0].instance.rank = 5  # injected wrong known answer
    missing = wl.Op(ops[1].instance, ["verify-equivalence", ops[1].argv[1],
                                      "--handles", str(tmp_path / "missing.json")])
    rows = run.run_passes(ops + [missing], 0)[0]
    assert [r[2] for r in rows] == [wl.RANK_MISMATCH, wl.OK, wl.REFUSED]
    assert sum(r[2] != wl.OK for r in rows) == 2
    crash = wl.Outcome(2, "", '{"bug": "x"}', 0.0)
    assert wl.classify(ops[0].instance, crash)[0] == wl.BROKEN
    disagree = wl.Outcome(0, json.dumps({"ok": False}), "", 0.0)
    assert wl.classify(ops[1].instance, disagree)[0] == wl.BROKEN


def test_calibration_scales_each_call_to_the_reference_chunk():
    ref = clock.REFERENCE_CHUNK_S
    row = lambda sec, chunk: (None, wl.Outcome(0, "", "", sec, chunk * ref), wl.OK, "")  # noqa: E731
    passes = [[row(2.0, 2.0), row(1.0, 1.0)],
              [row(1.0, 1.0), row(3.0, 1.5)]]
    assert run.calibrated(passes) == pytest.approx([1.0, 1.5])
    res = wl.run_op(wl.Op(wl.Instance("none", None), ["no-such-verb"]))
    assert res.code == 1 and res.chunk > 0


def test_metric_names_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == [k for k, _u in run.END_TO_END]
    layer = set(tracer.Tracer().metrics()) | {
        "check.rank_mismatch", "check.refused", "trace.overhead_ratio"}
    assert {m["name"] for m in spec["per_layer"]} == layer
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert run.unit_of(m["name"]) == m["unit"]
    for w in spec["workloads"]:
        assert wl.build(w["name"], 1)
