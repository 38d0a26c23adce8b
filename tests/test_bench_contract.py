"""What the benchmark reads of the library, checked with the tier-1 tests.

The benchmark (``bench/``) wraps the functions named in its tracer's
``TARGETS`` and counts from their arguments and results.  A change that
renames one of them, or changes the form of a value the tracer or the
set-up checks read, breaks the traced run; these tests catch that
without running the benchmark.
"""

import contextlib
import importlib
import importlib.util
import io
import json
import os
import random

import fixtures
import sequences
from sutured import cli, glue, pieces, sfc, surface

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")

# The differential of the unknot's 4 x 4 punctured grid, as (row, column)
# positions over its canonically ordered generators.
GRID4_ENTRIES = frozenset([
    (4, 18), (5, 4), (5, 19), (7, 10), (7, 13), (10, 16), (12, 18), (13, 16),
    (14, 12), (14, 20), (17, 16), (19, 18), (20, 18), (22, 16), (23, 17), (23, 22),
])


# Per-layer names that bench/run.py adds beside the tracer's ``metrics``.
RUN_LEVEL = {"check.rank_mismatch", "check.refused", "trace.overhead_ratio"}


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", os.path.join(BENCH, "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _main(argv):
    """``cli.main`` on ``argv``: (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def test_every_traced_target_resolves():
    for mod, attr, _span in _tracer().TARGETS:
        assert callable(getattr(importlib.import_module(f"sutured.{mod}"), attr)), (mod, attr)


def test_differential_entries_are_int_positions():
    for d, expected in ((fixtures.bigonpair_power(3), frozenset()),
                        (fixtures.punctured_grid(4, 1), GRID4_ENTRIES)):
        entries = sfc.differential(d).differential.entries
        assert isinstance(entries, (set, frozenset))
        assert all(type(r) is int and type(c) is int for r, c in entries)
        assert entries == expected


def test_admissibility_matrix_has_int_shape(monkeypatch):
    seen = []
    real = sfc.positive_kernel_witness

    def recording(m):
        seen.append(m)
        return real(m)

    monkeypatch.setattr(sfc, "positive_kernel_witness", recording)
    assert sfc.is_admissible(fixtures.punctured_grid(4, 1))[0]
    (m,) = seen
    assert type(m.rows) is int and type(m.cols) is int
    assert m.rows * m.cols > 0


def test_traced_cli_runs_match_untraced(tmp_path):
    """With the tracer installed, a punctured grid's ``homology`` and a
    ``fix-stab`` plan's ``verify-equivalence`` give the untraced exit
    codes and stdout, and the tracer's metrics hold every per-layer
    name of BENCHMARK.json that it, rather than bench/run.py, reports."""
    grid, base, plan = (tmp_path / name for name in ("grid.json", "stab.json", "plan.json"))
    grid.write_text(surface.serialize(fixtures.punctured_grid(4, 1)))
    stab = pieces.build("fix-stab")
    base.write_text(surface.serialize(stab))
    specs = sequences.shaped_plan(stab, ("1", "b", "2"), random.Random(3))
    plan.write_text(json.dumps([glue.spec_to_json(s) for s in specs]))
    ops = [["homology", str(grid), "--format", "json"],
           ["verify-equivalence", str(base), "--handles", str(plan), "--format", "json"]]
    untraced = [_main(argv) for argv in ops]
    assert [code for code, _out in untraced] == [0, 0]
    tracer = _tracer().Tracer()
    tracer.install()
    try:
        traced = [_main(argv) for argv in ops]
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert not hasattr(sfc.differential, "__wrapped__")  # uninstalled
    metrics = tracer.metrics()
    assert metrics["sfc.differential.calls"] > 0 and metrics["surface.validate.calls"] > 0
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        names = {m["name"] for m in json.load(fh)["per_layer"]}
    assert names - RUN_LEVEL <= metrics.keys()
