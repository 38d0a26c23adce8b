"""What the benchmark reads of the library, checked with the tier-1 tests.

The benchmark (``bench/``) wraps the functions named in its tracer's
``TARGETS`` and counts from their arguments and results.  A change that
renames one of them, or changes the form of a value the tracer or the
set-up checks read, breaks the traced run; these tests catch that
without running the benchmark.
"""

import importlib
import importlib.util
import os

import fixtures
from sutured import sfc

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")

# The differential of the unknot's 4 x 4 punctured grid, as (row, column)
# positions over its canonically ordered generators.
GRID4_ENTRIES = frozenset([
    (4, 18), (5, 4), (5, 19), (7, 10), (7, 13), (10, 16), (12, 18), (13, 16),
    (14, 12), (14, 20), (17, 16), (19, 18), (20, 18), (22, 16), (23, 17), (23, 22),
])


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", os.path.join(BENCH, "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
