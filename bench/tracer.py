"""Spans and counters for the traced benchmark run.

The tracer rebinds each listed library function, in every ``sutured.*``
namespace that holds it (so names brought in by ``from ... import`` are
covered too), to a wrapper that records a span and updates counters
from the call's arguments and result.  Nothing is wrapped until
``install`` is called, so the untraced run executes the library as is.
"""

import functools
import sys
import time
from collections import Counter

# (module, function, span name).  Span names group by layer; the three
# attach functions share one span, and the join is timed at its full
# implementation, which both handle pipelines call directly.  The CLI
# verbs the workloads run never call surface.serialize or
# strands.multiply, so those are not traced.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("surface", "parse", "surface.parse"),
    ("surface", "validate", "surface.validate"),
    ("surface", "regions", "surface.regions"),
    ("surface", "attach_one_handle", "surface.attach"),
    ("surface", "attach_two_handle", "surface.attach"),
    ("surface", "attach_trivial_bypass", "surface.attach"),
    ("surface", "concatenate_bordered", "surface.concatenate_bordered"),
    ("sfc", "generators", "sfc.generators"),
    ("sfc", "spinc_partition", "sfc.spinc_partition"),
    ("sfc", "homology", "sfc.homology"),
    ("sfc", "differential", "sfc.differential"),
    ("sfc", "is_admissible", "sfc.is_admissible"),
    ("sfc", "region_census", "sfc.region_census"),
    ("sfc", "action_census", "sfc.action_census"),
    ("exactlin", "positive_kernel_witness", "exactlin.positive_kernel_witness"),
    ("exactlin", "cokernel_residue", "exactlin.cokernel_residue"),
    ("exactlin", "f2_rank_kernel", "exactlin.f2_rank_kernel"),
    ("modules", "bordered_invariant", "modules.bordered_invariant"),
    ("glue", "sigma_map", "glue.sigma_map"),
    ("glue", "glue_one_handle", "glue.glue_one_handle"),
    ("glue", "glue_two_handle", "glue.glue_two_handle"),
    ("glue", "_elementary_join_full", "glue.elementary_join"),
    ("glue", "equivalence_report", "glue.equivalence_report"),
)

SELF_TIMES = (
    "exactlin.positive_kernel_witness", "exactlin.cokernel_residue",
    "exactlin.f2_rank_kernel", "sfc.generators", "sfc.spinc_partition",
    "sfc.homology", "sfc.differential", "sfc.region_census",
    "sfc.action_census", "surface.validate", "surface.regions",
    "surface.attach", "surface.concatenate_bordered", "surface.parse",
    "cli.main", "modules.bordered_invariant", "glue.sigma_map",
    "glue.glue_one_handle",
    "glue.glue_two_handle", "glue.elementary_join", "glue.equivalence_report",
)
CALLS = (
    "exactlin.positive_kernel_witness", "sfc.generators", "sfc.differential",
    "sfc.is_admissible", "sfc.region_census", "sfc.action_census",
    "surface.validate", "surface.regions", "modules.bordered_invariant",
)
COUNTS = (
    "exactlin.positive_kernel_witness.cells", "sfc.generators.count",
    "sfc.spinc.classes", "sfc.differential.entries",
    "sfc.action_census.candidates",
)


def census_candidates(d) -> int:
    """Face subsets ``sfc.action_census`` loops over, from face counts."""
    nonsuture = sum(1 for f in d.faces.values() if not f.suture)
    faces_of = {}
    for f in d.faces.values():
        for (e, _s) in f.word:
            faces_of.setdefault(e, set()).add(f.id)
    total = 0
    for iface in d.interfaces:
        for interval in iface.intervals:
            points = len(interval) - 1
            for i in range(points):
                for j in range(i + 1, points):
                    base = {f for e in interval[i + 1:j + 1] for f in faces_of[e]}
                    if not any(d.faces[f].suture for f in base):
                        total += 1 << (nonsuture - len(base))
    return total


def diagram_key(d) -> int:
    """Hash of a diagram's structure, to count distinct diagrams."""
    return hash((
        tuple(sorted((e.id, e.kind, e.curve or "", e.frm, e.to) for e in d.edges.values())),
        tuple(sorted((f.id, tuple(f.word), f.suture) for f in d.faces.values())),
        repr([(i.intervals, sorted(i.arcs.items())) for i in d.interfaces]),
    ))


def _count(tracer, name, args, result):
    c = tracer.counts
    if name == "exactlin.positive_kernel_witness":
        c["exactlin.positive_kernel_witness.cells"] += args[0].rows * args[0].cols
    elif name == "sfc.generators":
        c["sfc.generators.count"] += len(result)
    elif name == "sfc.spinc_partition":
        c["sfc.spinc.classes"] += len(set(result.values()))
    elif name == "sfc.differential":
        c["sfc.differential.entries"] += len(result.differential.entries)
        tracer.diagrams.add(diagram_key(args[0]))
    elif name == "sfc.action_census":
        c["sfc.action_census.candidates"] += census_candidates(args[0])
        c["sfc.action_census.records"] += len(result)


class Tracer:
    """Records spans ``(id, parent id, name, start, end)`` and counters."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.diagrams = set()
        self._stack = []
        self._saved = []

    def reset(self):
        self.spans, self.counts, self.diagrams = [], Counter(), set()

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[sid] = (sid, parent, name, start, time.perf_counter())
                self._stack.pop()
            _count(self, name, args, result)
            return result

        return traced

    def install(self):
        """Rebind every target in every ``sutured.*`` namespace."""
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "sutured" or n.startswith("sutured.")]
        for mod, attr, name in TARGETS:
            orig = getattr(sys.modules[f"sutured.{mod}"], attr)
            wrapper = self._wrap(orig, name)
            for ns in namespaces:
                for key, val in list(vars(ns).items()):
                    if val is orig:
                        setattr(ns, key, wrapper)
                        self._saved.append((ns, key, orig))

    def uninstall(self):
        for ns, key, orig in reversed(self._saved):
            setattr(ns, key, orig)
        self._saved = []

    def metrics(self) -> dict:
        """Per-layer values for the spans and counters recorded so far."""
        child = Counter()
        for (_sid, parent, _name, start, end) in self.spans:
            if parent is not None:
                child[parent] += end - start
        self_s, calls = Counter(), Counter()
        for (sid, _parent, name, start, end) in self.spans:
            self_s[name] += end - start - child[sid]
            calls[name] += 1
        out = {f"{n}.self_s": self_s[n] for n in SELF_TIMES}
        out.update({f"{n}.calls": calls[n] for n in CALLS})
        out.update({n: self.counts[n] for n in COUNTS})
        diff_calls = calls["sfc.differential"]
        out["sfc.differential.reuse_ratio"] = (
            len(self.diagrams) / diff_calls if diff_calls else 0.0
        )
        cand = self.counts["sfc.action_census.candidates"]
        out["sfc.action_census.hit_ratio"] = (
            self.counts["sfc.action_census.records"] / cand if cand else 0.0
        )
        return out

