"""The benchmark workloads: inputs, CLI operations and their checks.

An operation is one call of ``sutured.cli.main`` on documents written
at set-up, with stdout and stderr captured.  Only the call is timed;
building, set-up checks and answer checks happen outside it.
"""

import contextlib
import gc
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass, field

import inputs
from clock import Sampled
from sutured import cli, glue, pieces, sfc, surface

# Why each workload: see BENCHMARK.json.  In short, closed-grid is led by
# the admissibility LP, closed-sum by the row building in sfc.homology
# (the LP is cheap there), route-small by the LP and the surface scans of
# many small glue pipelines, and route-grid by the same sfc code
# recomputed per stage plus the brute-force action census.

# Handle kinds per route plan; "2" is the 1-handle-then-2-handle pair, so
# it counts two steps.  Shapes, sites and bypass signs are fixed per
# plan, so every seed does comparable work; the seed picks the ids.
SMALL_SHAPES = (("1",), ("b",), ("2", "1"), ("1", "b", "2"),
                ("1", "2", "b", "2", "1", "b"))

# Relabeled copies per pass.  An input's time moves by a fifth or more
# with the id order a seed gives it, so each run sums copies.  A pass is
# kept to a few seconds (route-grid: about ten), so that a run times
# every operation more than once.
GRID_COPIES = {(5, 1): 2, (6, 1): 4, (5, 2): 2}  # (n, k) -> copies
SUM_COPIES = {9: 2, 10: 4}  # k -> copies of bigonpair^k
SMALL_COPIES = 1  # 2 for the largest plan, the last shape over bigonpair^3
GRID_SHAPES = (("1", "2", "b"), ("b", "2", "1"))  # one plan of each per grid


@dataclass
class Instance:
    """One input: a diagram, optionally a handle plan, and known answers."""

    label: str
    diagram: object
    specs: list = None  # handle plan, for verify-equivalence
    stages: list = field(default_factory=list)  # diagrams the plan visits
    generators: int = 0  # known generator count of the base
    rank: int = None  # known homology rank, where theory gives it

    def size(self) -> int:
        """Faces of the largest diagram the operation works on."""
        return max(len(d.faces) for d in [self.diagram] + self.stages)


def _rng(seed, workload, label):
    return random.Random(f"{seed}:{workload}:{label}")


def _plan(seed, workload, label, original, gens, shape):
    """A plan over a seeded relabeling of ``original`` whose sites and
    bypass signs do not depend on the seed: they are drawn by the label
    alone, from edges in the order of their ids before relabeling, so
    that seeds differ in id order only, as for the closed workloads.
    """
    table = inputs.relabel_table(original, _rng(seed, workload, label))
    before = {new: old for old, new in table.items()}
    key = lambda x: (0, before[x]) if x in before else (1, x)  # noqa: E731
    base = inputs.rename(original, table.__getitem__)
    rng = _rng("sites", workload, label)
    kinds = [k if k != "b" else rng.choice(("bypass+", "bypass-")) for k in shape]
    specs, stages = inputs.handle_plan(base, kinds, rng, key)
    return Instance(label, base, specs, stages, gens)


def build(workload: str, seed: int) -> list:
    """The workload's instances for ``seed``, every id relabeled.

    Each input appears in several independent relabelings, so one run
    averages over the id orders a seed can produce.
    """
    out = []
    if workload == "closed-grid":
        for (n, k), copies in GRID_COPIES.items():
            rank = 48 if k == 2 else 2 ** (n - 1)
            for r in range(copies):
                label = f"grid-n{n}-k{k}-r{r}"
                d = inputs.relabel(inputs.punctured_grid(n, k), _rng(seed, workload, label))
                out.append(Instance(label, d, generators=math.factorial(n), rank=rank))
    elif workload == "closed-sum":
        for k, copies in SUM_COPIES.items():
            for r in range(copies):
                label = f"bigonpair^{k}-r{r}"
                d = inputs.relabel(inputs.bigonpair_power(k), _rng(seed, workload, label))
                out.append(Instance(label, d, generators=2 ** k, rank=2 ** k))
    elif workload == "route-small":
        bases = [(name, lambda name=name: pieces.build(name), gens)
                 for name, gens in (("fix-disk", 1), ("fix-stab", 1), ("fix-bigonpair", 2))]
        bases.append(("bigonpair^3", lambda: inputs.bigonpair_power(3), 8))
        for name, make, gens in bases:
            for t, shape in enumerate(SMALL_SHAPES):
                largest = name == "bigonpair^3" and t == len(SMALL_SHAPES) - 1
                for r in range(2 * SMALL_COPIES if largest else SMALL_COPIES):
                    label = f"{name}-plan{t}-r{r}"
                    out.append(_plan(seed, workload, label, make(), gens, shape))
    elif workload == "route-grid":
        for n in (4, 5):
            for t, shape in enumerate(GRID_SHAPES):
                label = f"grid-n{n}-plan{t}"
                out.append(_plan(seed, workload, label, inputs.punctured_grid(n, 1),
                                 math.factorial(n), shape))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


@dataclass
class Op:
    instance: Instance
    argv: list


def write(instances, workdir) -> list:
    """Write each instance's documents; returns the CLI operations."""
    ops = []
    for i, inst in enumerate(instances):
        path = os.path.join(workdir, f"{i}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(surface.serialize(inst.diagram))
        if inst.specs is None:
            argv = ["homology", path, "--format", "json"]
        else:
            plan = os.path.join(workdir, f"{i}.plan.json")
            with open(plan, "w", encoding="utf-8") as fh:
                json.dump([glue.spec_to_json(s) for s in inst.specs], fh, sort_keys=True)
            argv = ["verify-equivalence", path, "--handles", plan, "--format", "json"]
        ops.append(Op(inst, argv))
    return ops


def d_squared_zero(cx) -> bool:
    cols = [0] * len(cx.basis)
    for (r, c) in cx.differential.entries:
        cols[c] |= 1 << r
    for col in cols:
        acc, rest = 0, col
        while rest:
            low = rest & -rest
            acc ^= cols[low.bit_length() - 1]
            rest ^= low
        if acc:
            return False
    return True


def setup_problems(instances) -> list:
    """Every diagram must be valid, nice and admissible (``differential``
    gates on both), with d^2 = 0; each base has its known generator count."""
    problems = []
    for inst in instances:
        for k, d in enumerate([inst.diagram] + inst.stages):
            where = f"{inst.label} stage {k - 1}" if k else inst.label
            bad = surface.validate(d)
            if bad:
                problems.append(f"{where}: invalid: {bad[0]}")
                continue
            if not sfc.is_nice(d)[0]:
                problems.append(f"{where}: not nice")
                continue
            try:
                cx = sfc.differential(d)
            except ValueError as err:
                problems.append(f"{where}: {err}")
                continue
            if not d_squared_zero(cx):
                problems.append(f"{where}: d^2 != 0")
            if k == 0 and len(cx.basis) != inst.generators:
                problems.append(f"{where}: {len(cx.basis)} generators, "
                                f"expected {inst.generators}")
    return problems


@dataclass
class Outcome:
    code: int
    stdout: str
    stderr: str
    seconds: float
    chunk: float = 0.0  # mean time of a calibration chunk during the call (see clock)

    def digest(self) -> str:
        return hashlib.sha256(f"{self.code}\n{self.stdout}".encode()).hexdigest()


def run_op(op: Op) -> Outcome:
    """One timed CLI call, sampled for core speed; the collector runs
    before the clock starts."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with Sampled() as t:
            code = cli.main(list(op.argv))
    return Outcome(code, out.getvalue(), err.getvalue(), t.seconds, t.chunk)


OK, RANK_MISMATCH, REFUSED, BROKEN = "ok", "rank_mismatch", "refused", "broken"


def classify(inst: Instance, res: Outcome):
    """``(status, detail)`` for one operation's result.

    Every status but ``ok`` is a failed operation.  ``rank_mismatch``
    (a consistent answer that differs from the known rank) and
    ``refused`` (exit 1 with a JSON reason, the CLI's domain rejection)
    are the answers the program gives within its contract; ``broken``
    is anything outside it.
    """
    if res.code == 1:
        try:
            reason = json.loads(res.stderr)["error"]
        except (ValueError, KeyError, TypeError):
            return BROKEN, f"exit 1 without a JSON reason: {res.stderr[:200]!r}"
        return REFUSED, reason
    if res.code != 0:
        return BROKEN, f"exit {res.code}: {res.stderr[:200]!r}"
    try:
        doc = json.loads(res.stdout)
    except ValueError:
        return BROKEN, "stdout is not JSON"
    if inst.specs is None:
        total = doc.get("total")
        if not isinstance(total, int) or sum(doc["by_class"].values()) != total:
            return BROKEN, f"inconsistent homology output {doc}"
        if (total - inst.generators) % 2:
            return BROKEN, f"rank {total} and {inst.generators} generators differ in parity"
        if total != inst.rank:
            return RANK_MISMATCH, f"rank {total}, expected {inst.rank}"
        return OK, ""
    if doc.get("ok") is not True:
        return BROKEN, "verify-equivalence reports the routes disagree"
    if doc["base_generators"] != inst.generators:
        return BROKEN, f"{doc['base_generators']} base generators, expected {inst.generators}"
    for block in doc["stages"]:
        if (block["rank"] - block["generators"]) % 2:
            return BROKEN, f"stage {block['stage']}: rank and generators differ in parity"
    return OK, ""
