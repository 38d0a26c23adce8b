"""Seeded random handle sequences over the closed fixtures.

Attachment ids are drawn from the running diagram stage by stage, so a
sequence is replayable: applying the specs in order with ``sigma_map``
visits the same diagrams the builder saw.
"""

import random

from sutured import glue, pieces
from sutured.glue import HandleSpec

FIXTURES = ("fix-disk", "fix-stab", "fix-bigonpair")

# The handle shapes of the route-small benchmark plans (``shaped_plan``).
ROUTE_SHAPES = (("1",), ("b",), ("2", "1"), ("1", "b", "2"), ("1", "2", "b", "2", "1", "b"))


def random_sequence(seed, max_steps=2, kinds=("1", "1", "bypass+", "bypass-", "2")):
    """Return ``(fixture name, [HandleSpec])`` for the given seed."""
    rng = random.Random(seed)
    name = rng.choice(FIXTURES)
    cur = pieces.build(name)
    specs = []
    for _ in range(rng.randint(1, max_steps)):
        kind = rng.choice(kinds)
        free = sorted(cur.free_boundary_edge_ids())
        if kind == "1":
            sub = [HandleSpec("1", p=rng.choice(free), q=rng.choice(free))]
        elif kind == "2":
            sub = glue.two_handle_sequence(cur, rng.choice(free))
        else:
            sub = [HandleSpec(kind, site=rng.choice(free))]
        for spec in sub:
            cur = glue.sigma_map(cur, spec)[0]
            specs.append(spec)
    return name, specs


def replay(name, specs):
    """Apply the specs in order; returns the list of sigma_map results."""
    cur = pieces.build(name)
    out = []
    for spec in specs:
        res = glue.sigma_map(cur, spec)
        out.append(res)
        cur = res[0]
    return out


def shaped_plan(d, shape, rng):
    """Specs for the handle kinds in ``shape`` ("1", "2" or "b", a
    trivial bypass of random sign), sites drawn by ``rng`` from the
    running diagram's free edges in sorted order; "2" expands to the
    1-handle-then-2-handle pair."""
    cur, specs = d, []
    for kind in shape:
        free = sorted(cur.free_boundary_edge_ids())
        if kind == "1":
            sub = [HandleSpec("1", p=rng.choice(free), q=rng.choice(free))]
        elif kind == "2":
            sub = glue.two_handle_sequence(cur, rng.choice(free))
        else:
            sub = [HandleSpec(rng.choice(("bypass+", "bypass-")), site=rng.choice(free))]
        for spec in sub:
            cur = glue.sigma_map(cur, spec)[0]
            specs.append(spec)
    return specs
