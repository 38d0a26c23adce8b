"""Input builders for the benchmark: grids, unions, relabeling, plans.

Everything here builds diagrams by construction or by attachment alone;
no chain complex is computed, so building stays cheap.  The library
under test only ever sees the documents these diagrams serialize to.
"""

import random

from sutured import glue, pieces, surface
from sutured.glue import HandleSpec
from sutured.surface import Curve, Diagram, Edge, Face, Interface

def rename(d: Diagram, new) -> Diagram:
    """Copy of ``d`` with every vertex, edge, face and curve id ``x``
    replaced by ``new(x)``; tags and interfaces follow."""
    cur = lambda c: None if c is None else new(c)  # noqa: E731
    return Diagram(
        {new(v) for v in d.vertices},
        {new(e): Edge(new(e), ed.kind, cur(ed.curve), new(ed.frm), new(ed.to))
         for e, ed in d.edges.items()},
        {new(f): Face(new(f), [(new(e), s) for (e, s) in fc.word], fc.suture)
         for f, fc in d.faces.items()},
        {new(c): Curve(new(c), cv.closed, [new(e) for e in cv.segments])
         for c, cv in d.alpha_curves.items()},
        {new(c): Curve(new(c), cv.closed, [new(e) for e in cv.segments])
         for c, cv in d.beta_curves.items()},
        [Interface(i.arc_diagram, [[new(e) for e in iv] for iv in i.intervals],
                   {a: new(c) for a, c in i.arcs.items()})
         for i in d.interfaces],
        [new(v) for v in d.eh],
        {k: new(v) for k, v in d.marks.items()},
    )


def relabel_table(d: Diagram, rng: random.Random) -> dict:
    """A seeded bijection from every id of ``d`` onto ``n0 .. n<k-1>``."""
    ids = sorted(
        d.vertices | set(d.edges) | set(d.faces)
        | set(d.alpha_curves) | set(d.beta_curves)
    )
    slots = list(range(len(ids)))
    rng.shuffle(slots)
    return {x: f"n{k}" for x, k in zip(ids, slots)}


def relabel(d: Diagram, rng: random.Random) -> Diagram:
    """Rename every id by a seeded bijection onto ``n0 .. n<k-1>``.

    Ranks cannot change under relabeling, but every id-sorted order
    inside the library does.
    """
    return rename(d, relabel_table(d, rng).__getitem__)


def disjoint_union(parts) -> Diagram:
    """The diagrams side by side; copy ``t`` gets ids suffixed ``.t``."""
    out = Diagram(set(), {}, {}, {}, {}, [])
    for t, part in enumerate(parts):
        p = rename(part, lambda x, t=t: f"{x}.{t}")
        out.vertices |= p.vertices
        out.edges.update(p.edges)
        out.faces.update(p.faces)
        out.alpha_curves.update(p.alpha_curves)
        out.beta_curves.update(p.beta_curves)
        out.interfaces += p.interfaces
        out.eh += p.eh
        out.marks.update({f"{k}.{t}": v for k, v in p.marks.items()})
    return out


def bigonpair_power(k: int) -> Diagram:
    """``bigonpair^k``: 2^k generators, one Spin^c class, rank 2^k."""
    return disjoint_union([pieces.bigonpair() for _ in range(k)])


def punctured_grid(n: int, k: int) -> Diagram:
    """Toroidal n x n grid with X at (i, i) and O at (i, i + k) punctured.

    Alpha circle ``A{i}`` runs along row i, beta circle ``B{j}`` along
    column j; they meet once, at ``g{i}_{j}``, so the diagram has n!
    generators.  Each X or O square becomes a suture region by a seam
    from its first corner to a boundary loop, as in the once-punctured
    grid torus of the test fixtures.  The known rank is 2^(n-1) times
    the rank of knot Floer homology: 2^(n-1) for the unknot (k = 1) and
    48 for the trefoil (n = 5, k = 2).
    """
    g = lambda i, j: f"g{i % n}_{j % n}"  # noqa: E731
    a = lambda i, j: f"a{i % n}_{j % n}"  # noqa: E731  g(i,j) -> g(i,j+1)
    b = lambda i, j: f"b{i % n}_{j % n}"  # noqa: E731  g(i,j) -> g(i+1,j)
    vertices = {g(i, j) for i in range(n) for j in range(n)}
    edges = {}
    for i in range(n):
        for j in range(n):
            edges[a(i, j)] = Edge(a(i, j), "alpha", f"A{i}", g(i, j), g(i, j + 1))
            edges[b(i, j)] = Edge(b(i, j), "beta", f"B{j}", g(i, j), g(i + 1, j))
    punctured = {(i, i) for i in range(n)} | {(i, (i + k) % n) for i in range(n)}
    faces = {}
    for i in range(n):
        for j in range(n):
            word = [(b(i, j), 1), (a(i + 1, j), 1), (b(i, j + 1), -1), (a(i, j), -1)]
            fid = f"Q{i}_{j}"
            if (i, j) in punctured:
                seam, loop, v = f"s{i}_{j}", f"h{i}_{j}", f"p{i}_{j}"
                vertices.add(v)
                edges[seam] = Edge(seam, "seam", None, g(i, j), v)
                edges[loop] = Edge(loop, "boundary", None, v, v)
                word = [(seam, 1), (loop, 1), (seam, -1)] + word
            faces[fid] = Face(fid, word, (i, j) in punctured)
    alpha = {f"A{i}": Curve(f"A{i}", True, [a(i, j) for j in range(n)]) for i in range(n)}
    beta = {f"B{j}": Curve(f"B{j}", True, [b(i, j) for i in range(n)]) for j in range(n)}
    return Diagram(vertices, edges, faces, alpha, beta, [])


def _attach(cur: Diagram, spec: HandleSpec) -> Diagram:
    """Advance a plan by attachment alone, without computing complexes."""
    if spec.kind == "1":
        return surface.attach_one_handle(cur, spec.p, spec.q)
    if spec.kind == "2":
        return surface.attach_two_handle(
            cur, spec.p, spec.q, spec.a_path, spec.b_path,
            port_order_p=spec.port_order_p, port_order_q=spec.port_order_q,
        )[0]
    return surface.attach_trivial_bypass(cur, spec.site, spec.kind[-1])[0]


def handle_plan(base: Diagram, kinds, rng: random.Random, key):
    """Specs for ``kinds`` in order, sites drawn from the running diagram.

    Sites are drawn from the free boundary edges sorted by ``key``.  Kind "2" expands to the canonical
    1-handle-then-2-handle pair, so it contributes two steps.  Returns
    ``(specs, stage diagrams)``.
    """
    cur = base
    specs, stages = [], []
    for kind in kinds:
        free = sorted(cur.free_boundary_edge_ids(), key=key)
        if kind == "1":
            sub = [HandleSpec("1", p=rng.choice(free), q=rng.choice(free))]
        elif kind == "2":
            sub = glue.two_handle_sequence(cur, rng.choice(free))
        else:
            sub = [HandleSpec(kind, site=rng.choice(free))]
        for spec in sub:
            cur = _attach(cur, spec)
            specs.append(spec)
            stages.append(cur)
    return specs, stages
