"""Bordered invariants of nice diagrams as finite action tables.

A bordered diagram with interfaces yields a type-D, type-A, or type-AA
structure over the strands algebras of its interface arc diagrams.  All
structures here are truncated: the differential ``m[0|1|0]`` counts
interior bigons and rectangles, a single algebra input acts through
boundary rectangles (``m[1|1|0]`` on beta-type interfaces, ``m[0|1|1]``
on alpha-type ones), and type-D structures store ``δ¹`` outputs as
(algebra basis element, generator) pairs.  Higher actions vanish on nice
diagrams, and non-nice input is rejected rather than silently truncated.

The ``bordered`` verb reads these tables, and the staged gluing route
(``glue``) pairs them: ``box_tensor`` builds the chain complex of a
type-A structure paired with a type-D one, the complex of the glued
diagram without gluing it.  The structure relations and the frozenset
form of the box tensor product, which the library's must equal, are
test references in ``tests/oracles.py``.
"""

import functools
from dataclasses import dataclass
from itertools import product

from . import sfc, strands
from .exactlin import BinaryMatrix
from .surface import ArcDiagram, Diagram, _interface_arc_bijection


@dataclass
class BorderedStructure:
    """``sides`` are the diagram's interface arc diagrams in interface
    order, the acting order; a beta side acts on the left (``m[1|1|0]``),
    an alpha side on the right (``m[0|1|1]``)."""

    kind: str  # "D" | "A" | "AA"
    diagram: Diagram
    sides: list  # [surface.ArcDiagram], one per interface
    generators: list  # frozensets of crossing ids, canonical order
    occupancy: list  # per side: {generator: frozenset of occupied arcs}
    differential: dict  # generator -> frozenset of generators
    tables: list  # per side: {algebra label: {generator: frozenset of outputs}}
    delta: dict  # kind D: generator -> frozenset of (label, generator)

    def generator_names(self) -> list:
        return [format_generator(x) for x in self.generators]


def format_generator(x) -> str:
    return "{" + ",".join(sorted(x)) + "}" if x else "∅"


_IFACE_COUNT = {"D": 1, "A": 1, "AA": 2}


# ---------------------------------------------------------------------------
# construction


def _occupancy_map(d: Diagram, iface: int, gens) -> dict:
    itf = d.interfaces[iface]
    vert_arc = {}
    for a, cid in itf.arcs.items():
        curve = d.alpha_curves.get(cid) or d.beta_curves[cid]
        for e in curve.segments:
            vert_arc[d.edges[e].frm] = a
            vert_arc[d.edges[e].to] = a
    return {
        x: frozenset(vert_arc[v] for v in x if v in vert_arc) for x in gens
    }


def algebra_basis(bs: BorderedStructure, side_pos: int) -> dict:
    """label -> basis element of the side's strands algebra."""
    return {strands.label(b): b for b in strands.basis(bs.sides[side_pos])}


def _act_raw(bs, side_pos, records, gen_set, term, x):
    """Evaluate one algebra generator on one module generator from the
    port census: one boundary rectangle per moving strand, pairwise
    disjoint, with matching occupancy."""
    z = bs.sides[side_pos]
    movers, occupied = term
    pos = strands._positions(z)
    start_arcs = {z.matching[s] for s, _ in movers}
    end_arcs = {z.matching[t] for _, t in movers}
    need = (start_arcs if z.kind == "beta" else end_arcs) | set(occupied)
    if bs.occupancy[side_pos][x] != frozenset(need):
        return frozenset()
    if not movers:
        return frozenset({x})
    candidates = []
    for s, t in sorted(movers, key=lambda st: pos[st[0]]):
        i, k = pos[s]
        l = pos[t][1]
        rs = [
            r
            for r in records
            if r.interval == i and r.start == k and r.end == l
            and r.x_pt in x and r.y_pt not in x and not (r.interior & x)
        ]
        candidates.append(rs)
    outs = set()
    for combo in product(*candidates):
        xs = {r.x_pt for r in combo}
        ys = {r.y_pt for r in combo}
        if len(xs) != len(combo) or len(ys) != len(combo):
            continue
        face_sets = [set(r.faces) for r in combo]
        if any(
            face_sets[i] & face_sets[j]
            for i in range(len(combo))
            for j in range(i + 1, len(combo))
        ):
            continue
        if any(r.interior & ys for r in combo):
            continue
        y = frozenset((x - xs) | ys)
        if y in gen_set:
            outs ^= {y}
    return frozenset(outs)


def _action_table(bs, side_pos, records) -> dict:
    gen_set = set(bs.generators)
    table = {}
    for label, b in algebra_basis(bs, side_pos).items():
        term = next(iter(b.terms))
        col = {}
        for x in bs.generators:
            outs = _act_raw(bs, side_pos, records, gen_set, term, x)
            if outs:
                col[x] = outs
        if col:
            table[label] = col
    return table


def _delta_table(bs, records) -> dict:
    """δ¹ for a type-D structure: idempotent terms from the differential
    plus one Reeb-chord term per applicable boundary rectangle, each
    completed by the complementary idempotent."""
    z = bs.sides[0]
    arcs = set(z.matching.values())
    gen_set = set(bs.generators)
    delta = {}
    for y in bs.generators:
        comp = frozenset(arcs - set(bs.occupancy[0][y]))
        entries = set()
        for y2 in bs.differential.get(y, ()):
            entries ^= {(strands.label(strands.idempotent(z, comp)), y2)}
        for r in records:
            if r.x_pt not in y or r.y_pt in y or (r.interior & y):
                continue
            y2 = frozenset((y - {r.x_pt}) | {r.y_pt})
            if y2 not in gen_set:
                continue
            frm = z.intervals[r.interval][r.start]
            to = z.intervals[r.interval][r.end]
            try:
                coeff = strands.element(z, [(frm, to)], comp - {z.matching[frm]})
            except ValueError:
                continue
            if strands.left_arcs(coeff) != comp:
                continue
            comp2 = frozenset(arcs - set(bs.occupancy[0][y2]))
            if strands.right_arcs(coeff) != comp2:
                continue
            entries ^= {(strands.label(coeff), y2)}
        if entries:
            delta[y] = frozenset(entries)
    return delta


def bordered_invariant(d, kind: str, sector=None, darts=None) -> BorderedStructure:
    """Build the finite bordered structure of a nice bordered diagram.

    ``d`` is the diagram or its complex (``sfc.as_complex(d, darts)``).  ``sector``
    optionally restricts the generators to a fixed tuple of
    per-interface occupancy counts (the differential and all actions
    preserve these counts, so the restriction is a direct summand).
    """
    if kind not in _IFACE_COUNT:
        raise ValueError(f"unknown structure kind {kind!r}")
    diagram = d.diagram if isinstance(d, sfc.ChainComplexF2) else d
    if len(diagram.interfaces) != _IFACE_COUNT[kind]:
        raise ValueError(
            f"kind {kind} needs {_IFACE_COUNT[kind]} interface(s); "
            f"diagram has {len(diagram.interfaces)}"
        )
    cx = sfc.as_complex(d, darts)  # gates niceness and admissibility
    d = cx.diagram
    sides = [itf.arc_diagram for itf in d.interfaces]
    occ_maps = [_occupancy_map(d, i, cx.basis) for i in range(len(sides))]
    gens = list(cx.basis)
    if sector is not None:
        if len(sector) != len(sides):
            raise ValueError("sector length must match the interface count")
        for s, (n, side) in enumerate(zip(sector, sides)):
            arcs = len(side.arcs())
            if not 0 <= n <= arcs:
                raise ValueError(f"sector count {n} for interface {s} is outside 0..{arcs}")
        gens = [
            x
            for x in gens
            if tuple(len(occ_maps[s][x]) for s in range(len(sides)))
            == tuple(sector)
        ]
    kept = set(gens)
    diff = {}
    for x in gens:
        ys = cx.boundary_of(x)
        if ys:
            if not ys <= kept:
                raise AssertionError("differential leaves the occupancy sector")
            diff[x] = ys
    records = sfc.action_census(d, cx.darts)
    bs = BorderedStructure(
        kind,
        d,
        sides,
        gens,
        [{x: m[x] for x in gens} for m in occ_maps],
        diff,
        [],
        {},
    )
    if kind == "D":
        bs.tables = [{}]
        bs.delta = _delta_table(bs, [r for r in records if r.interface == 0])
    else:
        bs.tables = [
            _action_table(bs, s, [r for r in records if r.interface == s])
            for s in range(len(sides))
        ]
    return bs


# ---------------------------------------------------------------------------
# evaluation and bookkeeping


def is_elementary(bs: BorderedStructure) -> bool:
    """One generator, no differential, no non-idempotent actions."""
    if len(bs.generators) != 1 or bs.differential:
        return False
    if bs.kind == "D":
        return all(not v for v in bs.delta.values())
    for side_pos, table in enumerate(bs.tables):
        basis = algebra_basis(bs, side_pos)
        for label, col in table.items():
            movers, _ = next(iter(basis[label].terms))
            if movers and col:
                return False
    return True


# ---------------------------------------------------------------------------
# the box tensor product


def box_tensor(a: BorderedStructure, d: BorderedStructure) -> sfc.ChainComplexF2:
    """The box tensor product of a type-A and a type-D structure over
    matching interfaces, as a chain complex.

    Its generators are the pairs (x, y) whose occupied arcs are
    complementary once the interfaces are identified, as
    ``surface.concatenate_bordered`` identifies them.  A pair is named
    as the glued diagram names its crossings, x's with the prefix
    ``L:`` and y's with ``R:``: ``verts`` are those names, sorted, and
    each pair is the sorted tuple of its indices into them, in the
    canonical order of ``sfc.ChainComplexF2``, so the complex's
    ``basis`` is the glued complex's.  The differential sends (x, y) to
    the type-A differential of x beside y, plus, for each δ¹ term
    (b, y2) of y, the action on x of b carried across the interface,
    beside y2; each column is one bit mask over the pairs.  The complex
    has no diagram, and its pairs are in one class.
    """
    if a.kind != "A" or d.kind != "D":
        raise ValueError("box tensor pairs a type-A with a type-D structure")
    za, zd = a.sides[0], d.sides[0]
    arc_map = _interface_arc_bijection(za, zd)
    all_arcs = frozenset(zd.matching.values())
    by_occupancy = {}
    for y in d.generators:
        by_occupancy.setdefault(d.occupancy[0][y], []).append(y)
    occupancy = a.occupancy[0]
    pairs = [
        (x, y)
        for x in a.generators
        for y in by_occupancy.get(all_arcs.difference(map(arc_map.get, occupancy[x])), ())
    ]
    # each half's sorted indices; every L: name sorts before every R: name
    xs, ys = dict.fromkeys(x for x, _ in pairs), dict.fromkeys(y for _, y in pairs)
    left, right = sorted(set().union(*xs)), sorted(set().union(*ys))
    for half, names, start in ((xs, left, 0), (ys, right, len(left))):
        where = {v: i for i, v in enumerate(names, start)}
        for g in half:
            half[g] = tuple(sorted(map(where.__getitem__, g)))
    pairs.sort(key=lambda p: xs[p[0]] + ys[p[1]])
    index = {p: j for j, p in enumerate(pairs)}
    carried = _carried_actions(a, d, arc_map, {b for y in ys for b, _ in d.delta.get(y, ())})
    columns = []
    try:
        for x, y in pairs:
            column = 0
            for x2 in a.differential.get(x, ()):
                column ^= 1 << index[x2, y]
            for b, y2 in d.delta.get(y, ()):
                for x2 in carried[b].get(x, ()):
                    column ^= 1 << index[x2, y2]
            columns.append(column)
    except KeyError:
        raise AssertionError("box tensor left the compatible pairs") from None
    cx = sfc.ChainComplexF2(
        [f"L:{v}" for v in left] + [f"R:{v}" for v in right],
        [xs[x] + ys[y] for x, y in pairs],
        BinaryMatrix(len(pairs), tuple(columns)),
        None,
    )
    cx.labels = [0] * len(pairs)
    return cx


def _carried_actions(a: BorderedStructure, d: BorderedStructure, arc_map, labels) -> dict:
    """δ¹ label of ``d`` -> the action table on ``a`` of its coefficient
    carried across the interface: each strand reversed onto ``a``'s
    side, each occupied arc back through ``arc_map``."""
    za, zd = a.sides[0], d.sides[0]
    point = {q: p for ia, ib in zip(za.intervals, zd.intervals) for p, q in zip(ia, reversed(ib))}
    arc = {v: k for k, v in arc_map.items()}
    terms = _basis_terms(zd.kind, tuple(map(tuple, zd.intervals)), tuple(sorted(zd.matching.items())))
    out = {}
    for b in labels:
        movers, occupied = terms[b]
        coeff = strands.element(za, [(point[t], point[f]) for f, t in movers],
                                {arc[o] for o in occupied})
        out[b] = a.tables[0].get(strands.label(coeff), {})
    return out


@functools.cache
def _basis_terms(kind: str, intervals: tuple, matching: tuple) -> dict:
    """label -> term of each basis element of the strands algebra of the
    arc diagram with this content, enumerated once per process: the
    cut-open bases of one handle kind share one arc diagram."""
    z = ArcDiagram([list(iv) for iv in intervals], dict(matching), kind)
    return {strands.label(b): next(iter(b.terms)) for b in strands.basis(z)}


# ---------------------------------------------------------------------------
# table dumps


def dump(bs: BorderedStructure) -> str:
    """Line-per-entry rendering, stable order."""
    name = format_generator
    order = {x: i for i, x in enumerate(bs.generators)}
    lines = []
    if bs.kind == "D":
        # the differential reappears as the idempotent-coefficient terms
        for y in bs.generators:
            entries = bs.delta.get(y)
            if not entries:
                continue
            rhs = " + ".join(
                f"{label} ⊗ {name(y2)}"
                for label, y2 in sorted(
                    entries, key=lambda e: (e[0], order[e[1]])
                )
            )
            lines.append(f"δ¹({name(y)}) = {rhs}")
        return "\n".join(lines)
    for x in bs.generators:
        ys = bs.differential.get(x)
        if ys:
            rhs = " + ".join(name(y) for y in sorted(ys, key=order.get))
            lines.append(f"m[0|1|0]({name(x)}) = {rhs}")
    for side_pos, side in enumerate(bs.sides):
        basis = algebra_basis(bs, side_pos)
        table = bs.tables[side_pos]
        for label in basis:
            col = table.get(label)
            if not col:
                continue
            for x in bs.generators:
                outs = col.get(x)
                if not outs:
                    continue
                rhs = " + ".join(name(y) for y in sorted(outs, key=order.get))
                if side.kind == "beta":
                    lines.append(f"m[1|1|0]({label}, {name(x)}) = {rhs}")
                else:
                    lines.append(f"m[0|1|1]({name(x)}, {label}) = {rhs}")
    return "\n".join(lines)
