"""Bordered invariants of nice diagrams as finite action tables.

A bordered diagram with interfaces yields a type-D, type-A, or type-AA
structure over the strands algebras of its interface arc diagrams.  All
structures here are truncated: the differential ``m[0|1|0]`` counts
interior bigons and rectangles, a single algebra input acts through
boundary rectangles (``m[1|1|0]`` on beta-type interfaces, ``m[0|1|1]``
on alpha-type ones), and type-D structures store ``δ¹`` outputs as
(algebra basis element, generator) pairs.  Higher actions vanish on nice
diagrams, and non-nice input is rejected rather than silently truncated.

A structure keeps the gated complex of its diagram and has no second
form of its generators: a generator is its position in the complex's
``gens``, its differential is the complex's own columns, the action
tables hold bit masks over positions, as the columns do, and δ¹ holds
positions.  The census records are read as masks over the crossings,
and an output is found by its mask.

The ``bordered`` verb reads these tables, and the staged gluing route
(``glue``) pairs them: ``box_tensor`` builds the chain complex of a
type-A structure paired with a type-D one, the complex of the glued
diagram without gluing it.  The structure relations, the check that a
builtin piece is elementary, a builder of the same structures keyed by
vertex-id frozensets, and the box tensor product over that form, which
the library's must equal, are test references in ``tests/oracles.py``.
"""

import functools
from dataclasses import dataclass
from itertools import product

from . import sfc, strands
from .exactlin import BinaryMatrix, set_bits
from .surface import ArcDiagram, Diagram, _interface_arc_bijection


@dataclass(slots=True)
class BorderedStructure:
    """A structure over the gated complex of its diagram: a generator
    is its position in the complex's ``gens``, and a set of generators
    is a bit mask over positions, as in the complex's columns.
    ``sides`` are the diagram's interface arc diagrams in interface
    order, the acting order; a beta side acts on the left
    (``m[1|1|0]``), an alpha side on the right (``m[0|1|1]``)."""

    kind: str  # "D" | "A" | "AA"
    complex: sfc.ChainComplexF2  # its verts, gens, columns and diagram are the structure's
    sides: list  # [surface.ArcDiagram], one per interface
    generators: list  # the positions kept, ascending: all of them, or a sector's
    occupancy: list  # per side: the frozenset of occupied arcs at each position
    tables: list  # per side: {algebra label: {position: mask of outputs}}
    delta: dict  # kind D: position -> frozenset of (algebra label, position)

    @property
    def diagram(self) -> Diagram:
        return self.complex.diagram

    @property
    def differential(self) -> tuple:
        """The complex's columns: bit i of column x when position i is in d(x)."""
        return self.complex.differential.columns

    def crossings(self, x) -> list:
        """The crossings of generator ``x``, by name."""
        return [self.complex.verts[i] for i in self.complex.gens[x]]

    def generator_names(self) -> list:
        verts, gens = self.complex.verts, self.complex.gens
        return [format_generator(verts, gens[x]) for x in self.generators]


def format_generator(verts, g=None) -> str:
    """A generator as printed: the crossings at the indices ``g`` into
    ``verts``, or all of ``verts`` when ``g`` is None, sorted in braces,
    or ∅ when there are none."""
    names = sorted(verts if g is None else map(verts.__getitem__, g))
    return "{" + ",".join(names) + "}" if names else "∅"


_IFACE_COUNT = {"D": 1, "A": 1, "AA": 2}


# ---------------------------------------------------------------------------
# construction


def _occupancy(d: Diagram, iface: int, cx) -> list:
    """The arcs of interface ``iface`` occupied at each position of ``cx.gens``."""
    itf = d.interfaces[iface]
    vert_arc = {}
    for a, cid in itf.arcs.items():
        curve = d.alpha_curves.get(cid) or d.beta_curves[cid]
        for e in curve.segments:
            vert_arc[d.edges[e].frm] = a
            vert_arc[d.edges[e].to] = a
    arc = [vert_arc.get(v) for v in cx.verts]
    return [frozenset(arc[i] for i in g if arc[i] is not None) for g in cx.gens]


def algebra_basis(bs: BorderedStructure, side_pos: int) -> dict:
    """label -> basis element of the side's strands algebra."""
    return {strands.label(b): b for b in strands.basis(bs.sides[side_pos])}


def _act_raw(bs, side_pos, moves, position, term, x) -> int:
    """Evaluate one algebra generator on generator ``x`` from the port
    census: one boundary rectangle per moving strand, pairwise disjoint,
    with matching occupancy.  Returns the outputs' mask."""
    z, m = bs.sides[side_pos], bs.complex.masks[x]
    movers, occupied = term
    pos = strands._positions(z)
    start_arcs = {z.matching[s] for s, _ in movers}
    end_arcs = {z.matching[t] for _, t in movers}
    need = (start_arcs if z.kind == "beta" else end_arcs) | set(occupied)
    if bs.occupancy[side_pos][x] != frozenset(need):
        return 0
    if not movers:
        return 1 << x
    candidates = []
    for s, t in sorted(movers, key=lambda st: pos[st[0]]):
        i, k = pos[s]
        l = pos[t][1]
        candidates.append([
            (r, X, Y, I) for r, X, Y, I in moves
            if r.interval == i and r.start == k and r.end == l and m & X and not m & (Y | I)
        ])
    outs = 0
    for combo in product(*candidates):
        xs = ys = inside = 0
        for _r, X, Y, I in combo:
            xs, ys, inside = xs | X, ys | Y, inside | I
        faces = [f for r, *_ in combo for f in r.faces]
        if (xs.bit_count() == ys.bit_count() == len(combo) and not inside & ys
                and len(set(faces)) == len(faces)):
            y = position.get(m ^ xs | ys)
            if y is not None:
                outs ^= 1 << y
    return outs


def _action_table(bs, side_pos, moves, position) -> dict:
    table = {}
    for label, b in algebra_basis(bs, side_pos).items():
        term = next(iter(b.terms))
        col = {}
        for x in bs.generators:
            outs = _act_raw(bs, side_pos, moves, position, term, x)
            if outs:
                col[x] = outs
        if col:
            table[label] = col
    return table


def _delta_table(bs, moves, position) -> dict:
    """δ¹ for a type-D structure: idempotent terms from the differential
    plus one Reeb-chord term per applicable boundary rectangle, each
    completed by the complementary idempotent."""
    z = bs.sides[0]
    arcs = frozenset(z.matching.values())
    occupancy, masks, delta = bs.occupancy[0], bs.complex.masks, {}
    for y in bs.generators:
        comp, m = arcs - occupancy[y], masks[y]
        entries = set()
        if bs.differential[y]:
            label = strands.label(strands.idempotent(z, comp))
            entries = {(label, y2) for y2 in set_bits(bs.differential[y])}
        for r, X, Y, I in moves:
            y2 = position.get(m ^ X | Y) if m & X and not m & (Y | I) else None
            if y2 is None:
                continue
            frm = z.intervals[r.interval][r.start]
            to = z.intervals[r.interval][r.end]
            try:
                coeff = strands.element(z, [(frm, to)], comp - {z.matching[frm]})
            except ValueError:
                continue
            if (strands.left_arcs(coeff), strands.right_arcs(coeff)) != (comp, arcs - occupancy[y2]):
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
    Each census record is read once as masks over the crossings (its
    x-corner's bit, its y-corner's, and the mask of the crossings
    inside), and each output is found by its mask among the kept
    generators, as ``sfc._boundary_entries`` finds its columns.
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
    occupancy = [_occupancy(d, i, cx) for i in range(len(sides))]
    gens = list(range(len(cx.gens)))
    if sector is not None:
        if len(sector) != len(sides):
            raise ValueError("sector length must match the interface count")
        for s, (n, side) in enumerate(zip(sector, sides)):
            arcs = len(side.arcs())
            if not 0 <= n <= arcs:
                raise ValueError(f"sector count {n} for interface {s} is outside 0..{arcs}")
        gens = [x for x in gens if tuple(len(occ[x]) for occ in occupancy) == tuple(sector)]
    kept, columns = sum(1 << x for x in gens), cx.differential.columns
    if any(columns[x] & ~kept for x in gens):
        raise AssertionError("differential leaves the occupancy sector")
    position = {cx.masks[x]: x for x in gens}
    bit = {v: 1 << i for i, v in enumerate(cx.verts)}
    moves = [[] for _ in sides]  # per side: (record, x-corner bit, y-corner bit, interior mask)
    for r in sfc.action_census(d, cx.darts):
        inside = sum(map(bit.__getitem__, r.interior))
        moves[r.interface].append((r, bit[r.x_pt], bit[r.y_pt], inside))
    bs = BorderedStructure(kind, cx, sides, gens, occupancy, [], {})
    if kind == "D":
        bs.tables = [{}]
        bs.delta = _delta_table(bs, moves[0], position)
    else:
        bs.tables = [_action_table(bs, s, moves[s], position) for s in range(len(sides))]
    return bs


# ---------------------------------------------------------------------------
# the box tensor product


def box_tensor(a: BorderedStructure, d: BorderedStructure) -> sfc.ChainComplexF2:
    """The box tensor product of a type-A and a type-D structure over
    matching interfaces, as a chain complex.

    Its generators are the pairs (x, y) of positions whose occupied
    arcs are complementary once the interfaces are identified, as
    ``surface.concatenate_bordered`` identifies them.  A pair is named
    as the glued diagram names its crossings, x's with the prefix
    ``L:`` and y's with ``R:``: ``verts`` are the names of the crossings
    the pairs hold, sorted, and each pair is the sorted tuple of its
    halves' indices re-indexed into them, in the canonical order of
    ``sfc.ChainComplexF2``, so the complex's ``basis`` is the glued
    complex's.  The differential sends (x, y) to the type-A
    differential of x beside y, plus, for each δ¹ term (b, y2) of y,
    the action on x of b carried across the interface, beside y2; each
    column is one bit mask over the pairs.  A pair's crossing mask is
    its halves' re-indexed masks joined.  The complex has no diagram,
    and its pairs are in one class.
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
    # each half's indices into the crossings its pairs hold; L: names sort before R: names
    xs, ys, verts = dict.fromkeys(x for x, _ in pairs), dict.fromkeys(y for _, y in pairs), []
    mx, my = {}, {}
    for s, half, mask, prefix in ((a, xs, mx, "L:"), (d, ys, my, "R:")):
        gens = s.complex.gens
        held = sorted(set().union(*map(gens.__getitem__, half)))
        where = {i: k for k, i in enumerate(held, len(verts))}
        verts += [prefix + s.complex.verts[i] for i in held]
        for g in half:
            half[g] = t = tuple(sorted(map(where.__getitem__, gens[g])))
            mask[g] = sum(1 << i for i in t)
    pairs.sort(key=lambda p: xs[p[0]] + ys[p[1]])
    index = {p: j for j, p in enumerate(pairs)}
    carried = _carried_actions(a, d, arc_map, {b for y in ys for b, _ in d.delta.get(y, ())})
    moved = {x: tuple(set_bits(a.differential[x])) for x in xs}  # d(x), read once per x
    columns = []
    try:
        for x, y in pairs:
            column = 0
            for x2 in moved[x]:
                column ^= 1 << index[x2, y]
            for b, y2 in d.delta.get(y, ()):
                for x2 in carried[b].get(x, ()):
                    column ^= 1 << index[x2, y2]
            columns.append(column)
    except KeyError:
        raise AssertionError("box tensor left the compatible pairs") from None
    return sfc.ChainComplexF2(
        verts, [xs[x] + ys[y] for x, y in pairs], [mx[x] | my[y] for x, y in pairs],
        BinaryMatrix(len(pairs), tuple(columns)), None,
    )


def _carried_actions(a: BorderedStructure, d: BorderedStructure, arc_map, labels) -> dict:
    """δ¹ label of ``d`` -> the action table on ``a`` of its coefficient
    carried across the interface, each output mask as its positions:
    each strand reversed onto ``a``'s side, each occupied arc back
    through ``arc_map``."""
    za, zd = a.sides[0], d.sides[0]
    point = {q: p for ia, ib in zip(za.intervals, zd.intervals) for p, q in zip(ia, reversed(ib))}
    arc = {v: k for k, v in arc_map.items()}
    terms = _basis_terms(zd.kind, tuple(map(tuple, zd.intervals)), tuple(sorted(zd.matching.items())))
    out = {}
    for b in labels:
        movers, occupied = terms[b]
        coeff = strands.element(za, [(point[t], point[f]) for f, t in movers],
                                {arc[o] for o in occupied})
        col = a.tables[0].get(strands.label(coeff), {})
        out[b] = {x: tuple(set_bits(outs)) for x, outs in col.items()}
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
    verts, gens = bs.complex.verts, bs.complex.gens

    def name(x):
        return format_generator(verts, gens[x])

    def names(outs):  # the generators of the mask ``outs``, in order
        return " + ".join(map(name, set_bits(outs)))

    lines = []
    if bs.kind == "D":
        # the differential reappears as the idempotent-coefficient terms
        for y, entries in sorted(bs.delta.items()):
            rhs = " + ".join(f"{label} ⊗ {name(y2)}" for label, y2 in sorted(entries))
            lines.append(f"δ¹({name(y)}) = {rhs}")
        return "\n".join(lines)
    for x in bs.generators:
        if bs.differential[x]:
            lines.append(f"m[0|1|0]({name(x)}) = {names(bs.differential[x])}")
    for side_pos, side in enumerate(bs.sides):
        table = bs.tables[side_pos]
        for label in algebra_basis(bs, side_pos):
            for x, outs in sorted(table.get(label, {}).items()):
                if side.kind == "beta":
                    lines.append(f"m[1|1|0]({label}, {name(x)}) = {names(outs)}")
                else:
                    lines.append(f"m[0|1|1]({name(x)}, {label}) = {names(outs)}")
    return "\n".join(lines)
