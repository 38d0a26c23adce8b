"""Bordered invariants of nice diagrams as finite action tables.

A bordered diagram with interfaces yields a type-D, type-A, or type-AA
structure over the strands algebras of its interface arc diagrams.  All
structures here are truncated: the differential ``m[0|1|0]`` counts
interior bigons and rectangles, a single algebra input acts through
boundary rectangles (``m[1|1|0]`` on beta-type interfaces, ``m[0|1|1]``
on alpha-type ones), and type-D structures store ``δ¹`` outputs as
(algebra basis element, generator) pairs.  Higher actions vanish on nice
diagrams, and non-nice input is rejected rather than silently truncated.

The module also provides the box tensor product against a type-A
structure, dualization by table transposition, and a structure-relation
checker used by the test harness and the command-line reports.
"""

from dataclasses import dataclass
from itertools import product

from . import sfc, strands
from .exactlin import BinaryMatrix, f2_rank_kernel
from .surface import ArcDiagram, Diagram, _interface_arc_bijection


@dataclass(frozen=True)
class Side:
    """One acting interface: its position, curve family, and arc diagram."""

    index: int
    family: str
    algebra: ArcDiagram
    arcs: tuple


@dataclass
class BorderedStructure:
    kind: str  # "D" | "A" | "AA"
    diagram: Diagram
    sides: list  # [Side], acting order (left to right by interface index)
    generators: list  # frozensets of crossing ids, canonical order
    occupancy: list  # per side: {generator: frozenset of occupied arcs}
    differential: dict  # generator -> frozenset of generators
    tables: list  # per side: {algebra label: {generator: frozenset of outputs}}
    delta: dict  # kind D: generator -> frozenset of (label, generator)
    dual: bool = False

    def generator_names(self) -> list:
        return [format_generator(x) for x in self.generators]


def format_generator(x) -> str:
    return "{" + ",".join(sorted(x)) + "}" if x else "∅"


_IFACE_COUNT = {"D": 1, "A": 1, "AA": 2}


# ---------------------------------------------------------------------------
# construction


def _positions(z: ArcDiagram) -> dict:
    return {p: (i, k) for i, iv in enumerate(z.intervals) for k, p in enumerate(iv)}


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
    return {strands.label(b): b for b in strands.basis(bs.sides[side_pos].algebra)}


def _act_raw(bs, side_pos, records, gen_set, term, x):
    """Evaluate one algebra generator on one module generator from the
    port census: one boundary rectangle per moving strand, pairwise
    disjoint, with matching occupancy."""
    side = bs.sides[side_pos]
    z = side.algebra
    movers, occupied = term
    pos = _positions(z)
    start_arcs = {z.matching[s] for s, _ in movers}
    end_arcs = {z.matching[t] for _, t in movers}
    need = (start_arcs if side.family == "beta" else end_arcs) | set(occupied)
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
    z = bs.sides[0].algebra
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


def bordered_invariant(d, kind: str, sector=None) -> BorderedStructure:
    """Build the finite bordered structure of a nice bordered diagram.

    ``d`` is the diagram or its complex (``sfc.as_complex``).  ``sector``
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
    cx = sfc.as_complex(d)  # gates niceness and admissibility
    d = cx.diagram
    sides = [
        Side(
            i,
            itf.arc_diagram.kind,
            itf.arc_diagram,
            tuple(sorted(set(itf.arc_diagram.matching.values()))),
        )
        for i, itf in enumerate(d.interfaces)
    ]
    occ_maps = [_occupancy_map(d, i, cx.basis) for i in range(len(sides))]
    gens = list(cx.basis)
    if sector is not None:
        if len(sector) != len(sides):
            raise ValueError("sector length must match the interface count")
        gens = [
            x
            for x in gens
            if tuple(len(occ_maps[s][x]) for s in range(len(sides)))
            == tuple(sector)
        ]
    kept = set(gens)
    diff = {}
    for (r, c) in cx.differential.entries:
        x, y = cx.basis[c], cx.basis[r]
        if x in kept:
            if y not in kept:
                raise AssertionError("differential leaves the occupancy sector")
            diff.setdefault(x, set()).add(y)
    diff = {x: frozenset(ys) for x, ys in diff.items()}
    records = sfc.action_census(d)
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


def act(bs: BorderedStructure, side_pos: int, a, x) -> frozenset:
    """Action of a single algebra generator on a module generator."""
    if bs.kind == "D":
        raise ValueError("type-D structures are evaluated through delta1")
    if len(a.terms) != 1:
        raise ValueError("actions are tabulated for single generators")
    return bs.tables[side_pos].get(strands.label(a), {}).get(x, frozenset())


def delta1(bs: BorderedStructure, y) -> frozenset:
    if bs.kind != "D":
        raise ValueError("delta1 is defined for type-D structures")
    return bs.delta.get(y, frozenset())


def idempotent_of(bs: BorderedStructure, x, side_pos: int):
    """ι_L/ι_R of a generator: its occupied arcs, or their complement on
    a type-D side."""
    side = bs.sides[side_pos]
    occ = set(bs.occupancy[side_pos][x])
    if bs.kind == "D":
        occ = set(side.arcs) - occ
    return strands.idempotent(side.algebra, occ)


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
# dualization


def dualize(m: BorderedStructure) -> BorderedStructure:
    """Transpose every table; swap the acting sides of an AA bimodule."""
    order = list(range(len(m.sides)))[::-1] if m.kind == "AA" else [0]
    diff = {}
    for x, ys in m.differential.items():
        for y in ys:
            diff.setdefault(y, set()).add(x)
    tables = []
    for s in order:
        table = {}
        for label, col in m.tables[s].items():
            for x, outs in col.items():
                for y in outs:
                    table.setdefault(label, {}).setdefault(y, set()).add(x)
        tables.append(
            {
                label: {y: frozenset(xs) for y, xs in col.items()}
                for label, col in table.items()
            }
        )
    delta = {}
    for y, entries in m.delta.items():
        for (label, y2) in entries:
            delta.setdefault(y2, set()).add((label, y))
    return BorderedStructure(
        m.kind,
        m.diagram,
        [m.sides[s] for s in order],
        list(m.generators),
        [m.occupancy[s] for s in order],
        {x: frozenset(ys) for x, ys in diff.items()},
        tables if m.kind != "D" else [{}],
        {y: frozenset(es) for y, es in delta.items()},
        not m.dual,
    )


# ---------------------------------------------------------------------------
# structure relations


def _leibniz_safe(z: ArcDiagram, term) -> bool:
    """True when the generator visibly has no resolvable crossing, so the
    Leibniz rule holds without an algebra differential term."""
    movers, occupied = term
    pos = _positions(z)
    spans = sorted((pos[s], pos[t]) for s, t in movers)
    for (a1, b1), (a2, b2) in zip(spans, spans[1:]):
        if a1[0] == a2[0] and a1 < a2 and b1 > b2:
            return False
    by_arc = {}
    for p, a in z.matching.items():
        by_arc.setdefault(a, []).append(p)
    for o in occupied:
        for p in by_arc[o]:
            for (i, k), (j, l) in spans:
                if pos[p][0] == i and k < pos[p][1] < l:
                    return False
    return True


def _apply(table, label, xs) -> frozenset:
    out = set()
    for x in xs:
        out ^= table.get(label, {}).get(x, frozenset())
    return frozenset(out)


def check_relations(m: BorderedStructure) -> dict:
    """Verify ∂²=0, idempotent compatibility, action composition, the
    Leibniz rule, and for type D the δ¹ structure equation."""
    violations = []
    name = format_generator
    diff = m.differential
    for x in m.generators:
        acc = set()
        for y in diff.get(x, ()):
            acc ^= set(diff.get(y, ()))
        if acc:
            violations.append(f"∂² ≠ 0 at {name(x)}")
    for side_pos, side in enumerate(m.sides):
        if m.kind == "D":
            break
        basis = algebra_basis(m, side_pos)
        table = m.tables[side_pos]
        for label, col in table.items():
            a = basis[label]
            la, ra = strands.left_arcs(a), strands.right_arcs(a)
            src, dst = (la, ra) if side.family == "beta" else (ra, la)
            for x, outs in col.items():
                if m.occupancy[side_pos][x] != src:
                    violations.append(
                        f"idempotent mismatch: {label} into {name(x)}"
                    )
                for y in outs:
                    if m.occupancy[side_pos][y] != dst:
                        violations.append(
                            f"idempotent mismatch: {label} out of {name(y)}"
                        )
        for l1, b1 in basis.items():
            for l2, b2 in basis.items():
                two_step = {
                    x: _apply(table, l2, _apply(table, l1, {x}))
                    for x in m.generators
                }
                prod = (
                    strands.multiply(b1, b2)
                    if side.family == "beta"
                    else strands.multiply(b2, b1)
                )
                for x in m.generators:
                    expect = set()
                    for term in prod.terms:
                        lab = strands.label(
                            strands.StrandDiagramSum(side.algebra, frozenset({term}))
                        )
                        expect ^= table.get(lab, {}).get(x, frozenset())
                    if two_step[x] != frozenset(expect):
                        violations.append(
                            f"composition fails: {l2}∘{l1} vs their product "
                            f"at {name(x)}"
                        )
        for label, b in basis.items():
            if not _leibniz_safe(side.algebra, next(iter(b.terms))):
                continue
            for x in m.generators:
                lhs = set()
                for y in table.get(label, {}).get(x, frozenset()):
                    lhs ^= set(diff.get(y, ()))
                rhs = _apply(table, label, diff.get(x, frozenset()))
                if frozenset(lhs) != rhs:
                    violations.append(f"Leibniz fails: {label} at {name(x)}")
    if m.kind == "D":
        z = m.sides[0].algebra
        basis = algebra_basis(m, 0)
        arcs = set(m.sides[0].arcs)
        for y, entries in m.delta.items():
            comp = arcs - set(m.occupancy[0][y])
            for label, y2 in entries:
                if strands.left_arcs(basis[label]) != frozenset(comp):
                    violations.append(
                        f"idempotent mismatch: δ¹({name(y)}) term {label}"
                    )
            acc = {}
            for (l1, y1) in entries:
                for (l2, y2) in m.delta.get(y1, ()):
                    prev = acc.get(y2, strands.zero(z))
                    acc[y2] = strands.add(
                        prev, strands.multiply(basis[l1], basis[l2])
                    )
            for y2, total in acc.items():
                if not total.is_zero():
                    violations.append(
                        f"δ¹ structure equation fails: {name(y)} → {name(y2)}"
                    )
    return {"ok": not violations, "violations": violations}


# ---------------------------------------------------------------------------
# box tensor product


def box_tensor(a: BorderedStructure, d: BorderedStructure) -> sfc.ChainComplexF2:
    """Pair a type-A with a type-D structure over matching interfaces.

    Generators are the pairs whose occupied arc sets are complementary
    under the interface identification; each is encoded as the union of
    its two halves with the concatenation prefixes, so the result is
    directly comparable with the complex of the glued diagram.
    """
    if a.kind != "A" or d.kind != "D":
        raise ValueError("box tensor pairs a type-A with a type-D structure")
    za, zd = a.sides[0].algebra, d.sides[0].algebra
    arc_map = _interface_arc_bijection(za, zd)
    inv_map = {v: k for k, v in arc_map.items()}
    point_map = {}
    for ia, ib in zip(za.intervals, zd.intervals):
        for r, p in enumerate(ia):
            point_map[ib[len(ib) - 1 - r]] = p
    all_arcs = set(zd.matching.values())
    pairs = []
    for x in a.generators:
        ox = {arc_map[o] for o in a.occupancy[0][x]}
        for y in d.generators:
            oy = set(d.occupancy[0][y])
            if not (ox & oy) and ox | oy == all_arcs:
                pairs.append((x, y))

    def key(pair):
        x, y = pair
        return frozenset(f"L:{v}" for v in x) | frozenset(f"R:{v}" for v in y)

    pairs.sort(key=lambda p: tuple(sorted(key(p))))
    index = {p: i for i, p in enumerate(pairs)}
    basis_d = algebra_basis(d, 0)
    entries = set()
    for (x, y) in pairs:
        outs = set()
        for x2 in a.differential.get(x, ()):
            outs ^= {(x2, y)}
        for (label, y2) in d.delta.get(y, ()):
            movers, occupied = next(iter(basis_d[label].terms))
            coeff = strands.element(
                za,
                [(point_map[t], point_map[f]) for (f, t) in movers],
                {inv_map[o] for o in occupied},
            )
            for x2 in act(a, 0, coeff, x):
                outs ^= {(x2, y2)}
        for out in outs:
            if out not in index:
                raise AssertionError("box tensor left the compatible pairs")
            entries.add((index[out], index[(x, y)]))
    n = len(pairs)
    basis = [key(p) for p in pairs]
    return sfc.ChainComplexF2(
        basis,
        BinaryMatrix(n, n, frozenset(entries)),
        {b: 0 for b in basis},
        None,
    )


def chain_homology_rank(cx: sfc.ChainComplexF2) -> int:
    rank, _ = f2_rank_kernel(cx.differential)
    return len(cx.basis) - 2 * rank


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
                if side.family == "beta":
                    lines.append(f"m[1|1|0]({label}, {name(x)}) = {rhs}")
                else:
                    lines.append(f"m[0|1|1]({name(x)}, {label}) = {rhs}")
    return "\n".join(lines)
