"""Generators, nice-diagram differential, homology, Spin^c classes,
and admissibility for sutured diagrams.

The unit of every census here is the *region*: faces merged across seam
edges, walked with the seams cancelled.  On seamless diagrams regions
and faces coincide; after a bordered concatenation a single rectangle
may well consist of two faces joined along a scar, and it still counts.

Each census makes one pass over the face words (``_face_index``), which
files the faces on each edge, from which the regions follow, and the
faces at each crossing, which decide the crossings a domain holds inside.
``differential`` builds the crossing table once, for both the census
and the generators.

The action census grows each chord's candidate domains from the faces
on the chord across shared edges (``_connected_supersets``).
"""

from dataclasses import dataclass, field
from itertools import chain
from typing import Optional

from .exactlin import (
    BinaryMatrix,
    IntegerMatrix,
    cokernel_residue,
    f2_rank,
    positive_kernel_witness,
    set_bits,
)
from . import surface
from .surface import CURVE_KINDS, Diagram


# ---------------------------------------------------------------------------
# generators


def _crossing_curves(d: Diagram) -> dict:
    """crossing vertex -> {"alpha": curve id, "beta": curve id}."""
    out = {}
    for family in CURVE_KINDS:
        for c in d.curves(family).values():
            for e in c.segments:
                ed = d.edges[e]
                for v in (ed.frm, ed.to):
                    out.setdefault(v, {})[family] = c.id
    return {v: fams for v, fams in out.items() if len(fams) == 2}


def generators(d: Diagram, crossings: Optional[dict] = None) -> list:
    """All occupancy sets, canonically ordered.

    A generator uses each closed curve exactly once and each arc at most
    once.  The enumeration goes curve by curve along the alpha family,
    each alpha curve's crossings in sorted vertex order: a closed alpha
    curve takes exactly one crossing whose beta curve is still unused,
    an alpha arc takes one such crossing or none, and a choice is kept
    when it uses every closed beta curve.  Diagrams admitting no such
    matching, among them any with a closed curve that meets no crossing,
    yield an empty list.  ``crossings``: ``_crossing_curves(d)``, if built.
    """
    if crossings is None:
        crossings = _crossing_curves(d)
    on_alpha = {}  # alpha curve -> [(crossing, beta curve)], by vertex
    for v in sorted(crossings):
        on_alpha.setdefault(crossings[v]["alpha"], []).append(
            (v, crossings[v]["beta"])
        )
    slots = []
    for c in d.curves("alpha").values():
        options = on_alpha.get(c.id, [])
        if c.closed and not options:
            return []
        if options:
            slots.append((c.closed, options))
    closed_beta = {c.id for c in d.curves("beta").values() if c.closed}
    found = []
    _extend_by_curve(0, [], slots, closed_beta, set(), found)
    return sorted(found, key=lambda x: tuple(sorted(x)))


def _extend_by_curve(i, chosen, slots, closed_beta, used, found):
    """Depth-first step of ``generators``: choose on alpha curve ``i``.

    ``used`` holds the beta curves already taken.  A module-level
    function rather than a closure, so the recursion holds no reference
    cycle that would keep ``found`` alive until the cyclic garbage
    collector runs.
    """
    if i == len(slots):
        if closed_beta <= used:
            found.append(frozenset(chosen))
        return
    closed, options = slots[i]
    if not closed:
        _extend_by_curve(i + 1, chosen, slots, closed_beta, used, found)
    for v, b in options:
        if b in used:
            continue
        used.add(b)
        chosen.append(v)
        _extend_by_curve(i + 1, chosen, slots, closed_beta, used, found)
        chosen.pop()
        used.discard(b)


# ---------------------------------------------------------------------------
# domain boundary walks and the shape census


def _classify_edge(d: Diagram, eid: str) -> str:
    kind = d.edges[eid].kind
    if kind in CURVE_KINDS:
        return kind
    return "bd"


def _boundary_cycles(d: Diagram, faces, inner) -> list:
    """Boundary cycles of a union of faces, as lists of (face, pos).

    ``inner`` names the edges glued inside the union; their occurrences
    cancel pairwise and the walk jumps across them.  Every remaining
    occurrence lies on exactly one cycle.
    """
    partner = {}
    occ_of = {}
    for f in faces:
        for i, (e, _s) in enumerate(d.faces[f].word):
            occ_of.setdefault(e, []).append((f, i))
    for e in inner:
        occs = occ_of.get(e, [])
        if len(occs) != 2:
            raise ValueError(f"inner edge {e} does not occur twice in the union")
        partner[occs[0]] = occs[1]
        partner[occs[1]] = occs[0]

    budget = sum(len(d.faces[f].word) for f in faces) + 1

    def advance(f, i):
        n = len(d.faces[f].word)
        j = (i + 1) % n
        steps = 0
        while d.faces[f].word[j][0] in inner:
            f, j = partner[(f, j)]
            n = len(d.faces[f].word)
            j = (j + 1) % n
            steps += 1
            if steps > budget:
                raise ValueError("domain boundary walk does not close up")
        return f, j

    todo = {
        (f, i)
        for f in faces
        for i, (e, _s) in enumerate(d.faces[f].word)
        if e not in inner
    }
    cycles = []
    while todo:
        start = min(todo)
        cyc = []
        cur = start
        while True:
            cyc.append(cur)
            todo.discard(cur)
            cur = advance(*cur)
            if cur == start:
                break
        cycles.append(cyc)
    return cycles


def _cycle_runs(d: Diagram, cycle) -> list:
    """Maximal runs of one edge class: list of (class, [(face, pos), ...])."""
    classes = [_classify_edge(d, d.faces[f].word[i][0]) for (f, i) in cycle]
    n = len(cycle)
    if len(set(classes)) == 1:
        return [(classes[0], list(cycle))]
    k = next(i for i in range(n) if classes[i - 1] != classes[i])
    cyc = cycle[k:] + cycle[:k]
    cls = classes[k:] + classes[:k]
    runs = []
    for c, occ in zip(cls, cyc):
        if runs and runs[-1][0] == c:
            runs[-1][1].append(occ)
        else:
            runs.append((c, [occ]))
    return runs


def _occ_edge(d, occ):
    f, i = occ
    return d.faces[f].word[i]


def _run_head(d, run):
    """Head vertex of a run traversed in boundary orientation."""
    e, s = _occ_edge(d, run[1][-1])
    return d.edges[e].end(s)


def _corner_points(d, runs):
    """x- and y-corners at junctions of consecutive curve runs.

    A corner is the head of the incoming run; it is an x-point when the
    incoming side is an alpha run and a y-point when it is a beta run.
    """
    xs, ys = set(), set()
    n = len(runs)
    for i in range(n):
        cls_in, _ = runs[i]
        cls_out, _ = runs[(i + 1) % n]
        if "bd" in (cls_in, cls_out):
            continue
        v = _run_head(d, runs[i])
        if cls_in == "alpha":
            xs.add(v)
        else:
            ys.add(v)
    return frozenset(xs), frozenset(ys)


def _face_index(d: Diagram, crossings: dict):
    """One pass over the face words for a census: edge -> faces (one
    entry per side, in face order) and crossing -> the set of faces
    whose word touches it.  ``crossings`` is ``_crossing_curves(d)``."""
    faces_on, incident = {}, {}
    for f, face in d.faces.items():
        for (e, _s) in face.word:
            ed = d.edges[e]
            faces_on.setdefault(e, []).append(f)
            for v in (ed.frm, ed.to):
                if v in crossings:
                    incident.setdefault(v, set()).add(f)
    return faces_on, incident


def _seam_classes(d: Diagram, faces_on: dict, seams) -> list:
    """``surface.regions(d)`` from ``_face_index``'s edge -> faces."""
    parent = {f: f for f in d.faces}
    surface._merge(parent, faces_on, seams)
    return surface._classes(parent)


def _interior_crossings(d, faces, cycles, crossings, incident) -> frozenset:
    """Crossings off the boundary cycles whose faces all lie in ``faces``.

    ``crossings`` is ``_crossing_curves(d)`` and ``incident`` is
    ``_face_index``'s crossing -> faces, built once per census.
    """
    on_cycle = set()
    for cyc in cycles:
        for occ in cyc:
            e, _s = _occ_edge(d, occ)
            on_cycle.add(d.edges[e].frm)
            on_cycle.add(d.edges[e].to)
    face_set = set(faces)
    return frozenset(
        v
        for v in crossings
        if v not in on_cycle and incident.get(v, set()) <= face_set
    )


@dataclass
class RegionShape:
    """One non-suture region with its classified boundary."""

    faces: tuple
    shape: str  # "bigon" | "rect" | "port" | "other"
    moves_from: frozenset = frozenset()  # x-corners
    moves_to: frozenset = frozenset()  # y-corners
    interior: frozenset = frozenset()  # crossings strictly inside
    runs: list = field(default_factory=list)
    chord: Optional[tuple] = None  # interface edges of the port side, in order


def region_census(d: Diagram, crossings: Optional[dict] = None) -> list:
    """Classify every non-suture region of the diagram.  ``crossings``:
    ``_crossing_curves(d)``, if built."""
    out = []
    seams = {e for e, ed in d.edges.items() if ed.kind == "seam"}
    interface = d.interface_edge_ids()
    if crossings is None:
        crossings = _crossing_curves(d)
    faces_on, incident = _face_index(d, crossings)
    for group in _seam_classes(d, faces_on, seams):
        if d.faces[group[0]].suture:
            continue
        inner = {
            e for f in group for (e, _s) in d.faces[f].word if e in seams
        }
        cycles = _boundary_cycles(d, group, inner)
        rec = RegionShape(tuple(group), "other")
        if len(cycles) == 1:
            runs = _cycle_runs(d, cycles[0])
            rec.runs = runs
            pattern = [c for c, _ in runs]
            rec.moves_from, rec.moves_to = _corner_points(d, runs)
            rec.interior = _interior_crossings(d, group, cycles, crossings, incident)
            if sorted(pattern) == ["alpha", "beta"]:
                rec.shape = "bigon"
            elif len(runs) == 4 and pattern.count("bd") == 0:
                rec.shape = "rect"
            elif len(runs) == 4 and pattern.count("bd") == 1:
                bd_run = next(r for r in runs if r[0] == "bd")
                if all(
                    _occ_edge(d, occ)[0] in interface for occ in bd_run[1]
                ):
                    rec.shape = "port"
                    rec.chord = tuple(
                        _occ_edge(d, occ)[0] for occ in bd_run[1]
                    )
        out.append(rec)
    return out


def is_nice(d: Diagram):
    """(flag, offending face ids).

    Every non-suture region must be a bigon, a rectangle, or a
    quadrilateral with exactly one side on an interface.
    """
    offenders = _not_nice_faces(region_census(d))
    return (not offenders, offenders)


def _not_nice_faces(census) -> list:
    """Sorted faces of the census regions that fail the niceness test."""
    return sorted(f for rec in census if rec.shape == "other" for f in rec.faces)


# ---------------------------------------------------------------------------
# admissibility


def is_admissible(d: Diagram):
    """No nonzero nonnegative combination of non-suture faces may have
    constant multiplicity along every full curve; returns (flag, witness)
    where the witness maps faces to the coefficients of an offending
    domain, or None.
    """
    cols = sorted(f for f, face in d.faces.items() if not face.suture)
    if not cols:
        return True, None
    col_of = {f: j for j, f in enumerate(cols)}
    mult = {}  # edge -> {column: signed occurrence count}
    for f in cols:
        for (e, s) in d.faces[f].word:
            row = mult.setdefault(e, {})
            row[col_of[f]] = row.get(col_of[f], 0) + s
    rows = []
    for e, ed in sorted(d.edges.items()):
        if ed.kind not in CURVE_KINDS and e in mult:
            rows.append(dict(mult[e]))
    for family in CURVE_KINDS:
        for c in d.curves(family).values():
            segs = list(c.segments)
            pairs = list(zip(segs, segs[1:]))
            if c.closed and len(segs) > 1:
                pairs.append((segs[-1], segs[0]))
            for e1, e2 in pairs:
                row = {}
                for j, v in mult.get(e1, {}).items():
                    row[j] = row.get(j, 0) + v
                for j, v in mult.get(e2, {}).items():
                    row[j] = row.get(j, 0) - v
                rows.append(row)
    dense = [
        [row.get(j, 0) for j in range(len(cols))]
        for row in rows
        if any(row.values())
    ]
    if not dense:
        dense = [[0] * len(cols)]
    witness = positive_kernel_witness(IntegerMatrix.from_rows(dense))
    if witness is None:
        return True, None
    return False, {cols[j]: w for j, w in enumerate(witness) if w}


# ---------------------------------------------------------------------------
# Spin^c partition


def spinc_partition(d: Diagram, gens: list, groups: list) -> dict:
    """Generator -> class index.

    Two generators share a class exactly when the difference of their
    occupancy vectors, spread along the alpha family, is a boundary of
    non-suture regions; classes are numbered by first appearance in
    canonical generator order.  ``gens`` is ``generators(d)`` and
    ``groups`` the face tuples of the non-suture regions, in the order
    of ``region_census(d)``.  With at most one generator there is one
    class, and no Smith form is needed.
    """
    if len(gens) <= 1:
        return {x: 0 for x in gens}
    verts = sorted(
        {
            v
            for c in d.curves("alpha").values()
            for e in c.segments
            for v in (d.edges[e].frm, d.edges[e].to)
        }
    )
    if not verts:
        return {x: 0 for x in gens}
    vrow = {v: i for i, v in enumerate(verts)}
    alpha_edges = {e for c in d.curves("alpha").values() for e in c.segments}
    dense = [[0] * len(groups) for _ in verts]
    for j, group in enumerate(groups):
        coeff = {}
        for f in group:
            for (e, s) in d.faces[f].word:
                if e in alpha_edges:
                    coeff[e] = coeff.get(e, 0) + s
        for e, c in coeff.items():
            ed = d.edges[e]
            dense[vrow[ed.to]][j] += c
            dense[vrow[ed.frm]][j] -= c
    key = cokernel_residue(IntegerMatrix.from_rows(dense))
    labels = {}
    classes = {}
    for x in gens:
        k = key(map(vrow.__getitem__, x))
        if k not in labels:
            labels[k] = len(labels)
        classes[x] = labels[k]
    return classes


# ---------------------------------------------------------------------------
# the chain complex


@dataclass
class ChainComplexF2:
    """A sutured chain complex over F2.

    ``differential`` builds it once per diagram, and homology, the handle
    maps and the glue routes take it instead of rebuilding it.
    ``diagram`` is the diagram it came from (``None`` for a box tensor
    product); ``position`` and ``columns`` are derived at construction.
    """

    basis: list  # canonically ordered generators
    differential: BinaryMatrix  # entry (i, j): basis[i] appears in d(basis[j])
    spinc_class: dict  # generator -> class index
    diagram: Optional[Diagram]
    position: dict = field(init=False, repr=False)  # generator -> basis index
    columns: list = field(init=False, repr=False)  # column j as a bitmask of rows

    def __post_init__(self):
        self.position = {x: i for i, x in enumerate(self.basis)}
        self.columns = [0] * len(self.basis)
        for (r, c) in self.differential.entries:
            self.columns[c] |= 1 << r

    def index(self, x) -> int:
        return self.position[x]

    def boundary_of(self, x) -> frozenset:
        return frozenset(self.basis[r] for r in set_bits(self.columns[self.index(x)]))


def as_complex(d) -> ChainComplexF2:
    """``d`` itself when it is a complex, else ``differential(d)``."""
    return d if isinstance(d, ChainComplexF2) else differential(d)


def differential(d: Diagram) -> ChainComplexF2:
    """The mod-2 boundary map counting bigon and rectangle regions.

    Requires a nice, admissible diagram and rejects anything else.  The
    entries come from ``_boundary_entries``: equal moves cancel in pairs
    first, and each generator visits only the moves whose least x-corner
    it occupies, so a generator costs about its own size in lookups.
    """
    crossings = _crossing_curves(d)
    census = region_census(d, crossings)
    offenders = _not_nice_faces(census)
    if offenders:
        raise ValueError(f"diagram is not nice; offending faces: {offenders}")
    ok, witness = is_admissible(d)
    if not ok:
        raise ValueError(f"diagram is not admissible; witness domain: {witness}")
    basis = generators(d, crossings)
    entries = _boundary_entries(basis, census)
    diff = BinaryMatrix(len(basis), len(basis), frozenset(entries))
    groups = [rec.faces for rec in census]
    return ChainComplexF2(basis, diff, spinc_partition(d, basis, groups), d)


def _boundary_entries(basis: list, census: list) -> set:
    """Positions (i, j) where ``basis[i]`` appears in d(``basis[j]``).

    Each bigon and rectangle region of ``census`` is a move: it carries
    a generator x holding its x-corners X, and missing its y-corners Y
    and the crossings inside it, to (x - X) | Y.  Moves with the same
    (X, Y, interior) act alike on every generator, so they cancel in
    pairs mod 2 before any generator is visited.  The moves left are
    indexed by their least x-corner, and each generator visits only the
    moves anchored at its own points, plus any move without x-corners,
    which every generator visits.
    """
    odd = set()
    for rec in census:
        if rec.shape in ("bigon", "rect"):
            odd ^= {(rec.moves_from, rec.moves_to, rec.interior)}
    anchored, unanchored = {}, []
    for move in odd:
        if move[0]:
            anchored.setdefault(min(move[0]), []).append(move)
        else:
            unanchored.append(move)
    idx = {x: i for i, x in enumerate(basis)}
    entries = set()
    for j, x in enumerate(basis):
        hits = set()
        visiting = chain(unanchored, *(anchored[v] for v in anchored.keys() & x))
        for X, Y, interior in visiting:
            if X <= x and not (Y & x) and not (interior & x):
                hits ^= {(x - X) | Y}
        entries.update((idx[y], j) for y in hits)
    return entries


@dataclass
class Homology:
    total: int
    by_class: dict  # class index -> rank


def homology(d) -> Homology:
    """Per-class mod-2 homology ranks of a diagram or its complex.

    The differential preserves the Spin^c classes, so each class block
    of ``m`` generators is a complex on its own, of rank ``m - 2 r``
    where ``r`` is the rank of its differential.
    """
    cx = as_complex(d)
    blocks = {}
    for j, x in enumerate(cx.basis):
        blocks.setdefault(cx.spinc_class[x], []).append(j)
    by_class = {}
    for label in sorted(blocks):
        block = blocks[label]
        pos = {j: t for t, j in enumerate(block)}
        bcols = []
        for j in block:
            mask = 0
            for r in set_bits(cx.columns[j]):
                if r not in pos:
                    raise AssertionError(
                        "differential does not respect the class partition"
                    )
                mask |= 1 << pos[r]
            bcols.append(mask)
        by_class[label] = len(block) - 2 * f2_rank(bcols)
    return Homology(sum(by_class.values()), by_class)


# ---------------------------------------------------------------------------
# interface actions


@dataclass(frozen=True)
class ActionRecord:
    """An embedded quadrilateral with one side a chord on an interface.

    The chord runs along ``interval`` of ``interface`` from marked point
    ``start`` to marked point ``end`` (0-indexed).  The quad moves the
    crossing ``x_pt`` to ``y_pt`` and traps ``interior`` inside.
    """

    interface: int
    interval: int
    start: int
    end: int
    x_pt: str
    y_pt: str
    faces: tuple
    interior: frozenset


def _try_quad(d, faces, bd, k, t, i, j, crossings, incident):
    occ = {}
    for f in faces:
        for (e, _s) in d.faces[f].word:
            occ[e] = occ.get(e, 0) + 1
    inner = {e for e, n in occ.items() if n == 2}
    if inner & set(bd):
        return None
    cycles = _boundary_cycles(d, faces, inner)
    if len(cycles) != 1:
        return None
    runs = _cycle_runs(d, cycles[0])
    if len(runs) != 4:
        return None
    bd_runs = [r for r in runs if r[0] == "bd"]
    if len(bd_runs) != 1:
        return None
    run_edges = [_occ_edge(d, o)[0] for o in bd_runs[0][1]]
    if run_edges != bd:
        return None
    xs, ys = _corner_points(d, runs)
    if len(xs) != 1 or len(ys) != 1:
        return None
    return ActionRecord(
        interface=k,
        interval=t,
        start=i,
        end=j,
        x_pt=next(iter(xs)),
        y_pt=next(iter(ys)),
        faces=tuple(faces),
        interior=_interior_crossings(d, faces, cycles, crossings, incident),
    )


def _connected_supersets(base, allowed, adjacent):
    """Each set of faces holding ``base``, inside ``base | allowed`` and
    joined to ``base`` across shared edges (``adjacent``: face -> faces
    sharing an edge with it), once, as a frozenset.  Branches on the
    first frontier face (next to the set, seen by no earlier branch):
    leave it out for good, or take it in and queue its unseen neighbours.
    """
    start = tuple(sorted({g for f in base for g in adjacent[f] if g in allowed} - set(base)))
    stack = [(frozenset(base), start, set(base).union(start))]
    while stack:
        chosen, frontier, seen = stack.pop()
        if not frontier:
            yield chosen
            continue
        f, rest = frontier[0], frontier[1:]
        grown = tuple(sorted(g for g in adjacent[f] if g in allowed and g not in seen))
        stack.append((chosen, rest, seen))
        stack.append((chosen | {f}, rest + grown, seen.union(grown)))


def action_census(d: Diagram) -> list:
    """All embedded quadrilaterals carried by interface chords.

    A chord joins two marked points of one interval; the quad picks up
    a set of non-suture faces whose union is a disk meeting the
    interface in exactly that chord, with the rest of its boundary an
    alternating beta-alpha-beta (or alpha-beta-alpha) walk.

    Candidates are the sets grown from the faces on the chord across
    shared edges, through faces whose boundary edges all lie on the
    chord; each still goes through the full quadrilateral test.  No set
    is missed: an accepted set has one boundary cycle, so it is joined
    across shared edges, and a boundary edge lies on one face only, so
    one off the chord would sit on the cycle and break the chord run.
    """
    nonsuture = sorted(f for f, face in d.faces.items() if not face.suture)
    if d.interfaces and len(nonsuture) > 14:
        # Kept only as the benchmark's baseline: lifting it is ROADMAP item 1.
        raise ValueError(
            f"refusing a bordered census over {len(nonsuture)} non-suture "
            "faces (limit 14); simplify the diagram first"
        )
    crossings = _crossing_curves(d)
    face_of_edge, incident = _face_index(d, crossings)
    rim, adjacent = {}, {}  # face -> its boundary edges, the faces across its edges
    for f in nonsuture:
        word = [e for (e, _s) in d.faces[f].word]
        rim[f] = {e for e in word if d.edges[e].kind == "boundary"}
        adjacent[f] = {g for e in word for g in face_of_edge[e]} - {f}
    out = []
    for k, iface in enumerate(d.interfaces):
        for t, interval in enumerate(iface.intervals):
            points = len(interval) - 1  # m+1 edges carry m marked points
            for i in range(points):
                for j in range(i + 1, points):
                    bd = [interval[p] for p in range(i + 1, j + 1)]
                    chord = set(bd)
                    base = {f for e in bd for f in face_of_edge[e]}
                    if any(d.faces[f].suture or rim[f] - chord for f in base):
                        continue
                    allowed = {f for f in nonsuture if rim[f] <= chord}
                    for faces in _connected_supersets(base, allowed, adjacent):
                        rec = _try_quad(
                            d, sorted(faces), bd, k, t, i, j, crossings, incident
                        )
                        if rec is not None:
                            out.append(rec)
    return sorted(
        out,
        key=lambda r: (r.interface, r.interval, r.start, r.end, r.faces),
    )
