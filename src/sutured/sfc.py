"""Generators, nice-diagram differential, homology, Spin^c classes,
and admissibility for sutured diagrams.

The unit of every census here is the *region*: faces merged across seam
edges, walked with the seams cancelled.  On seamless diagrams regions
and faces coincide; after a bordered concatenation a single rectangle
may well consist of two faces joined along a scar, and it still counts.

Every census reads one dart build of the diagram (``darts.Darts``):
each side of each face word is a dart, and flat lists give its edge,
face, tail, next side in the face and mate across the edge.  The
regions are a union-find over face indices across the seams.  A
domain's boundary is walked dart to dart, crossing its glued edges
through their mates; its corners are the tails where runs of the two
curve families meet, and a crossing lies inside when it is off the
boundary and the domain touches it.
``differential`` reads one build, the one the diagram's gate validated
when its caller hands it on, for the census, the admissibility rows,
the crossing table and the generators, and its complex keeps the
build for the action census and the Spin^c labels.  Inside it a
generator is its index tuple, unsorted, and bit mask over the crossings
in vertex order, from one enumeration (``_matchings``, ordered by an int
key, or by its order mask alone when every alpha curve is closed, since
then every generator has one crossing per alpha curve) to the columns
(``_boundary_entries``); the complex keeps both, the masks being the
one generator identity every reader matches on.  Its class labels
(``_spinc_labels``) are a view built on first read, which ``homology``
makes and the glue routes make only for the complexes whose ranks they
report; a generator's weight sum is three subset-sum table lookups on
its mask when there are at least 3 * 2^ceil(n/3) generators over n
crossings, as on disjoint unions of bigon pairs (``_subset_sums``; not
on the grids, the route stages or any catalog piece), else a sum over
its tuple.  Its ranks are a view too, so a complex that two callers
rank is ranked once.  Vertex-id frozensets are built only where they
are read, by one helper (``_as_sets``): in the view
``generators``, which the ``generators`` verb prints and
``spinc_partition`` takes, and in the complex's ``basis`` view on its
first read, which only the tests and the benchmark read.  ``homology``,
the bordered structures and the glue tables build none.

The action census grows each chord's candidate domains from the faces
on the chord across shared edges (``_connected_supersets``).  Both
censuses classify a union of faces through one function
(``_classify``): a region glued along its seams, and a candidate domain
glued along the edges it holds on both sides.
"""

from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby
from operator import itemgetter
from typing import Optional

from .exactlin import (
    BinaryMatrix,
    IntegerMatrix,
    cokernel_residue,
    f2_rank,
    positive_kernel_witness,
)
from .darts import Darts
from .surface import CURVE_KINDS, Diagram


# ---------------------------------------------------------------------------
# generators


def generators(d: Diagram, darts=None) -> list:
    """All occupancy sets, canonically ordered: ``_matchings`` written
    as frozensets of vertex ids.  The crossings are read from ``darts``,
    the diagram's ``Darts`` build, made here when not handed in."""
    verts, gens = _matchings(d, (Darts(d) if darts is None else darts).crossings)
    return _as_sets(verts, (t for t, _ in gens))


def _as_sets(verts: list, tuples) -> list:
    """Each of ``tuples``, indices into the crossings ``verts``, as the
    frozenset of its vertex ids."""
    return [frozenset(map(verts.__getitem__, t)) for t in tuples]


def _matchings(d: Diagram, crossings: dict) -> tuple:
    """``(verts, gens)``: the crossings in vertex order, and every
    generator as ``(indices, mask)``, its indices into ``verts``, unsorted,
    and the int with those bits set, in canonical order: the lex order of
    the sorted index tuples, prefixes first (index order is vertex order).

    A generator uses each closed curve exactly once and each arc at most
    once.  Going curve by curve along the alpha family, a closed alpha
    curve takes one crossing whose beta curve is unused, an alpha arc
    one or none, and a choice is kept when it uses every closed beta
    curve.  Partial choices are grouped by the mask of beta curves they
    use, which fixes how they go on, so a group tests each crossing once.

    Each choice also carries an order mask o: bit 2(n - i) - 1 for each
    index i among n crossings, and bit 2n + 1.  The key o + ((o & -o) >> 1)
    ends the sorted tuple with the even bit below its last index, so where
    two tuples first differ, the smaller index, or the end, has the higher
    bit: sorted descending by key, the generators fall in canonical order.
    The end bit only matters where one sorted tuple is a proper prefix of
    another.  When every alpha curve is closed, every generator holds one
    crossing per alpha curve, so none is a prefix of another and o alone,
    descending, is the order.
    """
    verts = sorted(crossings)
    beta = {c: 1 << k for k, c in enumerate(d.curves("beta"))}
    closed_beta = sum(beta[c.id] for c in d.curves("beta").values() if c.closed)
    options = {}  # alpha curve -> [(index, its bit, its order bit, beta curve bit)], by vertex
    for i, v in enumerate(verts):
        options.setdefault(crossings[v]["alpha"], []).append(
            (i, 1 << i, 1 << 2 * (len(verts) - i) - 1, beta[crossings[v]["beta"]]))
    level = {0: [((), 0, 2 << 2 * len(verts))]}  # beta curves used -> [(indices, mask, order)]
    for c in d.curves("alpha").values():
        grown = {} if c.closed else {used: list(ps) for used, ps in level.items()}
        for used, ps in level.items():
            for i, bit, obit, b in options.get(c.id, ()):
                if not used & b:
                    grown.setdefault(used | b, []).extend(
                        [(t + (i,), m | bit, o | obit) for t, m, o in ps])
        level = grown
    gens = [g for used, ps in level.items() if used & closed_beta == closed_beta for g in ps]
    if all(c.closed for c in d.curves("alpha").values()):
        gens.sort(key=itemgetter(2), reverse=True)
    else:
        gens.sort(key=lambda g: g[2] + ((g[2] & -g[2]) >> 1), reverse=True)
    return verts, [(t, m) for t, m, _ in gens]


# ---------------------------------------------------------------------------
# domain boundary walks and the shape census


def _boundary_cycle(dx, darts, glued):
    """The boundary of the union of faces holding ``darts``, glued along
    the darts in ``glued`` (closed under ``mate``), as the darts of its
    one boundary cycle in walking order; None when it has no boundary
    or more than one cycle."""
    rim = [k for k in darts if k not in glued]
    if not rim:
        return None
    nxt, mate = dx.nxt, dx.mate
    cycle, k = [], rim[0]
    while True:
        cycle.append(k)
        k = nxt[k]
        while k in glued:
            k = nxt[mate[k]]
        if k == rim[0]:
            break
        if len(cycle) == len(rim):
            raise ValueError("domain boundary walk does not close up")
    return cycle if len(cycle) == len(rim) else None


def _cycle_runs(dx, cycle) -> list:
    """Maximal runs of one edge class ("alpha", "beta", or "bd" for any
    other kind) along ``cycle``: list of (class, [dart, ...])."""
    kinds = map(dx.kind.__getitem__, cycle)
    cls = {k: c if c in CURVE_KINDS else "bd" for k, c in zip(cycle, kinds)}
    i = next((i for i, k in enumerate(cycle) if cls[cycle[i - 1]] != cls[k]), 0)
    return [(c, list(run)) for c, run in groupby(cycle[i:] + cycle[:i], cls.__getitem__)]


@dataclass(slots=True)
class RegionShape:
    """A union of non-suture faces with its classified boundary."""

    faces: tuple
    shape: str  # "bigon" | "rect" | "port" | "other"
    moves_from: frozenset = frozenset()  # x-corners
    moves_to: frozenset = frozenset()  # y-corners
    interior: frozenset = frozenset()  # crossings strictly inside
    chord: Optional[tuple] = None  # interface edges of the port side, in order


def _classify(dx, faces, glued, interface) -> RegionShape:
    """The shape of the union of ``faces`` (sorted ids) glued along the
    darts in ``glued``, read from the dart build ``dx``.

    With one boundary cycle, the cycle splits into runs of one edge
    class.  Where two curve runs meet, the head of the incoming run is
    a corner: an x-corner after an alpha run, a y-corner after a beta
    run.  The corners and the crossings inside are recorded, and the
    runs decide the shape: two curve runs make a bigon, four a
    rectangle, and four with one run on ``interface`` edges a port,
    whose chord is that run.  Anything else is "other".  A crossing is
    inside when the union touches it off the cycle: the link of a vertex
    is one cycle of corners, so its corners are then all in the union.
    """
    rec = RegionShape(tuple(faces), "other")
    darts = [k for f in faces for k in dx.darts_of(dx.index[f])]
    cycle = _boundary_cycle(dx, darts, glued)
    if cycle is None:
        return rec
    runs = _cycle_runs(dx, cycle)
    pattern = [c for c, _ in runs]
    tail, corners = dx.tail, (set(), set())  # the x- and y-corners
    for (c_in, _run), (c_out, run) in zip(runs, runs[1:] + runs[:1]):
        if "bd" not in (c_in, c_out):  # the head of an alpha (x) or beta (y) run
            corners[c_in == "beta"].add(tail[run[0]])
    rec.moves_from, rec.moves_to = map(frozenset, corners)
    touched = {tail[k] for k in darts}
    rec.interior = frozenset(touched.intersection(dx.crossings) - {tail[k] for k in cycle})
    if sorted(pattern) == ["alpha", "beta"]:
        rec.shape = "bigon"
    elif len(runs) == 4 and pattern.count("bd") == 0:
        rec.shape = "rect"
    elif len(runs) == 4 and pattern.count("bd") == 1:
        chord = tuple(dx.edge[k] for c, run in runs if c == "bd" for k in run)
        if interface.issuperset(chord):
            rec.shape, rec.chord = "port", chord
    return rec


def region_census(d: Diagram, darts=None) -> list:
    """Classify every non-suture region of the diagram.  ``darts``: the
    diagram's ``darts.Darts`` build, if made."""
    dx = Darts(d) if darts is None else darts
    seams = {k for k, kind in enumerate(dx.kind) if kind == "seam"}
    interface = d.interface_edge_ids()
    return [
        _classify(dx, group, seams, interface)
        for group in dx.region_groups
        if not d.faces[group[0]].suture
    ]


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


def is_admissible(d: Diagram, darts=None):
    """No nonzero nonnegative combination of non-suture faces may have
    constant multiplicity along every full curve; returns (flag, witness)
    where the witness maps faces to the coefficients of an offending
    domain, or None.  The multiplicities are read off the darts
    (``darts``: the diagram's ``darts.Darts`` build, if made), and the
    sparse rows, one per non-curve edge in id order and one per
    consecutive pair of segments along each curve, make the matrix once
    their zero entries and empty rows are dropped.
    """
    dx = Darts(d) if darts is None else darts
    cols = sorted(f.id for f in dx.faces if not f.suture)
    if not cols:
        return True, None
    col = {dx.index[f]: j for j, f in enumerate(cols)}  # face index -> column
    mult = {}  # edge -> {column: signed occurrence count}
    for e, i, s in zip(dx.edge, dx.face, dx.sign):
        j = col.get(i)
        if j is not None:
            row = mult.setdefault(e, {})
            row[j] = row.get(j, 0) + s
    rows = [mult[e] for e in sorted(mult) if d.edges[e].kind not in CURVE_KINDS]
    for family in CURVE_KINDS:
        for c in d.curves(family).values():
            segs = list(c.segments)
            pairs = list(zip(segs, segs[1:]))
            if c.closed and len(segs) > 1:
                pairs.append((segs[-1], segs[0]))
            for e1, e2 in pairs:
                row = dict(mult.get(e1, {}))
                for j, v in mult.get(e2, {}).items():
                    row[j] = row.get(j, 0) - v
                rows.append(row)
    rows = [{j: v for j, v in row.items() if v} for row in rows]
    rows = tuple(row for row in rows if row) or ({},)
    witness = positive_kernel_witness(IntegerMatrix(rows, len(cols)))
    if witness is None:
        return True, None
    return False, {cols[j]: w for j, w in enumerate(witness) if w}


# ---------------------------------------------------------------------------
# Spin^c partition


def spinc_partition(d: Diagram, gens: list, groups: list) -> dict:
    """Generator -> class index: ``_spinc_labels`` over vertex-id sets.
    ``gens`` is ``generators(d)`` and ``groups`` the face tuples of the
    non-suture regions, in the order of ``region_census(d)``."""
    verts = sorted(set().union(*gens))
    index = {v: i for i, v in enumerate(verts)}
    tuples = [tuple(map(index.__getitem__, x)) for x in gens]
    masks = [sum(1 << index[v] for v in x) for x in gens]
    return dict(zip(gens, _spinc_labels(d, groups, verts, tuples, masks)))


def _spinc_labels(d: Diagram, groups: list, verts: list, gens: list, masks: list) -> list:
    """The class index of each of ``gens``, tuples of indices into the
    crossings ``verts``, whose bit masks over ``verts`` are ``masks``.

    Two generators share a class exactly when the difference of their
    occupancy vectors, spread along the alpha family, is a boundary of
    non-suture regions (``groups``); classes are numbered by first
    appearance.  One ``cokernel_residue`` reduction gives each crossing
    a weight, and a key is the reduced sum of a generator's weights, each
    distinct sum reduced once.  At most one generator needs no Smith form.
    With at least 3 * 2^ceil(n/3) generators over n crossings the masks
    are summed by table (``_subset_sums``), else the tuples one by one.
    """
    if len(gens) <= 1:
        return [0] * len(gens)
    alpha_edges = {e for c in d.curves("alpha").values() for e in c.segments}
    ends = {v for e in alpha_edges for v in (d.edges[e].frm, d.edges[e].to)}
    vrow = {v: i for i, v in enumerate(sorted(ends))}
    rows = [{} for _ in vrow]
    for j, group in enumerate(groups):
        coeff = {}
        for f in group:
            for (e, s) in d.faces[f].word:
                if e in alpha_edges:
                    coeff[e] = coeff.get(e, 0) + s
        for e, c in coeff.items():
            ed = d.edges[e]
            for v, k in ((ed.to, c), (ed.frm, -c)):
                row = rows[vrow[v]]
                total = row.pop(j, 0) + k
                if total:
                    row[j] = total
    key = cokernel_residue(rows)
    weight = [key.weights[vrow[v]] for v in verts]
    if 3 << -(-len(verts) // 3) <= len(gens):
        sums = _subset_sums(weight, masks)
    else:
        sums = [sum(map(weight.__getitem__, t)) for t in gens]
    classes = {}
    label = {s: classes.setdefault(key.reduce(s), len(classes)) for s in dict.fromkeys(sums)}
    return list(map(label.__getitem__, sums))


def _subset_sums(weight: list, masks: list) -> list:
    """The sum of ``weight[i]`` over the bits i of each of ``masks``: the
    n weights split into three runs of w = ceil(n / 3), the sums of
    every subset of a run listed by doubling (2^w entries), and a mask's
    sum is three lookups, one per run.  It pays when 3 * 2^w is at most
    the number of masks (``_spinc_labels`` takes it only then)."""
    w = -(-len(weight) // 3)
    tables = []
    for k in range(3):
        table = [0]
        for x in weight[k * w:(k + 1) * w]:
            table += [s + x for s in table]
        tables.append(table)
    t0, t1, t2 = tables
    low, w2 = (1 << w) - 1, 2 * w
    return [t0[m & low] + t1[m >> w & low] + t2[m >> w2] for m in masks]


# ---------------------------------------------------------------------------
# the chain complex


@dataclass(frozen=True, slots=True)
class Homology:
    total: int
    by_class: dict  # class index -> rank


@dataclass
class ChainComplexF2:
    """A sutured chain complex over F2.

    ``differential`` builds it once per diagram, and homology, the handle
    maps and the glue routes take it instead of rebuilding it.  It keeps
    ``verts``, the crossings in vertex order; ``gens``, each generator as
    its unsorted tuple of indices into ``verts``, canonically ordered;
    ``masks``, each generator's bit mask over ``verts``, by which every
    reader matches generators (builders differ in their tuples' order);
    and the bit-packed columns of its ``BinaryMatrix``, column j being
    d(gens[j]) with bit i standing for gens[i].  ``diagram`` is the
    diagram it came from, or ``None`` for a complex built from tables:
    a box tensor product (``modules.box_tensor``), such as the staged
    route's join complexes and its stage H5, has no diagram, nor has
    the staged 1-handle target, the join's target with the block's
    generator cancelled (``glue._cancel_block_generator``).  ``darts``
    is the dart build its census read (the one its caller handed to
    ``differential``, if any), which the action census and the labels
    read again.

    ``labels`` (the Spin^c class of each generator), ``homology`` (the
    per-class ranks) and ``basis`` (the generators as vertex-id sets,
    which only the tests and the benchmark read) are views, each
    built on its first read and kept.  The labels come from the
    diagram's dart build; a complex built from tables has its generators
    in one class.
    """

    verts: list  # the crossings, in vertex order
    gens: list  # canonically ordered generators, as index tuples into verts, unsorted
    masks: list = field(repr=False)  # gens as bit masks over verts
    differential: BinaryMatrix  # bit i of column j: gens[i] appears in d(gens[j])
    diagram: Optional[Diagram]
    darts: object = field(default=None, repr=False, compare=False)  # the diagram's Darts

    @cached_property
    def labels(self) -> list:
        d, dx = self.diagram, self.darts
        if d is None:
            return [0] * len(self.gens)
        groups = [g for g in dx.region_groups if not d.faces[g[0]].suture]
        return _spinc_labels(d, groups, self.verts, self.gens, self.masks)

    @cached_property
    def homology(self) -> Homology:
        """Per-class mod-2 homology ranks.  The differential preserves
        the Spin^c classes, so each class block of ``m`` generators is a
        complex on its own, of rank ``m - 2 r`` where ``r`` is the rank
        of its differential: of its columns, whose bits must all lie in
        the block.  Only its nonzero columns are read."""
        blocks = {}
        for j, label in enumerate(self.labels):
            blocks.setdefault(label, []).append(j)
        columns, by_class = self.differential.columns, {}
        for label, block in sorted(blocks.items()):
            cols = [c for c in map(columns.__getitem__, block) if c]
            in_block = sum(1 << j for j in block) if cols else 0
            if any(c & ~in_block for c in cols):
                raise AssertionError("differential does not respect the class partition")
            by_class[label] = len(block) - 2 * f2_rank(cols)
        return Homology(sum(by_class.values()), by_class)

    @cached_property
    def basis(self) -> list:
        return _as_sets(self.verts, self.gens)


def as_complex(d, darts=None) -> ChainComplexF2:
    """``d`` itself when it is a complex, else ``differential(d, darts)``."""
    return d if isinstance(d, ChainComplexF2) else differential(d, darts)


def differential(d: Diagram, darts=None) -> ChainComplexF2:
    """The mod-2 boundary map counting bigon and rectangle regions, on
    generators as ints (see the module docstring).  Requires a nice,
    admissible diagram and rejects anything else.  ``darts``: the
    diagram's ``darts.Darts`` build, if made, and refused if of another."""
    if darts is not None and darts.d is not d:
        raise ValueError("the dart build is of another diagram")
    dx = Darts(d) if darts is None else darts
    census = region_census(d, dx)
    offenders = _not_nice_faces(census)
    if offenders:
        raise ValueError(f"diagram is not nice; offending faces: {offenders}")
    ok, witness = is_admissible(d, dx)
    if not ok:
        raise ValueError(f"diagram is not admissible; witness domain: {witness}")
    verts, gens = _matchings(d, dx.crossings)
    diff = BinaryMatrix(len(gens), _boundary_entries(verts, gens, census))
    return ChainComplexF2(verts, [t for t, _ in gens], [m for _, m in gens], diff, d, dx)


def _boundary_entries(verts: list, gens: list, census: list) -> tuple:
    """The differential's columns over ``_matchings``' ``verts`` and
    ``gens``: bit i of column j is set where ``gens[i]`` is in d(``gens[j]``).

    Each bigon and rectangle region of ``census`` is a move carrying a
    generator x that holds its x-corners X, and misses its y-corners Y
    and the crossings I inside it, to (x - X) | Y.  Equal moves cancel
    in pairs mod 2 first.  As masks a move is (X, K = X | Y | I, Y): x
    takes it when x & K == X, to x ^ X | Y, so one whose X meets Y or I
    never acts and is dropped.  Each generator visits only the moves
    anchored at the lowest bit of X among its crossings, and those
    without x-corners, kept in a last slot; none, when no move is left.
    """
    odd = set()
    for rec in census:
        if rec.shape in ("bigon", "rect"):
            odd ^= {(rec.moves_from, rec.moves_to, rec.interior)}
    bit = {v: 1 << i for i, v in enumerate(verts)}
    anchored = [[] for _ in range(len(verts) + 1)]  # the last: moves without x-corners
    for points in odd:
        X, Y, inside = (sum(map(bit.__getitem__, p)) for p in points)
        if not X & (Y | inside):  # (X & -X).bit_length() - 1 is -1 when X is 0
            anchored[(X & -X).bit_length() - 1].append((X, X | Y | inside, Y))
    if not any(anchored):
        return (0,) * len(gens)
    column_of = {m: 1 << j for j, (_, m) in enumerate(gens)}
    columns = []
    for t, x in gens:
        column = 0
        for i in t + (-1,):
            for X, K, Y in anchored[i]:
                if x & K == X:
                    column ^= column_of[x ^ X | Y]
        columns.append(column)
    return tuple(columns)


def homology(d) -> Homology:
    """Per-class mod-2 homology ranks of a diagram or its complex: the
    complex's ``homology`` view, so a complex is ranked once."""
    return as_complex(d).homology


# ---------------------------------------------------------------------------
# interface actions


@dataclass(frozen=True, slots=True)
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


def action_census(d: Diagram, darts=None) -> list:
    """All embedded quadrilaterals carried by interface chords.

    A chord joins two marked points of one interval; the quad picks up
    a set of non-suture faces whose union is a disk meeting the
    interface in exactly that chord, with the rest of its boundary an
    alternating beta-alpha-beta (or alpha-beta-alpha) walk.

    Candidates are the sets grown from the faces on the chord across
    shared edges, through faces whose boundary edges all lie on the
    chord.  Each is glued along the edges it holds on both sides and
    classified as the regions are (``_classify``); it is kept when it is
    a port on this chord with one x-corner and one y-corner.  No set
    is missed: an accepted set has one boundary cycle, so it is joined
    across shared edges, and a boundary edge lies on one face only, so
    one off the chord would sit on the cycle and break the chord run.
    ``darts``: the diagram's ``darts.Darts`` build, if made (the
    complex of ``d`` keeps the one its census read).
    """
    nonsuture = sorted(f for f, face in d.faces.items() if not face.suture)
    if d.interfaces and len(nonsuture) > 14:
        # Kept only as the benchmark's baseline: lifting it is ROADMAP item 1.
        raise ValueError(
            f"refusing a bordered census over {len(nonsuture)} non-suture faces (limit 14)"
        )
    dx = Darts(d) if darts is None else darts
    ids = [f.id for f in dx.faces]
    face, mate = dx.face, dx.mate
    interface = d.interface_edge_ids()
    rim, adjacent = {}, {}  # face -> its boundary edges, the faces across its edges
    for f in nonsuture:
        ks = dx.darts_of(dx.index[f])
        rim[f] = {dx.edge[k] for k in ks if dx.kind[k] == "boundary"}
        adjacent[f] = {ids[face[mate[k]]] for k in ks if mate[k] >= 0} - {f}
    out = []
    for k, iface in enumerate(d.interfaces):
        for t, interval in enumerate(iface.intervals):
            points = len(interval) - 1  # m+1 edges carry m marked points
            for i in range(points):
                for j in range(i + 1, points):
                    bd = tuple(interval[i + 1:j + 1])
                    chord = set(bd)
                    base = {ids[face[k]] for e in bd for k in dx.darts_on(e)}
                    if any(d.faces[f].suture or rim[f] - chord for f in base):
                        continue
                    allowed = {f for f in nonsuture if rim[f] <= chord}
                    for faces in _connected_supersets(base, allowed, adjacent):
                        faces = sorted(faces)
                        held = {dx.index[f] for f in faces}
                        glued = {k for f in faces for k in dx.darts_of(dx.index[f])
                                 if mate[k] >= 0 and face[mate[k]] in held}
                        rec = _classify(dx, faces, glued, interface)
                        if (rec.shape == "port" and rec.chord == bd
                                and len(rec.moves_from) == len(rec.moves_to) == 1):
                            (x_pt,), (y_pt,) = rec.moves_from, rec.moves_to
                            out.append(ActionRecord(
                                k, t, i, j, x_pt, y_pt, rec.faces, rec.interior
                            ))
    return sorted(
        out,
        key=lambda r: (r.interface, r.interval, r.start, r.end, r.faces),
    )
