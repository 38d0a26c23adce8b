"""Combinatorial sutured and bordered sutured Heegaard diagrams.

A diagram is a polygonal map: faces carry cyclic boundary words over
oriented edges, every interior edge is traversed once in each direction,
boundary edges once positively.  Edge kinds are "alpha", "beta",
"boundary" and "seam"; seams are interior non-curve edges used to encode
non-disk regions (slits), 1-handle feet and glued interface intervals.
Regions are faces merged across seams; all counting (niceness, suture
status, disk censuses) happens at region level, so no construction here
dissolves a seam.

Curves are ordered edge chains: closed curves are cycles, arcs end on
interface marked points.  Bordered diagrams additionally carry arc
interfaces: an arc diagram (intervals of matched points), the boundary
edges realizing each interval, and the assignment of arc indices to
diagram arcs.

Vertex links, regions and the cuts along each curve family are read
from a ``darts.Darts`` build and kept in no other form.  A 1-handle's
feet (``_foot_edges``) and parts (``one_handle_parts``) have one home
here, which ``glue`` uses too.  With ``built=True`` the constructors
return the ``Darts`` build their gate (``_check``) validated, whose
``d`` is the diagram.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import repeat

from .darts import Darts

CURVE_KINDS = ("alpha", "beta")
EDGE_KINDS = ("alpha", "beta", "boundary", "seam")


# ---------------------------------------------------------------------------
# data model


@dataclass(slots=True)
class Edge:
    id: str
    kind: str
    curve: str | None
    frm: str
    to: str

    def end(self, direction: int) -> str:
        return self.to if direction > 0 else self.frm

    def start(self, direction: int) -> str:
        return self.frm if direction > 0 else self.to


@dataclass(slots=True)
class Face:
    id: str
    word: list  # list of (edge_id, +1/-1)
    suture: bool


@dataclass(slots=True)
class Curve:
    id: str
    closed: bool
    segments: list  # edge ids, oriented along the traversal


@dataclass(slots=True)
class ArcDiagram:
    """Intervals of marked points with a 2-to-1 matching onto arcs."""

    intervals: list  # list of lists of point ids
    matching: dict  # point id -> arc index (int)
    kind: str  # which curve family carries the arcs in a diagram

    def points(self):
        return [p for iv in self.intervals for p in iv]

    def arcs(self) -> dict:
        """Arc index -> its marked points, in interval order (a repeated
        point counts once, where it first stands)."""
        out = {}
        for p in dict.fromkeys(self.points()):
            out.setdefault(self.matching[p], []).append(p)
        return out

    def copy(self) -> "ArcDiagram":
        return ArcDiagram([list(iv) for iv in self.intervals], dict(self.matching), self.kind)

    def mirrored(self) -> "ArcDiagram":
        """Role mirror: the arcs switch curve family."""
        out = self.copy()
        out.kind = "beta" if self.kind == "alpha" else "alpha"
        return out

    def validate(self) -> list:
        problems = []
        pts = self.points()
        if len(pts) != len(set(pts)):
            problems.append("arc diagram repeats a marked point")
        if self.kind not in CURVE_KINDS:
            problems.append(f"arc diagram kind {self.kind!r} invalid")
        if set(self.matching) != set(pts):
            problems.append("matching domain differs from the marked points")
            return problems
        by_arc = self.arcs()
        for a, ps in sorted(by_arc.items()):
            if len(ps) != 2:
                problems.append(f"arc {a} has {len(ps)} points (needs 2)")
        if problems:
            return problems
        # surgery on every matched pair must leave no closed component.
        # The segments between consecutive points, (interval, position),
        # are the nodes; surgery on (p, q) joins the segment left of p to
        # the one right of q and crosswise.  A segment that the walk from
        # the interval ends never reaches lies on a closed component.
        at = {p: (i, k) for i, iv in enumerate(self.intervals) for k, p in enumerate(iv)}
        links = {}
        for p, q in by_arc.values():
            for (i, k), (j, m) in ((at[p], at[q]), (at[q], at[p])):
                links.setdefault((i, k), []).append((j, m + 1))
                links.setdefault((j, m + 1), []).append((i, k))
        stack = [(i, k) for i, iv in enumerate(self.intervals) for k in {0, len(iv)}]
        seen = set(stack)
        while stack:
            for nxt in links.get(stack.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if len(seen) < sum(len(iv) + 1 for iv in self.intervals):
            problems.append("surgery on the matched pairs closes a component")
        return problems


@dataclass(slots=True)
class Interface:
    """One boundary interface: arc diagram + embedded intervals + arcs."""

    arc_diagram: ArcDiagram
    intervals: list  # list of lists of boundary edge ids, boundary order
    arcs: dict  # arc index -> curve id


@dataclass(slots=True)
class Diagram:
    vertices: set
    edges: dict  # id -> Edge
    faces: dict  # id -> Face
    alpha_curves: dict  # id -> Curve
    beta_curves: dict  # id -> Curve
    interfaces: list  # list of Interface
    eh: list = field(default_factory=list)  # tagged generator (vertex ids); [] = untagged
    marks: dict = field(default_factory=dict)  # name -> vertex id

    # -- basic accessors ----------------------------------------------------

    def curves(self, family=None):
        if family == "alpha":
            return self.alpha_curves
        if family == "beta":
            return self.beta_curves
        merged = dict(self.alpha_curves)
        merged.update(self.beta_curves)
        return merged

    def copy(self) -> "Diagram":
        return Diagram(
            set(self.vertices),
            {e: Edge(v.id, v.kind, v.curve, v.frm, v.to) for e, v in self.edges.items()},
            {f: Face(v.id, list(v.word), v.suture) for f, v in self.faces.items()},
            {c: Curve(v.id, v.closed, list(v.segments)) for c, v in self.alpha_curves.items()},
            {c: Curve(v.id, v.closed, list(v.segments)) for c, v in self.beta_curves.items()},
            [
                Interface(i.arc_diagram.copy(), [list(iv) for iv in i.intervals], dict(i.arcs))
                for i in self.interfaces
            ],
            list(self.eh),
            dict(self.marks),
        )

    def fresh_ids(self, prefix: str, count: int = 1) -> list:
        """The least ``count`` ids ``prefix`` + n, n = 0, 1, ..., that
        name no vertex, edge, face or curve."""
        out, n = [], 0
        while len(out) < count:
            name = f"{prefix}{n}"
            if not (name in self.vertices or name in self.edges or name in self.faces
                    or name in self.alpha_curves or name in self.beta_curves):
                out.append(name)
            n += 1
        return out

    def fresh_id(self, prefix: str) -> str:
        return self.fresh_ids(prefix)[0]

    def interface_edge_ids(self) -> set:
        out = set()
        for itf in self.interfaces:
            for iv in itf.intervals:
                out |= set(iv)
        return out

    def free_boundary_edge_ids(self) -> set:
        boundary = {e for e, ed in self.edges.items() if ed.kind == "boundary"}
        return boundary - self.interface_edge_ids()

    def marked_vertices(self) -> dict:
        """Interface marked points: point id -> vertex id.

        Point k of an interval is the shared vertex of edges k and k+1 of
        its embedded edge list.
        """
        out = {}
        for itf in self.interfaces:
            for pts, edges in zip(itf.arc_diagram.intervals, itf.intervals):
                for k, p in enumerate(pts):
                    out[p] = self.edges[edges[k]].to
        return out


# ---------------------------------------------------------------------------
# derived structure: regions


def regions(d: Diagram) -> list:
    """Faces merged across seam edges; returns lists of face ids."""
    return Darts(d).region_groups


# ---------------------------------------------------------------------------
# validation


def validate(d: Diagram, *, set_flags: bool = False, darts=None) -> list:
    """All structural invariants; returns a list of problem strings.

    Every check after the edge checks reads one ``Darts`` build
    (``darts``, if made): the usage counts and word breaks, the link
    walk, which also chains the boundary circles, the intersection
    vertices (the tails of both curve families' sides), and the regions
    and family cuts as union-finds over face indices.  It writes nothing,
    unless ``set_flags`` has it set the suture flags from the regions
    first: a region is a suture region when it touches a free
    (non-interface) boundary edge.  The flag check still runs.
    """
    problems = []
    ids = list(d.edges) + list(d.faces) + list(d.alpha_curves) + list(d.beta_curves)
    if len(ids) != len(set(ids)):
        problems.append("duplicate ids across edges/faces/curves")

    # edge kinds, ends and curve ids, edge by edge in id order only when
    # the one pass over the kinds finds a fault
    boundary, curve_edges, sound, vertices = [], [], True, d.vertices
    for e, ed in d.edges.items():
        if ed.kind == "boundary":
            boundary.append(e)
        if ed.kind in CURVE_KINDS:
            curve_edges.append(e)
            if ed.curve is None:
                sound = False
        elif ed.curve is not None or ed.kind not in EDGE_KINDS:
            sound = False
        if ed.frm not in vertices or ed.to not in vertices:
            sound = False
    boundary.sort()
    for e, ed in [] if sound else sorted(d.edges.items()):
        if ed.kind not in EDGE_KINDS:
            problems.append(f"edge {e} has unknown kind {ed.kind!r}")
        if ed.frm not in d.vertices or ed.to not in d.vertices:
            problems.append(f"edge {e} references a missing vertex")
        if ed.kind in CURVE_KINDS and ed.curve is None:
            problems.append(f"curve edge {e} lacks a curve id")
        if ed.kind not in CURVE_KINDS and ed.curve is not None:
            problems.append(f"non-curve edge {e} carries a curve id")

    # usage counts and signs (a word holds directions +1 and -1); face
    # words connect head to tail, reported after the counts
    dx = Darts(d) if darts is None else darts
    sign, face, first = dx.sign, dx.face, dx.first
    problems += [f"face {f} references missing edge {e}" for f, e in dx.missing]
    once = (  # every interior edge paired, every boundary edge once +
        not dx.missing and dx.sides is None and len(first) == len(d.edges)
        and len(dx.pairs) == len(d.edges) - len(boundary)
        and dx.kind.count("boundary") == len(boundary)
        and all(sign[first[e]] > 0 for e in boundary)
    )
    for e, ed in [] if once else sorted(d.edges.items()):
        signs = sorted(sign[k] for k in dx.darts_on(e))
        if ed.kind == "boundary" and signs != [1]:
            problems.append(f"boundary edge {e} used {signs}, expected once +")
        elif ed.kind != "boundary" and signs != [-1, 1]:
            problems.append(f"interior edge {e} used {signs}, expected once each way")
    problems += dx.breaks

    # every curve segment and interface edge resolves
    for c in d.curves().values():
        if not c.segments:
            problems.append(f"curve {c.id} has no segments")
        for e in c.segments:
            if e not in d.edges:
                problems.append(f"curve {c.id} references missing edge {e}")
    for k, itf in enumerate(d.interfaces):
        problems += [f"interface {k}: {p}" for p in itf.arc_diagram.validate()]
        if len(itf.intervals) != len(itf.arc_diagram.intervals):
            problems.append(f"interface {k}: interval count mismatch")
        for pts, edges in zip(itf.arc_diagram.intervals, itf.intervals):
            if len(edges) != len(pts) + 1:
                problems.append(f"interface {k}: interval needs {len(pts)+1} edges")
            for e in edges:
                if e not in d.edges or d.edges[e].kind != "boundary":
                    problems.append(f"interface {k}: {e} is not a boundary edge")

    if problems:
        return problems  # the link walk needs a coherent complex

    # vertex links are single fans (manifold condition); the crossing
    # check below reads the links of the intersection vertices
    corner_at, twice = {}, []  # vertex -> the corner its link starts at
    for k in dx.orbits():
        if corner_at.setdefault(dx.tail[k], k) != k:
            twice.append(dx.tail[k])
    if twice:
        return problems + [f"vertex {min(twice)} has a disconnected link"]

    # regions and whether they touch free boundary (the suture flags)
    root = dx.regions
    near_free = {root[face[first[e]]] for e in set(boundary) - d.interface_edge_ids()}
    touches = [r in near_free for r in root]
    if set_flags:
        for f, t in zip(dx.faces, touches):
            f.suture = t

    # every boundary circle carries at least one suture side.  With one
    # link per vertex the boundary cannot branch: the side after a
    # boundary side j ends the link's chain from the corner after j.
    seen, nxt, mate, tail, kind = set(), dx.nxt, dx.mate, dx.tail, dx.kind
    for start in boundary:
        e, sides = start, []  # the suture flags along the circle
        while e not in seen:
            seen.add(e)
            sides.append(dx.faces[face[first[e]]].suture)
            k = nxt[first[e]]
            while mate[k] >= 0:
                k = nxt[mate[k]]
            e = dx.edge[k]
        if sides and not any(sides):
            problems.append(f"boundary circle through {start} has no suture side")

    # curves
    marked = d.marked_vertices()
    marked_at = set(marked.values())
    seg_owner = {}
    for family in CURVE_KINDS:
        for c in d.curves(family).values():
            eds = [d.edges[e] for e in c.segments]
            for e, ed in zip(c.segments, eds):
                if ed.kind != family or ed.curve != c.id:
                    problems.append(f"edge {e} mislabeled for curve {c.id}")
                if e in seg_owner:
                    problems.append(f"edge {e} appears in two curves")
                seg_owner[e] = c.id
            for e1, e2, ed1, ed2 in zip(c.segments, c.segments[1:], eds, eds[1:]):
                if ed1.to != ed2.frm:
                    problems.append(f"curve {c.id} breaks between {e1} and {e2}")
            if c.closed:
                if eds[-1].to != eds[0].frm:
                    problems.append(f"closed curve {c.id} does not close")
            else:
                for v in (eds[0].frm, eds[-1].to):
                    if v not in marked_at:
                        problems.append(f"arc {c.id} ends at unmarked vertex {v}")
    problems += [f"curve edge {e} belongs to no curve" for e in curve_edges if e not in seg_owner]

    # intersection vertices: degree four, alternating families, read
    # around the link from its least corner.  Every curve edge is
    # interior and used both ways, so both its ends are tails.
    alpha_at = {v for v, kd in zip(tail, kind) if kd == "alpha"}
    for v in sorted(alpha_at.intersection([v for v, kd in zip(tail, kind) if kd == "beta"])):
        ring, is_open = dx.walk(corner_at[v])
        fams = [kind[k] for k in ring]  # the incoming sides' kinds, shifted
        if is_open or not all(f in CURVE_KINDS for f in fams):
            continue  # on the boundary, or mixed with seams: not a crossing
        if len(fams) != 4:
            problems.append(f"intersection vertex {v} has degree {len(fams)}")
        elif fams[0] == fams[1] or fams[1] == fams[2] or fams[2] == fams[3]:
            k = min(ring, key=dx._corner)
            if kind[dx._prv(k)] == kind[k]:
                problems.append(f"intersection vertex {v} is not alternating")

    # balanced (only meaningful once every interface has been glued up;
    # a bordered piece may carry spare closed curves on either side)
    if not d.interfaces:
        na = sum(1 for c in d.alpha_curves.values() if c.closed)
        nb = sum(1 for c in d.beta_curves.values() if c.closed)
        if na != nb:
            problems.append(f"unbalanced diagram: {na} closed alpha vs {nb} closed beta")

    # suture flags match region contact with free boundary, reported
    # region by region
    if any(f.suture != t for f, t in zip(dx.faces, touches)):
        touch = {f.id: t for f, t in zip(dx.faces, touches)}
        for group in dx.groups(root):
            for f in group:
                if d.faces[f].suture != touch[f]:
                    problems.append(
                        f"face {f} suture flag {d.faces[f].suture} but region "
                        f"{'touches' if touch[f] else 'avoids'} free boundary"
                    )

    # interfaces
    all_interval_edges = []
    for k, itf in enumerate(d.interfaces):
        for edges in itf.intervals:
            all_interval_edges += edges
            for e1, e2 in zip(edges, edges[1:]):
                if d.edges[e1].to != d.edges[e2].frm:
                    problems.append(f"interface {k}: interval breaks at {e2}")
        arcs_by_index = itf.arc_diagram.arcs()
        if set(itf.arcs) != set(arcs_by_index):
            problems.append(f"interface {k}: arc assignment indices mismatch")
            continue
        for a, curve_id in sorted(itf.arcs.items()):
            fam = itf.arc_diagram.kind
            if curve_id not in d.curves(fam):
                problems.append(f"interface {k}: arc {a} names missing {fam} {curve_id}")
                continue
            c = d.curves(fam)[curve_id]
            if c.closed:
                problems.append(f"interface {k}: arc {a} names closed curve {curve_id}")
                continue
            ends = {d.edges[c.segments[0]].frm, d.edges[c.segments[-1]].to}
            want = {marked[p] for p in arcs_by_index[a]}
            if ends != want:
                problems.append(f"interface {k}: arc {a} endpoints mismatch")
    if len(all_interval_edges) != len(set(all_interval_edges)):
        problems.append("interface intervals overlap")

    # arcs all assigned to some interface
    assigned = {cid for itf in d.interfaces for cid in itf.arcs.values()}
    for family in CURVE_KINDS:
        for c in d.curves(family).values():
            if not c.closed and c.id not in assigned:
                problems.append(f"arc {c.id} not assigned to any interface")

    # diagram condition: components cut along one family reach allowed boundary
    for family in CURVE_KINDS:
        fam_interface_edges = {
            e
            for itf in d.interfaces
            if itf.arc_diagram.kind == family
            for iv in itf.intervals
            for e in iv
        }
        # the cut glues across seams and the other family: the regions,
        # merged further
        cut = dx.join(("beta" if family == "alpha" else "alpha",), root)
        reach = {cut[face[first[e]]] for e in boundary if e not in fam_interface_edges}
        for _ in range(len(set(cut)) - len(reach)):
            problems.append(f"a component cut along {family} avoids the free boundary")

    # tags
    for v in d.eh:
        if v not in d.vertices:
            problems.append(f"eh tag names missing vertex {v}")
    for name, v in sorted(d.marks.items()):
        if v not in d.vertices:
            problems.append(f"mark {name} names missing vertex {v}")

    return problems


# ---------------------------------------------------------------------------
# JSON serialization


def to_json_dict(d: Diagram) -> dict:
    return {
        "vertices": sorted(d.vertices),
        "edges": [
            {"id": e.id, "kind": e.kind, "curve": e.curve, "from": e.frm, "to": e.to}
            for e in d.edges.values()
        ],
        "faces": [
            {
                "id": f.id,
                "boundary": [[e, "+" if s > 0 else "-"] for (e, s) in f.word],
                "suture": f.suture,
            }
            for f in d.faces.values()
        ],
        "alpha_curves": [
            {"id": c.id, "closed": c.closed, "segments": list(c.segments)}
            for c in d.alpha_curves.values()
        ],
        "beta_curves": [
            {"id": c.id, "closed": c.closed, "segments": list(c.segments)}
            for c in d.beta_curves.values()
        ],
        "arc_interfaces": [
            {
                "arc_diagram": {
                    "intervals": [list(iv) for iv in i.arc_diagram.intervals],
                    "matching": {p: a for p, a in sorted(i.arc_diagram.matching.items())},
                    "kind": i.arc_diagram.kind,
                },
                "intervals": [list(iv) for iv in i.intervals],
                "arcs": {str(a): c for a, c in sorted(i.arcs.items())},
            }
            for i in d.interfaces
        ],
        "tags": {"eh": list(d.eh), "marks": {k: v for k, v in sorted(d.marks.items())}},
    }


def _by_id(pool: str, items) -> dict:
    """id -> item; a repeated id refuses the document."""
    out = {}
    for x in items:
        if out.setdefault(x.id, x) is not x:
            raise ValueError(f"duplicate {pool} id {x.id}")
    return out


def _flag(x) -> bool:
    if not isinstance(x, bool):
        raise TypeError(f"suture and closed flags must be booleans, not {x!r}")
    return x


def _side(entry) -> tuple:
    """A face's ``boundary`` entry ``[edge, "+" or "-"]`` as ``(edge, ±1)``."""
    if not isinstance(entry, list) or len(entry) != 2:
        raise TypeError(f"boundary entries must be [edge, sign] pairs, not {entry!r}")
    if entry[1] not in ("+", "-"):
        raise TypeError(f"boundary signs must be '+' or '-', not {entry[1]!r}")
    return entry[0], 1 if entry[1] == "+" else -1


def _arc_index(a) -> int:
    """A ``matching`` value: an int, and not a bool."""
    if type(a) is not int:
        raise TypeError(f"matching values must be ints, not {a!r}")
    return a


def _arc_key(k: str) -> int:
    """An ``arcs`` key: the decimal form of an int."""
    try:
        if str(int(k)) == k:
            return int(k)
    except (TypeError, ValueError):
        pass
    raise TypeError(f"arcs keys must be decimal ints, not {k!r}")


def _json(field: str, x, kind: type = list):
    """A copy of ``x``, which the schema gives as a JSON list (``kind``
    ``list``) or object (``dict``)."""
    if not isinstance(x, kind):
        raise TypeError(f"{field} must be a {kind.__name__}, not a {type(x).__name__}")
    return kind(x)


def from_json_dict(data: dict) -> Diagram:
    data = _json("document", data, dict)
    edges = _by_id("edge", (
        Edge(e["id"], e["kind"], e.get("curve"), e["from"], e["to"])
        for e in _json("edges", data["edges"])
    ))
    faces = _by_id("face", (
        Face(f["id"], [_side(x) for x in _json("boundary", f["boundary"])], _flag(f["suture"]))
        for f in _json("faces", data["faces"])
    ))
    mk = lambda pool, key: _by_id(pool, (  # noqa: E731
        Curve(c["id"], _flag(c["closed"]), _json("segments", c["segments"]))
        for c in _json(key, data[key])
    ))
    intervals = lambda field, ivs: [_json(field, iv) for iv in _json(field, ivs)]  # noqa: E731
    interfaces = [
        Interface(
            ArcDiagram(
                intervals("arc_diagram intervals", i["arc_diagram"]["intervals"]),
                {p: _arc_index(a) for p, a in i["arc_diagram"]["matching"].items()},
                i["arc_diagram"]["kind"],
            ),
            intervals("interface intervals", i["intervals"]),
            {_arc_key(a): c for a, c in i["arcs"].items()},
        )
        for i in _json("arc_interfaces", data.get("arc_interfaces", []))
    ]
    tags = _json("tags", data.get("tags", {}), dict)
    d = Diagram(
        set(_json("vertices", data["vertices"])),
        edges,
        faces,
        mk("alpha curve", "alpha_curves"),
        mk("beta curve", "beta_curves"),
        interfaces,
        _json("eh", tags.get("eh", [])),
        _json("marks", tags.get("marks", {}), dict),
    )
    names = [*d.vertices, *d.faces, *d.curves(), *d.eh, *d.marks.values()]
    names += [x for ed in d.edges.values() for x in (ed.id, ed.kind, ed.frm, ed.to)]
    names += [e for f in d.faces.values() for (e, _s) in f.word]
    names += [e for c in d.curves().values() for e in c.segments]
    for i in d.interfaces:
        names += [x for iv in i.intervals + i.arc_diagram.intervals for x in iv]
        names += [i.arc_diagram.kind, *i.arcs.values()]
    if not all(map(isinstance, names, repeat(str))):
        raise TypeError("ids and references must be strings")
    return d


def serialize(d: Diagram) -> str:
    return json.dumps(to_json_dict(d), sort_keys=True, indent=1) + "\n"


def parse(text: str) -> Diagram:
    try:
        return from_json_dict(json.loads(text))
    except RecursionError:
        raise ValueError("document nests too deeply") from None
    except (KeyError, TypeError, AttributeError) as err:
        raise ValueError(f"malformed diagram document: {err!r}") from err


# ---------------------------------------------------------------------------
# local edits: subdivision, chord insertion


def _check(d: Diagram, built: bool = False):
    """``d``, or with ``built`` the ``Darts`` build it validated on, if it
    validates once its suture flags are set (see ``validate``)."""
    dx = Darts(d)
    problems = validate(d, set_flags=True, darts=dx)
    if problems:
        raise ValueError("invalid diagram: " + "; ".join(problems))
    return dx if built else d


def subdivide_edge(d: Diagram, eid: str, k: int = 1) -> tuple:
    """Split an edge at ``k`` fresh vertices, the least free ``w`` ids
    (see ``fresh_ids``), into ``k + 1`` pieces in the edge's direction;
    returns the pieces, then the vertices, in order.

    This is the one split primitive: one interface check, one ``w``
    scan, one pass over the face words and one over the curve's
    segments.  Ids, the order of ``d.edges``, the words and the
    segments come out as from ``k`` splits at one vertex each, every
    one of the last piece: a split of ``p`` names its two pieces
    ``fresh_ids(f"{p}.", 2)``.
    """
    if eid in d.interface_edge_ids():
        raise ValueError(f"cannot subdivide interface edge {eid}")
    ed = d.edges.pop(eid)
    ws = d.fresh_ids("w", k)
    d.vertices.update(ws)
    pieces, last, frm = [], eid, ed.frm
    for w in ws:
        first, last = d.fresh_ids(f"{last}.", 2)
        d.edges[first] = Edge(first, ed.kind, ed.curve, frm, w)
        pieces.append(first)
        frm = w
    d.edges[last] = Edge(last, ed.kind, ed.curve, frm, ed.to)
    pieces.append(last)
    sides = {1: [(e, 1) for e in pieces], -1: [(e, -1) for e in reversed(pieces)]}
    for f in d.faces.values():
        if (eid, 1) in f.word or (eid, -1) in f.word:
            word = []
            for x in f.word:
                if x[0] == eid:
                    word += sides[x[1]]
                else:
                    word.append(x)
            f.word = word
    if ed.curve is not None:
        c = d.curves(ed.kind)[ed.curve]
        c.segments = [x for e in c.segments for x in (pieces if e == eid else [e])]
    return (*pieces, *ws)


def _corner_positions(d: Diagram, face_id: str, v: str):
    """The positions in the face's word whose side starts at ``v``."""
    edges = d.edges
    return [i for i, (e, s) in enumerate(d.faces[face_id].word)
            if (edges[e].frm if s > 0 else edges[e].to) == v]


def split_face_by_chord(d: Diagram, face_id, pos1, pos2, edge_id, kind, curve):
    """Cut a face along a new edge between the corners at pos1 and pos2."""
    face = d.faces.pop(face_id)
    word = face.word
    n = len(word)
    v1 = d.edges[word[pos1][0]].start(word[pos1][1])
    v2 = d.edges[word[pos2][0]].start(word[pos2][1])
    d.edges[edge_id] = Edge(edge_id, kind, curve, v1, v2)
    turned = word[pos2:] + word[:pos2]  # the word rotated once, to start at pos2
    m = (pos1 - pos2) % n
    slice1, slice2 = turned[:m], turned[m:m + (pos2 - pos1) % n]
    fa, fb = d.fresh_ids("f", 2)
    d.faces[fa] = Face(fa, [(edge_id, 1)] + slice1, face.suture)
    d.faces[fb] = Face(fb, [(edge_id, -1)] + slice2, face.suture)
    return fa, fb


def _route_and_insert_chord(d, pieces, face_id, v1, v2, family, curve_id, crossing_curves, crossings_out):
    """Insert a curve chord from v1 to v2 inside the pieces of one face.

    ``pieces`` maps each face id named so far to the faces the inserted
    chords have cut it into; this face starts as its own one piece.
    The route is searched breadth first from the piece at v1 to the
    piece at v2, across previously inserted chords of the curves in
    crossing_curves (the pieces of a disk face form a tree, so the route
    is unique).  Each chord crossed is subdivided at a fresh intersection
    vertex, in route order, which is appended to crossings_out, and the
    chord runs through the route's pieces, one segment in each: a fresh
    vertex is a corner only of the two pieces on its crossed chord and
    the route visits no piece twice, so segment k's ends meet in route
    piece k alone.  Returns the new edge ids in order.
    """
    piece_set = pieces.setdefault(face_id, {face_id})

    def piece_with(v):
        hits = []
        for f in sorted(piece_set):
            for i in _corner_positions(d, f, v):
                hits.append((f, i))
        if len(hits) != 1:
            raise ValueError(f"vertex {v} is not an unambiguous corner ({hits})")
        return hits[0]

    start, _ = piece_with(v1)
    goal, _ = piece_with(v2)
    crossable = {e for c in crossing_curves for e in c.segments}
    prev = {start: None}
    queue = [start]
    while queue and goal not in prev:
        cur = queue.pop(0)
        for (e, s) in d.faces[cur].word:
            if e not in crossable:
                continue
            for f in sorted(piece_set):
                if f == cur:
                    continue
                if any(ee == e for (ee, _ss) in d.faces[f].word) and f not in prev:
                    prev[f] = (cur, e)
                    queue.append(f)
    if goal not in prev:
        raise ValueError(f"no route between {v1} and {v2}")
    route, hops = [goal], []
    while prev[route[-1]] is not None:
        cur, e = prev[route[-1]]
        route.append(cur)
        hops.append(e)
    ws = [subdivide_edge(d, e)[2] for e in reversed(hops)]
    crossings_out.extend(ws)
    chain = [v1, *ws, v2]
    new_edges = []
    for f, wa, wb in zip(reversed(route), chain, chain[1:]):
        pa = _corner_positions(d, f, wa)
        pb = _corner_positions(d, f, wb)
        if len(pa) != 1 or len(pb) != 1:
            raise ValueError(f"repeated corner for chord {wa}->{wb}")
        eid = d.fresh_id(f"{curve_id}.")
        piece_set.remove(f)
        piece_set.update(split_face_by_chord(d, f, pa[0], pb[0], eid, family, curve_id))
        new_edges.append(eid)
    return new_edges


def _route_path(d, pieces, path, v_start, v_end, family, curve_id, crossing_curves,
                crossings_out, close_in=None):
    """Insert a curve along a transverse path from v_start to v_end.

    Each crossed edge is subdivided at a fresh waypoint, in path order,
    and a chord is routed through each face of the path between its
    waypoints; when ``close_in`` names a face, a last chord runs back
    from v_end to v_start inside it, closing the curve up.  The other
    arguments are ``_route_and_insert_chord``'s.  Returns the new edge
    ids in order.
    """
    waypoints = [v_start]
    for e in path.crossed():
        waypoints.append(subdivide_edge(d, e)[2])
    waypoints.append(v_end)
    segs = []
    for f, wa, wb in zip(path.faces(), waypoints, waypoints[1:]):
        segs += _route_and_insert_chord(
            d, pieces, f, wa, wb, family, curve_id, crossing_curves, crossings_out
        )
    if close_in is not None:
        segs += _route_and_insert_chord(
            d, pieces, close_in, v_end, v_start, family, curve_id, crossing_curves,
            crossings_out,
        )
    return segs


def _put_mark(d: Diagram, stem: str, v: str) -> None:
    """Mark ``v`` as ``stem``, or as ``stem_1``, ``stem_2``, ... if taken."""
    name, n = stem, 0
    while name in d.marks:
        n += 1
        name = f"{stem}_{n}"
    d.marks[name] = v


# ---------------------------------------------------------------------------
# handle attachments


@dataclass(slots=True)
class TransversePath:
    """A transverse path: alternating face and edge ids, starting and
    ending with the faces containing the two handle feet."""

    items: list

    def faces(self):
        return self.items[0::2]

    def crossed(self):
        return self.items[1::2]


def _require_free_suture_edge(d: Diagram, eid: str) -> None:
    ed = d.edges.get(eid)
    if ed is None or ed.kind != "boundary" or eid in d.interface_edge_ids():
        raise ValueError(f"{eid} is not a free boundary edge")
    for f in d.faces.values():
        if ((eid, 1) in f.word or (eid, -1) in f.word) and not f.suture:
            raise ValueError(f"{eid} does not bound a suture region")


def _make_foot(d: Diagram, eid: str) -> dict:
    left, seam, right, v1, v2 = subdivide_edge(d, eid, 2)
    d.edges[seam].kind = "seam"
    return {"left": left, "seam": seam, "right": right, "v1": v1, "v2": v2}


def _foot_edges(d: Diagram, p: str, q: str) -> tuple:
    """The two edges that carry a handle's feet on the free suture edges
    ``p`` and ``q``; one edge given twice is subdivided into two."""
    _require_free_suture_edge(d, p)
    if p == q:
        return subdivide_edge(d, p)[:2]
    _require_free_suture_edge(d, q)
    return p, q


def _attach_one_handle(d: Diagram, p: str, q: str):
    p, q = _foot_edges(d, p, q)
    fp = _make_foot(d, p)
    fq = _make_foot(d, q)
    s1, s2 = d.fresh_ids("s", 2)
    d.edges[s1] = Edge(s1, "boundary", None, fp["v1"], fq["v2"])
    d.edges[s2] = Edge(s2, "boundary", None, fq["v1"], fp["v2"])
    strip = d.fresh_id("f")
    d.faces[strip] = Face(
        strip,
        [(fp["seam"], -1), (s1, 1), (fq["seam"], -1), (s2, 1)],
        True,
    )
    return {"p": fp, "q": fq, "s1": s1, "s2": s2, "strip": strip}


def attach_one_handle(d: Diagram, p: str, q: str, *, built: bool = False):
    """Attach a 1-handle with feet on the free suture edges p and q.

    Each foot replaces the middle of its edge by a seam; the strip face
    between the two seams is a new suture region with two free sides.
    """
    return one_handle_parts(d, p, q, built=built)[0]


def one_handle_parts(d: Diagram, p: str, q: str, *, built: bool = False) -> tuple:
    """``attach_one_handle`` with the handle's part ids: (diagram,
    {"p": foot, "q": foot, "s1", "s2": strip sides, "strip": face}), each
    foot {"left", "seam", "right": edges, "v1", "v2": vertices}."""
    out = d.copy()
    handle = _attach_one_handle(out, p, q)
    return _check(out, built=built), handle


def _subdivide_ports(d: Diagram, handle: dict, order_p, order_q) -> tuple:
    """Two port vertices on each foot seam of the 1-handle ``handle``,
    at p, then at q, named by the order of each foot."""
    *_pieces, u1, u2 = subdivide_edge(d, handle["p"]["seam"], 2)
    *_pieces, x1, x2 = subdivide_edge(d, handle["q"]["seam"], 2)
    return {order_p[0]: u1, order_p[1]: u2}, {order_q[0]: x1, order_q[1]: x2}


def _face_carrying(d: Diagram, eid: str):
    """The first face whose word carries the edge ``eid``, or None."""
    return next(
        (f for f, face in d.faces.items() if (eid, 1) in face.word or (eid, -1) in face.word),
        None,
    )


def _check_two_handle_paths(d: Diagram, p: str, q: str, a_path, b_path) -> None:
    """Both paths cross non-boundary edges of ``d``, no edge twice, and
    run from the face at the foot ``p`` to the face at the foot ``q``."""
    for path in (a_path, b_path):
        for e in path.crossed():
            ed = d.edges.get(e)
            if ed is None or ed.kind == "boundary":
                raise ValueError(f"path cannot cross {e}")
        for f in path.faces():
            if f not in d.faces:
                raise ValueError(f"path names missing face {f}")
        if len(set(path.crossed())) != len(path.crossed()):
            raise ValueError("a path must cross each edge at most once")
    if set(a_path.crossed()) & set(b_path.crossed()):
        raise ValueError("the two paths must cross distinct edges")
    ends = []
    for foot in (p, q):
        face = _face_carrying(d, foot)
        if face is None:
            raise ValueError(f"no face carries the foot {foot}")
        ends.append(face)
    for path in (a_path, b_path):
        if [path.faces()[0], path.faces()[-1]] != ends:
            raise ValueError("paths must run from the face at p to the face at q")


def attach_two_handle(
    d: Diagram,
    p: str,
    q: str,
    a_path: TransversePath,
    b_path: TransversePath,
    port_order_p=("b", "a"),
    port_order_q=("b", "a"),
    *, built: bool = False,
):
    """Attach a 2-handle along a curve through the suture points p, q.

    The attaching curve is split by the feet into the two declared
    transverse paths; a 1-handle strip joins the feet and each path is
    closed up through the strip into a new closed curve (beta along
    b_path, alpha along a_path).  The two new curves intersect exactly
    once; that point is returned alongside the diagram.
    """
    out = d.copy()
    x0 = _attach_two_handle(out, p, q, a_path, b_path, port_order_p, port_order_q)
    return _check(out, built=built), x0


def _attach_two_handle(out: Diagram, p, q, a_path, b_path, port_order_p, port_order_q) -> str:
    """``attach_two_handle`` on ``out`` itself, ungated; returns the crossing."""
    _check_two_handle_paths(out, p, q, a_path, b_path)
    handle = _attach_one_handle(out, p, q)
    ports_p, ports_q = _subdivide_ports(out, handle, port_order_p, port_order_q)

    pieces = {}
    strip = handle["strip"]
    beta_id = out.fresh_id("B")
    alpha_id = out.fresh_id("A")
    crossings = []
    beta_segs = _route_path(
        out, pieces, b_path, ports_p["b"], ports_q["b"], "beta", beta_id, [],
        crossings, close_in=strip,
    )
    out.beta_curves[beta_id] = Curve(beta_id, True, beta_segs)
    assert not crossings
    alpha_segs = _route_path(
        out, pieces, a_path, ports_p["a"], ports_q["a"], "alpha", alpha_id,
        [out.beta_curves[beta_id]], crossings, close_in=strip,
    )
    out.alpha_curves[alpha_id] = Curve(alpha_id, True, alpha_segs)
    if len(crossings) != 1:
        raise ValueError(
            f"paths are not disjoint: {len(crossings)} forced crossings"
        )
    _put_mark(out, "x0", crossings[0])
    return crossings[0]


def attach_trivial_bypass(d: Diagram, site: str, sign: str, *, built: bool = False):
    """Attach a trivial bypass along the free suture edge `site`.

    This is literally a 1-handle attachment followed by a 2-handle whose
    attaching paths stay inside the new strip's collar; the sign picks
    which side of the strip the single forced intersection lands on.
    """
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    out = d.copy()
    handle = _attach_one_handle(out, site, site)
    face_site = _face_carrying(out, handle["p"]["right"])
    a_path = TransversePath([face_site, handle["p"]["seam"], handle["strip"]])
    b_path = TransversePath([face_site, handle["q"]["seam"], handle["strip"]])
    port_q = ("a", "b") if sign == "+" else ("b", "a")
    x0 = _attach_two_handle(
        out, handle["p"]["right"], handle["s1"], a_path, b_path, ("a", "b"), port_q
    )
    return _check(out, built=built), x0


# ---------------------------------------------------------------------------
# bordered concatenation


def _renamed(d: Diagram, new: dict) -> Diagram:
    """A copy of ``d`` with every vertex, edge, face and curve id ``x``
    renamed ``new[x]``."""
    curves = [
        {new[c]: Curve(new[c], cv.closed, [new[e] for e in cv.segments]) for c, cv in store.items()}
        for store in (d.alpha_curves, d.beta_curves)
    ]
    return Diagram(
        {new[v] for v in d.vertices},
        {
            new[e]: Edge(new[e], ed.kind, None if ed.curve is None else new[ed.curve], new[ed.frm], new[ed.to])
            for e, ed in d.edges.items()
        },
        {
            new[f]: Face(new[f], [(new[e], s) for (e, s) in face.word], face.suture)
            for f, face in d.faces.items()
        },
        *curves,
        [
            Interface(
                i.arc_diagram.copy(),
                [[new[e] for e in iv] for iv in i.intervals],
                {a: new[c] for a, c in i.arcs.items()},
            )
            for i in d.interfaces
        ],
        [new[v] for v in d.eh],
        {k: new[v] for k, v in d.marks.items()},
    )


def _prefix_diagram(d: Diagram, tag: str) -> Diagram:
    """A copy of ``d`` with ``tag`` before every vertex, edge, face and
    curve id."""
    pools = (d.vertices, d.edges, d.faces, d.alpha_curves, d.beta_curves)
    return _renamed(d, {x: f"{tag}{x}" for pool in pools for x in pool})


def _interface_arc_bijection(z1: ArcDiagram, z2: ArcDiagram) -> dict:
    """Arc-index map induced by identifying z2 with z1 reversed."""
    if z1.kind != z2.kind:
        raise ValueError("interfaces carry different curve families")
    if [len(iv) for iv in z1.intervals] != [len(iv) for iv in z2.intervals]:
        raise ValueError("interval shapes do not match")
    arc_map = {}
    for iv1, iv2 in zip(z1.intervals, z2.intervals):
        for r, p in enumerate(iv1):
            p2 = iv2[len(iv2) - 1 - r]
            a1, a2 = z1.matching[p], z2.matching[p2]
            if arc_map.setdefault(a1, a2) != a2:
                raise ValueError("matchings are incompatible")
    if len(set(arc_map.values())) != len(arc_map):
        raise ValueError("matchings are incompatible")
    return arc_map


def concatenate_bordered(b1: Diagram, b2: Diagram):
    """Glue the first interface of b1 to the first interface of b2.

    The interval edges identify in reversed order and become seams, the
    marked points merge, and matched arcs fuse into closed curves.  The
    pieces' ids get the prefixes ``L:`` and ``R:``; their marks keep
    their names, b2's through ``_put_mark`` (a name b1 has gets the next
    free suffix).
    """
    arc_map = _interface_arc_bijection(b1.interfaces[0].arc_diagram, b2.interfaces[0].arc_diagram)
    left = _prefix_diagram(b1, "L:")
    right = _prefix_diagram(b2, "R:")
    il = left.interfaces.pop(0)
    ir = right.interfaces.pop(0)

    out = Diagram(
        left.vertices | right.vertices,
        {**left.edges, **right.edges},
        {**left.faces, **right.faces},
        {**left.alpha_curves, **right.alpha_curves},
        {**left.beta_curves, **right.beta_curves},
        left.interfaces + right.interfaces,
        left.eh + right.eh,
        dict(left.marks),
    )
    for k, v in right.marks.items():
        _put_mark(out, k, v)

    # Identified vertices and glued edges are recorded first and applied
    # in one pass over the edges and one over the face words.  ``merged``
    # maps each lost vertex to the vertex it merged into; ``now`` follows
    # it to the vertex that stays, once per lost vertex (``kept``).
    merged = {}

    def now(v):
        while v in merged:
            v = merged[v]
        return v

    glued = {}  # right interval edge -> the left edge it becomes
    for edges_l, edges_r in zip(il.intervals, ir.intervals):
        if len(edges_l) != len(edges_r):
            raise ValueError("interval subdivision mismatch")
        for e, f in zip(edges_l, reversed(edges_r)):
            el, er = out.edges[e], out.edges.pop(f)
            for a, b in ((el.to, er.frm), (el.frm, er.to)):  # reversed ends meet
                keep, lose = now(a), now(b)
                if keep != lose:
                    merged[lose] = keep
                    out.vertices.discard(lose)
            glued[f] = e
            el.kind = "seam"
    kept = {v: now(v) for v in merged}
    for ed in out.edges.values():
        ed.frm, ed.to = kept.get(ed.frm, ed.frm), kept.get(ed.to, ed.to)
    out.eh = [kept.get(v, v) for v in out.eh]
    out.marks = {k: kept.get(v, v) for k, v in out.marks.items()}

    flipped, store = set(), out.curves(il.arc_diagram.kind)
    for a1, c1 in sorted(il.arcs.items()):
        c2 = ir.arcs[arc_map[a1]]
        left_curve = store[c1]
        right_curve = store.pop(c2)
        e_end = out.edges[left_curve.segments[-1]].to
        r_start = out.edges[right_curve.segments[0]].frm
        r_end = out.edges[right_curve.segments[-1]].to
        if r_start == e_end:
            appended = list(right_curve.segments)
        elif r_end == e_end:
            appended = list(reversed(right_curve.segments))
            for e in appended:
                ed = out.edges[e]
                ed.frm, ed.to = ed.to, ed.frm
                flipped ^= {e}  # a face word flips once per reversal
        else:
            raise ValueError(f"arcs {c1} and {c2} do not meet")
        for e in appended:
            out.edges[e].curve = c1
        left_curve.segments = left_curve.segments + appended
        left_curve.closed = True
    for face in out.faces.values():
        face.word = [
            (glued[e], -s) if e in glued else (e, -s) if e in flipped else (e, s)
            for (e, s) in face.word
        ]
    return _check(out)
