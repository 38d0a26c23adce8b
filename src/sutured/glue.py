"""Contact handle maps and their staged bordered counterparts.

Two independent constructions of the same surgery maps live here.  The
diagrammatic route attaches a handle directly (``attach_one_handle``,
``attach_two_handle``, ``attach_trivial_bypass``) and transports
generators, adding the forced intersection point where one appears.  The
staged route cuts the base open along the attachment region
(``prepare_one_handle`` / ``prepare_two_handle``), takes the cut's
type-D structure and pairs it with the builtin blocks' type-A
structures (``modules.box_tensor``), so its join complexes, the
1-handle target and the twist stage H5 are box tensor products, not
complexes of glued diagrams; the join (``_elementary_join_full``) maps
through the pairing piece, and its one result is a chain-map table.  A
1-handle's target is the join's target with the block's one generator
cancelled, which is the stabilizing pair destabilized.  The routes share
only surface mechanics: the path router, the mark naming, the id
renaming, a 1-handle's feet and, for a 2-handle, the strip with its
ports (``_attach_one_handle``, ``_subdivide_ports``); the staged cut
adds its own interface, slit hole and arcs.  The package's comparison
artifacts -- chain-map tables, stage ranks, the boundary identity on the
twist stage -- are produced by ``glue_one_handle``, ``glue_two_handle``
and ``equivalence_report``.

A chain-map table is a ``BinaryMatrix``, one bit-packed column per source
generator like the differentials, bit i of column j standing for
``target.gens[i]``; the law check, composition and route comparison are
column sums.  One builder, ``_generator_map``, makes every table the
routes build, each generator to the one its renamed crossings name.

The route functions take a diagram or its complex (built once, by
``sfc.differential``); ``equivalence_report`` passes each stage's target
complex on as the next stage's source, hands the direct 2-handle
attachment, ``sigma_map``'s target, to the staged pipeline as its stage
H6, compares the two routes, and reports a disagreement as a
counterexample.

The staged route joins two fixed triples of builtin pieces, a handle
block, its pairing piece and its pairing block: (u1, cap1, az1) and
(u2, cap2, az2).  They are data, not inputs: ``_handle_blocks`` builds
each triple's structures and tags straight from ``pieces``, and
``_twist_block`` the twist block's, once per process, shared by every
pipeline run; the tests check that the pieces are elementary.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from typing import NamedTuple

from . import modules, pieces, sfc
from .exactlin import BinaryMatrix, column_sum, f2_rank, f2_rank_kernel, set_bits
from .modules import format_generator
from .surface import (
    ArcDiagram,
    Curve,
    Edge,
    Interface,
    TransversePath,
    _attach_one_handle,
    _check,
    _check_two_handle_paths,
    _face_carrying,
    _foot_edges,
    _put_mark,
    _route_and_insert_chord,
    _route_path,
    _subdivide_ports,
    attach_one_handle,
    attach_trivial_bypass,
    attach_two_handle,
    concatenate_bordered,
    one_handle_parts,
    subdivide_edge,
)

# ---------------------------------------------------------------------------
# chain-map tables


@dataclass(slots=True)
class ChainMapTable:
    """An F2-linear map between two sutured chain complexes.

    ``matrix`` has one bit-packed column per source generator, in the
    form of the complexes' differentials: bit i of column j is set when
    ``target.gens[i]`` is in the image of ``source.gens[j]``.
    """

    source: sfc.ChainComplexF2
    target: sfc.ChainComplexF2
    matrix: BinaryMatrix

    def __post_init__(self):
        if (self.matrix.rows, self.matrix.cols) != (len(self.target.gens), len(self.source.gens)):
            raise ValueError("table shape does not match its source and target")

    def check(self) -> list:
        """Chain-map law violations: boundary-then-map vs map-then-boundary."""
        cols, d_target = self.matrix.columns, self.target.differential.columns
        return [
            f"chain-map law fails at {format_generator(self.source.verts, g)}"
            for g, img, boundary in zip(self.source.gens, cols, self.source.differential.columns)
            if column_sum(d_target, img) != column_sum(cols, boundary)
        ]

    def render(self) -> list:
        lines, source, target = [], self.source, self.target
        for g, img in zip(source.gens, self.matrix.columns):
            img = sorted(format_generator(target.verts, target.gens[i]) for i in set_bits(img))
            lines.append(f"{format_generator(source.verts, g)} -> {' + '.join(img) if img else '0'}")
        return lines

    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.render()).encode()).hexdigest()

    def is_bijection(self) -> bool:
        """Generator bijection whose inverse is also a chain map.

        A permutation matrix P with dP = Pd also has P^-1 d = d P^-1, so
        the inverse is a chain map exactly when the table is one.
        """
        units = [1 << i for i in range(self.matrix.rows)]
        return sorted(self.matrix.columns) == units and not self.check()


def compose(outer: ChainMapTable, inner: ChainMapTable) -> ChainMapTable:
    if (inner.target.verts, inner.target.masks) != (outer.source.verts, outer.source.masks):
        raise ValueError("tables do not compose: middle complexes differ")
    columns = tuple(column_sum(outer.matrix.columns, c) for c in inner.matrix.columns)
    return ChainMapTable(inner.source, outer.target, BinaryMatrix(outer.matrix.rows, columns))


def _images(source, target, what: str, rename=str, extra=(), drop=()) -> list:
    """The column index in ``target`` of each ``source`` generator's
    image: its crossings but ``drop``, renamed by ``rename`` (by default
    the identity), and the crossings ``extra``, looked up by mask.  A
    generator missing a ``drop`` crossing, or an image that is not a
    generator, is a convention bug rather than bad input, so it raises
    ``AssertionError`` naming ``what``."""
    index = {v: i for i, v in enumerate(source.verts)}
    where = {v: i for i, v in enumerate(target.verts)}
    # a name one side lacks gets the bit past its crossings, which no generator holds
    held = sum(1 << i for i in {index.get(v, len(index)) for v in drop})
    plus = sum(1 << i for i in {where.get(v, len(where)) for v in extra})
    bits = [0 if held >> i & 1 else 1 << where.get(rename(v), len(where)) for v, i in index.items()]
    column_of = {m: j for j, m in enumerate(target.masks)}
    out = []
    for g, m in zip(source.gens, source.masks):
        img = plus
        for i in g:
            img |= bits[i]
        j = column_of.get(img)
        if j is None or m & held != held:  # names are formatted only here
            names, name = {source.verts[i] for i in g}, format_generator(source.verts, g)
            if not names.issuperset(drop):
                missed = format_generator(set(drop) - names)
                raise AssertionError(f"{what}: source generator {name} misses {missed}")
            img = format_generator({rename(v) for v in names.difference(drop)}.union(extra))
            raise AssertionError(f"{what}: image {img} of {name} is not a generator")
        out.append(j)
    return out


def _generator_map(source, target, what: str, rename=str, extra=(), drop=()) -> ChainMapTable:
    """The table sending each generator of ``source`` to its one image
    in ``target`` (``_images``); every table the routes build has this
    shape.  It must be a chain map, else ``AssertionError`` names ``what``."""
    columns = tuple(1 << j for j in _images(source, target, what, rename, extra, drop))
    table = ChainMapTable(source, target, BinaryMatrix(len(target.gens), columns))
    problems = table.check()
    if problems:
        raise AssertionError(f"{what} is not a chain map: " + problems[0])
    return table


def _is_boundary(cx: sfc.ChainComplexF2, vec: int) -> bool:
    """Does ``vec``, a mask over the generators of ``cx``, lie in the
    image of the differential?"""
    cols = [m for m in cx.differential.columns if m]
    return f2_rank(cols + [vec]) == f2_rank(cols)


# ---------------------------------------------------------------------------
# handle attachment data


@dataclass(slots=True)
class HandleSpec:
    """Attachment data for one contact handle.

    ``kind`` is "1" (feet ``p``, ``q``), "2" (feet plus the two
    transverse paths of the attaching curve) or "bypass+"/"bypass-"
    (a single ``site`` edge).
    """

    kind: str
    p: str | None = None
    q: str | None = None
    a_path: TransversePath | None = None
    b_path: TransversePath | None = None
    site: str | None = None
    port_order_p: tuple = ("b", "a")
    port_order_q: tuple = ("b", "a")


def sigma_map(d, spec: HandleSpec):
    """Attach per ``spec`` and transport generators diagrammatically.

    ``d`` is the base diagram or its complex, which becomes the table's
    source.  Returns ``(d2, table, x0)`` where ``x0`` is the forced
    intersection point for 2-handles and bypasses (``None`` for
    1-handles).  The transport must be a chain map; a violation raises,
    since it signals a convention bug rather than bad input.
    """
    source = sfc.as_complex(d)
    dx2, x0 = _attach(source.diagram, spec)
    target = sfc.differential(dx2.d, dx2)
    table = _generator_map(source, target, "handle transport", extra=[] if x0 is None else [x0])
    return dx2.d, table, x0


def _attach(d, spec: HandleSpec) -> tuple:
    """``(build, x0)``: the dart build of ``d`` with the handle attached,
    and the forced intersection point (``None`` for 1-handles)."""
    if spec.kind == "1":
        return attach_one_handle(d, spec.p, spec.q, built=True), None
    if spec.kind == "2":
        return attach_two_handle(
            d,
            spec.p,
            spec.q,
            spec.a_path,
            spec.b_path,
            port_order_p=spec.port_order_p,
            port_order_q=spec.port_order_q,
            built=True,
        )
    if spec.kind in ("bypass+", "bypass-"):
        return attach_trivial_bypass(d, spec.site, spec.kind[-1], built=True)
    raise ValueError(f"unknown handle kind {spec.kind!r}")


# ---------------------------------------------------------------------------
# cutting the base open


def prepare_one_handle(d, p: str, q: str):
    """Declare the feet ``p``, ``q`` as a point-free interface; returns
    the cut's ``Darts`` build, whose ``d`` is the cut diagram.

    The base is otherwise untouched: pairing the cut's type-D structure
    with the stabilizing block's type-A structure performs the surgery.
    """
    if d.interfaces:
        raise ValueError("base must be a closed diagram")
    out = d.copy()
    p, q = _foot_edges(out, p, q)

    # the middle thirds of the feet become the interface, margins stay free
    feet = [[subdivide_edge(out, eid, 2)[1]] for eid in (p, q)]
    out.interfaces.append(Interface(ArcDiagram([[], []], {}, "alpha"), feet, {}))
    return _check(out, built=True)


def prepare_two_handle(d, spec: HandleSpec):
    """Cut the base open along the 2-handle attachment region of ``spec``.

    The feet are joined by a strip whose attaching-circle side is
    subdivided into a four-edge interface interval, with a slit hole in
    the strip carrying the second interval; the ports on the foot seams
    are ordered by the spec's ``port_order_p`` and ``port_order_q``, as
    the direct attachment orders them.  The long interface arc runs
    where the attaching curve's a-side would, the short arc connects the
    middle junction to the hole, and the b-side path closes up into a
    curve crossing them once each; the two crossings are also recorded
    as the marks ``x0`` (long arc) and ``y0`` (short arc).  Returns
    ``(build, x0, y0)``: the cut's ``Darts`` build, whose ``d`` is the
    cut diagram, and the two crossings.
    """
    if d.interfaces:
        raise ValueError("base must be a closed diagram")
    _check_two_handle_paths(d, spec.p, spec.q, spec.a_path, spec.b_path)
    out = d.copy()
    handle = _attach_one_handle(out, spec.p, spec.q)
    ports_p, ports_q = _subdivide_ports(out, handle, spec.port_order_p, spec.port_order_q)

    # the attaching-circle side of the strip becomes the long interval
    e1, e2, e3, e4, j0, j1, j2 = subdivide_edge(out, handle["s1"], 3)

    # slit hole in the strip: the short arc's far endpoint lives on it
    s2a, _s2b, sl = subdivide_edge(out, handle["s2"])
    hv0, j3, hv1 = out.fresh_ids("v", 3)
    out.vertices |= {hv0, j3, hv1}
    f1, f2, fs = out.fresh_ids("hole", 3)
    out.edges[f1] = Edge(f1, "boundary", None, hv0, j3)
    out.edges[f2] = Edge(f2, "boundary", None, j3, hv1)
    out.edges[fs] = Edge(fs, "boundary", None, hv1, hv0)
    slit = out.fresh_id("slit")
    out.edges[slit] = Edge(slit, "seam", None, sl, hv0)
    strip = out.faces[handle["strip"]]
    word = []
    for (e, s) in strip.word:
        word.append((e, s))
        if e == s2a and s > 0:
            word += [(slit, 1), (f1, 1), (f2, 1), (fs, 1), (slit, -1)]
    strip.word = word

    pieces, crossings = {}, []
    strip = handle["strip"]
    beta_id = out.fresh_id("B")
    beta_segs = _route_path(
        out, pieces, spec.b_path, ports_p["b"], ports_q["b"], "beta", beta_id, [],
        crossings, close_in=strip,
    )
    out.beta_curves[beta_id] = Curve(beta_id, True, beta_segs)
    if crossings:
        raise ValueError(f"the closed path is not embedded: {len(crossings)} forced crossings")
    surgery = [out.beta_curves[beta_id]]

    arc_long = out.fresh_id("A")
    long_segs = _route_and_insert_chord(
        out, pieces, strip, j0, ports_p["a"], "alpha", arc_long, surgery, crossings,
    )
    long_segs += _route_path(
        out, pieces, spec.a_path, ports_p["a"], ports_q["a"], "alpha", arc_long, surgery,
        crossings,
    )
    long_segs += _route_and_insert_chord(
        out, pieces, strip, ports_q["a"], j2, "alpha", arc_long, surgery, crossings,
    )
    out.alpha_curves[arc_long] = Curve(arc_long, False, long_segs)
    if len(crossings) != 1:
        raise ValueError(
            f"paths are not disjoint: {len(crossings)} forced "
            "crossings on the long arc, expected 1"
        )
    x0 = crossings[0]

    arc_short = out.fresh_id("A")
    short_segs = _route_and_insert_chord(
        out, pieces, strip, j1, j3, "alpha", arc_short, surgery, crossings,
    )
    out.alpha_curves[arc_short] = Curve(arc_short, False, short_segs)
    if len(crossings) != 2:
        raise ValueError(f"the short arc forces {len(crossings) - 1} crossings, expected 1")
    y0 = crossings[1]
    _put_mark(out, "x0", x0)
    _put_mark(out, "y0", y0)
    out.interfaces.append(
        Interface(
            ArcDiagram([["k0", "k1", "k2"], ["k3"]],
                       {"k0": 2, "k1": 1, "k2": 2, "k3": 1}, "alpha"),
            [[e1, e2, e3, e4], [f1, f2]],
            {2: arc_long, 1: arc_short},
        )
    )
    return _check(out, built=True), x0, y0


# ---------------------------------------------------------------------------
# the elementary join


def _pairing_tags(w: modules.BorderedStructure) -> list:
    """The tag vertices of the pairing block that the join's images
    occupy: the occupied arcs of the pairing piece's one generator, the
    outer arc tagging ``z3`` and the arc reaching the hole ``z5``.  The
    square block has no arcs, so no tags."""
    algebra = w.sides[0]
    outer = set(algebra.intervals[0])
    tag_of = {a: "z3" if all(pt in outer for pt in arc_pts) else "z5"
              for a, arc_pts in algebra.arcs().items()}
    return sorted(tag_of[a] for a in w.occupancy[0][w.generators[0]])


class PairingBlocks(NamedTuple):
    """A handle block and its pairing piece, as the join reads them.

    ``u`` is the handle block's single-generator type-D invariant, ``w``
    the elementary type-A pairing piece, ``a`` the type-A structure of
    the handle block concatenated with its pairing block, whose diagram
    is ``a.diagram``, and ``tags`` the tag vertices of that pairing
    block which the join's images occupy.
    """

    u: modules.BorderedStructure
    w: modules.BorderedStructure
    a: modules.BorderedStructure
    tags: list


@functools.cache
def _handle_blocks(kind: str) -> PairingBlocks:
    """The pairing blocks of the "1"- or "2"-handle pipeline: u1, cap1
    and the square az1, or u2, cap2 and the five-point az2.

    They depend on nothing but ``kind``, so they are built once per
    process and shared by every pipeline run; no caller mutates them.
    """
    handle, cap, az = (
        (pieces.u1(), pieces.cap1(), pieces.az1()) if kind == "1"
        else (pieces.u2(), pieces.cap2(), pieces.az2())
    )
    w = modules.bordered_invariant(cap, "A")
    return PairingBlocks(
        modules.bordered_invariant(handle, "D"),
        w,
        modules.bordered_invariant(concatenate_bordered(handle, az), "A"),
        _pairing_tags(w),
    )


@functools.cache
def _twist_block() -> modules.BorderedStructure:
    """The type-A structure of the twist block rt2, which pairs with the
    2-handle cut as stage H5; built once per process, never mutated."""
    return modules.bordered_invariant(pieces.rt2(), "A")


def _elementary_join_full(blocks: PairingBlocks, v) -> ChainMapTable:
    """Join the handle block onto ``v`` through the pairing piece.

    Returns the chain-map table from ``A(w) ⊠ v``, the complex of the
    cap-closed preparation, into ``A(block) ⊠ v``, the complex of the
    block-and-pairing concatenation (``modules.box_tensor``: neither is
    glued), sending each generator to its image under the join
    (handle-block generator, tag vertices, base part).
    """
    u, w, a, tags = blocks
    return _generator_map(
        modules.box_tensor(w, v),
        modules.box_tensor(a, v),
        "join table",
        extra=[f"L:L:{x}" for x in u.crossings(u.generators[0])] + [f"L:R:{t}" for t in tags],
        drop=[f"L:{x}" for x in w.crossings(w.generators[0])],
    )


# ---------------------------------------------------------------------------
# staged pipelines


def _cancel_block_generator(cx: sfc.ChainComplexF2) -> sfc.ChainComplexF2:
    """``cx``, a box tensor whose type-A side has one generator, with
    that generator cancelled: its ``L:`` crossings, which lead ``verts``
    and every generator, are dropped and the ``R:`` prefix is stripped.
    The generator order and the columns are kept, so a table into ``cx``
    is a table into the result.  A generator that misses one of the
    ``L:`` crossings raises ``AssertionError``."""
    k = sum(v.startswith("L:") for v in cx.verts)
    lead = (1 << k) - 1
    if any(m & lead != lead for m in cx.masks):
        raise AssertionError("a generator misses the block's generator")
    return sfc.ChainComplexF2(
        [v.removeprefix("R:") for v in cx.verts[k:]],
        [tuple(i - k for i in g[k:]) for g in cx.gens],
        [m >> k for m in cx.masks],
        cx.differential,
        None,
    )


def glue_one_handle(d, p: str, q: str) -> ChainMapTable:
    """1-handle attachment through the staged pipeline.

    ``d`` is the base diagram or its complex.  Joins the stabilizing
    block onto the cut-open base's type-D structure through the pairing
    square, and cancels the block's one generator from the join's
    target, ``A(u1 ∪ az1) ⊠ D(cut)``: what is left is the box tensor
    with the stabilizing pair destabilized, a complex with no diagram.
    Returns the chain-map table from the base complex into it, which
    ``equivalence_report`` compares, with its target, with the
    diagrammatic transport.
    """
    base = sfc.as_complex(d)
    cut = prepare_one_handle(base.diagram, p, q)
    v = modules.bordered_invariant(cut.d, "D", darts=cut)
    join = _elementary_join_full(_handle_blocks("1"), v)
    pre = _generator_map(base, join.source, "1-handle base inclusion", "R:".__add__)
    table = ChainMapTable(base, _cancel_block_generator(join.target), compose(join, pre).matrix)
    problems = table.check()
    if problems:
        raise AssertionError("pipeline table is not a chain map: " + problems[0])
    return table


def glue_two_handle(d, spec: HandleSpec, direct, x0) -> dict:
    """2-handle attachment through the staged pipeline.

    ``d`` is the base diagram or its complex.  ``direct`` and ``x0``,
    the target of ``sigma_map``'s table and its forced point, are stage
    H6, taken from the caller rather than attached again.  Returns the
    stage record: the complexes of the cut-open base ``H3``, the block
    stage ``H4``, the twist-block stage ``H5`` and ``H6``; the composed
    ``joinTable`` into ``H4``; and the ``identityReport`` checking the
    twist-stage boundary identity and the stage homology ranks, read
    from those complexes.  ``H3`` and ``H6`` carry their diagrams; ``H4`` and
    ``H5`` are box tensor products of the block's and the twist block's
    type-A structures with ``H3``'s type-D structure, and carry none.
    A cut that fails to route or fails its gates is refused with stage
    H3 named.
    """
    if spec.kind != "2":
        raise ValueError("glue_two_handle needs a kind-2 handle spec")
    base = sfc.as_complex(d)
    blocks = _handle_blocks("2")
    try:
        hv, *cut = prepare_two_handle(base.diagram, spec)
        h3 = sfc.differential(hv.d, hv)
        v = modules.bordered_invariant(h3, "D")
    except ValueError as err:
        raise ValueError(f"stage H3: {err}") from err
    x0v, y0v = (f"R:{v}" for v in cut)  # the cut's crossings, named as in H4 and H5
    join = _elementary_join_full(blocks, v)
    cx5 = modules.box_tensor(_twist_block(), v)

    wv = blocks.w.crossings(blocks.w.generators[0])[0]
    pre = _generator_map(
        base, join.source, "2-handle base inclusion", "R:".__add__, [f"L:{wv}", y0v]
    )
    join_table = compose(join, pre)

    # twist-stage boundary identity over the cycle basis of the base:
    # d(z1 y0 g) = z3 y0 g + z2 x0 g, summed over each cycle's generators
    z1, z3, z2 = (_images(base, cx5, "twist stage", "R:".__add__, [f"L:{z}", c])
                  for z, c in (("z1", y0v), ("z3", y0v), ("z2", x0v)))
    lhs = [cx5.differential.columns[j] for j in z1]
    rhs = [1 << j | 1 << k for j, k in zip(z3, z2)]
    _rank, kernel = f2_rank_kernel(base.differential)
    failures = [
        "boundary identity fails on the cycle "
        + " + ".join(format_generator(base.verts, base.gens[j]) for j in set_bits(vec))
        for vec in kernel
        if column_sum(lhs, vec) != column_sum(rhs, vec)
    ]
    ranks = {
        "H4": sfc.homology(join.target).total,
        "H5": sfc.homology(cx5).total,
        "H6": sfc.homology(direct).total,
    }
    ranks_agree = len(set(ranks.values())) == 1
    report = {
        "ok": not failures,
        "cycles": len(kernel),
        "failures": failures,
        "ranks": ranks,
        "ranks_agree": ranks_agree,
    }
    return {
        "H3": h3,
        "H4": join.target,
        "H5": cx5,
        "H6": direct,
        "joinTable": join_table,
        "identityReport": report,
        "x0": x0,
    }


# ---------------------------------------------------------------------------
# the contact class


def eh_generator(d, applied):
    """Transport the tagged contact generator through applied handle maps.

    ``d`` is the base diagram or its complex, and ``applied`` the list
    of ``sigma_map`` results; 1-handles leave the tag alone, 2-handles
    and bypasses add their forced intersection point.  The transported
    tag must be a cycle generator of the final diagram.  Returns
    ``(j, complex)``, the tag being the complex's generator j and the
    complex the last table's target, or the base's complex when nothing
    was applied.  An empty ``eh`` tag means the base is untagged; it is
    refused before any complex is built.
    """
    base = d.diagram if isinstance(d, sfc.ChainComplexF2) else d
    if not base.eh:
        raise ValueError("base has no tagged generator")
    tag = set(base.eh).union(x0 for _d2, _table, x0 in applied if x0 is not None)
    cx = applied[-1][1].target if applied else sfc.as_complex(d)
    return _cycle_generator(cx, tag, "transported tag"), cx


def _cycle_generator(cx, tag, what: str) -> int:
    """The column index in ``cx`` of the generator holding the crossings
    ``tag``, refused unless it is one and a cycle."""
    tag, index = set(tag), {v: i for i, v in enumerate(cx.verts)}
    mask = sum(1 << index[v] for v in tag) if tag <= index.keys() else -1
    if mask not in cx.masks:
        raise ValueError(f"{what} {format_generator(tag)} is not a generator")
    j = cx.masks.index(mask)
    if cx.differential.columns[j]:
        raise ValueError(f"{what} {format_generator(tag)} is not a cycle")
    return j


def _eh_block(d, applied):
    """Report block for the transported contact class; errors are flagged."""
    try:
        j, final = eh_generator(d, applied)
    except ValueError as err:
        return {"ok": False, "error": str(err)}
    return {
        "ok": True,
        "generator": sorted(final.verts[i] for i in final.gens[j]),
        "nonvanishing": not _is_boundary(final, 1 << j),
    }


# ---------------------------------------------------------------------------
# route comparison


def stage_ok(check: dict) -> bool:
    """Whether a stage check of ``equivalence_report`` passes: its ranks
    match and, where the stage has them, its tables agree and its
    boundary identity holds."""
    return check["ranks_match"] and check.get("tables_equal", True) and check.get("identity", True)


def equivalence_report(d, handles, darts=None) -> dict:
    """Compare the diagrammatic route against the glued pipelines.

    Every handle in ``handles`` is applied by ``sigma_map`` to advance
    the running complex; its target is the next stage's source.
    Alongside, the matching pipeline runs on the same source complex,
    and its table, target complex and stage ranks are compared with the
    direct route's.  The report carries one deterministic block per stage
    plus the contact class summary; the first disagreement is dumped as a
    counterexample.  Every base, whatever the plan, has its complex built
    up front on ``darts``, its dart build, if made, as stage 0's source,
    so a base that is not nice or not admissible is a ``ValueError``, as
    is a tag that is not a cycle generator of it.
    """
    blocks = []
    stage_checks = []
    applied = []
    counterexample = None
    base = sfc.differential(d, darts)
    if d.eh:
        _cycle_generator(base, d.eh, "contact tag")
    cur = base
    for i, spec in enumerate(handles):
        d2, table, x0 = sigma_map(cur, spec)
        source, target = table.source, table.target
        hom = sfc.homology(target)
        blocks.append(
            {
                "stage": i,
                "kind": spec.kind,
                "generators": len(target.gens),
                "rank": hom.total,
                "ranks_by_class": sorted(hom.by_class.values()),
                "digest": table.digest(),
            }
        )
        check = {"stage": i, "kind": spec.kind}
        if spec.kind == "1":
            ptable = glue_one_handle(source, spec.p, spec.q)
            check["tables_equal"] = (
                ptable.target.verts == target.verts
                and ptable.target.masks == target.masks
                and ptable.matrix == table.matrix
                and ptable.target.differential == target.differential
            )
            check["ranks_match"] = sfc.homology(ptable.target).total == hom.total
            detail = ptable
        elif spec.kind == "2":
            rec = glue_two_handle(source, spec, target, x0)
            rep = rec["identityReport"]
            check["identity"] = rep["ok"]
            check["stage_ranks"] = rep["ranks"]
            check["ranks_match"] = rep["ranks_agree"] and rep["ranks"]["H6"] == hom.total
            detail = rec["joinTable"]
        else:
            check["iso"] = table.is_bijection()
            # past stage 0 the source is the stage before's target, ranked in its block
            check["ranks_match"] = check["iso"] and (
                blocks[-2]["rank"] if i else sfc.homology(source).total
            ) == hom.total
            detail = table
        if not stage_ok(check) and counterexample is None:
            counterexample = {
                "stage": i,
                "kind": spec.kind,
                "table": detail.render(),
                "check": dict(check),
            }
        stage_checks.append(check)
        applied.append((d2, table, x0))
        cur = target
    eh = _eh_block(base, applied) if d.eh else None
    ok = counterexample is None and (eh is None or eh["ok"])
    return {
        "base_generators": len(base.gens),
        "stages": blocks,
        "checks": stage_checks,
        "eh": eh,
        "ok": ok,
        "counterexample": counterexample,
    }


# ---------------------------------------------------------------------------
# attachment data as documents


def spec_to_json(spec: HandleSpec) -> dict:
    out = {"kind": spec.kind}
    if spec.kind == "1":
        out["p"], out["q"] = spec.p, spec.q
    elif spec.kind == "2":
        out.update(
            p=spec.p,
            q=spec.q,
            a_path=list(spec.a_path.items),
            b_path=list(spec.b_path.items),
            port_order_p=list(spec.port_order_p),
            port_order_q=list(spec.port_order_q),
        )
    else:
        out["site"] = spec.site
    return out


def spec_from_json(obj: dict) -> HandleSpec:
    """Read a handle spec document.

    Every id (``p``, ``q``, ``site`` and each path item) must be a
    string, each path must alternate faces and edges from a face to a
    face, and each port order must be a permutation of ``("a", "b")``;
    anything else raises ``ValueError``.
    """
    try:
        kind = obj["kind"]
        if kind == "1":
            p, q = _ids([obj["p"], obj["q"]], "p and q")
            return HandleSpec("1", p=p, q=q)
        if kind == "2":
            p, q = _ids([obj["p"], obj["q"]], "p and q")
            return HandleSpec(
                "2",
                p=p,
                q=q,
                a_path=_path(obj, "a_path"),
                b_path=_path(obj, "b_path"),
                port_order_p=_port_order(obj, "port_order_p"),
                port_order_q=_port_order(obj, "port_order_q"),
            )
        if kind in ("bypass+", "bypass-"):
            (site,) = _ids([obj["site"]], "site")
            return HandleSpec(kind, site=site)
    except (KeyError, TypeError) as err:
        raise ValueError(f"malformed handle spec: {err!r}") from err
    raise ValueError(f"unknown handle kind {obj.get('kind')!r}")


def _ids(value, field: str) -> list:
    """``value`` itself when it is a list of id strings."""
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise ValueError(f"malformed handle spec: {field} must be id strings, got {value!r}")
    return value


def _path(obj: dict, field: str) -> TransversePath:
    items = _ids(obj[field], field)
    if len(items) % 2 == 0:
        raise ValueError(f"malformed handle spec: {field} must run face, edge, ..., face")
    return TransversePath(items)


def _port_order(obj: dict, field: str) -> tuple:
    order = tuple(_ids(obj.get(field, ["b", "a"]), field))
    if sorted(order) != ["a", "b"]:
        raise ValueError(f"malformed handle spec: {field} must order 'a' and 'b', got {order!r}")
    return order


# ---------------------------------------------------------------------------
# canonical attachment data


def one_handled(d, site: str | None = None):
    """Attach a 1-handle at ``site`` (both feet) and keep the part ids."""
    if site is None:
        site = sorted(d.free_boundary_edge_ids())[0]
    return one_handle_parts(d, site, site)


def two_handle_sequence(d, site: str | None = None) -> list:
    """Canonical two-stage sequence: a 1-handle at ``site``, then the
    2-handle running once over it.  Attachment ids are deterministic, so
    the 2-handle data built here names the stage diagram's parts."""
    if site is None:
        site = sorted(d.free_boundary_edge_ids())[0]
    base2, handle = one_handled(d, site)
    return [HandleSpec("1", p=site, q=site), two_handle_spec(base2, handle)]


def two_handle_spec(base, handle) -> HandleSpec:
    """Attachment data running the attaching curve once over a 1-handle.

    The feet sit on a base edge next to the handle and on the strip's
    outer side; the two paths cross the two foot seams.  This is the
    canonical shape for which both the direct attachment and the staged
    pipeline force exactly one intersection.
    """
    face_p = _face_carrying(base, handle["p"]["left"])
    return HandleSpec(
        "2",
        p=handle["p"]["left"],
        q=handle["s2"],
        a_path=TransversePath([face_p, handle["p"]["seam"], handle["strip"]]),
        b_path=TransversePath([face_p, handle["q"]["seam"], handle["strip"]]),
    )
