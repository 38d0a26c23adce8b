"""Tests for the polygonal diagram layer.

Structural invariants, serialization, isomorphism through the
``oracles`` canonical signature, and the surgery operations (handles,
bypasses, destabilization, bordered concatenation).
"""

import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixtures
import oracles
import sequences
from sutured import glue, pieces, sfc
from sutured import surface as sf
from sutured.darts import Darts
from sutured.surface import ArcDiagram, Curve, Diagram, Edge, Face


def euler(d):
    return len(d.vertices) - len(d.edges) + len(d.faces)


@pytest.fixture
def disk():
    return pieces.disk()


@pytest.fixture
def stab():
    return pieces.stab()


# ---------------------------------------------------------------------------
# validation


def test_disk_is_valid(disk):
    assert sf.validate(disk) == []
    assert euler(disk) == 1


def test_stab_is_valid(stab):
    assert sf.validate(stab) == []
    assert euler(stab) == -1
    assert sorted(Darts(stab).crossings) == ["c"]


def test_validate_flags_bad_usage(disk):
    d = disk.copy()
    # a boundary edge used twice with the same sign
    d.faces["S"].word = [("s0", 1), ("s0", 1)]
    assert any("used" in p for p in sf.validate(d))


def test_validate_flags_broken_word(stab):
    d = stab.copy()
    w = d.faces["F"].word
    d.faces["F"].word = [w[0]] + [w[2]] + w[1:2] + w[3:]
    assert any("breaks" in p for p in sf.validate(d))


def test_validate_flags_missing_vertex(stab):
    d = stab.copy()
    d.vertices.discard("m")
    assert any("missing vertex" in p for p in sf.validate(d))


def test_validate_flags_unbalanced_closed_diagram(stab):
    d = stab.copy()
    del d.beta_curves["B0"]
    d.edges["b"].kind = "alpha"
    d.edges["b"].curve = "B0x"
    d.alpha_curves["B0x"] = Curve("B0x", True, ["b"])
    problems = sf.validate(d)
    assert any("unbalanced" in p for p in problems)


def test_validate_flags_wrong_suture_flag(stab):
    d = stab.copy()
    d.faces["F"].suture = False
    assert any("suture flag" in p for p in sf.validate(d))


def test_validate_flags_curveless_curve_edge(stab):
    d = stab.copy()
    d.edges["b"].curve = None
    assert any("lacks a curve id" in p for p in sf.validate(d))


def test_validate_flags_interval_edge_count():
    d = pieces.u1()
    itf = d.interfaces[0]
    itf.arc_diagram.intervals[0] = ["pX"]
    itf.arc_diagram.matching["pX"] = 7
    problems = sf.validate(d)
    assert problems  # the interval has one edge but now claims a point


def test_validate_flags_arc_endpoint_mismatch():
    d = pieces.az2()
    # swap which curve the left arcs name; endpoints stop matching
    d.interfaces[0].arcs = {2: "B1", 1: "B2"}
    assert any("endpoints mismatch" in p for p in sf.validate(d))


CLOSES = ["surgery on the matched pairs closes a component"]


def test_arc_diagram_rejects_closing_surgery():
    # an arc between two intervals is fine ...
    ok = ArcDiagram([["p"], ["q"]], {"p": 0, "q": 0}, "alpha")
    assert ok.validate() == []
    # ... but an adjacent matched pair traps a closed circle under surgery
    bad = ArcDiagram([["p", "q"]], {"p": 0, "q": 0}, "alpha")
    assert bad.validate() == CLOSES


@pytest.mark.parametrize("intervals,pairs,problems", [
    ([["p1", "p2", "p3"], ["q1"]], [("p2", "q1"), ("p1", "p3")], []),
    ([list("abcd")], [("a", "c"), ("b", "d")], []),  # the torus
    ([list("abcd")], [("a", "d"), ("b", "c")], CLOSES),  # nested pairs
], ids=["3+1", "torus", "nested"])
def test_arc_diagram_surgery_check(intervals, pairs, problems):
    """Surgery on every matched pair leaves no closed component, or the
    arc diagram reports that it closes one."""
    matching = {p: a for a, pair in enumerate(pairs, 1) for p in pair}
    assert ArcDiagram(intervals, matching, "alpha").validate() == problems


def test_arc_diagram_arcs_lists_points_in_interval_order():
    z = ArcDiagram([["p1", "p2", "p3"], ["q1"]], {"p3": 2, "q1": 1, "p2": 1, "p1": 2}, "beta")
    assert z.arcs() == {2: ["p1", "p3"], 1: ["p2", "q1"]}
    assert list(z.arcs()) == [2, 1]  # keyed in the order the arcs first appear
    assert ArcDiagram([[], []], {}, "beta").arcs() == {}


def test_arc_diagram_reversal_and_mirror_are_involutions():
    z = pieces.az2().interfaces[0].arc_diagram
    assert z.mirrored().mirrored() == z
    assert z.mirrored().kind != z.kind


# ---------------------------------------------------------------------------
# serialization and canonical forms


def test_serialize_round_trip_bytes(stab):
    text = sf.serialize(stab)
    assert text.endswith("\n")
    again = sf.serialize(sf.parse(text))
    assert again == text


@pytest.mark.parametrize("name", pieces.catalog())
def test_serialize_round_trip_all_pieces(name):
    d = pieces.build(name)
    text = sf.serialize(d)
    d2 = sf.parse(text)
    assert sf.serialize(d2) == text
    assert sf.validate(d2) == []


def test_parse_rejects_malformed():
    with pytest.raises(ValueError):
        sf.parse("{\"edges\": []}")


def test_equivalent_ignores_labels(stab):
    d = stab.copy()
    # rename every vertex and edge
    ren_v = {v: f"N{v}" for v in d.vertices}
    ren_e = {e: f"E{e}" for e in d.edges}
    d.vertices = {ren_v[v] for v in d.vertices}
    d.edges = {
        ren_e[e]: Edge(ren_e[e], ed.kind, ed.curve, ren_v[ed.frm], ren_v[ed.to])
        for e, ed in d.edges.items()
    }
    for f in d.faces.values():
        f.word = [(ren_e[e], s) for (e, s) in f.word]
    for c in list(d.alpha_curves.values()) + list(d.beta_curves.values()):
        c.segments = [ren_e[e] for e in c.segments]
    d.eh = [ren_v[v] for v in d.eh]
    assert sf.validate(d) == []
    assert oracles.equivalent(d, stab)


def test_equivalent_distinguishes(disk, stab):
    assert not oracles.equivalent(disk, stab)
    assert not oracles.equivalent(pieces.az2(), pieces.u2())


@given(st.integers(0, 3))
@settings(max_examples=8, deadline=None)
def test_canonical_form_independent_of_rotation(rot):
    d = pieces.stab()
    f = d.faces["F"]
    f.word = f.word[rot:] + f.word[:rot]
    assert sf.validate(d) == []
    assert oracles.equivalent(d, pieces.stab())


# ---------------------------------------------------------------------------
# subdivision


def test_subdivide_edge_preserves_validity(stab):
    d = stab.copy()
    first, second, w = sf.subdivide_edge(d, "bd")
    assert sf.validate(d) == []
    assert d.edges[first].to == w and d.edges[second].frm == w
    assert oracles.equivalent(oracles.reference_simplify(d), stab)


def test_subdivide_curve_edge_keeps_curve(stab):
    d = stab.copy()
    first, second, _w = sf.subdivide_edge(d, "b")
    assert sf.validate(d) == []
    assert d.beta_curves["B0"].segments == [first, second]


def _pool_diagram():
    """A diagram whose ids ``x0`` .. ``x4`` are taken one per pool."""
    return Diagram(
        {"x0"},
        {"x1": Edge("x1", "boundary", None, "x0", "x0")},
        {"x2": Face("x2", [("x1", 1)], True)},
        {"x3": Curve("x3", True, [])},
        {"x4": Curve("x4", True, [])},
        [],
    )


def test_fresh_ids_skip_every_pool():
    d = _pool_diagram()
    assert d.fresh_ids("x", 3) == ["x5", "x6", "x7"]
    assert d.fresh_id("x") == "x5"
    assert d.fresh_ids("y", 2) == ["y0", "y1"]


def test_fresh_ids_reuse_a_freed_id_first():
    d = _pool_diagram()
    d.faces.pop("x2")
    assert d.fresh_id("x") == "x2"
    assert d.fresh_ids("x", 3) == ["x2", "x5", "x6"]


def _split_in_turn(d, eid, k):
    """``eid`` split ``k`` times at one vertex each, every time the last
    piece: the pieces, then the vertices, as ``subdivide_edge(d, eid, k)``
    returns them."""
    firsts, ws = [], []
    for _ in range(k):
        first, eid, w = sf.subdivide_edge(d, eid)
        firsts.append(first)
        ws.append(w)
    return (*firsts, eid, *ws)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("name", ["fix-stab", "fix-bigonpair", "grid(4,1)"])
def test_one_split_equals_splits_in_turn(name, k):
    """Splitting every free boundary edge and every curve edge at ``k``
    vertices at once gives the ids, edge order, words, segments and
    vertices of ``k`` splits in turn."""
    base = fixtures.punctured_grid(4, 1) if name == "grid(4,1)" else pieces.build(name)
    free = base.free_boundary_edge_ids()
    targets = [e for e, ed in base.edges.items() if e in free or ed.kind in sf.CURVE_KINDS]
    one, turn = base.copy(), base.copy()
    for e in targets:
        assert sf.subdivide_edge(one, e, k) == _split_in_turn(turn, e, k)
    assert list(one.edges) == list(turn.edges)
    assert one == turn
    assert sf.validate(one) == []


def test_subdivide_edge_refuses_an_interface_edge():
    d = pieces.build("rt2")
    e = d.interfaces[0].intervals[0][0]
    with pytest.raises(ValueError, match=f"^cannot subdivide interface edge {e}$"):
        sf.subdivide_edge(d, e, 2)
    assert d == pieces.build("rt2")


def test_fresh_ids_are_the_least_free(stab):
    """Subdivisions mint the least free ``w`` ids: a run of them skips
    the taken ones, and a vertex freed by an edit is minted again."""
    d = stab.copy()
    d.vertices |= {"w1", "w3"}
    eid, minted = "bd", []
    for _ in range(3):
        eid, _second, w = sf.subdivide_edge(d, eid)
        minted.append(w)
    assert minted == ["w0", "w2", "w4"]
    d.vertices.discard("w1")
    assert d.fresh_ids("w", 2) == ["w1", "w5"]


# ---------------------------------------------------------------------------
# surgeries: one-handles, bypasses, destabilization


def test_attach_one_handle_disk(disk):
    h = sf.attach_one_handle(disk, "s0", "s0")
    assert sf.validate(h) == []
    assert euler(h) == 0
    # the strip face plus the two split suture faces
    assert len(h.faces) == 2


def test_attach_one_handle_requires_suture_edge(stab):
    with pytest.raises(ValueError):
        sf.attach_one_handle(stab, "a1", "a1")


def test_attach_one_handle_two_sites(disk):
    d = disk.copy()
    e1, e2, _w = sf.subdivide_edge(d, "s0")
    h = sf.attach_one_handle(d, e1, e2)
    assert sf.validate(h) == []
    assert euler(h) == 0


def test_bypass_both_signs(disk):
    for sign in ("+", "-"):
        d2, x0 = sf.attach_trivial_bypass(disk, "s0", sign)
        assert sf.validate(d2) == []
        assert x0 in d2.vertices
        assert len(d2.alpha_curves) == 1 and len(d2.beta_curves) == 1


def test_bypass_then_destabilize_returns_to_base(disk):
    for sign in ("+", "-"):
        d2, x0 = sf.attach_trivial_bypass(disk, "s0", sign)
        aid = next(iter(d2.alpha_curves))
        bid = next(iter(d2.beta_curves))
        back, forced = oracles.reference_trivial_destabilize(d2, aid, bid)
        assert sf.validate(back) == []
        assert oracles.equivalent(oracles.reference_simplify(back), disk)
        assert forced == x0


def test_bypass_is_a_stabilization(disk, stab):
    d2, _x0 = sf.attach_trivial_bypass(disk, "s0", "+")
    assert euler(d2) == euler(stab)
    assert len(d2.alpha_curves) == len(stab.alpha_curves)
    assert len(Darts(d2).crossings) == 1


def test_destabilize_stab(disk, stab):
    back, forced = oracles.reference_trivial_destabilize(stab, "A0", "B0")
    assert sf.validate(back) == []
    assert oracles.equivalent(oracles.reference_simplify(back), disk)
    assert forced == "c"


def test_stacked_bypasses(disk):
    d = disk
    for sign in ("+", "-", "+"):
        sites = sorted(d.free_boundary_edge_ids())
        d, _x0 = sf.attach_trivial_bypass(d, sites[0], sign)
    assert sf.validate(d) == []
    assert len(d.alpha_curves) == 3


# sha256 of ``serialize`` for each construction that routes chords: every
# vertex, edge, face word and curve, with its id, as the router made them.
ROUTED_SHA256 = {
    ("fix-stab", "two-handle"): "e86a544d1eb5e6de50e0215bc5e3f24e0db7202ca3a1bb1ff41bb03703925412",
    ("fix-stab", "bypass+"): "4743547569e7e2b5b06f8361562445ff5f41da57e4dd3bcd68db1de352cdd026",
    ("fix-stab", "bypass-"): "ad31ff54837c0ad82ef25e8fdbe7037676e9087a5b3cf77dd1c2f02a754dfe8c",
    ("fix-stab", "cut"): "c970c7b6f59a19fc374a4d1c0a315c0f0a8fc66407c537a28747cad6709b752d",
    ("bigonpair^3", "two-handle"): "7773a9e9bd36e2daeb0450b92041ce5ca84b93a3ceafb5641ceb76ce2e07184c",
    ("bigonpair^3", "bypass+"): "520d05548881a6b8ac6efd30d367460aaea63510600d9764d5dee6bf2efba24c",
    ("bigonpair^3", "bypass-"): "f861f0708c5a1ebc5a712800190bc59377cf4d2dbc395f15febec68a622816a9",
    ("bigonpair^3", "cut"): "a843a04c7a5199004ff0982e0265abbc54fef79faa6f68a911a7f8ac1405d6c0",
    ("grid(4,1)", "two-handle"): "f01d89068dc38d383f7d4a0325d29910e6331c86de8ef66217f1625e59864b25",
    ("grid(4,1)", "bypass+"): "23cc1baca5fbecc4dd85bc02caab27ceb39239a5d23124fd00204dbf45b88c9a",
    ("grid(4,1)", "bypass-"): "01aa83f0713afc2f01706e59193186721290df9d33858e243a0e72242ce4053e",
    ("grid(4,1)", "cut"): "9ed76c9bd3cbf92161889be93c441f7076251a1f8770e4a0e3b79ebcd17b5e10",
}


@pytest.mark.parametrize("name, construction", sorted(ROUTED_SHA256))
def test_routed_constructions_are_pinned(name, construction):
    """The direct 2-handle of the canonical two-stage sequence, both
    trivial bypasses and the staged 2-handle cut, each at the first
    free edge, serialize as they were."""
    d = {"fix-stab": lambda: pieces.build("fix-stab"),
         "bigonpair^3": lambda: fixtures.bigonpair_power(3),
         "grid(4,1)": lambda: fixtures.punctured_grid(4, 1)}[name]()
    h1, h2 = glue.two_handle_sequence(d)
    base2 = sf.attach_one_handle(d, h1.p, h1.q)
    if construction.startswith("bypass"):
        out = sf.attach_trivial_bypass(d, h1.p, construction[-1])[0]
    elif construction == "cut":
        out = glue.prepare_two_handle(base2, h2.p, h2.q, h2.a_path, h2.b_path)[0].d
    else:
        out = sf.attach_two_handle(base2, h2.p, h2.q, h2.a_path, h2.b_path,
                                   h2.port_order_p, h2.port_order_q)[0]
    digest = hashlib.sha256(sf.serialize(out).encode()).hexdigest()
    assert digest == ROUTED_SHA256[name, construction]


# ---------------------------------------------------------------------------
# bordered concatenation


def test_concatenate_fuses_arcs():
    glued = sf.concatenate_bordered(pieces.u2(), pieces.az2())
    assert sf.validate(glued) == []
    assert len(glued.interfaces) == 1  # the right side survives
    closed_beta = [c for c in glued.beta_curves.values() if c.closed]
    assert len(closed_beta) == 2  # both arcs close up


def test_concatenate_requires_matching_shape():
    with pytest.raises(ValueError):
        sf.concatenate_bordered(pieces.u1(), pieces.az2())


def test_concatenate_mark_collision():
    """A mark name both pieces carry keeps the left piece's vertex; the
    right piece's mark takes the next free suffix, as in ``_put_mark``."""
    glued = sf.concatenate_bordered(pieces.az2(), pieces.mirror(pieces.rt2()))
    assert sf.validate(glued) == []
    assert {k: glued.marks[k] for k in ("z1", "z2", "z3", "z4", "z5")} == {
        f"z{n}": f"L:z{n}" for n in range(1, 6)
    }
    assert sorted(glued.marks) == ["z1", "z1_1", "z2", "z2_1", "z3", "z3_1", "z4", "z5"]
    assert [glued.marks[f"z{n}_1"] for n in (1, 2, 3)] == ["R:z1", "R:z2", "R:z3"]


def test_handle_blocks_are_closed():
    h1 = pieces.handle1()
    h2 = pieces.handle2()
    for h in (h1, h2):
        assert sf.validate(h) == []
        assert not h.interfaces
    assert euler(h1) == -1
    assert euler(h2) == -5


def test_double_concatenation_prefixes_marks():
    block = sf.concatenate_bordered(pieces.u2(), pieces.az2())
    assert block.marks["c"] == "L:c"
    assert block.marks["z3"] == "R:z3"


def test_mirror_swaps_families():
    c2 = pieces.cap2()
    m = pieces.mirror(c2)
    assert sf.validate(m) == []
    assert set(m.beta_curves) == set(c2.alpha_curves)
    assert m.interfaces[0].arc_diagram.kind == "beta"
    assert sf.validate(pieces.mirror(m)) == []


# ---------------------------------------------------------------------------
# regions


def test_regions_merge_across_seams(stab):
    groups = sf.regions(stab)
    assert groups == [["F"]]
    h = sf.attach_one_handle(pieces.disk(), "s0", "s0")
    groups = sf.regions(h)
    # the strip face and the re-split suture face meet across the seams
    assert len(groups) == 1
    # seamless diagram: every face is its own region
    d = pieces.az2()
    assert sf.regions(d) == [[f] for f in sorted(d.faces)]


# ---------------------------------------------------------------------------
# the link walks, the concatenation and the one-index validator against
# the references in ``oracles``, which rescan the whole diagram at every
# step; the reference destabilization, with the complex of its reduction

CATALOG = sorted(pieces.catalog()) + ["fix-bigonpair", "fix-disk", "fix-stab"]
FAILURES = (AssertionError, IndexError, KeyError, RuntimeError, TypeError, ValueError)


def _outcome(fn, *args):
    """``fn(*args)``, or the type and message of the exception it raised."""
    try:
        return fn(*args)
    except FAILURES as err:
        return type(err).__name__, str(err)


def _complex(d):
    """The basis, differential columns and Spin^c classes of ``d``."""
    cx = sfc.differential(d)
    return cx.basis, cx.differential.columns, dict(zip(cx.basis, cx.labels))


def _assert_reduction_keeps_the_complex(d):
    """A destabilization's complex is the complex of the diagram with its
    seams dissolved and its two-valent vertices fused: the census reads
    regions across seams, so a destabilization need not reduce."""
    reduced = oracles.reference_simplify(d.copy())
    assert len(reduced.faces) < len(d.faces)
    assert _complex(d) == _complex(reduced)


def _assert_walks_match_reference_links(d):
    """``Darts.walk`` from each link's first corner, as ``orbits`` gives
    it, reads the reference link's corners, as (face, position) pairs:
    a path's in order, a cycle's up to rotation."""

    def link(kind, corners):  # a cycle from its least corner
        i = corners.index(min(corners)) if kind == "cycle" else 0
        return kind, corners[i:] + corners[:i]

    dx = Darts(d)
    walked = {}
    for k in dx.orbits():
        ring, is_open = dx.walk(k)
        walked[dx.tail[k]] = link("path" if is_open else "cycle", [dx._corner(j) for j in ring])
    reference = {v: link(kind, [c for tag, c in items if tag == "corner"])
                 for v, (kind, items) in oracles.reference_vertex_links(d).items() if items}
    assert walked == reference


def _assert_matches_references(d):
    """The problem list and every link walk equal the references', and
    every closed pair's destabilization, where the reference makes one,
    has the complex of its reduction."""
    _assert_walks_match_reference_links(d)
    for a in sorted(c for c, cv in d.alpha_curves.items() if cv.closed):
        for b in sorted(c for c, cv in d.beta_curves.items() if cv.closed):
            out = _outcome(oracles.reference_trivial_destabilize, d.copy(), a, b)
            if isinstance(out[0], Diagram):
                _assert_reduction_keeps_the_complex(out[0])
    assert sf.validate(d) == oracles.reference_validate(d)


@pytest.mark.parametrize("name", CATALOG)
def test_pieces_and_mirrors_edit_like_references(name):
    _assert_matches_references(pieces.build(name))
    _assert_matches_references(pieces.mirror(pieces.build(name)))


@pytest.mark.parametrize("n,k", [(3, 1), (4, 1), (5, 2)])
def test_relabeled_grids_edit_like_references(n, k):
    _assert_matches_references(fixtures.relabel(fixtures.punctured_grid(n, k), random.Random(n + k)))


def _concatenated(b1, b2):
    out = _outcome(sf.concatenate_bordered, b1, b2)
    return sf.to_json_dict(out) if isinstance(out, Diagram) else out


@pytest.mark.parametrize("name", ["fix-stab", "bigonpair^3"])
def test_handle_stages_edit_like_references(name, monkeypatch):
    """Each stage of the two-handle sequence, every concatenation the
    pipelines make (the fixed blocks'), and the concatenations whose
    complexes the pipelines pair as box tensor products instead: each
    1-handle block and pairing piece onto its cut, each 2-handle join's
    source and target, and stage H5."""
    d = fixtures.bigonpair_power(3) if name == "bigonpair^3" else pieces.build(name)
    one, two = glue.two_handle_sequence(d)
    mid, _handle = glue.one_handled(d, one.p)
    top, x0 = sf.attach_two_handle(mid, two.p, two.q, two.a_path, two.b_path)
    for stage in (d, mid, top):
        _assert_matches_references(stage)
    glued, real_concatenate = [], glue.concatenate_bordered
    monkeypatch.setattr(
        glue, "concatenate_bordered",
        lambda b1, b2, **kw: glued.append((b1.copy(), b2.copy()))
        or real_concatenate(b1, b2, **kw),
    )
    glue._handle_blocks.cache_clear()
    glue.glue_one_handle(d, one.p, one.q)
    site = sorted(mid.free_boundary_edge_ids())[0]
    glue.glue_one_handle(mid, site, site)
    rec = glue.glue_two_handle(mid, two, sfc.differential(top), x0)
    one_blocks, two_blocks = glue._handle_blocks("1"), glue._handle_blocks("2")
    glue._handle_blocks.cache_clear()
    # the two blocks; the pipelines glue nothing onto a cut
    assert len(glued) == 2
    cuts = [glue.prepare_one_handle(d, one.p, one.q).d, glue.prepare_one_handle(mid, site, site).d]
    for cut in cuts:
        glued += [(one_blocks.block, cut), (one_blocks.w.diagram, cut)]
        _assert_matches_references(sf.concatenate_bordered(one_blocks.block, cut))
    h3 = rec["H3"].diagram
    glued += [(two_blocks.w.diagram, h3), (two_blocks.block, h3), (pieces.rt2(), h3)]
    for args in glued:
        out = _concatenated(*args)
        assert isinstance(out, dict)  # every shape glues
        assert out == _outcome(
            lambda *a: sf.to_json_dict(oracles.reference_concatenate_bordered(*a)), *args
        )


@pytest.mark.parametrize("name", ["fix-stab", "bigonpair^3"])
def test_route_destabilizations_keep_their_complex(name, monkeypatch):
    """Every 1-handle target the staged pipeline builds while
    ``equivalence_report`` runs the route-small plan shapes is the
    complex of the block glued onto the cut and destabilized along its
    stabilizing pair by the reference, read without the ``R:`` prefix,
    and that destabilization has the complex of its reduction."""
    d = fixtures.bigonpair_power(3) if name == "bigonpair^3" else pieces.build(name)
    plans = [sequences.shaped_plan(d, shape, random.Random(t))
             for t, shape in enumerate(sequences.ROUTE_SHAPES)]
    calls, real = [], glue.glue_one_handle
    monkeypatch.setattr(
        glue, "glue_one_handle",
        lambda cx, p, q: calls.append((cx.diagram, p, q, real(cx, p, q))) or calls[-1][-1],
    )
    for specs in plans:
        assert glue.equivalence_report(d, specs)["ok"]
    assert len(calls) == sum(spec.kind == "1" for specs in plans for spec in specs) > 0
    block = glue._handle_blocks("1").block
    for base, p, q, table in calls:
        cut = glue.prepare_one_handle(base, p, q)
        glued, _forced = oracles.reference_trivial_destabilize(
            sf.concatenate_bordered(block, cut.d), "L:L:Ae", "L:L:Be"
        )
        _assert_reduction_keeps_the_complex(glued)
        reference = sfc.differential(glued)
        assert table.target.verts == [v.removeprefix("R:") for v in reference.verts]
        assert table.target.gens == reference.gens
        assert table.target.differential.columns == reference.differential.columns


def test_concatenation_matches_reference():
    """Every ordered pair of bordered catalog pieces and mirrors, glued
    at their first interfaces: the same diagram or the same failure."""
    bordered = [pieces.build(n) for n in CATALOG if pieces.build(n).interfaces]
    bordered += [pieces.mirror(b) for b in bordered]
    for b1 in bordered:
        for b2 in bordered:
            assert _concatenated(b1, b2) == _outcome(
                lambda *a: sf.to_json_dict(oracles.reference_concatenate_bordered(*a)), b1, b2
            )


def _flips(d):
    """Copies of ``d`` with one face's suture flag flipped, or every
    face's, or one curve edge moved to the other family: complexes that
    stay coherent, so the checks after the link walk run."""
    for flipped in [[f] for f in sorted(d.faces)] + [list(d.faces)]:
        out = d.copy()
        for f in flipped:
            out.faces[f].suture = not out.faces[f].suture
        yield out
    for e in sorted(e for e, ed in d.edges.items() if ed.kind in ("alpha", "beta")):
        out = d.copy()
        out.edges[e].kind = "beta" if out.edges[e].kind == "alpha" else "alpha"
        yield out


def test_validate_matches_reference_on_mutated_documents():
    """Every catalog document and its flips, and one-step mutations of
    them (the mutator of the CLI's exit-code test) that still parse: the
    same problem list in the same order."""
    rng = random.Random(9)
    checked = 0
    for name in CATALOG:
        d = pieces.build(name)
        assert sf.validate(d) == oracles.reference_validate(d) == []
        for flipped in _flips(d):
            assert sf.validate(flipped) == oracles.reference_validate(flipped)
    for _ in range(3000):
        doc = sf.to_json_dict(pieces.build(rng.choice(CATALOG)))
        fixtures.mutate(doc, rng.choice)
        try:
            d = sf.parse(json.dumps(doc))
        except ValueError:
            continue
        assert _outcome(sf.validate, d) == _outcome(oracles.reference_validate, d)
        checked += 1
        if checked == 320:
            break
    assert checked == 320


@pytest.mark.parametrize("problem", [
    "intersection vertex m has degree 3",
    "interface 0: interval breaks at o1",
    "interface 0: arc assignment indices mismatch",
])
def test_validate_reports_edited_documents_like_the_reference(problem):
    """Three problems, each reached by one edit of a catalog document
    once the checks before them pass: the same problem list as the
    reference, holding that problem."""
    if problem.startswith("intersection"):
        doc = sf.to_json_dict(pieces.build("fix-stab"))
        seam = next(e for e in doc["edges"] if e["id"] == "s")
        seam.update(kind="beta", curve="B0")  # m now meets three curve edges and nothing else
    else:
        doc = sf.to_json_dict(pieces.build("rt2"))
        itf = doc["arc_interfaces"][0]
        if "breaks" in problem:
            itf["intervals"][0][:2] = itf["intervals"][0][1::-1]  # o2 before o1
        else:
            itf["arcs"] = {"1": "A1R", "3": "A2R"}  # the matching has no arc 3
    d = sf.parse(json.dumps(doc))
    problems = sf.validate(d)
    assert problems == oracles.reference_validate(d)
    assert problem in problems


def _unvalidated(d):
    """``d`` serialized, then the same after ``validate`` has read it."""
    before = sf.to_json_dict(d)
    _outcome(sf.validate, d)
    return before, sf.to_json_dict(d)


def test_pinched_vertices_have_disconnected_links():
    """Three boundary triangles, pinched together at two vertices: each
    of their links is two paths.  ``validate`` reports the least, as the
    reference does."""
    edges, faces = {}, {}
    for f, (a, b, c) in {"F": "abc", "G": "ade", "H": "cfg"}.items():
        ids = [f"{f}{i}" for i in range(3)]
        for e, (u, v) in zip(ids, [(a, b), (b, c), (c, a)]):
            edges[e] = Edge(e, "boundary", None, u, v)
        faces[f] = Face(f, [(e, 1) for e in ids], True)
    d = Diagram(set("abcdefg"), edges, faces, {}, {}, [])
    problem = "vertex a has a disconnected link"
    assert sf.validate(d) == oracles.reference_validate(d) == [problem]


def test_validate_never_writes_to_its_input():
    """``validate`` reports wrong suture flags and mends nothing: catalog
    pieces with one or every flag flipped, and one-step mutations of
    catalog documents that still parse, serialize alike before and after
    it."""
    for name in CATALOG:
        for flipped in _flips(pieces.build(name)):
            before, after = _unvalidated(flipped)
            assert before == after
    rng = random.Random(11)
    checked = 0
    while checked < 320:
        doc = sf.to_json_dict(pieces.build(rng.choice(CATALOG)))
        fixtures.mutate(doc, rng.choice)
        try:
            d = sf.parse(json.dumps(doc))
        except ValueError:
            continue
        before, after = _unvalidated(d)
        assert before == after
        checked += 1


def test_set_flags_recomputes_like_the_separate_pass():
    """``validate(d, set_flags=True)`` leaves the flags and the problem
    list that ``recompute_suture_flags`` followed by ``validate`` does."""
    for name in CATALOG:
        for flipped in _flips(pieces.build(name)):
            mended = flipped.copy()
            oracles.recompute_suture_flags(mended)
            expected = sf.validate(mended)
            assert sf.validate(flipped, set_flags=True) == expected
            assert sf.to_json_dict(flipped) == sf.to_json_dict(mended)
