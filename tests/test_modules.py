"""Bordered structures of the catalog pieces and of the gluing
pipelines: frozen action tables, duality against the strands algebra,
the library structures against the frozenset-form builder of
``oracles``, and the structure relations and box tensor product of
``oracles`` checked against actual gluings."""

import dataclasses

import pytest

import fixtures
import oracles
from sutured import glue, modules, pieces, sfc, strands
from sutured.exactlin import BinaryMatrix
from sutured.surface import ArcDiagram, concatenate_bordered


def az2_sector():
    return modules.bordered_invariant(pieces.az2(), "AA", sector=(1, 1))


def name(x):
    return modules.format_generator(x)


# generator tag -> the algebra basis element it is dual to
DUAL_TAGS = {
    "∅": "ι∅",
    "{z1}": "ρ12",
    "{z2}": "ρ1",
    "{z3}": "ι2",
    "{z4}": "ρ2",
    "{z5}": "ι1",
    "{z1,z5}": "ρ12|ι1",
    "{z2,z4}": "ρ1|ρ2",
    "{z3,z5}": "ι12",
}


# ---------------------------------------------------------------------------
# the AZ bimodule


def test_az2_sector_has_five_generators():
    bs = az2_sector()
    assert bs.generator_names() == ["{z1}", "{z2}", "{z3}", "{z4}", "{z5}"]
    assert bs.kind == "AA"
    assert [s.kind for s in bs.sides] == ["beta", "alpha"]


@pytest.mark.parametrize("key, kind", [("rt2", "D"), ("rt2", "A"), ("u2", "D"),
                                       ("cap2", "A"), ("az2", "AA")])
def test_sides_are_the_interface_arc_diagrams(key, kind):
    bs = modules.bordered_invariant(pieces.build(key), kind)
    assert len(bs.sides) == len(bs.diagram.interfaces)
    for side, itf in zip(bs.sides, bs.diagram.interfaces):
        assert side is itf.arc_diagram


def test_action_census_reads_the_complex_darts(monkeypatch):
    """``bordered_invariant`` gates the diagram through ``differential``,
    whose complex keeps its dart build, and the action census reads that
    build instead of making its own."""
    builds = []
    real = sfc.Darts
    monkeypatch.setattr(sfc, "Darts", lambda d: builds.append(d) or real(d))
    assert modules.bordered_invariant(pieces.az2(), "AA").tables
    assert len(builds) == 1


def test_az2_sector_idempotents():
    bs = az2_sector()
    names = bs.generator_names()
    left = {n: set(bs.occupancy[0][x]) for n, x in zip(names, bs.generators)}
    right = {n: set(bs.occupancy[1][x]) for n, x in zip(names, bs.generators)}
    assert left == {"{z1}": {2}, "{z2}": {2}, "{z3}": {2}, "{z4}": {1}, "{z5}": {1}}
    assert right == {"{z1}": {2}, "{z2}": {1}, "{z3}": {2}, "{z4}": {2}, "{z5}": {1}}


def test_az2_sector_action_table_golden():
    assert modules.dump(az2_sector()) == "\n".join(
        [
            "m[1|1|0](ι1, {z4}) = {z4}",
            "m[1|1|0](ι1, {z5}) = {z5}",
            "m[1|1|0](ι2, {z1}) = {z1}",
            "m[1|1|0](ι2, {z2}) = {z2}",
            "m[1|1|0](ι2, {z3}) = {z3}",
            "m[1|1|0](ρ1, {z1}) = {z4}",
            "m[1|1|0](ρ1, {z2}) = {z5}",
            "m[1|1|0](ρ12, {z1}) = {z3}",
            "m[1|1|0](ρ2, {z4}) = {z3}",
            "m[0|1|1]({z2}, ι1) = {z2}",
            "m[0|1|1]({z5}, ι1) = {z5}",
            "m[0|1|1]({z1}, ι2) = {z1}",
            "m[0|1|1]({z3}, ι2) = {z3}",
            "m[0|1|1]({z4}, ι2) = {z4}",
            "m[0|1|1]({z2}, ρ1) = {z3}",
            "m[0|1|1]({z1}, ρ12) = {z3}",
            "m[0|1|1]({z1}, ρ2) = {z2}",
            "m[0|1|1]({z4}, ρ2) = {z5}",
        ]
    )


def test_az2_sector_has_no_differential():
    bs = az2_sector()
    assert not any(bs.differential[x] for x in bs.generators)


def test_az2_three_face_strip_carries_no_action():
    # D1 ∪ D3 ∪ D4 looks like a chord domain but is not embedded as one
    bs = oracles.as_reference(az2_sector())
    records = sfc.action_census(pieces.az2())
    assert not any(set(r.faces) == {"D1", "D3", "D4"} for r in records)
    rho12 = modules.algebra_basis(bs, 0)["ρ12"]
    z2 = next(x for x in bs.generators if name(x) == "{z2}")
    assert oracles.act(bs, 0, rho12, z2) == frozenset()


def test_az2_full_module_generators_and_differential():
    bs = modules.bordered_invariant(pieces.az2(), "AA")
    assert bs.generator_names() == [
        "∅", "{z1}", "{z1,z5}", "{z2}", "{z2,z4}",
        "{z3}", "{z3,z5}", "{z4}", "{z5}",
    ]
    diff = {
        name(x): {name(y) for y in ys}
        for x, ys in oracles.as_reference(bs).differential.items()
    }
    assert diff == {"{z2,z4}": {"{z1,z5}"}}
    assert modules.dump(bs).splitlines()[0] == "m[0|1|0]({z2,z4}) = {z1,z5}"


def _duality_check(bs, tags):
    """The actions agree with right/left multiplication on dual labels:
    a·b∨ = Σ_c [b ∈ a·c] c∨  and  b∨·a = Σ_c [b ∈ c·a] c∨."""
    bs = oracles.as_reference(bs)
    basis_l = modules.algebra_basis(bs, 0)
    basis_r = modules.algebra_basis(bs, 1)
    for x in bs.generators:
        b_left = next(iter(basis_l[tags[name(x)]].terms))
        b_right = next(iter(basis_r[tags[name(x)]].terms))
        for a in basis_l.values():
            got = {name(y) for y in oracles.act(bs, 0, a, x)}
            want = {
                nm
                for nm, t in tags.items()
                if b_left in strands.multiply(a, basis_l[t]).terms
            }
            assert got == want
        for a in basis_r.values():
            got = {name(y) for y in oracles.act(bs, 1, a, x)}
            want = {
                nm
                for nm, t in tags.items()
                if b_right in strands.multiply(basis_r[t], a).terms
            }
            assert got == want


def test_az2_sector_is_dual_to_the_one_strand_summand():
    tags = {k: v for k, v in DUAL_TAGS.items() if k in
            {"{z1}", "{z2}", "{z3}", "{z4}", "{z5}"}}
    _duality_check(az2_sector(), tags)


def test_az2_full_module_is_dual_to_the_whole_algebra():
    _duality_check(modules.bordered_invariant(pieces.az2(), "AA"), DUAL_TAGS)


# ---------------------------------------------------------------------------
# the small pieces


def test_unknot_and_cap_pieces_are_elementary():
    for build, kind, gens in [
        (pieces.u1, "A", ["{e}"]),
        (pieces.u2, "A", ["{c}"]),
        (pieces.cap1, "A", ["∅"]),
        (pieces.cap2, "D", ["{w}"]),
    ]:
        bs = modules.bordered_invariant(build(), kind)
        assert bs.generator_names() == gens
        assert oracles.is_elementary(bs)
        assert oracles.check_relations(oracles.as_reference(bs))["ok"]
    assert modules.bordered_invariant(pieces.cap2(), "D").delta == {}


def test_twist_piece_is_not_elementary():
    assert not oracles.is_elementary(modules.bordered_invariant(pieces.rt2(), "A"))
    assert not oracles.is_elementary(modules.bordered_invariant(pieces.rt2(), "D"))


def test_twist_piece_type_d_golden():
    bs = modules.bordered_invariant(pieces.rt2(), "D")
    assert modules.dump(bs) == (
        "δ¹({z1}) = ι1 ⊗ {z3} + ρ2 ⊗ {z2}\n"
        "δ¹({z2}) = ρ1 ⊗ {z3}"
    )
    ref = oracles.as_reference(bs)
    z3 = next(x for x in ref.generators if name(x) == "{z3}")
    assert z3 not in ref.delta
    # the ι1 term is the piece's interior differential z1 -> z3
    diff = {name(x): {name(y) for y in ys} for x, ys in ref.differential.items()}
    assert diff == {"{z1}": {"{z3}"}}


def test_twist_piece_idempotents():
    # the type-D side indexes generators by the complementary arcs
    bd = oracles.as_reference(modules.bordered_invariant(pieces.rt2(), "D"))
    ba = oracles.as_reference(modules.bordered_invariant(pieces.rt2(), "A"))
    arcs = set(bd.sides[0].matching.values())
    d_arcs = {name(x): arcs - bd.occupancy[0][x] for x in bd.generators}
    a_arcs = {name(x): set(ba.occupancy[0][x]) for x in ba.generators}
    assert d_arcs == {"{z1}": {1}, "{z2}": {2}, "{z3}": {1}}
    assert a_arcs == {"{z1}": {2}, "{z2}": {1}, "{z3}": {2}}


# ---------------------------------------------------------------------------
# the library structures against the frozenset-form builder


def _assert_is_reference(bs, d, kind, sector=None):
    """``bs`` is the frozenset-form structure of ``d`` field for field,
    its positions renamed through its complex's ``basis``."""
    got = oracles.as_reference(bs)
    want = oracles.reference_bordered_invariant(d, kind, sector)
    for f in dataclasses.fields(want):
        assert getattr(got, f.name) == getattr(want, f.name), f.name


# each catalog piece in each kind its interface count allows
CATALOG_KINDS = [
    (key, kind)
    for key in pieces.catalog()
    for kind in {1: ("A", "D"), 2: ("AA",)}.get(len(pieces.build(key).interfaces), ())
]


@pytest.mark.parametrize("key,kind", CATALOG_KINDS)
def test_library_structure_is_the_reference_on_the_catalog(key, kind):
    d = pieces.build(key)
    _assert_is_reference(modules.bordered_invariant(d, kind), d, kind)


@pytest.mark.parametrize("key,kind,sector", [
    *(("az2", "AA", (left, right)) for left in range(3) for right in range(3)),
    *(("rt2", "D", (count,)) for count in range(3)),
])
def test_library_structure_is_the_reference_on_every_sector(key, kind, sector):
    d = pieces.build(key)
    _assert_is_reference(modules.bordered_invariant(d, kind, sector=sector), d, kind, sector)


# ---------------------------------------------------------------------------
# structure relations


def corpus():
    return [
        az2_sector(),
        modules.bordered_invariant(pieces.az2(), "AA"),
        modules.bordered_invariant(pieces.u1(), "A"),
        modules.bordered_invariant(pieces.u2(), "A"),
        modules.bordered_invariant(pieces.cap1(), "A"),
        modules.bordered_invariant(pieces.rt2(), "A"),
        modules.bordered_invariant(pieces.mirror(pieces.cap1()), "D"),
        modules.bordered_invariant(pieces.cap2(), "D"),
        modules.bordered_invariant(pieces.rt2(), "D"),
    ]


def test_relations_hold_on_the_catalog():
    for bs in corpus():
        report = oracles.check_relations(oracles.as_reference(bs))
        assert report == {"ok": True, "violations": []}


def test_relations_detect_a_tampered_action():
    bs = oracles.reference_bordered_invariant(pieces.az2(), "AA", sector=(1, 1))
    z1 = next(x for x in bs.generators if name(x) == "{z1}")
    z5 = next(x for x in bs.generators if name(x) == "{z5}")
    bs.tables[0]["ρ1"][z1] = frozenset({z5})  # should be {z4}
    report = oracles.check_relations(bs)
    assert not report["ok"]
    assert any("composition fails" in v for v in report["violations"])


def test_relations_detect_a_tampered_differential():
    bs = oracles.reference_bordered_invariant(pieces.az2(), "AA")
    pair = next(x for x in bs.generators if name(x) == "{z1,z5}")
    empty = next(x for x in bs.generators if name(x) == "∅")
    bs.differential[pair] = frozenset({empty})
    report = oracles.check_relations(bs)
    assert any(v == "∂² ≠ 0 at {z2,z4}" for v in report["violations"])


def test_relations_detect_a_tampered_delta():
    bs = oracles.reference_bordered_invariant(pieces.rt2(), "D")
    z1 = next(x for x in bs.generators if name(x) == "{z1}")
    z2 = next(x for x in bs.generators if name(x) == "{z2}")
    bs.delta[z1] = frozenset({("ρ1", z2)})  # wrong chord for the idempotents
    report = oracles.check_relations(bs)
    assert not report["ok"]
    assert any("idempotent mismatch" in v for v in report["violations"])


# ---------------------------------------------------------------------------
# box tensor product


def _reference(bs):
    """The frozenset-form structure of the diagram ``bs`` was built from."""
    return oracles.reference_bordered_invariant(bs.complex, bs.kind)


def _assert_library_tensor(library, a, d):
    """The library's box tensor of the library structures ``a`` and
    ``d`` is the oracle's box tensor of their frozenset-form structures,
    field for field: the prefixed names, the index tuples in canonical
    order, the columns and the one class; and it has no diagram."""
    reference = oracles.box_tensor(_reference(a), _reference(d))
    assert library.diagram is None
    assert library.verts == reference.verts
    assert library.gens == reference.gens
    assert library.masks == reference.masks
    assert library.differential == reference.differential
    assert library.labels == reference.labels == [0] * len(library.gens)


def _catalog_pairing(a_piece, d_piece):
    """The oracle's box tensor of ``a_piece``'s type-A structure and the
    type-D structure of ``d_piece``'s mirror, checked first against the
    library's."""
    a = modules.bordered_invariant(a_piece, "A")
    d = modules.bordered_invariant(pieces.mirror(d_piece), "D")
    _assert_library_tensor(modules.box_tensor(a, d), a, d)
    return oracles.box_tensor(_reference(a), _reference(d))


def test_box_tensor_matches_the_one_handle_gluing():
    box = _catalog_pairing(pieces.u1(), pieces.cap1())
    cx = sfc.differential(pieces.handle1())
    assert box.basis == cx.basis
    assert box.differential.entries == cx.differential.entries
    assert sfc.homology(box).total == 1


def test_box_tensor_matches_the_two_handle_gluing():
    box = _catalog_pairing(pieces.u2(), pieces.cap2())
    cx = sfc.differential(pieces.handle2())
    assert box.basis == cx.basis
    assert [sorted(b) for b in box.basis] == [["L:c", "R:w"]]
    assert box.differential.entries == cx.differential.entries
    assert sfc.homology(box).total == 1


def test_box_tensor_matches_a_gluing_with_a_differential():
    """Capping the unknot piece with the twist piece pairs a delta chord
    against a boundary rectangle; the result must agree with the glued
    diagram map for map, not just in rank."""
    box = _catalog_pairing(pieces.u2(), pieces.rt2())
    glued = concatenate_bordered(pieces.u2(), pieces.mirror(pieces.rt2()))
    cx = sfc.differential(glued)
    assert [sorted(b) for b in box.basis] == [
        ["L:c", "R:z1"], ["L:c", "R:z3"],
    ]
    assert box.basis == cx.basis
    assert box.differential.entries == cx.differential.entries == frozenset({(0, 1)})
    assert sfc.homology(box).total == 0
    assert sfc.homology(glued).total == 0
    # ∂² = 0 directly on the box complex
    paths = {
        (r1, c2)
        for (r1, c1) in box.differential.entries
        for (r2, c2) in box.differential.entries
        if c1 == r2
    }
    assert not paths


def test_box_tensor_rejects_bad_inputs():
    """The oracle and the library refuse the same inputs, each in its
    own form."""
    for box_tensor, build in ((oracles.box_tensor, oracles.reference_bordered_invariant),
                              (modules.box_tensor, modules.bordered_invariant)):
        a = build(pieces.u2(), "A")
        d = build(pieces.mirror(pieces.cap2()), "D")
        with pytest.raises(ValueError, match="type-A with a type-D"):
            box_tensor(a, a)
        with pytest.raises(ValueError, match="type-A with a type-D"):
            box_tensor(d, d)
        with pytest.raises(ValueError, match="interval shapes"):
            box_tensor(a, build(pieces.mirror(pieces.cap1()), "D"))


# ---------------------------------------------------------------------------
# the pairing theorem on the pipelines' own structures


GRID_BASES = {"grid(3,1)": (3, 1), "grid(4,1)": (4, 1)}


def _pipeline_base(name):
    if name in GRID_BASES:
        return fixtures.punctured_grid(*GRID_BASES[name])
    return fixtures.bigonpair_power(3) if name == "bigonpair^3" else pieces.build(name)


# every free edge of the small bases, and the first four of each punctured grid
PIPELINE_SITES = [
    (name, site)
    for name in ("fix-disk", "fix-stab", "fix-bigonpair", "bigonpair^3", *GRID_BASES)
    for site in sorted(_pipeline_base(name).free_boundary_edge_ids())[
        : 4 if name in GRID_BASES else None
    ]
]

# differential entries of stage H5, the twist block over H3
TWIST_ENTRIES = {
    "fix-disk": 2, "fix-stab": 2, "fix-bigonpair": 4, "bigonpair^3": 16,
    "grid(3,1)": 21, "grid(4,1)": 96,
}


def _one_handle_cut(base, site):
    """The type-D structure of the base cut open for a 1-handle at ``site``."""
    return modules.bordered_invariant(glue.prepare_one_handle(base, site, site).d, "D")


def _two_handle_stages(base, site):
    """D(H3) and the staged 2-handle record, the 2-handle running over a
    1-handle attached at ``site``."""
    base2, handle = glue.one_handled(base, site)
    spec = glue.two_handle_spec(base2, handle)
    _d2, table, x0 = glue.sigma_map(base2, spec)
    rec = glue.glue_two_handle(table.source, spec, table.target, x0)
    return modules.bordered_invariant(rec["H3"], "D"), rec


def _assert_same_complex(box, cx):
    assert box.basis == cx.basis
    assert box.differential.entries == cx.differential.entries


def _assert_pairs_like_gluing(library, a, d, piece):
    """Three ways to one complex: the library's box tensor (as the
    pipeline built it), the unedited ``oracles.box_tensor`` of ``a`` and
    ``d``, and the complex of ``piece`` (the diagram of ``a``)
    concatenated onto ``d``'s diagram, basis and entries."""
    _assert_library_tensor(library, a, d)
    _assert_same_complex(library, sfc.differential(concatenate_bordered(piece, d.diagram)))


@pytest.mark.parametrize("name,site", PIPELINE_SITES)
def test_box_tensor_matches_the_one_handle_join_source(name, site):
    """A(cap1) ⊠ D(cut-open base) is the complex the 1-handle join starts from."""
    blocks = glue._handle_blocks("1")
    cut = _one_handle_cut(_pipeline_base(name), site)
    join = glue._elementary_join_full(blocks, cut)
    _assert_pairs_like_gluing(join.source, blocks.w, cut, pieces.cap1())


@pytest.mark.parametrize("name,site", PIPELINE_SITES)
def test_box_tensor_matches_the_one_handle_join_target(name, site):
    """A(u1 ∪ az1) ⊠ D(cut-open base) is the complex the 1-handle join
    lands in, and the pipeline's target, that tensor with the block's
    generator cancelled, is the complex of the block glued onto the cut
    and destabilized along its stabilizing pair, read without the
    ``R:`` prefix: the same crossings, generators and columns."""
    base = _pipeline_base(name)
    blocks = glue._handle_blocks("1")
    cut = _one_handle_cut(base, site)
    join = glue._elementary_join_full(blocks, cut)
    block = concatenate_bordered(pieces.u1(), pieces.az1())
    _assert_pairs_like_gluing(join.target, modules.bordered_invariant(block, "A"), cut, block)
    glued, _forced = oracles.reference_trivial_destabilize(
        concatenate_bordered(blocks.a.diagram, cut.diagram), "L:L:Ae", "L:L:Be"
    )
    reference = sfc.differential(glued)
    target = glue.glue_one_handle(base, site, site).target
    assert target.verts == [v.removeprefix("R:") for v in reference.verts]
    assert target.gens == reference.gens
    assert target.differential.columns == reference.differential.columns


def test_cancelling_the_block_generator_refuses_a_generator_without_it():
    """Stage H5's type-A side, rt2, has generators at three different
    crossings, so not every generator holds its ``L:`` crossings."""
    _h3, rec = _two_handle_stages(pieces.build("fix-stab"), "bd")
    with pytest.raises(AssertionError, match="misses the block's generator"):
        glue._cancel_block_generator(rec["H5"])


@pytest.mark.parametrize("name,site", PIPELINE_SITES)
def test_box_tensor_matches_the_two_handle_stages(name, site):
    """A(cap2) ⊠ D(H3) is the 2-handle join's source, A(u2 ∪ az2) ⊠ D(H3)
    its target (stage H4), and A(rt2) ⊠ D(H3) stage H5, differential
    entries included."""
    h3, rec = _two_handle_stages(_pipeline_base(name), site)
    blocks = glue._handle_blocks("2")
    join = glue._elementary_join_full(blocks, h3)
    _assert_pairs_like_gluing(join.source, blocks.w, h3, pieces.cap2())
    block = concatenate_bordered(pieces.u2(), pieces.az2())
    _assert_pairs_like_gluing(join.target, modules.bordered_invariant(block, "A"), h3, block)
    assert rec["H4"].basis == join.target.basis
    assert rec["H4"].differential == join.target.differential
    twist = modules.bordered_invariant(pieces.rt2(), "A")
    _assert_pairs_like_gluing(rec["H5"], twist, h3, pieces.rt2())
    assert len(rec["H5"].differential.entries) == TWIST_ENTRIES[name]


@pytest.mark.parametrize("name,site", PIPELINE_SITES)
def test_library_structure_is_the_reference_on_the_pipeline_cuts(name, site):
    """The type-D structures of the 1-handle cut and of the 2-handle cut
    H3, the 2-handle running over a 1-handle attached at ``site``."""
    base = _pipeline_base(name)
    base2, handle = glue.one_handled(base, site)
    spec = glue.two_handle_spec(base2, handle)
    cuts = (glue.prepare_one_handle(base, site, site).d,
            glue.prepare_two_handle(base2, spec)[0].d)
    for d in cuts:
        _assert_is_reference(modules.bordered_invariant(d, "D"), d, "D")


@pytest.mark.parametrize("name,site", PIPELINE_SITES)
def test_relations_hold_on_the_pipelines_type_d_structures(name, site):
    base = _pipeline_base(name)
    h3, _rec = _two_handle_stages(base, site)
    for bs in (_one_handle_cut(base, site), h3):
        assert oracles.check_relations(oracles.as_reference(bs)) == {"ok": True, "violations": []}


# a diagram's complex per catalog piece, and the staged complexes per pipeline site
MASK_CASES = [(key, None) for key in sorted(pieces.catalog())
              + ["fix-bigonpair", "fix-disk", "fix-stab"]] + PIPELINE_SITES


@pytest.mark.parametrize("name,site", MASK_CASES)
def test_every_complex_keeps_its_generators_masks(name, site):
    """Each of the three complex builders stores every generator's
    crossing mask, one per generator: ``sfc.differential`` of a catalog
    piece; at a pipeline site, the box tensors H4 and H5 and the 1-handle
    target, the join's box tensor with the block's generator cancelled."""
    if site is None:
        complexes = [sfc.differential(pieces.build(name))]
    else:
        base = _pipeline_base(name)
        _h3, rec = _two_handle_stages(base, site)
        complexes = [rec["H4"], rec["H5"], glue.glue_one_handle(base, site, site).target]
    for cx in complexes:
        assert cx.masks == [sum(1 << i for i in g) for g in cx.gens]
        assert len(set(cx.masks)) == len(cx.masks)


# ---------------------------------------------------------------------------
# hand-built census moves: the guards no catalog piece or pipeline trips
#
# A crossing strictly inside one quadrilateral is a corner of no other
# that avoids its faces, so on census moves the interior check repeats
# the disjoint-faces check; and no census chord of the catalog or the
# pipelines misses its right idempotent.  These cases build the moves
# by hand: each differs from a clean one by one move, and one guard
# alone turns its output to zero.


def _record(start, end, x_pt, y_pt, faces, interior=()):
    return sfc.ActionRecord(0, 0, start, end, x_pt, y_pt, tuple(faces), frozenset(interior))


def _hand_built(kind, z, verts, gens, occupancy, records):
    """One structure without differential over ``gens`` (index tuples
    into ``verts``), in the library's form and the oracle's, with the
    records as the library's moves and the generators as vertex-id sets."""
    masks = [sum(1 << i for i in g) for g in gens]
    cx = sfc.ChainComplexF2(verts, gens, masks, BinaryMatrix(len(gens), (0,) * len(gens)), None)
    positions = list(range(len(gens)))
    lib = modules.BorderedStructure(kind, cx, [z], positions, [occupancy], [{}], {})
    sets = [frozenset(verts[i] for i in g) for g in gens]
    ref = oracles.BorderedStructure(kind, None, [z], sets, [dict(zip(sets, occupancy))],
                                    {}, [{}], {})
    bit = {v: 1 << i for i, v in enumerate(verts)}
    moves = [(r, bit[r.x_pt], bit[r.y_pt], sum(map(bit.__getitem__, r.interior)))
             for r in records]
    return lib, ref, sets, moves, {m: x for x, m in enumerate(masks)}


# three arcs on one interval; the two strands p1 -> p2 and p3 -> p4
THREE_ARCS = ArcDiagram([["p0", "p1", "p2", "p3", "p4", "p5"]],
                        {"p0": 0, "p1": 1, "p2": 2, "p3": 0, "p4": 1, "p5": 2}, "alpha")


@pytest.mark.parametrize("faces2, interior1, acts", [
    pytest.param(["F2"], [], True, id="apart"),
    # the pairwise-disjoint-faces check
    pytest.param(["F1"], [], False, id="sharing a face"),
    # the y-corners-meet-an-interior check
    pytest.param(["F2"], ["y2"], False, id="a y-corner inside"),
])
def test_two_strand_action_from_hand_built_moves(faces2, interior1, acts):
    """A two-strand chord acts on {x1, x2} by one rectangle per strand,
    to {y1, y2}, unless the rectangles share a face or a y-corner lies
    inside the other rectangle."""
    records = [_record(1, 2, "x1", "y1", ["F1"], interior1), _record(3, 4, "x2", "y2", faces2)]
    lib, ref, sets, moves, position = _hand_built(
        "A", THREE_ARCS, ["x1", "x2", "y1", "y2"], [(0, 1), (2, 3)],
        [frozenset({1, 2})] * 2, records)
    term = next(iter(strands.element(THREE_ARCS, [("p1", "p2"), ("p3", "p4")], []).terms))
    assert modules._act_raw(lib, 0, moves, position, term, 0) == (0b10 if acts else 0)
    want = frozenset({sets[1]} if acts else ())
    assert oracles._act_raw(ref, 0, records, set(sets), term, sets[0]) == want


# two arcs on one interval, as on the torus's matched circle
TWO_ARCS = ArcDiagram([["p0", "p1", "p2", "p3"]], {"p0": 0, "p1": 1, "p2": 0, "p3": 1}, "alpha")


@pytest.mark.parametrize("target_arcs, kept", [
    pytest.param({0}, True, id="right idempotent met"),
    pytest.param({1}, False, id="right idempotent missed"),  # the right-idempotent check
])
def test_delta_chord_from_a_hand_built_move(target_arcs, kept):
    """{x} occupies arc 1, so its chord p0 -> p1 leaves from the free
    arc 0 and arrives on arc 1: δ¹ keeps the term only when {y} leaves
    arc 1 free."""
    records = [_record(0, 1, "x", "y", ["F"])]
    lib, ref, sets, moves, position = _hand_built(
        "D", TWO_ARCS, ["x", "y"], [(0,), (1,)],
        [frozenset({1}), frozenset(target_arcs)], records)
    label = strands.label(strands.element(TWO_ARCS, [("p0", "p1")], []))
    got = modules._delta_table(lib, moves, position)
    assert got == ({0: frozenset({(label, 1)})} if kept else {})
    want = {sets[0]: frozenset({(label, sets[1])})} if kept else {}
    assert oracles._delta_table(ref, records) == want


# ---------------------------------------------------------------------------
# guards


def test_bordered_invariant_rejects_non_nice_diagrams():
    d = pieces.az2()
    d.faces["Sbig"].suture = False  # a 9-sided region enters the census
    with pytest.raises(ValueError, match="not nice"):
        modules.bordered_invariant(d, "AA")


def test_bordered_invariant_interface_count_guards():
    with pytest.raises(ValueError, match="needs 1 interface"):
        modules.bordered_invariant(pieces.az2(), "D")
    with pytest.raises(ValueError, match="needs 2 interface"):
        modules.bordered_invariant(pieces.u1(), "AA")
    with pytest.raises(ValueError, match="unknown structure kind"):
        modules.bordered_invariant(pieces.u1(), "DD")
    with pytest.raises(ValueError, match="sector length"):
        modules.bordered_invariant(pieces.u1(), "A", sector=(1, 1))
    for count in (-1, 3):
        with pytest.raises(ValueError, match=f"sector count {count} for interface 0 is outside 0..2"):
            modules.bordered_invariant(pieces.rt2(), "D", sector=(count,))

