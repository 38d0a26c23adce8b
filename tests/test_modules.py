"""Bordered structures of the catalog pieces and of the gluing
pipelines: frozen action tables, duality against the strands algebra,
and the structure relations and box tensor product of ``oracles``
checked against actual gluings."""

import copy

import pytest

import fixtures
import oracles
from sutured import glue, modules, pieces, sfc, strands
from sutured.surface import concatenate_bordered


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
    left = {name(x): set(bs.occupancy[0][x]) for x in bs.generators}
    right = {name(x): set(bs.occupancy[1][x]) for x in bs.generators}
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
    assert az2_sector().differential == {}


def test_az2_three_face_strip_carries_no_action():
    # D1 ∪ D3 ∪ D4 looks like a chord domain but is not embedded as one
    bs = az2_sector()
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
        name(x): {name(y) for y in ys} for x, ys in bs.differential.items()
    }
    assert diff == {"{z2,z4}": {"{z1,z5}"}}
    assert modules.dump(bs).splitlines()[0] == "m[0|1|0]({z2,z4}) = {z1,z5}"


def _duality_check(bs, tags):
    """The actions agree with right/left multiplication on dual labels:
    a·b∨ = Σ_c [b ∈ a·c] c∨  and  b∨·a = Σ_c [b ∈ c·a] c∨."""
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
        assert modules.is_elementary(bs)
        assert oracles.check_relations(bs)["ok"]
    assert modules.bordered_invariant(pieces.cap2(), "D").delta == {}


def test_twist_piece_is_not_elementary():
    assert not modules.is_elementary(modules.bordered_invariant(pieces.rt2(), "A"))
    assert not modules.is_elementary(modules.bordered_invariant(pieces.rt2(), "D"))


def test_twist_piece_type_d_golden():
    bs = modules.bordered_invariant(pieces.rt2(), "D")
    assert modules.dump(bs) == (
        "δ¹({z1}) = ι1 ⊗ {z3} + ρ2 ⊗ {z2}\n"
        "δ¹({z2}) = ρ1 ⊗ {z3}"
    )
    z3 = next(x for x in bs.generators if name(x) == "{z3}")
    assert z3 not in bs.delta
    # the ι1 term is the piece's interior differential z1 -> z3
    diff = {name(x): {name(y) for y in ys} for x, ys in bs.differential.items()}
    assert diff == {"{z1}": {"{z3}"}}


def test_twist_piece_idempotents():
    # the type-D side indexes generators by the complementary arcs
    bd = modules.bordered_invariant(pieces.rt2(), "D")
    ba = modules.bordered_invariant(pieces.rt2(), "A")
    arcs = set(bd.sides[0].matching.values())
    d_arcs = {name(x): arcs - bd.occupancy[0][x] for x in bd.generators}
    a_arcs = {name(x): set(ba.occupancy[0][x]) for x in ba.generators}
    assert d_arcs == {"{z1}": {1}, "{z2}": {2}, "{z3}": {1}}
    assert a_arcs == {"{z1}": {2}, "{z2}": {1}, "{z3}": {2}}


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
        report = oracles.check_relations(bs)
        assert report == {"ok": True, "violations": []}


def test_relations_detect_a_tampered_action():
    bs = copy.deepcopy(az2_sector())
    z1 = next(x for x in bs.generators if name(x) == "{z1}")
    z5 = next(x for x in bs.generators if name(x) == "{z5}")
    bs.tables[0]["ρ1"][z1] = frozenset({z5})  # should be {z4}
    report = oracles.check_relations(bs)
    assert not report["ok"]
    assert any("composition fails" in v for v in report["violations"])


def test_relations_detect_a_tampered_differential():
    bs = copy.deepcopy(modules.bordered_invariant(pieces.az2(), "AA"))
    pair = next(x for x in bs.generators if name(x) == "{z1,z5}")
    empty = next(x for x in bs.generators if name(x) == "∅")
    bs.differential[pair] = frozenset({empty})
    report = oracles.check_relations(bs)
    assert any(v == "∂² ≠ 0 at {z2,z4}" for v in report["violations"])


def test_relations_detect_a_tampered_delta():
    bs = copy.deepcopy(modules.bordered_invariant(pieces.rt2(), "D"))
    z1 = next(x for x in bs.generators if name(x) == "{z1}")
    z2 = next(x for x in bs.generators if name(x) == "{z2}")
    bs.delta[z1] = frozenset({("ρ1", z2)})  # wrong chord for the idempotents
    report = oracles.check_relations(bs)
    assert not report["ok"]
    assert any("idempotent mismatch" in v for v in report["violations"])


# ---------------------------------------------------------------------------
# box tensor product


def _assert_library_tensor(library, a, d):
    """The library's box tensor of ``a`` and ``d`` is the oracle's, field
    for field: the prefixed names, the index tuples in canonical order,
    the columns and the one class; and it has no diagram."""
    reference = oracles.box_tensor(a, d)
    assert library.diagram is None
    assert library.verts == reference.verts
    assert library.gens == reference.gens
    assert library.differential == reference.differential
    assert library.labels == reference.labels == [0] * len(library.gens)


def _catalog_pairing(a_piece, d_piece):
    """The oracle's box tensor of ``a_piece``'s type-A structure and the
    type-D structure of ``d_piece``'s mirror, checked first against the
    library's."""
    a = modules.bordered_invariant(a_piece, "A")
    d = modules.bordered_invariant(pieces.mirror(d_piece), "D")
    _assert_library_tensor(modules.box_tensor(a, d), a, d)
    return oracles.box_tensor(a, d)


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
    """The oracle and the library refuse the same inputs."""
    a = modules.bordered_invariant(pieces.u2(), "A")
    d = modules.bordered_invariant(pieces.mirror(pieces.cap2()), "D")
    for box_tensor in (oracles.box_tensor, modules.box_tensor):
        with pytest.raises(ValueError, match="type-A with a type-D"):
            box_tensor(a, a)
        with pytest.raises(ValueError, match="type-A with a type-D"):
            box_tensor(d, d)
        with pytest.raises(ValueError, match="interval shapes"):
            box_tensor(a, modules.bordered_invariant(pieces.mirror(pieces.cap1()), "D"))


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
    rec = glue.glue_two_handle(base2, spec, *glue.direct_two_handle(base2, spec))
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
        concatenate_bordered(blocks.block, cut.diagram), "L:L:Ae", "L:L:Be"
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
def test_relations_hold_on_the_pipelines_type_d_structures(name, site):
    base = _pipeline_base(name)
    h3, _rec = _two_handle_stages(base, site)
    for bs in (_one_handle_cut(base, site), h3):
        assert oracles.check_relations(bs) == {"ok": True, "violations": []}


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

