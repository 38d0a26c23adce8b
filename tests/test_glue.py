"""Handle attachment maps: diagrammatic transports, the staged pipelines
through the builtin blocks, and the route-comparison harness."""

import copy
import json
import random

import pytest

import fixtures
import oracles
import sequences
from sutured import cli, glue, modules, pieces, sfc, surface
from sutured.darts import Darts
from sutured.exactlin import BinaryMatrix
from sutured.glue import ChainMapTable, HandleSpec, compose

FIXTURES = sequences.FIXTURES


def name(x):
    return modules.format_generator(x)


def images(table):
    """Each source generator's image, as a set of target generators."""
    return {g: oracles.apply_table(table, [g]) for g in table.source.basis}


def build(key):
    return pieces.build(key)


# ---------------------------------------------------------------------------
# diagrammatic transports


def test_one_handle_transport_is_identity_on_generators():
    d = build("fix-disk")
    d2, table, x0 = glue.sigma_map(d, HandleSpec("1", p="s0", q="s0"))
    assert x0 is None
    assert images(table) == {frozenset(): frozenset([frozenset()])}
    assert sfc.homology(d2).total == 1


def test_two_handle_transport_adds_the_forced_point():
    d, handle = glue.one_handled(build("fix-disk"))
    spec = glue.two_handle_spec(d, handle)
    d2, table, x0 = glue.sigma_map(d, spec)
    assert x0 == d2.marks["x0"]
    assert images(table) == {frozenset(): frozenset([frozenset([x0])])}
    assert sfc.homology(d2).total == 1


def test_bypass_transports_are_isomorphisms():
    for sign in ("+", "-"):
        d = build("fix-bigonpair")
        d2, table, x0 = glue.sigma_map(d, HandleSpec(f"bypass{sign}", site="co"))
        assert x0 is not None
        assert table.is_bijection()
        assert sfc.homology(d2).total == sfc.homology(d).total == 2


def test_unknown_handle_kind_is_rejected():
    with pytest.raises(ValueError, match="unknown handle kind"):
        glue.sigma_map(build("fix-disk"), HandleSpec("3", p="s0", q="s0"))


def test_compose_chains_tables_and_rejects_mismatches():
    d = build("fix-stab")
    d2, t1, _ = glue.sigma_map(d, HandleSpec("1", p="bd", q="bd"))
    free = sorted(d2.free_boundary_edge_ids())
    d3, t2, _ = glue.sigma_map(d2, HandleSpec("1", p=free[0], q=free[-1]))
    both = compose(t2, t1)
    assert images(both) == {frozenset(["c"]): frozenset([frozenset(["c"])])}
    assert not both.check()
    assert len(both.digest()) == 64
    other = glue.sigma_map(build("fix-bigonpair"), HandleSpec("1", p="ci", q="co"))[1]
    with pytest.raises(ValueError, match="do not compose"):
        compose(t1, other)


def test_chain_map_tables_refuse_stray_images_and_bad_shapes():
    cx = sfc.differential(build("fix-stab"))
    with pytest.raises(AssertionError, match=r"^stray: image \{zz\} of \{c\} is not a generator$"):
        glue._generator_map(cx, cx, "stray", lambda v: "zz")
    with pytest.raises(ValueError, match="shape"):
        ChainMapTable(cx, cx, BinaryMatrix(len(cx.basis), ()))
    with pytest.raises(ValueError, match="out of bounds"):
        ChainMapTable(cx, cx, BinaryMatrix(len(cx.basis), (1 << len(cx.basis),)))
    with pytest.raises(ValueError, match=r"^column 1 has an entry out of bounds$"):
        BinaryMatrix(len(cx.basis), (0, -1, 1 << len(cx.basis)))


def test_generator_map_refusals_name_the_table():
    """A renamed crossing the target lacks, a stray added crossing and a
    source generator without a dropped crossing are each refused with
    the table named: the builder's three rules, which the join's images
    (drop the pairing piece's generator, add the handle block's and the
    tags) and the base inclusions (rename into ``R:``) rely on."""
    cx = sfc.differential(build("fix-stab"))  # one generator, {c}
    with pytest.raises(AssertionError, match=r"^renamed: image \{R:c\} of \{c\} is not a generator$"):
        glue._generator_map(cx, cx, "renamed", "R:".__add__)
    with pytest.raises(AssertionError, match=r"^added: image \{c,zz\} of \{c\} is not a generator$"):
        glue._generator_map(cx, cx, "added", extra=["zz"])
    with pytest.raises(AssertionError, match=r"^dropped: source generator \{c\} misses \{zz\}$"):
        glue._generator_map(cx, cx, "dropped", drop=["zz"])
    pair = sfc.differential(build("bigonpair"))  # {x}, whose image is itself, and {y}
    with pytest.raises(AssertionError, match=r"^dropped: source generator \{y\} misses \{x\}$"):
        glue._generator_map(pair, pair, "dropped", extra=["x"], drop=["x"])


def test_stray_join_image_exits_2(monkeypatch, capsys, tmp_path):
    """A join image outside the target complex is an invariant violation."""
    real = glue._handle_blocks
    monkeypatch.setattr(glue, "_handle_blocks", lambda kind: real(kind)._replace(tags=["zz"]))
    diagram = tmp_path / "stab.json"
    diagram.write_text(surface.serialize(build("fix-stab")))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(glue.spec_to_json(HandleSpec("1", p="bd", q="bd"))))
    assert cli.main(["glue", str(diagram), "--spec", str(spec)]) == 2
    assert "join table: image" in capsys.readouterr().err


def test_is_bijection_refuses_zero_and_repeated_columns():
    _d2, table, _x0 = glue.sigma_map(build("fix-bigonpair"), HandleSpec("bypass+", site="co"))
    assert table.is_bijection()
    first, second = table.matrix.columns
    for columns in ((0, second), (first, first)):
        skewed = ChainMapTable(table.source, table.target, BinaryMatrix(table.matrix.rows, columns))
        assert not skewed.check() and not skewed.is_bijection()


# ---------------------------------------------------------------------------
# cutting the base open


def test_prepare_one_handle_keeps_free_margins():
    d = build("fix-disk")
    cut = glue.prepare_one_handle(d, "s0", "s0").d
    assert len(cut.interfaces) == 1
    iface = cut.interfaces[0]
    assert [len(iv) for iv in iface.intervals] == [1, 1]
    assert not iface.arc_diagram.points()
    assert cut.free_boundary_edge_ids()
    with pytest.raises(ValueError, match="closed diagram"):
        glue.prepare_one_handle(cut, "s0.0.0", "s0.0.0")


@pytest.mark.parametrize("key", FIXTURES)
def test_prepare_one_handle_keeps_suture_flags(key):
    """The feet's margins stay free, so cutting at any free site leaves
    every face's suture flag as the base had it; the gate, which sets
    the flags from the regions, must find nothing to change."""
    d = build(key)
    flags = {f: face.suture for f, face in d.faces.items()}
    for site in sorted(d.free_boundary_edge_ids()):
        cut = glue.prepare_one_handle(d, site, site).d
        assert {f: face.suture for f, face in cut.faces.items()} == flags, site


def test_prepare_two_handle_interface_and_marks():
    d, handle = glue.one_handled(build("fix-disk"))
    spec = glue.two_handle_spec(d, handle)
    hv = glue.prepare_two_handle(d, spec.p, spec.q, spec.a_path, spec.b_path)[0].d
    iface = hv.interfaces[0]
    assert [len(iv) for iv in iface.arc_diagram.intervals] == [3, 1]
    assert [len(iv) for iv in iface.intervals] == [4, 2]
    assert sorted(iface.arcs) == [1, 2]
    assert set(hv.marks) == {"x0", "y0"}
    cx = sfc.differential(hv)
    assert sorted(sorted(g) for g in cx.basis) == sorted(
        [[hv.marks["x0"]], [hv.marks["y0"]]]
    )
    assert all(not oracles.boundary_of(cx, g) for g in cx.basis)


def _two_handled(key):
    """The base ``key`` after the canonical 1-handle-then-2-handle pair,
    so that it already carries an ``x0`` mark."""
    d = build(key)
    for spec in glue.two_handle_sequence(d):
        d = glue.sigma_map(d, spec)[0]
    return d


@pytest.mark.parametrize("key", ["fix-disk", "fix-stab", "fix-bigonpair"])
@pytest.mark.parametrize("twice", [False, True], ids=["once", "twice"])
def test_prepare_two_handle_returns_its_crossings(key, twice):
    """``x0`` and ``y0`` are the cut's crossings on the long and the short
    interface arc, and the vertices of the marks the cut adds (``x0_1``
    where the base has an ``x0`` already)."""
    d, handle = glue.one_handled(_two_handled(key) if twice else build(key))
    spec = glue.two_handle_spec(d, handle)
    dx, x0, y0 = glue.prepare_two_handle(d, spec.p, spec.q, spec.a_path, spec.b_path)
    cut = dx.d
    added = {k: v for k, v in cut.marks.items() if k not in d.marks}
    assert added == ({"x0_1": x0, "y0": y0} if twice else {"x0": x0, "y0": y0})
    arcs = cut.interfaces[0].arcs
    for v, arc in ((x0, arcs[2]), (y0, arcs[1])):  # arc 2 is the long one
        assert dx.crossings[v]["alpha"] == arc  # a crossing on that arc


def test_prepare_two_handle_validates_paths():
    d, handle = glue.one_handled(build("fix-disk"))
    spec = glue.two_handle_spec(d, handle)
    with pytest.raises(ValueError, match="cannot cross"):
        glue.prepare_two_handle(
            d, spec.p, spec.q,
            surface.TransversePath(["S", "nope", "f0"]), spec.b_path,
        )
    with pytest.raises(ValueError, match="missing face"):
        glue.prepare_two_handle(
            d, spec.p, spec.q,
            surface.TransversePath(["nope", spec.a_path.crossed()[0], "f0"]),
            spec.b_path,
        )
    with pytest.raises(ValueError, match="distinct edges"):
        glue.prepare_two_handle(d, spec.p, spec.q, spec.a_path, spec.a_path)
    with pytest.raises(ValueError, match="from the face at p"):
        glue.prepare_two_handle(
            d, spec.p, spec.q,
            surface.TransversePath(["f0", spec.a_path.crossed()[0], "S"]),
            spec.b_path,
        )


# ---------------------------------------------------------------------------
# one-handle pipeline vs transport


@pytest.mark.parametrize("key", FIXTURES)
def test_one_handle_pipeline_matches_transport(key):
    d = build(key)
    free = sorted(d.free_boundary_edge_ids())
    for p, q in {(free[0], free[0]), (free[0], free[-1])}:
        table = glue.glue_one_handle(d, p, q)
        _d2, sigma, _x0 = glue.sigma_map(d, HandleSpec("1", p=p, q=q))
        assert images(table) == images(sigma)
        assert not table.check()
        staged, direct = table.target, sigma.target
        assert (staged.verts, staged.gens) == (direct.verts, direct.gens)
        assert staged.differential == direct.differential
        assert sfc.homology(staged).total == sfc.homology(d).total


# ---------------------------------------------------------------------------
# the elementary join


def test_square_pairing_join_leaves_base_generators_alone():
    cut = glue.prepare_one_handle(build("fix-bigonpair"), "ci", "co").d
    blocks = glue.pairing_blocks(
        modules.bordered_invariant(pieces.u1(), "D"),
        modules.bordered_invariant(pieces.cap1(), "A"),
    )
    v = modules.bordered_invariant(cut, "D")
    table = glue._elementary_join_full(blocks, v)
    assert not table.check()
    for g, img in images(table).items():
        assert img == frozenset([frozenset(set(g) | {"L:L:e"})])


def test_five_point_pairing_join_tags_the_outer_arc():
    d, handle = glue.one_handled(build("fix-stab"))
    spec = glue.two_handle_spec(d, handle)
    hv = glue.prepare_two_handle(d, spec.p, spec.q, spec.a_path, spec.b_path)[0].d
    blocks = glue.pairing_blocks(
        modules.bordered_invariant(pieces.u2(), "D"),
        modules.bordered_invariant(pieces.cap2(), "A"),
    )
    v = modules.bordered_invariant(hv, "D")
    table = glue._elementary_join_full(blocks, v)
    for g, img in images(table).items():
        (target,) = img
        assert {"L:L:c", "L:R:z3"} <= target
        assert "L:R:z5" not in target


def test_join_rejections():
    u = modules.bordered_invariant(pieces.u1(), "D")
    w = modules.bordered_invariant(pieces.cap1(), "A")
    busy = modules.bordered_invariant(pieces.mirror(pieces.rt2()), "A")
    with pytest.raises(ValueError, match="not elementary"):
        glue.pairing_blocks(u, busy)
    with pytest.raises(ValueError, match="single generator"):
        glue.pairing_blocks(modules.bordered_invariant(pieces.rt2(), "D"), w)
    with pytest.raises(ValueError, match="handle block must be a type-D structure"):
        glue.pairing_blocks(w, w)
    with pytest.raises(ValueError, match="type-A structure"):
        glue.pairing_blocks(u, u)
    with pytest.raises(ValueError, match="base must be a type-D structure"):
        glue._elementary_join_full(glue.pairing_blocks(u, w), w)


# ---------------------------------------------------------------------------
# the staged two-handle record


@pytest.mark.parametrize("key", FIXTURES)
def test_staged_record_identity_and_stage_ranks(key):
    d = build(key)
    spec = glue.two_handle_sequence(d)[1]
    base, _handle = glue.one_handled(d)
    rec = glue.glue_two_handle(base, spec, *glue.direct_two_handle(base, spec))
    rep = rec["identityReport"]
    assert rep["ok"] and not rep["failures"]
    assert rep["ranks_agree"]
    assert rep["cycles"] == len(sfc.generators(d))  # all fixtures have zero maps
    assert rec["x0"] in rec["H6"].diagram.vertices


def test_twist_stage_differential_realizes_the_identity():
    base, handle = glue.one_handled(build("fix-disk"))
    spec = glue.two_handle_spec(base, handle)
    rec = glue.glue_two_handle(base, spec, *glue.direct_two_handle(base, spec))
    marks = {k: v for k, v in rec["H3"].diagram.marks.items()}
    x0, y0 = f"R:{marks['x0']}", f"R:{marks['y0']}"
    cx5 = rec["H5"]
    start = frozenset({"L:z1", y0})
    assert oracles.boundary_of(cx5, start) == {
        frozenset({"L:z3", y0}),
        frozenset({"L:z2", x0}),
    }
    assert not oracles.boundary_of(cx5, frozenset({"L:z3", y0}))
    assert not oracles.boundary_of(cx5, frozenset({"L:z2", x0}))
    cx4 = rec["H4"]
    assert oracles.boundary_of(cx4, frozenset({"L:L:c", "L:R:z1", y0})) == {
        frozenset({"L:L:c", "L:R:z2", x0})
    }


def test_join_table_lands_on_the_tagged_generator():
    d = build("fix-stab")
    base, handle = glue.one_handled(d)
    spec = glue.two_handle_spec(base, handle)
    rec = glue.glue_two_handle(base, spec, *glue.direct_two_handle(base, spec))
    y0 = f"R:{rec['H3'].diagram.marks['y0']}"
    assert images(rec["joinTable"]) == {
        frozenset(["c"]): frozenset([frozenset({"L:L:c", "L:R:z3", "R:c", y0})])
    }
    assert not rec["joinTable"].check()


def test_staged_record_rejects_wrong_kind():
    with pytest.raises(ValueError, match="kind-2"):
        glue.glue_two_handle(build("fix-disk"), HandleSpec("1", p="s0", q="s0"), None, None)


def test_staged_record_names_the_cut_stage_of_a_bad_path():
    """The cut runs inside stage H3, so a path it cannot route is
    refused with that stage named once."""
    mid, handle = glue.one_handled(build("fix-stab"))
    spec = glue.two_handle_spec(mid, handle)
    spec.a_path = surface.TransversePath([spec.a_path.items[0], "nope", spec.a_path.items[-1]])
    with pytest.raises(ValueError) as err:
        glue.glue_two_handle(mid, spec, None, None)
    assert str(err.value) == "stage H3: path cannot cross nope"


# ---------------------------------------------------------------------------
# contact class transport


def test_contact_tag_transports_and_survives():
    d = build("fix-stab")
    results = sequences.replay("fix-stab", glue.two_handle_sequence(d))
    j, cx = glue.eh_generator(d, results)
    assert cx.basis[j] == frozenset({"c", results[-1][2]})
    assert cx is results[-1][1].target
    block = glue._eh_block(d, results)
    assert block["ok"] and block["nonvanishing"]


def test_contact_tag_errors_are_flagged_not_raised():
    d = build("fix-stab")
    results = sequences.replay("fix-stab", glue.two_handle_sequence(d))
    doctored = [(results[-1][0], results[-1][1], "ghost")]
    with pytest.raises(ValueError, match="not a generator"):
        glue.eh_generator(d, doctored)
    block = glue._eh_block(d, doctored)
    assert not block["ok"] and "not a generator" in block["error"]
    with pytest.raises(ValueError, match="no tagged generator"):
        glue.eh_generator(build("fix-disk"), results)
    block = glue._eh_block(build("fix-disk"), results)
    assert not block["ok"] and "no tagged generator" in block["error"]


def test_eh_block_builds_the_final_complex_once(monkeypatch):
    d = build("fix-stab")
    results = sequences.replay("fix-stab", glue.two_handle_sequence(d))
    final = results[-1][0]
    seen = []
    real = sfc.differential

    def counting(diagram):
        seen.append(diagram)
        return real(diagram)

    monkeypatch.setattr(sfc, "differential", counting)
    assert glue._eh_block(d, results)["ok"]
    # the replay built it; the block reads the last table's target
    assert sum(x is final for x in seen) == 0
    seen.clear()
    assert not glue._eh_block(build("fix-disk"), results)["ok"]
    assert seen == []


# ---------------------------------------------------------------------------
# route comparison


def test_equivalence_report_clean_on_the_canonical_sequence():
    d = build("fix-stab")
    rep = glue.equivalence_report(d, glue.two_handle_sequence(d))
    assert rep["ok"] and rep["counterexample"] is None
    assert [b["kind"] for b in rep["stages"]] == ["1", "2"]
    assert all(c["ranks_match"] for c in rep["checks"])
    assert rep["eh"]["nonvanishing"]


def test_equivalence_report_bypass_stage_checks_isomorphism():
    d = build("fix-bigonpair")
    rep = glue.equivalence_report(d, [HandleSpec("bypass-", site="ci")])
    assert rep["ok"]
    assert rep["checks"][0]["iso"]
    assert rep["eh"] is None


def test_equivalence_report_builds_each_complex_once(monkeypatch):
    d = build("fix-stab")
    specs = glue.two_handle_sequence(d)
    final = surface.serialize(sequences.replay("fix-stab", specs)[-1][0])
    calls = []
    real = sfc.differential

    def counting(diagram, darts=None):
        calls.append(surface.serialize(diagram))
        return real(diagram, darts)

    monkeypatch.setattr(sfc, "differential", counting)
    glue._handle_blocks.cache_clear()
    glue._twist_block.cache_clear()
    assert glue.equivalence_report(d, specs)["ok"]
    # no repeat: the 2-handle pipeline takes the direct attachment as
    # its stage H6, and the seven builtin blocks' structures are built
    # this once; the joins, the 1-handle target and H5 are box tensor
    # products, built from no diagram
    assert len(calls) == len(set(calls)) == 12
    assert final in calls
    calls.clear()
    assert glue.equivalence_report(d, specs)["ok"]
    # the base, each stage's attachment, the 1-handle cut and the
    # 2-handle cut H3
    assert len(calls) == 5


def test_routes_and_the_bordered_verb_build_no_vertex_id_sets(monkeypatch, tmp_path, capsys):
    """The route tables are built and read over index tuples, the
    contact class over a column index, and the bordered structures over
    positions and masks: a report builds no vertex-id frozensets, warm
    or with the builtin blocks built afresh, and nor does the
    ``bordered`` verb."""
    d = build("fix-stab")
    specs = glue.two_handle_sequence(d)
    assert glue.equivalence_report(d, specs)["ok"]  # builds the builtin blocks
    path = tmp_path / "rt2.json"
    path.write_text(surface.serialize(build("rt2")))
    calls = []
    real = sfc._as_sets
    monkeypatch.setattr(sfc, "_as_sets", lambda *args: calls.append(args) or real(*args))
    rep = glue.equivalence_report(d, specs)
    assert rep["ok"] and rep["eh"]["nonvanishing"]
    glue._handle_blocks.cache_clear()
    glue._twist_block.cache_clear()
    assert glue.equivalence_report(d, specs)["ok"]
    rebuilt = glue._handle_blocks.cache_info().currsize, glue._twist_block.cache_info().currsize
    assert rebuilt == (2, 1)
    assert cli.main(["bordered", str(path), "--kind", "D"]) == 0
    assert "δ¹({z1}) = ι1 ⊗ {z3} + ρ2 ⊗ {z2}" in capsys.readouterr().out
    assert calls == []


@pytest.mark.parametrize("shape", [("b", "b", "b"), ("1", "b", "b")])
def test_bypass_stages_rank_no_complex_twice(monkeypatch, shape):
    """A bypass stage's source is the stage before's target, whose rank
    that stage's block holds: only the base is ranked again, and only
    when stage 0 is a bypass, so no complex is ranked twice."""
    d = fixtures.bigonpair_power(3)
    specs = sequences.shaped_plan(d, shape, random.Random(5))
    calls = []
    real = sfc.homology
    monkeypatch.setattr(sfc, "homology", lambda cx: calls.append(cx) or real(cx))
    rep = glue.equivalence_report(d, specs)
    assert rep["ok"] and all(check["ranks_match"] for check in rep["checks"])
    assert len(calls) == len({id(cx) for cx in calls}) == 4
    assert (calls[1].diagram is d) == (shape[0] == "b")


def test_two_handle_stage_ranks_each_class_block_once(monkeypatch):
    """A 2-handle stage hands its target to ``sfc.homology`` twice, as
    the pipeline's H6 and as the stage's own rank; the complex's ranks
    are a view, so each class block of each complex is ranked once."""
    d = fixtures.bigonpair_power(3)
    specs = sequences.shaped_plan(d, ("1", "2"), random.Random(5))
    ranked, blocks = [], []
    real_homology, real_rank = sfc.homology, sfc.f2_rank
    monkeypatch.setattr(sfc, "homology", lambda cx: ranked.append(cx) or real_homology(cx))
    monkeypatch.setattr(sfc, "f2_rank", lambda cols: blocks.append(cols) or real_rank(cols))
    assert glue.equivalence_report(d, specs)["ok"]
    distinct = list({id(cx): cx for cx in ranked}.values())
    assert all(isinstance(cx, sfc.ChainComplexF2) for cx in distinct)
    assert len(ranked) > len(distinct)
    assert len(blocks) == sum(len(set(cx.labels)) for cx in distinct)


def test_complexes_reuse_the_builds_their_gates_validated(monkeypatch):
    """Over a six-step plan on bigonpair^3, with its handle blocks built
    beforehand, every complex is built on the ``Darts`` build that its
    diagram's gate validated: no ``sfc.differential`` call makes one."""
    d = fixtures.bigonpair_power(3)
    specs = sequences.shaped_plan(d, ("1", "2", "b", "2", "1", "b"), random.Random(5))
    for kind in ("1", "2"):
        glue._handle_blocks(kind)
    inside, builds = [], []  # open differential calls; per build, whether one was open
    real_init, real_differential = Darts.__init__, sfc.differential

    def init(self, g):
        builds.append(bool(inside))
        real_init(self, g)

    def differential(g, darts=None):
        inside.append(g)
        try:
            return real_differential(g, darts)
        finally:
            inside.pop()

    monkeypatch.setattr(Darts, "__init__", init)
    monkeypatch.setattr(sfc, "differential", differential)
    assert glue.equivalence_report(d, specs, darts=Darts(d))["ok"]
    assert builds and not any(builds)


def test_cached_blocks_are_shared_and_never_mutated(capsys, tmp_path):
    """Every pipeline, the route harness and the CLI glue verb leave the
    process-wide handle blocks exactly as they were built."""
    blocks = {kind: glue._handle_blocks(kind) for kind in ("1", "2")}
    before = copy.deepcopy(blocks)
    for key in FIXTURES:
        d = build(key)
        assert glue.equivalence_report(d, glue.two_handle_sequence(d))["ok"]
    for seed in range(4):
        key, specs = sequences.random_sequence(seed)
        glue.equivalence_report(pieces.build(key), specs)
    stab = build("fix-stab")
    one, two = glue.two_handle_sequence(stab)
    mid, _t, _x0 = glue.sigma_map(stab, one)
    for base, spec in ((stab, one), (mid, two)):
        (tmp_path / "d.json").write_text(surface.serialize(base))
        (tmp_path / "s.json").write_text(json.dumps(glue.spec_to_json(spec)))
        for fmt in ("text", "json"):
            assert cli.main(["glue", str(tmp_path / "d.json"), "--spec",
                             str(tmp_path / "s.json"), "--format", fmt]) == 0
    capsys.readouterr()
    for kind in ("1", "2"):
        assert glue._handle_blocks(kind) is blocks[kind]
        for now, then in zip(blocks[kind], before[kind]):
            assert now == then


def test_route_disagreement_is_reported_not_raised(monkeypatch, capsys, tmp_path):
    real = glue.sigma_map

    def skewed(d, spec):
        d2, table, x0 = real(d, spec)
        if spec.kind == "1":
            columns = (0,) + table.matrix.columns[1:]
            table = ChainMapTable(table.source, table.target, BinaryMatrix(table.matrix.rows, columns))
        return d2, table, x0

    monkeypatch.setattr(glue, "sigma_map", skewed)
    d = build("fix-stab")
    specs = glue.two_handle_sequence(d)
    rep = glue.equivalence_report(d, specs)
    assert not rep["ok"] and not rep["checks"][0]["tables_equal"]
    assert rep["counterexample"]["stage"] == 0
    diagram = tmp_path / "stab.json"
    diagram.write_text(surface.serialize(d))
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps([glue.spec_to_json(s) for s in specs]))
    code = cli.main(["verify-equivalence", str(diagram), "--handles", str(plan)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out.splitlines()[-1] == "NOT EQUIVALENT"
    assert json.loads(captured.err)["repro"]["stage"] == 0


def test_route_check_reads_the_staged_target_names(monkeypatch, capsys, tmp_path):
    """Two crossing names swapped in the staged 1-handle target, its
    tuples and columns kept, make a disagreement at stage 0: the check
    compares the generators by name, not by position alone."""
    real = glue.glue_one_handle

    def swapped(d, p, q):
        table = real(d, p, q)
        verts = table.target.verts
        verts[0], verts[1] = verts[1], verts[0]
        return table

    monkeypatch.setattr(glue, "glue_one_handle", swapped)
    d = build("fix-bigonpair")
    specs = glue.two_handle_sequence(d)
    rep = glue.equivalence_report(d, specs)
    assert not rep["ok"] and not rep["checks"][0]["tables_equal"]
    assert rep["checks"][0]["ranks_match"]
    assert rep["counterexample"]["stage"] == 0
    diagram = tmp_path / "bigonpair.json"
    diagram.write_text(surface.serialize(d))
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps([glue.spec_to_json(s) for s in specs]))
    code = cli.main(["verify-equivalence", str(diagram), "--handles", str(plan)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out.splitlines()[-1] == "NOT EQUIVALENT"
    assert json.loads(captured.err)["repro"]["stage"] == 0


@pytest.mark.parametrize("seed", range(12))
def test_random_compositions_replay_clean(seed):
    key, specs = sequences.random_sequence(seed)
    rep = glue.equivalence_report(pieces.build(key), specs)
    assert rep["ok"], rep["counterexample"]


# ---------------------------------------------------------------------------
# invariance


def test_sliding_the_attachment_site_preserves_ranks():
    d = build("fix-stab")
    halves = surface.subdivide_edge(d.copy(), "bd")
    slid = d.copy()
    first, second, _v = surface.subdivide_edge(slid, "bd")
    for site in (first, second):
        d2, _t, x0 = glue.sigma_map(slid, HandleSpec("bypass+", site=site))
        assert sfc.homology(d2).total == sfc.homology(d).total
        assert not oracles.is_boundary(sfc.differential(d2), [frozenset({"c", x0})])
    del halves


def test_bypass_then_destabilize_restores_the_rank():
    d = build("fix-bigonpair")
    d2, _t, x0 = glue.sigma_map(d, HandleSpec("bypass+", site="co"))
    (alpha,) = set(d2.alpha_curves) - set(d.alpha_curves)
    (beta,) = set(d2.beta_curves) - set(d.beta_curves)
    out, forced = oracles.reference_trivial_destabilize(d2, alpha, beta)
    assert forced == x0
    assert sfc.homology(out).total == sfc.homology(d2).total == 2
