"""Tests for generators, the shape census, admissibility, Spin^c
classes, the differential, homology, and interface actions."""

import gc
import itertools
import json
import math
import operator
import random
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixtures
import oracles
import sequences
from sutured import cli, glue, pieces, sfc
from sutured import surface as sf
from sutured.darts import Darts
from sutured.exactlin import BinaryMatrix, set_bits

NICE_PIECES = pieces.catalog()


@pytest.fixture
def az2():
    return pieces.build("az2")


@pytest.fixture
def trap():
    return fixtures.annular_trap()


@pytest.fixture
def hexagram():
    return fixtures.hexagram()


@pytest.fixture
def grid():
    return fixtures.grid_torus()


# ---------------------------------------------------------------------------
# generators


def test_disk_single_empty_generator():
    assert sfc.generators(pieces.build("disk")) == [frozenset()]


def test_stab_generator():
    assert sfc.generators(pieces.build("stab")) == [frozenset({"c"})]


def test_bigonpair_generators():
    assert sfc.generators(pieces.build("bigonpair")) == [
        frozenset({"x"}),
        frozenset({"y"}),
    ]


def test_az2_generator_list(az2):
    """Empty set, five crossings, and the three mixed pairs."""
    assert [sorted(x) for x in sfc.generators(az2)] == [
        [], ["z1"], ["z1", "z5"], ["z2"], ["z2", "z4"],
        ["z3"], ["z3", "z5"], ["z4"], ["z5"],
    ]


def test_hexagram_generators(hexagram):
    assert sfc.generators(hexagram) == [
        frozenset({f"h{i}"}) for i in range(1, 7)
    ]


def test_trap_has_no_generators(trap):
    """Closed curves that never meet admit no matching at all."""
    assert sfc.generators(trap) == []


def test_grid_torus_generators(grid):
    assert [sorted(x) for x in sfc.generators(grid)] == [
        ["g11", "g22"], ["g12", "g21"],
    ]


@pytest.mark.parametrize("name", NICE_PIECES)
def test_generators_match_powerset_oracle(name):
    d = pieces.build(name)
    assert sfc.generators(d) == oracles.powerset_generators(d)


def test_generators_match_powerset_oracle_on_adversaries(trap, hexagram, grid):
    for d in (trap, hexagram, grid):
        assert sfc.generators(d) == oracles.powerset_generators(d)


def test_canonical_order_and_d_squared_at_n7():
    """The 7 x 7 punctured grid: 5,040 distinct generators in the order
    of their sorted vertex ids, and its differential squares to zero."""
    d = fixtures.punctured_grid(7, 1)
    gens = sfc.generators(d)
    assert len(set(gens)) == len(gens) == math.factorial(7)
    assert gens == sorted(gens, key=lambda x: tuple(sorted(x)))
    cx = sfc.differential(d)
    assert cx.basis == gens
    columns = cx.differential.columns
    assert any(columns)
    for column in columns:
        square = 0
        for i in set_bits(column):
            square ^= columns[i]
        assert square == 0


def test_generators_leave_no_reference_cycles(az2, hexagram, grid):
    """The enumeration frees its work lists by reference counting alone."""
    for d in (az2, hexagram, grid):
        gc.collect()
        gc.disable()
        try:
            assert sfc.generators(d)
            assert gc.collect() == 0
        finally:
            gc.enable()


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_generators_unchanged_by_curve_subdivision(data):
    """Adding a plain vertex in the middle of a segment changes nothing."""
    name = data.draw(st.sampled_from(["stab", "bigonpair", "az2", "rt2"]))
    d = pieces.build(name)
    curve_edges = sorted(
        e for e, ed in d.edges.items() if ed.kind in ("alpha", "beta")
    )
    eid = data.draw(st.sampled_from(curve_edges))
    sf.subdivide_edge(d, eid)
    assert sf.validate(d) == []
    assert sfc.generators(d) == sfc.generators(pieces.build(name))


def test_arcs_may_go_unused(az2):
    """Every curve of az2 with crossings is an arc, so no crossing at all
    is a generator."""
    assert not any(c.closed for c in az2.curves().values())
    assert frozenset() in sfc.generators(az2)


def test_closed_curve_without_crossing_blocks_every_generator(az2, trap):
    """az2 has nine generators, but beside trap's circles, which meet no
    crossing, nothing survives."""
    assert sfc.generators(fixtures.disjoint_union(az2, trap)) == []


@pytest.mark.parametrize("n", range(9))
def test_order_key_gives_lex_order_on_every_subset(n):
    """Crossing i alone on alpha arc i and beta arc i: the generators are
    every subset of range(n), and the order key puts them in the lex
    order of their sorted tuples, prefixes first, however the alpha arcs
    are listed."""
    order = list(range(n))
    random.Random(n).shuffle(order)
    arcs = {family: {f"{family}{i}": SimpleNamespace(id=f"{family}{i}", closed=False)
                     for i in (order if family == "alpha" else range(n))}
            for family in ("alpha", "beta")}
    crossings = {f"v{i}": {"alpha": f"alpha{i}", "beta": f"beta{i}"} for i in range(n)}
    verts, gens = sfc._matchings(SimpleNamespace(curves=arcs.__getitem__), crossings)
    subsets = [c for r in range(n + 1) for c in itertools.combinations(range(n), r)]
    assert [tuple(sorted(t)) for t, _ in gens] == sorted(subsets)
    assert [m for _, m in gens] == [sum(1 << i for i in t) for t, _ in gens]


def test_only_az2_mixes_generator_sizes_among_the_pieces():
    """Among the catalog pieces and their mirrors only az2 has generators
    of sizes 0, 1 and 2, so its order, which
    ``test_pieces_and_mirrors_match_references`` compares with the
    reference's, pins the prefixes-first order of mixed sizes."""
    mixed = [name for name in NICE_PIECES
             for d in (pieces.build(name), pieces.mirror(pieces.build(name)))
             if {len(x) for x in sfc.generators(d)} == {0, 1, 2}]
    assert mixed == ["az2", "az2"]


def _end_bit_order(verts, gens):
    """``gens`` sorted by the end-bit key, from each index tuple's order
    mask as ``_matchings`` builds it."""
    n = len(verts)

    def key(g):
        o = sum(1 << 2 * (n - i) - 1 for i in g[0]) | 2 << 2 * n
        return o + ((o & -o) >> 1)

    return sorted(gens, key=key, reverse=True)


def _sorts_by_mask_alone(d, monkeypatch):
    """``(verts, gens, mask_only)``: ``_matchings`` on ``d``, and whether
    it sorted by the order mask alone (``itemgetter(2)``)."""
    made = []

    def spy(*items):
        made.append(items)
        return operator.itemgetter(*items)

    monkeypatch.setattr(sfc, "itemgetter", spy)
    verts, gens = sfc._matchings(d, Darts(d).crossings)
    return verts, gens, made == [(2,)]


@pytest.mark.parametrize("d", [
    *(pytest.param(fixtures.relabel(fixtures.punctured_grid(n, k), random.Random(10 * n + k)),
                   id=f"grid({n},{k})") for n, k in ((3, 1), (4, 1), (5, 2))),
    pytest.param(fixtures.bigonpair_power(4), id="bigonpair^4"),
    pytest.param(fixtures.disjoint_union(fixtures.punctured_grid(3, 1),
                                         fixtures.bigonpair_power(3)),
                 id="grid(3,1)+bigonpair^3"),
])
def test_closed_alpha_curves_sort_by_the_order_mask_alone(d, monkeypatch):
    """Every alpha curve closed: each generator holds one crossing per
    alpha curve, so the mask alone orders them, as the reference and
    the end-bit key do."""
    assert all(c.closed for c in d.curves("alpha").values())
    verts, gens, mask_only = _sorts_by_mask_alone(d, monkeypatch)
    assert mask_only
    assert len({len(t) for t, _ in gens}) == 1
    assert sfc._as_sets(verts, (t for t, _ in gens)) == oracles.reference_generators(d)
    assert gens == _end_bit_order(verts, gens)


@pytest.mark.parametrize("d", [
    *(pytest.param(pieces.build(name), id=name) for name in ("az2", "cap2", "rt2")),
    pytest.param(pieces.mirror(pieces.build("u2")), id="mirror(u2)"),
])
def test_alpha_arcs_keep_the_end_bit_key(d, monkeypatch):
    """A diagram with an alpha arc keeps the end-bit key.  u2's arcs are
    beta arcs, so its mirror is the one with alpha arcs."""
    assert not all(c.closed for c in d.curves("alpha").values())
    verts, gens, mask_only = _sorts_by_mask_alone(d, monkeypatch)
    assert not mask_only
    assert sfc._as_sets(verts, (t for t, _ in gens)) == oracles.reference_generators(d)
    assert gens == _end_bit_order(verts, gens)


# ---------------------------------------------------------------------------
# generators and Spin^c classes against the reference enumeration and key


def _partition(d, gens=None):
    """``sfc.spinc_partition`` fed its inputs as ``differential`` does."""
    groups = [rec.faces for rec in sfc.region_census(d)]
    return sfc.spinc_partition(d, sfc.generators(d) if gens is None else gens, groups)


def _assert_one_pass_census(d):
    """The census's one dart build gives the regions of ``surface.regions``
    and of a fresh component search, the reference crossings, and the
    reference vertex -> faces incidence on them."""
    dx = Darts(d)
    regions = dx.groups(dx.join(("seam",)))
    assert regions == sf.regions(d) == oracles._reference_regions(d)
    assert sorted(dx.crossings) == oracles.crossing_vertices(d)
    incident = {}
    for k, v in enumerate(dx.tail):
        if v in dx.crossings:
            incident.setdefault(v, set()).add(dx.faces[dx.face[k]].id)
    reference = oracles.reference_vertex_faces(d)
    assert incident == {v: reference[v] for v in dx.crossings}


def _assert_matches_references(d):
    """Generators and classes equal the references, order included, the
    census's one pass matches its references, and the differential's
    entries equal the all-moves loop's; when the diagram passes the
    gates, the complex's own basis, classes and entries do too."""
    _assert_one_pass_census(d)
    gens = sfc.generators(d)
    assert gens == oracles.reference_generators(d)
    reference = list(oracles.reference_spinc_partition(d, gens).items())
    assert list(_partition(d, gens).items()) == reference
    census = sfc.region_census(d)
    expected = oracles.reference_differential_entries(gens, census)
    assert _entries(gens, census) == expected
    if sfc.is_nice(d)[0] and sfc.is_admissible(d)[0]:
        cx = sfc.differential(d)
        assert cx.basis == gens
        assert list(zip(cx.basis, cx.labels)) == reference
        assert cx.differential.entries == expected


def _pipeline_diagrams(d, monkeypatch):
    """Every diagram that ``surface.validate`` or ``sfc.differential``
    reads while ``equivalence_report`` runs the route-small shapes over
    ``d`` (the handle blocks' included), once each, as handed over."""
    seen = {}
    real_validate, real_differential = sf.validate, sfc.differential

    def capture(g):
        seen.setdefault(sf.serialize(g), g.copy())

    def validate(g, **kwargs):
        capture(g)
        return real_validate(g, **kwargs)

    def differential(g, darts=None):
        capture(g)
        return real_differential(g, darts)

    plans = [sequences.shaped_plan(d, shape, random.Random(t))
             for t, shape in enumerate(sequences.ROUTE_SHAPES)]
    monkeypatch.setattr(sf, "validate", validate)
    monkeypatch.setattr(sfc, "differential", differential)
    glue._handle_blocks.cache_clear()
    glue._twist_block.cache_clear()
    try:
        for specs in plans:
            assert glue.equivalence_report(d, specs)["ok"]
    finally:
        monkeypatch.undo()
        glue._handle_blocks.cache_clear()
        glue._twist_block.cache_clear()
    return list(seen.values())


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (KeyError, ValueError) as err:
        return type(err).__name__, str(err)


@pytest.mark.parametrize("name", ["fix-disk", "fix-stab", "fix-bigonpair", "bigonpair^3"])
def test_pipeline_diagrams_match_references(name, monkeypatch):
    """On every diagram the route pipelines validate or census, the
    problem list (flags set or not) and the region census equal the
    references'."""
    d = fixtures.bigonpair_power(3) if name == "bigonpair^3" else pieces.build(name)
    captured = _pipeline_diagrams(d, monkeypatch)
    assert len(captured) > 10
    for g in captured:
        assert sf.validate(g) == oracles.reference_validate(g)
        flagged, mended = g.copy(), oracles.recompute_suture_flags(g.copy())
        assert sf.validate(flagged, set_flags=True) == oracles.reference_validate(mended)
        assert sf.to_json_dict(flagged) == sf.to_json_dict(mended)
        assert sfc.region_census(g) == oracles.reference_region_census(g)


@pytest.mark.parametrize("name", NICE_PIECES)
def test_pieces_and_mirrors_match_references(name):
    _assert_matches_references(pieces.build(name))
    _assert_matches_references(pieces.mirror(pieces.build(name)))


def test_adversaries_match_references(trap, hexagram, grid):
    for d in (trap, hexagram, grid):
        _assert_matches_references(d)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("k", [1, 2])
def test_relabeled_grids_match_references(n, k):
    d = fixtures.relabel(fixtures.punctured_grid(n, k), random.Random(10 * n + k))
    _assert_matches_references(d)


@pytest.mark.parametrize("k", range(1, 9))
def test_bigonpair_powers_match_references(k):
    _assert_matches_references(fixtures.bigonpair_power(k))


def _handle_stages(name):
    """A base, each stage of its two-handle sequence's sigma maps, and
    the 1-handled and 2-handled diagrams the glued route builds."""
    d = fixtures.bigonpair_power(3) if name == "bigonpair^3" else pieces.build(name)
    one, two = glue.two_handle_sequence(d)
    yield d
    cur = d
    for spec in (one, two):
        cur = glue.sigma_map(cur, spec)[0]
        yield cur
    mid, _handle = glue.one_handled(d, one.p)
    yield mid
    yield sf.attach_two_handle(mid, two.p, two.q, two.a_path, two.b_path)[0]


@pytest.mark.parametrize("name", ["fix-stab", "bigonpair^3"])
def test_handle_stages_match_references(name):
    for d in _handle_stages(name):
        _assert_matches_references(d)


def test_single_generator_classes_skip_the_smith_form(monkeypatch):
    """With at most one generator ``spinc_partition`` and the complex of
    ``differential`` put it in class 0, as the reference does, without
    calling ``cokernel_residue``."""
    diagrams = [pieces.build(name) for name in NICE_PIECES]
    diagrams += [pieces.mirror(d) for d in diagrams]
    diagrams += [d for name in ("fix-stab", "bigonpair^3") for d in _handle_stages(name)]
    calls = []
    real = sfc.cokernel_residue

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(sfc, "cokernel_residue", counting)
    single = gated = 0
    for d in diagrams:
        gens = sfc.generators(d)
        if len(gens) > 1:
            continue
        single += 1
        reference = list(oracles.reference_spinc_partition(d, gens).items())
        assert list(_partition(d, gens).items()) == reference
        if sfc.is_nice(d)[0] and sfc.is_admissible(d)[0]:
            gated += 1
            cx = sfc.differential(d)
            assert cx.labels == [0] * len(gens)
            assert list(zip(cx.basis, cx.labels)) == reference
    assert single >= 20 and gated >= 20
    assert calls == []


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_subdivided_curves_match_references(data):
    """Plain vertices added on curves of a piece, its mirror or a small
    grid leave the generators, classes and differential equal to the
    references'."""
    name = data.draw(st.sampled_from(NICE_PIECES + ["grid3"]))
    d = fixtures.punctured_grid(3, 1) if name == "grid3" else pieces.build(name)
    if data.draw(st.booleans()):
        d = pieces.mirror(d)
    for _ in range(data.draw(st.integers(1, 3))):
        interface = d.interface_edge_ids()
        curve_edges = sorted(
            e for e, ed in d.edges.items()
            if ed.kind in ("alpha", "beta") and e not in interface
        )
        if not curve_edges:
            break
        sf.subdivide_edge(d, data.draw(st.sampled_from(curve_edges)))
    assert sf.validate(d) == []
    _assert_matches_references(d)


def _move(shape, xs, ys, inside=""):
    """A census record standing for one move; points are letters."""
    return sfc.RegionShape((), shape, frozenset(xs), frozenset(ys), frozenset(inside))


def _entries(basis, census):
    """``_boundary_entries``'s columns as (row, column) positions, with
    ``basis`` handed over as ``_matchings`` gives it: index tuples and
    masks over the sorted points of the basis and the census."""
    moves = (p for rec in census for p in (rec.moves_from, rec.moves_to, rec.interior))
    verts = sorted(set().union(*basis, *moves))
    index = {v: i for i, v in enumerate(verts)}
    gens = [(tuple(sorted(map(index.__getitem__, x))), sum(1 << index[v] for v in x))
            for x in basis]
    return BinaryMatrix(len(basis), sfc._boundary_entries(verts, gens, census)).entries


def _all_subsets(points):
    subsets = [frozenset(c) for r in range(len(points) + 1)
               for c in itertools.combinations(points, r)]
    return sorted(subsets, key=lambda x: tuple(sorted(x)))


def test_equal_moves_cancel_only_with_equal_interiors():
    """Two moves a -> b cancel on {a}, but only the one with nothing
    inside acts on {a, c}; the move with no x-corner acts on every
    generator missing d."""
    basis = _all_subsets("abcd")
    census = [_move("bigon", "a", "b"), _move("rect", "a", "b", "c"), _move("bigon", "", "d")]
    entries = _entries(basis, census)
    assert entries == oracles.reference_differential_entries(basis, census)
    pos = {x: i for i, x in enumerate(basis)}
    ac, bc = frozenset("ac"), frozenset("bc")
    assert (pos[bc], pos[ac]) in entries
    assert not any(c == pos[frozenset("a")] and r == pos[frozenset("b")] for r, c in entries)
    assert (pos[frozenset("d")], pos[frozenset()]) in entries


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_boundary_entries_match_all_moves_loop_on_random_moves(data):
    """The int move pass against the all-moves loop over vertex-id
    sets: moves drawn with repeats from a small pool, some with no
    x-corner, some whose x-corners meet their y-corners or interior (the
    int pass drops those), and some of shapes that never move, on every
    subset of five points."""
    points = "abcde"
    subset = st.frozensets(st.sampled_from(points), max_size=3)
    pool = data.draw(st.lists(
        st.tuples(st.sampled_from(["bigon", "rect", "port", "other"]), subset, subset, subset),
        min_size=1, max_size=6,
    ))
    census = data.draw(st.lists(st.sampled_from(pool), max_size=12))
    census = [_move(*rec) for rec in census]
    basis = _all_subsets(points)
    expected = oracles.reference_differential_entries(basis, census)
    assert _entries(basis, census) == expected


class _Unread(list):
    """A generator list whose entries must not be read."""

    def __iter__(self):
        raise AssertionError("a generator was visited")


def test_moves_that_all_cancel_give_zero_columns_unvisited():
    """Each bigon of bigonpair^3 has its twin, so no move survives the
    cancellation and no generator is visited."""
    d = fixtures.bigonpair_power(3)
    dx = Darts(d)
    census = sfc.region_census(d, dx)
    assert [rec.shape for rec in census].count("bigon") == 6
    verts, gens = sfc._matchings(d, dx.crossings)
    assert sfc._boundary_entries(verts, _Unread(gens), census) == (0,) * 8
    assert oracles.reference_differential_entries(sfc._as_sets(verts, (t for t, _ in gens)),
                                                  census) == frozenset()


# ---------------------------------------------------------------------------
# the shape census and niceness


@pytest.mark.parametrize("name", NICE_PIECES)
def test_builtin_pieces_are_nice(name):
    assert sfc.is_nice(pieces.build(name)) == (True, [])


def test_hexagram_census_flags_hexagon(hexagram):
    """Six alternating sides make the central face the lone offender."""
    assert sfc.is_nice(hexagram) == (False, ["HEX"])


def test_trap_census_flags_annular_region(trap):
    assert sfc.is_nice(trap) == (False, ["F2"])


def test_grid_torus_is_nice(grid):
    assert sfc.is_nice(grid) == (True, [])


def test_az2_region_shapes(az2):
    shapes = {rec.faces: rec.shape for rec in sfc.region_census(az2)}
    assert shapes == {
        ("D1",): "port",
        ("D2",): "port",
        ("D3",): "rect",
        ("D4",): "port",
        ("D5",): "port",
    }


def test_az2_rectangle_corners(az2):
    rect = next(r for r in sfc.region_census(az2) if r.shape == "rect")
    assert rect.moves_from == frozenset({"z2", "z4"})
    assert rect.moves_to == frozenset({"z1", "z5"})
    assert rect.interior == frozenset()


def test_az2_port_chords(az2):
    ports = {
        rec.faces[0]: (rec.chord, next(iter(rec.moves_from)), next(iter(rec.moves_to)))
        for rec in sfc.region_census(az2)
        if rec.shape == "port"
    }
    assert ports == {
        "D1": (("t2",), "z1", "z4"),
        "D2": (("t3",), "z4", "z3"),
        "D4": (("t7",), "z1", "z2"),
        "D5": (("t6",), "z2", "z3"),
    }


def test_census_walks_across_seams():
    """A bigon cut in two by a seam still counts as one bigon region."""
    d = pieces.build("bigonpair")
    sf.split_face_by_chord(d, "EYE", 0, 1, "cut", "seam", None)
    assert sf.validate(d) == []
    recs = [r for r in sfc.region_census(d) if len(r.faces) == 2]
    assert len(recs) == 1
    assert recs[0].shape == "bigon"
    assert sfc.is_nice(d) == (True, [])
    h = sfc.homology(d)
    assert h.total == 2


@pytest.mark.parametrize("census", ["region_census", "action_census", "differential"])
@pytest.mark.parametrize("name", ["az2", "rt2", "u2", "bigonpair"])
def test_census_reads_crossings_once(census, name, monkeypatch):
    """Each census builds the dart index, and with it the crossing table,
    once, however many regions or candidate domains it classifies (none
    for u2, five for az2), and ``differential`` builds it once for its
    census, admissibility rows and generators."""
    d = pieces.build(name)
    calls = []
    real = sfc.Darts

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(sfc, "Darts", counting)
    getattr(sfc, census)(d)
    assert len(calls) == 1


@pytest.mark.parametrize("d", [pytest.param(pieces.build(n), id=n) for n in NICE_PIECES]
                         + [pytest.param(pieces.mirror(pieces.build(n)), id=f"mirror-{n}")
                            for n in NICE_PIECES]
                         + [pytest.param(fixtures.punctured_grid(n, 1), id=f"grid{n}-1")
                            for n in (3, 4)])
def test_a_handed_build_changes_nothing(d):
    """``differential`` on a build of the diagram handed to it gives the
    complex it builds for itself, and refuses a build of another diagram."""
    own, handed = sfc.differential(d), sfc.differential(d, darts=Darts(d))
    assert handed.basis == own.basis
    assert handed.differential.columns == own.differential.columns
    assert dict(zip(handed.basis, handed.labels)) == dict(zip(own.basis, own.labels))
    with pytest.raises(ValueError, match="another diagram"):
        sfc.differential(d, darts=Darts(d.copy()))


# ---------------------------------------------------------------------------
# admissibility


@pytest.mark.parametrize("name", NICE_PIECES)
def test_builtin_pieces_admissible(name):
    assert sfc.is_admissible(pieces.build(name)) == (True, None)


def test_trap_inadmissible_with_annulus_witness(trap):
    assert sfc.is_admissible(trap) == (False, {"F2": 1})


def test_hexagram_inadmissible_alpha_triangle_witness(hexagram):
    """The inside of the alpha triangle is a positive periodic domain."""
    ok, witness = sfc.is_admissible(hexagram)
    assert not ok
    assert witness == {"HEX": 1, "PA1": 1, "PA2": 1, "PA3": 1}


def test_grid_torus_inadmissible_band_witness(grid):
    ok, witness = sfc.is_admissible(grid)
    assert not ok
    assert witness == {"Q1": 1, "Q2": 1}


def test_witnesses_have_constant_curve_multiplicity(trap, hexagram, grid):
    for d in (trap, hexagram, grid):
        _ok, witness = sfc.is_admissible(d)
        assert oracles.constant_multiplicity_violation(d, witness) is None


def test_isotopic_circles_stay_admissible():
    """The periodic annulus of the two circles leans on the suture
    region on either side, so nothing survives the erasure."""
    assert sfc.is_admissible(pieces.build("bigonpair")) == (True, None)


# ---------------------------------------------------------------------------
# Spin^c classes


def test_disk_single_class():
    assert _partition(pieces.build("disk")) == {frozenset(): 0}


def test_bigonpair_single_class():
    part = _partition(pieces.build("bigonpair"))
    assert set(part.values()) == {0}


def test_rt2_classes():
    part = _partition(pieces.build("rt2"))
    assert part == {
        frozenset({"z1"}): 0,
        frozenset({"z2"}): 1,
        frozenset({"z3"}): 0,
    }


def test_az2_class_sizes(az2):
    part = _partition(az2)
    assert part[frozenset()] == 0
    assert Counter(part.values()) == Counter({0: 1, 1: 3, 2: 3, 3: 2})
    assert part[frozenset({"z2", "z4"})] == part[frozenset({"z1", "z5"})]


def test_hexagram_single_class(hexagram):
    assert set(_partition(hexagram).values()) == {0}


def test_class_indices_canonical(az2):
    """Indices are contiguous and first-seen in generator order."""
    part = _partition(az2)
    seen = []
    for x in sfc.generators(az2):
        if part[x] not in seen:
            seen.append(part[x])
    assert seen == sorted(set(part.values()))
    assert seen == list(range(len(seen)))


def test_disjoint_union_classes_are_products():
    """The class of a split generator is the pair of component classes."""
    one = pieces.build("rt2")
    part_one = _partition(one)
    both = fixtures.disjoint_union(pieces.build("rt2"), pieces.build("rt2"))
    part = _partition(both)
    pair_to_class = {}
    for x, cls in part.items():
        left = frozenset(v[2:] for v in x if v.startswith("L:"))
        right = frozenset(v[2:] for v in x if v.startswith("R:"))
        pair = (part_one[left], part_one[right])
        assert pair_to_class.setdefault(pair, cls) == cls
    assert len(pair_to_class) == len(set(pair_to_class.values()))
    assert len(pair_to_class) == len(set(part_one.values())) ** 2


@pytest.mark.parametrize("name", NICE_PIECES)
def test_differential_preserves_classes(name):
    cx = sfc.differential(pieces.build(name))
    for (r, c) in cx.differential.entries:
        assert cx.labels[r] == cx.labels[c]


def test_labels_are_built_on_first_read(monkeypatch, tmp_path, capsys):
    """``differential`` builds no class labels and ``homology`` builds
    them once per complex; ``verify-equivalence`` on fix-bigonpair's
    canonical plan labels exactly the complexes whose homology it takes."""
    labelled, reported = [], []
    real_labels, real_homology = sfc._spinc_labels, sfc.homology
    monkeypatch.setattr(sfc, "_spinc_labels",
                        lambda d, *rest: labelled.append(d) or real_labels(d, *rest))
    d = pieces.build("fix-bigonpair")
    cx = sfc.differential(d)
    assert "labels" not in vars(cx) and labelled == []
    assert sfc.homology(cx) == sfc.homology(cx) and labelled == [d]

    labelled.clear()
    monkeypatch.setattr(sfc, "homology", lambda c: reported.append(c) or real_homology(c))
    doc, plan = tmp_path / "d.json", tmp_path / "plan.json"
    doc.write_text(sf.serialize(d))
    plan.write_text(json.dumps([glue.spec_to_json(s) for s in glue.two_handle_sequence(d)]))
    assert cli.main(["verify-equivalence", str(doc), "--handles", str(plan)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "equivalent"
    distinct = list({id(c): c for c in reported}.values())
    assert all(isinstance(c, sfc.ChainComplexF2) for c in distinct)
    # the box tensor products (the 1-handle stage's target and the
    # 2-handle stage's H4 and H5) have no diagram to label from: their
    # labels view gives one class
    glued = [c for c in distinct if c.diagram is not None]
    assert len(distinct) - len(glued) == 3
    assert sorted(map(id, labelled)) == sorted(id(c.diagram) for c in glued)


@pytest.mark.parametrize("grid, power, tabled", [
    ((3, 1), 7, True),  # 768 generators over 23 crossings: 3 * 2^8 <= 768
    ((4, 1), 5, False),  # 768 generators over 26 crossings: 3 * 2^9 > 768
])
def test_labels_match_reference_on_either_sum(monkeypatch, grid, power, tabled):
    """The labels equal the reference key whether the weights are summed
    by subset-sum tables over the masks or over the index tuples; the
    tables are taken exactly when they pay, and the complex keeps its
    masks either way."""
    tabulated, real_sums = [], sfc._subset_sums
    monkeypatch.setattr(sfc, "_subset_sums",
                        lambda weight, masks: tabulated.append(masks) or real_sums(weight, masks))
    d = fixtures.disjoint_union(fixtures.punctured_grid(*grid), fixtures.bigonpair_power(power))
    cx = sfc.differential(d)
    assert len(cx.gens) == 768
    assert cx.masks == [sum(1 << i for i in t) for t in cx.gens]
    reference = oracles.reference_spinc_partition(d, cx.basis)
    assert cx.labels == [reference[x] for x in cx.basis]
    assert tabulated == ([cx.masks] if tabled else [])
    assert len(set(cx.labels)) == (3 if tabled else 4)


@pytest.mark.parametrize("n", [1, 2, 7, 11, 13, 18, 20])
def test_subset_sums_equal_tuple_sums(n):
    """On lane-packed weights, negative ones included (a free lane
    borrows from the lanes above), every mask's table sum equals the
    tuple sum, for n crossings whether or not 3 divides n."""
    rng = random.Random(n)
    weight = [rng.randrange(4) + (rng.randrange(-9, 10) << 3) + (rng.randrange(-9, 10) << 11)
              for _ in range(n)]
    masks = [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(300)]
    tuples = [tuple(set_bits(m)) for m in masks]
    assert sfc._subset_sums(weight, masks) == [sum(map(weight.__getitem__, t)) for t in tuples]


# ---------------------------------------------------------------------------
# the differential


def test_bigonpair_differential_vanishes():
    """The two bigons carry x to y twice over, cancelling mod 2."""
    cx = sfc.differential(pieces.build("bigonpair"))
    assert cx.basis == [frozenset({"x"}), frozenset({"y"})]
    assert cx.differential.entries == frozenset()


def test_az2_rectangle_arrow(az2):
    cx = sfc.differential(az2)
    assert oracles.boundary_of(cx, frozenset({"z2", "z4"})) == {frozenset({"z1", "z5"})}
    assert len(cx.differential.entries) == 1


def test_rt2_cap_arrow():
    cx = sfc.differential(pieces.build("rt2"))
    assert oracles.boundary_of(cx, frozenset({"z1"})) == {frozenset({"z3"})}
    assert len(cx.differential.entries) == 1


def test_differential_rejects_non_nice(trap, hexagram):
    with pytest.raises(ValueError, match="not nice.*F2"):
        sfc.differential(trap)
    with pytest.raises(ValueError, match="not nice.*HEX"):
        sfc.differential(hexagram)


def test_differential_rejects_inadmissible(grid):
    with pytest.raises(ValueError, match="not admissible.*Q1"):
        sfc.differential(grid)


@pytest.mark.parametrize("name", ["az2", "rt2", "bigonpair"])
def test_differential_builds_one_census_and_one_generator_list(name, monkeypatch):
    d = pieces.build(name)
    calls = Counter()
    targets = ((sfc, "generators"), (sfc, "_matchings"), (sfc, "region_census"),
               (sfc, "Darts"), (sf, "regions"))
    for module, attr in targets:
        real = getattr(module, attr)

        def counting(*args, _real=real, _attr=attr):
            calls[_attr] += 1
            return _real(*args)

        monkeypatch.setattr(module, attr, counting)
    sfc.differential(d)
    assert calls == {"_matchings": 1, "region_census": 1, "Darts": 1}


@pytest.mark.parametrize("name", NICE_PIECES)
def test_differential_squares_to_zero(name):
    cx = sfc.differential(pieces.build(name))
    for x in cx.basis:
        second = Counter()
        for y in oracles.boundary_of(cx, x):
            second.update(oracles.boundary_of(cx, y))
        assert all(c % 2 == 0 for c in second.values())


@pytest.mark.parametrize("name", NICE_PIECES)
def test_differential_matches_face_oracle(name):
    d = pieces.build(name)
    expected = oracles.naive_differential(d)
    cx = sfc.differential(d)
    assert set(cx.basis) == set(expected)
    for x in cx.basis:
        assert oracles.boundary_of(cx, x) == expected[x]


def test_az2_rectangle_is_one_entry_at_its_generators_places(az2):
    """The one differential entry sits in the column of {z2,z4} at the
    row of {z1,z5}, both read as places in the basis."""
    cx = sfc.differential(az2)
    j = cx.basis.index(frozenset({"z2", "z4"}))
    i = cx.basis.index(frozenset({"z1", "z5"}))
    assert cx.differential.entries == frozenset({(i, j)})


# ---------------------------------------------------------------------------
# homology


def test_disk_homology():
    h = sfc.homology(pieces.build("disk"))
    assert (h.total, h.by_class) == (1, {0: 1})


def test_stab_homology():
    assert sfc.homology(pieces.build("stab")).total == 1


def test_bigonpair_homology():
    h = sfc.homology(pieces.build("bigonpair"))
    assert (h.total, h.by_class) == (2, {0: 2})


def test_rt2_homology():
    """The cap bigon cancels the z1/z3 class; z2 survives alone."""
    h = sfc.homology(pieces.build("rt2"))
    assert h.by_class == {0: 0, 1: 1}
    assert h.total == 1


def test_az2_homology(az2):
    h = sfc.homology(az2)
    assert h.total == 7
    assert h.by_class == {0: 1, 1: 3, 2: 1, 3: 2}


RANKED = {name: (lambda n=name: pieces.build(n)) for name in NICE_PIECES}
RANKED.update({f"bigonpair^{k}": (lambda k=k: fixtures.bigonpair_power(k)) for k in range(1, 5)})
RANKED.update({name: (lambda n=name: pieces.build(n))
               for name in ("fix-bigonpair", "fix-disk", "fix-stab")})
RANKED.update({f"grid{n}_{k}": (lambda n=n, k=k: fixtures.punctured_grid(n, k))
               for n, k in ((3, 1), (4, 1), (4, 2))})


@pytest.mark.parametrize("name", sorted(RANKED))
def test_class_ranks_match_oracle(name):
    """Each class's rank is its size less twice the rank of its columns,
    taken from the differential and ranked by the list-of-sets oracle."""
    d = RANKED[name]()
    cx = sfc.differential(d)
    h = sfc.homology(cx)
    assert set(h.by_class) == set(cx.labels)
    for c in h.by_class:
        members = [x for x, label in zip(cx.basis, cx.labels) if label == c]
        columns = [oracles.boundary_of(cx, x) for x in members]
        assert h.by_class[c] == len(members) - 2 * oracles.naive_f2_rank(columns)
    assert h.total == sum(h.by_class.values())


def test_homology_invariant_under_bypass():
    for name, site in (("disk", "s0"), ("bigonpair", "ci"), ("stab", "bd")):
        base = pieces.build(name)
        before = sfc.homology(base).total
        for sign in ("+", "-"):
            bumped, _x0 = sf.attach_trivial_bypass(base, site, sign)
            assert sfc.homology(bumped).total == before


def test_homology_invariant_under_destabilization():
    st_d = pieces.build("stab")
    flat, forced = oracles.reference_trivial_destabilize(st_d, "A0", "B0")
    assert forced == "c"
    assert sfc.homology(flat).total == sfc.homology(st_d).total == 1


def test_homology_invariant_under_relabeling(az2):
    renamed = sf._prefix_diagram(az2, "Q:")
    h1, h2 = sfc.homology(az2), sfc.homology(renamed)
    assert h1.total == h2.total
    assert sorted(h1.by_class.values()) == sorted(h2.by_class.values())


def _table_complex(columns, labels):
    """A complex built from tables: one crossing per generator."""
    n = len(labels)
    cx = sfc.ChainComplexF2([f"p{i}" for i in range(n)], [(i,) for i in range(n)],
                            [1 << i for i in range(n)], BinaryMatrix(n, tuple(columns)), None)
    cx.labels = labels
    return cx


def test_homology_reads_only_nonzero_columns():
    """With every column zero each class's rank is its size; a nonzero
    column is reduced within its class, and one that leaves it is a bug."""
    hom = sfc.homology(_table_complex([0] * 5, [0, 1, 1, 2, 1]))
    assert (hom.total, hom.by_class) == (5, {0: 1, 1: 3, 2: 1})
    hom = sfc.homology(_table_complex([0, 0b001, 0], [0, 0, 1]))
    assert (hom.total, hom.by_class) == (1, {0: 0, 1: 1})
    with pytest.raises(AssertionError, match="does not respect the class partition"):
        sfc.homology(_table_complex([0, 0b100, 0], [0, 0, 1]))


def test_disjoint_union_homology_multiplies():
    for left, right in (("bigonpair", "bigonpair"), ("rt2", "rt2"),
                        ("disk", "bigonpair"), ("az2", "rt2")):
        du = fixtures.disjoint_union(pieces.build(left), pieces.build(right))
        expect = sfc.homology(pieces.build(left)).total * sfc.homology(
            pieces.build(right)
        ).total
        assert sfc.homology(du).total == expect


# ---------------------------------------------------------------------------
# interface actions


def test_az2_action_table(az2):
    """The full chord table, including both two-face domains."""
    got = [
        (a.interface, a.interval, a.start, a.end, a.x_pt, a.y_pt, a.faces)
        for a in sfc.action_census(az2)
    ]
    assert got == [
        (0, 0, 0, 1, "z1", "z4", ("D1",)),
        (0, 0, 0, 1, "z2", "z5", ("D1", "D3")),
        (0, 0, 0, 2, "z1", "z3", ("D1", "D2")),
        (0, 0, 1, 2, "z4", "z3", ("D2",)),
        (1, 0, 0, 1, "z2", "z3", ("D5",)),
        (1, 0, 0, 2, "z1", "z3", ("D4", "D5")),
        (1, 0, 1, 2, "z4", "z5", ("D3", "D4")),
        (1, 0, 1, 2, "z1", "z2", ("D4",)),
    ]


def test_az2_action_interiors_empty(az2):
    assert all(a.interior == frozenset() for a in sfc.action_census(az2))


def test_rt2_action_table():
    got = [
        (a.interface, a.interval, a.start, a.end, a.x_pt, a.y_pt, a.faces)
        for a in sfc.action_census(pieces.build("rt2"))
    ]
    assert got == [
        (0, 0, 0, 1, "z2", "z3", ("QB",)),
        (0, 0, 0, 2, "z1", "z3", ("QA", "QB")),
        (0, 0, 1, 2, "z1", "z2", ("QA",)),
    ]


@pytest.mark.parametrize("name", ["az2", "rt2", "u2", "cap2"])
def test_ports_appear_in_action_census(name):
    """Every port region shows up as a one-chord action record."""
    d = pieces.build(name)
    actions = {
        (a.x_pt, a.y_pt, a.faces) for a in sfc.action_census(d)
    }
    for rec in sfc.region_census(d):
        if rec.shape == "port":
            key = (
                next(iter(rec.moves_from)),
                next(iter(rec.moves_to)),
                rec.faces,
            )
            assert key in actions


def test_actions_survive_concatenation():
    """Gluing a block onto the left interface keeps the right table."""
    glued = sf.concatenate_bordered(pieces.build("u2"), pieces.build("az2"))
    got = [
        (a.interface, a.interval, a.start, a.end, a.x_pt, a.y_pt, a.faces)
        for a in sfc.action_census(glued)
    ]
    assert got == [
        (0, 0, 0, 1, "R:z2", "R:z3", ("R:D5",)),
        (0, 0, 0, 2, "R:z1", "R:z3", ("R:D4", "R:D5")),
        (0, 0, 1, 2, "R:z4", "R:z5", ("R:D3", "R:D4")),
        (0, 0, 1, 2, "R:z1", "R:z2", ("R:D4",)),
    ]


def _cut_open(name, base, sites):
    """The cut-open bases that a 1-handle and a 2-handle route at each
    site census: ``prepare_one_handle`` of the base, and
    ``prepare_two_handle`` of the 1-handled base."""
    for site in sites:
        one, two = glue.two_handle_sequence(base, site)
        where = f"{name} cut at {site or one.p}"
        yield where, glue.prepare_one_handle(base, one.p, one.q).d
        mid = glue.one_handled(base, site)[0]
        yield where.replace("cut", "2-handle cut"), glue.prepare_two_handle(mid, two)[0].d


def _bordered_diagrams():
    """Diagrams with interfaces: every catalog piece with one and its
    mirror (the blocks u1, cap1, u2 and cap2 among them), the stages of
    the two-handle sequences over fix-stab and bigonpair^3 with their
    cut-open bases, and the cut-open bases of an n = 4 grid at three
    sites."""
    for name in NICE_PIECES:
        yield name, pieces.build(name)
        yield f"mirror {name}", pieces.mirror(pieces.build(name))
    for name in ("fix-stab", "bigonpair^3"):
        for k, d in enumerate(_handle_stages(name)):
            yield f"{name} stage {k}", d
        base = fixtures.bigonpair_power(3) if name == "bigonpair^3" else pieces.build(name)
        yield from _cut_open(name, base, [None])
    grid = fixtures.relabel(fixtures.punctured_grid(4, 1), random.Random(4))
    free = sorted(grid.free_boundary_edge_ids())
    yield from _cut_open("grid4", grid, free[::3])
    yield "grid4 cut at two sites", glue.prepare_one_handle(grid, free[0], free[5]).d


@pytest.mark.parametrize(
    "d",
    [pytest.param(d, id=where.replace(" ", "-")) for where, d in _bordered_diagrams() if d.interfaces],
)
def test_action_census_matches_the_reference(d):
    """Growing candidates from each chord finds exactly the records of
    trying every face subset, list order included."""
    assert sfc.action_census(d) == oracles.reference_action_census(d)


def test_cut_open_grids_carry_actions():
    """The reference comparison on grids is not vacuous: each 2-handle
    cut of the n = 4 grid has action records."""
    cuts = [d for where, d in _bordered_diagrams() if where.startswith("grid4 2-handle")]
    assert len(cuts) == 3 and all(sfc.action_census(d) for d in cuts)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_action_census_of_subdivided_pieces_matches_the_reference(data):
    """Plain vertices added on the curves of a bordered piece or its
    mirror leave the records equal to the reference's."""
    names = [n for n in NICE_PIECES if pieces.build(n).interfaces]
    d = pieces.build(data.draw(st.sampled_from(names)))
    if data.draw(st.booleans()):
        d = pieces.mirror(d)
    interface = d.interface_edge_ids()
    for _ in range(data.draw(st.integers(1, 3))):
        curve_edges = sorted(
            e for e, ed in d.edges.items()
            if ed.kind in ("alpha", "beta") and e not in interface
        )
        if not curve_edges:
            break
        sf.subdivide_edge(d, data.draw(st.sampled_from(curve_edges)))
    assert sf.validate(d) == []
    assert sfc.action_census(d) == oracles.reference_action_census(d)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_connected_supersets_each_once_and_reached_from_the_base(data):
    """On a random graph, the grown sets are exactly the sets holding
    the base, inside the allowed faces, and connected to the base, each
    listed once."""
    n = data.draw(st.integers(1, 7))
    edges = data.draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
    adjacent = {v: set() for v in range(n)}
    for a, b in edges:
        if a != b:
            adjacent[a].add(b)
            adjacent[b].add(a)
    base = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
    allowed = data.draw(st.sets(st.integers(0, n - 1)))
    grown = list(sfc._connected_supersets(base, allowed, adjacent))
    assert len(grown) == len(set(grown))

    def reached(faces):
        seen, todo = set(base), list(base)
        while todo:
            for g in adjacent[todo.pop()] & faces - seen:
                seen.add(g)
                todo.append(g)
        return seen == faces

    extra = sorted(allowed - base)
    expect = {
        frozenset(base).union(combo)
        for r in range(len(extra) + 1)
        for combo in itertools.combinations(extra, r)
    }
    assert set(grown) == {faces for faces in expect if reached(faces)}


def test_action_census_refuses_large_enumerations():
    big = fixtures.disjoint_union(
        pieces.build("az2"),
        fixtures.disjoint_union(pieces.build("az2"), pieces.build("az2")),
    )
    assert len([f for f, face in big.faces.items() if not face.suture]) > 14
    with pytest.raises(ValueError, match="refusing"):
        sfc.action_census(big)


def test_action_census_empty_without_interfaces():
    assert sfc.action_census(pieces.build("bigonpair")) == []


# ---------------------------------------------------------------------------
# the grid oracle


@pytest.mark.parametrize("n, k, rank", [(4, 1, 8), (5, 1, 16), (6, 1, 32), (5, 2, 48)])
def test_grid_rectangle_oracle_ranks(n, k, rank):
    """The permutation oracle is a complex on n! generators whose
    homology has the known grid ranks: 2^(n-1) for the unknot and 48
    for the trefoil."""
    d = oracles.grid_rectangle_differential(n, k)
    assert len(d) == math.factorial(n)
    for ys in d.values():
        twice = set()
        for y in ys:
            twice ^= d[y]
        assert not twice
    assert len(d) - 2 * oracles.naive_f2_rank(d.values()) == rank


@pytest.mark.parametrize("n, k", [(3, 1), (4, 1), (5, 2)])
def test_powerset_domains_are_the_grid_rectangles(n, k):
    """The empty embedded bigons and rectangles that the power-set domain
    oracle finds among every set of non-suture faces of the punctured
    grid give the permutation oracle's differential, entry for entry:
    two oracles that share no code, one reading the surface and one the
    permutations.  On (4,1) and (5,2) some rectangles span several
    regions, which a count of one move per region misses."""
    d = fixtures.punctured_grid(n, k)
    moves = oracles.powerset_domain_moves(d)
    expected = oracles.grid_rectangle_differential(n, k)

    def point(s):
        return frozenset(f"g{i}_{j}" for i, j in enumerate(s))

    got = oracles.moves_differential([point(s) for s in expected], moves)
    assert got == {point(s): set(map(point, ys)) for s, ys in expected.items()}
    regions = sum(not face.suture for face in d.faces.values())
    assert (len(moves) > regions) == (n > 3)
