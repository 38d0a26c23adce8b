"""Tests for generators, the shape census, admissibility, Spin^c
classes, the differential, homology, and interface actions."""

import gc
import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixtures
import oracles
from sutured import glue, pieces, sfc
from sutured import surface as sf

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


# ---------------------------------------------------------------------------
# generators and Spin^c classes against the reference enumeration and key


def _partition(d, gens=None):
    """``sfc.spinc_partition`` fed its inputs as ``differential`` does."""
    groups = [rec.faces for rec in sfc.region_census(d)]
    return sfc.spinc_partition(d, sfc.generators(d) if gens is None else gens, groups)


def _assert_one_pass_census(d):
    """The census's one pass over the face words gives the regions of
    ``surface.regions`` and the reference vertex -> faces incidence on
    the crossings."""
    crossings = sfc._crossing_curves(d)
    faces_on, incident = sfc._face_index(d, crossings)
    seams = {e for e, ed in d.edges.items() if ed.kind == "seam"}
    assert sfc._seam_classes(d, faces_on, seams) == sf.regions(d)
    reference = oracles.reference_vertex_faces(d)
    assert incident == {v: reference[v] for v in crossings}


def _assert_matches_references(d):
    """Generators and classes equal the references, order included, the
    census's one pass matches its references, and the differential's
    entries equal the all-moves loop's, on the complex itself when the
    diagram passes the gates."""
    _assert_one_pass_census(d)
    gens = sfc.generators(d)
    assert gens == oracles.reference_generators(d)
    part = _partition(d, gens)
    assert list(part.items()) == list(oracles.reference_spinc_partition(d, gens).items())
    census = sfc.region_census(d)
    expected = oracles.reference_differential_entries(gens, census)
    assert sfc._boundary_entries(gens, census) == expected
    if sfc.is_nice(d)[0] and sfc.is_admissible(d)[0]:
        assert sfc.differential(d).differential.entries == expected


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
    """With at most one generator ``spinc_partition`` puts it in class 0,
    as the reference does, without calling ``cokernel_residue``."""
    diagrams = [pieces.build(name) for name in NICE_PIECES]
    diagrams += [pieces.mirror(d) for d in diagrams]
    diagrams += [d for name in ("fix-stab", "bigonpair^3") for d in _handle_stages(name)]
    calls = []
    real = sfc.cokernel_residue

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(sfc, "cokernel_residue", counting)
    single = 0
    for d in diagrams:
        gens = sfc.generators(d)
        if len(gens) > 1:
            continue
        single += 1
        part = _partition(d, gens)
        assert list(part.items()) == list(oracles.reference_spinc_partition(d, gens).items())
    assert single >= 20
    assert calls == []


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_subdivided_curves_match_references(data):
    """Plain vertices added on curves of a piece, its mirror or a small
    grid leave both outputs equal to the references; ``simplify``, which
    fuses them away again, edits exactly as its restart loop does."""
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
    simplified = sf.to_json_dict(sf.simplify(d.copy()))
    assert simplified == sf.to_json_dict(oracles.reference_simplify(d.copy()))


def _move(shape, xs, ys, inside=""):
    """A census record standing for one move; points are letters."""
    return sfc.RegionShape((), shape, frozenset(xs), frozenset(ys), frozenset(inside))


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
    entries = sfc._boundary_entries(basis, census)
    assert entries == oracles.reference_differential_entries(basis, census)
    pos = {x: i for i, x in enumerate(basis)}
    ac, bc = frozenset("ac"), frozenset("bc")
    assert (pos[bc], pos[ac]) in entries
    assert not any(c == pos[frozenset("a")] and r == pos[frozenset("b")] for r, c in entries)
    assert (pos[frozenset("d")], pos[frozenset()]) in entries


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_boundary_entries_match_all_moves_loop_on_random_moves(data):
    """Moves drawn with repeats from a small pool, some with no
    x-corner and some of shapes that never move, on every subset of
    five points."""
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
    assert sfc._boundary_entries(basis, census) == expected


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
    """Each census builds the crossing table once, however many regions
    or candidate domains it classifies (none for u2, five for az2), and
    ``differential`` builds it once for its census and generators."""
    d = pieces.build(name)
    calls = []
    real = sfc._crossing_curves

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(sfc, "_crossing_curves", counting)
    getattr(sfc, census)(d)
    assert len(calls) == 1


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
        assert cx.spinc_class[cx.basis[r]] == cx.spinc_class[cx.basis[c]]


# ---------------------------------------------------------------------------
# the differential


def test_bigonpair_differential_vanishes():
    """The two bigons carry x to y twice over, cancelling mod 2."""
    cx = sfc.differential(pieces.build("bigonpair"))
    assert cx.basis == [frozenset({"x"}), frozenset({"y"})]
    assert cx.differential.entries == frozenset()


def test_az2_rectangle_arrow(az2):
    cx = sfc.differential(az2)
    assert cx.boundary_of(frozenset({"z2", "z4"})) == {frozenset({"z1", "z5"})}
    assert len(cx.differential.entries) == 1


def test_rt2_cap_arrow():
    cx = sfc.differential(pieces.build("rt2"))
    assert cx.boundary_of(frozenset({"z1"})) == {frozenset({"z3"})}
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
    targets = ((sfc, "generators"), (sfc, "region_census"), (sfc, "_crossing_curves"),
               (sf, "regions"))
    for module, attr in targets:
        real = getattr(module, attr)

        def counting(*args, _real=real, _attr=attr):
            calls[_attr] += 1
            return _real(*args)

        monkeypatch.setattr(module, attr, counting)
    sfc.differential(d)
    assert calls == {"generators": 1, "region_census": 1, "_crossing_curves": 1}


@pytest.mark.parametrize("name", NICE_PIECES)
def test_differential_squares_to_zero(name):
    cx = sfc.differential(pieces.build(name))
    for x in cx.basis:
        second = Counter()
        for y in cx.boundary_of(x):
            second.update(cx.boundary_of(y))
        assert all(c % 2 == 0 for c in second.values())


@pytest.mark.parametrize("name", NICE_PIECES)
def test_differential_matches_face_oracle(name):
    d = pieces.build(name)
    expected = oracles.naive_differential(d)
    cx = sfc.differential(d)
    assert set(cx.basis) == set(expected)
    for x in cx.basis:
        assert cx.boundary_of(x) == expected[x]


def test_boundary_of_uses_column_indexing(az2):
    cx = sfc.differential(az2)
    j = cx.index(frozenset({"z2", "z4"}))
    i = cx.index(frozenset({"z1", "z5"}))
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
    assert set(h.by_class) == set(cx.spinc_class.values())
    for c in h.by_class:
        members = [x for x in cx.basis if cx.spinc_class[x] == c]
        columns = [cx.boundary_of(x) for x in members]
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
    flat, forced = sf.trivial_destabilize(st_d, "A0", "B0")
    assert forced == "c"
    assert sfc.homology(flat).total == sfc.homology(st_d).total == 1


def test_homology_invariant_under_relabeling(az2):
    renamed = sf._prefix_diagram(az2, "Q:")
    h1, h2 = sfc.homology(az2), sfc.homology(renamed)
    assert h1.total == h2.total
    assert sorted(h1.by_class.values()) == sorted(h2.by_class.values())


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
        yield where, glue.prepare_one_handle(base, one.p, one.q)
        mid = glue.one_handled(base, site)[0]
        yield where.replace("cut", "2-handle cut"), glue.prepare_two_handle(
            mid, two.p, two.q, two.a_path, two.b_path
        )


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
    yield "grid4 cut at two sites", glue.prepare_one_handle(grid, free[0], free[5])


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
