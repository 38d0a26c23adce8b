"""Tests for the strands algebra: summand ranks, the full one-strand
multiplication table, names, and structural invariants
(associativity, identities, opposite algebras, double-crossing products)."""

import random
from itertools import combinations
from itertools import product as iproduct

import pytest

from sutured import strands
from sutured.surface import ArcDiagram


def minimal_diagram():
    """Two empty intervals, no arcs."""
    return ArcDiagram([[], []], {}, "beta")


def two_arc_diagram():
    """Three points and one point over two intervals, two arcs."""
    return ArcDiagram(
        [["p1", "p2", "p3"], ["q1"]],
        {"p1": 2, "p2": 1, "p3": 2, "q1": 1},
        "beta",
    )


def genus_two_diagram():
    """Eight points on one interval, four arcs, two interleaved blocks."""
    return ArcDiagram(
        [["q0", "q1", "q2", "q3", "q4", "q5", "q6", "q7"]],
        {"q0": 1, "q1": 2, "q2": 1, "q3": 2, "q4": 3, "q5": 4, "q6": 3, "q7": 4},
        "alpha",
    )


@pytest.fixture
def z2():
    return two_arc_diagram()


def named_basis(z):
    return {strands.label(b): b for b in strands.basis(z)}


def chord(z, frm, to):
    """A single moving strand with no occupied arcs."""
    return strands.element(z, [(frm, to)], [])


def strand_sum(z, *xs):
    """The F2 sum of ``xs`` over ``z``; zero when there are none."""
    terms = frozenset()
    for x in xs:
        terms ^= x.terms
    return strands.StrandDiagramSum(z, terms)


def unit(z):
    """The sum of all idempotents, the multiplicative identity."""
    arcs = sorted(set(z.matching.values()))
    return strand_sum(z, *(strands.idempotent(z, c)
                           for r in range(len(arcs) + 1) for c in combinations(arcs, r)))


# ---------------------------------------------------------------------------
# summaries and ranks


def test_minimal_summary():
    s = strands.algebra_summary(minimal_diagram())
    assert s == {
        "arcs": 0,
        "total_rank": 1,
        "summands": [{"strands": 0, "rank": 1, "basis": ["ι∅"]}],
    }


def test_empty_interval_union_rank():
    z = ArcDiagram([[], [], [], []], {}, "beta")
    assert strands.algebra_summary(z)["total_rank"] == 1


def test_two_arc_summary(z2):
    s = strands.algebra_summary(z2)
    assert s["arcs"] == 2
    assert s["total_rank"] == 9
    assert [sm["rank"] for sm in s["summands"]] == [1, 5, 3]
    assert s["summands"][0]["basis"] == ["ι∅"]
    assert s["summands"][1]["basis"] == ["ι1", "ι2", "ρ1", "ρ12", "ρ2"]
    assert s["summands"][2]["basis"] == ["ι12", "ρ12|ι1", "ρ1|ρ2"]


def test_summary_is_deterministic(z2):
    assert strands.algebra_summary(z2) == strands.algebra_summary(two_arc_diagram())


def test_basis_guard():
    pts = [f"x{i}" for i in range(18)]
    z = ArcDiagram([pts], {p: 1 + i // 2 for i, p in enumerate(pts)}, "alpha")
    with pytest.raises(ValueError, match="too large"):
        strands.basis(z)


# ---------------------------------------------------------------------------
# constructors


def test_chord_rejects_cross_interval(z2):
    with pytest.raises(ValueError, match="different intervals"):
        chord(z2, "p1", "q1")


def test_chord_rejects_backward(z2):
    with pytest.raises(ValueError, match="move forward"):
        chord(z2, "p3", "p1")


def test_element_rejects_unknown_point(z2):
    with pytest.raises(ValueError, match="unknown marked point"):
        chord(z2, "p1", "nope")


def test_element_rejects_colliding_occupancy(z2):
    # p1 sits on arc 2, so a strand out of p1 cannot coexist with ι2.
    with pytest.raises(ValueError, match="collides"):
        strands.element(z2, [("p1", "p2")], [2])


def test_element_rejects_shared_start_arc():
    z = genus_two_diagram()
    # q0 and q2 lie on the same arc.
    with pytest.raises(ValueError, match="start on the same arc"):
        strands.element(z, [("q0", "q1"), ("q2", "q3")], [])


def test_element_rejects_shared_end_arc(z2):
    # p2 and p3 are distinct endpoints but (p1, p3) and (p2, p3) collide.
    with pytest.raises(ValueError, match="end on the same arc"):
        strands.element(z2, [("p1", "p3"), ("p2", "p3")], [])


def test_idempotent_rejects_unknown_arc(z2):
    with pytest.raises(ValueError, match="unknown arc"):
        strands.idempotent(z2, [5])


def test_strand_counts(z2):
    b = named_basis(z2)
    assert b["ι∅"].strand_count() == 0
    assert b["ρ1"].strand_count() == 1
    assert b["ρ12|ι1"].strand_count() == 2
    mixed = strand_sum(z2, b["ι∅"], b["ρ1"])
    assert mixed.strand_count() is None
    assert strand_sum(z2).strand_count() is None


# ---------------------------------------------------------------------------
# the one-strand multiplication table


def test_one_strand_table(z2):
    b = named_basis(z2)
    names = ["ι1", "ι2", "ρ1", "ρ2", "ρ12"]
    nonzero = {
        ("ι1", "ι1"): "ι1",
        ("ι2", "ι2"): "ι2",
        ("ι2", "ρ1"): "ρ1",
        ("ρ1", "ι1"): "ρ1",
        ("ι1", "ρ2"): "ρ2",
        ("ρ2", "ι2"): "ρ2",
        ("ι2", "ρ12"): "ρ12",
        ("ρ12", "ι2"): "ρ12",
        ("ρ1", "ρ2"): "ρ12",
    }
    for l, r in iproduct(names, repeat=2):
        got = strands.multiply(b[l], b[r])
        if (l, r) in nonzero:
            assert got == b[nonzero[l, r]], (l, r)
        else:
            assert not got.terms, (l, r)


def test_two_strand_products(z2):
    b = named_basis(z2)
    for name in ["ι12", "ρ12|ι1", "ρ1|ρ2"]:
        assert strands.multiply(b["ι12"], b[name]) == b[name]
        assert strands.multiply(b[name], b["ι12"]) == b[name] or name == "ι12"
    for l, r in iproduct(["ρ12|ι1", "ρ1|ρ2"], repeat=2):
        assert not strands.multiply(b[l], b[r]).terms


def test_idempotent_sandwich(z2):
    b = named_basis(z2)
    mid = strands.multiply(b["ι2"], strands.multiply(b["ρ1"], b["ι1"]))
    assert mid == b["ρ1"]


def test_cross_summand_products_vanish(z2):
    per = strands.summands(z2)
    for i, j in iproduct(per, repeat=2):
        if i == j:
            continue
        for a, b in iproduct(per[i], per[j]):
            assert not strands.multiply(a, b).terms


def test_product_stays_in_summand(z2):
    for a, b in iproduct(strands.basis(z2), repeat=2):
        ab = strands.multiply(a, b)
        if ab.terms:
            assert ab.strand_count() == a.strand_count() == b.strand_count()


# ---------------------------------------------------------------------------
# identities


def test_unit_is_identity(z2):
    one = unit(z2)
    for b in strands.basis(z2):
        assert strands.multiply(one, b) == b
        assert strands.multiply(b, one) == b


def test_summand_idempotent_sums_are_identities(z2):
    per = strands.summands(z2)
    for i, elems in per.items():
        ident = strand_sum(z2, *(b for b in elems if not next(iter(b.terms))[0]))
        for b in elems:
            assert strands.multiply(ident, b) == b
            assert strands.multiply(b, ident) == b


def test_left_right_idempotents(z2):
    b = named_basis(z2)

    def left(x):
        return strands.idempotent(x.z, strands.left_arcs(x))

    def right(x):
        return strands.idempotent(x.z, strands.right_arcs(x))

    assert left(b["ρ1"]) == b["ι2"]
    assert right(b["ρ1"]) == b["ι1"]
    assert left(b["ρ12|ι1"]) == b["ι12"]
    assert right(b["ρ12|ι1"]) == b["ι12"]
    for x in strands.basis(z2):
        assert strands.multiply(left(x), x) == x
        assert strands.multiply(x, right(x)) == x


# ---------------------------------------------------------------------------
# associativity


def test_associativity_exhaustive(z2):
    for z in [minimal_diagram(), z2]:
        basis = strands.basis(z)
        for a, b, c in iproduct(basis, repeat=3):
            left = strands.multiply(strands.multiply(a, b), c)
            right = strands.multiply(a, strands.multiply(b, c))
            assert left == right


def random_diagrams(seed, count):
    """Valid arc diagrams with at most three arcs, deterministically."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        n = rng.choice([2, 2, 3])
        pts = [f"m{i}" for i in range(2 * n)]
        cuts = sorted(rng.sample(range(2 * n + 1), rng.randint(0, 2)))
        ivs, prev = [], 0
        for c in cuts + [2 * n]:
            ivs.append(pts[prev:c])
            prev = c
        arcs = list(range(1, n + 1)) * 2
        rng.shuffle(arcs)
        z = ArcDiagram(ivs, dict(zip(pts, arcs)), rng.choice(["alpha", "beta"]))
        if z.validate() == []:
            found.append(z)
    return found


def test_associativity_random_diagrams():
    rng = random.Random(11)
    for z in random_diagrams(seed=7, count=4):
        basis = strands.basis(z)
        if len(basis) <= 32:
            triples = iproduct(basis, repeat=3)
        else:
            triples = (rng.choices(basis, k=3) for _ in range(600))
        for a, b, c in triples:
            left = strands.multiply(strands.multiply(a, b), c)
            right = strands.multiply(a, strands.multiply(b, c))
            assert left == right


# ---------------------------------------------------------------------------
# opposite algebras


def reversed_image(x, zrev):
    terms = frozenset(
        (frozenset((t, s) for s, t in movers), occ) for movers, occ in x.terms
    )
    return strands.StrandDiagramSum(zrev, terms)


def test_reversal_gives_opposite_table(z2):
    zrev = ArcDiagram([iv[::-1] for iv in z2.intervals], dict(z2.matching), z2.kind)
    basis = strands.basis(z2)
    for a, b in iproduct(basis, repeat=2):
        lhs = reversed_image(strands.multiply(a, b), zrev)
        rhs = strands.multiply(reversed_image(b, zrev), reversed_image(a, zrev))
        assert lhs == rhs


def test_mirror_keeps_table(z2):
    # Swapping the curve family leaves the algebra untouched.
    zmir = z2.mirrored()
    basis = strands.basis(z2)
    for a, b in iproduct(basis, repeat=2):
        lhs = strands.StrandDiagramSum(zmir, strands.multiply(a, b).terms)
        rhs = strands.multiply(
            strands.StrandDiagramSum(zmir, a.terms),
            strands.StrandDiagramSum(zmir, b.terms),
        )
        assert lhs == rhs


# ---------------------------------------------------------------------------
# double crossings


def test_double_crossing_vanishes():
    z = genus_two_diagram()
    assert z.validate() == []
    x = strands.element(z, [("q0", "q3"), ("q1", "q2")], [])
    y = strands.element(z, [("q3", "q4"), ("q2", "q5")], [])
    assert not strands.multiply(x, y).terms


def test_single_crossing_survives():
    z = genus_two_diagram()
    x = strands.element(z, [("q0", "q2"), ("q1", "q3")], [])
    y = strands.element(z, [("q2", "q5"), ("q3", "q4")], [])
    expect = strands.element(z, [("q0", "q5"), ("q1", "q4")], [])
    assert strands.multiply(x, y) == expect


def test_chains_of_chords():
    z = genus_two_diagram()
    a = chord(z, "q0", "q2")
    b = chord(z, "q2", "q4")
    assert strands.multiply(a, b) == chord(z, "q0", "q4")
    assert not strands.multiply(b, a).terms


# ---------------------------------------------------------------------------
# names


def test_render(z2):
    b = named_basis(z2)
    assert strands.render(strand_sum(z2)) == "0"
    assert strands.render(b["ρ1"]) == "ρ1"
    assert strands.render(strand_sum(z2, b["ρ12"], b["ρ1"])) == "ρ1 + ρ12"


def test_label_rejects_sums(z2):
    b = named_basis(z2)
    with pytest.raises(ValueError, match="single generators"):
        strands.label(strand_sum(z2, b["ρ1"], b["ρ2"]))


def test_mixed_diagram_operations_rejected(z2):
    other = genus_two_diagram()
    with pytest.raises(ValueError, match="different arc diagrams"):
        strands.multiply(unit(z2), unit(other))


# ---------------------------------------------------------------------------
# the regrouping invariant


def test_regroup_rejects_partial_blocks(z2):
    # A lone point-level horizontal on arc 1 misses its partner point, so
    # it cannot be the expansion of any symmetrized generator.
    pos = {p: (i, k) for i, iv in enumerate(z2.intervals) for k, p in enumerate(iv)}
    with pytest.raises(AssertionError, match="regroup"):
        strands._regroup(z2, pos, [(frozenset(), frozenset({"p2"}))])
