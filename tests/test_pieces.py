"""Shape checks for the built-in pieces."""

import pytest

import oracles
from sutured import pieces
from sutured import surface as sf
from sutured.darts import Darts


@pytest.mark.parametrize("name", pieces.catalog())
def test_every_piece_validates(name):
    d = pieces.build(name)
    assert sf.validate(d) == []


@pytest.mark.parametrize(
    "name,chi",
    [
        ("disk", 1),
        ("stab", -1),
        ("bigonpair", 0),
        ("az1", 2),
        ("az2", 0),
        ("cap1", 2),
        ("cap2", -1),
        ("u1", -1),
        ("u2", -2),
        ("rt2", 0),
        ("handle1", -1),
        ("handle2", -5),
    ],
)
def test_euler_characteristics(name, chi):
    d = pieces.build(name)
    assert len(d.vertices) - len(d.edges) + len(d.faces) == chi


def test_build_accepts_aliases():
    assert oracles.equivalent(pieces.build("HANDLE1_UW"), pieces.build("handle1"))
    assert oracles.equivalent(pieces.build("FIX-DISK"), pieces.build("disk"))
    with pytest.raises(KeyError):
        pieces.build("nope")


def test_interface_shapes():
    az2 = pieces.az2()
    assert [i.arc_diagram.kind for i in az2.interfaces] == ["beta", "alpha"]
    for itf in az2.interfaces:
        assert [len(iv) for iv in itf.arc_diagram.intervals] == [3, 1]
    assert [len(i.intervals) for i in pieces.az1().interfaces] == [2, 2]
    assert pieces.cap2().interfaces[0].arc_diagram.kind == "alpha"
    assert pieces.u2().interfaces[0].arc_diagram.kind == "beta"


def test_az2_marks_sit_on_crossings():
    az2 = pieces.az2()
    assert sorted(az2.marks) == ["z1", "z2", "z3", "z4", "z5"]
    assert set(az2.marks.values()) <= set(Darts(az2).crossings)


def test_az2_interfaces_mirror_each_other():
    az2 = pieces.az2()
    left, right = az2.interfaces
    assert left.arc_diagram.mirrored().kind == right.arc_diagram.kind
    shape = lambda z: [[z.matching[p] for p in iv] for iv in z.intervals]
    assert shape(left.arc_diagram) == shape(right.arc_diagram)


def test_marked_vertices_follow_interval_edges():
    az2 = pieces.az2()
    mv = az2.marked_vertices()
    assert mv["xL1"] == "l1" and mv["xL3"] == "l3"
    assert mv["yR1"] == "r4"
    u2 = pieces.u2()
    assert u2.marked_vertices() == {"p1": "u1", "p2": "u2", "p3": "u3", "p4": "u4"}


def test_pieces_are_fresh_objects():
    a = pieces.build("az2")
    b = pieces.build("az2")
    a.faces["D1"].suture = True
    assert b.faces["D1"].suture is False


def test_handle2_has_one_crossing_pair():
    h2 = pieces.handle2()
    xs = Darts(h2).crossings
    assert sorted(xs) == ["L:c", "R:w"]
    closed_a = [c for c in h2.alpha_curves.values() if c.closed]
    closed_b = [c for c in h2.beta_curves.values() if c.closed]
    assert len(closed_a) == 2 and len(closed_b) == 2


def test_u_blocks_tag_their_crossing():
    assert pieces.u1().marks == {"e": "e"}
    assert pieces.u2().marks == {"c": "c"}
    assert pieces.cap2().marks == {"w": "w"}
