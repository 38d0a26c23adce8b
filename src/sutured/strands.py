"""Strands algebra of an arc diagram over F2.

A basis element ``a(M, O)`` consists of a set ``M`` of moving strands --
chords running upward between two marked points of the same interval --
together with a set ``O`` of occupied arcs carrying symmetrized horizontal
strands.  The moving strands must depart from pairwise-distinct arcs and
arrive on pairwise-distinct arcs, and ``O`` must avoid both.  Elements are
F2 sums of such generators; the grading by strand count ``|M| + |O|`` is
preserved by multiplication, so the algebra splits into summands.

Multiplication concatenates strands.  Each occupied arc is first expanded
into its two point-level horizontals, diagrams compose only when the ending
point set of the left factor equals the starting point set of the right,
and a concatenation is discarded when two strands cross twice (detected as
a failure of crossing counts to add).  The surviving point-level diagrams
always regroup into symmetrized generators; this is checked at runtime.
"""

from dataclasses import dataclass, field
from itertools import combinations, product

from .surface import ArcDiagram


@dataclass(frozen=True, slots=True)
class StrandDiagramSum:
    """F2 sum of strand diagrams over one arc diagram.

    ``terms`` is a frozenset of generators ``(movers, occupied)`` where
    ``movers`` is a frozenset of ``(from_point, to_point)`` pairs and
    ``occupied`` is a frozenset of arc indices.  Equality and hashing use
    the terms only; the arc diagram rides along for the operations.
    """

    z: ArcDiagram = field(compare=False, repr=False)
    terms: frozenset = frozenset()

    def strand_count(self):
        """Common strand count of the terms, or None if mixed or zero."""
        counts = {len(m) + len(o) for m, o in self.terms}
        return counts.pop() if len(counts) == 1 else None


# ---------------------------------------------------------------------------
# bookkeeping


def _positions(z: ArcDiagram) -> dict:
    """point id -> (interval index, position in interval)."""
    return {p: (i, k) for i, iv in enumerate(z.intervals) for k, p in enumerate(iv)}


def _segment_offsets(z: ArcDiagram) -> list:
    """Starting label for each interval's run of inter-point segments."""
    offs = []
    base = 0
    for iv in z.intervals:
        offs.append(base)
        base += max(len(iv) - 1, 0)
    return offs


def _term_key(pos, term):
    movers, occupied = term
    spans = tuple(sorted((pos[s], pos[t]) for s, t in movers))
    return (len(movers) + len(occupied), len(movers), spans, tuple(sorted(occupied)))


# ---------------------------------------------------------------------------
# constructors


def element(z: ArcDiagram, movers, occupied) -> StrandDiagramSum:
    """Single generator a(movers, occupied), validated against ``z``."""
    pos = _positions(z)
    mset = set()
    start_arcs = []
    end_arcs = []
    for frm, to in movers:
        if frm not in pos or to not in pos:
            raise ValueError(f"unknown marked point in strand ({frm!r}, {to!r})")
        if pos[frm][0] != pos[to][0]:
            raise ValueError(
                f"strand ({frm!r}, {to!r}) connects different intervals"
            )
        if pos[frm][1] >= pos[to][1]:
            raise ValueError(f"strand ({frm!r}, {to!r}) does not move forward")
        start_arcs.append(z.matching[frm])
        end_arcs.append(z.matching[to])
        mset.add((frm, to))
    if len(set(start_arcs)) != len(start_arcs):
        raise ValueError("two strands start on the same arc")
    if len(set(end_arcs)) != len(end_arcs):
        raise ValueError("two strands end on the same arc")
    oset = set()
    arcs = set(z.matching.values())
    for a in occupied:
        if a not in arcs:
            raise ValueError(f"unknown arc index {a!r}")
        if a in start_arcs or a in end_arcs:
            raise ValueError(f"occupied arc {a!r} collides with a moving strand")
        oset.add(a)
    return StrandDiagramSum(z, frozenset({(frozenset(mset), frozenset(oset))}))


def idempotent(z: ArcDiagram, arcs) -> StrandDiagramSum:
    """The idempotent occupying the given set of arcs."""
    return element(z, [], arcs)


# ---------------------------------------------------------------------------
# basis enumeration


def basis(z: ArcDiagram) -> list:
    """All generators, sorted deterministically (summand, then shape)."""
    if len(z.matching) > 16:
        raise ValueError("arc diagram too large to enumerate a strand basis")
    pos = _positions(z)
    chords = []
    for iv in z.intervals:
        for k, l in combinations(range(len(iv)), 2):
            chords.append((iv[k], iv[l]))
    arcs = sorted(set(z.matching.values()))
    out = []
    for r in range(len(arcs) + 1):
        for combo in combinations(chords, r):
            starts = [z.matching[s] for s, _ in combo]
            ends = [z.matching[t] for _, t in combo]
            if len(set(starts)) != r or len(set(ends)) != r:
                continue
            free = [a for a in arcs if a not in starts and a not in ends]
            for k in range(len(free) + 1):
                for occ in combinations(free, k):
                    out.append((frozenset(combo), frozenset(occ)))
    out.sort(key=lambda t: _term_key(pos, t))
    return [StrandDiagramSum(z, frozenset({t})) for t in out]


def summands(z: ArcDiagram) -> dict:
    """strand count -> basis elements, for every count up to the arc count."""
    arcs = set(z.matching.values())
    out = {i: [] for i in range(len(arcs) + 1)}
    for b in basis(z):
        out[b.strand_count()].append(b)
    return out


def algebra_summary(z: ArcDiagram) -> dict:
    """Ranks and named bases of the summands, in a stable order."""
    per = summands(z)
    summary = {
        "arcs": len(set(z.matching.values())),
        "total_rank": sum(len(v) for v in per.values()),
        "summands": [
            {
                "strands": i,
                "rank": len(per[i]),
                "basis": [label(b) for b in per[i]],
            }
            for i in sorted(per)
        ],
    }
    return summary


# ---------------------------------------------------------------------------
# names


def _chord_label(pos, offsets, frm, to):
    i, k = pos[frm]
    l = pos[to][1]
    segs = [offsets[i] + s for s in range(k + 1, l + 1)]
    if segs[-1] > 9:
        return "ρ" + ",".join(str(s) for s in segs)
    return "ρ" + "".join(str(s) for s in segs)


def _term_label(pos, offsets, term):
    movers, occupied = term
    parts = [
        _chord_label(pos, offsets, s, t)
        for s, t in sorted(movers, key=lambda st: pos[st[0]])
    ]
    if occupied:
        parts.append("ι" + "".join(str(a) for a in sorted(occupied)))
    if not parts:
        return "ι∅"
    return "|".join(parts)


def label(x: StrandDiagramSum) -> str:
    """Name of a single generator (raises on sums and on zero)."""
    if len(x.terms) != 1:
        raise ValueError("label is defined for single generators")
    pos = _positions(x.z)
    return _term_label(pos, _segment_offsets(x.z), next(iter(x.terms)))


def render(x: StrandDiagramSum) -> str:
    """Human-readable form of any element; '0' for the zero element."""
    if not x.terms:
        return "0"
    pos = _positions(x.z)
    offs = _segment_offsets(x.z)
    names = [_term_label(pos, offs, t) for t in sorted(x.terms, key=lambda t: _term_key(pos, t))]
    return " + ".join(names)


# ---------------------------------------------------------------------------
# idempotent bookkeeping


def left_arcs(x: StrandDiagramSum) -> frozenset:
    """Arcs a generator departs from (including the occupied ones)."""
    if len(x.terms) != 1:
        raise ValueError("defined for single generators")
    movers, occupied = next(iter(x.terms))
    return frozenset(x.z.matching[s] for s, _ in movers) | occupied


def right_arcs(x: StrandDiagramSum) -> frozenset:
    """Arcs a generator arrives on (including the occupied ones)."""
    if len(x.terms) != 1:
        raise ValueError("defined for single generators")
    movers, occupied = next(iter(x.terms))
    return frozenset(x.z.matching[t] for _, t in movers) | occupied


# ---------------------------------------------------------------------------
# multiplication


def _expand(z: ArcDiagram, term) -> list:
    """Point-level diagrams of a generator: one point choice per occupied arc."""
    movers, occupied = term
    arcpts = z.arcs()
    return [(movers, frozenset(c)) for c in product(*(arcpts[a] for a in sorted(occupied)))]


def _crossings(pos, movers, horiz) -> int:
    strands = [(pos[s], pos[t]) for s, t in movers]
    strands += [(pos[p], pos[p]) for p in horiz]
    n = 0
    for (a1, b1), (a2, b2) in combinations(strands, 2):
        if a1[0] != a2[0]:
            continue
        if (a1 < a2 and b1 > b2) or (a2 < a1 and b2 > b1):
            n += 1
    return n


def _compose(pos, e1, e2):
    """Concatenate two point-level diagrams, or None if they do not meet.

    Returns None as well when two strands of the concatenation cross twice,
    detected as the crossing counts failing to add.
    """
    m1, h1 = e1
    m2, h2 = e2
    ends = frozenset(t for _, t in m1) | h1
    starts = frozenset(s for s, _ in m2) | h2
    if ends != starts:
        return None
    follow = {s: t for s, t in m2}
    movers = [(s, follow.get(t, t)) for s, t in m1]
    horiz = []
    for p in h1:
        q = follow.get(p, p)
        if q == p:
            horiz.append(p)
        else:
            movers.append((p, q))
    mset = frozenset(movers)
    hset = frozenset(horiz)
    before = _crossings(pos, m1, h1) + _crossings(pos, m2, h2)
    if _crossings(pos, mset, hset) != before:
        return None
    return (mset, hset)


def _regroup(z: ArcDiagram, pos, elementaries) -> frozenset:
    """Collect point-level diagrams back into symmetrized generators."""
    remaining = set(elementaries)
    terms = set()
    while remaining:
        m, h = min(remaining, key=lambda e: _term_key(pos, e))
        occ = frozenset(z.matching[p] for p in h)
        block = set(_expand(z, (m, occ)))
        if len(occ) != len(h) or not block <= remaining:
            raise AssertionError(
                "product does not regroup into symmetrized generators"
            )
        remaining -= block
        terms.add((m, occ))
    return frozenset(terms)


def multiply(x: StrandDiagramSum, y: StrandDiagramSum) -> StrandDiagramSum:
    """Concatenation product; zero on mismatch or double crossing."""
    z = x.z
    if z is not y.z and z != y.z:
        raise ValueError("elements live over different arc diagrams")
    pos = _positions(z)
    acc = set()
    for t1 in x.terms:
        for e1 in _expand(z, t1):
            for t2 in y.terms:
                for e2 in _expand(z, t2):
                    prod = _compose(pos, e1, e2)
                    if prod is not None:
                        acc ^= {prod}
    return StrandDiagramSum(z, _regroup(z, pos, acc))
