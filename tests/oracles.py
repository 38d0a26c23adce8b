"""Slow, independent re-derivations used to cross-check the library.

Everything here is written from the definitions: generators by
filtering the full power set, the boundary map by reading face words
directly (only meaningful when no region spans a seam), F2 rank by
list-of-sets elimination, and membership in an integer image by solving
through the Smith form.  The Smith form itself is the library's
``smith_normal_form``, the one code path shared with it; its own
properties are tested in ``test_exactlin``.  The positive-kernel
simplex is kept here in its plain form, which rebuilds the reduced
costs from the whole tableau on every pivot, as the reference the
library's simplex must match answer for answer.  In the same way the
generator enumeration is kept in its include/exclude form, one choice
per crossing, and the Spin^c key in its full form, the whole product
U b reduced row by row; the library must match both exactly, list
order and class numbers included.  The differential's loop is kept as
it was before equal moves were cancelled and the moves indexed by
corner: every move against every generator.
"""

from fractions import Fraction
from itertools import combinations
from math import lcm

from sutured import surface
from sutured.exactlin import smith_normal_form


def crossing_vertices(d):
    """Vertices lying on curves of both families."""
    on = {"alpha": set(), "beta": set()}
    for family in ("alpha", "beta"):
        for c in d.curves(family).values():
            for e in c.segments:
                on[family].add(d.edges[e].frm)
                on[family].add(d.edges[e].to)
    return sorted(on["alpha"] & on["beta"])


def powerset_generators(d):
    """Filter every subset of crossings by the matching condition."""
    xs = crossing_vertices(d)
    if len(xs) > 16:
        raise ValueError("power set too large for the brute oracle")
    constraints = []
    for family in ("alpha", "beta"):
        for c in d.curves(family).values():
            verts = set()
            for e in c.segments:
                verts.add(d.edges[e].frm)
                verts.add(d.edges[e].to)
            constraints.append((c.closed, verts))
    out = []
    for r in range(len(xs) + 1):
        for combo in combinations(xs, r):
            s = set(combo)
            if all(
                (len(s & verts) == 1 if closed else len(s & verts) <= 1)
                for closed, verts in constraints
            ):
                out.append(frozenset(s))
    return sorted(out, key=lambda x: tuple(sorted(x)))


def _family_of(d, eid):
    k = d.edges[eid].kind
    return k if k in ("alpha", "beta") else None


def seamless_face_moves(d):
    """(x-corners, y-corners, interior) read straight off face words.

    Precondition: no non-suture region spans a seam, so each non-suture
    face word is its own boundary cycle.
    """
    for group in surface.regions(d):
        if d.faces[group[0]].suture:
            continue
        if len(group) > 1 or any(
            d.edges[e].kind == "seam" for (e, _s) in d.faces[group[0]].word
        ):
            raise ValueError("a region spans a seam; face reading is invalid")
    crossings = set(crossing_vertices(d))
    moves = []
    for f, face in d.faces.items():
        if face.suture:
            continue
        fams = [_family_of(d, e) for (e, _s) in face.word]
        if None in fams:
            continue  # face touches an interface; never a bigon or rectangle
        n = len(face.word)
        switches = [i for i in range(n) if fams[i - 1] != fams[i]]
        if len(switches) not in (2, 4):
            continue
        xs, ys = set(), set()
        for i in switches:
            e_prev, s_prev = face.word[i - 1]
            v = d.edges[e_prev].end(s_prev)
            if fams[i - 1] == "alpha":
                xs.add(v)
            else:
                ys.add(v)
        boundary_verts = set()
        for (e, _s) in face.word:
            boundary_verts.add(d.edges[e].frm)
            boundary_verts.add(d.edges[e].to)
        inside = set()
        for v in crossings - boundary_verts:
            touching = {
                g
                for g, gf in d.faces.items()
                for (e, _s) in gf.word
                if v in (d.edges[e].frm, d.edges[e].to)
            }
            if touching == {f}:
                inside.add(v)
        moves.append((frozenset(xs), frozenset(ys), frozenset(inside)))
    return moves


def naive_differential(d):
    """Generator -> set of boundary generators, mod 2, by face reading."""
    gens = powerset_generators(d)
    moves = seamless_face_moves(d)
    out = {}
    for x in gens:
        hits = {}
        for xs, ys, inside in moves:
            if xs <= x and not (ys & x) and not (inside & x):
                y = frozenset((x - xs) | ys)
                hits[y] = hits.get(y, 0) + 1
        out[x] = {y for y, c in hits.items() if c % 2}
    return out


def reference_differential_entries(basis, census):
    """Positions (i, j) where ``basis[i]`` appears in d(``basis[j]``).

    The all-moves loop: every bigon and rectangle record of ``census``
    (``sfc.region_census``) is tested against every generator, and the
    images are counted mod 2 per generator, with no cancellation of
    equal moves beforehand and no index.  The library's loop must give
    exactly these entries.
    """
    idx = {x: i for i, x in enumerate(basis)}
    moves = [
        (rec.moves_from, rec.moves_to, rec.interior)
        for rec in census
        if rec.shape in ("bigon", "rect")
    ]
    entries = set()
    for j, x in enumerate(basis):
        counts = {}
        for xs, ys, inside in moves:
            if xs <= x and not (ys & x) and not (inside & x):
                y = frozenset((x - xs) | ys)
                counts[y] = counts.get(y, 0) + 1
        entries.update((idx[y], j) for y, c in counts.items() if c % 2)
    return entries


def constant_multiplicity_violation(d, witness):
    """Check a claimed inadmissibility witness from the definitions.

    Returns None when the witness is a nonzero nonnegative combination
    of non-suture faces whose edge multiplicities vanish on every
    boundary and seam edge and stay constant along every curve;
    otherwise a string naming the first failure.
    """
    if not witness:
        return "witness is empty"
    for f, c in witness.items():
        if d.faces[f].suture:
            return f"face {f} carries the suture"
        if c <= 0:
            return f"coefficient of {f} is not positive"
    mult = {}
    for f, c in witness.items():
        for (e, s) in d.faces[f].word:
            mult[e] = mult.get(e, 0) + c * s
    for e, ed in d.edges.items():
        if ed.kind not in ("alpha", "beta") and mult.get(e, 0) != 0:
            return f"edge {e} has net multiplicity {mult[e]}"
    for family in ("alpha", "beta"):
        for c in d.curves(family).values():
            values = {mult.get(e, 0) for e in c.segments}
            if len(values) > 1:
                return f"curve {c.id} multiplicity varies: {sorted(values)}"
    return None


def naive_f2_rank(rows):
    """Rank over F2 of rows given as iterables of column labels."""
    basis = []
    for row in rows:
        cur = set(row)
        for b in basis:
            if max(b) in cur:
                cur ^= b
        if cur:
            basis.append(cur)
            basis.sort(key=max, reverse=True)
    return len(basis)


def z_image_contains(m, target):
    """Solve m * x = target over Z for an ``IntegerMatrix`` ``m``;
    returns one solution or None.

    Through the Smith form S = U m V: target lies in the image iff each
    entry of U target is divisible by its invariant factor (zero where
    the factor is zero).  The reference that ``cokernel_residue`` keys
    are compared against.
    """
    if len(target) != m.rows:
        raise ValueError("target length mismatch")
    if m.cols == 0:
        return () if all(t == 0 for t in target) else None
    if m.rows == 0:
        return tuple(0 for _ in range(m.cols))
    S, U, V = smith_normal_form(m.dense())
    ub = [sum(U[i][k] * target[k] for k in range(m.rows)) for i in range(m.rows)]
    y = [0] * m.cols
    for i in range(m.rows):
        d = S[i][i] if i < min(m.rows, m.cols) else 0
        if d != 0:
            if ub[i] % d != 0:
                return None
            y[i] = ub[i] // d
        elif ub[i] != 0:
            return None
    return tuple(sum(V[i][k] * y[k] for k in range(m.cols)) for i in range(m.cols))


def reference_positive_kernel_witness(rows):
    """A nonzero nonnegative integer kernel vector of ``rows``, or None.

    Phase I on {v >= 0, A v = 0, sum(v) = 1} with no F2 shortcut, so
    every system reaches the simplex.
    """
    n = len(rows[0]) if rows else 0
    if n == 0:
        return None
    a_rows = [[Fraction(v) for v in row] for row in rows]
    a_rows.append([Fraction(1)] * n)
    sol = reference_phase1_simplex(a_rows, [Fraction(0)] * len(rows) + [Fraction(1)])
    if sol is None:
        return None
    denom = lcm(*(f.denominator for f in sol))
    return tuple(int(f * denom) for f in sol)


def reference_phase1_simplex(a_rows, b):
    """Feasibility of {x >= 0, A x = b} with b >= 0, Bland's rule, with
    the reduced costs rebuilt from the tableau before every pivot."""
    nr = len(a_rows)
    nc = len(a_rows[0])
    T = []
    for i in range(nr):
        row = list(a_rows[i])
        row += [Fraction(int(i == j)) for j in range(nr)]
        row.append(b[i])
        T.append(row)
    basis = [nc + i for i in range(nr)]
    total = nc + nr

    def reduced_costs():
        costs = [Fraction(0)] * total
        for j in range(nc, total):
            costs[j] = Fraction(1)
        for i, bi in enumerate(basis):
            if costs[bi] != 0:
                f = costs[bi]
                for j in range(total):
                    costs[j] -= f * T[i][j]
        return costs

    while True:
        costs = reduced_costs()
        enter = next((j for j in range(total) if costs[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(nr):
            if T[i][enter] > 0:
                ratio = T[i][-1] / T[i][enter]
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave is None:
            return None
        pv = T[leave][enter]
        T[leave] = [v / pv for v in T[leave]]
        for i in range(nr):
            if i != leave and T[i][enter] != 0:
                f = T[i][enter]
                T[i] = [x - f * y for x, y in zip(T[i], T[leave])]
        basis[leave] = enter
    if sum(T[i][-1] for i in range(nr) if basis[i] >= nc) != 0:
        return None
    sol = [Fraction(0)] * nc
    for i, bi in enumerate(basis):
        if bi < nc:
            sol[bi] = T[i][-1]
    return sol


def reference_generators(d):
    """Occupancy sets by deciding every crossing in sorted order, include
    or exclude, pruned on closed curves that can no longer be used."""
    crossings = {}
    for family in ("alpha", "beta"):
        for c in d.curves(family).values():
            for e in c.segments:
                for v in (d.edges[e].frm, d.edges[e].to):
                    crossings.setdefault(v, {})[family] = c.id
    crossings = {v: f for v, f in crossings.items() if len(f) == 2}
    order = sorted(crossings)
    closed = {
        c.id for family in ("alpha", "beta") for c in d.curves(family).values() if c.closed
    }
    remaining = {}  # curve -> undecided crossings
    for v in order:
        for cid in crossings[v].values():
            remaining[cid] = remaining.get(cid, 0) + 1
    used = {cid: 0 for cid in remaining}
    found = []
    _reference_extend(0, [], order, crossings, closed, used, remaining, found)
    return sorted(found, key=lambda x: tuple(sorted(x)))


def _reference_extend(i, chosen, order, crossings, closed, used, remaining, found):
    if i == len(order):
        if all(used.get(cid, 0) == 1 for cid in closed):
            found.append(frozenset(chosen))
        return
    v = order[i]
    cids = list(crossings[v].values())
    for cid in cids:
        remaining[cid] -= 1
    if all(used[cid] + remaining[cid] >= 1 for cid in cids if cid in closed):
        _reference_extend(i + 1, chosen, order, crossings, closed, used, remaining, found)
    if all(used[cid] == 0 for cid in cids):
        for cid in cids:
            used[cid] += 1
        chosen.append(v)
        _reference_extend(i + 1, chosen, order, crossings, closed, used, remaining, found)
        chosen.pop()
        for cid in cids:
            used[cid] -= 1
    for cid in cids:
        remaining[cid] += 1


def reference_spinc_partition(d, gens):
    """Generator -> class index, keyed by the full product U b.

    The same boundary matrix as the library's (alpha vertices by
    non-suture regions), Smith-reduced to S = U A V; the key of a
    generator's occupancy vector b is every entry of U b, reduced mod
    its invariant factor where that factor is nonzero.  Classes are
    numbered by first appearance in the order of ``gens``.
    """
    verts = sorted(
        {
            v
            for c in d.curves("alpha").values()
            for e in c.segments
            for v in (d.edges[e].frm, d.edges[e].to)
        }
    )
    if not verts:
        return {x: 0 for x in gens}
    vrow = {v: i for i, v in enumerate(verts)}
    alpha_edges = {e for c in d.curves("alpha").values() for e in c.segments}
    groups = [g for g in surface.regions(d) if not d.faces[g[0]].suture]
    dense = [[0] * len(groups) for _ in verts]
    for j, group in enumerate(groups):
        for f in group:
            for (e, s) in d.faces[f].word:
                if e in alpha_edges:
                    dense[vrow[d.edges[e].to]][j] += s
                    dense[vrow[d.edges[e].frm]][j] -= s
    n = len(verts)
    if groups:
        S, U, _V = smith_normal_form(dense)
        diag = [S[i][i] if i < min(n, len(groups)) else 0 for i in range(n)]
    else:
        U, diag = [[int(i == k) for k in range(n)] for i in range(n)], [0] * n
    labels = {}
    classes = {}
    for x in gens:
        b = [1 if v in x else 0 for v in verts]
        ub = [sum(U[i][k] * b[k] for k in range(n)) for i in range(n)]
        key = tuple(ub[i] % diag[i] if diag[i] else ub[i] for i in range(n))
        classes[x] = labels.setdefault(key, len(labels))
    return classes
