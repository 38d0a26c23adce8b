"""Slow, independent re-derivations used to cross-check the library.

Everything here is written from the definitions: generators by
filtering the full power set, the boundary map by reading face words
directly (only meaningful when no region spans a seam), F2 rank by
list-of-sets elimination, and membership in an integer image by solving
through a textbook Smith form S = U A V kept here with both U and V,
so no algebra is shared with the library's U-only reduction; its
properties are tested in ``test_exactlin``.  The positive-kernel
simplex is kept here in its plain form, which rebuilds the reduced
costs from the whole tableau on every pivot, as the reference the
library's simplex must match answer for answer.  In the same way the
generator enumeration is kept in its include/exclude form, one choice
per crossing, and the Spin^c key in its full form, the whole product
U b reduced row by row; the library must match both exactly, list
order and class numbers included.  The differential's loop is kept as
it was before equal moves were cancelled and the moves indexed by
corner: every move against every generator.  The surface layer's edits
and checks are kept as whole-diagram rescans:
``reference_trivial_destabilize``, the one destabilization the tests
use (the library has none: its staged 1-handle cancels the block's
generator from a box tensor instead), cuts along alpha by
``reference_surger_pair``, which reads each alpha vertex's link from
``reference_vertex_links``; ``reference_validate`` runs every
structural check in the library's order, each recomputing what it
reads, with faces grouped by a fresh search for every component and
vertex links (``reference_vertex_links``) walked from corners and
flanking sides read off the face words one vertex at a time;
``recompute_suture_flags`` sets the suture flags in a pass of its own
over the regions.  The library's cut and one-index validator, which
sets the flags inside its check, must give the same diagrams, flags
and problem lists, failures included.  ``reference_simplify`` reduces
a diagram to a normal form, dissolving seams and fusing two-valent
vertices by a sorted sweep that restarts after each edit; the library
keeps no such reduction, since its counts read regions across seams,
and the tests use it to compare a destabilization with a known diagram
up to isomorphism and to check that the reduction leaves the complex
as it was.  ``reference_vertex_faces`` reads a vertex's
faces in a scan of its own, which the census's one pass must match.
``reference_region_census`` finds the regions by a component search of
its own and walks each one's boundary with this module's own copies of
the boundary walk, the run split and the corner rule, none of them read
from ``sfc``.  ``reference_action_census`` tries every subset of the
non-suture faces for each chord, as the library did before it grew
candidates from the chord, with its own copy of the quadrilateral test
on the same walks; the library must give the same records in the same
order.  ``powerset_domain_moves`` tries every set of non-suture faces
and keeps the embedded bigons and rectangles, classified with the same
boundary walk, run split and corner rule, so its domains may span
several regions where the census takes one move per region;
``moves_differential`` applies such moves to generators.
``grid_rectangle_differential`` counts empty rectangles on an n x n
grid from permutations alone, with no surface or census code.

``reference_bordered_invariant`` builds a bordered structure in the
frozenset form: each generator is the frozenset of its crossings' vertex
ids, read from the complex's ``basis``, and each action and δ¹ term is
found by set operations on the census records.  ``as_reference``
renames a library structure, whose generators are positions in its
complex's ``gens``, into that form, and the two must be equal field for
field.

Four references check what the library builds instead of re-deriving
it; two of the three on bordered structures read the frozenset form.
``is_elementary`` checks that a builtin piece's structure is
elementary, as the staged route's pairing pieces and handle blocks must
be: one generator, no differential, no non-idempotent action.
``check_relations`` verifies a bordered structure's relations: ∂² = 0,
idempotent compatibility, composition of actions against the strands
product, the Leibniz rule where no algebra differential term can arise,
and for type D the δ¹ structure equation.  ``box_tensor`` pairs a
type-A with a type-D structure from their tables alone; by the pairing
theorem it must equal the complex of the concatenated diagram, basis
and entries alike; the library's ``modules.box_tensor``, which the
staged route pairs with, must equal it field for field.
``equivalent`` tests two diagrams for isomorphism by comparing
``canonical_signature``s, the least traversal signature over the
starting flags of each component; the surgery tests use it as their
isomorphism oracle.

The tests name a complex's generators by their vertex ids: through its
``basis`` view, ``boundary_of`` reads a generator's column back as
generators, ``apply_table`` a chain-map table's image of a sum of
generators, and ``is_boundary`` whether a sum lies in the image of the
differential.  The library's route tables and contact class read index
tuples and column indices instead.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product
from math import lcm

from sutured import modules, sfc, strands, surface
from sutured.exactlin import BinaryMatrix, set_bits


def crossing_vertices(d):
    """Vertices lying on curves of both families."""
    on = {"alpha": set(), "beta": set()}
    for family in ("alpha", "beta"):
        for c in d.curves(family).values():
            for e in c.segments:
                on[family].add(d.edges[e].frm)
                on[family].add(d.edges[e].to)
    return sorted(on["alpha"] & on["beta"])


def intersection_vertices(d):
    """Vertices met by edges of both curve kinds, whether or not a curve
    holds those edges."""
    fams = {}
    for ed in d.edges.values():
        if ed.kind in surface.CURVE_KINDS:
            fams.setdefault(ed.frm, set()).add(ed.kind)
            fams.setdefault(ed.to, set()).add(ed.kind)
    return sorted(v for v, fs in fams.items() if fs == {"alpha", "beta"})


def reference_vertex_faces(d):
    """Vertex -> set of faces whose word touches it, by a scan of its
    own over the face words."""
    incident = {}
    for f, face in d.faces.items():
        for (e, _s) in face.word:
            ed = d.edges[e]
            incident.setdefault(ed.frm, set()).add(f)
            incident.setdefault(ed.to, set()).add(f)
    return incident


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
    for group in _reference_regions(d):
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
    return moves_differential(powerset_generators(d), seamless_face_moves(d))


def moves_differential(gens, moves):
    """Generator -> set of boundary generators, mod 2: each move
    (x-corners, y-corners, interior) carries every generator that holds
    its x-corners and misses its y-corners and interior."""
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


# ---------------------------------------------------------------------------
# complexes and tables read through the vertex-id basis


def _set_bits(column):
    return [i for i in range(column.bit_length()) if column >> i & 1]


def boundary_of(cx, x) -> frozenset:
    """d(x) for ``x``, a generator of the complex ``cx`` as a vertex-id
    frozenset: the column at x's place in ``cx.basis``, read back as
    basis elements."""
    column = cx.differential.columns[cx.basis.index(x)]
    return frozenset(cx.basis[i] for i in _set_bits(column))


def apply_table(table, gens) -> frozenset:
    """The image under a ``glue.ChainMapTable`` of the sum of ``gens``,
    source generators as vertex-id frozensets, as target generators."""
    out = set()
    for g in gens:
        column = table.matrix.columns[table.source.basis.index(g)]
        out ^= {table.target.basis[i] for i in _set_bits(column)}
    return frozenset(out)


def is_boundary(cx, gens) -> bool:
    """Does the sum of ``gens``, generators of ``cx`` as vertex-id
    frozensets, lie in the image of the differential?  Both sides are
    ranked by ``naive_f2_rank`` over basis positions."""
    columns = [_set_bits(c) for c in cx.differential.columns]
    vec = set()
    for g in gens:
        vec ^= {cx.basis.index(g)}
    return naive_f2_rank(columns + [vec]) == naive_f2_rank(columns)


def smith_normal_form(mat):
    """Compute S = U * A * V in Smith normal form.

    Returns ``(S, U, V)`` as dense lists; U and V are unimodular, S is
    diagonal with s_i | s_{i+1}.  Textbook elimination with exact integer
    arithmetic: the first nonzero entry is the pivot, and the row and
    column operations are applied to U and V alike.
    """
    S = [list(row) for row in mat]
    nr = len(S)
    nc = len(S[0]) if nr else 0
    U = [[int(i == j) for j in range(nr)] for i in range(nr)]
    V = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def swap_rows(i, j):
        S[i], S[j] = S[j], S[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in S:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, k):  # row dst += k * row src
        S[dst] = [a + k * b for a, b in zip(S[dst], S[src])]
        U[dst] = [a + k * b for a, b in zip(U[dst], U[src])]

    def add_col(dst, src, k):
        for row in S:
            row[dst] += k * row[src]
        for row in V:
            row[dst] += k * row[src]

    def negate_row(i):
        S[i] = [-a for a in S[i]]
        U[i] = [-a for a in U[i]]

    t = 0
    while t < min(nr, nc):
        # find a nonzero pivot at (t, t) or beyond
        pr = pc = -1
        for i in range(t, nr):
            for j in range(t, nc):
                if S[i][j] != 0:
                    pr, pc = i, j
                    break
            if pr >= 0:
                break
        if pr < 0:
            break
        swap_rows(t, pr)
        swap_cols(t, pc)
        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, nr):
                if S[i][t] != 0:
                    if S[i][t] % S[t][t] == 0:
                        add_row(i, t, -S[i][t] // S[t][t])
                    else:
                        q = S[i][t] // S[t][t]
                        add_row(i, t, -q)
                        swap_rows(i, t)
                        dirty = True
            for j in range(t + 1, nc):
                if S[t][j] != 0:
                    if S[t][j] % S[t][t] == 0:
                        add_col(j, t, -S[t][j] // S[t][t])
                    else:
                        q = S[t][j] // S[t][t]
                        add_col(j, t, -q)
                        swap_cols(j, t)
                        dirty = True
            if not dirty and all(S[i][t] == 0 for i in range(t + 1, nr)) and all(
                S[t][j] == 0 for j in range(t + 1, nc)
            ):
                break
        # divisibility fix-up: S[t][t] must divide everything below-right
        val = S[t][t]
        fixed = True
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if S[i][j] % val != 0:
                    add_row(t, i, 1)
                    fixed = False
                    break
            if not fixed:
                break
        if fixed:
            if S[t][t] < 0:
                negate_row(t)
            t += 1
    return S, U, V


def determinant(mat):
    """Determinant of a square integer matrix, by elimination over Q."""
    rows = [[Fraction(v) for v in row] for row in mat]
    n = len(rows)
    det = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if rows[r][c]), None)
        if p is None:
            return 0
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            det = -det
        det *= rows[c][c]
        for r in range(c + 1, n):
            f = rows[r][c] / rows[c][c]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return int(det)


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
    S, U, V = smith_normal_form([[row.get(j, 0) for j in range(m.cols)] for row in m.sparse])
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
    groups = [g for g in _reference_regions(d) if not d.faces[g[0]].suture]
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


def _reference_boundary_cycles(d, faces, inner):
    """Boundary cycles of a union of faces, as lists of (face, pos): the
    occurrences of the ``inner`` edges cancel pairwise and the walk
    jumps across them; every other occurrence lies on one cycle."""
    occ_of = {}
    for f in faces:
        for i, (e, _s) in enumerate(d.faces[f].word):
            occ_of.setdefault(e, []).append((f, i))
    partner = {}
    for e in inner:
        a, b = occ_of[e]
        partner[a], partner[b] = b, a

    def advance(f, i):
        i = (i + 1) % len(d.faces[f].word)
        while d.faces[f].word[i][0] in inner:
            f, i = partner[(f, i)]
            i = (i + 1) % len(d.faces[f].word)
        return f, i

    todo = {(f, i) for f in faces for i, (e, _s) in enumerate(d.faces[f].word)
            if e not in inner}
    cycles = []
    while todo:
        cur = start = min(todo)
        cyc = []
        while True:
            cyc.append(cur)
            todo.discard(cur)
            cur = advance(*cur)
            if cur == start:
                break
        cycles.append(cyc)
    return cycles


def _reference_class(d, occ):
    f, i = occ
    kind = d.edges[d.faces[f].word[i][0]].kind
    return kind if kind in ("alpha", "beta") else "bd"


def _reference_cycle_runs(d, cycle):
    """Maximal runs of one edge class along a cycle: (class, occurrences)."""
    classes = [_reference_class(d, occ) for occ in cycle]
    if len(set(classes)) == 1:
        return [(classes[0], list(cycle))]
    k = next(i for i in range(len(cycle)) if classes[i - 1] != classes[i])
    runs = []
    for c, occ in zip(classes[k:] + classes[:k], cycle[k:] + cycle[:k]):
        if runs and runs[-1][0] == c:
            runs[-1][1].append(occ)
        else:
            runs.append((c, [occ]))
    return runs


def _reference_corner_points(d, runs):
    """x-corners (an alpha run ends) and y-corners (a beta run ends) at
    the junctions of consecutive curve runs: each the head of the
    incoming run's last edge."""
    xs, ys = set(), set()
    for (c_in, run), (c_out, _run) in zip(runs, runs[1:] + runs[:1]):
        if "bd" in (c_in, c_out):
            continue
        f, i = run[-1]
        e, s = d.faces[f].word[i]
        (xs if c_in == "alpha" else ys).add(d.edges[e].end(s))
    return frozenset(xs), frozenset(ys)


def _reference_interior(d, faces, cycle):
    """Crossings off the cycle whose faces all lie in ``faces``."""
    on_cycle = set()
    for (f, p) in cycle:
        ed = d.edges[d.faces[f].word[p][0]]
        on_cycle.update((ed.frm, ed.to))
    incident = reference_vertex_faces(d)
    return frozenset(
        v for v in crossing_vertices(d)
        if v not in on_cycle and incident[v] <= set(faces)
    )


def reference_region_census(d):
    """``sfc.region_census`` from the definitions: the non-suture
    regions by a fresh component search across the seams, each walked
    with its seams cancelled and classified by its runs."""
    seams = {e for e, ed in d.edges.items() if ed.kind == "seam"}
    interface = d.interface_edge_ids()
    out = []
    for group in _reference_regions(d):
        if d.faces[group[0]].suture:
            continue
        rec = sfc.RegionShape(tuple(group), "other")
        inner = {e for f in group for (e, _s) in d.faces[f].word if e in seams}
        cycles = _reference_boundary_cycles(d, group, inner)
        if len(cycles) == 1:
            runs = _reference_cycle_runs(d, cycles[0])
            pattern = sorted(c for c, _run in runs)
            rec.moves_from, rec.moves_to = _reference_corner_points(d, runs)
            rec.interior = _reference_interior(d, group, cycles[0])
            if pattern == ["alpha", "beta"]:
                rec.shape = "bigon"
            elif len(runs) == 4 and "bd" not in pattern:
                rec.shape = "rect"
            elif len(runs) == 4 and pattern.count("bd") == 1:
                chord = tuple(d.faces[f].word[i][0] for c, run in runs if c == "bd"
                              for (f, i) in run)
                if interface.issuperset(chord):
                    rec.shape, rec.chord = "port", chord
        out.append(rec)
    return out


def _reference_try_quad(d, faces, bd, k, t, i, j):
    """The quadrilateral test on one face set, its interior read from
    this module's own crossing and vertex -> faces scans."""
    occ = {}
    for f in faces:
        for (e, _s) in d.faces[f].word:
            occ[e] = occ.get(e, 0) + 1
    inner = {e for e, n in occ.items() if n == 2}
    if inner & set(bd):
        return None
    cycles = _reference_boundary_cycles(d, faces, inner)
    if len(cycles) != 1:
        return None
    runs = _reference_cycle_runs(d, cycles[0])
    if len(runs) != 4:
        return None
    bd_runs = [r for r in runs if r[0] == "bd"]
    if len(bd_runs) != 1:
        return None
    if [d.faces[f].word[p][0] for (f, p) in bd_runs[0][1]] != bd:
        return None
    xs, ys = _reference_corner_points(d, runs)
    if len(xs) != 1 or len(ys) != 1:
        return None
    return sfc.ActionRecord(
        k, t, i, j, next(iter(xs)), next(iter(ys)), tuple(faces),
        _reference_interior(d, faces, cycles[0]),
    )


def reference_action_census(d):
    """Action records by trying, for every chord, every set of the
    non-suture faces off the chord together with the chord's faces,
    sorted as the library sorts them."""
    if not d.interfaces:
        return []
    nonsuture = sorted(f for f, face in d.faces.items() if not face.suture)
    if len(nonsuture) > 14:
        raise ValueError("power set too large for the brute oracle")
    face_of_edge = {}
    for f, face in d.faces.items():
        for (e, _s) in face.word:
            face_of_edge.setdefault(e, []).append(f)
    out = []
    for k, iface in enumerate(d.interfaces):
        for t, interval in enumerate(iface.intervals):
            points = len(interval) - 1
            for i in range(points):
                for j in range(i + 1, points):
                    bd = [interval[p] for p in range(i + 1, j + 1)]
                    base = {f for e in bd for f in face_of_edge[e]}
                    if any(d.faces[f].suture for f in base):
                        continue
                    others = [f for f in nonsuture if f not in base]
                    for bits in range(1 << len(others)):
                        chosen = sorted(
                            base.union(o for b, o in enumerate(others) if bits >> b & 1)
                        )
                        rec = _reference_try_quad(d, chosen, bd, k, t, i, j)
                        if rec is not None:
                            out.append(rec)
    return sorted(out, key=lambda r: (r.interface, r.interval, r.start, r.end, r.faces))


def powerset_domain_moves(d):
    """Every embedded bigon and rectangle domain of ``d``, as moves
    (x-corners, y-corners, interior crossings), by trying every set of
    non-suture faces.

    A set is kept when its union is a disk whose boundary is one embedded
    cycle (walked with this module's boundary code, the edges both of
    whose sides lie in the set cancelled), every corner of which is
    convex (the set holds one quadrant there), and whose runs classify
    as a bigon or a rectangle by the census rule.  A move acts on a
    generator only when the generator misses the interior, so the
    domains it counts are the empty ones.  Unlike the census, which
    takes each region as one move, a domain here may span several
    regions.  Meant for diagrams of up to about 16 non-suture faces.
    """
    nonsuture = sorted(f for f, face in d.faces.items() if not face.suture)
    if len(nonsuture) > 16:
        raise ValueError("power set too large for the brute oracle")
    curve = {e for e, ed in d.edges.items() if ed.kind in ("alpha", "beta")}
    moves = []
    for bits in range(1, 1 << len(nonsuture)):
        faces = [f for b, f in enumerate(nonsuture) if bits >> b & 1]
        sides = [side for f in faces for side in d.faces[f].word]
        count = {}
        for e, _s in sides:
            count[e] = count.get(e, 0) + 1
        ends = {v for e in count for v in (d.edges[e].frm, d.edges[e].to)}
        if len(faces) - len(count) + len(ends) != 1:  # Euler characteristic of a disk
            continue
        cycles = _reference_boundary_cycles(d, faces, {e for e, n in count.items() if n == 2})
        if len(cycles) != 1:
            continue
        runs = _reference_cycle_runs(d, cycles[0])
        pattern = sorted(c for c, _run in runs)
        if pattern != ["alpha", "beta"] and (len(runs) != 4 or "bd" in pattern):
            continue
        heads = [d.edges[d.faces[f].word[i][0]].end(d.faces[f].word[i][1]) for f, i in cycles[0]]
        if len(set(heads)) != len(heads):
            continue  # the boundary meets itself
        xs, ys = _reference_corner_points(d, runs)
        quadrants = {}  # corner vertex -> corners of the set's faces entered along a curve
        for e, sign in sides:
            v = d.edges[e].end(sign)
            if e in curve and v in xs | ys:
                quadrants[v] = quadrants.get(v, 0) + 1
        if any(quadrants.get(v) != 1 for v in xs | ys):
            continue  # a corner that is not convex
        moves.append((xs, ys, _reference_interior(d, faces, cycles[0])))
    return moves


# ---------------------------------------------------------------------------
# grid diagrams from permutations


def grid_rectangle_differential(n, k):
    """The differential of the n x n toroidal grid with X squares at
    (i, i) and O squares at (i, i + k), the layout of
    ``fixtures.punctured_grid``, counting every empty rectangle that
    holds no X and no O square.

    A generator is a permutation s, the point (i, s[i]) on alpha row i
    and beta column s[i].  A rectangle runs over rows i1, ..., i2 - 1
    and columns j1, ..., j2 - 1, both mod n; as in the library's census
    it moves x with s[i1] = j1 and s[i2] = j2 to y with the two columns
    exchanged, and it is empty when no point of x lies strictly inside.
    Returns generator -> frozenset of generators, mod 2.
    """
    marked = {(i, i) for i in range(n)} | {(i, (i + k) % n) for i in range(n)}

    def span(a, b):  # a, a + 1, ..., b - 1 mod n
        return [(a + r) % n for r in range((b - a) % n)]

    out = {}
    for s in permutations(range(n)):
        hits = set()
        for i1 in range(n):
            for i2 in range(n):
                if i1 == i2:
                    continue
                rows, cols = span(i1, i2), span(s[i1], s[i2])
                if any((r, c) in marked for r in rows for c in cols):
                    continue
                if any(s[r] in cols[1:] for r in rows[1:]):
                    continue
                y = list(s)
                y[i1], y[i2] = s[i2], s[i1]
                hits ^= {tuple(y)}
        out[s] = frozenset(hits)
    return out


# ---------------------------------------------------------------------------
# surface edits and validation, as whole-diagram rescans


def reference_vertex_links(d):
    """Vertex -> ("cycle" | "path", items), walked vertex by vertex.

    Each vertex collects its corners by scanning every face word, reads
    each corner's flanking sides from its face, and walks across the
    opposite side occurrences; the library's one-pass walk must return
    the same links and raise the same errors.
    """
    occ = side_occurrences(d)
    corners = {}
    for f in d.faces.values():
        for i, (e, s) in enumerate(f.word):
            corners.setdefault(d.edges[e].start(s), []).append((f.id, i))

    def flanks(corner):
        word = d.faces[corner[0]].word
        return word[corner[1] - 1], word[corner[1]]

    links = {}
    for v in sorted(d.vertices):
        cs = corners.get(v, [])
        if not cs:
            links[v] = ("cycle", [])
            continue
        by_in = {}
        for c in cs:
            by_in[flanks(c)[0]] = c
        start = None
        for c in cs:
            e, s = flanks(c)[0]
            if (e, -s) not in occ:
                start = c
                break
        kind = "path" if start is not None else "cycle"
        cur = start if start is not None else min(cs)
        items = []
        visited = set()
        while True:
            inc, out = flanks(cur)
            items.append(("inc", inc))
            items.append(("corner", cur))
            visited.add(cur)
            e, s = out
            if (e, -s) not in occ:
                items.append(("inc", out))
                break
            nxt = by_in.get((e, -s))
            if nxt is None:
                raise ValueError(f"broken link at vertex {v}")
            if nxt in visited:
                break
            cur = nxt
        if len(visited) != len(cs):
            raise ValueError(f"vertex {v} has a disconnected link")
        links[v] = (kind, items)
    return links


def _reference_face_components(d, glued):
    """Faces merged across the edges in ``glued``, found by a fresh scan
    of every face word: lists in face order, sorted, then each sorted."""
    comps = []
    seen = set()
    for f in sorted(d.faces):
        if f in seen:
            continue
        comp = {f}
        queue = [f]
        while queue:
            edges = {e for (e, _s) in d.faces[queue.pop()].word if e in glued}
            for g, face in d.faces.items():
                if g not in comp and any(e in edges for (e, _s) in face.word):
                    comp.add(g)
                    queue.append(g)
        seen |= comp
        comps.append([g for g in d.faces if g in comp])
    return [sorted(c) for c in sorted(comps)]


def _reference_regions(d):
    """``surface.regions``: faces merged across the seams, by a fresh search."""
    return _reference_face_components(d, {e for e, ed in d.edges.items() if ed.kind == "seam"})


def reference_validate(d):
    """Every structural check of ``surface.validate``, in the same order,
    each recomputing what it reads from the whole diagram."""
    problems = []
    ids = list(d.edges) + list(d.faces) + list(d.alpha_curves) + list(d.beta_curves)
    if len(ids) != len(set(ids)):
        problems.append("duplicate ids across edges/faces/curves")

    for e, ed in sorted(d.edges.items()):
        if ed.kind not in surface.EDGE_KINDS:
            problems.append(f"edge {e} has unknown kind {ed.kind!r}")
        if ed.frm not in d.vertices or ed.to not in d.vertices:
            problems.append(f"edge {e} references a missing vertex")
        if ed.kind in surface.CURVE_KINDS and ed.curve is None:
            problems.append(f"curve edge {e} lacks a curve id")
        if ed.kind not in surface.CURVE_KINDS and ed.curve is not None:
            problems.append(f"non-curve edge {e} carries a curve id")

    usage = {}
    for f in d.faces.values():
        for (e, s) in f.word:
            if e not in d.edges:
                problems.append(f"face {f.id} references missing edge {e}")
                continue
            usage.setdefault(e, []).append(s)
    for e, ed in sorted(d.edges.items()):
        signs = sorted(usage.get(e, []))
        if ed.kind == "boundary":
            if signs != [1]:
                problems.append(f"boundary edge {e} used {signs}, expected once +")
        else:
            if signs != [-1, 1]:
                problems.append(f"interior edge {e} used {signs}, expected once each way")

    for f in d.faces.values():
        n = len(f.word)
        if n == 0:
            problems.append(f"face {f.id} has an empty word")
            continue
        for i in range(n):
            e1, s1 = f.word[i - 1]
            e2, s2 = f.word[i]
            if e1 not in d.edges or e2 not in d.edges:
                continue
            if d.edges[e1].end(s1) != d.edges[e2].start(s2):
                problems.append(f"face {f.id} word breaks at position {i}")

    for c in d.curves().values():
        if not c.segments:
            problems.append(f"curve {c.id} has no segments")
        for e in c.segments:
            if e not in d.edges:
                problems.append(f"curve {c.id} references missing edge {e}")
    for k, itf in enumerate(d.interfaces):
        problems += [f"interface {k}: {p}" for p in itf.arc_diagram.validate()]
        if len(itf.intervals) != len(itf.arc_diagram.intervals):
            problems.append(f"interface {k}: interval count mismatch")
        for pts, edges in zip(itf.arc_diagram.intervals, itf.intervals):
            if len(edges) != len(pts) + 1:
                problems.append(f"interface {k}: interval needs {len(pts)+1} edges")
            for e in edges:
                if e not in d.edges or d.edges[e].kind != "boundary":
                    problems.append(f"interface {k}: {e} is not a boundary edge")

    if problems:
        return problems

    try:
        links = reference_vertex_links(d)
    except ValueError as err:
        return problems + [str(err)]

    bout, bin_ = {}, {}
    for e, ed in d.edges.items():
        if ed.kind != "boundary":
            continue
        if ed.frm in bout or ed.to in bin_:
            problems.append(f"boundary branches at edge {e}")
        bout[ed.frm] = e
        bin_[ed.to] = e
    if set(bout) != set(bin_):
        problems.append("boundary chains do not close up")
        return problems

    free = d.free_boundary_edge_ids()
    seen = set()
    suture_faces_edges = {e for f in d.faces.values() if f.suture for (e, _s) in f.word}
    for start in sorted(bout.values()):
        if start in seen:
            continue
        circle = []
        e = start
        while True:
            circle.append(e)
            seen.add(e)
            e = bout[d.edges[e].to]
            if e == start:
                break
        if not any(e in suture_faces_edges for e in circle):
            problems.append(f"boundary circle through {start} has no suture side")

    seg_owner = {}
    for family in surface.CURVE_KINDS:
        for c in d.curves(family).values():
            for e in c.segments:
                if d.edges[e].kind != family or d.edges[e].curve != c.id:
                    problems.append(f"edge {e} mislabeled for curve {c.id}")
                if e in seg_owner:
                    problems.append(f"edge {e} appears in two curves")
                seg_owner[e] = c.id
            for e1, e2 in zip(c.segments, c.segments[1:]):
                if d.edges[e1].to != d.edges[e2].frm:
                    problems.append(f"curve {c.id} breaks between {e1} and {e2}")
            if c.closed:
                if d.edges[c.segments[-1]].to != d.edges[c.segments[0]].frm:
                    problems.append(f"closed curve {c.id} does not close")
            else:
                ends = (d.edges[c.segments[0]].frm, d.edges[c.segments[-1]].to)
                marked = set(d.marked_vertices().values())
                for v in ends:
                    if v not in marked:
                        problems.append(f"arc {c.id} ends at unmarked vertex {v}")
    for e, ed in d.edges.items():
        if ed.kind in surface.CURVE_KINDS and e not in seg_owner:
            problems.append(f"curve edge {e} belongs to no curve")

    for v in intersection_vertices(d):
        kind, items = links[v]
        incs = [it for it in items if it[0] == "inc"]
        fams = [d.edges[e].kind for (_t, (e, _s)) in incs]
        if not all(f in surface.CURVE_KINDS for f in fams):
            continue
        if kind == "cycle":
            if len(incs) != 4:
                problems.append(f"intersection vertex {v} has degree {len(incs)}")
            elif fams[0] == fams[1]:
                problems.append(f"intersection vertex {v} is not alternating")

    if not d.interfaces:
        na = sum(1 for c in d.alpha_curves.values() if c.closed)
        nb = sum(1 for c in d.beta_curves.values() if c.closed)
        if na != nb:
            problems.append(f"unbalanced diagram: {na} closed alpha vs {nb} closed beta")

    seams = {e for e, ed in d.edges.items() if ed.kind == "seam"}
    for group in _reference_face_components(d, seams):
        touches = any(e in free for f in group for (e, _s) in d.faces[f].word)
        for f in group:
            if d.faces[f].suture != touches:
                problems.append(
                    f"face {f} suture flag {d.faces[f].suture} but region "
                    f"{'touches' if touches else 'avoids'} free boundary"
                )

    marked = d.marked_vertices()
    all_interval_edges = []
    for k, itf in enumerate(d.interfaces):
        for edges in itf.intervals:
            all_interval_edges += edges
            for e1, e2 in zip(edges, edges[1:]):
                if d.edges[e1].to != d.edges[e2].frm:
                    problems.append(f"interface {k}: interval breaks at {e2}")
        arcs_by_index = {}
        for p, a in itf.arc_diagram.matching.items():
            arcs_by_index.setdefault(a, []).append(p)
        if set(itf.arcs) != set(arcs_by_index):
            problems.append(f"interface {k}: arc assignment indices mismatch")
            continue
        for a, curve_id in sorted(itf.arcs.items()):
            fam = itf.arc_diagram.kind
            if curve_id not in d.curves(fam):
                problems.append(f"interface {k}: arc {a} names missing {fam} {curve_id}")
                continue
            c = d.curves(fam)[curve_id]
            if c.closed:
                problems.append(f"interface {k}: arc {a} names closed curve {curve_id}")
                continue
            ends = {d.edges[c.segments[0]].frm, d.edges[c.segments[-1]].to}
            want = {marked[p] for p in arcs_by_index[a]}
            if ends != want:
                problems.append(f"interface {k}: arc {a} endpoints mismatch")
    if len(all_interval_edges) != len(set(all_interval_edges)):
        problems.append("interface intervals overlap")

    assigned = {cid for itf in d.interfaces for cid in itf.arcs.values()}
    for family in surface.CURVE_KINDS:
        for c in d.curves(family).values():
            if not c.closed and c.id not in assigned:
                problems.append(f"arc {c.id} not assigned to any interface")

    for family in surface.CURVE_KINDS:
        fam_interface_edges = {
            e
            for itf in d.interfaces
            if itf.arc_diagram.kind == family
            for iv in itf.intervals
            for e in iv
        }
        allowed = {e for e, ed in d.edges.items() if ed.kind == "boundary"} - fam_interface_edges
        cut = {e for e, ed in d.edges.items() if ed.kind not in (family, "boundary")}
        for comp in _reference_face_components(d, cut):
            edges_here = {e for f in comp for (e, _s) in d.faces[f].word}
            if not edges_here & allowed:
                problems.append(f"a component cut along {family} avoids the free boundary")

    for v in d.eh:
        if v not in d.vertices:
            problems.append(f"eh tag names missing vertex {v}")
    for name, v in sorted(d.marks.items()):
        if v not in d.vertices:
            problems.append(f"mark {name} names missing vertex {v}")

    return problems


def recompute_suture_flags(d):
    """Suture status: the region touches a free (non-interface) piece of
    the surface boundary.  The separate pass that ``validate(d,
    set_flags=True)`` folds into its check."""
    free = d.free_boundary_edge_ids()
    for group in _reference_regions(d):
        touches = any(
            e in free for f in group for (e, _s) in d.faces[f].word
        )
        for f in group:
            d.faces[f].suture = touches
    return d


def reference_dissolve_edge(d, eid):
    """Remove the interior edge ``eid``, merging its two faces or
    trimming its one; False, leaving ``d`` as it was, when its sides lie
    on one face apart.  Finds the sides by scanning every face, and the
    orphaned ends by scanning every edge."""
    ed = d.edges[eid]
    for family in surface.CURVE_KINDS:
        for c in d.curves(family).values():
            if eid in c.segments:
                raise ValueError(f"edge {eid} still belongs to curve {c.id}")
    sides = [(f.id, i) for f in d.faces.values() for i, (e, _s) in enumerate(f.word) if e == eid]
    if len(sides) != 2:
        raise ValueError(f"edge {eid} is not interior")
    (f1, i1), (f2, i2) = sides
    if f1 != f2:
        wa = d.faces[f1].word
        wb = d.faces[f2].word
        d.faces[f1].word = wa[:i1] + wb[i2 + 1:] + wb[:i2] + wa[i1 + 1:]
        d.faces[f1].suture = d.faces[f1].suture or d.faces[f2].suture
        del d.faces[f2]
    else:
        word = d.faces[f1].word
        n = len(word)
        lo, hi = sorted((i1, i2))
        if hi - lo == 1:
            new = word[:lo] + word[hi + 1:]
        elif lo == 0 and hi == n - 1:
            new = word[1:n - 1]
        else:
            return False
        if not new:
            raise ValueError(f"dissolving {eid} empties face {f1}")
        d.faces[f1].word = new
    del d.edges[eid]
    used = {v for e in d.edges.values() for v in (e.frm, e.to)}
    for v in (ed.frm, ed.to):
        if v in d.vertices and v not in used:
            d.vertices.discard(v)
    return True


def reference_fuse_edges_at(d, v):
    """Erase the two-valent vertex ``v`` by fusing its two like edges,
    unless it is tagged or marked or an edge is on an interface; False
    when it does not fuse.  Finds the edges by scanning every edge and
    rewrites every face word."""
    incident = [
        (e, end)
        for e, ed in d.edges.items()
        for end in (("to",) if ed.to == v else ()) + (("frm",) if ed.frm == v else ())
    ]
    if len(incident) != 2:
        return False
    (e1, _end1), (e2, _end2) = incident
    if e1 == e2:
        return False
    a, b = d.edges[e1], d.edges[e2]
    if a.kind != b.kind or a.curve != b.curve:
        return False
    protected = set(d.marks.values()) | set(d.eh) | set(d.marked_vertices().values())
    iface = d.interface_edge_ids()
    if v in protected or e1 in iface or e2 in iface:
        return False
    if a.to == v and b.frm == v:
        first, second = a, b
    elif b.to == v and a.frm == v:
        first, second = b, a
    else:
        return False
    for f in d.faces.values():
        word = f.word
        for i, (e, s) in enumerate(word):  # each side of second meets first at v
            if e == second.id:
                assert word[i - 1 if s > 0 else (i + 1) % len(word)] == (first.id, s)
        f.word = [(e, s) for (e, s) in word if e != second.id]
    if first.curve is not None:
        c = d.curves(first.kind)[first.curve]
        c.segments = [e for e in c.segments if e != second.id]
    first.to = second.to
    del d.edges[second.id]
    d.vertices.discard(v)
    return True


def reference_simplify(d):
    """``d`` reduced to a normal form: the least dissolvable seam off the
    interfaces is dissolved while there is one, else the least fusable
    vertex fused, the sweep starting again after every edit; then the
    tags on erased vertices are dropped."""
    changed = True
    while changed:
        changed = False
        for e in sorted(d.edges):
            if d.edges[e].kind == "seam" and e not in d.interface_edge_ids():
                if reference_dissolve_edge(d, e):
                    changed = True
                    break
        if changed:
            continue
        for v in sorted(d.vertices):
            if reference_fuse_edges_at(d, v):
                changed = True
                break
    d.eh = [v for v in d.eh if v in d.vertices]
    d.marks = {k: v for k, v in d.marks.items() if v in d.vertices}
    return d


def reference_surger_pair(d, alpha_id, beta_id):
    """The cut along alpha that removes a stabilizing pair, with each
    alpha vertex's link read from ``reference_vertex_links``.

    The link lists the incoming side of every corner around the vertex.
    Its two alpha sides split it into two arcs; the arc after the alpha
    side with sign s lies on side s, so each edge end in it moves to the
    vertex's copy on that side.  Returns the cut copy and the forced
    point, with the diagram's least free ids (``fresh_id``, ``fresh_ids``).
    """
    out = d.copy()
    alpha = out.alpha_curves.pop(alpha_id)
    beta = out.beta_curves.pop(beta_id)
    if not alpha.closed or not beta.closed:
        raise ValueError("only closed curves can be destabilized")

    def ends(curve):
        return {v for e in curve.segments for v in (out.edges[e].frm, out.edges[e].to)}

    across = ends(alpha) & ends(beta)
    if len(across) != 1:
        raise ValueError(f"curves meet at {sorted(across)}, need a single point")
    pair_edges = set(alpha.segments) | set(beta.segments)
    for v in sorted(ends(alpha) | ends(beta)):  # the least vertex, then its least edge
        touching = sorted(e for e, ed in out.edges.items() if v in (ed.frm, ed.to)
                          and ed.kind in surface.CURVE_KINDS and e not in pair_edges)
        if touching:
            raise ValueError(f"curve edge {touching[0]} touches the pair at {v}")

    links = reference_vertex_links(out)
    copies = {}  # alpha vertex -> {sign: the copy on that side}
    moved = {}  # (edge, "frm" | "to") -> the copy that end moves to
    for v in sorted(ends(alpha)):
        kind, items = links[v]
        if kind == "path":
            raise ValueError(f"alpha vertex {v} lies on the boundary")
        incs = [side for tag, side in items if tag == "inc"]
        at = [i for i, (e, _s) in enumerate(incs) if e in alpha.segments]
        if len(at) != 2:
            raise ValueError(f"vertex {v} is not a simple alpha vertex")
        if incs[at[0]][1] == incs[at[1]][1]:
            raise ValueError(f"inconsistent sides at {v}")
        plus, minus = out.fresh_ids("v", 2)
        out.vertices |= {plus, minus}
        copies[v] = {1: plus, -1: minus}
        for i, stop in ((at[0], at[1]), (at[1], at[0])):
            k = (i + 1) % len(incs)
            while k != stop:
                e, s = incs[k]  # side s of e ends at v
                moved[(e, "to" if s > 0 else "frm")] = copies[v][incs[i][1]]
                k = (k + 1) % len(incs)
        out.vertices.discard(v)
    for e, ed in out.edges.items():
        if e not in alpha.segments:
            ed.frm = moved.get((e, "frm"), ed.frm)
            ed.to = moved.get((e, "to"), ed.to)

    rewrite = {}
    for e in alpha.segments:
        ed = out.edges.pop(e)
        for s, name in ((1, out.fresh_id(f"{e}+")), (-1, out.fresh_id(f"{e}-"))):
            out.edges[name] = surface.Edge(
                name, "seam", None, copies[ed.frm][s], copies[ed.to][s]
            )
            rewrite[(e, s)] = (name, s)
    for f in out.faces.values():
        f.word = [rewrite.get(side, side) for side in f.word]
    cap_plus, cap_minus = out.fresh_ids("f", 2)
    out.faces[cap_plus] = surface.Face(
        cap_plus, [(rewrite[(e, 1)][0], -1) for e in reversed(alpha.segments)], False
    )
    out.faces[cap_minus] = surface.Face(
        cap_minus, [(rewrite[(e, -1)][0], 1) for e in alpha.segments], False
    )
    for e in beta.segments:
        out.edges[e].kind = "seam"
        out.edges[e].curve = None
    return out, next(iter(across))


def _gate(d):
    """``d`` if it validates with the flags it has; unlike the library's
    gate this sets no flag, so the flags compared are this module's."""
    problems = surface.validate(d)
    if problems:
        raise ValueError("invalid diagram: " + "; ".join(problems))
    return d


def reference_trivial_destabilize(d, alpha_id, beta_id):
    """Remove a stabilizing pair: ``reference_surger_pair``'s cut, the
    tags on erased vertices dropped, the suture flags set by their own
    pass and the gate, with no edit after the cut.  Returns the diagram
    and the id the forced intersection point had."""
    out, forced = reference_surger_pair(d, alpha_id, beta_id)
    out.eh = [v for v in out.eh if v in out.vertices]
    out.marks = {k: v for k, v in out.marks.items() if v in out.vertices}
    recompute_suture_flags(out)
    return _gate(out), forced


def reference_concatenate_bordered(b1, b2):
    """``surface.concatenate_bordered`` identifying each vertex pair by a
    scan over every edge and gluing or reversing each edge by a rewrite
    of every face word; the prefixed copies are the library's.  A mark
    name the left piece has takes the least free suffix ``_1``, ``_2``,
    ...; the pieces glue at their first interfaces."""
    arc_map = surface._interface_arc_bijection(
        b1.interfaces[0].arc_diagram, b2.interfaces[0].arc_diagram
    )
    left = surface._prefix_diagram(b1, "L:")
    right = surface._prefix_diagram(b2, "R:")
    il = left.interfaces.pop(0)
    ir = right.interfaces.pop(0)
    out = surface.Diagram(
        left.vertices | right.vertices,
        {**left.edges, **right.edges},
        {**left.faces, **right.faces},
        {**left.alpha_curves, **right.alpha_curves},
        {**left.beta_curves, **right.beta_curves},
        left.interfaces + right.interfaces,
        left.eh + right.eh,
        dict(left.marks),
    )
    for k, v in right.marks.items():
        name, j = k, 0
        while name in out.marks:
            j += 1
            name = f"{k}_{j}"
        out.marks[name] = v

    def merge_vertex(keep, lose):
        if keep == lose:
            return
        for ed in out.edges.values():
            if ed.frm == lose:
                ed.frm = keep
            if ed.to == lose:
                ed.to = keep
        out.eh = [keep if v == lose else v for v in out.eh]
        out.marks = {k: (keep if v == lose else v) for k, v in out.marks.items()}
        out.vertices.discard(lose)

    def reverse_edge(eid):
        ed = out.edges[eid]
        ed.frm, ed.to = ed.to, ed.frm
        for f in out.faces.values():
            f.word = [(e, -s if e == eid else s) for (e, s) in f.word]

    for edges_l, edges_r in zip(il.intervals, ir.intervals):
        if len(edges_l) != len(edges_r):
            raise ValueError("interval subdivision mismatch")
        m = len(edges_l)
        vl = [out.edges[edges_l[0]].frm] + [out.edges[e].to for e in edges_l]
        vr = [out.edges[edges_r[0]].frm] + [out.edges[e].to for e in edges_r]
        for j, v in enumerate(vr):
            merge_vertex(vl[m - j], v)
        for idx, e in enumerate(edges_l):
            f = edges_r[m - 1 - idx]
            del out.edges[f]
            for face in out.faces.values():
                face.word = [(e if ee == f else ee, -s if ee == f else s) for (ee, s) in face.word]
            out.edges[e].kind = "seam"

    for a1, c1 in sorted(il.arcs.items()):
        c2 = ir.arcs[arc_map[a1]]
        fam = il.arc_diagram.kind
        store = out.curves(fam)
        left_curve = store[c1]
        right_curve = store.pop(c2)
        e_end = out.edges[left_curve.segments[-1]].to
        r_start = out.edges[right_curve.segments[0]].frm
        r_end = out.edges[right_curve.segments[-1]].to
        if r_start == e_end:
            appended = list(right_curve.segments)
        elif r_end == e_end:
            appended = list(reversed(right_curve.segments))
            for e in appended:
                reverse_edge(e)
        else:
            raise ValueError(f"arcs {c1} and {c2} do not meet")
        for e in appended:
            out.edges[e].curve = c1
        left_curve.segments = left_curve.segments + appended
        left_curve.closed = True
    recompute_suture_flags(out)
    return _gate(out)


# ---------------------------------------------------------------------------
# bordered structures: the frozenset-form builder


@dataclass
class BorderedStructure:
    """A bordered structure in the frozenset form: every generator is
    the frozenset of its crossings' vertex ids.  ``sides`` are the
    diagram's interface arc diagrams in interface order, the acting
    order; a beta side acts on the left (``m[1|1|0]``), an alpha side on
    the right (``m[0|1|1]``)."""

    kind: str  # "D" | "A" | "AA"
    diagram: surface.Diagram
    sides: list  # [surface.ArcDiagram], one per interface
    generators: list  # frozensets of crossing ids, canonical order
    occupancy: list  # per side: {generator: frozenset of occupied arcs}
    differential: dict  # generator -> frozenset of generators
    tables: list  # per side: {algebra label: {generator: frozenset of outputs}}
    delta: dict  # kind D: generator -> frozenset of (label, generator)

    def generator_names(self) -> list:
        return [modules.format_generator(x) for x in self.generators]



def _occupancy_map(d: surface.Diagram, iface: int, gens) -> dict:
    itf = d.interfaces[iface]
    vert_arc = {}
    for a, cid in itf.arcs.items():
        curve = d.alpha_curves.get(cid) or d.beta_curves[cid]
        for e in curve.segments:
            vert_arc[d.edges[e].frm] = a
            vert_arc[d.edges[e].to] = a
    return {
        x: frozenset(vert_arc[v] for v in x if v in vert_arc) for x in gens
    }



def _act_raw(bs, side_pos, records, gen_set, term, x):
    """Evaluate one algebra generator on one module generator from the
    port census: one boundary rectangle per moving strand, pairwise
    disjoint, with matching occupancy."""
    z = bs.sides[side_pos]
    movers, occupied = term
    pos = strands._positions(z)
    start_arcs = {z.matching[s] for s, _ in movers}
    end_arcs = {z.matching[t] for _, t in movers}
    need = (start_arcs if z.kind == "beta" else end_arcs) | set(occupied)
    if bs.occupancy[side_pos][x] != frozenset(need):
        return frozenset()
    if not movers:
        return frozenset({x})
    candidates = []
    for s, t in sorted(movers, key=lambda st: pos[st[0]]):
        i, k = pos[s]
        l = pos[t][1]
        rs = [
            r
            for r in records
            if r.interval == i and r.start == k and r.end == l
            and r.x_pt in x and r.y_pt not in x and not (r.interior & x)
        ]
        candidates.append(rs)
    outs = set()
    for combo in product(*candidates):
        xs = {r.x_pt for r in combo}
        ys = {r.y_pt for r in combo}
        if len(xs) != len(combo) or len(ys) != len(combo):
            continue
        face_sets = [set(r.faces) for r in combo]
        if any(
            face_sets[i] & face_sets[j]
            for i in range(len(combo))
            for j in range(i + 1, len(combo))
        ):
            continue
        if any(r.interior & ys for r in combo):
            continue
        y = frozenset((x - xs) | ys)
        if y in gen_set:
            outs ^= {y}
    return frozenset(outs)


def _action_table(bs, side_pos, records) -> dict:
    gen_set = set(bs.generators)
    table = {}
    for label, b in modules.algebra_basis(bs, side_pos).items():
        term = next(iter(b.terms))
        col = {}
        for x in bs.generators:
            outs = _act_raw(bs, side_pos, records, gen_set, term, x)
            if outs:
                col[x] = outs
        if col:
            table[label] = col
    return table


def _delta_table(bs, records) -> dict:
    """δ¹ for a type-D structure: idempotent terms from the differential
    plus one Reeb-chord term per applicable boundary rectangle, each
    completed by the complementary idempotent."""
    z = bs.sides[0]
    arcs = set(z.matching.values())
    gen_set = set(bs.generators)
    delta = {}
    for y in bs.generators:
        comp = frozenset(arcs - set(bs.occupancy[0][y]))
        entries = set()
        for y2 in bs.differential.get(y, ()):
            entries ^= {(strands.label(strands.idempotent(z, comp)), y2)}
        for r in records:
            if r.x_pt not in y or r.y_pt in y or (r.interior & y):
                continue
            y2 = frozenset((y - {r.x_pt}) | {r.y_pt})
            if y2 not in gen_set:
                continue
            frm = z.intervals[r.interval][r.start]
            to = z.intervals[r.interval][r.end]
            try:
                coeff = strands.element(z, [(frm, to)], comp - {z.matching[frm]})
            except ValueError:
                continue
            if strands.left_arcs(coeff) != comp:
                continue
            comp2 = frozenset(arcs - set(bs.occupancy[0][y2]))
            if strands.right_arcs(coeff) != comp2:
                continue
            entries ^= {(strands.label(coeff), y2)}
        if entries:
            delta[y] = frozenset(entries)
    return delta


def reference_bordered_invariant(d, kind: str, sector=None, darts=None) -> BorderedStructure:
    """Build the finite bordered structure of a nice bordered diagram.

    ``d`` is the diagram or its complex (``sfc.as_complex(d, darts)``).  ``sector``
    optionally restricts the generators to a fixed tuple of
    per-interface occupancy counts (the differential and all actions
    preserve these counts, so the restriction is a direct summand).
    """
    if kind not in modules._IFACE_COUNT:
        raise ValueError(f"unknown structure kind {kind!r}")
    diagram = d.diagram if isinstance(d, sfc.ChainComplexF2) else d
    if len(diagram.interfaces) != modules._IFACE_COUNT[kind]:
        raise ValueError(
            f"kind {kind} needs {modules._IFACE_COUNT[kind]} interface(s); "
            f"diagram has {len(diagram.interfaces)}"
        )
    cx = sfc.as_complex(d, darts)  # gates niceness and admissibility
    d = cx.diagram
    sides = [itf.arc_diagram for itf in d.interfaces]
    occ_maps = [_occupancy_map(d, i, cx.basis) for i in range(len(sides))]
    gens = list(cx.basis)
    if sector is not None:
        if len(sector) != len(sides):
            raise ValueError("sector length must match the interface count")
        for s, (n, side) in enumerate(zip(sector, sides)):
            arcs = len(side.arcs())
            if not 0 <= n <= arcs:
                raise ValueError(f"sector count {n} for interface {s} is outside 0..{arcs}")
        gens = [
            x
            for x in gens
            if tuple(len(occ_maps[s][x]) for s in range(len(sides)))
            == tuple(sector)
        ]
    kept, diff = set(gens), {}
    for x, column in zip(cx.basis, cx.differential.columns):
        if column and x in kept:
            ys = frozenset(cx.basis[i] for i in set_bits(column))
            if not ys <= kept:
                raise AssertionError("differential leaves the occupancy sector")
            diff[x] = ys
    records = sfc.action_census(d, cx.darts)
    bs = BorderedStructure(
        kind,
        d,
        sides,
        gens,
        [{x: m[x] for x in gens} for m in occ_maps],
        diff,
        [],
        {},
    )
    if kind == "D":
        bs.tables = [{}]
        bs.delta = _delta_table(bs, [r for r in records if r.interface == 0])
    else:
        bs.tables = [
            _action_table(bs, s, [r for r in records if r.interface == s])
            for s in range(len(sides))
        ]
    return bs


def as_reference(bs) -> BorderedStructure:
    """The library structure ``bs`` in the frozenset form: each position
    renamed through ``bs.complex.basis`` to its vertex-id set, and each
    mask over positions to the frozenset of the generators it holds."""
    basis = bs.complex.basis

    def sets(mask):
        return frozenset(basis[i] for i in _set_bits(mask))

    return BorderedStructure(
        bs.kind,
        bs.diagram,
        bs.sides,
        [basis[x] for x in bs.generators],
        [{basis[x]: occ[x] for x in bs.generators} for occ in bs.occupancy],
        {basis[x]: sets(bs.differential[x]) for x in bs.generators if bs.differential[x]},
        [{label: {basis[x]: sets(outs) for x, outs in col.items()} for label, col in table.items()}
         for table in bs.tables],
        {basis[y]: frozenset((label, basis[y2]) for label, y2 in entries)
         for y, entries in bs.delta.items()},
    )


# ---------------------------------------------------------------------------
# bordered structures: the structure relations


def is_elementary(bs) -> bool:
    """One generator, no differential, no non-idempotent actions: ``bs``
    is a library structure, read over its positions."""
    if len(bs.generators) != 1 or bs.differential[bs.generators[0]]:
        return False
    if bs.kind == "D":
        return not bs.delta
    for side_pos, table in enumerate(bs.tables):
        basis = modules.algebra_basis(bs, side_pos)
        for label, col in table.items():
            movers, _ = next(iter(basis[label].terms))
            if movers and col:
                return False
    return True


def _leibniz_safe(z, term) -> bool:
    """True when the generator visibly has no resolvable crossing, so the
    Leibniz rule holds without an algebra differential term."""
    movers, occupied = term
    pos = {p: (i, k) for i, iv in enumerate(z.intervals) for k, p in enumerate(iv)}
    spans = sorted((pos[s], pos[t]) for s, t in movers)
    for (a1, b1), (a2, b2) in zip(spans, spans[1:]):
        if a1[0] == a2[0] and a1 < a2 and b1 > b2:
            return False
    by_arc = {}
    for p, a in z.matching.items():
        by_arc.setdefault(a, []).append(p)
    for o in occupied:
        for p in by_arc[o]:
            for (i, k), (j, l) in spans:
                if pos[p][0] == i and k < pos[p][1] < l:
                    return False
    return True


def _apply(table, label, xs) -> frozenset:
    out = set()
    for x in xs:
        out ^= table.get(label, {}).get(x, frozenset())
    return frozenset(out)


def check_relations(m) -> dict:
    """Verify ∂²=0, idempotent compatibility, action composition, the
    Leibniz rule, and for type D the δ¹ structure equation."""
    violations = []
    name = modules.format_generator
    diff = m.differential
    for x in m.generators:
        acc = set()
        for y in diff.get(x, ()):
            acc ^= set(diff.get(y, ()))
        if acc:
            violations.append(f"∂² ≠ 0 at {name(x)}")
    for side_pos, side in enumerate(m.sides):
        if m.kind == "D":
            break
        basis = modules.algebra_basis(m, side_pos)
        table = m.tables[side_pos]
        for label, col in table.items():
            a = basis[label]
            la, ra = strands.left_arcs(a), strands.right_arcs(a)
            src, dst = (la, ra) if side.kind == "beta" else (ra, la)
            for x, outs in col.items():
                if m.occupancy[side_pos][x] != src:
                    violations.append(
                        f"idempotent mismatch: {label} into {name(x)}"
                    )
                for y in outs:
                    if m.occupancy[side_pos][y] != dst:
                        violations.append(
                            f"idempotent mismatch: {label} out of {name(y)}"
                        )
        for l1, b1 in basis.items():
            for l2, b2 in basis.items():
                two_step = {
                    x: _apply(table, l2, _apply(table, l1, {x}))
                    for x in m.generators
                }
                prod = (
                    strands.multiply(b1, b2)
                    if side.kind == "beta"
                    else strands.multiply(b2, b1)
                )
                for x in m.generators:
                    expect = set()
                    for term in prod.terms:
                        lab = strands.label(
                            strands.StrandDiagramSum(side, frozenset({term}))
                        )
                        expect ^= table.get(lab, {}).get(x, frozenset())
                    if two_step[x] != frozenset(expect):
                        violations.append(
                            f"composition fails: {l2}∘{l1} vs their product "
                            f"at {name(x)}"
                        )
        for label, b in basis.items():
            if not _leibniz_safe(side, next(iter(b.terms))):
                continue
            for x in m.generators:
                lhs = set()
                for y in table.get(label, {}).get(x, frozenset()):
                    lhs ^= set(diff.get(y, ()))
                rhs = _apply(table, label, diff.get(x, frozenset()))
                if frozenset(lhs) != rhs:
                    violations.append(f"Leibniz fails: {label} at {name(x)}")
    if m.kind == "D":
        basis = modules.algebra_basis(m, 0)
        arcs = set(m.sides[0].matching.values())
        for y, entries in m.delta.items():
            comp = arcs - set(m.occupancy[0][y])
            for label, y2 in entries:
                if strands.left_arcs(basis[label]) != frozenset(comp):
                    violations.append(
                        f"idempotent mismatch: δ¹({name(y)}) term {label}"
                    )
            acc = {}  # y2 -> the terms of its coefficient
            for (l1, y1) in entries:
                for (l2, y2) in m.delta.get(y1, ()):
                    acc[y2] = acc.get(y2, frozenset()) ^ strands.multiply(
                        basis[l1], basis[l2]
                    ).terms
            for y2, total in acc.items():
                if total:
                    violations.append(
                        f"δ¹ structure equation fails: {name(y)} → {name(y2)}"
                    )
    return {"ok": not violations, "violations": violations}


# ---------------------------------------------------------------------------
# the box tensor product


def act(bs, side_pos, a, x) -> frozenset:
    """The action of the single algebra generator ``a`` on ``x``, read
    from the type-A or type-AA tables of ``bs``."""
    return bs.tables[side_pos].get(strands.label(a), {}).get(x, frozenset())


def box_tensor(a, d):
    """Pair a type-A with a type-D structure over matching interfaces.

    Generators are the pairs whose occupied arc sets are complementary
    under the interface identification; each is encoded as the union of
    its two halves with the concatenation prefixes, so the result is
    directly comparable with the complex of the glued diagram.  The
    prefixed names, sorted, are the complex's ``verts``, and every pair
    is in one class.
    """
    if a.kind != "A" or d.kind != "D":
        raise ValueError("box tensor pairs a type-A with a type-D structure")
    za, zd = a.sides[0], d.sides[0]
    arc_map = surface._interface_arc_bijection(za, zd)
    inv_map = {v: k for k, v in arc_map.items()}
    point_map = {}
    for ia, ib in zip(za.intervals, zd.intervals):
        for r, p in enumerate(ia):
            point_map[ib[len(ib) - 1 - r]] = p
    all_arcs = set(zd.matching.values())
    pairs = []
    for x in a.generators:
        ox = {arc_map[o] for o in a.occupancy[0][x]}
        for y in d.generators:
            oy = set(d.occupancy[0][y])
            if not (ox & oy) and ox | oy == all_arcs:
                pairs.append((x, y))

    def key(pair):
        x, y = pair
        return frozenset(f"L:{v}" for v in x) | frozenset(f"R:{v}" for v in y)

    pairs.sort(key=lambda p: tuple(sorted(key(p))))
    index = {p: i for i, p in enumerate(pairs)}
    basis_d = modules.algebra_basis(d, 0)
    columns = []
    for (x, y) in pairs:
        outs = set()
        for x2 in a.differential.get(x, ()):
            outs ^= {(x2, y)}
        for (label, y2) in d.delta.get(y, ()):
            movers, occupied = next(iter(basis_d[label].terms))
            coeff = strands.element(
                za,
                [(point_map[t], point_map[f]) for (f, t) in movers],
                {inv_map[o] for o in occupied},
            )
            for x2 in act(a, 0, coeff, x):
                outs ^= {(x2, y2)}
        column = 0
        for out in outs:
            if out not in index:
                raise AssertionError("box tensor left the compatible pairs")
            column |= 1 << index[out]
        columns.append(column)
    names = sorted({n for p in pairs for n in key(p)})
    where = {n: i for i, n in enumerate(names)}
    return sfc.ChainComplexF2(
        names,
        [tuple(sorted(map(where.__getitem__, key(p)))) for p in pairs],
        [sum(1 << where[n] for n in key(p)) for p in pairs],
        BinaryMatrix(len(pairs), tuple(columns)),
        None,
    )


# ---------------------------------------------------------------------------
# diagram isomorphism


def side_occurrences(d) -> dict:
    """(edge, direction) -> list of (face id, word position)."""
    occ = {}
    for f in d.faces.values():
        for i, (e, s) in enumerate(f.word):
            occ.setdefault((e, s), []).append((f.id, i))
    return occ


def _component_faces(d) -> list:
    adj = {}
    occ = side_occurrences(d)
    for (e, _s), fs in occ.items():
        faces_touching = [f for f, _ in fs]
        other = [f for f, _ in occ.get((e, 1), [])] + [f for f, _ in occ.get((e, -1), [])]
        for f in faces_touching:
            adj.setdefault(f, set()).update(other)
    comps = []
    seen = set()
    for f in sorted(d.faces):
        if f in seen:
            continue
        comp = {f}
        queue = [f]
        while queue:
            cur = queue.pop()
            for nxt in adj.get(cur, ()):  # pragma: no branch
                if nxt not in comp:
                    comp.add(nxt)
                    queue.append(nxt)
        seen |= comp
        comps.append(sorted(comp))
    return comps


def _signature_from_flag(d, comp, start_face, start_pos):
    """Deterministic traversal signature starting at one flag."""
    face_no = {}
    edge_no = {}
    vert_no = {}
    curve_no = {}

    def enum_vertex(v):
        if v not in vert_no:
            vert_no[v] = len(vert_no)
        return vert_no[v]

    def enum_edge(e):
        if e not in edge_no:
            edge_no[e] = len(edge_no)
            ed = d.edges[e]
            if ed.curve is not None and ed.curve not in curve_no:
                curve_no[ed.curve] = len(curve_no)
        return edge_no[e]

    occ = side_occurrences(d)
    queue = [(start_face, start_pos)]
    face_no[start_face] = 0
    sig_faces = []
    while queue:
        f, pos = queue.pop(0)
        face = d.faces[f]
        n = len(face.word)
        rotated = [face.word[(pos + k) % n] for k in range(n)]
        entry = []
        for (e, s) in rotated:
            ed = d.edges[e]
            enum_vertex(ed.start(s))
            enum_vertex(ed.end(s))
            entry.append(
                (
                    enum_edge(e),
                    s,
                    ed.kind,
                    None if ed.curve is None else curve_no[ed.curve],
                )
            )
            opp = occ.get((e, -s))
            if opp:
                of, oi = opp[0]
                if of not in face_no:
                    face_no[of] = len(face_no)
                    queue.append((of, (oi + 1) % len(d.faces[of].word)))
        sig_faces.append((tuple(entry), face.suture))
    if len(face_no) != len(comp):
        raise ValueError("component traversal incomplete")
    # curve payload: family, closed, segment numbers in order
    curves_sig = []
    for cid, no in sorted(curve_no.items(), key=lambda kv: kv[1]):
        fam = "alpha" if cid in d.alpha_curves else "beta"
        c = d.curves(fam)[cid]
        curves_sig.append((fam, c.closed, tuple(edge_no[e] for e in c.segments)))
    # interfaces touching this component
    itf_sig = []
    for itf in d.interfaces:
        edges_flat = [e for iv in itf.intervals for e in iv]
        if not edges_flat or edges_flat[0] not in edge_no:
            continue
        itf_sig.append(
            (
                tuple(tuple(edge_no[e] for e in iv) for iv in itf.intervals),
                tuple(tuple(iv) for iv in itf.arc_diagram.intervals),
                tuple(sorted(itf.arc_diagram.matching.items())),
                itf.arc_diagram.kind,
                tuple(
                    (a, curve_no[c]) for a, c in sorted(itf.arcs.items()) if c in curve_no
                ),
            )
        )
    itf_sig.sort()
    eh_sig = tuple(sorted(vert_no[v] for v in d.eh if v in vert_no))
    marks_sig = tuple(
        (k, vert_no[v]) for k, v in sorted(d.marks.items()) if v in vert_no
    )
    return (tuple(sig_faces), tuple(curves_sig), tuple(itf_sig), eh_sig, marks_sig)


def canonical_signature(d):
    """A label-independent signature; equal iff diagrams are isomorphic."""
    comps = _component_faces(d)
    comp_sigs = []
    for comp in comps:
        best = None
        # cheap prefilter on local flag data keeps the flag set small
        flags = []
        for f in comp:
            word = d.faces[f].word
            n = len(word)
            for i in range(n):
                e, s = word[i]
                ed = d.edges[e]
                local = (n, d.faces[f].suture, ed.kind, s)
                flags.append((local, f, i))
        min_local = min(fl[0] for fl in flags)
        for local, f, i in flags:
            if local != min_local:
                continue
            sig = _signature_from_flag(d, comp, f, i)
            if best is None or sig < best:
                best = sig
        comp_sigs.append(best)
    return tuple(sorted(comp_sigs))


def equivalent(d1, d2) -> bool:
    """Equality up to relabeling."""
    return canonical_signature(d1) == canonical_signature(d2)
