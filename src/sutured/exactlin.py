"""Exact linear algebra over F2 and the integers, one stored form each.

An F2 matrix is a tuple of bit-packed columns, bit i of column j its
entry in row i: the complexes build their differentials in that form,
and the rank, kernel and boundary tests read it as it is.  An integer
matrix is a tuple of sparse rows {column: nonzero entry}, the form
``smith_reduce`` takes.  Systems have a few hundred rows at most, so
plain Gaussian elimination and a Smith reduction that keeps only the
invariant factors and the row operations U are enough; no floating
point is used anywhere.

Whether a nonzero nonnegative kernel vector exists is settled by three
checks in turn.  Mod 2: full column rank over F2 makes the kernel over Q
zero.  Then by sign: a row whose live entries share one sign forces its
columns to zero, and when that propagates to every column there is no
witness.  Otherwise by a phase-I simplex on an integer tableau: every
entry is an int over one common denominator, the last pivot, and each
pivot divides exactly by the previous one (Edmonds' integer-preserving
pivoting, as in Bareiss elimination).  Only the final solution is turned
into ``Fraction``s.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence


# ---------------------------------------------------------------------------
# matrix containers


@dataclass(frozen=True, slots=True)
class BinaryMatrix:
    """A matrix over F2 with ``rows`` rows, stored as its columns:
    ``columns[j]`` is an int whose bit i is the entry in row i."""

    rows: int
    columns: tuple

    def __post_init__(self):
        cols = self.columns
        if cols and (min(cols) < 0 or max(cols) >> self.rows):
            c = next(c for c, mask in enumerate(cols) if mask < 0 or mask >> self.rows)
            raise ValueError(f"column {c} has an entry out of bounds")

    @property
    def cols(self) -> int:
        return len(self.columns)

    @property
    def entries(self) -> frozenset:
        """The positions (i, j) holding a 1, read off the columns."""
        return frozenset((i, j) for j, mask in enumerate(self.columns) for i in set_bits(mask))


def column_sum(columns: Sequence[int], mask: int) -> int:
    """The F2 sum of ``columns[j]`` over the set bits j of ``mask``: the
    image of the vector ``mask`` under the matrix with those columns."""
    out = 0
    for j in set_bits(mask):
        out ^= columns[j]
    return out


@dataclass(frozen=True, slots=True)
class IntegerMatrix:
    """A matrix over Z with ``cols`` columns, stored as sparse rows:
    ``sparse[i]`` maps each column to its nonzero entry in row i."""

    sparse: tuple
    cols: int

    def __post_init__(self):
        for r, row in enumerate(self.sparse):
            for c, v in row.items():
                if not 0 <= c < self.cols:
                    raise ValueError(f"entry {(r, c)} out of bounds")
                if v == 0:
                    raise ValueError("explicit zero entry")

    @property
    def rows(self) -> int:
        return len(self.sparse)


# ---------------------------------------------------------------------------
# F2


def f2_rank_kernel(m: BinaryMatrix) -> tuple:
    """Rank and a kernel basis of ``m`` over F2.

    Returns ``(rank, basis)`` where each basis vector is an int bitmask,
    bit j standing for column j, one per non-pivot column in increasing
    order; rank + len(basis) == m.cols.  Columns are reduced from the
    last down against pivots keyed by their top row, recording what
    each absorbs: one reducing to zero lies in the span of the later
    ones, and its own bit with what it absorbed is its kernel vector,
    zero on every other non-pivot column.
    """
    pivots = {}  # top row -> (reduced column, the columns summed into it)
    basis = []
    for j in reversed(range(m.cols)):
        col, used = m.columns[j], 1 << j
        while col:
            top = col.bit_length() - 1
            if top not in pivots:
                pivots[top] = (col, used)
                break
            pcol, pused = pivots[top]
            col ^= pcol
            used ^= pused
        else:
            basis.append(used)
    basis.reverse()
    return len(pivots), basis


def set_bits(mask: int):
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def f2_rank(rows: Sequence[int]) -> int:
    """Rank over F2 of a list of bitmask vectors, rows or columns."""
    pivots = {}
    for row in rows:
        cur = row
        while cur:
            top = cur.bit_length() - 1
            if top in pivots:
                cur ^= pivots[top]
            else:
                pivots[top] = cur
                break
    return len(pivots)


# ---------------------------------------------------------------------------
# Z: Smith normal form and cokernel classes


def smith_reduce(rows: Sequence[dict]) -> tuple:
    """Invariant factors of an integer matrix A, and a U reaching them.

    A is given by its rows, each a dict column -> nonzero entry; the
    rows are copied, not changed.  Returns ``(factors, U)``: the nonzero
    invariant factors s_1 | s_2 | ..., all positive, and a unimodular U
    as sparse rows (dicts column -> entry) with U A V = diag(factors, 0,
    ...) for a unimodular V that is never built.  U lists the pivot rows as they were settled, then
    the others in order.  Each pivot is an entry of least absolute
    value, ties to the lowest row and then column; the search scans the
    live rows in order and stops at the first +-1, which nothing beats.
    Row operations clear its column, and a remainder becomes the
    next pivot.  Once the pivot is alone in its column, the column
    operations that clear its row change that row only: its entries are
    taken mod the pivot.  A pivot of +-1 skips the divisibility fix-up.
    """
    rows = [dict(row) for row in rows]
    U = [{i: 1} for i in range(len(rows))]
    live = list(range(len(rows)))
    factors, order = [], []
    while True:
        best = None
        for i in live:
            if rows[i]:
                a, j = min((abs(a), j) for j, a in rows[i].items())
                if best is None or a < best[0]:
                    best = (a, i, j)
                    if a == 1:
                        break
        if best is None:
            break
        _, r, c = best
        while True:
            p = rows[r][c]
            for i in live:
                if i != r and c in rows[i]:
                    q = rows[i][c] // p
                    _add_row(rows[i], rows[r], -q)
                    _add_row(U[i], U[r], -q)
            left = [(abs(rows[i][c]), i) for i in live if i != r and c in rows[i]]
            if left:
                r = min(left)[1]
                continue
            rest = {j: a % p for j, a in rows[r].items() if j != c and a % p}
            rows[r] = {c: p, **rest}
            if rest:
                c = min(rest, key=lambda j: (abs(rest[j]), j))
                continue
            if abs(p) != 1:
                bad = next((i for i in live if i != r and any(a % p for a in rows[i].values())), None)
                if bad is not None:
                    _add_row(rows[r], rows[bad], 1)
                    _add_row(U[r], U[bad], 1)
                    continue
            break
        live.remove(r)
        factors.append(abs(p))
        if p < 0:
            U[r] = {k: -u for k, u in U[r].items()}
        order.append(r)
    return factors, [U[i] for i in order + live]


def _add_row(dst: dict, src: dict, k: int) -> None:
    """Sparse row ``dst`` += k * ``src``, dropping entries that reach 0."""
    for j, a in src.items():
        v = dst.pop(j, 0) + k * a
        if v:
            dst[j] = v


def cokernel_residue(rows: Sequence[dict]) -> "CosetKey":
    """Return a key classifying 0/1 vectors modulo the column span of m.

    The matrix m is given as ``smith_reduce`` takes it: one dict column
    -> nonzero entry per row.  The returned ``key`` reads a 0/1 vector
    by the rows where it is 1 (see below).  Two vectors b, b' get equal
    keys iff b - b' lies in the integer image of m.  Used to split
    generators into boundary-equivalence classes with a single Smith
    reduction (``smith_reduce``) S = U m V: b lies in the image iff
    each entry of U b is divisible by its invariant factor (zero where
    the factor is zero).  A row whose factor is 1 never
    tells cosets apart, so the key reads only the other rows.

    Row r of m gets one int, ``key.weights[r]``, column r of U in lanes,
    and the key of b is ``key.reduce`` of its rows' summed weights.  The
    torsion rows (factor q > 1) hold entries mod q in the low lanes, each
    wide enough for ``rows`` residues, and are reduced mod q at the end.
    The free rows (factor 0) sit above in signed lanes W bits wide: a
    negative entry borrows from the lanes above.  Two sums over sets of
    the same columns differ in a lane by at most ``rows * max|U|`` <
    2^W, so equal sums have equal lanes: the lowest lane that differed
    would differ by a multiple of 2^W.  Without torsion rows the key is
    the sum itself.
    """
    factors, U = smith_reduce(rows)
    free = U[len(factors):]
    bound = max((abs(u) for row in free for u in row.values()), default=0)
    width = (len(rows) * bound).bit_length()
    weights = dict.fromkeys(range(len(rows)), 0)
    torsion, low = [], 0  # (lane shift, lane mask, factor) per torsion row
    for row, q in zip(U, factors):
        if q > 1:
            lane = (len(rows) * (q - 1)).bit_length()
            torsion.append((low, (1 << lane) - 1, q))
            for k, u in row.items():
                weights[k] += u % q << low
            low += lane
    for lane, row in enumerate(free):
        for k, u in row.items():
            weights[k] += u << (width * lane + low)
    return CosetKey(weights, tuple(torsion), low)


class CosetKey:
    """``cokernel_residue``'s key of a 0/1 vector's support: ``reduce`` of
    the sum of its rows' ``weights``, which the caller adds up.
    ``torsion`` holds (lane shift, lane mask, factor) per torsion row, in
    the ``low`` bits below the free lanes."""

    def __init__(self, weights: dict, torsion: tuple, low: int):
        self.weights, self.torsion, self.low = weights, torsion, low

    def reduce(self, total: int):
        if not self.torsion:
            return total
        return total >> self.low, tuple((total >> s & mask) % q for s, mask, q in self.torsion)


# ---------------------------------------------------------------------------
# positive kernel witnesses (fraction-free simplex)


def positive_kernel_witness(m: IntegerMatrix) -> Optional[tuple]:
    """A nonzero nonnegative integer vector in ker(m), or None.

    First ``m`` is reduced mod 2: full column rank over F2 forces full
    column rank over Q (a nonzero maximal minor mod 2 is nonzero over
    Z), so the kernel is zero and there is no witness.  Then
    ``_sign_settled`` may show by signs alone that every nonnegative
    kernel vector is zero.  Otherwise decides feasibility of {v >= 0,
    m v = 0, sum(v) = 1} by the fraction-free phase-I simplex, fed the
    integer rows of ``m`` as they are, then clears denominators.  The normalisation makes "nonzero" a
    linear condition, and any rational solution scales to an integer
    one.
    """
    n = m.cols
    if f2_rank([sum(1 << c for c, v in row.items() if v % 2) for row in m.sparse]) == n:
        return None
    if _sign_settled(m):
        return None
    rows = [[row.get(c, 0) for c in range(n)] for row in m.sparse]
    rows.append([1] * n)
    sol = _phase1_simplex(rows, [0] * m.rows + [1])
    if sol is None:
        return None
    denom = lcm(*(f.denominator for f in sol)) if sol else 1
    out = tuple(int(f * denom) for f in sol)
    assert any(out) and all(v >= 0 for v in out)
    assert all(sum(v * out[c] for c, v in row.items()) == 0 for row in m.sparse)
    return out


def _sign_settled(m: IntegerMatrix) -> bool:
    """Whether signs alone force every nonnegative kernel vector to zero.

    A row whose entries on the columns not yet forced all share one sign
    forces its columns to zero too: a nonnegative v with m v = 0 sums
    terms of one sign there.  Rows turn one-signed as columns are
    dropped; a queue over each row's counts of positive and negative
    live entries visits each row and column once.
    """
    meets = [[] for _ in range(m.cols)]  # column -> rows holding it
    signs = []  # row -> [positive, negative] live entry counts
    for r, row in enumerate(m.sparse):
        for c in row:
            meets[c].append(r)
        pos = sum(v > 0 for v in row.values())
        signs.append([pos, len(row) - pos])
    queue = [r for r, (pos, neg) in enumerate(signs) if not (pos and neg)]
    forced = set()
    while queue:
        for c in m.sparse[queue.pop()]:
            if c in forced:
                continue
            forced.add(c)
            for i in meets[c]:
                count = signs[i]
                mixed = count[0] and count[1]
                count[m.sparse[i][c] < 0] -= 1
                if mixed and not (count[0] and count[1]):
                    queue.append(i)
    return len(forced) == m.cols


def _phase1_simplex(a_rows: list, b: list) -> Optional[list]:
    """Feasibility of {x >= 0, A x = b} with b >= 0; returns x or None.

    ``a_rows`` and ``b`` hold integers.  The answer is a list of
    ``Fraction``s, one per column of A, or None when the system is
    infeasible.

    The tableau [A | I | b], with the phase-I reduced costs as one more
    row, is kept fraction-free (Edmonds' integer-preserving pivoting,
    the simplex form of Bareiss elimination).  Every entry is an int
    standing for itself over one common denominator D, the last pivot,
    which starts at 1.  A pivot on (r, c) with p = T[r][c] > 0 keeps
    row r as it is and replaces every other entry by
    (p * T[i][j] - T[i][c] * T[r][j]) // D, then sets D = p.  That
    division is exact: each entry is, up to sign, a minor of the
    starting tableau.  As D > 0, every sign test reads the integer
    itself, and the ratio test compares T[i][-1] / T[i][c] by
    cross-multiplying, so Bland's rule picks the same entering and
    leaving variables as it would on the rational tableau.  Fractions
    are made only for the answer.
    """
    nr = len(a_rows)
    nc = len(a_rows[0])
    # tableau columns: original variables, artificials, rhs
    T = [list(a_rows[i]) + [int(i == j) for j in range(nr)] + [b[i]] for i in range(nr)]
    basis = [nc + i for i in range(nr)]
    total = nc + nr
    # Reduced costs of "minimise the sum of artificials", kept as the last
    # tableau row and pivoted with the others.  With every artificial
    # basic they are minus the column sums on the original variables and
    # zero on the artificials.
    costs = [-sum(col) for col in zip(*T)]
    for j in range(nc, total):
        costs[j] = 0
    T.append(costs)
    D = 1

    while True:
        costs = T[-1]
        enter = next((j for j in range(total) if costs[j] < 0), None)
        if enter is None:
            break
        # ratio test by cross-multiplying, Bland tie-break on basis index
        leave = None
        for i in range(nr):
            a = T[i][enter]
            if a > 0:
                if leave is None:
                    leave = i
                    continue
                lhs = T[i][-1] * T[leave][enter]
                rhs = T[leave][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            # unbounded phase-I objective cannot happen; treat as infeasible
            return None
        prow = T[leave]
        p = prow[enter]
        for i, row in enumerate(T):
            if row is prow:
                continue
            f = row[enter]
            if f:
                T[i] = [(p * x - f * y) // D for x, y in zip(row, prow)]
            elif p != D:
                T[i] = [p * x // D for x in row]
        D = p
        basis[leave] = enter
    # objective value = sum of basic artificial values (all nonnegative)
    if any(T[i][-1] for i in range(nr) if basis[i] >= nc):
        return None
    value = {bi: T[i][-1] for i, bi in enumerate(basis) if bi < nc}
    return [Fraction(value.get(j, 0), D) for j in range(nc)]
