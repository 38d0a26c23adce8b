"""Exact linear algebra over F2 and the integers.

Everything at desk scale: the diagrams this package works with produce
systems with a few hundred rows at most, so plain Gaussian elimination
on bitmask rows over F2 and a Smith reduction that keeps only the
invariant factors and the row operations U are enough.
No floating point is used anywhere.

Whether a nonzero nonnegative kernel vector exists is settled mod 2
when the matrix has full column rank over F2 (then its kernel over Q is
zero), and otherwise by a phase-I simplex on an integer tableau: every
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


@dataclass(frozen=True)
class BinaryMatrix:
    """A matrix over F2, stored as the set of positions holding a 1."""

    rows: int
    cols: int
    entries: frozenset

    def __post_init__(self):
        for (r, c) in self.entries:
            if not (0 <= r < self.rows and 0 <= c < self.cols):
                raise ValueError(f"entry {(r, c)} out of bounds")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "BinaryMatrix":
        nr = len(rows)
        nc = len(rows[0]) if rows else 0
        ent = frozenset(
            (i, j) for i, row in enumerate(rows) for j, v in enumerate(row) if v % 2
        )
        return cls(nr, nc, ent)

    def bitrows(self) -> list:
        """Rows as integers with bit j standing for column j."""
        out = [0] * self.rows
        for (r, c) in self.entries:
            out[r] |= 1 << c
        return out


@dataclass(frozen=True)
class IntegerMatrix:
    """A matrix over Z, stored sparsely as position -> value."""

    rows: int
    cols: int
    entries: tuple  # sorted tuple of ((r, c), value) with value != 0

    def __post_init__(self):
        for ((r, c), v) in self.entries:
            if not (0 <= r < self.rows and 0 <= c < self.cols):
                raise ValueError(f"entry {(r, c)} out of bounds")
            if v == 0:
                raise ValueError("explicit zero entry")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntegerMatrix":
        nr = len(rows)
        nc = len(rows[0]) if rows else 0
        ent = tuple(
            sorted(((i, j), v) for i, row in enumerate(rows) for j, v in enumerate(row) if v)
        )
        return cls(nr, nc, ent)

    def dense(self) -> list:
        out = [[0] * self.cols for _ in range(self.rows)]
        for ((r, c), v) in self.entries:
            out[r][c] = v
        return out

    def mul_vec(self, vec: Sequence[int]) -> tuple:
        out = [0] * self.rows
        for ((r, c), v) in self.entries:
            out[r] += v * vec[c]
        return tuple(out)


# ---------------------------------------------------------------------------
# F2


def f2_rank_kernel(m: BinaryMatrix) -> tuple:
    """Rank and a kernel basis of ``m`` over F2.

    Returns ``(rank, basis)`` where each basis vector is an int bitmask,
    bit j standing for column j, one per non-pivot column in increasing
    order; rank + len(basis) == m.cols.
    """
    rows = [r for r in m.bitrows() if r]
    pivots = {}  # col -> reduced row
    for row in rows:
        for col, prow in pivots.items():
            if (row >> col) & 1:
                row ^= prow
        if row:
            col = row.bit_length() - 1
            # back-substitute into existing rows to keep them reduced
            for c2 in list(pivots):
                if (pivots[c2] >> col) & 1:
                    pivots[c2] ^= row
            pivots[col] = row
    free = ((1 << m.cols) - 1) & ~sum(1 << col for col in pivots)
    basis = {j: 1 << j for j in set_bits(free)}
    for col, prow in pivots.items():
        for j in set_bits(prow & free):
            basis[j] |= 1 << col
    return len(pivots), list(basis.values())


def set_bits(mask: int):
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def f2_rank(rows: Sequence[int]) -> int:
    """Rank of a list of bitmask rows over F2 (convenience form)."""
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


def smith_reduce(mat: Sequence[Sequence[int]]) -> tuple:
    """Invariant factors of an integer matrix A, and a U reaching them.

    Returns ``(factors, U)``: the nonzero invariant factors s_1 | s_2 |
    ..., all positive, and a unimodular U as sparse rows (dicts column
    -> entry) with U A V = diag(factors, 0, ...) for a unimodular V that
    is never built.  U lists the pivot rows as they were settled, then
    the others in order.  Each pivot is an entry of least absolute
    value; row operations clear its column, and a remainder becomes the
    next pivot.  Once the pivot is alone in its column, the column
    operations that clear its row change that row only: its entries are
    taken mod the pivot.  A pivot of +-1 skips the divisibility fix-up.
    """
    rows = [{j: a for j, a in enumerate(row) if a} for row in mat]
    U = [{i: 1} for i in range(len(rows))]
    live = list(range(len(rows)))
    factors, order = [], []
    while True:
        entries = [(abs(a), i, j) for i in live for j, a in rows[i].items()]
        if not entries:
            break
        _, r, c = min(entries)
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


def cokernel_residue(m: IntegerMatrix):
    """Return a function classifying 0/1 vectors modulo the column span of ``m``.

    The returned ``key`` takes the rows where a 0/1 vector is 1, as an
    iterable of distinct row indices.  Two vectors b, b' get equal keys
    iff b - b' lies in the integer image of ``m``.  Used to split
    generators into boundary-equivalence classes with a single Smith
    reduction (``smith_reduce``) S = U m V: b lies in the image iff each
    entry of U b is divisible by its invariant factor (zero where the
    factor is zero).  A row whose factor is 1 never tells cosets apart,
    so the key reads only the other rows.

    The free rows (factor 0) are packed side by side into one int per
    column of U, row i of the column in a lane W bits wide at bit W * i
    of the free rows' order, so the key's first part is a plain sum of
    ints.  Lanes are signed: a negative entry borrows from the lanes
    above it.  Two sums over sets of the same columns differ in a lane
    by at most ``rows * max|U|``, and W = (rows * max|U|).bit_length()
    puts that bound below 2^W, so equal sums have equal lanes: the
    lowest lane that differed would have to differ by a multiple of
    2^W.  The torsion rows (factor > 1) are reduced lane by lane, and
    make up the key's second part; without torsion rows the key is the
    sum alone.
    """
    factors, U = smith_reduce(m.dense())
    free = U[len(factors):]
    torsion = [(U[i], q) for i, q in enumerate(factors) if q > 1]
    bound = max((abs(u) for row in free for u in row.values()), default=0)
    width = (m.rows * bound).bit_length()
    packed = dict.fromkeys(range(m.rows), 0)
    for lane, row in enumerate(free):
        for k, u in row.items():
            packed[k] += u << (width * lane)

    def key(rows):
        rows = list(rows)
        try:
            total = sum(map(packed.__getitem__, rows))
        except KeyError as err:
            raise ValueError(f"row index {err.args[0]} out of range") from None
        if not torsion:
            return total
        return total, tuple(sum(row.get(k, 0) for k in rows) % q for row, q in torsion)

    return key


# ---------------------------------------------------------------------------
# positive kernel witnesses (fraction-free simplex)


def positive_kernel_witness(m: IntegerMatrix) -> Optional[tuple]:
    """A nonzero nonnegative integer vector in ker(m), or None.

    First ``m`` is reduced mod 2: full column rank over F2 forces full
    column rank over Q (a nonzero maximal minor mod 2 is nonzero over
    Z), so the kernel is zero and there is no witness.  Otherwise
    decides feasibility of {v >= 0, m v = 0, sum(v) = 1} by the
    fraction-free phase-I simplex, fed the integer rows of ``m`` as they
    are, then clears denominators.  The normalisation makes "nonzero" a
    linear condition, and any rational solution scales to an integer
    one.
    """
    n = m.cols
    bits = [0] * m.rows
    for ((r, c), v) in m.entries:
        if v % 2:
            bits[r] |= 1 << c
    if f2_rank(bits) == n:
        return None
    rows = m.dense()
    rows.append([1] * n)
    sol = _phase1_simplex(rows, [0] * m.rows + [1])
    if sol is None:
        return None
    denom = lcm(*(f.denominator for f in sol)) if sol else 1
    out = tuple(int(f * denom) for f in sol)
    assert any(out) and all(v >= 0 for v in out)
    assert all(v == 0 for v in m.mul_vec(out))
    return out


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
