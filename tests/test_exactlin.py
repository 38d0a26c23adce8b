"""Tests for the exact linear algebra kernel.

The expected values here were fixed by small independent oracles
(exhaustive vector enumeration over F2, exhaustive box search for
nonnegative kernel vectors) before the implementations were written.
The positive-kernel simplex is also compared, answer for answer, with
the plain reference simplex in ``oracles``, and the U-only Smith
reduction with the textbook Smith form kept there.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fixtures
import oracles
from sutured import exactlin, glue, pieces, sfc
from sutured.exactlin import (
    BinaryMatrix,
    IntegerMatrix,
    cokernel_residue,
    f2_rank,
    f2_rank_kernel,
    positive_kernel_witness,
    smith_reduce,
)


# ---------------------------------------------------------------------------
# oracles


def brute_f2_rank_kernel(rows, cols):
    """Enumerate all vectors of F2^cols; count kernel size -> nullity."""
    kernel = []
    for bits in itertools.product((0, 1), repeat=cols):
        if all(sum(r * b for r, b in zip(row, bits)) % 2 == 0 for row in rows):
            kernel.append(bits)
    nullity = 0
    size = len(kernel)
    while size > 1:
        size //= 2
        nullity += 1
    return cols - nullity, kernel


def brute_positive_witness(rows, cols, box=5):
    """Exhaustive search over the coefficient box [0, box]^cols."""
    for vec in itertools.product(range(box + 1), repeat=cols):
        if not any(vec):
            continue
        if all(sum(r * v for r, v in zip(row, vec)) == 0 for row in rows):
            return vec
    return None


def random_int_matrix(rng, nr, nc, lo=-3, hi=3):
    return [[rng.randint(lo, hi) for _ in range(nc)] for _ in range(nr)]


def int_matrix(rows):
    """An ``IntegerMatrix`` from dense rows."""
    return IntegerMatrix(tuple(_sparse(rows)), len(rows[0]) if rows else 0)


def bin_matrix(rows, cols):
    """A ``BinaryMatrix`` from dense 0/1 rows over ``cols`` columns."""
    return BinaryMatrix(len(rows), tuple(
        sum(row[j] << i for i, row in enumerate(rows)) for j in range(cols)
    ))


# ---------------------------------------------------------------------------
# F2


def test_f2_empty_and_identity():
    assert f2_rank_kernel(BinaryMatrix(0, ())) == (0, [])
    ident = bin_matrix([[1, 0], [0, 1]], 2)
    assert f2_rank_kernel(ident) == (2, [])


def test_f2_repeated_row():
    m = bin_matrix([[1, 1], [1, 1]], 2)
    rank, basis = f2_rank_kernel(m)
    assert rank == 1
    assert basis == [0b11]


def test_f2_matches_brute_force():
    rng = random.Random(11)
    for _ in range(40):
        nr = rng.randint(0, 5)
        nc = rng.randint(1, 6)
        rows = [[rng.randint(0, 1) for _ in range(nc)] for _ in range(nr)]
        rank, basis = f2_rank_kernel(bin_matrix(rows, nc))
        brank, bkernel = brute_f2_rank_kernel(rows, nc)
        assert rank == brank
        assert rank + len(basis) == nc
        for mask in basis:
            vec = [mask >> j & 1 for j in range(nc)]
            assert all(sum(r * v for r, v in zip(row, vec)) % 2 == 0 for row in rows)
        # basis spans the full kernel: sizes match
        assert 2 ** len(basis) == len(bkernel)


@given(st.lists(st.lists(st.integers(0, 1), min_size=4, max_size=4), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_f2_rank_nullity(rows):
    rank, basis = f2_rank_kernel(bin_matrix(rows, 4))
    assert rank + len(basis) == 4
    bitrows = [sum(1 << j for j, v in enumerate(row) if v) for row in rows]
    assert f2_rank(bitrows) == rank


# ---------------------------------------------------------------------------
# Z


def test_smith_normal_form_properties():
    rng = random.Random(5)
    for _ in range(25):
        nr = rng.randint(1, 4)
        nc = rng.randint(1, 4)
        A = random_int_matrix(rng, nr, nc)
        S, U, V = oracles.smith_normal_form(A)
        # S == U A V
        UA = [[sum(U[i][k] * A[k][j] for k in range(nr)) for j in range(nc)] for i in range(nr)]
        UAV = [[sum(UA[i][k] * V[k][j] for k in range(nc)) for j in range(nc)] for i in range(nr)]
        assert UAV == S
        # diagonal, nonnegative, divisibility chain
        for i in range(nr):
            for j in range(nc):
                if i != j:
                    assert S[i][j] == 0
        diag = [S[i][i] for i in range(min(nr, nc))]
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            if a != 0:
                assert b % a == 0 or b == 0 or a == 0
            else:
                assert b == 0


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda nc: st.lists(
            st.lists(st.integers(-3, 3), min_size=nc, max_size=nc), min_size=1, max_size=6
        )
    ),
    st.lists(st.tuples(st.integers(0, 63), st.integers(0, 63)), max_size=8),
)
def test_smith_reduce_matches_the_textbook_form(rows, pairs):
    """The U-only reduction gives the textbook form's invariant factors,
    a divisibility chain, a unimodular U, and keys that agree with
    membership in the image on 0/1 pairs."""
    sparse = _sparse(rows)
    factors, U = smith_reduce(sparse)
    assert sparse == _sparse(rows)  # the input rows are copied, not changed
    S, _U, _V = oracles.smith_normal_form(rows)
    assert factors == [S[i][i] for i in range(min(len(S), len(S[0]))) if S[i][i]]
    assert all(q > 0 for q in factors)
    assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
    assert abs(oracles.determinant([[row.get(k, 0) for k in range(len(U))] for row in U])) == 1
    m = int_matrix(rows)
    key = cokernel_residue(_sparse(rows))
    for p1, p2 in pairs:
        b1 = [p1 >> i & 1 for i in range(m.rows)]
        b2 = [p2 >> i & 1 for i in range(m.rows)]
        diff = tuple(a - b for a, b in zip(b1, b2))
        same = oracles.z_image_contains(m, diff) is not None
        assert (_class(key, _support(b1)) == _class(key, _support(b2))) == same


def test_smith_pivot_is_the_first_least_entry():
    """The pivot is an entry of least absolute value, ties to the lowest
    row and then column; U lists the pivot rows as they were settled."""
    assert smith_reduce([{0: 2}, {1: 1}]) == ([1, 2], [{1: 1}, {0: 1}])
    assert smith_reduce([{0: 3, 1: -1}]) == ([1], [{0: -1}])  # the pivot -1 in column 1
    # both rows hold a unit: row 0's comes first, and row 1 is left as it is
    assert smith_reduce([{0: 2, 1: 1}, {0: -1}]) == ([1, 1], [{0: 1}, {1: -1}])
    assert smith_reduce([{0: 2}, {1: 2}]) == ([2, 2], [{0: 1}, {1: 1}])  # a tie of 2s


def test_z_image_contains():
    m = int_matrix([[2, 0], [0, 3]])
    assert oracles.z_image_contains(m, (4, 9)) == (2, 3)
    assert oracles.z_image_contains(m, (1, 0)) is None
    rng = random.Random(13)
    for _ in range(25):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        A = random_int_matrix(rng, nr, nc)
        m = int_matrix(A)
        x = tuple(rng.randint(-3, 3) for _ in range(nc))
        b = _mul_vec(A, x)
        got = oracles.z_image_contains(m, b)
        assert got is not None
        assert _mul_vec(A, got) == b


def test_cokernel_residue_classifies():
    rng = random.Random(17)
    for _ in range(20):
        nr, nc = rng.randint(1, 4), rng.randint(0, 4)
        A = random_int_matrix(rng, nr, nc)
        m = int_matrix(A)
        key = cokernel_residue(_sparse(A))
        for _ in range(10):
            b1 = tuple(rng.randint(0, 1) for _ in range(nr))
            b2 = tuple(rng.randint(0, 1) for _ in range(nr))
            diff = tuple(a - b for a, b in zip(b1, b2))
            same = oracles.z_image_contains(m, diff) is not None
            assert (_class(key, _support(b1)) == _class(key, _support(b2))) == same


def _class(key, support):
    """The class ``key`` gives the 0/1 vector with 1s on the rows ``support``."""
    return key.reduce(sum(key.weights[r] for r in support))


def _support(b):
    """The rows where the 0/1 vector ``b`` is 1, the form ``_class`` takes."""
    return [i for i, v in enumerate(b) if v]


def _sparse(dense):
    """Dense rows as the sparse rows ``smith_reduce`` takes and returns."""
    return [{k: u for k, u in enumerate(row) if u} for row in dense]


def _mul_vec(rows, x):
    return tuple(sum(a * v for a, v in zip(row, x)) for row in rows)


def _assert_keys_separate_all_subsets(rows):
    """On a matrix with zero image, every 0/1 vector is its own class."""
    key = cokernel_residue(rows)
    subsets = list(itertools.product((0, 1), repeat=len(rows)))
    keys = {_class(key, _support(b)) for b in subsets}
    assert len(keys) == len(subsets)


def test_cokernel_residue_keys_large_unimodular_factors(monkeypatch):
    """Free rows read through a U with entries near 2^40 stay apart.

    Any unimodular U reduces a zero matrix A, with no factors.  With
    D = 2^40, U = [[1, 1 - D], [0, 1]] has max|U| = D - 1, so the sums
    of its columns over the 2 rows need lanes 41 bits wide; with lanes
    40 bits wide the columns {0} and {1} would pack to the same int.
    """
    big = 1 << 40
    zero = [{}, {}]
    units = [[1, 1 - big], [0, 1]]
    monkeypatch.setattr(exactlin, "smith_reduce", lambda rows: ([], _sparse(units)))
    key = cokernel_residue(zero)
    assert _class(key, [0]) != _class(key, [1])
    _assert_keys_separate_all_subsets(zero)


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 5),
    steps=st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(-(1 << 30), 1 << 30)),
        max_size=12,
    ),
)
def test_cokernel_residue_keys_random_unimodular_factors(rows, steps):
    """Row operations with large multipliers build a unimodular U; as the
    reduction of a zero matrix it must still separate every 0/1 vector."""
    units = [[int(i == j) for j in range(rows)] for i in range(rows)]
    for dst, src, k in steps:
        dst, src = dst % rows, src % rows
        if dst != src:
            units[dst] = [a + k * b for a, b in zip(units[dst], units[src])]
    real = exactlin.smith_reduce
    exactlin.smith_reduce = lambda rows: ([], _sparse(units))
    try:
        _assert_keys_separate_all_subsets([{} for _ in range(rows)])
    finally:
        exactlin.smith_reduce = real


# Boundary rows with torsion, beside a zero row that leaves a free lane:
# invariant factors (1, 2), (1, 3), and (1, 1, 2, 6) from the two blocks
# [[1, 1], [1, -1]] and [[1, 1], [1, -5]].  Each block makes two 0/1
# vectors equivalent, the rows 1 + 1 against none.
TORSION_ROWS = (
    [[1, 1], [1, -1], [0, 0]],
    [[1, 1], [1, -2], [0, 0]],
    [[1, 1, 0, 0], [1, -1, 0, 0], [0, 0, 0, 0], [0, 0, 1, 1], [0, 0, 1, -5]],
)


@pytest.mark.parametrize("dense", TORSION_ROWS)
def test_summed_weights_keep_torsion_exact(dense):
    """The class from summing the rows' weights, in any order, and
    reducing once equals the class from ``key`` and the reference's
    exact membership test, for every 0/1 support; on these rows some
    equal classes have unequal raw sums, so the torsion lanes are
    reduced, not compared as summed."""
    sparse = _sparse(dense)
    factors, _U = smith_reduce(sparse)
    assert any(q > 1 for q in factors) and len(factors) < len(dense)
    key = cokernel_residue(sparse)
    m = int_matrix(dense)
    rng = random.Random(len(dense))
    supports = [list(s) for r in range(len(dense) + 1)
                for s in itertools.combinations(range(len(dense)), r)]
    raw, summed = [], []
    for support in supports:
        rng.shuffle(support)
        total = 0
        for r in support:
            total += key.weights[r]
        raw.append(total)
        summed.append(key.reduce(total))
        assert summed[-1] == _class(key, support)
    for (s1, k1), (s2, k2) in itertools.combinations(zip(supports, summed), 2):
        b1 = [int(i in s1) for i in range(len(dense))]
        b2 = [int(i in s2) for i in range(len(dense))]
        same = oracles.z_image_contains(m, tuple(a - b for a, b in zip(b1, b2))) is not None
        assert (k1 == k2) == same
    assert len(set(summed)) < len(set(raw))


# ---------------------------------------------------------------------------
# positive kernel witnesses


def test_witness_forced():
    w = positive_kernel_witness(int_matrix([[1, -1]]))
    assert w is not None and w[0] == w[1] > 0


def test_witness_none_for_identity():
    assert positive_kernel_witness(int_matrix([[1, 0], [0, 1]])) is None


def test_witness_mixed_sign_kernel():
    # kernel spanned by (1, -1): no nonnegative point besides 0
    assert positive_kernel_witness(int_matrix([[1, 1]])) is None


def test_witness_against_box_oracle():
    rng = random.Random(23)
    for _ in range(60):
        nr = rng.randint(1, 3)
        nc = rng.randint(1, 4)
        A = random_int_matrix(rng, nr, nc, lo=-2, hi=2)
        got = positive_kernel_witness(int_matrix(A))
        expect = brute_positive_witness(A, nc)
        if expect is None:
            # the box search is complete for small boxes only when rays are
            # short; verify by scaling the returned witness if one appears
            if got is not None:
                # must still be a genuine witness
                assert all(sum(r * v for r, v in zip(row, got)) == 0 for row in A)
                assert all(v >= 0 for v in got) and any(got)
                # and the oracle must find its pattern once the box is grown
                m = max(got)
                assert brute_positive_witness(A, nc, box=m) is not None
        else:
            assert got is not None
            assert all(sum(r * v for r, v in zip(row, got)) == 0 for row in A)
            assert all(v >= 0 for v in got) and any(got)


@given(
    st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3), min_size=1, max_size=3)
)
@settings(max_examples=60, deadline=None)
def test_witness_sound(rows):
    got = positive_kernel_witness(int_matrix(rows))
    if got is not None:
        assert all(v >= 0 for v in got) and any(got)
        assert all(sum(r * v for r, v in zip(row, got)) == 0 for row in rows)


@st.composite
def kernel_systems(draw):
    """Integer systems up to 7 x 8, some with repeated or zero rows, so
    that the ratio test meets ties and Bland's tie-break decides them."""
    nc = draw(st.integers(1, 8))
    row = st.lists(st.integers(-3, 3), min_size=nc, max_size=nc)
    rows = draw(st.lists(row, min_size=1, max_size=7))
    extra = draw(st.lists(st.integers(0, len(rows)), max_size=7 - len(rows)))
    for k in extra:  # k < len(rows) repeats row k, k == len(rows) adds a zero row
        rows.append(list(rows[k]) if k < len(rows) else [0] * nc)
    return draw(st.permutations(rows))


@given(kernel_systems())
@example([[1, -1, 0], [1, -1, 0], [0, 0, 0], [0, 1, -1]])  # the first pivot ties rows 0 and 1
@settings(max_examples=300, deadline=None)
def test_witness_and_simplex_match_the_reference(rows):
    n = len(rows[0])
    a_rows = [list(row) for row in rows] + [[1] * n]
    b = [0] * len(rows) + [1]
    got = exactlin._phase1_simplex(a_rows, b)
    fractions = [[Fraction(v) for v in row] for row in a_rows]
    assert got == oracles.reference_phase1_simplex(fractions, [Fraction(v) for v in b])
    assert got is None or all(type(v) is Fraction for v in got)
    expect = oracles.reference_positive_kernel_witness(rows)
    assert positive_kernel_witness(int_matrix(rows)) == expect
    assert expect is None or not exactlin._sign_settled(int_matrix(rows))


def test_simplex_makes_fractions_only_for_the_answer(monkeypatch):
    made = []

    def counting(*args):
        made.append(args)
        return Fraction(*args)

    monkeypatch.setattr(exactlin, "Fraction", counting)
    rows = [[1, -1, 0], [0, 2, -1], [1, 1, 1]]
    got = exactlin._phase1_simplex(rows, [0, 0, 1])
    assert got == [Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)]
    assert len(made) <= 3


def _admissibility_diagrams():
    for name in pieces.catalog():
        yield name, pieces.build(name)
    for name in ("annular_trap", "hexagram", "grid_torus"):  # not admissible
        yield name, getattr(fixtures, name)()
    staged = (("fix-stab", pieces.build("fix-stab")), ("bigonpair^3", fixtures.bigonpair_power(3)))
    for name, d in staged:
        yield name, d
        for k, spec in enumerate(glue.two_handle_sequence(d)):
            d = glue.sigma_map(d, spec)[0]
            yield f"{name} stage {k + 1}", d


def test_admissibility_witness_matches_the_reference(monkeypatch):
    calls = []
    real = sfc.positive_kernel_witness

    def recording(m):
        got = real(m)
        calls.append((m, got))
        return got

    monkeypatch.setattr(sfc, "positive_kernel_witness", recording)
    checked = refused = 0
    for where, d in _admissibility_diagrams():
        calls.clear()
        ok, witness = sfc.is_admissible(d)
        if not calls:
            assert (ok, witness) == (True, None), where
            continue
        ((m, got),) = calls
        dense = [[row.get(j, 0) for j in range(m.cols)] for row in m.sparse]
        expect = oracles.reference_positive_kernel_witness(dense)
        assert got == expect, where
        cols = sorted(f for f, face in d.faces.items() if not face.suture)
        assert ok == (expect is None), where
        if expect is not None:
            assert witness == {cols[j]: w for j, w in enumerate(expect) if w}, where
            refused += 1
        checked += 1
    assert checked > refused == 3


def _unreachable(*_args):
    raise AssertionError("simplex reached")


def test_full_f2_rank_settles_without_the_simplex(monkeypatch):
    monkeypatch.setattr(exactlin, "_phase1_simplex", _unreachable)
    assert positive_kernel_witness(int_matrix([[1, 0], [0, 1]])) is None
    assert positive_kernel_witness(IntegerMatrix(({}, {}), 0)) is None


@pytest.mark.parametrize(
    "rows",
    [
        [[2, 0], [0, 1]],  # singular mod 2, each row of one sign
        [[1, 1], [1, -1]],  # row 0 of one sign forces both columns
        [[1, -1, 0], [0, 1, 1]],  # row 1 forces columns 1 and 2, then row 0 column 0
    ],
)
def test_sign_settles_without_the_simplex(rows, monkeypatch):
    monkeypatch.setattr(exactlin, "_phase1_simplex", _unreachable)
    assert exactlin._sign_settled(int_matrix(rows))
    assert positive_kernel_witness(int_matrix(rows)) is None


def test_admissible_traffic_never_reaches_the_simplex(monkeypatch):
    """Every admissible diagram the gate meets here, staged route
    diagrams and a closed sum included, is settled mod 2 or by sign; the
    three that are not admissible still reach the simplex for their
    witnesses."""
    monkeypatch.setattr(exactlin, "_phase1_simplex", _unreachable)
    diagrams = [*_admissibility_diagrams(), ("bigonpair^4", fixtures.bigonpair_power(4))]
    for where, d in diagrams:
        if where in ("annular_trap", "hexagram", "grid_torus"):
            with pytest.raises(AssertionError, match="simplex reached"):
                sfc.is_admissible(d)
        else:
            assert sfc.is_admissible(d) == (True, None), where


@pytest.mark.parametrize(
    "rows, expect_witness",
    [
        ([[2, -2], [1, -3]], False),  # mixed signs, singular mod 2, full rank over Q
        ([[1, -1], [3, -1]], False),  # likewise
        ([[2, -2]], True),
    ],
)
def test_rank_deficient_mod_2_reaches_the_simplex(rows, expect_witness, monkeypatch):
    reached = []
    real = exactlin._phase1_simplex

    def recording(*args):
        reached.append(True)
        return real(*args)

    monkeypatch.setattr(exactlin, "_phase1_simplex", recording)
    got = positive_kernel_witness(int_matrix(rows))
    assert reached
    if expect_witness:
        assert got is not None and got[0] == got[1] > 0
    else:
        assert got is None
