import hashlib
import random
from fractions import Fraction

import pytest

from ncfgl import COMPLEX, GF, QQ, REAL, ZZ, FreeAlgebra, MilnorOp, ShapeError, ToolkitError
from ncfgl import linalg
from ncfgl.gradebook import (
    series_divide,
    series_free_assoc,
    series_graded_algebra,
    splitting_multiplicities,
)
from ncfgl.linalg import affine_solve, matrix_of, nullspace, reduced_basis, rref
from ncfgl.steenrod import _acting

from oracles import dense_affine_solve, dense_nullspace, dense_rref, dense_span


def _matvec(rows, vec, ring):
    """rows * vec in plain int or Fraction arithmetic, taken mod p over F_p."""
    out = [sum(a * vec.get(c, 0) for c, a in row.items()) for row in rows]
    return [x % ring.prime for x in out] if ring.prime else out


def test_rref_hand_example_fp():
    F = GF(5)
    rows = [{0: 1, 1: 2, 2: 3}, {0: 2, 1: 4, 2: 1}, {2: 4}]
    reduced, pivots = rref(rows, 3, F)
    assert pivots == [0, 2]
    assert reduced == [{0: 1, 1: 2}, {2: 1}]


def test_nullspace_fp_kernel_vectors_annihilate():
    F = GF(3)
    rng = random.Random(7)
    for _ in range(25):
        rows = [{c: x for c in range(6) if (x := rng.randrange(3))} for _ in range(4)]
        for vec in nullspace(rows, 6, F):
            assert _matvec(rows, vec, F) == [0, 0, 0, 0]


def test_nullspace_rational():
    rows = [{0: Fraction(1), 1: Fraction(1)}]
    basis = nullspace(rows, 3, QQ)
    assert len(basis) == 2
    for vec in basis:
        assert _matvec(rows, vec, QQ) == [0]


def test_nullspace_integer_is_primitive():
    rows = [{0: 2, 1: 4}]
    basis = nullspace(rows, 2, ZZ)
    assert basis == [{0: 2, 1: -1}]


def test_affine_solve_consistent():
    F = GF(5)
    rows = [{0: 1, 1: 1}, {1: 1}]
    particular, kernel, rank = affine_solve(rows, {0: 3, 1: 4}, 2, F)
    assert particular == {0: 4, 1: 4}
    assert kernel == []
    assert rank == 2


def test_affine_solve_inconsistent():
    F = GF(3)
    rows = [{0: 1, 1: 1}, {0: 2, 1: 2}]
    particular, kernel, rank = affine_solve(rows, {0: 1}, 2, F)
    assert particular is None
    assert rank == 1  # rank of the coefficient matrix, augmented pivot excluded
    assert kernel == [{0: 1, 1: 2}]  # x + y = const solutions differ by (1, -1)


def test_affine_solve_underdetermined():
    F = GF(7)
    rows = [{0: 1, 1: 2, 2: 3}]
    particular, kernel, rank = affine_solve(rows, {0: 4}, 3, F)
    assert particular is not None
    assert _matvec(rows, particular, F) == [4]
    assert len(kernel) == 2
    for vec in kernel:
        assert _matvec(rows, vec, F) == [0]


def test_full_rank_unique_solution_fp():
    F = GF(2)
    rows = [{0: 1}]
    particular, kernel, rank = affine_solve(rows, {0: 1}, 1, F)
    assert particular == {0: 1} and kernel == [] and rank == 1


def test_affine_solve_refuses_the_integers():
    # over Z, 2x = 1 has no solution although it has one over Q
    with pytest.raises(ToolkitError):
        affine_solve([{0: 2}], {0: 1}, 1, ZZ)


@pytest.mark.parametrize("key", [5, 2, -1])
def test_affine_solve_refuses_a_right_hand_side_naming_no_row(key, monkeypatch):
    # the system has rows 0 and 1 only: the entry is refused before any
    # elimination, not dropped to solve x0 = x1 = 0
    calls = _count_echelon_calls(monkeypatch)
    with pytest.raises(ShapeError, match="names a row"):
        affine_solve([{0: 1}, {1: 1}], {key: 1}, 2, GF(3))
    assert calls == []


@pytest.mark.parametrize("ring", [GF(3), QQ, ZZ], ids=repr)
def test_nullspace_ignores_entries_at_and_past_ncols(ring):
    # column 3 lies past ncols = 2: it is never a pivot, and no kernel
    # vector holds it
    assert nullspace([{0: 1, 3: 1}], 2, ring) == [{1: 1}]
    assert nullspace([{0: 1, 2: 1}, {1: 2, 5: 1}], 2, ring) == []
    if ring.is_field:
        assert affine_solve([{0: 1, 3: 1}], {0: 1}, 2, ring) == ({0: 1}, [{1: 1}], 1)


# -- against the dense oracle --------------------------------------------------

# (matrix, number of columns, right-hand side or None for a random one)
_SPECIAL = [
    ([[0, 0, 0], [1, 2, 0], [0, 0, 0], [2, 1, 0]], 3, None),  # zero rows, an empty column
    ([[0, 0, 0, 0]] * 3, 4, None),  # rank 0
    ([], 3, None),  # no rows at all
    ([[0, 1, 0], [1, 1, 0], [2, 0, 1]], 3, None),  # full rank
    ([[1, 1, 1, 1], [1, 0, 0, 2], [0, 1, 1, 0]], 4, None),  # shortest pivot row is not the first
    ([[1, 1], [1, 1]], 2, [1, 2]),  # inconsistent over every field
]
_RINGS = [(GF(2), 2, False), (GF(3), 3, False), (GF(5), 5, False), (QQ, None, False),
          (ZZ, None, True)]


def _dense(vectors, ncols):
    return [[vec.get(c, 0) for c in range(ncols)] for vec in vectors]


def _sparse(matrix):
    return [{c: x for c, x in enumerate(row) if x} for row in matrix]


def _random_value(ring, rng):
    if ring is QQ:
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return rng.randint(-3, 3)


def _cases(ring, rng):
    cases = list(_SPECIAL)
    for _ in range(60):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 8)
        density = rng.choice((0.15, 0.4, 0.8))
        matrix = [[_random_value(ring, rng) if rng.random() < density else 0
                   for _ in range(ncols)] for _ in range(nrows)]
        cases.append((matrix, ncols, None))
    return [(m, n, rhs if rhs is not None else [_random_value(ring, rng) for _ in m])
            for m, n, rhs in cases]


def _check_against_the_oracle(rows, matrix, ncols, rhs, ring, p, integer):
    """Assert every solver on ``rows`` against the dense oracle on
    ``matrix``; returns whether ``rows * x = rhs`` is consistent, or None
    over Z, where ``affine_solve`` is refused."""
    before = [dict(row) for row in rows]
    reduced, pivots = rref(rows, ncols, ring)
    assert (_dense(reduced, ncols), pivots) == dense_rref(matrix, ncols, p)
    kernel = nullspace(rows, ncols, ring)
    assert _dense(kernel, ncols) == dense_nullspace(matrix, ncols, p, integer)
    span = reduced_basis(rows, ncols, ring)
    assert _dense(span, ncols) == dense_span(matrix, ncols, p, integer)
    vectors = reduced + kernel + span
    sparse_rhs = {i: b for i, b in enumerate(rhs) if b}
    consistent = None
    if integer:  # over Z, the kernel of the augmented matrix instead
        with pytest.raises(ToolkitError):
            affine_solve(rows, sparse_rhs, ncols, ring)
        augmented = [{**row, ncols: rhs[i]} for i, row in enumerate(rows)]
        dense_augmented = [row + [b] for row, b in zip(matrix, rhs)]
        assert _dense(nullspace(augmented, ncols + 1, ring), ncols + 1) == \
            dense_nullspace(dense_augmented, ncols + 1, p, integer)
    else:
        particular, affine_kernel, rank = affine_solve(rows, sparse_rhs, ncols, ring)
        got = (None if particular is None else _dense([particular], ncols)[0],
               _dense(affine_kernel, ncols), rank)
        assert got == dense_affine_solve(matrix, rhs, ncols, p)
        vectors += affine_kernel + ([] if particular is None else [particular])
        consistent = particular is not None
    for vec in vectors:  # no stored zero, and every entry in stored form
        assert all(vec.values())
        assert all(0 <= x < p for x in vec.values()) if p else all(map(_is_stored, vec.values()))
    assert rows == before  # the inputs are left as they were
    return consistent


@pytest.mark.parametrize("ring, p, integer", _RINGS, ids=repr)
def test_sparse_elimination_matches_the_dense_oracle(ring, p, integer):
    rng = random.Random(20 + (p or 0) + integer)
    outcomes = [_check_against_the_oracle(_sparse(matrix), matrix, ncols, rhs, ring, p, integer)
                for matrix, ncols, rhs in _cases(ring, rng)]
    if not integer:
        assert True in outcomes and False in outcomes


# -- the stored form over Z and Q ------------------------------------------------

# (matrix, right-hand side): each has a pivot of 2, so some entries leave the
# integers; in the third, column 3 of the first row turns integral again
# (3) only after elimination; the last two systems are inconsistent
_STORED_CASES = [
    ([[2, 1, 0], [0, 3, 1], [1, 0, 1]], [1, 0, 2]),
    ([[2, 4, 1, 0], [1, 2, 0, 1], [0, 0, 2, 2]], [1, 1, 0]),
    ([[2, 0, 3, 0], [2, 0, 2, 2], [0, 3, 0, 3]], [1, 1, 0]),
    ([[2, -1, 0, 0], [0, 1, -1, 0], [-2, 0, 1, 0]], [0, 0, 1]),
    ([[2, 1], [4, 2]], [1, 3]),
]


def _is_stored(value):
    """An int, or a Fraction that is not an integer."""
    return type(value) is int or (type(value) is Fraction and value.denominator > 1)


@pytest.mark.parametrize("ring, integer", [(ZZ, True), (QQ, False)], ids=repr)
def test_int_and_fraction_rows_give_the_same_stored_results(ring, integer):
    inconsistent = non_integral = 0
    for matrix, rhs in _STORED_CASES:
        ncols = len(matrix[0])
        as_ints = _sparse(matrix)
        forms = [(as_ints, {i: b for i, b in enumerate(rhs) if b})]
        forms.append(([{c: Fraction(x) for c, x in row.items()} for row in as_ints],
                      {i: Fraction(b) for i, b in forms[0][1].items()}))
        results = []
        for rows, sparse_rhs in forms:
            reduced, pivots = rref(rows, ncols, ring)
            assert (_dense(reduced, ncols), pivots) == dense_rref(matrix, ncols)
            kernel = nullspace(rows, ncols, ring)
            assert _dense(kernel, ncols) == dense_nullspace(matrix, ncols, None, integer)
            span = reduced_basis(rows, ncols, ring)
            assert _dense(span, ncols) == dense_span(matrix, ncols, None, integer)
            vectors = reduced + kernel + span
            if integer:
                with pytest.raises(ToolkitError):
                    affine_solve(rows, sparse_rhs, ncols, ring)
            else:
                particular, affine_kernel, rank = affine_solve(rows, sparse_rhs, ncols, ring)
                expected = dense_affine_solve(matrix, rhs, ncols)
                got = (None if particular is None else _dense([particular], ncols)[0],
                       _dense(affine_kernel, ncols), rank)
                assert got == expected
                inconsistent += particular is None
                vectors += affine_kernel + ([] if particular is None else [particular])
            values = [x for vec in vectors for x in vec.values()]
            assert all(_is_stored(x) for x in values)
            non_integral += any(type(x) is Fraction for x in values)
            results.append([sorted((c, type(x), x) for c, x in vec.items()) for vec in vectors])
        assert results[0] == results[1]  # the same values, of the same types
    assert non_integral
    if not integer:
        assert inconsistent == 4  # two systems, each in both forms


# -- pivots of -1 over Z and Q ----------------------------------------------------

# Systems whose every pivot is -1, as in most of the commutator systems: a
# cycle with the kernel (1, 1, 1, 1), a row that stays -1 after another row
# is subtracted from it, a leading empty column, and non-integral entries
# beside a -1 pivot.
_MINUS_ONE_PIVOTS = [
    [[-1, 1, 0, 0], [0, -1, 1, 0], [0, 0, -1, 1], [1, 0, 0, -1]],
    [[-1, 2, 0], [0, -1, 3], [1, 0, -1]],
    [[-1, -1, 2], [-1, 0, 1]],
    [[0, -1, 1, 1], [0, 0, -1, 2], [0, 1, 0, -1]],
    [[-1, Fraction(1, 2), 0], [0, -1, Fraction(-3, 2)], [Fraction(1, 3), 0, -1]],
]


@pytest.mark.parametrize("ring, integer", [(ZZ, True), (QQ, False)], ids=repr)
def test_minus_one_pivots_match_the_dense_oracle(ring, integer):
    for matrix in _MINUS_ONE_PIVOTS:
        ncols = len(matrix[0])
        rows = _sparse(matrix)
        reduced, pivots = rref(rows, ncols, ring)
        assert (_dense(reduced, ncols), pivots) == dense_rref(matrix, ncols)
        kernel = nullspace(rows, ncols, ring)
        assert _dense(kernel, ncols) == dense_nullspace(matrix, ncols, None, integer)
        assert all(_is_stored(x) for vec in reduced + kernel for x in vec.values())
        assert rows == _sparse(matrix)


# -- kernels at size: commutator-shaped systems ----------------------------------

# Like the matrix of [v, w] = 0: two +-1 entries per column, and most rows
# empty (each system draws its entries from a random minority of its rows).
_SIZED_RINGS = [(GF(3), 3, False), (QQ, None, False), (ZZ, None, True)]


def _commutator_shaped(rng, share):
    """A random system whose entries lie in ``share * ncols`` of its
    ``4 * ncols`` rows; the fewer such rows, the larger the kernel."""
    ncols = rng.randint(32, 64)
    nrows = 4 * ncols
    live = rng.sample(range(nrows), int(share * ncols))
    matrix = [[0] * ncols for _ in range(nrows)]
    for c in range(ncols):
        for r in rng.sample(live, 2):
            matrix[r][c] = rng.choice((1, -1))
    return matrix, ncols, [r for r in range(nrows) if r not in live]


@pytest.mark.parametrize("ring, p, integer", _SIZED_RINGS, ids=repr)
def test_back_substitution_at_size_matches_the_dense_oracle(ring, p, integer):
    rng = random.Random(40 + (p or 0) + integer)
    kernel_dims, consistent, inconsistent = set(), 0, 0
    for share in (0.5, 1, 2):
        matrix, ncols, empty = _commutator_shaped(rng, share)
        rows = _sparse(matrix)
        solvable = _matvec(rows, {c: rng.randint(-2, 2) for c in range(ncols)}, ring)
        unsolvable = list(solvable)
        unsolvable[rng.choice(empty)] = 1  # a row reading 0 = 1
        reduced, pivots = rref(rows, ncols, ring)
        assert (_dense(reduced, ncols), pivots) == dense_rref(matrix, ncols, p)
        kernel = _dense(nullspace(rows, ncols, ring), ncols)
        kernel_dims.add(len(kernel))
        for rhs in (solvable, unsolvable):
            sparse_rhs = {i: b for i, b in enumerate(rhs) if b}
            if integer:  # over Z, the kernel of the augmented matrix instead
                with pytest.raises(ToolkitError):
                    affine_solve(rows, sparse_rhs, ncols, ring)
                augmented = [row + [b] for row, b in zip(matrix, rhs)]
                sparse_augmented = _sparse(augmented)
                assert _dense(nullspace(sparse_augmented, ncols + 1, ring), ncols + 1) == \
                    dense_nullspace(augmented, ncols + 1, p, integer)
                assert sparse_augmented == _sparse(augmented)
                continue
            particular, affine_kernel, rank = affine_solve(rows, sparse_rhs, ncols, ring)
            got = (None if particular is None else _dense([particular], ncols)[0],
                   _dense(affine_kernel, ncols), rank)
            expected = dense_affine_solve(matrix, rhs, ncols, p)
            assert got == expected and kernel == expected[1]
            assert (particular is None) == (rhs is unsolvable)
            consistent += particular is not None
            inconsistent += particular is None
        if integer:
            assert kernel == dense_nullspace(matrix, ncols, p, integer)
        assert rows == _sparse(matrix)  # the inputs are left as they were
    assert len(kernel_dims) > 1 and min(kernel_dims) <= 1
    if not integer:
        assert consistent == inconsistent == 3


# -- singleton-heavy systems ----------------------------------------------------

# Most rows of the centralizer and certificate systems hold one entry, and
# clearing one such row's column from the others leaves more of them.  The
# matrices below hold values that each ring must first reduce: multiples of
# p over F_p, which read 0, and integral Fractions over Q; the sparse rows
# built from them also store explicit zeros, so a row may become a singleton,
# or empty, only once its entries are reduced.


def _chain(rng, ncols, ring):
    """Rows {c0: a}, {c0: b, c1: c}, {c1: d, c2: e}, ... over shuffled
    columns: each column's singleton appears only once the previous column
    is cleared."""
    cols = rng.sample(range(ncols), ncols)
    rows = [{cols[0]: _nonzero(ring, rng)}]
    rows += [{a: _nonzero(ring, rng), b: _nonzero(ring, rng)} for a, b in zip(cols, cols[1:])]
    return rows


def _nonzero(ring, rng):
    x = rng.choice((1, -1, 2, -2, 3))
    return x if not ring.prime or x % ring.prime else 1


def _singleton_heavy_cases(ring, rng):
    """(matrix, ncols, rhs) triples: mostly-singleton rows, chains, and
    chains whose zero right-hand sides leave a row reading 0 = b only once
    the chain is cleared."""
    cases = []
    for _ in range(25):  # most rows hold one entry
        ncols = rng.randint(2, 12)
        rows = []
        for _ in range(rng.randint(1, 2 * ncols)):
            width = 1 if rng.random() < 0.75 else rng.randint(2, 3)
            rows.append({c: _nonzero(ring, rng) for c in rng.sample(range(ncols), min(width, ncols))})
        rhs = [_nonzero(ring, rng) if rng.random() < 0.3 else 0 for _ in rows]
        cases.append((rows, ncols, rhs))
    for _ in range(15):  # chains, with extra rows and zero right-hand sides
        ncols = rng.randint(2, 10)
        rows = _chain(rng, rng.randint(1, ncols), ring)
        rows += [{c: _nonzero(ring, rng) for c in rng.sample(range(ncols), 2)}
                 for _ in range(rng.randint(0, 3))]
        rng.shuffle(rows)
        cases.append((rows, ncols, [0] * len(rows)))
    for _ in range(10):  # the chain forces its columns to 0, so the last row reads 0 = b
        ncols = rng.randint(2, 10)
        chain = _chain(rng, ncols, ring)
        last = {c: _nonzero(ring, rng) for c in rng.sample(range(ncols), rng.randint(1, 2))}
        rows = chain + [last]
        order = rng.sample(range(len(rows)), len(rows))
        rhs = [0] * len(chain) + [_nonzero(ring, rng)]
        cases.append(([rows[i] for i in order], ncols, [rhs[i] for i in order]))
    return [([[row.get(c, 0) for c in range(ncols)] for row in rows], ncols, rhs)
            for rows, ncols, rhs in cases]


def _unreduced(matrix, ring, rng):
    """Sparse rows of ``matrix`` in forms the elimination must reduce: over
    F_p each entry may gain a multiple of p, over Q become a Fraction, and a
    zero is sometimes stored."""
    p = ring.prime
    rows = []
    for dense_row in matrix:
        row = {}
        for c, x in enumerate(dense_row):
            if p and rng.random() < 0.4:
                x += rng.choice((1, 2, -1)) * p
            elif ring is QQ and rng.random() < 0.5:
                x = Fraction(2 * x, 2)
            if x or rng.random() < 0.2:
                row[c] = x
        rows.append(row)
    return rows


@pytest.mark.parametrize("ring, p, integer", _RINGS, ids=repr)
def test_singleton_heavy_systems_match_the_dense_oracle(ring, p, integer):
    rng = random.Random(60 + (p or 0) + integer)
    outcomes = []
    for matrix, ncols, rhs in _singleton_heavy_cases(ring, rng):
        for rows in (_sparse(matrix), _unreduced(matrix, ring, rng)):
            outcomes.append(_check_against_the_oracle(rows, matrix, ncols, rhs, ring, p, integer))
    if not integer:
        assert outcomes.count(True) and outcomes.count(False) >= 20


def test_singleton_rows_reduce_to_one_entry_only_after_their_values_are_reduced():
    # over GF(3), 3 and -6 read 0, so the first row holds one entry, the
    # second none, and the third clears to 0 = 1 once columns 0 and 1 go
    F = GF(3)
    rows = [{0: 4, 1: 3}, {0: 0, 2: -6}, {0: 2, 1: 1}]
    assert rref(rows, 3, F) == ([{0: 1}, {1: 1}], [0, 1])
    assert nullspace(rows, 3, F) == [{2: 1}]
    assert affine_solve(rows, {0: 3, 2: 0}, 3, F) == ({}, [{2: 1}], 2)
    assert affine_solve(rows + [{1: 5}], {3: 1}, 3, F) == (None, [{2: 1}], 2)


@pytest.mark.parametrize("ring", [GF(5), QQ, ZZ], ids=repr)
def test_rref_keeps_entries_at_and_past_ncols_in_the_tail(ring):
    # columns 3 and 4 lie past ncols = 3: the row {3: 4} holds one entry
    # there but is no pivot, so it neither clears column 3 from the first row
    # nor appears; {4: 2} stays in the tail of column 1's row
    rows = [{0: 1, 3: 2}, {3: 4}, {1: 1, 4: 2}, {1: 1}]
    reduced, pivots = rref(rows, 3, ring)
    assert pivots == [0, 1]
    assert reduced == [{0: 1, 3: 2}, {1: 1}]
    reduced, pivots = rref(rows[:3], 3, ring)
    assert reduced == [{0: 1, 3: 2}, {1: 1, 4: 2}] and pivots == [0, 1]


# -- one-entry rows, by hand ----------------------------------------------------

# The elimination takes a row that reduces to one entry, in a column below
# ncols, as that column's pivot.  Each system below is worked by hand, pinned,
# and also checked against the dense oracle; the rows hold plain ints and
# Fractions only.


@pytest.mark.parametrize("ring, p, integer, zero", [
    (GF(3), 3, False, 3), (GF(3), 3, False, -6), (QQ, None, False, Fraction(0)),
    (ZZ, None, True, Fraction(0)),
], ids=repr)
def test_a_one_entry_row_whose_value_reads_zero_is_no_pivot(ring, p, integer, zero):
    # {0: zero} and {2: zero} are empty once reduced: columns 0 and 2 stay
    # free, and the right-hand side 1 on the first row reads 0 = 1
    rows = [{0: zero}, {1: 2}, {2: zero}]
    assert rref(rows, 3, ring) == ([{1: 1}], [1])
    assert nullspace(rows, 3, ring) == [{0: 1}, {2: 1}]
    assert _check_against_the_oracle(rows, _dense(rows, 3), 3, [1, 0, 0], ring, p,
                                     integer) is (None if integer else False)


@pytest.mark.parametrize("ring, p, integer, row", [
    (GF(3), 3, False, {0: 6, 1: 2}), (GF(5), 5, False, {0: -5, 1: 7}),
    (QQ, None, False, {0: Fraction(0), 1: Fraction(4, 2)}), (ZZ, None, True, {0: Fraction(0), 1: 2}),
], ids=repr)
def test_a_two_entry_row_that_reduces_to_one_entry_is_its_columns_pivot(ring, p, integer, row):
    # the second row reads 2 * x1, so x1 is pivot 1 with an empty tail; the
    # first row loses column 1 and leaves x0 + x2 = 0
    rows = [{0: 1, 1: 1, 2: 1}, row]
    assert rref(rows, 3, ring) == ([{0: 1, 2: 1}, {1: 1}], [0, 1])
    assert nullspace(rows, 3, ring) == [{0: 1, 2: p - 1 if p else -1}]
    _check_against_the_oracle(rows, _dense(rows, 3), 3, [1, 2], ring, p, integer)
    if not integer:
        assert affine_solve(rows, {0: 1, 1: 2}, 3, ring)[0] == {1: 1}


@pytest.mark.parametrize("ring, p, integer", [
    (GF(3), 3, False), (GF(5), 5, False), (QQ, None, False), (ZZ, None, True),
], ids=repr)
def test_two_one_entry_rows_in_one_column_give_one_pivot(ring, p, integer):
    # {0: 2} and {0: -1} both hold column 0 alone; clearing it leaves {1: 1},
    # and clearing that leaves {2: 1}: three pivots, each taken once
    rows = [{0: 2}, {0: -1}, {0: 1, 1: 1}, {1: 1, 2: 1}, {0: -1}]
    assert rref(rows, 3, ring) == ([{0: 1}, {1: 1}, {2: 1}], [0, 1, 2])
    assert nullspace(rows, 4, ring) == [{3: 1}]
    for rhs in ([0, 0, 1, 1, 0], [0, 1, 0, 0, 1]):
        _check_against_the_oracle(rows, _dense(rows, 3), 3, rhs, ring, p, integer)
    if not integer:
        particular, kernel, rank = affine_solve(rows, {2: 1, 3: 1}, 3, ring)
        assert (particular, kernel, rank) == ({1: 1}, [], 3)


@pytest.mark.parametrize("ring, p", [(GF(5), 5), (QQ, None), (ZZ, None)], ids=repr)
def test_a_peel_chain_ending_past_ncols_keeps_that_entry_in_the_tail(ring, p):
    # clearing column 0 leaves {1: 1}, and clearing column 1 leaves {3: 2},
    # whose one entry lies past ncols = 3: it is no pivot, so column 3 stays
    # in the tail of column 2's row
    rows = [{0: 1}, {0: 2, 1: 1}, {1: 1, 3: 2}, {2: 1, 3: 1}]
    reduced, pivots = rref(rows, 3, ring)
    assert (reduced, pivots) == ([{0: 1}, {1: 1}, {2: 1, 3: 1}], [0, 1, 2])
    assert (_dense(reduced, 4), pivots) == dense_rref(_dense(rows, 4), 3, p)
    assert rref(rows, 4, ring) == ([{0: 1}, {1: 1}, {2: 1}, {3: 1}], [0, 1, 2, 3])


@pytest.mark.parametrize("ring, p", [(GF(3), 3), (GF(5), 5)], ids=repr)
def test_a_back_substitution_sum_of_p_stores_no_zero(ring, p):
    # x1 = a and x2 = b with a + b = p, so x0 = -(a + b) reads 0 and is not
    # stored in the particular solution
    a, b = 1, p - 1
    rows = [{0: 1, 1: 1, 2: 1}, {1: 1}, {2: 1}]
    particular, kernel, rank = affine_solve(rows, {1: a, 2: b}, 3, ring)
    assert (particular, kernel, rank) == ({1: a, 2: b}, [], 3)
    # the same sum in a kernel vector: x3 = 1 gives x1 = a, x2 = b, x0 = 0
    augmented = [{0: 1, 1: 1, 2: 1}, {1: 1, 3: -a}, {2: 1, 3: -b}]
    kernel = nullspace(augmented, 4, ring)
    assert kernel == [{1: 1, 2: b * pow(a, -1, p) % p, 3: pow(a, -1, p) % p}]
    assert _check_against_the_oracle(rows, _dense(rows, 3), 3, [0, a, b], ring, p, False)


# -- kernels of the stacked Steenrod systems ------------------------------------

# The primitives of H_*(Mxi; F_p) under the right action are the words killed
# by every Sq^(2^k), or P^(p^k): the kernel of those matrices stacked.  A
# splitting into shifted copies of H_*BP (or of A_* on the real profile)
# makes its dimension the multiplicity in each degree.


def _primitives_system(profile, p, degree):
    """(rows, ncols) of the stacked generator matrices on the words of ``degree``."""
    algebra = FreeAlgebra(profile, GF(p))
    words = algebra._keys_of_degree(degree)
    kind = "Sq" if p == 2 else "P"
    rows = []
    k = 1
    while MilnorOp(p, kind, k).degree <= degree:
        op = MilnorOp(p, kind, k)
        rows += matrix_of(_acting(algebra, op), words, algebra._keys_of_degree(degree - op.degree))
        k *= p
    return rows, len(words)


def _real_multiplicities(top):
    """F_2<z_1, z_2, ...> divided by A_* = F_2[xi_1, xi_2, ...], deg xi_k = 2^k - 1."""
    xi = [2 ** k - 1 for k in range(1, top.bit_length() + 1)]
    return series_divide(series_free_assoc(range(1, top + 1), top),
                         series_graded_algebra(xi, (), top)).dims


@pytest.mark.parametrize("profile, p, top, step", [
    (COMPLEX, 2, 16, 2), (COMPLEX, 3, 18, 2), (REAL, 2, 9, 1),
], ids=["complex-2", "complex-3", "real-2"])
def test_primitive_kernels_match_the_oracle_and_the_splitting(profile, p, top, step):
    ring = GF(p)
    if profile is REAL:
        expected = _real_multiplicities(top)
    else:
        expected = splitting_multiplicities(p, top).dims
    dims = []
    for degree in range(0, top + 1, step):
        rows, ncols = _primitives_system(profile, p, degree)
        kernel = nullspace(rows, ncols, ring)
        assert _dense(kernel, ncols) == dense_nullspace(_dense(rows, ncols), ncols, p), degree
        assert affine_solve(rows, {}, ncols, ring) == ({}, kernel, ncols - len(kernel))
        dims.append(len(kernel))
    assert dims == list(expected[::step])
    assert max(dims) > 50


# sha256 of repr(nullspace(...)) in degree 24, which covers the values and the
# order of the vectors and of their entries; computed by another route, one
# back-substitution per free column and then an rref of those vectors
_DEGREE_24_KERNELS = {
    2: (889, "89fddc99c2e5e0be6d246e5c7f1ef9d479997a0892ba3e8c87d7026d0e838b2f"),
    3: (1530, "3b1fe8168bf192b5be490b8f0a7e4ec57ee8b5edc03e81214c0a91b2fb7c28f8"),
}


@pytest.mark.parametrize("p", sorted(_DEGREE_24_KERNELS))
def test_degree_24_primitive_kernels_are_pinned(p):
    rows, ncols = _primitives_system(COMPLEX, p, 24)
    kernel = nullspace(rows, ncols, GF(p))
    assert ncols == 2048
    assert (len(kernel), hashlib.sha256(repr(kernel).encode()).hexdigest()) == _DEGREE_24_KERNELS[p]


def _count_echelon_calls(monkeypatch):
    """Record each call of ``linalg._echelon``, and refuse any of ``rref``."""
    calls = []
    echelon = linalg._echelon

    def counted(*args):
        calls.append(args[1])
        return echelon(*args)

    def refused(*args):
        raise AssertionError("rref called")

    monkeypatch.setattr(linalg, "_echelon", counted)
    monkeypatch.setattr(linalg, "rref", refused)
    return calls


def test_nullspace_and_affine_solve_eliminate_once_per_route(monkeypatch):
    calls = _count_echelon_calls(monkeypatch)
    F = GF(5)
    rows = [{0: 1, 1: 2, 2: 3}, {1: 1, 2: 4}]
    assert len(nullspace(rows, 3, F)) == 1
    assert calls == [range(2, -1, -1)]  # one elimination, last column first
    calls.clear()
    assert affine_solve(rows + [{2: 1}], {0: 1}, 3, F) == ({0: 1}, [], 3)
    assert calls == [range(4)]  # full rank: no kernel to find
    calls.clear()
    particular, kernel, rank = affine_solve(rows, {0: 1}, 3, F)
    assert (particular, rank, len(kernel)) == ({0: 1}, 2, 1)
    assert calls == [range(4), range(2, -1, -1)]
    calls.clear()
    assert affine_solve([{0: 1}, {0: 2}], {0: 1}, 2, F) == (None, [{1: 1}], 1)
    assert len(calls) == 2
