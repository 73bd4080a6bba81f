import random
from fractions import Fraction

import pytest

from ncfgl import GF, QQ, ZZ, ToolkitError
from ncfgl.linalg import affine_solve, nullspace, rref


def _matvec(rows, vec, ring):
    out = []
    for row in rows:
        acc = ring.zero
        for a, x in zip(row, vec):
            acc = ring.add(acc, ring.mul(a, x))
        out.append(acc)
    return out


def test_rref_hand_example_fp():
    F = GF(5)
    rows = [[1, 2, 3], [2, 4, 1], [0, 0, 4]]
    reduced, pivots = rref(rows, 3, F)
    assert pivots == [0, 2]
    assert reduced == [[1, 2, 0], [0, 0, 1]]


def test_nullspace_fp_kernel_vectors_annihilate():
    F = GF(3)
    rng = random.Random(7)
    for _ in range(25):
        rows = [[rng.randrange(3) for _ in range(6)] for _ in range(4)]
        for vec in nullspace(rows, 6, F):
            assert _matvec(rows, vec, F) == [0, 0, 0, 0]


def test_nullspace_rational():
    rows = [[Fraction(1), Fraction(1), Fraction(0)]]
    basis = nullspace(rows, 3, QQ)
    assert len(basis) == 2
    for vec in basis:
        assert _matvec(rows, vec, QQ) == [0]


def test_nullspace_integer_is_primitive():
    rows = [[2, 4]]
    basis = nullspace(rows, 2, ZZ)
    assert basis == [[2, -1]]


def test_affine_solve_consistent():
    F = GF(5)
    rows = [[1, 1], [0, 1]]
    particular, kernel, rank = affine_solve(rows, [3, 4], 2, F)
    assert particular == [4, 4]
    assert kernel == []
    assert rank == 2


def test_affine_solve_inconsistent():
    F = GF(3)
    rows = [[1, 1], [2, 2]]
    particular, kernel, rank = affine_solve(rows, [1, 0], 2, F)
    assert particular is None
    assert rank == 1  # rank of the coefficient matrix, augmented pivot excluded
    assert kernel == [[1, 2]]  # x + y = const solutions differ by (1, -1)


def test_affine_solve_underdetermined():
    F = GF(7)
    rows = [[1, 2, 3]]
    particular, kernel, rank = affine_solve(rows, [4], 3, F)
    assert particular is not None
    assert _matvec(rows, particular, F) == [4]
    assert len(kernel) == 2
    for vec in kernel:
        assert _matvec(rows, vec, F) == [0]


def test_full_rank_unique_solution_fp():
    F = GF(2)
    rows = [[1]]
    particular, kernel, rank = affine_solve(rows, [1], 1, F)
    assert particular == [1] and kernel == [] and rank == 1


def test_affine_solve_refuses_the_integers():
    # over Z, 2x = 1 has no solution although it has one over Q
    with pytest.raises(ToolkitError):
        affine_solve([[2]], [1], 1, ZZ)
