"""Exact dense linear algebra used by the centralizer and certificate solvers.

Matrices are lists of rows; a row is a list of scalar values of the ambient
:class:`~ncfgl.scalars.ScalarRing`.  One elimination, :func:`rref`, serves
every ring: F_p in residues, Z and Q in Fractions.  Everything is
deterministic: reduced row echelon form is unique, kernels are presented in
reduced echelon form with respect to the given column order, and integer-mode
kernels are primitive integer vectors with positive leading entry.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import UnsupportedInputError
from .scalars import ScalarRing


def rref(rows, ncols: int, ring: ScalarRing):
    """Reduced row echelon form; returns (nonzero rows, pivot column list).

    One Gauss-Jordan elimination serves every ring.  Over F_p the entries are
    residues and each update is reduced mod p, which is the only step that
    depends on the ring; over Z and Q they are Fractions.  Only the nonzero
    columns of a pivot row are subtracted from the other rows.
    """
    p = ring.prime
    if p:
        rows = [[x % p for x in row] for row in rows]
    else:
        rows = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        for i in range(r, len(rows)):
            if rows[i][c]:
                break
        else:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        lead = rows[r]
        inv = pow(lead[c], -1, p) if p else 1 / lead[c]
        if inv != 1:
            lead = rows[r] = [x * inv % p for x in lead] if p else [x * inv for x in lead]
        nonzero = [j for j in range(c, ncols) if lead[j]]
        for i, row in enumerate(rows):
            f = row[c]
            if not f or i == r:
                continue
            if p:
                for j in nonzero:
                    row[j] = (row[j] - f * lead[j]) % p
            else:
                for j in nonzero:
                    row[j] -= f * lead[j]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def _primitive(vec):
    """Scale a rational vector to a primitive integer vector, leading entry > 0."""
    denom = lcm(*(x.denominator for x in vec))
    ints = [int(x * denom) for x in vec]
    g = gcd(*ints)
    if next(x for x in ints if x) < 0:
        g = -g
    return [x // g for x in ints]


def _kernel(reduced, pivots, ncols, ring):
    """Canonical kernel basis of a reduced row echelon form in ``ncols``
    columns, from one vector per free column."""
    free_cols = [c for c in range(ncols) if c not in set(pivots)]
    basis = []
    for f in free_cols:
        vec = [0] * ncols
        vec[f] = 1
        for r, c in enumerate(pivots):
            vec[c] = -reduced[r][f]
        basis.append(vec)
    return reduced_basis(basis, ncols, ring)


def nullspace(rows, ncols: int, ring: ScalarRing):
    """Kernel basis of the linear map given by ``rows`` acting on column vectors.

    The basis is returned in reduced echelon form with respect to the column
    order (so it is canonical).  In integer mode the kernel is computed over Q
    and each vector is returned primitive.
    """
    return _kernel(*rref(rows, ncols, ring), ncols, ring)


def reduced_basis(vectors, ncols: int, ring: ScalarRing):
    """Canonical presentation of a span: RREF rows (primitive ints over Z)."""
    if not vectors:
        return []
    reduced, _ = rref(vectors, ncols, ring)
    if ring.mode == "integer":
        return [_primitive(v) for v in reduced]
    return reduced


def affine_solve(rows, rhs, ncols: int, ring: ScalarRing):
    """Solve ``rows * x = rhs`` over a field.

    Returns ``(particular, kernel_basis, rank)`` where ``particular`` is None
    when the system is inconsistent.  The particular solution sets every free
    variable to zero.  Over Z a solution may not exist where one over Q does,
    so the integers are refused.
    """
    if not ring.is_field:
        raise UnsupportedInputError(f"affine_solve needs a field, got {ring!r}")
    augmented = [list(r) + [b] for r, b in zip(rows, rhs)]
    reduced, pivots = rref(augmented, ncols + 1, ring)
    consistent = not pivots or pivots[-1] != ncols
    if not consistent:
        pivots = pivots[:-1]
    kernel = _kernel(reduced, pivots, ncols, ring)  # the rhs column is never free
    if not consistent:
        return None, kernel, len(pivots)
    particular = [ring.zero] * ncols
    for r, c in enumerate(pivots):
        particular[c] = reduced[r][ncols]
    return particular, kernel, len(pivots)
