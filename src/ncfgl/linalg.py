"""Exact sparse linear algebra used by the centralizer and certificate solvers.

A row, and any vector, is a dict ``{column: nonzero value}`` over the scalars
of the ambient :class:`~ncfgl.scalars.ScalarRing`; a matrix is a list of such
rows, and a column absent from a row holds zero.  The systems solved here are
a few percent dense at most, so no zero is ever stored or scanned.

One elimination, :func:`rref`, serves every ring: F_p in residues, and Z and Q
in the stored form of :func:`~ncfgl.scalars.stored_rational`, an ``int`` while
an entry is integral and a ``Fraction`` otherwise, so that the +-1 entries of
the commutator systems run on int arithmetic.  It picks each pivot as the
shortest row holding the column, to limit fill-in.  The reduced row echelon
form of a matrix is unique, so that choice cannot change any result: kernels
are presented in reduced echelon form with respect to the given column
order, and integer-mode kernels are primitive integer vectors with positive
leading entry.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import UnsupportedInputError
from .scalars import ScalarRing, stored_rational


def rref(rows, ncols: int, ring: ScalarRing):
    """Reduced row echelon form of dict rows in columns ``0 .. ncols - 1``.

    Returns the nonzero reduced rows, in pivot order and each with its
    columns in increasing order, and the list of pivot columns.  The input
    rows are not modified.  A column -> rows index lets each step touch only
    the rows that hold the pivot column; cancelled entries are dropped.
    Over F_p the entries are residues; over Z and Q they are rationals in
    stored form (module docstring), in the input and the output alike.
    """
    p = ring.prime
    if p:
        rows = [{c: x % p for c, x in row.items() if x % p} for row in rows]
    else:
        rows = [{c: x if x.__class__ is int else stored_rational(x) for c, x in row.items() if x}
                for row in rows]
    holding = {}
    for i, row in enumerate(rows):
        for c in row:
            holding.setdefault(c, set()).add(i)
    pivots, order, chosen = [], [], set()
    for c in range(ncols):
        holders = holding.get(c, set())
        shortest = min(((len(rows[i]), i) for i in holders if i not in chosen), default=None)
        if shortest is None:
            continue
        r = shortest[1]
        lead = rows[r]
        if lead[c] != 1:
            inv = pow(lead[c], -1, p) if p else 1 / Fraction(lead[c])
            for j, x in lead.items():
                lead[j] = x * inv % p if p else stored_rational(x * inv)
        for i in holders - {r}:
            row = rows[i]
            f = row[c]
            for j, x in lead.items():
                v = row.get(j, 0) - f * x
                if p:
                    v %= p
                elif v.__class__ is not int:
                    v = stored_rational(v)
                if v:
                    if j not in row:
                        holding.setdefault(j, set()).add(i)
                    row[j] = v
                else:
                    del row[j]
                    holding[j].discard(i)
        pivots.append(c)
        order.append(r)
        chosen.add(r)
    return [dict(sorted(rows[r].items())) for r in order], pivots


def _primitive(vec):
    """Scale a rational vector to a primitive integer vector.

    Every caller passes an :func:`rref` row, whose leading entry is 1, so
    scaling by the positive lcm and gcd keeps that entry positive.
    """
    denom = lcm(*(x.denominator for x in vec.values()))
    ints = {c: int(x * denom) for c, x in vec.items()}
    g = gcd(*ints.values())
    return {c: x // g for c, x in ints.items()}


def _kernel(reduced, pivots, ncols, ring):
    """Canonical kernel basis of a reduced row echelon form in ``ncols``
    columns, from one vector per free column."""
    entries = {}  # free column -> [(pivot column, -entry)], pivots increasing
    for row, c in zip(reduced, pivots):
        for j, x in row.items():
            if j != c and j < ncols:  # column ncols is affine_solve's right-hand side
                entries.setdefault(j, []).append((c, -x))
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f not in pivot_set:
            vec = dict(entries.get(f, ()))
            vec[f] = 1
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
    """Solve ``rows * x = rhs`` over a field; ``rhs`` is a dict {row: value}.

    Returns ``(particular, kernel_basis, rank)`` where ``particular`` is None
    when the system is inconsistent.  The particular solution sets every free
    variable to zero.  Over Z a solution may not exist where one over Q does,
    so the integers are refused.
    """
    if not ring.is_field:
        raise UnsupportedInputError(f"affine_solve needs a field, got {ring!r}")
    augmented = [{**row, ncols: rhs[i]} if i in rhs else row for i, row in enumerate(rows)]
    reduced, pivots = rref(augmented, ncols + 1, ring)
    consistent = not pivots or pivots[-1] != ncols
    if not consistent:
        pivots = pivots[:-1]
    kernel = _kernel(reduced, pivots, ncols, ring)  # the rhs column is never free
    if not consistent:
        return None, kernel, len(pivots)
    particular = {c: row[ncols] for row, c in zip(reduced, pivots) if ncols in row}
    return particular, kernel, len(pivots)
