"""Exact sparse linear algebra used by the centralizer and certificate solvers.

A row, and any vector, is a dict ``{column: value}`` over the scalars of the
ambient :class:`~ncfgl.scalars.ScalarRing`; a matrix is a list of such rows,
and a column absent from a row holds zero.  The systems solved here are a few
percent dense at most, so no result stores a zero, nor does the elimination.

One forward elimination, :func:`_echelon`, serves every ring: F_p in
residues, and Z and Q in the stored form of
:func:`~ncfgl.scalars.stored_rational`, an ``int`` while an entry is integral
and a ``Fraction`` otherwise, so that the +-1 entries of the commutator
systems run on int arithmetic; a pivot of -1 is inverted as the int -1, and
only a pivot other than +-1 needs :mod:`fractions`.  It reduces every entry
it reads, so input rows may hold zeros and unreduced values, and drops the
rows left empty.  It takes one-entry rows first, as structured Gaussian
elimination does (LaMacchia and Odlyzko, CRYPTO '90): most rows of the
commutator systems hold one entry, each its column's pivot with no fill-in,
unless the column lies at or past ``ncols``, where no pivot is ever taken.
Such a row is peeled as it is read, and never stored: only its column is
queued, and clearing that column may leave further one-entry rows to peel.
Over the other columns it picks each pivot as the shortest remaining row
holding the column, to limit fill-in, and clears the pivot column only from
the rows not yet chosen, so a chosen row is never read again.
:func:`nullspace` and :func:`affine_solve` read their solutions off the
echelon rows by back-substitution, last pivot first; :func:`rref` adds one
upward pass that clears each pivot column from the rows above.  The reduced
row echelon form of a matrix is unique, and so is the solution that fixes
every free variable, so the pivot choice cannot change any result: kernels
are presented in reduced echelon form with respect to the given column
order, and integer-mode kernels are primitive integer vectors with positive
leading entry.

:func:`matrix_of` writes a linear map between spans of words as such a
matrix: one row per target word, one column per source word.  It reads the
map as a stored word in and unreduced ``(stored word, coefficient)`` pairs
out, and sums the pairs into the rows, which the elimination reduces as it
reads them, zeros and all; so building a row reduces nothing, re-keys no
word and wraps no element.  It only hashes the words, so this module needs
nothing of the algebra they come from.
"""

from __future__ import annotations

from math import gcd, lcm

from .errors import UnsupportedInputError
from .scalars import ScalarRing, fraction_type, stored_rational


def matrix_of(term_map, source_words, target_words) -> list:
    """Dict rows of the matrix of a linear map between spans of words.

    ``term_map`` takes a stored word and returns its image as an iterable of
    unreduced ``(stored word, coefficient)`` pairs, whose words must all lie
    in ``target_words``; column j holds the sums of the pairs of
    ``term_map(source_words[j])``, and row i belongs to ``target_words[i]``
    and maps each column to its sum, which may be zero or unreduced, as
    :func:`_echelon` reduces what it reads.  Both word lists hold stored
    words (``FreeAlgebra._keys_of_degree``), so no word is re-keyed or
    wrapped.
    """
    rows = {word: {} for word in target_words}
    for col, word in enumerate(source_words):
        for target, coeff in term_map(word):
            row = rows[target]
            row[col] = row.get(col, 0) + coeff
    return list(rows.values())


def _stored(value, p):
    """An entry in the form its ring stores: a residue mod ``p`` over F_p,
    else the stored form of the rational (module docstring)."""
    if p:
        return value % p
    return value if value.__class__ is int else stored_rational(value)


def _subtract(row, f, lead, p) -> None:
    """``row -= f * lead`` in place, dropping the entries that cancel."""
    for j, x in lead.items():
        v = _stored(row.get(j, 0) - f * x, p)
        if v:
            row[j] = v
        else:
            del row[j]


def _echelon(rows, ncols: int, ring: ScalarRing):
    """Forward elimination of dict rows in columns ``0 .. ncols - 1``.

    Returns one ``(pivot column, tail)`` pair per pivot, in increasing
    column order: the echelon row is 1 at its pivot column, ``tail`` right
    of it, and zero left of it.  The input rows are not modified.  A column
    -> rows index over the rows not yet chosen lets each step touch only the
    rows that hold the pivot column; cancelled entries are dropped.

    One-entry rows are peeled as they are read: a row that reduces to one
    entry, in a column below ``ncols``, only queues that column, and is
    never stored or indexed; a row whose one entry lies at or past ``ncols``
    can never be a pivot and is dropped.  Each queued column that is not yet
    a pivot becomes one with an empty tail, is deleted from the stored rows
    that hold it, and a holder left with one entry below ``ncols`` queues its
    column in turn.  A one-entry row is the shortest row holding its column,
    so this adds no pivot rule.
    """
    p = ring.prime
    work = []  # the stored rows, each holding two entries or more
    holding = {}  # column -> indices of the stored rows that hold it
    queue = []  # the columns of one-entry rows, to be peeled in order
    # The entry rule of _stored and the update of _subtract are written out
    # in this function, as calls cost a certificate round's linear algebra
    # 5-15 %; so is the copy of each row, as a dict comprehension builds a
    # function frame per row on Python 3.11; and most rows of a commutator
    # system are empty, so they are skipped before any copy.
    for row in rows:
        if not row:
            continue
        kept = {}
        if p:
            for c, x in row.items():
                x %= p
                if x:
                    kept[c] = x
        else:
            for c, x in row.items():
                if x:
                    kept[c] = x if x.__class__ is int else stored_rational(x)
        if len(kept) > 1:
            i = len(work)
            work.append(kept)
            for c in kept:
                holding.setdefault(c, set()).add(i)
        elif kept:
            (c,) = kept
            if c < ncols:
                queue.append(c)
    tails = {}  # pivot column -> the tail of its echelon row
    for c in queue:
        if c in tails:
            continue
        tails[c] = {}
        for h in holding.pop(c, ()):
            held = work[h]
            del held[c]
            if len(held) == 1:
                (j,) = held
                if j < ncols:
                    queue.append(j)
    for c in range(ncols):
        holders = holding.pop(c, None)
        if not holders:
            continue
        r = min((len(work[i]), i) for i in holders)[1]
        holders.discard(r)
        lead = work[r]
        pivot = lead.pop(c)
        for j in lead:
            holding[j].discard(r)
        if pivot != 1:
            # a -1 pivot, common in the commutator systems, is its own int
            # inverse over Z and Q
            if p:
                inv = pow(pivot, -1, p)
            else:
                inv = -1 if pivot == -1 else 1 / fraction_type()(pivot)
            lead = {j: _stored(x * inv, p) for j, x in lead.items()}
        for i in holders:  # _subtract, with the index kept beside it
            row = work[i]
            f = row.pop(c)
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
        tails[c] = lead
    return sorted(tails.items())


def _back_substitute(echelon, values: dict, p) -> dict:
    """Complete ``values``, which fixes every free variable that is not
    zero, to the solution of the echelon rows ``x_c + tail . x = 0``,
    solving the pivot variables last pivot first."""
    for c, tail in reversed(echelon):
        v = 0
        for j, x in tail.items():
            if j in values:
                v -= x * values[j]
        if v:  # an empty tail, as every peeled pivot has, sums to 0
            v = _stored(v, p)
            if v:
                values[c] = v
    return values


def _kernel_basis(echelon, ncols: int, ring: ScalarRing):
    """Canonical kernel basis of echelon rows: one vector per free column
    below ``ncols``, that variable 1 and the other free ones 0."""
    pivots = {c for c, _ in echelon}
    basis = [_back_substitute(echelon, {f: 1}, ring.prime) for f in range(ncols) if f not in pivots]
    return reduced_basis(basis, ncols, ring)


def rref(rows, ncols: int, ring: ScalarRing):
    """Reduced row echelon form of dict rows in columns ``0 .. ncols - 1``.

    Returns the nonzero reduced rows, in pivot order and each with its
    columns in increasing order, and the list of pivot columns.  The input
    rows are not modified.  Over F_p the entries are residues; over Z and Q
    they are rationals in stored form (module docstring), in the input and
    the output alike.  The upward pass takes the echelon rows last pivot
    first and clears from each the later pivot columns it holds, with the
    rows below it already reduced.
    """
    p = ring.prime
    echelon = _echelon(rows, ncols, ring)
    reduced = {}  # pivot column -> its reduced row, without the pivot's 1
    for c, tail in reversed(echelon):
        row = dict(tail)
        for k in [k for k in tail if k in reduced]:
            _subtract(row, row.pop(k), reduced[k], p)
        reduced[c] = row
    pivots = [c for c, _ in echelon]
    return [dict(sorted({c: 1, **reduced[c]}.items())) for c in pivots], pivots


def _primitive(vec):
    """Scale a rational vector to a primitive integer vector.

    Every caller passes an :func:`rref` row, whose leading entry is 1, so
    scaling by the positive lcm and gcd keeps that entry positive.
    """
    denom = lcm(*(x.denominator for x in vec.values()))
    ints = {c: int(x * denom) for c, x in vec.items()}
    g = gcd(*ints.values())
    return {c: x // g for c, x in ints.items()}


def nullspace(rows, ncols: int, ring: ScalarRing):
    """Kernel basis of the linear map given by ``rows`` acting on column vectors.

    The basis is returned in reduced echelon form with respect to the column
    order (so it is canonical).  In integer mode the kernel is computed over Q
    and each vector is returned primitive.
    """
    return _kernel_basis(_echelon(rows, ncols, ring), ncols, ring)


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
    variable to zero: it is the kernel vector of the augmented matrix that is
    -1 in the right-hand side's column ``ncols``.  Over Z a solution may not
    exist where one over Q does, so the integers are refused.
    """
    if not ring.is_field:
        raise UnsupportedInputError(f"affine_solve needs a field, got {ring!r}")
    augmented = [{**row, ncols: rhs[i]} if i in rhs else row for i, row in enumerate(rows)]
    echelon = _echelon(augmented, ncols + 1, ring)
    particular = None
    if echelon and echelon[-1][0] == ncols:  # a row reading 0 = 1
        echelon.pop()
    else:
        solution = _back_substitute(echelon, {ncols: -1}, ring.prime)
        particular = {c: x for c, x in sorted(solution.items()) if c != ncols}
    return particular, _kernel_basis(echelon, ncols, ring), len(echelon)
