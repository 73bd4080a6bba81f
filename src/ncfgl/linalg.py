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
rows left empty.  It pivots in the columns of a ``range``, in that range's
order, and never in a column outside it.  It takes one-entry rows first, as
structured Gaussian elimination does (LaMacchia and Odlyzko, CRYPTO '90):
most rows of the commutator systems hold one entry, each its column's pivot
with no fill-in.  Such a row is peeled as it is read, and never stored: only
its column is queued, and clearing that column may leave further one-entry
rows to peel.  Over the other columns it picks each pivot as the shortest
remaining row holding the column, to limit fill-in, and clears the pivot
column only from the rows not yet chosen, so a chosen row is never read
again.  One upward pass, :func:`_reduced`, then clears each pivot column
from the rows taken before it, and every result is read off those reduced
rows: :func:`rref` sorts them; :func:`nullspace` eliminates the columns
last to first, so each free column ``f`` gives its kernel vector directly,
1 at ``f`` and minus ``f``'s entry at each pivot, all of which lie after
``f``; :func:`affine_solve` reads its particular solution off the
right-hand side's column.  The reduced row echelon form of a matrix is
unique, so the pivot choice cannot change any result: kernels are
presented in reduced echelon form with respect to the given column order,
and integer-mode kernels are primitive integer vectors with positive
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

from .errors import ShapeError, UnsupportedInputError
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


def _echelon(rows, columns: range, ring: ScalarRing) -> dict:
    """Forward elimination of dict rows, pivoting in the columns of ``columns``.

    Returns ``{pivot column: tail}`` in the order the pivots were taken: the
    echelon row is 1 at its pivot column, ``tail`` beside it, and zero in
    every column pivoted before it, so each pivot column a tail holds was
    taken later.  The main pass takes the columns in ``columns``' own order.
    The input rows are not modified.  A column -> rows index over the rows
    not yet chosen lets each step touch only the rows that hold the pivot
    column; cancelled entries are dropped.

    One-entry rows are peeled as they are read, so their pivots come first:
    a row that reduces to one entry, in a column of ``columns``, only queues
    that column, and is never stored or indexed; a row whose one entry lies
    outside ``columns`` can never be a pivot and is dropped.  Each queued
    column that is not yet a pivot becomes one with an empty tail, is
    deleted from the stored rows that hold it, and a holder left with one
    entry in ``columns`` queues its column in turn.  A one-entry row is the
    shortest row holding its column, so this adds no pivot rule.
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
            if c in columns:
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
                if j in columns:
                    queue.append(j)
    for c in columns:
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
    return tails


def _reduced(tails: dict, p) -> dict:
    """The reduced rows of :func:`_echelon`'s ``{pivot: tail}``, in place.

    Walks the pivots in the reverse of the order taken and clears from each
    tail the pivot columns it holds; those were taken later, so their rows
    are already reduced, and subtracting them brings in no pivot column.
    The empty tails of peeled pivots are skipped.  Returns ``tails``.
    """
    for tail in reversed(tails.values()):
        if tail:
            for k in [k for k in tail if k in tails]:
                _subtract(tail, tail.pop(k), tails[k], p)
    return tails


def rref(rows, ncols: int, ring: ScalarRing):
    """Reduced row echelon form of dict rows in columns ``0 .. ncols - 1``.

    Returns the nonzero reduced rows, in pivot order and each with its
    columns in increasing order, and the list of pivot columns.  The input
    rows are not modified.  Over F_p the entries are residues; over Z and Q
    they are rationals in stored form (module docstring), in the input and
    the output alike.
    """
    reduced = _reduced(_echelon(rows, range(ncols), ring), ring.prime)
    pivots = sorted(reduced)
    return [dict(sorted({c: 1, **reduced[c]}.items())) for c in pivots], pivots


def _primitive(vec):
    """Scale a rational vector to a primitive integer vector.

    Every caller passes a vector whose leading entry is 1, so scaling by the
    positive lcm and gcd keeps that entry positive.
    """
    denom = lcm(*(x.denominator for x in vec.values()))
    ints = {c: int(x * denom) for c, x in vec.items()}
    g = gcd(*ints.values())
    return {c: x // g for c, x in ints.items()}


def nullspace(rows, ncols: int, ring: ScalarRing):
    """Kernel basis of the linear map given by ``rows`` acting on column vectors.

    The basis is returned in reduced echelon form with respect to the column
    order (so it is canonical).  In integer mode the kernel is computed over Q
    and each vector is returned primitive.  Entries in columns at or past
    ``ncols`` are ignored.

    The columns are eliminated last to first, so every column a reduced row
    holds lies before its pivot.  Free column ``f`` then gives the vector 1
    at ``f`` and minus ``f``'s entry at each pivot: it leads at ``f``, and
    is zero at every other free column, which makes the vectors the reduced
    echelon basis in the given order.
    """
    p = ring.prime
    reduced = _reduced(_echelon(rows, range(ncols - 1, -1, -1), ring), p)
    basis = {f: {f: 1} for f in range(ncols) if f not in reduced}
    for c in sorted(reduced):
        for f, x in reduced[c].items():
            vec = basis.get(f)  # None for a column at or past ncols
            if vec is not None:
                vec[c] = p - x if p else -x
    if ring.mode == "integer":
        return [_primitive(v) for v in basis.values()]
    return list(basis.values())


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
    -1 in the right-hand side's column ``ncols``, read off that column of the
    reduced rows.  A key of ``rhs`` that names no row is refused.  Over Z a
    solution may not exist where one over Q does, so the integers are
    refused.
    """
    if not ring.is_field:
        raise UnsupportedInputError(f"affine_solve needs a field, got {ring!r}")
    if not all(i in range(len(rows)) for i in rhs):
        raise ShapeError(f"right-hand side names a row outside 0 .. {len(rows) - 1}")
    augmented = [{**row, ncols: rhs[i]} if i in rhs else row for i, row in enumerate(rows)]
    tails = _echelon(augmented, range(ncols + 1), ring)
    particular = None
    if ncols in tails:  # a row reading 0 = 1
        del tails[ncols]
    else:
        reduced = sorted(_reduced(tails, ring.prime).items())
        particular = {c: row[ncols] for c, row in reduced if ncols in row}
    kernel = nullspace(rows, ncols, ring) if len(tails) < ncols else []
    return particular, kernel, len(tails)
