"""Exact sparse linear algebra over Q and GF(p).

Vectors are sparse dicts ``{coordinate: scalar}`` with zero entries absent;
``Field.clean`` puts a vector in the field's normal form.  Coordinates are
vectors too: :meth:`Subspace.coords` and :meth:`Subquotient.reduce` return
``{basis index: scalar}`` with nonzero, field-normal values, and
:meth:`Subquotient.lift` takes that dict.

The workhorse is :class:`Echelon`, an incremental echelon accumulator
with one elimination step per backend, chosen once per accumulator from
the field:

- over Q, rows are primitive integer vectors and elimination is fraction
  free (cross multiplication followed by content reduction), which bounds
  coefficient growth on the large sparse generator families produced
  elsewhere in the package;
- over GF(p), rows are monic vectors of residues and elimination subtracts
  a multiple of the row mod p.

Its rows are semi-reduced: each is zero left of its own pivot (its least
index), and no two share a pivot.  Clearing the pivot columns of a vector
in increasing order therefore takes one pass, and an insert stores the
reduced vector without touching the other rows.  Back-substitution, which
clears each pivot column from every other row, happens once, in
:meth:`Echelon.subspace`.

A :class:`Subspace` is the canonical reduced row echelon form (RREF) of a
span, with pivots normalized to 1; it is the equality test for subspaces.
Every RREF row is zero at the pivot of every other row, so subtracting
one row never changes the entry of a vector at another pivot.  Reducing
a vector is therefore one pass over its own pivot entries: subtract
``v[piv]`` times the row of each pivot present in ``v``.  The whole
ambient space, :meth:`Subspace.full`, is the only span of unit vectors
and stores no rows: its unit rows are made when read, so the top of a
quotient of all of it costs nothing, and it contains every subspace with
no reduction.

A quotient of the whole space, :class:`Subquotient` with a top of full
rank, has the unit vectors at the coordinates that are not pivots of
bottom as its section.  Reducing a vector by bottom clears every bottom
pivot, so what is left is the vector's quotient coordinates and no
residual test is needed; and e_i at a bottom pivot i reduces to
-(row_i - e_i), read off the canonical bottom row with no reduction.

Elimination is order-aware in two ways.  A span (:class:`Subspace`,
:meth:`Matrix.rank`, the column-reversed rows of
:meth:`Matrix.kernel_basis`) is inserted by descending leading index, the
pivot each vector would get, in the order given on ties
(:func:`latest_lead_first`).  Every stored pivot then lies at or right of
the new vector's lead.  When the lead is not yet a pivot, the reduced
vector is stored as the leftmost row and is zero at every other pivot.
While leads stay new, every stored row stays so, since rows stored later
lie to its left: clearing one pivot brings in no other, and
back-substitution has little left to do.  Sparsest first stores rows
before the pivots to their right exist, and every reduction through such
a row brings those pivot columns back in, to be cleared again (Davis,
*Direct Methods for Sparse Linear Systems*, SIAM 2006, ch. 7, on order
and fill-in).  Backend elimination steps on four spans of
Chevalley-Eilenberg boundaries over Q, with only the insertion order
changed (gl(2|2) in the basis of round 0 of the ``complexes`` benchmark
at seed 1, gl(3|2) in the standard basis):

    ==========================  =====  ===============  ===============
    span                        given  sparsest first   descending lead
    ==========================  =====  ===============  ===============
    Im d_5 of gl(2|2)           1,852              851              573
    Ker d_4 of gl(2|2)             66               69               64
    Im d_6 of gl(3|2)          94,081           32,508           11,223
    Ker d_5 of gl(3|2)            877            1,249              880
    ==========================  =====  ===============  ===============

Ascending lead, the reverse, took 126,577 steps on Im d_6 of gl(3|2).
The RREF does not depend on the order, so neither does any result.

A kernel is read off one elimination, with the columns reversed: a pivot
row of that RREF is nonzero, besides its pivot, only at free columns left
of the pivot in the natural order, so the kernel vector of a free column
j, e_j minus the pivot rows' entries in column j, is 1 at j, zero at the
other free columns, and nonzero elsewhere only at pivot columns right of
j.  Listed by ascending j these vectors are already the canonical RREF of
the kernel, with the free columns as pivots, and they are not eliminated
again.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

from .fields import Field, MathError


class AmbientMismatch(ValueError):
    """Subspaces of different ambient dimensions were combined."""


class ContainmentError(ValueError, MathError):
    """A required subspace containment fails."""


# ---------------------------------------------------------------------------
# sparse vector helpers


def vec_axpy(dst: dict, coeff, src: dict) -> None:
    """dst += coeff * src, in place."""
    if coeff == 0:
        return
    for k, c in src.items():
        new = dst.get(k, 0) + coeff * c
        if new == 0:
            dst.pop(k, None)
        else:
            dst[k] = new


def vec_scale(v: dict, coeff) -> dict:
    if coeff == 0:
        return {}
    return {k: coeff * c for k, c in v.items()}


def vec_sub(a: dict, b: dict) -> dict:
    out = dict(a)
    vec_axpy(out, -1, b)
    return out


# Fused sums: a sum of spread and composed rows accumulated into one flat
# dict keyed (j, t), entries unreduced and zeros kept, for one zero test.


def add_spread(acc: dict, coeff, vec: dict, rows: list[dict[int, dict]]) -> None:
    """acc[(j, t)] += coeff c rows[x][j][t] over the entries x: c of vec."""
    for x, c in vec.items():
        c *= coeff
        for j, w in rows[x].items():
            for t, d in w.items():
                acc[j, t] = acc.get((j, t), 0) + c * d


def add_composed(acc: dict, coeff, outer: dict[int, dict], inner: dict[int, dict]) -> None:
    """acc[(j, t)] += coeff c outer[k][t] over each j: {k: c} of inner and
    the k with a nonzero outer[k]."""
    for j, v in inner.items():
        for k, c in v.items():
            w = outer.get(k)
            if w:
                c *= coeff
                for t, d in w.items():
                    acc[j, t] = acc.get((j, t), 0) + c * d


def sum_is_zero(field: Field, acc: dict) -> bool:
    """Whether every unreduced entry of a fused sum is 0 in the field."""
    p = field.p
    if p is None:
        return not any(acc.values())
    return not any(c % p for c in acc.values())


# ---------------------------------------------------------------------------
# elimination backends: integer rows over Q, residue rows over GF(p)


class _RationalRows:
    """Primitive integer rows (content 1, positive pivot) over Q."""

    @staticmethod
    def row(v: dict) -> dict:
        """Clear denominators: scale to the smallest integer multiple."""
        den = 1
        for c in v.values():
            if type(c) is not int and c.denominator != 1:
                den = lcm(den, c.denominator)
        out = {}
        for k, c in v.items():
            if c:
                out[k] = c * den if type(c) is int else c.numerator * (den // c.denominator)
        return out

    @staticmethod
    def normalize(row: dict) -> dict:
        """Divide by the content; make the pivot (min index) positive."""
        g = gcd(*row.values())
        if row[min(row)] < 0:
            g = -g
        if g != 1:
            row = {k: c // g for k, c in row.items()}
        return row

    @staticmethod
    def eliminate(work: dict, row: dict, piv: int, pivots=(), heap=None) -> dict:
        """Clear column piv of work with row, fraction free: a*work - c*row,
        divided by its content (its sign is left as it falls); push each
        column of ``pivots`` that enters work onto ``heap``."""
        a, c = row[piv], work[piv]
        if a != 1:
            for k in work:
                work[k] = a * work[k]
        for k, d in row.items():
            if k in work:
                new = work[k] - c * d
                if new:
                    work[k] = new
                else:
                    del work[k]
            else:
                work[k] = -c * d
                if k in pivots:
                    heappush(heap, k)
        g = gcd(*work.values())
        if g > 1:
            work = {k: e // g for k, e in work.items()}
        return work

    @staticmethod
    def to_field(row: dict, piv: int) -> dict:
        """The pivot-1 row; an entry is an ``int`` wherever it is integral."""
        a = row[piv]
        if a == 1:
            return dict(row)
        return {k: c // a if c % a == 0 else Fraction(c, a) for k, c in row.items()}


class _ResidueRows:
    """Residues 0..p-1 over GF(p); stored rows are monic (pivot entry 1)."""

    def __init__(self, field: Field):
        self.p = field.p
        self.row = field.clean

    def normalize(self, row: dict) -> dict:
        p = self.p
        inv = pow(row[min(row)], -1, p)
        return {k: c * inv % p for k, c in row.items()}

    def eliminate(self, work: dict, row: dict, piv: int, pivots=(), heap=None) -> dict:
        """Clear column piv of work with the monic row: work - c*row; push
        each column of ``pivots`` that enters work onto ``heap``."""
        p, c = self.p, work[piv]
        for k, d in row.items():
            if k in work:
                new = (work[k] - c * d) % p
                if new:
                    work[k] = new
                else:
                    del work[k]
            else:
                work[k] = -c * d % p
                if k in pivots:
                    heappush(heap, k)
        return work

    @staticmethod
    def to_field(row: dict, piv: int) -> dict:
        return dict(row)


# ---------------------------------------------------------------------------
# incremental echelon accumulator


def latest_lead_first(vectors) -> list[dict]:
    """The vectors by descending leading index, the pivot each would get,
    and in the order given where two lead at the same index; zero vectors
    last."""
    return sorted(vectors, key=lambda v: min(v, default=-1), reverse=True)


class Echelon:
    """Incremental span of backend-normalized rows, kept semi-reduced.

    Each stored row is zero left of its pivot (its least index), and no two
    rows share a pivot; over Q the rows are primitive integer rows, not
    pivot-normalized.  :meth:`insert` reduces the new row against the
    stored rows and stores it without touching any other row.
    :meth:`subspace` back-substitutes from the largest pivot down, keeps
    the fully reduced rows, and returns the canonical pivot-1 form over the
    field.
    """

    def __init__(self, field: Field, ambient: int):
        self.field = field
        self.ambient = ambient
        self.rows: dict[int, dict] = {}  # pivot -> backend row
        self._ops = _RationalRows if field.p is None else _ResidueRows(field)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, work: dict) -> dict:
        """Eliminate every pivot column from a backend row.

        Pivots are cleared in increasing order, from a heap of the pivot
        columns present, which ``eliminate`` extends by each pivot column
        that enters the row in the same pass over the stored row.  A stored
        row is zero left of its pivot, so clearing one pivot only brings in
        columns to its right, and one pass over the heap does.  A column
        that cancels before it is popped and then enters again is on the
        heap twice; it is cleared at its first pop, no later row brings it
        back, and the second pop finds it gone."""
        rows, eliminate = self.rows, self._ops.eliminate
        heap = [k for k in work if k in rows]
        heapify(heap)
        while heap:
            piv = heappop(heap)
            if piv in work:
                work = eliminate(work, rows[piv], piv, rows, heap)
        return work

    def insert(self, v: dict) -> bool:
        """Add a vector to the span; True iff the rank grew."""
        work = self._reduce(self._ops.row(v))
        if not work:
            return False
        work = self._ops.normalize(work)
        self.rows[min(work)] = work
        return True

    def contains(self, v: dict) -> bool:
        return not self._reduce(self._ops.row(v))

    def subspace(self) -> "Subspace":
        rows, eliminate = self.rows, self._ops.eliminate
        pivots = sorted(rows)
        # Back-substitution from the largest pivot down: the rows to the
        # right are already fully reduced, so each row needs one pass over
        # the other pivots it holds.
        for piv in reversed(pivots):
            row = rows[piv]
            for q in (row.keys() & rows.keys()) - {piv}:
                row = eliminate(row, rows[q], q)
            rows[piv] = row
        canonical = [self._ops.to_field(rows[piv], piv) for piv in pivots]
        return Subspace(self.field, self.ambient, canonical, _canonical=True)


# ---------------------------------------------------------------------------
# canonical subspaces


class Subspace:
    """A subspace in canonical reduced row echelon form (pivots = 1)."""

    __slots__ = ("field", "ambient", "rows", "pivots", "_row_at")

    def __init__(self, field: Field, ambient: int, vectors, _canonical=False):
        self.field = field
        self.ambient = ambient
        if _canonical:
            rows = list(vectors)
        else:
            acc = Echelon(field, ambient)
            for v in latest_lead_first(vectors):
                acc.insert(v)
            rows = acc.subspace().rows
        self.rows: list[dict] = rows
        self.pivots: list[int] = [min(r) for r in rows]
        self._row_at = dict(zip(self.pivots, rows))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _key(self):
        return tuple(tuple(sorted(r.items())) for r in self.rows)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self._key() == other._key()
        )

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient} over {self.field})"

    def reduce_vec(self, v: dict) -> dict:
        """Residual of v after eliminating all pivot coordinates (field scalars)."""
        work = self.field.clean(v)
        row_at = self._row_at
        for piv in [k for k in work if k in row_at]:
            vec_axpy(work, -work[piv], row_at[piv])
        return self.field.clean(work)

    def contains_vec(self, v: dict) -> bool:
        return not self.reduce_vec(v)

    def contains(self, other: "Subspace") -> bool:
        """Whether other lies in self; the whole ambient space contains
        every subspace with no reduction."""
        if self.ambient != other.ambient:
            raise AmbientMismatch(f"{self.ambient} vs {other.ambient}")
        if self.dim == self.ambient:
            return True
        return all(self.contains_vec(r) for r in other.rows)

    def coords(self, v: dict) -> dict | None:
        """Coefficients ``{row: c}`` of v on the canonical basis, or None if v
        is outside: v lies in the span, so its entry at a pivot is the
        coefficient of that pivot's row."""
        if self.reduce_vec(v):
            return None
        pivots, row_at, of = self.pivots, self._row_at, self.field.of
        out = {}
        for piv in sorted(p for p in v if p in row_at):
            if c := of(v[piv]):
                out[bisect_left(pivots, piv)] = c
        return out

    def intersect(self, other: "Subspace") -> "Subspace":
        """Canonical basis of the intersection: the smaller span when the
        larger one contains it, and otherwise from the kernel of a stacked
        system."""
        if self.ambient != other.ambient:
            raise AmbientMismatch(f"{self.ambient} vs {other.ambient}")
        small, large = (self, other) if self.dim <= other.dim else (other, self)
        if large.contains(small):
            return small
        cols = [dict(r) for r in self.rows]
        cols += [{k: -c for k, c in r.items()} for r in other.rows]
        m = Matrix(self.field, self.ambient, cols)
        coeffs = m.kernel_basis()
        vectors = []
        for w in coeffs.rows:
            out: dict = {}
            for j, c in w.items():
                if j < self.dim:
                    vec_axpy(out, c, self.rows[j])
            vectors.append(out)
        return Subspace(self.field, self.ambient, vectors)

    @staticmethod
    def full(field: Field, ambient: int) -> "Subspace":
        """The whole ambient space, the span of every unit vector.  Its
        rows are :class:`_UnitRows`, made when read, so a quotient of it
        holds rows for its section only."""
        span = Subspace.__new__(Subspace)
        span.field, span.ambient, span.pivots = field, ambient, range(ambient)
        span.rows = span._row_at = _UnitRows(ambient)
        return span


class _UnitRows(Sequence):
    """The canonical rows of the whole space, each made when it is read.
    Pivot k is coordinate k, so row k and the row at pivot k are both e_k:
    it is the space's rows and its pivot -> row map, and ``p in rows`` asks
    whether p is a pivot."""

    __slots__ = ("pivots",)

    def __init__(self, ambient: int):
        self.pivots = range(ambient)

    def __len__(self) -> int:
        return len(self.pivots)

    def __contains__(self, p) -> bool:
        return p in self.pivots

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [{p: 1} for p in self.pivots[k]]
        return {self.pivots[k]: 1}


# ---------------------------------------------------------------------------
# matrices: lists of sparse columns


class Matrix:
    """A linear map stored column-wise: ``cols[j]`` is the image of e_j,
    kept in the field's normal form."""

    __slots__ = ("field", "nrows", "cols")

    def __init__(self, field: Field, nrows: int, cols: list[dict]):
        self.field = field
        self.nrows = nrows
        self.cols = [field.clean(c) for c in cols]

    @property
    def ncols(self) -> int:
        return len(self.cols)

    def apply(self, v: dict) -> dict:
        out: dict = {}
        for j, c in v.items():
            vec_axpy(out, c, self.cols[j])
        return self.field.clean(out)

    def compose(self, inner: "Matrix") -> "Matrix":
        """self ∘ inner."""
        return Matrix(self.field, self.nrows, [self.apply(c) for c in inner.cols])

    def is_zero(self) -> bool:
        return not any(self.cols)

    def row_list(self) -> list[dict]:
        rows: list[dict] = [dict() for _ in range(self.nrows)]
        for j, col in enumerate(self.cols):
            for i, c in col.items():
                rows[i][j] = c
        return rows

    def rank(self) -> int:
        acc = Echelon(self.field, self.ncols)
        for row in latest_lead_first(self.row_list()):
            acc.insert(row)
        return acc.rank

    def image_basis(self) -> Subspace:
        return Subspace(self.field, self.nrows, self.cols)

    def kernel_basis(self) -> Subspace:
        """Canonical basis of {v : M v = 0}, from one elimination.

        The rows are eliminated with the columns reversed, j -> n - 1 - j,
        and inserted by descending leading index of the reversed rows,
        that is by ascending last nonzero column of the rows themselves.
        In the natural order a pivot row of that RREF is then nonzero,
        besides its pivot q, only at free columns j < q, since an RREF row
        is zero left of its pivot and at the other pivots.  The kernel
        vector of a free column j sets x_j = 1 and every other free
        variable to 0, so x_q = -(entry of row q at j) for each pivot q,
        which is nonzero only if q > j.  The vector is 1 at its least
        index j and zero at every other free column: listed by ascending
        j, these vectors are the RREF of the kernel, which is unique, so
        they go to :class:`Subspace` as canonical rows."""
        last = self.ncols - 1
        acc = Echelon(self.field, self.ncols)
        for row in latest_lead_first([{last - j: c for j, c in row.items()}
                                      for row in self.row_list()]):
            acc.insert(row)
        rref = acc.subspace()
        pivset = {last - p for p in rref.pivots}
        kernel = {j: {j: 1} for j in range(self.ncols) if j not in pivset}
        neg = self.field.neg
        for p, row in zip(rref.pivots, rref.rows):
            piv = last - p
            for k, c in row.items():
                if k != p:
                    kernel[last - k][piv] = neg(c)
        return Subspace(self.field, self.ncols, list(kernel.values()), _canonical=True)

    def solve(self, b: dict) -> dict | None:
        """Some x with M x = b, or None if b is outside the image, read off
        the kernel of (M | -b): b lies in the image iff a canonical kernel
        row has a nonzero last coordinate c, and then x is that row's other
        coordinates divided by c."""
        n, field = self.ncols, self.field
        aug = Matrix(field, self.nrows, [*self.cols, vec_scale(b, -1)])
        for row in aug.kernel_basis().rows:
            if c := row.get(n):
                x = {j: field.of(Fraction(v, c)) for j, v in row.items() if j != n}
                return None if field.clean(vec_sub(self.apply(x), b)) else x
        return None

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        return Matrix(field, n, [{i: 1} for i in range(n)])

    @staticmethod
    def zero(field: Field, nrows: int, ncols: int) -> "Matrix":
        return Matrix(field, nrows, [dict() for _ in range(ncols)])


# ---------------------------------------------------------------------------
# subquotients


class Subquotient:
    """top/bottom with a section: representatives are the canonical top rows
    whose pivots are not pivots of bottom.  ``reduce`` maps an ambient vector
    of top to its coordinates ``{k: c}`` on the section, ``lift`` is the
    linear section.  When top is the whole ambient space (``whole``), the
    section is the unit vectors at the coordinates that are not pivots of
    bottom, and :meth:`reduce_basis` gives the projection."""

    __slots__ = ("field", "ambient", "top", "bottom", "section", "whole", "_index")

    def __init__(self, top: Subspace, bottom: Subspace):
        if top.ambient != bottom.ambient:
            raise AmbientMismatch(f"{top.ambient} vs {bottom.ambient}")
        if not top.contains(bottom):
            raise ContainmentError("bottom is not contained in top")
        self.field = top.field
        self.ambient = top.ambient
        self.top = top
        self.bottom = bottom
        bot_pivs = set(bottom.pivots)
        pivots = [p for p in top.pivots if p not in bot_pivs]
        self.section = [top._row_at[p] for p in pivots]
        self.whole = top.dim == self.ambient
        self._index = {p: k for k, p in enumerate(pivots)}  # section pivot -> coordinate

    @property
    def dim(self) -> int:
        return len(self.section)

    def reduce(self, v: dict) -> dict:
        """Quotient coordinates of an ambient vector (must lie in top).

        The pivots of bottom are pivots of top, so after reducing by bottom
        one pass over the section pivots present reduces by all of top; a
        section row is zero at every other section pivot, so each
        coordinate is the reduced vector's entry at its pivot.  For a
        quotient of the whole space every coordinate left after the bottom
        is a section pivot and its section row a unit vector, so the
        entries are the coordinates and nothing remains."""
        r = self.bottom.reduce_vec(v)
        index, of = self._index, self.field.of
        if self.whole:
            return {index[p]: of(r[p]) for p in sorted(r)}
        coords = {}
        for piv in sorted(p for p in r if p in index):
            k = index[piv]
            coords[k] = c = of(r[piv])
            vec_axpy(r, -c, self.section[k])
        if self.field.clean(r):
            raise ContainmentError("vector is not in the top subspace")
        return coords

    def reduce_basis(self) -> list[dict]:
        """reduce(e_i) for every coordinate i of a quotient of the whole
        space: the unit coordinate at a section pivot; at a pivot i of
        bottom, e_i is e_i - row_i modulo bottom, so its coordinates are
        minus the entries of the canonical bottom row_i off its pivot,
        which all lie at section pivots."""
        if not self.whole:
            raise ContainmentError("only a quotient of the whole space reduces every basis vector")
        index, neg, rows = self._index, self.field.neg, self.bottom._row_at
        return [{index[i]: 1} if i in index else
                {index[j]: neg(c) for j, c in sorted(rows[i].items()) if j != i}
                for i in range(self.ambient)]

    def lift(self, coords: dict) -> dict:
        out: dict = {}
        for i, c in coords.items():
            vec_axpy(out, c, self.section[i])
        return self.field.clean(out)
