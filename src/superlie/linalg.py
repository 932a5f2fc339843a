"""Exact sparse linear algebra over Q and GF(p).

Vectors are sparse dicts ``{coordinate: scalar}`` with zero entries absent.
The workhorse is :class:`Echelon`, an incremental reduced-echelon
accumulator.  Over Q its rows are kept as primitive integer vectors and
elimination is fraction-free (cross multiplication followed by content
reduction), which bounds coefficient growth on the large sparse generator
families produced elsewhere in the package.  Canonical reduced row echelon
form, with pivots normalized to 1, is the equality test for subspaces.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .fields import Field


class AmbientMismatch(ValueError):
    """Subspaces of different ambient dimensions were combined."""


class ContainmentError(ValueError):
    """A required subspace containment fails."""


class SolveError(ValueError):
    """An inconsistent linear system was given to a solver."""


# ---------------------------------------------------------------------------
# sparse vector helpers


def vec_clean(v: dict) -> dict:
    return {k: c for k, c in v.items() if c != 0}


def field_clean(field: Field, v: dict) -> dict:
    """Drop zeros in the field's normal form (residues canonical mod p)."""
    if field.p is None:
        return vec_clean(v)
    return {k: c % field.p for k, c in v.items() if c % field.p}


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


def _to_int_row(field: Field, v: dict) -> dict:
    """Clear denominators (Q) or reduce mod p, returning an int dict."""
    if field.p is not None:
        return {k: c % field.p for k, c in v.items() if c % field.p != 0}
    den = 1
    for c in v.values():
        if isinstance(c, Fraction) and c.denominator != 1:
            den = lcm(den, c.denominator)
    if den == 1:
        return {k: int(c) for k, c in v.items() if c != 0}
    return {k: int(c * den) for k, c in v.items() if c != 0}


def _primitive(row: dict) -> dict:
    """Divide an int row by its content; make the pivot (min index) positive."""
    if not row:
        return row
    g = 0
    for c in row.values():
        g = gcd(g, c)
    if row[min(row)] < 0:
        g = -g
    if g != 1:
        row = {k: c // g for k, c in row.items()}
    return row


# ---------------------------------------------------------------------------
# incremental echelon accumulator


class Echelon:
    """Incrementally reduced span of integer-normalized rows.

    Rows are mutually reduced (each pivot column is zero in every other
    row) but not pivot-normalized; :meth:`subspace` produces the canonical
    pivot-1 form over the field.
    """

    def __init__(self, field: Field, ambient: int):
        self.field = field
        self.ambient = ambient
        self.rows: dict[int, dict] = {}  # pivot -> int row

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce_int(self, v: dict) -> dict:
        p = self.field.p
        work = dict(v)
        for piv in sorted(work.keys() & self.rows.keys()):
            c = work.get(piv, 0)
            if c == 0:
                continue
            row = self.rows[piv]
            if p is not None:
                factor = c * pow(row[piv], -1, p) % p
                for k, d in row.items():
                    new = (work.get(k, 0) - factor * d) % p
                    if new == 0:
                        work.pop(k, None)
                    else:
                        work[k] = new
            else:
                a = row[piv]
                for k in list(work):
                    work[k] = a * work[k]
                for k, d in row.items():
                    new = work.get(k, 0) - c * d
                    if new == 0:
                        work.pop(k, None)
                    else:
                        work[k] = new
                work = _primitive(work)
        return work

    def insert(self, v: dict) -> bool:
        """Add a vector to the span; True iff the rank grew."""
        work = _to_int_row(self.field, v)
        if not work:
            return False
        work = self._reduce_int(work)
        if not work:
            return False
        piv = min(work)
        if self.field.p is not None:
            inv = pow(work[piv], -1, self.field.p)
            work = {k: c * inv % self.field.p for k, c in work.items()}
        else:
            work = _primitive(work)
        # clear the new pivot column from existing rows
        for other_piv, row in self.rows.items():
            c = row.get(piv, 0)
            if c == 0:
                continue
            if self.field.p is not None:
                for k, d in work.items():
                    new = (row.get(k, 0) - c * d) % self.field.p
                    if new == 0:
                        row.pop(k, None)
                    else:
                        row[k] = new
            else:
                a = work[piv]
                for k in list(row):
                    row[k] = a * row[k]
                for k, d in work.items():
                    new = row.get(k, 0) - c * d
                    if new == 0:
                        row.pop(k, None)
                    else:
                        row[k] = new
                self.rows[other_piv] = _primitive(row)
        self.rows[piv] = work
        return True

    def residual(self, v: dict) -> dict:
        """The reduction of v against the span (zero dict iff contained)."""
        return self._reduce_int(_to_int_row(self.field, v))

    def contains(self, v: dict) -> bool:
        return not self.residual(v)

    def subspace(self) -> "Subspace":
        rows = []
        for piv in sorted(self.rows):
            row = self.rows[piv]
            if self.field.p is not None:
                rows.append(dict(row))
            else:
                a = row[piv]
                rows.append({k: Fraction(c, a) for k, c in row.items()})
        return Subspace(self.field, self.ambient, rows, _canonical=True)


# ---------------------------------------------------------------------------
# canonical subspaces


class Subspace:
    """A subspace in canonical reduced row echelon form (pivots = 1)."""

    __slots__ = ("field", "ambient", "rows", "pivots")

    def __init__(self, field: Field, ambient: int, vectors, _canonical=False):
        self.field = field
        self.ambient = ambient
        if _canonical:
            rows = [vec_clean(r) for r in vectors]
        else:
            acc = Echelon(field, ambient)
            for v in vectors:
                acc.insert(v)
            rows = acc.subspace().rows
        self.rows: list[dict] = rows
        self.pivots: list[int] = [min(r) for r in rows] if rows else []

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

    def __hash__(self):
        return hash((self.ambient, self._key()))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient} over {self.field})"

    def reduce_vec(self, v: dict) -> dict:
        """Residual of v after eliminating all pivot coordinates (field scalars)."""
        p = self.field.p
        work = {k: (c % p if p is not None else c) for k, c in v.items()}
        work = vec_clean(work)
        for row in self.rows:
            piv = min(row)
            c = work.get(piv)
            if c:
                vec_axpy(work, -c, row)
                if p is not None:
                    work = {k: d % p for k, d in work.items() if d % p}
        return vec_clean(work)

    def contains_vec(self, v: dict) -> bool:
        return not self.reduce_vec(v)

    def contains(self, other: "Subspace") -> bool:
        if self.ambient != other.ambient:
            raise AmbientMismatch(f"{self.ambient} vs {other.ambient}")
        return all(self.contains_vec(r) for r in other.rows)

    def coords(self, v: dict) -> list | None:
        """Coefficients of v on the canonical basis, or None if v is outside."""
        cs = [v.get(p, 0) for p in self.pivots]
        check = dict(v)
        for c, row in zip(cs, self.rows):
            vec_axpy(check, -c, row)
        if self.field.p is not None:
            check = {k: d % self.field.p for k, d in check.items() if d % self.field.p}
        if vec_clean(check):
            return None
        return [self.field.reduce(c) for c in cs]

    def sum_(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise AmbientMismatch(f"{self.ambient} vs {other.ambient}")
        return Subspace(self.field, self.ambient, self.rows + other.rows)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Canonical basis of the intersection, from the kernel of a stacked system."""
        if self.ambient != other.ambient:
            raise AmbientMismatch(f"{self.ambient} vs {other.ambient}")
        if self.dim == 0 or other.dim == 0:
            return Subspace(self.field, self.ambient, [])
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
        return Subspace(field, ambient, [{i: 1} for i in range(ambient)], _canonical=True)


# ---------------------------------------------------------------------------
# matrices: lists of sparse columns


class Matrix:
    """A linear map stored column-wise: ``cols[j]`` is the image of e_j."""

    __slots__ = ("field", "nrows", "cols")

    def __init__(self, field: Field, nrows: int, cols: list[dict]):
        self.field = field
        self.nrows = nrows
        self.cols = [vec_clean(c) for c in cols]

    @property
    def ncols(self) -> int:
        return len(self.cols)

    def apply(self, v: dict) -> dict:
        out: dict = {}
        for j, c in v.items():
            vec_axpy(out, c, self.cols[j])
        if self.field.p is not None:
            out = {k: d % self.field.p for k, d in out.items() if d % self.field.p}
        return out

    def compose(self, inner: "Matrix") -> "Matrix":
        """self ∘ inner."""
        return Matrix(self.field, self.nrows, [self.apply(c) for c in inner.cols])

    def add(self, other: "Matrix") -> "Matrix":
        cols = []
        for a, b in zip(self.cols, other.cols):
            out = dict(a)
            vec_axpy(out, 1, b)
            cols.append(out)
        return Matrix(self.field, self.nrows, cols)

    def scale(self, c) -> "Matrix":
        return Matrix(self.field, self.nrows, [vec_scale(col, c) for col in self.cols])

    def is_zero(self) -> bool:
        if self.field.p is None:
            return all(not col for col in self.cols)
        return all(all(c % self.field.p == 0 for c in col.values()) for col in self.cols)

    def row_list(self) -> list[dict]:
        rows: list[dict] = [dict() for _ in range(self.nrows)]
        for j, col in enumerate(self.cols):
            for i, c in col.items():
                rows[i][j] = c
        return rows

    def rank(self) -> int:
        acc = Echelon(self.field, self.ncols)
        for row in self.row_list():
            acc.insert(row)
        return acc.rank

    def image_basis(self) -> Subspace:
        return Subspace(self.field, self.nrows, self.cols)

    def kernel_basis(self) -> Subspace:
        """Canonical basis of {v : M v = 0}."""
        acc = Echelon(self.field, self.ncols)
        for row in self.row_list():
            acc.insert(row)
        rref = acc.subspace()
        pivset = set(rref.pivots)
        vectors = []
        for j in range(self.ncols):
            if j in pivset:
                continue
            w = {j: self.field.one}
            for piv, row in zip(rref.pivots, rref.rows):
                c = row.get(j, 0)
                if c:
                    w[piv] = self.field.neg(c)
            vectors.append(w)
        return Subspace(self.field, self.ncols, vectors)

    def solve(self, b: dict) -> dict | None:
        """Some x with M x = b (free variables set to 0), or None if inconsistent."""
        n = self.ncols
        acc = Echelon(self.field, n + 1)
        for i, row in enumerate(self.row_list()):
            c = b.get(i)
            if c is not None and not self.field.is_zero(c):
                row = dict(row)
                row[n] = self.field.neg(c)  # equation: sum row[j] x_j - b_i = 0
            acc.insert(row)
        rref = acc.subspace()
        x: dict = {}
        for piv, row in zip(rref.pivots, rref.rows):
            if piv == n:
                return None  # 0 = nonzero
            # reduced form: entries only at free columns and the constant column;
            # with free variables 0, x_piv = -row[n]
            x[piv] = self.field.neg(row.get(n, 0))
        out = {k: v for k, v in x.items() if not self.field.is_zero(v)}
        residual = vec_sub(self.apply(out), b)
        if self.field.p is not None:
            residual = {k: d % self.field.p for k, d in residual.items() if d % self.field.p}
        if vec_clean(residual):
            return None
        return out

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        return Matrix(field, n, [{i: field.one} for i in range(n)])

    @staticmethod
    def zero(field: Field, nrows: int, ncols: int) -> "Matrix":
        return Matrix(field, nrows, [dict() for _ in range(ncols)])


def rank(m: Matrix) -> int:
    return m.rank()


def kernel_basis(m: Matrix) -> Subspace:
    return m.kernel_basis()


def intersect(a: Subspace, b: Subspace) -> Subspace:
    return a.intersect(b)


# ---------------------------------------------------------------------------
# subquotients


class Subquotient:
    """top/bottom with a section: representatives are the canonical top rows
    whose pivots are not pivots of bottom.  ``reduce`` maps an ambient vector
    of top to coordinates on the section, ``lift`` is the linear section."""

    __slots__ = ("field", "ambient", "top", "bottom", "section", "_pivots")

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
        self.section = [row for row in top.rows if min(row) not in bot_pivs]
        self._pivots = [min(row) for row in self.section]

    @property
    def dim(self) -> int:
        return len(self.section)

    def reduce(self, v: dict) -> list:
        """Quotient coordinates of an ambient vector (must lie in top)."""
        r = self.bottom.reduce_vec(v)
        coords = [r.get(p, 0) for p in self._pivots]
        for c, s in zip(coords, self.section):
            vec_axpy(r, -c, s)
        if self.field.p is not None:
            r = {k: d % self.field.p for k, d in r.items() if d % self.field.p}
        if vec_clean(r):
            raise ContainmentError("vector is not in the top subspace")
        return [self.field.reduce(c) for c in coords]

    def reduce_dict(self, v: dict) -> dict:
        return vec_clean({i: c for i, c in enumerate(self.reduce(v))})

    def lift(self, coords) -> dict:
        out: dict = {}
        items = coords.items() if isinstance(coords, dict) else enumerate(coords)
        for i, c in items:
            vec_axpy(out, c, self.section[i])
        if self.field.p is not None:
            out = {k: d % self.field.p for k, d in out.items() if d % self.field.p}
        return out


def subquotient(top: Subspace, bottom: Subspace) -> Subquotient:
    return Subquotient(top, bottom)
