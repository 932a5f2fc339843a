"""Z2-graded vector spaces, Koszul signs, tensor and super exterior powers.

Conventions.  A basis element carries a parity in {0, 1}.  Swapping two
homogeneous wedge factors u, v costs the sign -(-1)^{|u||v|}; consequently
even factors anticommute, odd factors commute, and a wedge monomial is
canonical when its indices are weakly increasing with no even index
repeated (repeated odd indices survive: the square of an odd vector is a
nonzero even element).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

from .fields import Field
from .linalg import Matrix, Subspace, vec_clean


@dataclass(frozen=True)
class SuperSpace:
    """An ordered homogeneous basis: labels with parities."""

    field: Field
    labels: tuple[str, ...]
    parities: tuple[int, ...]

    def __post_init__(self):
        if len(self.labels) != len(self.parities):
            raise ValueError("labels and parities differ in length")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate basis labels")
        if any(p not in (0, 1) for p in self.parities):
            raise ValueError("parities must be 0 or 1")

    @property
    def dim(self) -> int:
        return len(self.labels)

    @property
    def dim_pair(self) -> tuple[int, int]:
        odd = sum(self.parities)
        return (self.dim - odd, odd)

    def index(self, label: str) -> int:
        return self.labels.index(label)

    def parity_of_vec(self, v: dict) -> int | None:
        """Parity if v is homogeneous (0 for the zero vector), else None."""
        ps = {self.parities[i] for i in vec_clean(v)}
        if not ps:
            return 0
        if len(ps) > 1:
            return None
        return ps.pop()

    def split_dims(self, rows: list[dict]) -> tuple[int, int]:
        """(even, odd) counts of a homogeneous family of vectors."""
        d0 = d1 = 0
        for r in rows:
            par = self.parity_of_vec(r)
            if par is None:
                raise ValueError("vector is not parity homogeneous")
            if par == 0:
                d0 += 1
            else:
                d1 += 1
        return (d0, d1)

    def __str__(self):
        return f"({self.dim_pair[0]}|{self.dim_pair[1]})"


def superspace(field: Field, basis: list[tuple[str, int]]) -> SuperSpace:
    return SuperSpace(field, tuple(b[0] for b in basis), tuple(b[1] for b in basis))


class GradedMap:
    """A parity-homogeneous linear map between superspaces."""

    __slots__ = ("source", "target", "degree", "matrix")

    def __init__(self, source: SuperSpace, target: SuperSpace, degree: int, matrix: Matrix):
        if matrix.ncols != source.dim or matrix.nrows != target.dim:
            raise ValueError("matrix shape does not match the spaces")
        for j, col in enumerate(matrix.cols):
            want = (source.parities[j] + degree) % 2
            for i in col:
                if target.parities[i] != want:
                    raise ValueError(
                        f"entry ({i},{j}) violates parity: map degree {degree}"
                    )
        self.source = source
        self.target = target
        self.degree = degree
        self.matrix = matrix

    def apply(self, v: dict) -> dict:
        return self.matrix.apply(v)

    def compose(self, inner: "GradedMap") -> "GradedMap":
        if inner.target is not self.source and inner.target != self.source:
            raise ValueError("maps are not composable")
        return GradedMap(
            inner.source, self.target, (self.degree + inner.degree) % 2,
            self.matrix.compose(inner.matrix),
        )

    def image(self) -> Subspace:
        return self.matrix.image_basis()

    def kernel(self) -> Subspace:
        return self.matrix.kernel_basis()

    def is_zero(self) -> bool:
        return self.matrix.is_zero()

    @staticmethod
    def from_columns(source: SuperSpace, target: SuperSpace, cols: list[dict], degree: int = 0) -> "GradedMap":
        return GradedMap(source, target, degree, Matrix(source.field, target.dim, cols))

    @staticmethod
    def identity(space: SuperSpace) -> "GradedMap":
        return GradedMap(space, space, 0, Matrix.identity(space.field, space.dim))

    @staticmethod
    def zero(source: SuperSpace, target: SuperSpace) -> "GradedMap":
        return GradedMap(source, target, 0, Matrix.zero(source.field, target.dim, source.dim))


# ---------------------------------------------------------------------------
# tensor products of superspaces


def tensor_space(a: SuperSpace, b: SuperSpace, sep: str = "*") -> SuperSpace:
    """Row-major pairs (a_i, b_j) with parity |a_i| + |b_j|."""
    if a.field != b.field:
        raise ValueError("tensor factors over different fields")
    labels = []
    parities = []
    for la, pa in zip(a.labels, a.parities):
        for lb, pb in zip(b.labels, b.parities):
            labels.append(f"{la}{sep}{lb}")
            parities.append((pa + pb) % 2)
    return SuperSpace(a.field, tuple(labels), tuple(parities))


def tensor_vec(a: SuperSpace, b: SuperSpace, u: dict, v: dict) -> dict:
    """u (x) v in the row-major pair basis of :func:`tensor_space`."""
    out = {}
    n = b.dim
    for i, ci in u.items():
        base = i * n
        for j, cj in v.items():
            c = ci * cj
            if c != 0:
                out[base + j] = c
    return out


def tensor_power_space(a: SuperSpace, n: int, sep: str = "*") -> SuperSpace:
    if n == 0:
        return SuperSpace(a.field, ("1",), (0,))
    out = a
    for _ in range(n - 1):
        out = tensor_space(out, a, sep=sep)
    return out


# ---------------------------------------------------------------------------
# super exterior powers


@dataclass(frozen=True)
class WedgeMonomial:
    """Canonical wedge monomial: weakly increasing indices, even ones strict."""

    factors: tuple[int, ...]


def wedge_normalize(factors: list[int], parities_of: list[int] | tuple[int, ...]):
    """Stable insertion sort with the swap sign -(-1)^{|u||v|}.

    Returns (sign, WedgeMonomial) or (0, None) when an even index repeats.
    """
    fs = list(factors)
    sign = 1
    for i in range(1, len(fs)):
        j = i
        while j > 0 and fs[j - 1] > fs[j]:
            pu, pv = parities_of[fs[j - 1]], parities_of[fs[j]]
            sign *= -1 if pu * pv == 0 else 1
            fs[j - 1], fs[j] = fs[j], fs[j - 1]
            j -= 1
    for a, b in zip(fs, fs[1:]):
        if a == b and parities_of[a] == 0:
            return 0, None
    return sign, WedgeMonomial(tuple(fs))


def _monomials(dim: int, parities, n: int):
    for combo in combinations_with_replacement(range(dim), n):
        ok = True
        for a, b in zip(combo, combo[1:]):
            if a == b and parities[a] == 0:
                ok = False
                break
        if ok:
            yield WedgeMonomial(combo)


def exterior_power(v: SuperSpace, n: int) -> tuple[SuperSpace, list[WedgeMonomial]]:
    """The n-th super exterior power with its canonical monomial basis.

    The package builds its chains on the weight-0 monomials instead, but
    this stays as the documented super exterior power: ``tests/oracles.py``
    builds the full Chevalley-Eilenberg complex from it, and
    ``perfbench/spans.py`` times it as a layer of its own."""
    if n < 0:
        raise ValueError("negative exterior power")
    monomials = list(_monomials(v.dim, v.parities, n))
    labels = []
    parities = []
    for m in monomials:
        if n == 0:
            labels.append("1")
            parities.append(0)
        else:
            labels.append("^".join(v.labels[i] for i in m.factors))
            parities.append(sum(v.parities[i] for i in m.factors) % 2)
    return SuperSpace(v.field, tuple(labels), tuple(parities)), monomials
