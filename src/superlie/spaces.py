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
        return format_dims(self.dim_pair)


def format_dims(dims: tuple[int, int]) -> str:
    """(even, odd) dimensions as ``(e|o)``."""
    return f"({dims[0]}|{dims[1]})"


def superspace(field: Field, basis: list[tuple[str, int]]) -> SuperSpace:
    return SuperSpace(field, tuple(b[0] for b in basis), tuple(b[1] for b in basis))


class GradedMap:
    """An even linear map between superspaces: it preserves parity."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: SuperSpace, target: SuperSpace, matrix: Matrix):
        if matrix.ncols != source.dim or matrix.nrows != target.dim:
            raise ValueError("matrix shape does not match the spaces")
        for j, col in enumerate(matrix.cols):
            for i in col:
                if target.parities[i] != source.parities[j]:
                    raise ValueError(f"entry ({i},{j}) violates parity: the map is not even")
        self.source = source
        self.target = target
        self.matrix = matrix

    def apply(self, v: dict) -> dict:
        return self.matrix.apply(v)

    def compose(self, inner: "GradedMap") -> "GradedMap":
        if inner.target is not self.source and inner.target != self.source:
            raise ValueError("maps are not composable")
        return GradedMap(inner.source, self.target, self.matrix.compose(inner.matrix))

    def image(self) -> Subspace:
        return self.matrix.image_basis()

    def kernel(self) -> Subspace:
        return self.matrix.kernel_basis()

    def is_zero(self) -> bool:
        return self.matrix.is_zero()

    @staticmethod
    def from_columns(source: SuperSpace, target: SuperSpace, cols: list[dict]) -> "GradedMap":
        return GradedMap(source, target, Matrix(source.field, target.dim, cols))

    @staticmethod
    def identity(space: SuperSpace) -> "GradedMap":
        return GradedMap(space, space, Matrix.identity(space.field, space.dim))

    @staticmethod
    def zero(source: SuperSpace, target: SuperSpace) -> "GradedMap":
        return GradedMap(source, target, Matrix.zero(source.field, target.dim, source.dim))


# ---------------------------------------------------------------------------
# tensor products of superspaces


def tensor_space(a: SuperSpace, b: SuperSpace) -> SuperSpace:
    """Row-major pairs (a_i, b_j) with parity |a_i| + |b_j|."""
    if a.field != b.field:
        raise ValueError("tensor factors over different fields")
    labels = []
    parities = []
    for la, pa in zip(a.labels, a.parities):
        for lb, pb in zip(b.labels, b.parities):
            labels.append(f"{la}*{lb}")
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


def tensor_power_space(a: SuperSpace, n: int) -> SuperSpace:
    if n == 0:
        return SuperSpace(a.field, ("1",), (0,))
    out = a
    for _ in range(n - 1):
        out = tensor_space(out, a)
    return out


# ---------------------------------------------------------------------------
# super exterior powers


def wedge_normalize(factors: list[int], parities_of: list[int] | tuple[int, ...]):
    """Stable insertion sort with the swap sign -(-1)^{|u||v|}.

    Returns (sign, canonical factors) or (0, None) when an even index repeats.
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
    return sign, tuple(fs)


def exterior_power(v: SuperSpace, n: int) -> tuple[SuperSpace, list[tuple[int, ...]]]:
    """The n-th super exterior power with its canonical monomial basis, each
    monomial the tuple of its factors: weakly increasing, even ones strict.

    The package builds its chains on the weight-0 monomials instead
    (:func:`weight0_words`), so no computation of the package calls this;
    it stays as the documented super exterior power, from which
    ``tests/oracles.py`` builds the full Chevalley-Eilenberg complex.  The
    ``spaces.exterior_power`` layer of ``perfbench/spans.py`` therefore
    reads 0 calls on every workload."""
    if n < 0:
        raise ValueError("negative exterior power")
    monomials = [m for m in combinations_with_replacement(range(v.dim), n)
                 if not any(a == b and v.parities[a] == 0 for a, b in zip(m, m[1:]))]
    labels = ["^".join(v.labels[i] for i in m) if n else "1" for m in monomials]
    parities = [sum(v.parities[i] for i in m) % 2 for m in monomials]
    return SuperSpace(v.field, tuple(labels), tuple(parities)), monomials


# ---------------------------------------------------------------------------
# weight-0 words


def weight0_words(field: Field, lam: list[tuple], nxt: list[int], closing: list[tuple],
                  max_n: int) -> list[list[tuple[tuple[int, ...], int]]]:
    """Per length n = 0, ..., max_n, the words (factors, t) of n factors,
    each factor after i at least ``nxt[i]``, and a closing index t, whose
    weight lam[x_1] + ... + lam[x_n] + closing[t] is 0 in the field in every
    component, in lexicographic order.  The Chevalley-Eilenberg chains are
    the words of canonical wedge monomials, nxt[i] = i + 1 - |x_i| (an odd
    factor may repeat), closed by the module index t; the Connes tuples
    (a_0, ..., a_n) are the words with nxt[i] = 0, closed by the last factor
    a_n; and the weight-0 generators of the adjoint tensor square are the
    words (i, j) with nxt[i] = 0, closed by the basis element c that meets
    e_i (x) e_j.

    The words are enumerated prefix by prefix, the weight of a prefix
    carried as a running sum.  ``live[k][i]`` holds the prefix weights that
    at most k more factors, the first of index >= i, can complete to a
    wanted weight -closing[t]; a prefix of n factors is extended by factor
    i only when the new weight lies in live[max_n - n - 1][nxt[i]].  Every
    prefix of a kept word passes, so the words and their order are those
    of the unpruned enumeration, which the tests keep as oracles."""
    reduce = field.reduce
    dim = len(lam)
    wanted: dict[tuple, list[int]] = {}  # prefix weight -> the t that close it
    for t, w in enumerate(closing):
        wanted.setdefault(tuple(reduce(-c) for c in w), []).append(t)
    # live[k][i]: no more factors, or a first factor i followed by at most
    # k - 1 from index nxt[i] on, or a first factor past i
    done = frozenset(wanted)
    live = [[done] * (dim + 1)]
    for k in range(1, max_n):
        row = [done] * (dim + 1)
        for i in range(dim - 1, -1, -1):
            row[i] = row[i + 1] | {tuple(reduce(a - b) for a, b in zip(w, lam[i]))
                                   for w in live[k - 1][nxt[i]]}
        live.append(row)
    level = [((), tuple(0 for _ in next(iter(lam + closing), ())))]  # the empty prefix
    words = []
    for n in range(max_n + 1):
        words.append([(f, t) for f, w in level for t in wanted.get(w, ())])
        if n < max_n:
            reach = live[max_n - n - 1]
            level = [(f + (i,), w2)
                     for f, w in level
                     for i in range(nxt[f[-1]] if f else 0, dim)
                     if (w2 := tuple(reduce(a + b) for a, b in zip(w, lam[i])))
                     in reach[nxt[i]]]
    return words
