"""Degree-truncated free Lie superalgebras and presentations.

The free Lie superalgebra on a graded generating set V embeds into its
tensor superalgebra in characteristic zero, so each degree component is
realized as the span of left-normed supercommutators inside the tensor
power, and the truncated bracket table is read off by echelon
coordinates.  The tensor powers are ``spaces.tensor_power_space(V, k)``
of V, the generators with their labels, and [u, v] = u (x) v -
(-1)^{|u||v|} v (x) u is written with ``spaces.tensor_vec``, so their
row-major index and their parities are the rules of
:mod:`~superlie.spaces`; the field enters only through the
:class:`~superlie.spaces.SuperSpace` V.  This linear realization is the
production path; the magma-quotient construction lives in the test suite
as an independent oracle for the component dimensions."""

from __future__ import annotations

from itertools import accumulate

from .algebras import LieSuperAlgebra
from .fields import QQ, InputError, MathError, frozen_record, record
from .io import _require_keys
from .linalg import Echelon, Subspace, vec_axpy
from .spaces import SuperSpace, superspace, tensor_power_space, tensor_vec


class DegreeOverflow(ValueError, MathError):
    """A bracket word exceeds the truncation degree."""


class TruncationOutOfRange(InputError):
    """A requested truncation exceeds the supported generator count or degree
    range (an input limit, not a mathematical failure)."""


MAX_GENERATORS = 4
MAX_DEGREE = 5


@frozen_record
class GradedGenSet:
    generators: tuple[tuple[str, int], ...]

    def __post_init__(self):
        labels = [g[0] for g in self.generators]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate generator labels")

    @property
    def count(self) -> int:
        return len(self.generators)


def genset(gens: list[tuple[str, int]]) -> GradedGenSet:
    return GradedGenSet(tuple(gens))


# A bracket word is a generator label or a pair [w1, w2] of bracket words;
# a relator is a bracket word or a scalar combination
# {"sum": [{"coeff": c, "word": r}, ...]} of one or more relators, whose
# terms all share one parity.  word_parity is the one check of these
# shapes: Presentation and the file parser both call it.


def word_degree(word) -> int:
    if isinstance(word, str):
        return 1
    if isinstance(word, dict):
        return max(word_degree(t["word"]) for t in word["sum"])
    a, b = word
    return word_degree(a) + word_degree(b)


def word_parity(word, gens: GradedGenSet) -> int:
    """The parity of a relator, which it validates: ValueError for a
    malformed shape, a coefficient that is not a rational number or mixed
    parities, KeyError for an unknown label."""
    if isinstance(word, dict):
        _require_keys(word, {"sum"}, set(), "relator")
        terms = word["sum"]
        if not isinstance(terms, list):
            raise ValueError(f"relator sum must be a list: {terms!r}")
        if not terms:
            raise ValueError("a sum needs at least one term")
        for t in terms:
            _require_keys(t, {"coeff", "word"}, set(), "relator term")
            c = t["coeff"]
            if isinstance(c, bool) or not isinstance(c, (int, str)):
                raise ValueError(f"relator coefficient must be a string or an integer: {c!r}")
            QQ.parse(str(c))  # a FieldError, a ValueError, when it is not a rational
        parities = {word_parity(t["word"], gens) for t in terms}
        if len(parities) != 1:
            raise ValueError("relator terms have mixed parities")
        return parities.pop()
    return _bracket_parity(word, gens)


def _bracket_parity(word, gens: GradedGenSet) -> int:
    """The parity of a bracket word, which it validates."""
    if isinstance(word, str):
        for label, par in gens.generators:
            if label == word:
                return par
        raise KeyError(f"unknown generator {word!r}")
    if isinstance(word, dict):
        raise ValueError(f"a sum may stand only as a relator or as the word of a sum term: {word!r}")
    if not (isinstance(word, (list, tuple)) and len(word) == 2):
        raise ValueError(f"a bracket word is a label or a pair: {word!r}")
    return (_bracket_parity(word[0], gens) + _bracket_parity(word[1], gens)) % 2


class FreeTruncation:
    """Components of the free Lie superalgebra over Q up to a degree bound,
    with the structure constants of the corresponding free nilpotent
    quotient."""

    def __init__(self, gens: GradedGenSet, max_degree: int):
        if gens.count > MAX_GENERATORS:
            raise TruncationOutOfRange(
                f"{gens.count} generators given; at most {MAX_GENERATORS} are supported")
        if not 1 <= max_degree <= MAX_DEGREE:
            raise TruncationOutOfRange(f"degree must be between 1 and {MAX_DEGREE}")
        self.gens = gens
        self.max_degree = max_degree
        self._algebra = None
        # V^{(x) k} for k = 0..max_degree, in the row-major basis of
        # spaces.tensor_space
        V = superspace(QQ, gens.generators)
        self.field = field = V.field
        self.powers = [tensor_power_space(V, k) for k in range(max_degree + 1)]
        # degree components inside V^{(x) k}: spans of left-normed commutators
        self.components: list[Subspace] = [Subspace(field, 1, [])]
        deg1 = [({i: 1}, p) for i, p in enumerate(V.parities)]
        self.components.append(Subspace.full(field, V.dim))
        prev = deg1  # (vector in V^{(x)(k-1)}, parity)
        for k in range(2, max_degree + 1):
            acc = Echelon(field, self.powers[k].dim)
            new_vs = []
            for w, pw in prev:
                for v, pg in deg1:
                    c = self._supercommutator(w, pw, v, pg, k - 1, 1)
                    if c and acc.insert(c):
                        new_vs.append((c, (pw + pg) % 2))
            self.components.append(acc.subspace())
            prev = new_vs
        # the basis of the truncated algebra: degree k starts at offsets[k]
        self.offsets = [0, *accumulate(c.dim for c in self.components)]

    def _supercommutator(self, u: dict, pu: int, v: dict, pv: int, du: int, dv: int) -> dict:
        """[u, v] = u(x)v - (-1)^{|u||v|} v(x)u inside V^{(x)(du+dv)}."""
        P = self.powers
        out = tensor_vec(P[du], P[dv], u, v)
        vec_axpy(out, 1 if pu * pv else -1, tensor_vec(P[dv], P[du], v, u))
        return out

    def dims(self) -> list[int]:
        """Component dimensions for degrees 1..max_degree."""
        return [self.components[k].dim for k in range(1, self.max_degree + 1)]

    # -- the truncated algebra -----------------------------------------

    def algebra(self) -> LieSuperAlgebra:
        """The free nilpotent quotient of class max_degree (memoized)."""
        if self._algebra is not None:
            return self._algebra
        labels: list[str] = []
        parities: list[int] = []
        basis: list[tuple[int, dict]] = []  # (degree, vector in V^{(x) degree})
        for k in range(1, self.max_degree + 1):
            for t, row in enumerate(self.components[k].rows):
                labels.append(self.gens.generators[t][0] if k == 1 else f"w{k}.{t}")
                parities.append(self.powers[k].parities[min(row)])
                basis.append((k, row))

        def rows():
            # the pairs above the class bound are pruned before any work
            for a, (ka, row_a) in enumerate(basis):
                row = {}
                for b in range(a + 1 - parities[a], len(basis)):
                    kb, row_b = basis[b]
                    k = ka + kb
                    if k > self.max_degree:
                        break  # the basis is in degree order
                    prod = self._supercommutator(row_a, parities[a], row_b, parities[b], ka, kb)
                    coords = self.components[k].coords(prod)
                    if coords is None:
                        raise RuntimeError("free component is not closed under brackets")
                    off = self.offsets[k]
                    row[b] = {off + i: c for i, c in coords.items()}
                yield row

        name = f"free({','.join(l for l, _ in self.gens.generators)};c{self.max_degree})"
        sp = SuperSpace(self.field, tuple(labels), tuple(parities))
        self._algebra = LieSuperAlgebra.from_bracket(sp, rows(), name)
        return self._algebra

    def evaluate_word(self, word) -> tuple[int, int, dict]:
        """Evaluate a bracket word, which it validates as :func:`word_parity`
        does; returns (degree, parity, vector in V^{(x)degree})."""
        _bracket_parity(word, self.gens)
        return self._evaluate(word)

    def _evaluate(self, word) -> tuple[int, int, dict]:
        if isinstance(word, str):
            for i, (label, par) in enumerate(self.gens.generators):
                if label == word:
                    return 1, par, {i: 1}
        a, b = word
        da, pa, va = self._evaluate(a)
        db, pb, vb = self._evaluate(b)
        if da + db > self.max_degree:
            raise DegreeOverflow(f"word degree {da + db} exceeds truncation {self.max_degree}")
        return da + db, (pa + pb) % 2, self._supercommutator(va, pa, vb, pb, da, db)

    def word_to_algebra_vec(self, word) -> dict:
        """Coordinates of a relator, a bracket word or a scalar combination
        of relators, which it validates with :func:`word_parity`, in the
        truncated algebra basis."""
        word_parity(word, self.gens)
        return self._algebra_vec(word)

    def _algebra_vec(self, word) -> dict:
        if isinstance(word, dict):
            out: dict = {}
            for term in word["sum"]:
                c = self.field.parse(str(term["coeff"]))
                for k, v in self._algebra_vec(term["word"]).items():
                    out[k] = out.get(k, 0) + c * v
            return self.field.clean(out)
        k, _, v = self._evaluate(word)
        if not v:
            return {}
        coords = self.components[k].coords(v)
        if coords is None:
            raise RuntimeError("word evaluates outside its free component")
        off = self.offsets[k]
        return {off + i: c for i, c in coords.items()}


def free_truncated(gens: GradedGenSet, d: int) -> FreeTruncation:
    return FreeTruncation(gens, d)


def free_nilpotent(gens: GradedGenSet, c: int) -> LieSuperAlgebra:
    return FreeTruncation(gens, c).algebra()


@record
class Presentation:
    """Generators with parities and relator bracket words (each parity
    homogeneous); presents the class-bounded quotient F/(relators + gamma_{c+1})."""

    gens: GradedGenSet
    relators: tuple

    def __post_init__(self):
        for w in self.relators:
            word_parity(w, self.gens)  # validates shapes, coefficients, labels and homogeneity


@record
class MillerReport:
    ok: bool
    kernel_dims: tuple[int, int]
    truncation_dims: tuple[int, int]
    class_bound: int


def miller_truncated_check(gens: GradedGenSet, c: int) -> MillerReport:
    """Truncation-corrected injectivity of x ^ y -> [x, y] on free objects:
    on the free nilpotent quotient of class c the kernel of the exterior
    square over the bracket consists exactly of the brackets destroyed by
    the truncation, so its dimension equals the degree-(c+1) component of
    the free Lie superalgebra."""
    from .homology import h2_via_exterior

    trunc = free_truncated(gens, c + 1)
    kernel_dims = h2_via_exterior(FreeTruncation(gens, c).algebra()).dims
    top = trunc.powers[c + 1].split_dims(trunc.components[c + 1].rows)
    return MillerReport(kernel_dims == top, kernel_dims, top, c)
