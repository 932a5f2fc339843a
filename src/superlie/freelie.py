"""Degree-truncated free Lie superalgebras and presentations.

The free Lie superalgebra F on a graded generating set V = <x_0 < ... <
x_{n-1}> embeds into its tensor superalgebra in characteristic zero, so
F is the Lie subalgebra of T(V) generated by V, with [u, v] = u (x) v -
(-1)^{|u||v|} v (x) u, and its degree-k component F_k lives in V^{(x) k},
whose basis words are indexed row-major as ``spaces.tensor_index`` reads
them: on words of one length, index order is lex order.

Basis.  The degree-k basis is the super-Lyndon words of length k: the
Lyndon words, enumerated by Duval's algorithm (J. Algorithms 4, 1983),
and the squares ww of the odd Lyndon words w (Reutenauer, Free Lie
Algebras, 1993; Bahturin, Mikhalev, Petrogradsky and Zaicev,
Infinite-Dimensional Lie Superalgebras, 1992), in lex order.  The
element of a Lyndon word w of length >= 2 is P_w = [P_u, P_v] over its
standard factorization w = uv, v the longest proper Lyndon suffix (u is
then Lyndon and u < v); that of a square is P_ww = [P_w, P_w] = 2 P_w
P_w.  The least word of P_w is w (P_u P_v leads with 1 uv, and uv < vu,
the least word of P_v P_u), so P_w is w plus greater words of its length.

Bracket table.  [e_u, e_v] = e_w over the factorization of each basis
word w, so those pairs are read off the definitions (with the sign of
graded antisymmetry when the factors are stored in the other order:
290 of the 485 pairs of the class-5 cover on four even generators).
Every other pair, and every relator, is formed in V^{(x) k} and reduced
on leading words: subtract c P_t while the remainder leads with the word
t of a basis element.

Certificate.  Two runtime checks certify the cover, without the basis
theorem: every P_w built is checked to lead with w, and a reduction
whose remainder leads with a word that is no basis word raises ``free
component is not closed under brackets``.  Independence: the leading
words of one degree are distinct, so the P_w are triangular on them.
Span: let S_k be the span of the degree-k basis, so S_k <= F_k, each P_w
being a bracket of generators.  F_1 = V = S_1, and F_k is spanned by the
[g, y] with g a generator and y in F_{k-1} = S_{k-1}; each stored pair
[e_g, e_b] is a definition or a reduction that ended at 0, so it lies in
S_k, and F_k = S_k by induction.  The stored brackets are then the
structure constants of F in this basis, and dropping the pairs above the
class bound gives F/gamma_{c+1}.  An oracle in the test suite builds the
same cover by elimination of left-normed commutators in V^{(x) k}, and
another the component dimensions by a magma quotient.  The field enters
only as Q."""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import accumulate

from .algebras import LieSuperAlgebra
from .fields import QQ, InputError, MathError, frozen_record, record
from .io import _require_keys
from .linalg import Subspace, vec_axpy
from .spaces import SuperSpace


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
    on the super-Lyndon basis ``words`` (degree k from ``offsets[k]``), with
    the structure constants of the free nilpotent quotient; a P_w is built
    only when the table or a relator needs it (module docstring)."""

    def __init__(self, gens: GradedGenSet, max_degree: int):
        if gens.count > MAX_GENERATORS:
            raise TruncationOutOfRange(
                f"{gens.count} generators given; at most {MAX_GENERATORS} are supported")
        if not 1 <= max_degree <= MAX_DEGREE:
            raise TruncationOutOfRange(f"degree must be between 1 and {MAX_DEGREE}")
        self.gens = gens
        self.max_degree = max_degree
        self.field = QQ
        self._algebra = None
        n, par = gens.count, [p for _, p in gens.generators]
        parity = lambda w: sum(par[i] for i in w) % 2  # noqa: E731
        lyndon = set(_lyndon_words(n, max_degree))
        # (length, lex) order: on one length, lex order is the row-major order
        self.words = sorted(lyndon | {w + w for w in lyndon if parity(w) and 2 * len(w) <= max_degree},
                            key=lambda w: (len(w), w))
        self._parity = [parity(w) for w in self.words]
        self.offsets = [0, *accumulate(sum(len(w) == k for w in self.words) for k in range(max_degree + 1))]
        labels = [gens.generators[w[0]][0] if len(w) == 1 else f"w{len(w)}.{i - self.offsets[len(w)]}"
                  for i, w in enumerate(self.words)]
        self.components = [SuperSpace(QQ, tuple(labels[a:b]), tuple(self._parity[a:b]))
                           for a, b in zip(self.offsets, self.offsets[1:])]
        index = {w: i for i, w in enumerate(self.words)}
        # (u, v) with P_w = [P_u, P_v]: the standard factorization, v the
        # longest proper Lyndon suffix, or u = v for a square
        self._factors = [None if len(w) == 1 else
                         (index[w[:len(w) // 2]],) * 2 if w not in lyndon else
                         next((index[w[:j]], index[w[j:]]) for j in range(1, len(w)) if w[j:] in lyndon)
                         for w in self.words]
        # per degree k, the row-major index of each basis word in V^{(x) k} -> its basis index
        self._lead = [{reduce(lambda t, letter: t * n + letter, self.words[i], 0): i for i in range(a, b)}
                      for a, b in zip(self.offsets, self.offsets[1:])]
        self._tensors = {g: {g: 1} for g in range(n)}

    def _supercommutator(self, u: dict, pu: int, v: dict, pv: int, du: int, dv: int) -> dict:
        """[u, v] = u(x)v - (-1)^{|u||v|} v(x)u inside V^{(x)(du+dv)}, the
        word index row-major as in ``spaces.tensor_index``."""
        nu, nv = self.gens.count ** du, self.gens.count ** dv
        out = {i * nv + j: a * b for i, a in u.items() for j, b in v.items()}
        vec_axpy(out, 1 if pu * pv else -1, {j * nu + i: b * a for j, b in v.items() for i, a in u.items()})
        return out

    def _tensor(self, i: int) -> dict:
        """P_w for the basis word w = words[i] (memoized), certified to
        have w as its least word."""
        P = self._tensors.get(i)
        if P is None:
            a, b = self._factors[i]
            wa, wb = self.words[a], self.words[b]
            P = self._supercommutator(self._tensor(a), self._parity[a], self._tensor(b),
                                      self._parity[b], len(wa), len(wb))
            if self._lead[len(wa) + len(wb)].get(min(P, default=None)) != i:
                raise RuntimeError(f"the bracket of basis word {self.words[i]} does not lead with it")
            self._tensors[i] = P
        return P

    def _coords(self, v: dict, k: int) -> dict:
        """The coordinates of v in V^{(x) k}, which it consumes, read off
        leading words; RuntimeError when the remainder leads with no basis word."""
        lead, out = self._lead[k], {}
        while v:
            m = min(v)
            i = lead.get(m)
            if i is None:
                raise RuntimeError("free component is not closed under brackets")
            P = self._tensor(i)
            out[i] = c = QQ.of(v[m] if P[m] == 1 else Fraction(v[m], P[m]))
            vec_axpy(v, -c, P)
        return out

    def dims(self) -> list[int]:
        """Component dimensions for degrees 1..max_degree."""
        return [self.components[k].dim for k in range(1, self.max_degree + 1)]

    def derived_subspace(self) -> Subspace:
        """[F, F] in the free nilpotent quotient: the span of the basis
        words of length >= 2, as canonical unit rows, with no elimination
        (the reason is in :func:`homology.hopf_formula`)."""
        dim = self.offsets[-1]
        return Subspace(QQ, dim, [{i: 1} for i in range(self.offsets[2], dim)], _canonical=True)

    # -- the truncated algebra -----------------------------------------

    def algebra(self) -> LieSuperAlgebra:
        """The free nilpotent quotient of class max_degree (memoized)."""
        if self._algebra is not None:
            return self._algebra
        par, degree, top = self._parity, [len(w) for w in self.words], self.max_degree
        # [e_u, e_v] = e_w, stored at (v, u) with the sign of antisymmetry when v < u
        defined = {(min(f), max(f)): {w: 1 if f[0] <= f[1] or par[f[0]] * par[f[1]] else -1}
                   for w, f in enumerate(self._factors) if f is not None}

        def rows():
            # the pairs above the class bound are pruned before any work
            for a in range(len(self.words)):
                row = {}
                for b in range(a + 1 - par[a], len(self.words)):
                    k = degree[a] + degree[b]
                    if k > top:
                        break  # the basis is in degree order
                    row[b] = defined.get((a, b)) or self._coords(self._supercommutator(
                        self._tensor(a), par[a], self._tensor(b), par[b], degree[a], degree[b]), k)
                yield row

        name = f"free({','.join(l for l, _ in self.gens.generators)};c{top})"
        sp = SuperSpace(QQ, tuple(l for c in self.components for l in c.labels), tuple(par))
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
        return self._coords(v, k)


def _lyndon_words(n: int, top: int):
    """The Lyndon words over 0..n-1 of length at most top, by Duval's algorithm."""
    w = [-1] if n else []
    while w:
        w[-1] += 1
        yield tuple(w)
        m = len(w)
        while len(w) < top:
            w.append(w[-m])
        while w and w[-1] == n - 1:
            w.pop()


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
    top = trunc.components[c + 1].dim_pair
    return MillerReport(kernel_dims == top, kernel_dims, top, c)
