"""The consequences of the crossed module axioms are theorems, not checks.

``check_crossed`` certifies the action axioms, the boundary a Lie
homomorphism, equivariance and Peiffer, and stops there: Ker d central,
Im d a graded ideal and Ker d a module over Coker d follow from a pass,
as its docstring proves.  These tests guard the proof.  They perturb one
action or boundary constant at a time of crossed modules over Q, F3, F5
and F7, evaluate the three consequences densely with the axioms ungated
(``oracles.crossed_consequences_dense``), and assert that whenever a
consequence fails, ``check_crossed`` fails too, and that every kind of
consequence breaks somewhere.  Two crossed modules that fail only Peiffer
or only equivariance pin the consequence that rests on each.  A crossed
module whose parts do not fit together is refused with ``ValueError``.
"""

import pytest

from oracles import PRIMES, crossed_consequences_dense
from superlie.actions import (
    Action,
    CrossedModule,
    adjoint_action,
    check_crossed,
    identity_crossed,
    ideal_crossed,
    trivial_action,
)
from superlie.algebras import (
    abelian,
    ground_assoc,
    heisenberg,
    matrix_gl,
    matrix_sl,
    series,
    subalgebra_on,
)
from superlie.cyclic import grassmann_line
from superlie.fields import Field
from superlie.linalg import Matrix
from superlie.spaces import GradedMap
from superlie.suites import standard_crossed_ses
from superlie.tensor import adjoint_tensor_square


def crossed_modules(F: Field):
    """The identity crossed modules of heis, gl(1|1) and sl(2|1, Lambda1),
    the inclusion of the center of heis, and (mu) of the adjoint square of
    gl(1|1)."""
    heis = heisenberg(F)
    gl11 = matrix_gl(1, 1, ground_assoc(F))
    sl21 = matrix_sl(2, 1, grassmann_line(F)).algebra
    yield from (identity_crossed(L) for L in (heis, gl11, sl21))
    yield ideal_crossed(heis, subalgebra_on(heis, series(heis).center, name="Z"))
    yield adjoint_tensor_square(gl11).cross_m


def perturbations(c: CrossedModule):
    """Copies of c with one action constant, or one boundary constant,
    raised by 1 or dropped, each in the field's normal form."""
    field, table, d = c.m.field, c.action.table, c.boundary
    for delta in (1, None):
        for key in table:
            for k in table[key]:
                changed = {key2: dict(v) for key2, v in table.items()}
                changed[key][k] = changed[key][k] + delta if delta else 0
                yield CrossedModule(c.m, c.p, d, Action(c.p, c.m, changed))
        for j, col in enumerate(d.matrix.cols):
            for i in col:
                cols = [dict(v) for v in d.matrix.cols]
                cols[j][i] = cols[j][i] + delta if delta else 0
                cols[j] = field.clean(cols[j])
                boundary = GradedMap(d.source, d.target, Matrix(field, d.target.dim, cols))
                yield CrossedModule(c.m, c.p, boundary, c.action)


KINDS = {"kernel-not-central", "image-not-ideal", "kernel-module"}


def broken_consequences(cases) -> set[str]:
    """The kinds of consequence that some perturbation of ``cases``
    breaks, after asserting that check_crossed passes each case and
    refuses each perturbation that breaks one."""
    broken = set()
    for c in cases:
        assert check_crossed(c).ok and not crossed_consequences_dense(c)
        for bad in perturbations(c):
            if kinds := {v.kind for v in crossed_consequences_dense(bad)}:
                broken |= kinds
                assert not check_crossed(bad).ok
    return broken


@pytest.mark.parametrize("p", PRIMES)
def test_a_broken_consequence_fails_the_axioms(p):
    assert broken_consequences(crossed_modules(Field(p))) == KINDS


def test_a_broken_consequence_of_a_crossed_ses_fails_the_axioms():
    """The three crossed modules of each sequence of the snake suite, over Q."""
    cases = [cm for _, ses in standard_crossed_ses() for cm in (ses.l, ses.m, ses.n)]
    assert broken_consequences(cases) == KINDS


@pytest.mark.parametrize("p", PRIMES)
def test_each_consequence_rests_on_its_axiom(p):
    """Two crossed modules over heis that fail one axiom each.  The zero
    boundary of heis itself, with the trivial action, fails only Peiffer,
    and its kernel is not central.  The line spanned by x, mapped in with
    the trivial action, fails only equivariance, and its image is not an
    ideal."""
    F = Field(p)
    h, line = heisenberg(F), abelian(F, 1, 0)
    zero = CrossedModule(h, h, GradedMap.zero(h.space, h.space), trivial_action(h, h))
    x = CrossedModule(line, h, GradedMap.from_columns(line.space, h.space, [{0: 1}]),
                      trivial_action(h, line))
    for c, axiom, consequence in ((zero, "peiffer", "kernel-not-central"),
                                  (x, "equivariance", "image-not-ideal")):
        assert {v.kind for v in check_crossed(c).violations} == {axiom}
        assert {v.kind for v in crossed_consequences_dense(c)} == {consequence}


def test_a_boundary_into_another_space_is_refused():
    """A boundary from heis into a 5-dimensional space used to end in an
    IndexError inside the certificate."""
    F = Field(None)
    h = heisenberg(F)
    d = GradedMap.from_columns(h.space, abelian(F, 5, 0).space, [{3: 1}, {4: 1}, {}])
    with pytest.raises(ValueError, match="boundary does not map M to P"):
        check_crossed(CrossedModule(h, h, d, adjoint_action(h)))


@pytest.mark.parametrize("actor", ["abelian", "copy"])
def test_an_action_of_another_algebra_is_refused(actor):
    """An action of another algebra object on heis used to be reported as
    equivariance and Peiffer faults, or to pass when the other object
    equals heis."""
    F = Field(None)
    h = heisenberg(F)
    other = abelian(F, 3, 0) if actor == "abelian" else heisenberg(F)
    c = CrossedModule(h, h, GradedMap.identity(h.space), adjoint_action(other))
    with pytest.raises(ValueError, match="not an action of P on M"):
        check_crossed(c)
