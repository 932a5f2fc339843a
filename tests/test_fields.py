import time
from fractions import Fraction

import pytest

from superlie.fields import _PRIME_BOUND, Field, FieldError, QQ, _is_prime


def test_rationals_parse_format_roundtrip():
    for s in ["0", "5", "-3", "3/4", "-7/2"]:
        v = QQ.parse(s)
        assert QQ.format(v) == s


def test_fraction_normalization():
    assert QQ.parse("6/4") == Fraction(3, 2)
    assert QQ.format(Fraction(6, 4)) == "3/2"
    assert QQ.format(Fraction(-6, 4)) == "-3/2"


def test_prime_field_residues():
    F5 = Field(5)
    assert F5.parse("7") == 2
    assert F5.parse("-1") == 4
    assert F5.parse("1/2") == 3  # 2 * 3 = 6 = 1 mod 5
    assert F5.format(F5.parse("12")) == "2"


def test_field_validation():
    with pytest.raises(FieldError):
        Field(4)
    with pytest.raises(FieldError):
        Field(2)
    Field(3)
    Field(97)


def _trial_division(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_primality_agrees_with_trial_division_below_100000():
    assert [n for n in range(10 ** 5) if _is_prime(n)] == \
        [n for n in range(10 ** 5) if _trial_division(n)]


@pytest.mark.parametrize("n, factor", [(3215031751, 151), (2152302898747, 6763),
                                       (10 ** 18 + 1, 101)])
def test_strong_pseudoprimes_to_small_bases_are_composite(n, factor):
    """3215031751 is a strong pseudoprime to the bases 2, 3, 5 and 7, and
    2152302898747 to the bases 2 to 11; 10^18 + 1 is 101 * 9901 * ..."""
    assert n % factor == 0 and not _is_prime(n)
    with pytest.raises(FieldError, match="is not prime"):
        Field(n)


def test_large_prime_moduli_are_accepted_in_bounded_time():
    start = time.perf_counter()
    assert Field(10 ** 18 + 3).p == 10 ** 18 + 3
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("p", [_PRIME_BOUND, _PRIME_BOUND + 2, 10 ** 4000])
def test_moduli_at_or_above_the_exact_bound_are_refused(p):
    """The bound is the least strong pseudoprime to every base the test
    uses, so it is refused as out of range, not accepted as prime."""
    with pytest.raises(FieldError, match=f"modulus must be below {_PRIME_BOUND}"):
        Field(p)


def test_parse_errors():
    with pytest.raises(FieldError):
        QQ.parse("abc")
    with pytest.raises(FieldError):
        QQ.parse("1/0")


def test_value_classes_build_compare_and_freeze_like_dataclasses():
    """The package's value classes: fields by position or keyword, those of
    a base class first; defaults, a list default fresh for each instance;
    ``__post_init__`` checks; ``==`` field by field and a repr; and for the
    frozen ones a hash and no assignment."""
    from superlie.algebras import AxiomReport, Violation, heisenberg
    from superlie.freelie import genset
    from superlie.homology import ChainComplex, ComplexInconsistent, ce_complex, trivial_module
    from superlie.spaces import GradedMap, SuperSpace

    v = Violation("jacobi", (0, 1, 2), {0: 1})
    assert v == Violation(kind="jacobi", defect={0: 1}, witness=(0, 1, 2)) != AxiomReport(False, [v])
    assert repr(v) == "Violation(kind='jacobi', witness=(0, 1, 2), defect={0: 1})"
    a, b = AxiomReport(True), AxiomReport(True)
    a.violations.append(v)
    assert b.violations == [] and a != b
    for bad in ((), ("jacobi", (), {}, 1)):
        with pytest.raises(TypeError):
            Violation(*bad)
    with pytest.raises(TypeError):
        Violation("jacobi", (), {}, kind="x")
    with pytest.raises(TypeError):
        Violation("jacobi", (), {}, extra=1)
    with pytest.raises(TypeError):
        hash(a)

    H = heisenberg(QQ)
    cx = ce_complex(H, trivial_module(H), 3)
    fields = ("boundaries", "p", "module", "spaces", "chains")
    assert ChainComplex(*(getattr(cx, f) for f in fields)) == cx
    line = GradedMap.identity(SuperSpace(QQ, ("x",), (0,)))
    with pytest.raises(ComplexInconsistent, match="d_1 . d_2 != 0"):
        ChainComplex(**{f: getattr(cx, f) for f in fields[1:]}, boundaries=[None, line, line])

    for value, field, other in ((Field(5), "p", 7),
                                (SuperSpace(QQ, ("x", "y"), (0, 1)), "labels", ("z",)),
                                (genset([("x", 0)]), "generators", ())):
        twin = type(value)(**{f: getattr(value, f) for f in vars(value)})
        assert twin == value and hash(twin) == hash(value) and {twin: 1}[value] == 1
        with pytest.raises(AttributeError):
            setattr(value, field, other)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert repr(Field(5)) == "Field(p=5)"
    with pytest.raises(ValueError, match="duplicate generator labels"):
        genset([("x", 0), ("x", 1)])
