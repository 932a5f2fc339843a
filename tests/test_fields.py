from fractions import Fraction

import pytest

from superlie.fields import Field, FieldError, QQ


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
