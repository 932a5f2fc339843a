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
