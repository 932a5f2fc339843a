"""Exact scalar arithmetic over the rationals and odd prime fields.

Scalars are plain Python objects: canonical residues ``0..p-1`` over a
prime field; over the rationals an ``int`` when the value is integral and
a ``fractions.Fraction`` only when it is not.  ``Field.of``, ``inv``,
``div`` and ``parse`` return this normal form, never ``Fraction(n, 1)``,
and so do the pivot-1 rows of ``linalg``, so integral structure constants
and subspace bases stay in ``int`` arithmetic.  Plain ``+``/``*`` on the
scalars may still give ``Fraction(n, 1)``, which equals and formats as
``n``.  A :class:`Field` value carries the choice and provides parsing,
formatting and the few operations that are not just ``+``/``*``
(inversion, canonicalization of scalars and of sparse vectors).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class FieldError(ValueError):
    """Invalid field specification or a scalar that does not parse in it."""


def _rational(value: Fraction) -> Fraction | int:
    """The normal form of a rational: its numerator when it is integral."""
    return value.numerator if value.denominator == 1 else value


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class Field:
    """The ground field: the rationals (``p is None``) or GF(p), p an odd prime."""

    p: int | None = None

    def __post_init__(self):
        if self.p is not None:
            if not _is_prime(self.p):
                raise FieldError(f"modulus {self.p} is not prime")
            if self.p == 2:
                raise FieldError("characteristic 2 is not supported")

    def __str__(self) -> str:
        return "Q" if self.p is None else f"F{self.p}"

    # -- scalar construction ------------------------------------------

    def of(self, value) -> Fraction | int:
        """Canonicalize an int / Fraction into this field."""
        if self.p is None:
            return value if isinstance(value, int) else _rational(Fraction(value))
        if isinstance(value, Fraction):
            num, den = value.numerator, value.denominator
            return num * pow(den, -1, self.p) % self.p
        return value % self.p

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:

        return 1

    def inv(self, value):
        if self.p is None:
            if value == 0:
                raise ZeroDivisionError("inverse of zero")
            return _rational(1 / Fraction(value))
        v = value % self.p
        if v == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(v, -1, self.p)

    def div(self, a, b):
        if self.p is None:
            return _rational(Fraction(a) / Fraction(b))
        return a * self.inv(b) % self.p

    def neg(self, a):
        return -a if self.p is None else (-a) % self.p

    def reduce(self, a):
        """Normal form of a scalar (mod p, or exact Fraction/int)."""
        return a if self.p is None else a % self.p

    def is_zero(self, a) -> bool:
        return a == 0 if self.p is None else a % self.p == 0

    def clean(self, v: dict) -> dict:
        """A sparse vector in normal form: scalars reduced, zero entries dropped."""
        if self.p is None:
            return {k: c for k, c in v.items() if c}
        p = self.p
        return {k: c % p for k, c in v.items() if c % p}

    # -- string round trip --------------------------------------------

    def parse(self, text: str):
        """Parse ``"a"`` or ``"a/b"`` (reduced, b > 0 on output)."""
        text = text.strip()
        try:
            if "/" in text:
                if self.p is not None:
                    num, den = text.split("/")
                    return self.of(Fraction(int(num), int(den)))
                return _rational(Fraction(text))
            n = int(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise FieldError(f"cannot parse scalar {text!r} over {self}") from exc
        return self.of(n)

    def format(self, value) -> str:
        if self.p is None:
            f = Fraction(value)
            return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
        return str(value % self.p)


QQ = Field()
