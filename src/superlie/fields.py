"""Exact scalar arithmetic over the rationals and odd prime fields.

Scalars are plain Python objects: canonical residues ``0..p-1`` over a
prime field; over the rationals an ``int`` when the value is integral and
a ``fractions.Fraction`` only when it is not.  ``Field.of`` and ``parse``
return this normal form, never ``Fraction(n, 1)``, and so do the pivot-1
rows of ``linalg``, so integral structure constants and subspace bases
stay in ``int`` arithmetic.  Plain ``+``/``*`` on the scalars may still
give ``Fraction(n, 1)``, which equals and formats as ``n``.  A
:class:`Field` value carries the choice and provides parsing, formatting
and the few operations that are not just ``+``/``*`` (negation,
canonicalization of scalars and of sparse vectors).

:func:`record` and :func:`frozen_record` declare the package's value
classes, :class:`Field` among them.  They replace ``dataclasses``, whose
import (it loads ``inspect`` and ``ast``) and generated methods took more
of each command-line process than some commands compute.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter


class InputError(ValueError):
    """An input the program refuses: a malformed file, scalar or request.
    The command line exits 2 on it."""


class MathError(Exception):
    """A mixin for the mathematical failures of valid input, such as a
    product that is not well defined.  The command line exits 1 on them."""


class FieldError(InputError):
    """Invalid field specification or a scalar that does not parse in it."""


def record(cls):
    """Make cls a record of its annotated fields, those of its bases first,
    as ``@dataclass`` would: a constructor that takes them by position or
    keyword and then calls ``__post_init__`` if the class has one, ``==``
    field by field between instances of one class, and a repr.  A field's
    class attribute is its default; a list default is copied for each
    instance.  Records are not hashable; ``__match_args__`` names the fields."""
    names = tuple(dict.fromkeys(name for c in reversed(cls.__mro__)
                                for name in vars(c).get("__annotations__", ())))
    required = frozenset(names)
    defaults = {name: getattr(cls, name) for name in names if hasattr(cls, name)}
    values = attrgetter(*names)
    post_init = getattr(cls, "__post_init__", None)
    set_field = object.__setattr__

    def __init__(self, *args, **kwargs):
        given = dict(zip(names, args))
        if len(args) > len(names) or given.keys() & kwargs.keys():
            raise TypeError(f"{cls.__name__}() takes the fields {names}, "
                            f"got {len(args)} positional and {sorted(kwargs)}")
        given.update(kwargs)
        for name, default in defaults.items():
            if name not in given:
                given[name] = list(default) if isinstance(default, list) else default
        if given.keys() != required:
            raise TypeError(f"{cls.__name__}() takes the fields {names}, got {sorted(given)}")
        for name in names:  # in field order, so instances share one key table
            set_field(self, name, given[name])
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values(self) == values(other)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{type(self).__qualname__}({fields})"

    cls.__init__, cls.__eq__, cls.__repr__, cls.__hash__ = __init__, __eq__, __repr__, None
    cls.__match_args__ = names
    return cls


def frozen_record(cls):
    """A :func:`record` whose attributes cannot be assigned or deleted,
    hashed by its fields."""
    record(cls)
    values = attrgetter(*cls.__match_args__)

    def forbid(self, name, *value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is frozen")

    cls.__hash__ = lambda self: hash(values(self))
    cls.__setattr__ = cls.__delattr__ = forbid
    return cls


def _rational(value: Fraction) -> Fraction | int:
    """The normal form of a rational: its numerator when it is integral."""
    return value.numerator if value.denominator == 1 else value


# Miller-Rabin with the prime bases up to 41 is exact below _PRIME_BOUND,
# the least composite that is a strong pseudoprime to all of them
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Whether n < _PRIME_BOUND is prime, by deterministic Miller-Rabin."""
    if n < 2:
        return False
    for b in _PRIME_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _PRIME_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@frozen_record
class Field:
    """The ground field: the rationals (``p is None``) or GF(p), p an odd prime."""

    p: int | None = None

    def __post_init__(self):
        if self.p is not None:
            if self.p >= _PRIME_BOUND:
                raise FieldError(f"modulus must be below {_PRIME_BOUND}, where the primality test is exact")
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

    def neg(self, a):
        return -a if self.p is None else (-a) % self.p

    def reduce(self, a):
        """Normal form of a scalar (mod p, or exact Fraction/int)."""
        return a if self.p is None else a % self.p

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
