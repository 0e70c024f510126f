"""Exact scalars of the completed tropical semifield.

Two isomorphic models are supported and kept strictly apart:

* max-plus:  (Q + {-oo}, max, +) with neutral elements -oo and 0,
* max-times: (Q>0 + {0}, max, *) with neutral elements 0 and 1.

A scalar is Bottom (the additive unit, written ``zero``), a Finite
exact rational payload, or Top (``inf``).  Scalars carry their model so
that cross-model arithmetic raises instead of silently mixing semantics.
All payloads are `fractions.Fraction`; every comparison is exact and
there is no floating point anywhere in the core.

Top obeys the completed-semifield conventions, in particular
Bottom * Top = Bottom, and never appears inside vectors; it exists only
for boundary-set bookkeeping.
"""

from __future__ import annotations

import enum
import functools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

RationalLike = Union[Fraction, int, str]

_BOT = 0
_FIN = 1
_TOP = 2


class Model(enum.Enum):
    """Each model's payload arithmetic, defined here only: on finite
    payloads `mul` is the product and `inv` its inverse, `unit` is the
    unit's payload and `two` that of the model's two.  `pair_mul(a, b,
    c, d)` is `mul` on the integer pairs of a/b and c/d (b, d > 0): an
    unreduced (numerator, positive denominator) pair of the product."""

    MAX_PLUS = ("max-plus", operator.add, operator.neg, 0, 1,
                (lambda a, b, c, d: (a * d + c * b, b * d)))
    MAX_TIMES = ("max-times", operator.mul, (lambda q: 1 / q), 1, 2,
                 (lambda a, b, c, d: (a * c, b * d)))

    def __new__(cls, text, mul, inv, unit, two, pair_mul):
        model = object.__new__(cls)
        model._value_ = text
        model.mul, model.inv, model.unit, model.two = mul, inv, Fraction(unit), Fraction(two)
        model.pair_mul = pair_mul
        return model

    def two_power(self, k: int) -> Fraction:
        """The payload of two to the k-th power (k may be negative)."""
        step = self.two if k >= 0 else self.inv(self.two)
        return functools.reduce(self.mul, [step] * abs(k), self.unit)

    @classmethod
    def parse(cls, text: str) -> "Model":
        for m in cls:
            if m.value == text:
                return m
        raise ValueError(f"unknown model {quote_token(text)} (expected 'max-plus' or 'max-times')")


class ModelMismatchError(ValueError):
    """Raised when scalars from different models meet in one operation."""


class InternalInconsistencyError(RuntimeError):
    """A structural theorem failed on validated data; this is a bug, not bad input."""


@dataclass(frozen=True)
class TScalar:
    """One element of the completed tropical semifield."""

    model: Model
    kind: int
    payload: Fraction | None = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def bottom(model: Model) -> "TScalar":
        return TScalar(model, _BOT)

    @staticmethod
    def top(model: Model) -> "TScalar":
        return TScalar(model, _TOP)

    @staticmethod
    def finite(model: Model, value: RationalLike) -> "TScalar":
        q = Fraction(value)
        if model is Model.MAX_TIMES and q <= 0:
            raise ValueError(f"max-times payload must be a positive rational, got {q}")
        return TScalar(model, _FIN, q)

    @staticmethod
    def unit(model: Model) -> "TScalar":
        return TScalar(model, _FIN, model.unit)

    @staticmethod
    def of_payload(model: Model, q: Fraction | None) -> "TScalar":
        """The scalar of a valid vector payload; None is Bottom."""
        return TScalar(model, _BOT) if q is None else TScalar(model, _FIN, q)

    # -- predicates ----------------------------------------------------

    @property
    def is_bottom(self) -> bool:
        return self.kind == _BOT

    @property
    def is_finite(self) -> bool:
        return self.kind == _FIN

    @property
    def is_top(self) -> bool:
        return self.kind == _TOP

    # -- total order: Bottom < every Finite < Top ----------------------

    def _key(self):
        return (self.kind, self.payload if self.kind == _FIN else Fraction(0))

    def __lt__(self, other: "TScalar") -> bool:
        _require_same_model(self, other)
        return self._key() < other._key()

    def __le__(self, other: "TScalar") -> bool:
        _require_same_model(self, other)
        return self._key() <= other._key()

    def __gt__(self, other: "TScalar") -> bool:
        return other < self

    def __ge__(self, other: "TScalar") -> bool:
        return other <= self

    def __repr__(self) -> str:
        return f"TScalar({self.model.value}, {format_scalar(self)})"


def _require_same_model(a: TScalar, b: TScalar) -> None:
    if a.model is not b.model:
        raise ModelMismatchError(f"cannot combine {a.model.value} with {b.model.value}")


def t_add(a: TScalar, b: TScalar) -> TScalar:
    """Tropical addition: the maximum in the total order.

    Idempotent; Bottom is neutral and Top absorbing.
    """
    _require_same_model(a, b)
    return b if a._key() <= b._key() else a


def t_mul(a: TScalar, b: TScalar) -> TScalar:
    """Tropical multiplication: the model's `mul` on finite payloads.

    Bottom absorbs everything, including Top; Top times anything
    non-Bottom is Top.
    """
    _require_same_model(a, b)
    if a.kind == _BOT or b.kind == _BOT:
        return TScalar(a.model, _BOT)
    if a.kind == _TOP or b.kind == _TOP:
        return TScalar(a.model, _TOP)
    return TScalar(a.model, _FIN, a.model.mul(a.payload, b.payload))


def t_inv(a: TScalar) -> TScalar:
    """Multiplicative inverse, extended by inv(Top)=Bottom, inv(Bottom)=Top.

    The Top/Bottom extension exists only so that complement
    normalisation can flip degenerate boundary thresholds.
    """
    if a.kind == _BOT:
        return TScalar(a.model, _TOP)
    if a.kind == _TOP:
        return TScalar(a.model, _BOT)
    return TScalar(a.model, _FIN, a.model.inv(a.payload))


# -- textual forms -----------------------------------------------------
#
# "zero" is Bottom, "inf" is Top, anything else is an exact rational
# "p" or "p/q".  In max-times a numeric 0 also denotes Bottom (the model
# has no finite zero payload); negative numerics are rejected there.


MAX_TOKEN_CHARS = 100  # longest numeric token read, and longest quoted whole


def quote_token(token: str) -> str:
    """The token's repr, cut to a short prefix plus its length when long."""
    if len(token) <= MAX_TOKEN_CHARS:
        return repr(token)
    return f"{token[:20]!r}... ({len(token)} characters)"


def parse_fraction(token: str) -> Fraction:
    """An exact rational token.  The exponent form is refused, since
    `Fraction("1e999999999")` would build a billion-digit integer, and
    so is a token over MAX_TOKEN_CHARS, since `p/q` with thousands of
    digits on each side would slow every later operation on it."""
    if "e" in token.lower():
        raise ValueError("exponent form is not accepted")
    if len(token) > MAX_TOKEN_CHARS:
        raise ValueError(f"numeric tokens are limited to {MAX_TOKEN_CHARS} characters")
    return Fraction(token)


def parse_scalar(token: str, model: Model) -> TScalar:
    text = token.strip()
    if text == "zero":
        return TScalar.bottom(model)
    if text == "inf":
        return TScalar.top(model)
    try:
        q = parse_fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad scalar token {quote_token(token)}: {exc}") from None
    if model is Model.MAX_TIMES:
        if q == 0:
            return TScalar.bottom(model)
        if q < 0:
            raise ValueError(f"negative scalar {quote_token(token)} is not a max-times value")
    return TScalar(model, _FIN, q)


def format_scalar(a: TScalar) -> str:
    """Canonical token: 'zero' / 'inf' / exact fraction."""
    if a.kind == _BOT:
        return "zero"
    if a.kind == _TOP:
        return "inf"
    return str(a.payload)


def format_scalar_compact(a: TScalar) -> str:
    """Model-aware display form; Bottom prints as '0' in max-times."""
    if a.kind == _BOT and a.model is Model.MAX_TIMES:
        return "0"
    return format_scalar(a)
