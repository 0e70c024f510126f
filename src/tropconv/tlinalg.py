"""Tropical vectors, finitely generated convex sets, homogenization.

A convex set is represented by a pair of finite generator sets (P, R)
standing for conv(P) + cone(R) (tropical Minkowski sum).  Membership in
such a set is always decided through one code path: lift the set to a
cone one dimension up, then run the residuation (principal solution)
test against the finite generators of that cone.

Indices are 1-based throughout the public API, matching the notation of
the file formats and the CLI.  Residuation computes on payloads, with
None for Bottom.

A vector stores one payload per coordinate, None for Bottom (Top never
occurs in a point).  `TVec(...)` and `parse_vector` check each scalar's
model and refuse Top; `coords` and `at` are the scalar view.  Operations
check only what is new -- the factor of `scale`, the other operand of
`join` -- and compute on payloads.  `lift` is homogenization: it
appends the unit, so that x is the unit section of (x, 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional

from .semiring import (
    Model,
    ModelMismatchError,
    TScalar,
    format_scalar_compact,
    parse_scalar,
    quote_token,
)


class DimensionMismatchError(ValueError):
    pass


@dataclass(frozen=True, init=False)
class TVec:
    """Fixed-dimension vector over R_max: a payload per coordinate, None
    for Bottom."""

    model: Model
    p: tuple[Optional[Fraction], ...]

    def __init__(self, model: Model, coords: tuple[TScalar, ...]):
        for c in coords:
            if c.model is not model:
                raise ValueError("vector coordinates must share the vector's model")
            if c.is_top:
                raise ValueError("Top is not a vector coordinate")
        self.__dict__.update(model=model, p=tuple(c.payload for c in coords))

    @staticmethod
    def zero(model: Model, n: int) -> "TVec":
        return _vec(model, (None,) * n)

    @property
    def dim(self) -> int:
        return len(self.p)

    @cached_property
    def coords(self) -> tuple[TScalar, ...]:
        """The coordinates as scalars: a view of `p`, built on first use."""
        return tuple(TScalar.of_payload(self.model, q) for q in self.p)

    def at(self, i: int) -> TScalar:
        """1-based coordinate access."""
        if not 1 <= i <= self.dim:
            raise IndexError(f"coordinate {i} out of range 1..{self.dim}")
        return self.coords[i - 1]

    def is_zero(self) -> bool:
        return all(q is None for q in self.p)

    def join(self, other: "TVec") -> "TVec":
        """Coordinatewise tropical sum: the larger payload, Bottom below all."""
        _same_space(self, other)
        return _vec(self.model, tuple(
            b if a is None else a if b is None or a > b else b for a, b in zip(self.p, other.p)))

    def scale(self, lam: TScalar) -> "TVec":
        """lam times each coordinate: Bottom stays Bottom, and a finite
        payload is multiplied by lam's in the model.  The unit leaves
        the vector as it is."""
        model = self.model
        _check_factor(model, lam)
        if lam.is_bottom:
            return TVec.zero(model, self.dim)
        if lam.payload == model.unit:
            return self
        return _vec(model, _times(model, self.p, lam.payload))

    def lift(self) -> "TVec":
        """(x, 1): the point one dimension up whose unit section is x."""
        return _vec(self.model, self.p + (self.model.unit,))

    def sort_key(self):
        """Bottom first, then by payload, coordinate by coordinate."""
        return tuple((0, 0) if q is None else (1, q) for q in self.p)

    def __str__(self) -> str:
        return "[" + ", ".join(format_scalar_compact(c) for c in self.coords) + "]"


def _vec(model: Model, p: tuple) -> TVec:
    """A vector from payloads already known to be valid for `model`."""
    v = object.__new__(TVec)
    v.__dict__.update(model=model, p=p)  # written directly: the dataclass is frozen
    return v


def _times(model: Model, p: tuple, c: Fraction) -> tuple:
    """The payloads p times the finite payload c; Bottom stays Bottom."""
    mul = model.mul
    return tuple(None if q is None else mul(q, c) for q in p)


def _check_factor(model: Model, lam: TScalar) -> None:
    """A vector scaling factor is a non-Top scalar of the vector's model."""
    if lam.is_top:
        raise ValueError("Top is not a vector scaling factor")
    if lam.model is not model:
        raise ModelMismatchError(f"cannot combine {lam.model.value} with {model.value}")


def _same_space(a: TVec, b: TVec) -> None:
    if a.model is not b.model:
        raise ValueError("vectors from different models")
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dimension mismatch: {a.dim} vs {b.dim}")


def parse_vector(text: str, model: Model) -> TVec:
    """Parse a literal like "[2, 0, 1]" using the scalar token rules."""
    body = text.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ValueError(f"vector literal must be bracketed: {quote_token(text)}")
    inner = body[1:-1].strip()
    if not inner:
        raise ValueError("empty vector literal")
    return TVec(model, tuple(parse_scalar(tok, model) for tok in inner.split(",")))


def support(x: TVec) -> frozenset[int]:
    """1-based indices of the non-Bottom coordinates."""
    return frozenset(i for i, q in enumerate(x.p, start=1) if q is not None)


def unit_vector(model: Model, i: int, n: int) -> TVec:
    if not 1 <= i <= n:
        raise IndexError(f"unit index {i} out of range 1..{n}")
    p = [None] * n
    p[i - 1] = model.unit
    return _vec(model, tuple(p))


# -- finitely generated cones and the residuation membership test -------


@dataclass(frozen=True)
class ConeGen:
    """A cone given by finitely many generators (always contains zero).
    Its sorted generators and their residuation form are built once, on
    first use."""

    model: Model
    dim: int
    gens: frozenset[TVec]

    def __post_init__(self):
        for g in self.gens:
            if g.model is not self.model or g.dim != self.dim:
                raise DimensionMismatchError("generator does not match cone model/dim")

    @cached_property
    def sorted_gens(self) -> tuple[TVec, ...]:
        return tuple(sorted(self.gens, key=TVec.sort_key))

    @cached_property
    def _columns(self) -> tuple:
        """Each sorted generator's support as (index, inverse payload)."""
        inv = self.model.inv
        return tuple(tuple((k, inv(q)) for k, q in enumerate(g.p) if q is not None)
                     for g in self.sorted_gens)

    @staticmethod
    def of(model: Model, dim: int, gens: Iterable[TVec]) -> "ConeGen":
        return ConeGen(model, dim, frozenset(gens))


@dataclass(frozen=True)
class ConeMembership:
    """The principal solution; `lambdas` and `reconstruction` are built
    when first read."""

    member: bool
    cone: ConeGen
    _lams: tuple

    @property
    def gens(self) -> tuple[TVec, ...]:
        return self.cone.sorted_gens

    @cached_property
    def lambdas(self) -> tuple[TScalar, ...]:
        return tuple(TScalar.of_payload(self.cone.model, q) for q in self._lams)

    @cached_property
    def reconstruction(self) -> TVec:
        combo = TVec.zero(self.cone.model, self.cone.dim)
        for lam, g in zip(self.lambdas, self.gens):
            combo = combo.join(g.scale(lam))
        return combo


def _principal(cone: ConeGen, p: tuple) -> tuple[list, bool]:
    """(coefficients, member) of the principal solution for payloads p.

    A generator's coefficient is its least ratio p_k / g_k, or Bottom
    when its support leaves supp(p).  Their combination lies below p and
    reaches p_k where some generator attains its least ratio at k, so p
    is a member iff those k cover supp(p).
    """
    mul = cone.model.mul
    lams, covered = [], set()
    for column in cone._columns:
        if not column or any(p[k] is None for k, _ in column):
            lams.append(None)
            continue
        ratios = [(mul(p[k], g_inv), k) for k, g_inv in column]
        lam = min(r for r, _ in ratios)
        lams.append(lam)
        covered.update(k for r, k in ratios if r == lam)
    return lams, len(covered) == sum(q is not None for q in p)


def cone_member_fg(x: TVec, cone: ConeGen) -> ConeMembership:
    """Whether the principal solution for x reproduces x (`_principal`)."""
    if x.model is not cone.model or x.dim != cone.dim:
        raise DimensionMismatchError("vector does not match cone model/dim")
    lams, member = _principal(cone, x.p)
    return ConeMembership(member, cone, tuple(lams))


# -- (P, R)-decompositions ----------------------------------------------


@dataclass(frozen=True)
class PRDecomposition:
    """conv(P) + cone(R); the set is empty iff P is empty."""

    model: Model
    dim: int
    P: frozenset[TVec]
    R: frozenset[TVec]

    def __post_init__(self):
        for v in self.P | self.R:
            if v.model is not self.model or v.dim != self.dim:
                raise DimensionMismatchError("generator does not match decomposition model/dim")

    @cached_property
    def _lifted(self) -> ConeGen:
        """The homogenized cone, built once, on first use."""
        m = self.model
        gens = {x.lift() for x in self.P} | {_vec(m, r.p + (None,)) for r in self.R}
        return ConeGen(m, self.dim + 1, frozenset(gens))

    @staticmethod
    def of(model: Model, dim: int, P: Iterable[TVec], R: Iterable[TVec]) -> "PRDecomposition":
        return PRDecomposition(model, dim, frozenset(P), frozenset(R))


def homogenize(d: PRDecomposition) -> ConeGen:
    """Lift conv(P) + cone(R) to a cone one dimension up.

    P-generators get last coordinate 1, R-generators get last
    coordinate zero.
    """
    return d._lifted


def section_unity(cone: ConeGen) -> PRDecomposition:
    """Slice a generated cone by last coordinate = 1.

    A generator with invertible last coordinate mu contributes the
    rescaled point mu^-1 * head to P; one with last coordinate zero
    contributes its head to R.  An empty P flags a possibly empty
    section (conv of nothing is the empty set).
    """
    if cone.dim < 2:
        raise DimensionMismatchError("section needs dimension at least 2")
    model, P, R = cone.model, set(), set()
    for g in cone.gens:
        *head, mu = g.p
        if mu is None:
            R.add(_vec(model, tuple(head)))
        else:
            P.add(_vec(model, _times(model, head, model.inv(mu))))
    return PRDecomposition.of(model, cone.dim - 1, P, R)


def pr_member(x: TVec, d: PRDecomposition) -> bool:
    """x in conv(P) + cone(R), via homogenization plus residuation."""
    if x.model is not d.model or x.dim != d.dim:
        raise DimensionMismatchError("vector does not match decomposition model/dim")
    return _principal(d._lifted, x.lift().p)[1]
