"""Tropical vectors, finitely generated convex sets, homogenization.

A convex set is represented by a pair of finite generator sets (P, R)
standing for conv(P) + cone(R) (tropical Minkowski sum).  Membership in
such a set is always decided through one code path: lift the set to a
cone one dimension up, then run the residuation (principal solution)
test against the finite generators of that cone.

Indices are 1-based throughout the public API, matching the notation of
the file formats and the CLI.

Vector coordinates are validated where they enter: `TVec(...)`,
`TVec.of` and `parse_vector` check every coordinate's model and refuse
Top.  Operations on vectors that are already valid check only what is
new -- the scaling factor of `scale`, the appended value of `append`,
the other operand's model and dimension in `join` -- and compute on
payloads, building their result through `_trusted_vec`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .semiring import (
    Model,
    ModelMismatchError,
    TScalar,
    format_scalar_compact,
    parse_scalar,
    quote_token,
    t_div,
    t_inv,
)


class DimensionMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class TVec:
    """Fixed-dimension vector over R_max (coordinates never Top)."""

    model: Model
    coords: tuple[TScalar, ...]

    def __post_init__(self):
        for c in self.coords:
            _check_coord(self.model, c)

    @staticmethod
    def of(model: Model, values: Iterable) -> "TVec":
        coords = []
        for v in values:
            if isinstance(v, TScalar):
                coords.append(v)
            elif isinstance(v, str):
                coords.append(parse_scalar(v, model))
            else:
                coords.append(_coerce(model, v))
        return TVec(model, tuple(coords))

    @staticmethod
    def zero(model: Model, n: int) -> "TVec":
        return _trusted_vec(model, (TScalar.bottom(model),) * n)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def at(self, i: int) -> TScalar:
        """1-based coordinate access."""
        if not 1 <= i <= self.dim:
            raise IndexError(f"coordinate {i} out of range 1..{self.dim}")
        return self.coords[i - 1]

    def is_zero(self) -> bool:
        return all(c.is_bottom for c in self.coords)

    def join(self, other: "TVec") -> "TVec":
        """Coordinatewise tropical sum: the larger coordinate by `_key`."""
        _same_space(self, other)
        return _trusted_vec(self.model, tuple(
            b if a._key() <= b._key() else a for a, b in zip(self.coords, other.coords)))

    def scale(self, lam: TScalar) -> "TVec":
        """lam times each coordinate: Bottom stays Bottom, and a finite
        payload gains lam's payload (max-plus) or is multiplied by it.
        The unit leaves the vector as it is."""
        model = self.model
        _check_factor(model, lam)
        if lam.is_bottom:
            return TVec.zero(model, self.dim)
        p, plus = lam.payload, model is Model.MAX_PLUS
        if p == (0 if plus else 1):
            return self
        return _trusted_vec(model, tuple(
            c if c.is_bottom else TScalar(model, c.kind, c.payload + p if plus else c.payload * p)
            for c in self.coords))

    def append(self, value: TScalar) -> "TVec":
        _check_coord(self.model, value)
        return _trusted_vec(self.model, self.coords + (value,))

    def drop_last(self) -> "TVec":
        return _trusted_vec(self.model, self.coords[:-1])

    def sort_key(self):
        return tuple(c._key() for c in self.coords)

    def __str__(self) -> str:
        return "[" + ", ".join(format_scalar_compact(c) for c in self.coords) + "]"


def _check_coord(model: Model, c: TScalar) -> None:
    if c.model is not model:
        raise ValueError("vector coordinates must share the vector's model")
    if c.is_top:
        raise ValueError("Top is not a vector coordinate")


def _check_factor(model: Model, lam: TScalar) -> None:
    """A vector scaling factor is a non-Top scalar of the vector's model."""
    if lam.is_top:
        raise ValueError("Top is not a vector scaling factor")
    if lam.model is not model:
        raise ModelMismatchError(f"cannot combine {lam.model.value} with {model.value}")


def _trusted_vec(model: Model, coords: tuple[TScalar, ...]) -> TVec:
    """A vector from coordinates already known to be valid for `model`;
    skips the per-coordinate checks of `TVec.__post_init__`."""
    v = object.__new__(TVec)
    fields = v.__dict__  # written directly: the dataclass is frozen
    fields["model"] = model
    fields["coords"] = coords
    return v


def _coerce(model: Model, v) -> TScalar:
    from fractions import Fraction

    q = Fraction(v)
    if q == 0 and model is Model.MAX_TIMES:
        return TScalar.bottom(model)
    return TScalar.finite(model, q)


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
    return frozenset(i for i, c in enumerate(x.coords, start=1) if not c.is_bottom)


def unit_vector(model: Model, i: int, n: int) -> TVec:
    if not 1 <= i <= n:
        raise IndexError(f"unit index {i} out of range 1..{n}")
    coords = [TScalar.bottom(model)] * n
    coords[i - 1] = TScalar.unit(model)
    return TVec(model, tuple(coords))


# -- finitely generated cones and the residuation membership test -------


@dataclass(frozen=True)
class ConeGen:
    """A cone given by finitely many generators (always contains zero)."""

    model: Model
    dim: int
    gens: frozenset[TVec]

    @staticmethod
    def of(model: Model, dim: int, gens: Iterable[TVec]) -> "ConeGen":
        gset = frozenset(gens)
        for g in gset:
            if g.model is not model or g.dim != dim:
                raise DimensionMismatchError("generator does not match cone model/dim")
        return ConeGen(model, dim, gset)

    def sorted_gens(self) -> list[TVec]:
        return sorted(self.gens, key=TVec.sort_key)


@dataclass(frozen=True)
class ConeMembership:
    member: bool
    lambdas: tuple[TScalar, ...]
    reconstruction: TVec
    gens: tuple[TVec, ...]


def cone_member_fg(x: TVec, cone: ConeGen) -> ConeMembership:
    """Principal-solution membership test for a finitely generated cone.

    For each generator g the greatest feasible coefficient is
    min over supp(g) of x_k / g_k, or zero when supp(g) is not contained
    in supp(x).  x belongs to the cone iff that principal combination
    reproduces x exactly.
    """
    if x.model is not cone.model or x.dim != cone.dim:
        raise DimensionMismatchError("vector does not match cone model/dim")
    model = x.model
    gens = tuple(cone.sorted_gens())
    supp_x = support(x)
    lambdas = []
    for g in gens:
        supp_g = support(g)
        if not supp_g:
            lambdas.append(TScalar.bottom(model))
            continue
        if not supp_g <= supp_x:
            lambdas.append(TScalar.bottom(model))
            continue
        lam = None
        for k in supp_g:
            ratio = t_div(x.at(k), g.at(k))
            lam = ratio if lam is None or ratio < lam else lam
        lambdas.append(lam)
    combo = TVec.zero(model, x.dim)
    for lam, g in zip(lambdas, gens):
        combo = combo.join(g.scale(lam))
    return ConeMembership(combo == x, tuple(lambdas), combo, gens)


# -- (P, R)-decompositions ----------------------------------------------


@dataclass(frozen=True)
class PRDecomposition:
    """conv(P) + cone(R); the set is empty iff P is empty."""

    model: Model
    dim: int
    P: frozenset[TVec]
    R: frozenset[TVec]

    @staticmethod
    def of(model: Model, dim: int, P: Iterable[TVec], R: Iterable[TVec]) -> "PRDecomposition":
        pset, rset = frozenset(P), frozenset(R)
        for v in pset | rset:
            if v.model is not model or v.dim != dim:
                raise DimensionMismatchError("generator does not match decomposition model/dim")
        return PRDecomposition(model, dim, pset, rset)

    @property
    def is_empty_hull(self) -> bool:
        return not self.P


def homogenize(d: PRDecomposition) -> ConeGen:
    """Lift conv(P) + cone(R) to a cone one dimension up.

    P-generators get last coordinate 1, R-generators get last
    coordinate zero.
    """
    one = TScalar.unit(d.model)
    bot = TScalar.bottom(d.model)
    gens = {p.append(one) for p in d.P} | {r.append(bot) for r in d.R}
    return ConeGen.of(d.model, d.dim + 1, gens)


def section_unity(cone: ConeGen) -> PRDecomposition:
    """Slice a generated cone by last coordinate = 1.

    A generator with invertible last coordinate mu contributes the
    rescaled point mu^-1 * head to P; one with last coordinate zero
    contributes its head to R.  An empty P flags a possibly empty
    section (conv of nothing is the empty set).
    """
    if cone.dim < 2:
        raise DimensionMismatchError("section needs dimension at least 2")
    P, R = set(), set()
    for g in cone.gens:
        mu = g.at(cone.dim)
        head = g.drop_last()
        if mu.is_bottom:
            R.add(head)
        else:
            P.add(head.scale(t_inv(mu)))
    return PRDecomposition.of(cone.model, cone.dim - 1, P, R)


def pr_member(x: TVec, d: PRDecomposition) -> bool:
    """x in conv(P) + cone(R), via homogenization plus residuation."""
    if x.model is not d.model or x.dim != d.dim:
        raise DimensionMismatchError("vector does not match decomposition model/dim")
    lifted = x.append(TScalar.unit(d.model))
    return cone_member_fg(lifted, homogenize(d)).member
