"""Tropical vectors, finitely generated convex sets, homogenization.

A convex set is represented by a pair of finite generator sets (P, R)
standing for conv(P) + cone(R) (tropical Minkowski sum).  Membership in
such a set is always decided through one code path: lift the set to a
cone one dimension up, then run the residuation (principal solution)
test against the finite generators of that cone.

Indices are 1-based throughout the public API, matching the notation of
the file formats and the CLI.  Residuation computes on payloads, with
None for Bottom.

Vector coordinates are validated where they enter: `TVec(...)` and
`parse_vector` check every coordinate's model and refuse Top.
Operations on vectors that are already valid check only what is new --
the scaling factor of `scale`, the appended value of `append`, the
other operand's model and dimension in `join` -- and compute on
payloads, building their result through `_trusted_vec`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .semiring import (
    Model,
    ModelMismatchError,
    TScalar,
    format_scalar_compact,
    parse_scalar,
    quote_token,
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
        payload is multiplied by lam's in the model.  The unit leaves
        the vector as it is."""
        model = self.model
        _check_factor(model, lam)
        if lam.is_bottom:
            return TVec.zero(model, self.dim)
        p, mul = lam.payload, model.mul
        if p == model.unit:
            return self
        return _trusted_vec(model, tuple(
            c if c.is_bottom else TScalar(model, c.kind, mul(c.payload, p)) for c in self.coords))

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
        return tuple(tuple((k, inv(c.payload)) for k, c in enumerate(g.coords) if not c.is_bottom)
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
        model = self.cone.model
        return tuple(TScalar.bottom(model) if q is None else TScalar.finite(model, q)
                     for q in self._lams)

    @cached_property
    def reconstruction(self) -> TVec:
        combo = TVec.zero(self.cone.model, self.cone.dim)
        for lam, g in zip(self.lambdas, self.gens):
            combo = combo.join(g.scale(lam))
        return combo


def _principal(cone: ConeGen, p: list) -> tuple[list, bool]:
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
    lams, member = _principal(cone, [c.payload for c in x.coords])
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
        one, bot = TScalar.unit(self.model), TScalar.bottom(self.model)
        gens = {p.append(one) for p in self.P} | {r.append(bot) for r in self.R}
        return ConeGen(self.model, self.dim + 1, frozenset(gens))

    @staticmethod
    def of(model: Model, dim: int, P: Iterable[TVec], R: Iterable[TVec]) -> "PRDecomposition":
        return PRDecomposition(model, dim, frozenset(P), frozenset(R))

    @property
    def is_empty_hull(self) -> bool:
        return not self.P


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
    return _principal(d._lifted, [c.payload for c in x.coords] + [d.model.unit])[1]
