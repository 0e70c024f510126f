"""Sectors, quasisectors and semispaces.

A quasisector of type i at a base point y is the cone of points whose
weighted maximum over supp(y) is attained (weakly) at coordinate i; a
sector is the affine variant obtained by slicing the quasisector of the
lifted base point, and a semispace is the complement of a sector.

Each of these sets has two first-class representations that are proved
equal and cross-checked in the tests: an inequality predicate and a
finite generator form (a cone for quasisectors, a (P, R)-decomposition
for sectors).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .semiring import (
    InternalInconsistencyError,
    TScalar,
    t_add,
    t_div,
    t_inv,
    t_max,
    t_mul,
)
from .tlinalg import (
    ConeGen,
    DimensionMismatchError,
    PRDecomposition,
    TVec,
    support,
    unit_vector,
)


class InvalidSectorError(ValueError):
    pass


@dataclass(frozen=True)
class SectorId:
    """Base point plus type index; type_index None is the extra (n+1) type."""

    base: TVec
    type_index: Optional[int]

    @staticmethod
    def of_support(y: TVec, i: int) -> "SectorId":
        if y.is_zero():
            raise InvalidSectorError("support-type sectors need a nonzero base point")
        if i not in support(y):
            raise InvalidSectorError(f"type index {i} is not in supp(base) = {sorted(support(y))}")
        return SectorId(y, i)

    @staticmethod
    def affine(y: TVec) -> "SectorId":
        return SectorId(y, None)

    @property
    def is_affine_type(self) -> bool:
        return self.type_index is None

    def describe(self) -> str:
        i = "n+1" if self.is_affine_type else str(self.type_index)
        return f"type {i} at {self.base}"


def _check_point(s: SectorId, x: TVec) -> None:
    if x.model is not s.base.model:
        raise ValueError("point and sector base use different models")
    if x.dim != s.base.dim:
        raise DimensionMismatchError(f"dimension mismatch: {x.dim} vs {s.base.dim}")


def _weighted_max(x: TVec, y: TVec) -> TScalar:
    """max over supp(y) of x_j / y_j."""
    return t_max((t_div(x.at(j), y.at(j)) for j in support(y)), x.model)


def quasisector_contains(s: SectorId, x: TVec) -> bool:
    if s.is_affine_type:
        raise InvalidSectorError("quasisectors have no (n+1) type")
    _check_point(s, x)
    y = s.base
    if not support(x) <= support(y):
        return False
    return _weighted_max(x, y) <= t_div(x.at(s.type_index), y.at(s.type_index))


def sector_contains(s: SectorId, x: TVec) -> bool:
    _check_point(s, x)
    y = s.base
    if not support(x) <= support(y):
        return False
    lhs = _weighted_max(x, y)
    if s.is_affine_type:
        return lhs <= TScalar.unit(x.model)
    rhs = t_div(x.at(s.type_index), y.at(s.type_index))
    return t_add(lhs, TScalar.unit(x.model)) <= rhs


def semispace_contains(s: SectorId, x: TVec) -> bool:
    """Semispaces are exactly the complements of sectors."""
    return not sector_contains(s, x)


def quasisector_gens(s: SectorId) -> ConeGen:
    """Finite generators e_i + (y_j / y_i) e_j for j in supp(y)."""
    if s.is_affine_type:
        raise InvalidSectorError("quasisectors have no (n+1) type")
    y, i, n = s.base, s.type_index, s.base.dim
    model = y.model
    ei = unit_vector(model, i, n).coords
    gens = set()
    for j in support(y):
        coords = list(ei)  # e_i + lam*e_j touches coordinate j only
        coords[j - 1] = t_add(coords[j - 1], t_div(y.at(j), y.at(i)))
        gens.add(TVec(model, tuple(coords)))
    return ConeGen.of(model, n, gens)


def sector_pr(s: SectorId) -> PRDecomposition:
    """(P, R) form of a sector.

    Support type i: the single hull point y_i e_i plus the quasisector
    rays.  Extra type: the hull of zero and the axis points y_j e_j,
    with no rays.
    """
    y, n, model = s.base, s.base.dim, s.base.model
    if s.is_affine_type:
        P = {TVec.zero(model, n)}
        for j in support(y):
            P.add(unit_vector(model, j, n).scale(y.at(j)))
        return PRDecomposition.of(model, n, P, set())
    i = s.type_index
    P = {unit_vector(model, i, n).scale(y.at(i))}
    return PRDecomposition.of(model, n, P, quasisector_gens(s).gens)


def _t_min(a: TScalar, b: TScalar) -> TScalar:
    return a if a <= b else b


def common_point(x: TVec, y: TVec, i: int, affine: bool) -> TVec:
    """A nonzero point in the type-i (quasi)sectors of both x and y.

    Conical case: z_j = min(x_j / x_i, y_j / y_i), which lies in both
    quasisectors.  Affine case: the same construction on the lifted
    points (x,1), (y,1) -- with i = n+1 allowed -- rescaled back to the
    unit slice; the result lies in both sectors.
    """
    if x.model is not y.model:
        raise ValueError("points use different models")
    if x.dim != y.dim:
        raise DimensionMismatchError(f"dimension mismatch: {x.dim} vs {y.dim}")
    n = x.dim
    if affine:
        one = TScalar.unit(x.model)
        zl = _conical_common(x.append(one), y.append(one), n + 1 if i == n + 1 else i)
        return zl.scale(t_inv(zl.at(n + 1))).drop_last()
    return _conical_common(x, y, i)


def _conical_common(x: TVec, y: TVec, i: int) -> TVec:
    common = support(x) & support(y)
    if not common:
        raise InvalidSectorError("points have no common support")
    if i not in common:
        raise InvalidSectorError(f"type index {i} is not in the common support {sorted(common)}")
    xi_inv = t_inv(x.at(i))
    yi_inv = t_inv(y.at(i))
    coords = [
        _t_min(t_mul(xi_inv, x.at(j)), t_mul(yi_inv, y.at(j))) for j in range(1, x.dim + 1)
    ]
    return TVec(x.model, tuple(coords))


class WitnessError(ValueError):
    pass


def assemble_from_witnesses(y: TVec, witnesses: Mapping[int, TVec]) -> TVec:
    """Rebuild y from one nonzero quasisector witness per support type.

    Each witness w^i must lie in the type-i quasisector at y; then
    y equals the join of (y_i / w^i_i) * w^i over i in supp(y).  The
    witnesses having nonzero i-th coordinate, and the join reproducing y
    exactly, are theorems; their failure is reported as an internal
    inconsistency rather than bad input.
    """
    if y.is_zero():
        raise WitnessError("cannot assemble the zero vector from sector witnesses")
    acc = TVec.zero(y.model, y.dim)
    for i in sorted(support(y)):
        try:
            w = witnesses[i]
        except KeyError:
            raise WitnessError(f"missing witness for support type {i}") from None
        if w.is_zero():
            raise WitnessError(f"witness for type {i} is the zero vector")
        sid = SectorId.of_support(y, i)
        if not quasisector_contains(sid, w):
            raise WitnessError(f"witness for type {i} is outside the quasisector")
        if w.at(i).is_bottom:
            raise InternalInconsistencyError(
                f"nonzero quasisector witness with zero pivot coordinate {i}"
            )
        acc = acc.join(w.scale(t_div(y.at(i), w.at(i))))
    if acc != y:
        raise InternalInconsistencyError("witness assembly did not reproduce the base point")
    return acc
