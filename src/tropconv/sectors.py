"""Sectors, quasisectors and semispaces.

A quasisector of type i at a base point y is the cone of points whose
weighted maximum over supp(y) is attained (weakly) at coordinate i.  A
sector is its affine variant: the unit section of the quasisector of
the same type at the lifted base point (y, 1), where the type index runs
over supp(y) and the extra type n+1.  A semispace is the complement of a
sector.

Quasisectors have two first-class representations that are proved
equal and cross-checked in the tests: an inequality predicate and a
finite generator cone.  A sector takes both from its lifted quasisector;
its predicate reads the one ratio routine, `_top_ratios`, at the payloads
of (y, 1) and (x, 1), and so does the multiorder oracle in `verify`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .semiring import InternalInconsistencyError, Model
from .tlinalg import (
    ConeGen,
    DimensionMismatchError,
    PRDecomposition,
    TVec,
    _times,
    _vec,
    section_unity,
    support,
)


class InvalidSectorError(ValueError):
    pass


@dataclass(frozen=True)
class SectorId:
    """Base point y in R_max^n plus a type index in supp(y) or n+1; the
    extra type n+1 exists for sectors only."""

    base: TVec
    type_index: int

    def __post_init__(self):
        i, n = self.type_index, self.base.dim
        if type(i) is not int or (i != n + 1 and i not in support(self.base)):
            raise InvalidSectorError(
                f"type index {i!r} is neither in supp(base) = {sorted(support(self.base))} "
                f"nor n+1 = {n + 1}"
            )

    @staticmethod
    def of_support(y: TVec, i: int) -> "SectorId":
        if y.is_zero():
            raise InvalidSectorError("support-type sectors need a nonzero base point")
        if i not in support(y):
            raise InvalidSectorError(f"type index {i} is not in supp(base) = {sorted(support(y))}")
        return SectorId(y, i)

    @staticmethod
    def affine(y: TVec) -> "SectorId":
        return SectorId(y, y.dim + 1)

    @property
    def is_affine_type(self) -> bool:
        return self.type_index == self.base.dim + 1

    def describe(self) -> str:
        i = "n+1" if self.is_affine_type else str(self.type_index)
        return f"type {i} at {self.base}"


def _check_point(s: SectorId, x: TVec) -> None:
    if x.model is not s.base.model:
        raise ValueError("point and sector base use different models")
    if x.dim != s.base.dim:
        raise DimensionMismatchError(f"dimension mismatch: {x.dim} vs {s.base.dim}")


def _top_ratios(model: Model, y: tuple) -> Callable[[tuple], Sequence[int]]:
    """The routine that maps payloads x to the 1-based indices k where
    x_k / y_k is largest: every index when x is zero, and none when
    supp(x) leaves supp(y).  Each inverse of y is read once, as an integer
    pair, and `pair_mul` products are compared by cross-multiplication."""
    pair_mul = model.pair_mul
    y_inv = [None if q is None else model.inv(q).as_integer_ratio() for q in y]

    def top(x: tuple) -> Sequence[int]:
        tn, td, hits = 0, 1, []
        for k, (q, v) in enumerate(zip(x, y_inv), start=1):
            if q is None:
                continue
            if v is None:
                return ()
            a, b = pair_mul(*v, q.numerator, q.denominator)
            if not hits or a * td > tn * b:
                tn, td, hits = a, b, [k]
            elif a * td == tn * b:
                hits.append(k)
        return hits or range(1, len(x) + 1)

    return top


def quasisector_contains(s: SectorId, x: TVec) -> bool:
    """max over supp(y) of x_j / y_j is attained at the type index."""
    if s.is_affine_type:
        raise InvalidSectorError("quasisectors have no (n+1) type")
    _check_point(s, x)
    return s.type_index in _top_ratios(x.model, s.base.p)(x.p)


def sector_contains(s: SectorId, x: TVec) -> bool:
    """(x, 1) lies in the quasisector of the sector's type at (y, 1)."""
    _check_point(s, x)
    unit = (x.model.unit,)
    return s.type_index in _top_ratios(x.model, s.base.p + unit)(x.p + unit)


def semispace_contains(s: SectorId, x: TVec) -> bool:
    """Semispaces are exactly the complements of sectors."""
    return not sector_contains(s, x)


def quasisector_gen(y: TVec, i: int, j: int) -> TVec:
    """The generator e_i + (y_j / y_i) e_j of the type-i quasisector at y;
    it depends on y only through y_i and y_j."""
    model, y_j, p = y.model, y.p[j - 1], [None] * y.dim
    p[j - 1] = None if y_j is None else model.mul(y_j, model.inv(y.p[i - 1]))
    p[i - 1] = model.unit  # for j = i the ratio is the unit too
    return _vec(model, tuple(p))


def quasisector_gens(s: SectorId) -> ConeGen:
    """Finite generators e_i + (y_j / y_i) e_j for j in supp(y)."""
    if s.is_affine_type:
        raise InvalidSectorError("quasisectors have no (n+1) type")
    y, i = s.base, s.type_index
    return ConeGen.of(y.model, y.dim, {quasisector_gen(y, i, j) for j in support(y)})


def sector_pr(s: SectorId) -> PRDecomposition:
    """(P, R) form of a sector: the unit section of the generators of its
    lifted quasisector.

    Support type i: the single hull point y_i e_i plus the quasisector
    rays.  Extra type: the hull of zero and the axis points y_j e_j,
    with no rays.
    """
    return section_unity(quasisector_gens(SectorId(s.base.lift(), s.type_index)))


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
    model = y.model
    acc = TVec.zero(model, y.dim)
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
        w_i = w.p[i - 1]
        if w_i is None:
            raise InternalInconsistencyError(
                f"nonzero quasisector witness with zero pivot coordinate {i}"
            )
        acc = acc.join(_vec(model, _times(model, w.p, model.mul(y.p[i - 1], model.inv(w_i)))))
    if acc != y:
        raise InternalInconsistencyError("witness assembly did not reproduce the base point")
    return acc
