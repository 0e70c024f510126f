"""Structured hemispaces: boundary sets, rank-one validation, membership.

A conical hemispace is described by a proper bipartition I + J of the
coordinates and, for every (i in I, j in J), a boundary down-set saying
which scalings lambda make e_i + lambda*e_j a generator.  The spec is
valid exactly when the matrix of boundary sets passes the rank-one
disjointness test; validation derives the thin structure (row
partitions, ordered classes, gauge factors) that drives exact
membership, complements and halfspace conversion.

Affine hemispaces are handled through the same machinery one dimension
up: the base spec lives over n+1 coordinates with the extra index on
the I side, and a flag selects which member of the complementary pair
this object denotes.  Each side is the unit section of its own cone
(the base or its complement), so one membership path serves both.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, Optional, Union

from .semiring import (
    InternalInconsistencyError,
    Model,
    TScalar,
    format_scalar,
    t_add,
    t_inv,
    t_max,
    t_mul,
)
from .tlinalg import DimensionMismatchError, TVec, support, unit_vector


class SpecError(ValueError):
    """Structural problem in a hemispace description."""


# ----------------------------------------------------------------------
# Boundary sets.  Only the down-set sigma^- is stored; the up-set
# sigma^+ is always derived, so the two can never drift apart.


@dataclass(frozen=True)
class BoundarySet:
    """Down-set of scalars: {lam <= threshold} (closed) or {lam < threshold}.

    Canonical form: (Top, closed) is normalised to (Top, open) -- both
    mean all of R_max -- and (Bottom, open) is rejected as empty.
    """

    threshold: TScalar
    closed: bool

    @staticmethod
    def make(threshold: TScalar, closed: bool) -> "BoundarySet":
        if threshold.is_bottom and not closed:
            raise SpecError("boundary set below zero is empty")
        if threshold.is_top and closed:
            closed = False
        return BoundarySet(threshold, closed)

    def contains(self, lam: TScalar) -> bool:
        if lam.is_top:
            return False
        return lam <= self.threshold if self.closed else lam < self.threshold

    def describe(self) -> str:
        if self.threshold.is_bottom:
            return "{zero}"
        rel = "<=" if self.closed else "<"
        return f"{{lam {rel} {format_scalar(self.threshold)}}}"


@dataclass(frozen=True)
class UpSet:
    """Derived complement of a down-set: {lam > t} or {lam >= t}."""

    threshold: TScalar
    strict: bool

    def contains(self, lam: TScalar) -> bool:
        return lam > self.threshold if self.strict else lam >= self.threshold

    def describe(self) -> str:
        rel = ">" if self.strict else ">="
        return f"{{lam {rel} {format_scalar(self.threshold)}}}"


def upset_of(b: BoundarySet) -> UpSet:
    return UpSet(b.threshold, strict=b.closed)


def downset_product(a: BoundarySet, b: BoundarySet) -> BoundarySet:
    """The set of pairwise products of two boundary down-sets.

    {zero} absorbs everything (down-sets never contain Top, so zero
    times any element is zero); otherwise the threshold multiplies and
    the product is closed only when both factors are.
    """
    if a.threshold.model is not b.threshold.model:
        raise SpecError("boundary sets from different models")
    if a.threshold.is_bottom or b.threshold.is_bottom:
        return BoundarySet.make(TScalar.bottom(a.threshold.model), True)
    return BoundarySet.make(t_mul(a.threshold, b.threshold), a.closed and b.closed)


def upset_product(u: UpSet, v: UpSet) -> UpSet:
    """Pairwise products of two up-sets.

    {Top} absorbs every up-set (all its products hit Top, since up-sets
    never contain zero); otherwise thresholds multiply and the product
    is strict if either factor is.
    """
    if u.threshold.model is not v.threshold.model:
        raise SpecError("up-sets from different models")
    if u.threshold.is_top or v.threshold.is_top:
        return UpSet(TScalar.top(u.threshold.model), strict=False)
    return UpSet(t_mul(u.threshold, v.threshold), u.strict or v.strict)


def down_up_overlap(d: BoundarySet, u: UpSet) -> bool:
    """Whether a down-set and an up-set share an element.

    Any common element is finite (down-sets exclude Top, up-sets
    exclude zero), so this reduces to threshold comparison with the
    right strictness; rationals are dense, so strict gaps are enough.
    """
    if u.threshold.is_top:
        return False
    if d.threshold > u.threshold:
        return True
    return d.threshold == u.threshold and d.closed and not u.strict


def pick_finite_in_interval(
    lo: TScalar, strict_lo: bool, hi: TScalar, strict_hi: bool
) -> TScalar:
    """A finite rational strictly-or-weakly between two bounds.

    The caller guarantees the interval holds a finite point; Bottom and
    Top bounds mean unbounded on that side.
    """
    model = lo.model
    if not strict_lo and lo.is_finite:
        return lo
    if not strict_hi and hi.is_finite:
        return hi
    if lo.is_bottom and hi.is_top:
        return TScalar.unit(model)
    plus = model is Model.MAX_PLUS
    if lo.is_bottom:
        return t_mul(hi, TScalar.finite(model, -1 if plus else Fraction(1, 2)))
    if hi.is_top:
        return t_mul(lo, TScalar.finite(model, 1 if plus else 2))
    if not lo < hi:
        raise InternalInconsistencyError("empty interval handed to witness picker")
    mid = (lo.payload + hi.payload) / 2
    return TScalar.finite(model, mid)


def split_up_product(w: TScalar, u: UpSet, v: UpSet) -> tuple[TScalar, TScalar]:
    """Finite factors a in u, b in v with a*b = w (w finite, in u*v)."""
    if not w.is_finite:
        raise InternalInconsistencyError("up-product witness must be finite")
    a = pick_finite_in_interval(u.threshold, u.strict, t_mul(w, t_inv(v.threshold)), v.strict)
    b = t_mul(w, t_inv(a))
    if not (u.contains(a) and v.contains(b) and b.is_finite):
        raise InternalInconsistencyError("up-product split failed")
    return a, b


def split_down_product(w: TScalar, a: BoundarySet, b: BoundarySet) -> tuple[TScalar, TScalar]:
    """Finite factors x in a, y in b with x*y = w (w finite, in a*b)."""
    if not w.is_finite:
        raise InternalInconsistencyError("down-product witness must be finite")
    if a.threshold.is_bottom or b.threshold.is_bottom:
        raise InternalInconsistencyError("down-product of {zero} has no finite element")
    x = pick_finite_in_interval(
        t_mul(w, t_inv(b.threshold)), not b.closed, a.threshold, not a.closed
    )
    y = t_mul(w, t_inv(x))
    if not (a.contains(x) and b.contains(y) and y.is_finite):
        raise InternalInconsistencyError("down-product split failed")
    return x, y


# ----------------------------------------------------------------------
# Spec and rank-one validation.


@dataclass(frozen=True)
class Violation:
    """One failing quadruple of the rank-one disjointness test.

    side 1 means up(i1,j2)*up(i2,j1) meets down(i1,j1)*down(i2,j2);
    side 2 is the mirrored equation.
    """

    i1: int
    i2: int
    j1: int
    j2: int
    side: int
    down_product: BoundarySet
    up_product: UpSet

    def describe(self) -> str:
        return (
            f"rank-one violation at (i1={self.i1}, i2={self.i2}, j1={self.j1}, "
            f"j2={self.j2}), equation {self.side}: {self.up_product.describe()} "
            f"meets {self.down_product.describe()}"
        )


class RankOneError(SpecError):
    def __init__(self, violation: Violation):
        self.violation = violation
        super().__init__(violation.describe())


class HemispaceSpec:
    """(model, n, I, J, sigma) description of a conical hemispace.

    Instances from `build` are validated (structure, rank-one) and carry
    their thin structure; `raw` instances exist only as input for
    `rank_one_check`.  `_complement` memoizes `complement_spec`.
    """

    __slots__ = ("model", "n", "I", "J", "sigma", "_validated", "_thin", "_complement")

    def __init__(self, model, n, I, J, sigma, _validated, _thin):
        self.model = model
        self.n = n
        self.I = I
        self.J = J
        self.sigma = sigma
        self._validated = _validated
        self._thin = _thin
        self._complement = None

    @classmethod
    def raw(
        cls,
        model: Model,
        n: int,
        I: Iterable[int],
        J: Iterable[int],
        sigma: Mapping[tuple[int, int], BoundarySet],
    ) -> "HemispaceSpec":
        I, J = frozenset(I), frozenset(J)
        if n < 2:
            raise SpecError("a conical hemispace needs dimension at least 2")
        if not I or not J:
            raise SpecError("both index sets must be non-empty")
        if I & J:
            raise SpecError(f"index sets overlap: {sorted(I & J)}")
        if len(I) + len(J) != n or not all(isinstance(k, int) and 1 <= k <= n for k in I | J):
            raise SpecError("index sets must partition 1..n")
        table = {}
        for i in sorted(I):
            for j in sorted(J):
                if (i, j) not in sigma:
                    raise SpecError(f"missing boundary entry for (i={i}, j={j})")
        for key, b in sigma.items():
            if key[0] not in I or key[1] not in J:
                raise SpecError(f"boundary entry at {key} is outside I x J")
            if not isinstance(b, BoundarySet):
                raise SpecError(f"entry at {key} is not a boundary set")
            if b.threshold.model is not model:
                raise SpecError(f"entry at {key} uses the wrong model")
            table[key] = BoundarySet.make(b.threshold, b.closed)
        return cls(model, n, I, J, table, False, None)

    @classmethod
    def build(cls, model, n, I, J, sigma) -> "HemispaceSpec":
        spec = cls.raw(model, n, I, J, sigma)
        v = rank_one_check(spec)
        if v is not None:
            raise RankOneError(v)
        validated = cls(spec.model, spec.n, spec.I, spec.J, spec.sigma, True, None)
        validated._thin = thin_structure(validated)
        return validated

    @property
    def validated(self) -> bool:
        return self._validated

    @property
    def thin(self) -> "ThinStructure":
        if not self._validated:
            raise SpecError("thin structure requires a validated spec")
        return self._thin

    def entry(self, i: int, j: int) -> BoundarySet:
        return self.sigma[(i, j)]

    def canonical_key(self):
        return (
            self.model,
            self.n,
            tuple(sorted(self.I)),
            tuple(sorted(self.J)),
            tuple(sorted((k, b.threshold._key(), b.closed) for k, b in self.sigma.items())),
        )

    def __eq__(self, other):
        return isinstance(other, HemispaceSpec) and self.canonical_key() == other.canonical_key()

    def __hash__(self):
        return hash(self.canonical_key())

    def __repr__(self):
        return f"HemispaceSpec({self.model.value}, n={self.n}, I={sorted(self.I)})"


def rank_one_check(spec: HemispaceSpec) -> Optional[Violation]:
    """First failing quadruple of the disjointness equations, if any.

    Each 2x2 minor (i1 < i2, j1 < j2) is tested once, in lexicographic
    order, equation 1 before equation 2.  That decides every ordered
    quadruple: equation 2 at (j1, j2) is equation 1 at (j2, j1), and
    swapping both pairs leaves each equation unchanged.  A quadruple with
    i1 = i2 or j1 = j2 never fails, because anything outside a down-set
    lies above all of it.
    """
    for i1, i2 in combinations(sorted(spec.I), 2):
        for j1, j2 in combinations(sorted(spec.J), 2):
            a, b = spec.entry(i1, j1), spec.entry(i1, j2)
            c, d = spec.entry(i2, j1), spec.entry(i2, j2)
            for side, down, up in (
                (1, downset_product(a, d), upset_product(upset_of(b), upset_of(c))),
                (2, downset_product(b, c), upset_product(upset_of(a), upset_of(d))),
            ):
                if down_up_overlap(down, up):
                    return Violation(i1, i2, j1, j2, side, down, up)
    return None


# ----------------------------------------------------------------------
# Thin structure.


@dataclass(frozen=True)
class ThinClass:
    index: int
    I_elems: tuple[int, ...]  # nest-ordered: larger J_i-closed sets first
    J_elems: tuple[int, ...]
    K: frozenset[int]  # columns with Top threshold
    L: frozenset[int]  # columns with zero threshold


@dataclass
class ThinStructure:
    model: Model
    n: int
    J_lt: dict
    J_le: dict
    J_zero: dict
    J_inf: dict
    classes: tuple[ThinClass, ...]
    beta: dict
    gamma: dict


def thin_structure(spec: HemispaceSpec) -> ThinStructure:
    """Row partitions, ordered classes and gauge factors of a valid spec.

    Raises InternalInconsistencyError when a law that rank-one validity
    guarantees fails to hold; that never happens for specs accepted by
    `rank_one_check` unless there is a bug.
    """
    model = spec.model
    J_lt: dict[int, frozenset] = {}
    J_le: dict[int, frozenset] = {}
    J_zero: dict[int, frozenset] = {}
    J_inf: dict[int, frozenset] = {}
    for i in sorted(spec.I):
        lt, le, zero, inf = set(), set(), set(), set()
        for j in sorted(spec.J):
            b = spec.entry(i, j)
            if b.threshold.is_top:
                inf.add(j)
            elif b.threshold.is_bottom:
                zero.add(j)
            elif b.closed:
                le.add(j)
            else:
                lt.add(j)
        J_lt[i], J_le[i] = frozenset(lt), frozenset(le)
        J_zero[i], J_inf[i] = frozenset(zero), frozenset(inf)

    groups: dict[tuple[frozenset, frozenset], list[int]] = {}
    for i in sorted(spec.I):
        groups.setdefault((J_inf[i], J_zero[i]), []).append(i)

    # Classes descend strictly in K, then ascend strictly in L.  That
    # relation is transitive, so checking neighbours proves it total.
    ordered = sorted(groups.items(), key=lambda kv: (-len(kv[0][0]), len(kv[0][1])))
    for ((Ka, La), _), ((Kb, Lb), _) in zip(ordered, ordered[1:]):
        if not (Kb < Ka or (Ka == Kb and La < Lb)):
            raise InternalInconsistencyError("incomparable classes in a validated spec")

    classes = []
    beta: dict[int, TScalar] = {}
    gamma: dict[int, TScalar] = {}
    for idx, ((K, L), members) in enumerate(ordered, start=1):
        J_r = frozenset(spec.J) - K - L
        for i in members:
            if J_lt[i] | J_le[i] != J_r:
                raise InternalInconsistencyError("row partition disagrees with its class")
        # Nestedness of the strict parts within the class.
        chain = sorted((J_lt[i] for i in members), key=len)
        for small, big in zip(chain, chain[1:]):
            if not small <= big:
                raise InternalInconsistencyError("strict column sets are not nested")
        I_order = tuple(sorted(members, key=lambda i: (-len(J_le[i]), i)))
        owners = {j: frozenset(i for i in members if j in J_le[i]) for j in J_r}
        J_order = tuple(sorted(J_r, key=lambda j: (-len(owners[j]), j)))
        classes.append(ThinClass(idx, I_order, J_order, K, L))

        if J_r:
            anchor = min(members)
            beta[anchor] = TScalar.unit(model)
            for j in sorted(J_r):
                gamma[j] = t_inv(spec.entry(anchor, j).threshold)
            j0 = min(J_r)
            for i in members:
                if i != anchor:
                    beta[i] = t_mul(spec.entry(i, j0).threshold, gamma[j0])
            for i in members:
                for j in J_r:
                    if spec.entry(i, j).threshold != t_mul(t_inv(gamma[j]), beta[i]):
                        raise InternalInconsistencyError(
                            "gauge factorisation failed on a finite entry"
                        )
        else:
            for i in members:
                beta[i] = TScalar.unit(model)

    # Disjointness of the finite column sets and the K-chain law.
    seen: set[int] = set()
    for cls in classes:
        if seen & set(cls.J_elems):
            raise InternalInconsistencyError("finite column sets of two classes overlap")
        seen |= set(cls.J_elems)
    for prev, cur in zip(classes, classes[1:]):
        if not (set(cur.J_elems) | cur.K) <= prev.K:
            raise InternalInconsistencyError("descending chain law failed between classes")

    return ThinStructure(model, spec.n, J_lt, J_le, J_zero, J_inf, tuple(classes), beta, gamma)


# ----------------------------------------------------------------------
# Exact membership.


@dataclass(frozen=True)
class MembershipTrace:
    member: bool
    reason: str
    class_index: Optional[int] = None
    reduced: Optional[TVec] = None


def conical_member(spec: HemispaceSpec, x: TVec) -> bool:
    return conical_member_trace(spec, x).member


def conical_member_trace(spec: HemispaceSpec, x: TVec) -> MembershipTrace:
    """Membership of x in the cone described by the spec, with a trace.

    The point is reduced to its leading class: coordinates of later
    classes and of the Top columns of the leading class are irrelevant
    (they ride along the class generators), so they are zeroed before
    the per-class halfspace-with-ownership test runs.
    """
    if not spec.validated:
        raise SpecError("membership requires a validated spec")
    if x.model is not spec.model:
        raise SpecError("point and spec use different models")
    if x.dim != spec.n:
        raise DimensionMismatchError(f"dimension mismatch: {x.dim} vs {spec.n}")
    if x.is_zero():
        return MembershipTrace(True, "zero vector")
    ts = spec.thin
    lead = None
    for cls in ts.classes:
        if any(not x.at(i).is_bottom for i in cls.I_elems):
            lead = cls
            break
    if lead is None:
        return MembershipTrace(False, "nonzero point with no support on I")

    dropped = set(lead.K).union(*(cls.I_elems for cls in ts.classes[lead.index:]))
    reduced = x
    if any(not x.at(k).is_bottom for k in dropped):
        bot = TScalar.bottom(spec.model)
        reduced = TVec(spec.model, tuple(
            bot if k in dropped else c for k, c in enumerate(x.coords, start=1)
        ))

    if not lead.J_elems:
        ok = support(reduced) <= set(lead.I_elems)
        reason = "coordinate-plane class" if ok else "support outside the plane class"
        return MembershipTrace(ok, reason, lead.index, reduced)

    if any(not reduced.at(j).is_bottom for j in sorted(lead.L)):
        return MembershipTrace(
            False, "support on a zero-threshold column", lead.index, reduced
        )
    row = {i: t_mul(ts.beta[i], reduced.at(i)) for i in lead.I_elems}
    col = {j: t_mul(ts.gamma[j], reduced.at(j)) for j in lead.J_elems}
    rhs = t_max(row.values(), spec.model)
    if rhs < t_max(col.values(), spec.model):
        return MembershipTrace(False, "dominated: max gamma_j x_j > max beta_i x_i",
                               lead.index, reduced)
    # Now every column product is at most rhs; one that reaches it sits
    # on the boundary and needs an owning row that attains rhs too.
    for j in lead.J_elems:
        if col[j] == rhs and not any(
            row[k] == rhs and j in ts.J_le[k] for k in lead.I_elems
        ):
            return MembershipTrace(
                False,
                f"boundary attained at column {j} is owned by the complement",
                lead.index,
                reduced,
            )
    return MembershipTrace(True, "inside the class halfspace", lead.index, reduced)


def complement_spec(spec: HemispaceSpec) -> HemispaceSpec:
    """The complementary hemispace in standard form.

    Roles of I and J swap; each boundary threshold inverts and its
    strictness flips (with inv exchanging zero and Top), because the
    combination e_j + mu*e_i lies in the complement exactly when
    inv(mu) fails to be a generator scaling of the original.  It is built
    once and kept on the spec; the complement does not link back.
    """
    if not spec.validated:
        raise SpecError("complement requires a validated spec")
    if spec._complement is None:
        sigma = {}
        for (i, j), b in spec.sigma.items():
            sigma[(j, i)] = BoundarySet.make(t_inv(b.threshold), not b.closed)
        try:
            spec._complement = HemispaceSpec.build(spec.model, spec.n, spec.J, spec.I, sigma)
        except RankOneError as exc:  # the complement of a valid spec is valid
            raise InternalInconsistencyError(
                f"complement failed rank-one validation: {exc}"
            ) from exc
    return spec._complement


def is_closed(spec: HemispaceSpec) -> bool:
    """True when every boundary set is closed with a finite-or-zero threshold
    (`BoundarySet.make` never leaves a Top threshold closed)."""
    return all(b.closed for b in spec.sigma.values())


# ----------------------------------------------------------------------
# Halfspace conversion (closed specs only).


@dataclass(frozen=True)
class HalfspaceForm:
    """max_j gamma_j x_j (+ alpha) <= max_i beta_i x_i (+ delta), x_L = zero."""

    model: Model
    n: int
    I: tuple[int, ...]
    J: tuple[int, ...]
    L: tuple[int, ...]
    beta: Mapping[int, TScalar]
    gamma: Mapping[int, TScalar]
    affine: bool = False
    alpha: Optional[TScalar] = None
    delta: Optional[TScalar] = None

    def evaluate(self, x: TVec) -> bool:
        if x.dim != self.n:
            raise DimensionMismatchError(f"dimension mismatch: {x.dim} vs {self.n}")
        if any(not x.at(k).is_bottom for k in self.L):
            return False
        lhs = t_max((t_mul(self.gamma[j], x.at(j)) for j in self.J), self.model)
        rhs = t_max((t_mul(self.beta[i], x.at(i)) for i in self.I), self.model)
        if self.affine:
            if self.alpha is not None:
                lhs = t_add(lhs, self.alpha)
            if self.delta is not None:
                rhs = t_add(rhs, self.delta)
        return lhs <= rhs

    def pretty(self) -> str:
        def side(coeffs, idx, offset):
            terms = [f"{format_scalar(coeffs[k])}*x{k}" for k in idx]
            if offset is not None and not offset.is_bottom:
                terms.append(format_scalar(offset))
            return "max(" + ", ".join(terms) + ")" if terms else "zero"

        lhs = side(self.gamma, self.J, self.alpha if self.affine else None)
        rhs = side(self.beta, self.I, self.delta if self.affine else None)
        out = f"{lhs} <= {rhs}"
        if self.L:
            out += " ; " + ", ".join(f"x{k} = zero" for k in self.L)
        return out


class NotClosedError(ValueError):
    pass


def _require_closed(spec: HemispaceSpec, side: str) -> None:
    if not is_closed(spec):
        i, j = min(k for k, b in spec.sigma.items() if not b.closed)
        raise NotClosedError(
            f"open or degenerate boundary present in the {side}: "
            f"entry (i={i}, j={j}) is {spec.entry(i, j).describe()}"
        )


def to_halfspace(spec: HemispaceSpec) -> HalfspaceForm:
    """Closed conical hemispaces are exactly closed homogeneous halfspaces."""
    if not spec.validated:
        raise SpecError("halfspace form requires a validated spec")
    _require_closed(spec, "spec")
    ts = spec.thin
    if len(ts.classes) > 2 or (
        len(ts.classes) == 2 and (ts.classes[1].J_elems or not ts.classes[0].J_elems)
    ):
        raise InternalInconsistencyError("closed spec with an impossible class layout")
    first = ts.classes[0]
    if not first.J_elems:
        return HalfspaceForm(spec.model, spec.n, (), (), tuple(sorted(spec.J)), {}, {})
    return HalfspaceForm(
        spec.model,
        spec.n,
        tuple(sorted(first.I_elems)),
        tuple(sorted(first.J_elems)),
        tuple(sorted(first.L)),
        {i: ts.beta[i] for i in first.I_elems},
        {j: ts.gamma[j] for j in first.J_elems},
    )


# ----------------------------------------------------------------------
# Affine hemispaces: one spec a dimension up plus a side flag.


@dataclass(frozen=True)
class AffineHemispace:
    """One member of a complementary pair of affine hemispaces.

    The base spec lives over n+1 coordinates with the extra index in I;
    its section at last coordinate 1 is the side containing zero, and
    `contains_zero` records which side this object denotes.  `cone` is
    the cone whose unit section is this side.
    """

    base: HemispaceSpec
    contains_zero: bool

    def __post_init__(self):
        if not self.base.validated:
            raise SpecError("affine hemispace needs a validated base spec")
        if self.base.n not in self.base.I:
            raise SpecError("the homogenizing index n+1 must be on the I side")

    @property
    def ambient_dim(self) -> int:
        return self.base.n - 1

    @property
    def cone(self) -> HemispaceSpec:
        return self.base if self.contains_zero else complement_spec(self.base)


SpecLike = Union[HemispaceSpec, AffineHemispace]


def member_trace(obj: SpecLike, x: TVec) -> MembershipTrace:
    """Membership of x in a conical spec or in one side of an affine pair.

    An affine side is decided at the lifted point (x, 1) in the side's
    own cone, so both sides of a pair take the same structural route.
    """
    if isinstance(obj, HemispaceSpec):
        return conical_member_trace(obj, x)
    if x.dim != obj.ambient_dim:
        raise DimensionMismatchError(f"dimension mismatch: {x.dim} vs {obj.ambient_dim}")
    return conical_member_trace(obj.cone, x.append(TScalar.unit(obj.base.model)))


def affine_member(h: AffineHemispace, x: TVec) -> bool:
    """Membership via the lifted point (x, 1) in the side's cone."""
    return member_trace(h, x).member


def affine_complement(h: AffineHemispace) -> AffineHemispace:
    return AffineHemispace(h.base, not h.contains_zero)


def other_side(obj: SpecLike) -> SpecLike:
    """The other member of the complementary pair that obj belongs to."""
    if isinstance(obj, AffineHemispace):
        return affine_complement(obj)
    return complement_spec(obj)


def to_halfspace_affine(h: AffineHemispace) -> HalfspaceForm:
    """Affine halfspace form of a closed affine hemispace.

    The side's homogeneous halfspace is sliced at last coordinate 1;
    the n+1 row contributes the right-hand offset and, on the side not
    containing zero, the n+1 column contributes the left-hand offset.
    """
    spec = h.cone
    side = "spec" if h.contains_zero else "complement side"
    _require_closed(spec, side)
    hs = to_halfspace(spec)
    np1 = spec.n
    if np1 in hs.L:
        raise NotClosedError("affine slice is empty: the lifted coordinate is forced to zero")
    bot = TScalar.bottom(spec.model)
    delta = hs.beta[np1] if np1 in hs.I else bot
    alpha = hs.gamma[np1] if np1 in hs.J else bot
    return HalfspaceForm(
        spec.model,
        np1 - 1,
        tuple(i for i in hs.I if i != np1),
        tuple(j for j in hs.J if j != np1),
        tuple(k for k in hs.L if k != np1),
        {i: hs.beta[i] for i in hs.I if i != np1},
        {j: hs.gamma[j] for j in hs.J if j != np1},
        affine=True,
        alpha=alpha,
        delta=delta,
    )


# ----------------------------------------------------------------------
# Generator views (used by the verifier and the tests).


def generator_pair(spec: HemispaceSpec, i: int, j: int, lam: TScalar) -> TVec:
    """The two-unit combination e_i + lam * e_j (lam=Top collapses to e_j)."""
    if lam.is_top:
        return unit_vector(spec.model, j, spec.n)
    return unit_vector(spec.model, i, spec.n).join(
        unit_vector(spec.model, j, spec.n).scale(lam)
    )
