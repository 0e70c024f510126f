"""Structured hemispaces: boundary sets, rank-one validation, membership.

A conical hemispace is described by a proper bipartition I + J of the
coordinates and, for every (i in I, j in J), a boundary down-set saying
which scalings lambda make e_i + lambda*e_j a generator.  The spec is
valid exactly when the matrix of boundary sets passes the rank-one
disjointness test.  Validation decides that from the thin structure
(row partitions, ordered classes, gauge factors) that also drives exact
membership, complements and halfspace conversion; the 2x2 minors are
walked only to name the violation of a rejected spec.

Affine hemispaces are handled through the same machinery one dimension
up: the base spec lives over n+1 coordinates with the extra index on
the I side, and a flag selects which member of the complementary pair
this object denotes.  Each side is the unit section of its own cone
(the base or its complement), so one membership path serves both.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Iterable, Mapping, Optional, Union

from .semiring import (
    InternalInconsistencyError,
    Model,
    TScalar,
    format_scalar,
    t_inv,
    t_mul,
)
from .tlinalg import DimensionMismatchError, TVec, _vec, unit_vector


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
    if lo.is_bottom:
        return t_mul(hi, TScalar.finite(model, model.two_power(-1)))
    if hi.is_top:
        return t_mul(lo, TScalar.finite(model, model.two))
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

    Instances from `build` are validated and carry their thin structure,
    whose derivation is the validation; `raw` instances have none and
    exist only as input for `rank_one_check` and `thin_structure`.
    `_complement` memoizes `complement_spec`, and `_kernel` the
    membership test compiled from the thin structure on the first query.
    """

    __slots__ = ("model", "n", "I", "J", "sigma", "_thin", "_complement", "_kernel")

    def __init__(self, model, n, I, J, sigma):
        self.model = model
        self.n = n
        self.I = I
        self.J = J
        self.sigma = sigma
        self._thin = None
        self._complement = None
        self._kernel = None

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
        return cls(model, n, I, J, table)

    @classmethod
    def build(cls, model, n, I, J, sigma) -> "HemispaceSpec":
        """A validated spec: its thin structure is derived once, and a law
        that fails rejects the spec with the first violation that the 2x2
        minors name, as `rank_one_check` does."""
        spec = cls.raw(model, n, I, J, sigma)
        try:
            spec._thin = thin_structure(spec)
        except InternalInconsistencyError:
            raise RankOneError(_first_violation(spec)) from None
        return spec

    @property
    def validated(self) -> bool:
        return self._thin is not None

    @property
    def thin(self) -> "ThinStructure":
        if self._thin is None:
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

    Validity is read from the thin-structure laws, which hold exactly
    when no quadruple fails; a spec with one row or one column has no
    2x2 minor and passes at once.  Only when a law fails are the minors
    walked, to name the violation.  Each minor (i1 < i2, j1 < j2) is
    tested once, in lexicographic order, equation 1 before equation 2.
    That decides every ordered quadruple: equation 2 at (j1, j2) is
    equation 1 at (j2, j1), and swapping both pairs leaves each equation
    unchanged.  A quadruple with i1 = i2 or j1 = j2 never fails, because
    anything outside a down-set lies above all of it.
    """
    if len(spec.I) < 2 or len(spec.J) < 2:
        return None
    with suppress(InternalInconsistencyError):
        thin_structure(spec)
        return None
    return _first_violation(spec)


def _first_violation(spec: HemispaceSpec) -> Violation:
    """The minor walk of `rank_one_check`, for a spec whose laws fail."""
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
    raise InternalInconsistencyError("a thin-structure law fails but no 2x2 minor does")


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
    """Row partitions, ordered classes and gauge factors of a raw spec.

    The laws (nested strict parts, gauge factorisation, descending
    chain) hold exactly when no 2x2 minor violates the rank-one
    condition, so they decide validity.  A failed law raises
    InternalInconsistencyError, which `build` turns into RankOneError.
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

    # Valid classes descend strictly in K, then ascend strictly in L, so
    # sorting by size finds their order.  The chain law below proves it:
    # each K lies in the one before, and a class repeating that K has no
    # finite columns, so its L is all of J - K.
    ordered = sorted(groups.items(), key=lambda kv: (-len(kv[0][0]), len(kv[0][1])))

    classes = []
    beta: dict[int, TScalar] = {}
    gamma: dict[int, TScalar] = {}
    for idx, ((K, L), members) in enumerate(ordered, start=1):
        J_r = frozenset(spec.J) - K - L
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

    # The K-chain law.  It also makes the finite column sets disjoint:
    # a later class's finite columns lie in an earlier K.
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


@dataclass(frozen=True)
class _ClassKernel:
    """The halfspace-with-ownership test of one thin class.

    Positions are 0-based.  Each gauge factor is kept as the integer pair
    (numerator, denominator) of its payload: J_r holds no Top or zero
    column, so beta and gamma are never Bottom or Top.  A query forms
    each product as an unreduced pair with the model's `pair_mul` and
    compares pairs by cross-multiplication, which is exact because every
    denominator is positive, so it builds no `Fraction`.
    """

    index: int
    rows: tuple[tuple[int, int, int], ...]  # (i, beta_i as a pair) in I_elems order
    cols: tuple[tuple[int, int, int, frozenset[int]], ...]  # (j, gamma_j as a pair, owning rows)
    L: tuple[int, ...]  # zero-threshold columns
    dropped: frozenset[int]  # K plus the rows of later classes


def _compile_kernel(spec: HemispaceSpec) -> tuple:
    """(payload pair product, class kernels) of a validated spec."""
    ts = spec.thin
    kernels = []
    for cls in ts.classes:
        later = (i for c in ts.classes[cls.index:] for i in c.I_elems)
        dropped = frozenset(k - 1 for k in (*cls.K, *later))
        rows = tuple((i - 1, *ts.beta[i].payload.as_integer_ratio()) for i in cls.I_elems)
        cols = tuple(
            (j - 1, *ts.gamma[j].payload.as_integer_ratio(),
             frozenset(k - 1 for k in cls.I_elems if j in ts.J_le[k]))
            for j in cls.J_elems
        )
        kernels.append(_ClassKernel(cls.index, rows, cols, tuple(j - 1 for j in sorted(cls.L)),
                                    dropped))
    return spec.model.pair_mul, tuple(kernels)


def _decide(spec: HemispaceSpec, x: TVec) -> tuple[bool, str, Optional[_ClassKernel]]:
    """(member, reason, leading class) of x in the cone described by the spec.

    The point is reduced to its leading class: coordinates of later
    classes and of the Top columns of the leading class are irrelevant
    (they ride along the class generators), so the per-class
    halfspace-with-ownership test never reads them.  Bottom coordinates
    carry no payload, so the test runs on payloads with None for Bottom,
    each read as its integer pair.
    """
    if not spec.validated:
        raise SpecError("membership requires a validated spec")
    if x.model is not spec.model:
        raise SpecError("point and spec use different models")
    if x.dim != spec.n:
        raise DimensionMismatchError(f"dimension mismatch: {x.dim} vs {spec.n}")
    if spec._kernel is None:
        spec._kernel = _compile_kernel(spec)
    pair_mul, kernels = spec._kernel
    p = x.p
    # A product is an unreduced pair (a, b) standing for a/b with b > 0,
    # so a/b > c/d exactly when a*d > c*b.  rhs is the row maximum rn/rd.
    for lead in kernels:
        row = [(i, pair_mul(bn, bd, q.numerator, q.denominator))
               for i, bn, bd in lead.rows if (q := p[i]) is not None]
        if row:
            break
    else:
        if any(q is not None for q in p):
            return False, "nonzero point with no support on I", None
        return True, "zero vector", None

    # A class with no finite column is a coordinate plane: its L is every
    # column outside K, so the zero-threshold test alone decides it.
    if lead.L and any(p[j] is not None for j in lead.L):
        return False, ("support on a zero-threshold column" if lead.cols
                       else "support outside the plane class"), lead
    rn, rd = row[0][1]
    for _, (a, b) in row:
        if a * rd > rn * b:
            rn, rd = a, b
    boundary = []  # (j, owners) of each column whose product reaches rhs
    for j, gn, gd, owners in lead.cols:
        q = p[j]
        if q is not None:
            a, b = pair_mul(gn, gd, q.numerator, q.denominator)
            if a * rd > rn * b:
                return False, "dominated: max gamma_j x_j > max beta_i x_i", lead
            if a * rd == rn * b:
                boundary.append((j, owners))
    # Now every column product is at most rhs; one that reaches it sits
    # on the boundary and needs an owning row that attains rhs too.
    if boundary:
        top = {i for i, (a, b) in row if a * rd == rn * b}
        for j, owners in boundary:
            if owners.isdisjoint(top):
                reason = f"boundary attained at column {j + 1} is owned by the complement"
                return False, reason, lead
    return True, "inside the class halfspace" if lead.cols else "coordinate-plane class", lead


def conical_member(spec: HemispaceSpec, x: TVec) -> bool:
    return _decide(spec, x)[0]


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
    """max_j gamma_j x_j <= max_i beta_i x_i, x_L = zero.

    An affine form is its cone's form read at (x, 1): its indices run to
    n+1, and the coefficient at n+1 is a constant term.
    """

    n: int
    I: tuple[int, ...]
    J: tuple[int, ...]
    L: tuple[int, ...]
    beta: Mapping[int, TScalar]
    gamma: Mapping[int, TScalar]
    affine: bool = False

    def pretty(self) -> str:
        def side(coeffs, idx):
            terms = [format_scalar(coeffs[k]) + ("" if k > self.n else f"*x{k}") for k in idx]
            return "max(" + ", ".join(terms) + ")" if terms else "zero"

        out = f"{side(self.gamma, self.J)} <= {side(self.beta, self.I)}"
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


def to_halfspace(obj: SpecLike) -> HalfspaceForm:
    """Closed conical hemispaces are exactly closed homogeneous halfspaces.

    An affine side's form is its cone's form read at (x, 1); it is empty
    when the cone forces the lifted coordinate to zero.
    """
    affine = isinstance(obj, AffineHemispace)
    spec = obj.cone if affine else obj
    if not spec.validated:
        raise SpecError("halfspace form requires a validated spec")
    _require_closed(spec, "complement side" if affine and not obj.contains_zero else "spec")
    ts = spec.thin
    if len(ts.classes) > 2 or (
        len(ts.classes) == 2 and (ts.classes[1].J_elems or not ts.classes[0].J_elems)
    ):
        raise InternalInconsistencyError("closed spec with an impossible class layout")
    # A closed spec has no Top column, so a first class with no finite
    # column is a coordinate plane: its L is all of J.
    first = ts.classes[0]
    I = tuple(sorted(first.I_elems)) if first.J_elems else ()
    J = tuple(sorted(first.J_elems))
    form = HalfspaceForm(spec.n, I, J, tuple(sorted(first.L)),
                         {i: ts.beta[i] for i in I}, {j: ts.gamma[j] for j in J})
    if not affine:
        return form
    if spec.n in form.L:
        raise NotClosedError("affine slice is empty: the lifted coordinate is forced to zero")
    return replace(form, n=spec.n - 1, affine=True)


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
    """Membership of x in a conical spec or in one side of an affine pair,
    with a trace; the reduced point zeroes the coordinates the leading
    class drops.

    An affine side is decided at the lifted point (x, 1) in the side's
    own cone, so both sides of a pair take the same structural route.
    """
    spec = obj
    if isinstance(obj, AffineHemispace):
        spec, x = obj.cone, _lift(obj, x)
    member, reason, lead = _decide(spec, x)
    if lead is None:
        return MembershipTrace(member, reason)
    reduced = x
    if any(x.p[k] is not None for k in lead.dropped):
        reduced = _vec(spec.model, tuple(
            None if k in lead.dropped else q for k, q in enumerate(x.p)
        ))
    return MembershipTrace(member, reason, lead.index, reduced)


def affine_member(h: AffineHemispace, x: TVec) -> bool:
    """Membership via the lifted point (x, 1) in the side's cone."""
    return conical_member(h.cone, _lift(h, x))


def _lift(h: AffineHemispace, x: TVec) -> TVec:
    if x.dim != h.ambient_dim:
        raise DimensionMismatchError(f"dimension mismatch: {x.dim} vs {h.ambient_dim}")
    if x.model is not h.base.model:
        raise ValueError("vector coordinates must share the vector's model")
    return x.lift()


def affine_complement(h: AffineHemispace) -> AffineHemispace:
    return AffineHemispace(h.base, not h.contains_zero)


def other_side(obj: SpecLike) -> SpecLike:
    """The other member of the complementary pair that obj belongs to."""
    if isinstance(obj, AffineHemispace):
        return affine_complement(obj)
    return complement_spec(obj)


# ----------------------------------------------------------------------
# Generator views (used by the verifier and the tests).


def generator_pair(spec: HemispaceSpec, i: int, j: int, lam: TScalar) -> TVec:
    """The two-unit combination e_i + lam * e_j (lam=Top collapses to e_j)."""
    if lam.is_top:
        return unit_vector(spec.model, j, spec.n)
    return unit_vector(spec.model, i, spec.n).join(
        unit_vector(spec.model, j, spec.n).scale(lam)
    )
