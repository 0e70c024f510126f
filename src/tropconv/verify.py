"""Brute-force oracles confirming the structural laws at desk scale.

Everything here is exact per point: grids are finite products of exact
rational values, membership calls go through the same exact predicates
as production code, and a failing check always carries a counterexample
that reproduces the failure standalone.  Randomised sampling takes an
explicit seed; identical seeds give identical verdicts.

The all-pairs closure check writes each grid point as an int holding
one thermometer field per coordinate (value index k as k one-bits).
Grid values are sorted, so the bitwise or of two codes is the code of
their tropical sum and each pair check is a set lookup; any reported
failure is re-checked through the exact path before being believed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from .semiring import InternalInconsistencyError, Model, TScalar, t_inv, t_mul
from .hemispace import (
    AffineHemispace,
    BoundarySet,
    HemispaceSpec,
    RankOneError,
    Violation,
    affine_complement,
    affine_member,
    complement_spec,
    conical_member,
    down_up_overlap,
    downset_product,
    generator_pair,
    member_trace,
    other_side,
    pick_finite_in_interval,
    rank_one_check,
    split_down_product,
    split_up_product,
    upset_of,
    upset_product,
)
from .sectors import (
    SectorId,
    assemble_from_witnesses,
    quasisector_gens,
    sector_contains,
)
from .tlinalg import (
    ConeGen,
    PRDecomposition,
    TVec,
    cone_member_fg,
    pr_member,
    segment_points,
    support,
)

MemberFn = Callable[[TVec], bool]


@dataclass(frozen=True)
class GridSpec:
    """Finite per-coordinate value set; the grid is its n-fold product."""

    model: Model
    n: int
    values: tuple[TScalar, ...]

    def __post_init__(self):
        for v in self.values:
            if v.is_top:
                raise ValueError("grid values live in R_max, Top is excluded")
            if v.model is not self.model:
                raise ValueError("grid value from the wrong model")
        keys = [v._key() for v in self.values]
        if keys != sorted(set(keys)):
            raise ValueError("grid values must be sorted and distinct")

    @property
    def size(self) -> int:
        return len(self.values) ** self.n

    def point(self, idx: Sequence[int]) -> TVec:
        return TVec(self.model, tuple(self.values[k] for k in idx))

    def points(self) -> Iterable[TVec]:
        for idx in itertools.product(range(len(self.values)), repeat=self.n):
            yield self.point(idx)


def base_grid_payloads(model: Model) -> list[Fraction]:
    if model is Model.MAX_TIMES:
        return [Fraction(1, 2), Fraction(1), Fraction(2), Fraction(4)]
    return [Fraction(-1), Fraction(0), Fraction(1), Fraction(2)]


def make_grid(
    model: Model, n: int, extra: Iterable[TScalar] = (), spanning: bool = True
) -> GridSpec:
    """The standard grid values plus zero, augmented with extra finite values.

    With spanning=True the axis also holds one value strictly below and
    one strictly above everything else, so every threshold on it is
    exercised from both sides as well as exactly at its value.
    """
    payloads = set(base_grid_payloads(model))
    for s in extra:
        if s.is_finite:
            payloads.add(s.payload)
    if spanning:
        if model is Model.MAX_TIMES:
            payloads.add(min(payloads) / 2)
            payloads.add(max(payloads) * 2)
        else:
            payloads.add(min(payloads) - 1)
            payloads.add(max(payloads) + 1)
    values = [TScalar.bottom(model)] + [
        TScalar.finite(model, q) for q in sorted(payloads)
    ]
    return GridSpec(model, n, tuple(values))


def grid_for_spec(
    spec: HemispaceSpec, n: Optional[int] = None, spanning: bool = True
) -> GridSpec:
    """Grid covering all finite thresholds of the spec (boundary ownership
    is only exercised by values exactly at the thresholds)."""
    return make_grid(spec.model, n if n is not None else spec.n,
                     (b.threshold for b in spec.sigma.values()), spanning)


def closure_scalars(model: Model) -> list[TScalar]:
    if model is Model.MAX_TIMES:
        payloads = ["1/4", "1/2", "1", "2", "4"]
    else:
        payloads = ["-2", "-1", "0", "1", "2"]
    return [TScalar.finite(model, p) for p in payloads]


@dataclass(frozen=True)
class Verdict:
    name: str
    passed: bool
    cases: int
    counterexample: Optional[str] = None

    def to_record(self) -> dict:
        return {
            "property": self.name,
            "passed": self.passed,
            "cases": self.cases,
            "counterexample": self.counterexample,
        }


# ----------------------------------------------------------------------
# Partition and closure.


def pair_partition_check(
    side1: MemberFn, side2: MemberFn, grid: GridSpec, zero_in_both: bool,
    name: str = "partition",
) -> Verdict:
    """Every grid point claimed by exactly one side (zero by both for cones)."""
    cases = 0
    for x in grid.points():
        cases += 1
        m1, m2 = side1(x), side2(x)
        if zero_in_both and x.is_zero():
            ok = m1 and m2
        else:
            ok = m1 != m2
        if not ok:
            return Verdict(name, False, cases, f"x={x}, side1={m1}, side2={m2}")
    return Verdict(name, True, cases)


def partition_check(spec: HemispaceSpec, grid: GridSpec) -> Verdict:
    """Zero belongs to both sides, every other grid point to exactly one.

    Complement membership is evaluated structurally (through the
    normalised complement spec); agreement with plain negation is
    exactly what exactly-one-side means.
    """
    comp = complement_spec(spec)
    return pair_partition_check(
        lambda x: conical_member(spec, x), lambda x: conical_member(comp, x),
        grid, zero_in_both=True,
    )


def affine_partition_check(h: AffineHemispace, grid: GridSpec) -> Verdict:
    """An affine pair splits the whole space with no common point."""
    comp = affine_complement(h)
    return pair_partition_check(
        lambda x: affine_member(h, x), lambda x: affine_member(comp, x),
        grid, zero_in_both=False, name="affine-partition",
    )


def _grid_membership(member: MemberFn, grid: GridSpec) -> list[tuple[int, ...]]:
    """Index tuples of the grid points that are members, in row-major order."""
    m = len(grid.values)
    return [idx for idx in itertools.product(range(m), repeat=grid.n)
            if member(grid.point(idx))]


def closure_check(
    member: MemberFn,
    grid: GridSpec,
    pairs: Optional[int],
    scalars: Sequence[TScalar],
    seed: int = 0,
    name: str = "closure",
) -> Verdict:
    """Members stay members under pairwise joins and scalar multiples.

    pairs=None checks every pair of grid members; the grid is closed
    under joins, so each pair check is a lookup of the join's code among
    the members' codes.  Any candidate failure is re-verified through
    the exact membership path before it is reported.
    """
    members_idx = _grid_membership(member, grid)
    cases = grid.size

    def recheck(ia, ib) -> Optional[Verdict]:
        x, y = grid.point(ia), grid.point(ib)
        z = x.join(y)
        if not member(z):
            return Verdict(name, False, cases, f"x={x}, y={y}, join={z} left the set")
        return None

    if pairs is None:
        m = len(grid.values)
        codes = [sum(((1 << k) - 1) << (c * m) for c, k in enumerate(idx))
                 for idx in members_idx]
        inside = set(codes)
        # Cases count a block of up to 256 rows before any of its pairs.
        # The join is symmetric, so the first failing pair in row-major
        # order lies on or right of the diagonal: rows start there.
        for start in range(0, len(codes), 256):
            rows = range(start, min(start + 256, len(codes)))
            cases += len(rows) * len(codes)
            for a in rows:
                if inside.issuperset(map(codes[a].__or__, codes[a:])):
                    continue
                b = next(b for b in range(a, len(codes)) if codes[a] | codes[b] not in inside)
                bad_verdict = recheck(members_idx[a], members_idx[b])
                if bad_verdict is not None:
                    return bad_verdict
                raise InternalInconsistencyError("join codes disagree with exact path")
    elif members_idx:
        rng = random.Random(f"{seed}:{name}:pairs")
        for _ in range(pairs):
            ia = members_idx[rng.randrange(len(members_idx))]
            ib = members_idx[rng.randrange(len(members_idx))]
            cases += 1
            bad_verdict = recheck(ia, ib)
            if bad_verdict is not None:
                return bad_verdict

    for idx in members_idx:
        x = grid.point(idx)
        for lam in scalars:
            cases += 1
            if not member(x.scale(lam)):
                return Verdict(
                    name, False, cases,
                    f"x={x}, lam={lam}: scalar multiple left the set",
                )
    return Verdict(name, True, cases)


def segment_convexity_check(
    member: MemberFn,
    grid: GridSpec,
    pairs: int,
    k: int,
    seed: int = 0,
    name: str = "segment-convexity",
) -> Verdict:
    """Sampled tropical segments between members stay inside the set."""
    members_idx = _grid_membership(member, grid)
    cases = grid.size
    if not members_idx:
        return Verdict(name, True, cases)
    rng = random.Random(f"{seed}:{name}")
    for _ in range(pairs):
        x = grid.point(members_idx[rng.randrange(len(members_idx))])
        y = grid.point(members_idx[rng.randrange(len(members_idx))])
        for z in segment_points(x, y, k):
            cases += 1
            if not member(z):
                return Verdict(
                    name, False, cases, f"x={x}, y={y}: segment point {z} left the set"
                )
    return Verdict(name, True, cases)


# ----------------------------------------------------------------------
# Rank-one necessity: a violating quadruple yields a doubly-expressible
# nonzero point.


@dataclass(frozen=True)
class ViolationWitnessDetail:
    z: TVec
    inside_gens: tuple[TVec, TVec]
    outside_gens: tuple[TVec, TVec]
    lam: TScalar


def violation_witness_detail(spec: HemispaceSpec, v: Violation) -> ViolationWitnessDetail:
    """Build z expressible from both the down-side and up-side generators.

    The violating product intersection holds a finite value w; splitting
    w into finite factors inside the four boundary sets gives two
    two-generator expressions for the same nonzero point, certified here
    by the residuation membership test.  Raises ValueError when the
    spec does not fail the given violation's own equation.
    """
    i1, i2, j1, j2 = v.i1, v.i2, v.j1, v.j2
    if v.side == 2:
        j1, j2 = j2, j1
    up = upset_product(upset_of(spec.entry(i1, j2)), upset_of(spec.entry(i2, j1)))
    down = downset_product(spec.entry(i1, j1), spec.entry(i2, j2))
    if not down_up_overlap(down, up):
        raise ValueError(f"no violation at (i1={v.i1}, i2={v.i2}, j1={v.j1}, j2={v.j2}), "
                         f"equation {v.side}: {up.describe()} misses {down.describe()}")
    w = pick_finite_in_interval(up.threshold, up.strict, down.threshold, not down.closed)
    b_i1j2, b_i2j1 = split_up_product(w, upset_of(spec.entry(i1, j2)),
                                      upset_of(spec.entry(i2, j1)))
    g_i1j1, g_i2j2 = split_down_product(w, spec.entry(i1, j1), spec.entry(i2, j2))
    lam = t_mul(g_i1j1, t_inv(b_i2j1))
    outside = (generator_pair(spec, i1, j2, b_i1j2), generator_pair(spec, i2, j1, b_i2j1))
    inside = (generator_pair(spec, i1, j1, g_i1j1), generator_pair(spec, i2, j2, g_i2j2))
    z = outside[0].join(outside[1].scale(lam))
    if z.is_zero():
        raise InternalInconsistencyError("violation witness degenerated to zero")
    for gens in (inside, outside):
        cert = cone_member_fg(z, ConeGen.of(spec.model, spec.n, gens))
        if not cert.member:
            raise InternalInconsistencyError("witness is not in both generator cones")
    return ViolationWitnessDetail(z, inside, outside, lam)


def _gens_in_cone(cone: HemispaceSpec, gens: ConeGen) -> bool:
    """Exact containment: a cone swallows a generated cone iff its generators."""
    return all(conical_member(cone, g) for g in gens.gens)


def sector_union_check(obj, grid: GridSpec) -> Verdict:
    """Every member point exposes a fully-contained (quasi)sector, and the
    sector types seen on the two sides are disjoint and respect I / J.

    An affine side is the unit section of its cone, and its type-i sector
    at x is the unit section of the type-i quasisector at (x, 1), whose
    generators are the sector's lifted hull point and rays up to scaling;
    so both kinds of pair test quasisector generators against a cone.
    """
    affine = isinstance(obj, AffineHemispace)
    sides = obj, other_side(obj)
    cones = tuple(side.cone for side in sides) if affine else sides
    n = obj.ambient_dim if affine else obj.n
    if grid.n != n:
        raise ValueError(f"grid dimension {grid.n} does not match {n}")
    one = TScalar.unit(grid.model)
    found: tuple[set, set] = (set(), set())
    cases = 0
    for x in grid.points():
        if x.is_zero() and not affine:
            continue
        which = 0 if member_trace(sides[0], x).member else 1
        y = x.append(one) if affine else x
        hit = None
        for i in sorted(support(y)):
            cases += 1
            if _gens_in_cone(cones[which], quasisector_gens(SectorId.of_support(y, i))):
                hit = i
                break
        if hit is None:
            return Verdict("sector-union", False, cases,
                           f"x={x}: no contained sector on its own side")
        found[which].add(hit)
    if found[0] & found[1]:
        return Verdict("sector-union", False, cases,
                       f"sector types on both sides: {sorted(found[0] & found[1])}")
    # A side may use the sector types in the I set of its cone; for the
    # zero-containing side of an affine pair that set holds the extra
    # type n+1.
    if not found[0] <= cones[0].I or not found[1] <= cones[1].I:
        return Verdict("sector-union", False, cases,
                       f"types {sorted(found[0])} / {sorted(found[1])} leak across I/J")
    return Verdict("sector-union", True, cases)


def multiorder_invariant_check(d: PRDecomposition, grid: GridSpec) -> Verdict:
    """Grid membership in conv(P)+cone(R) equals 'every sector at the point
    meets the member set', with the if-direction certified by an exact
    witness assembly at the lifted level."""
    members = [x for x in grid.points() if pr_member(x, d)]
    cases = 0
    one = TScalar.unit(grid.model)
    for y in grid.points():
        cases += 1
        is_member = pr_member(y, d)
        if y.is_zero():
            meets = any(w.is_zero() for w in members)
            if is_member != meets:
                return Verdict("multiorder", False, cases, f"y={y} (zero case)")
            continue
        witnesses = {}
        meets = True
        for i in sorted(support(y)) + [grid.n + 1]:
            sid = SectorId.affine(y) if i == grid.n + 1 else SectorId.of_support(y, i)
            w = next((w for w in members if sector_contains(sid, w)), None)
            if w is None:
                meets = False
                break
            witnesses[i] = w.append(one)
        if is_member != meets:
            return Verdict(
                "multiorder", False, cases,
                f"y={y}: member={is_member} but sector coverage={meets}",
            )
        if meets:
            # Exact certificate: reassemble the lifted point from its
            # lifted quasisector witnesses.
            assemble_from_witnesses(y.append(one), witnesses)
    return Verdict("multiorder", True, cases)


# ----------------------------------------------------------------------
# Random instances (seeded, exact).


def random_valid_spec(
    rng: random.Random,
    model: Model,
    n: int,
    closed_only: bool = False,
    force_in_I: Optional[int] = None,
) -> HemispaceSpec:
    """A validated random spec, built through the class/gauge structure.

    The generator draws the ordered class layout (finite / Top / zero
    column sets obeying the descending chain law), nested strict parts
    and random gauge factors, then runs the independent rank-one checker
    on the result; a failure there would expose a bug in one of the two.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    coords = list(range(1, n + 1))
    while True:
        I = {i for i in coords if rng.random() < 0.5}
        if force_in_I is not None:
            I.add(force_in_I)
        if I and len(I) < n:
            break
    J = sorted(set(coords) - I)
    I = sorted(I)

    rows = I[:]
    rng.shuffle(rows)
    p = rng.randint(1, min(len(rows), 3))
    cuts = sorted(rng.sample(range(1, len(rows)), p - 1)) if p > 1 else []
    class_rows = [rows[a:b] for a, b in zip([0] + cuts, cuts + [len(rows)])]

    # First pass: the class layout.  Each later class must shrink the Top
    # column set strictly or follow a class with finite columns, so the
    # planned class count may collapse.
    layout: list[tuple[list[int], set, list[int], set]] = []
    K_prev: set = set()
    J_prev: list[int] = []
    for r, members in enumerate(class_rows):
        if r > 0 and not K_prev and not J_prev:
            layout[-1][0].extend(members)
            continue
        universe = set(J) if r == 0 else set(K_prev)
        K: set = set()
        if not closed_only:
            for _ in range(16):
                K = {j for j in sorted(universe) if rng.random() < 0.4}
                if r == 0 or K < K_prev or J_prev:
                    break
            else:
                K = set(sorted(K_prev)[1:])  # forced strict shrink
        elif r > 0 and not J_prev:
            layout[-1][0].extend(members)
            continue
        J_r = [j for j in sorted(universe - K) if rng.random() < 0.7]
        L = set(J) - K - set(J_r)
        layout.append(([*members], K, J_r, L))
        K_prev, J_prev = K, J_r

    # Second pass: nested strictness and gauge factors per class.
    pool = closure_scalars(model)
    sigma: dict[tuple[int, int], BoundarySet] = {}
    for members, K, J_r, L in layout:
        order = J_r[:]
        rng.shuffle(order)
        gammas = {j: rng.choice(pool) for j in J_r}
        for i in members:
            beta_i = rng.choice(pool)
            cut = 0 if closed_only or not order else rng.randint(0, len(order))
            strict = set(order[len(order) - cut:]) if cut else set()
            for j in J_r:
                thr = t_mul(t_inv(gammas[j]), beta_i)
                sigma[(i, j)] = BoundarySet.make(thr, j not in strict)
            for j in K:
                sigma[(i, j)] = BoundarySet.make(TScalar.top(model), False)
            for j in L:
                sigma[(i, j)] = BoundarySet.make(TScalar.bottom(model), True)

    try:
        return HemispaceSpec.build(model, n, I, J, sigma)
    except RankOneError as exc:
        raise InternalInconsistencyError(
            f"structured generator produced a rank-one violation: {exc}"
        ) from exc


def random_valid_affine(rng: random.Random, model: Model, ambient: int) -> AffineHemispace:
    base = random_valid_spec(rng, model, ambient + 1, force_in_I=ambient + 1)
    return AffineHemispace(base, contains_zero=bool(rng.getrandbits(1)))


def random_violated_spec(
    rng: random.Random, model: Model, n: int = 4
) -> tuple[HemispaceSpec, Violation]:
    """A raw spec that fails the rank-one condition, with the violation."""
    if n < 4:
        raise ValueError("need n >= 4 for two rows and two columns")
    half = n // 2
    I = list(range(1, half + 1))
    J = list(range(half + 1, n + 1))
    pool = closure_scalars(model)
    while True:
        sigma = {
            (i, j): BoundarySet.make(rng.choice(pool), rng.random() < 0.8)
            for i in I
            for j in J
        }
        spec = HemispaceSpec.raw(model, n, I, J, sigma)
        v = rank_one_check(spec)
        if v is not None:
            return spec, v


def random_pr(rng: random.Random, model: Model, n: int) -> PRDecomposition:
    """A small random (P, R)-decomposition with a non-empty hull."""
    pool = [TScalar.bottom(model)] + closure_scalars(model)

    def rand_vec() -> TVec:
        return TVec(model, tuple(rng.choice(pool) for _ in range(n)))

    P = {rand_vec() for _ in range(rng.randint(1, 3))}
    R = {rand_vec() for _ in range(rng.randint(0, 3))}
    R = {r for r in R if not r.is_zero()}
    return PRDecomposition.of(model, n, P, R)


# ----------------------------------------------------------------------
# Standard property bundle for the CLI.


def run_properties(
    obj,
    grid: GridSpec,
    samples: int,
    seed: int,
    which: str = "all",
) -> list[Verdict]:
    """Run the named property (or all of them) on a spec or affine pair."""
    affine = isinstance(obj, AffineHemispace)
    scalars = closure_scalars(grid.model)
    first, second = obj, other_side(obj)
    side1: MemberFn = lambda x: member_trace(first, x).member
    side2: MemberFn = lambda x: member_trace(second, x).member
    catalogue = {
        "partition": lambda: (
            affine_partition_check(obj, grid) if affine else partition_check(obj, grid)
        ),
        "segment-convexity": lambda: segment_convexity_check(
            side1, grid, samples, 5, seed, name="segment-convexity"
        ),
        "segment-convexity-complement": lambda: segment_convexity_check(
            side2, grid, samples, 5, seed, name="segment-convexity-complement"
        ),
        "sector-union": lambda: sector_union_check(obj, grid),
    }
    if not affine:
        # Both sides of a conical pair are cones; affine sides are merely
        # convex, so join/scaling closure only applies here.
        catalogue["closure"] = lambda: closure_check(
            side1, grid, samples, scalars, seed, name="closure"
        )
        catalogue["closure-complement"] = lambda: closure_check(
            side2, grid, samples, scalars, seed, name="closure-complement"
        )
    if which != "all":
        if which not in catalogue:
            raise ValueError(
                f"unknown property {which!r}; choose from {sorted(catalogue)} or 'all'"
            )
        return [catalogue[which]()]
    return [catalogue[name]() for name in sorted(catalogue)]
