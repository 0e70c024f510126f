"""Brute-force oracles confirming the structural laws at desk scale.

Everything here is exact per point: grids are finite products of exact
rational values, membership calls go through the same exact predicates
as production code, and a failing check always carries a counterexample
that reproduces the failure standalone.  Randomised sampling takes an
explicit seed; identical seeds give identical verdicts.

Every grid oracle decides on index tuples.  Each call first decides
every grid point once into a table from index tuple to membership:
`_grid_table` is the one walk of the grid, and every membership memo is
keyed by a tuple of ints.  Points off the grid -- scalar multiples,
segment points -- live on an extended axis: the sorted grid values
together with their products by the call's scalars or segment
coefficients.  On that axis a scaling is a per-coordinate index map
and, the axis being sorted, the tropical sum of two points is the
coordinatewise max of their indices; a per-call memo decides each
distinct tuple once.  Join-closure of the whole grid is decided by a
lower-neighbour pass (see `_join_closed`); only when it fails does the
row-major pair scan run, to name the first failing pair.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from .semiring import InternalInconsistencyError, Model, TScalar, quote_token, t_inv, t_mul
from .hemispace import (
    AffineHemispace,
    BoundarySet,
    HemispaceSpec,
    RankOneError,
    Violation,
    affine_member,
    conical_member,
    down_up_overlap,
    downset_product,
    generator_pair,
    other_side,
    pick_finite_in_interval,
    rank_one_check,
    split_down_product,
    split_up_product,
    upset_of,
    upset_product,
)
from .sectors import _top_ratios, assemble_from_witnesses, quasisector_gen
from .tlinalg import (
    ConeGen,
    PRDecomposition,
    TVec,
    _check_factor,
    _times,
    _vec,
    cone_member_fg,
    pr_member,
)

MemberFn = Callable[[TVec], bool]


@dataclass(frozen=True)
class GridSpec:
    """Finite per-coordinate value set; the grid is its n-fold product.
    `payloads` holds the values' payloads, None for Bottom, read once
    when the values are checked."""

    model: Model
    n: int
    values: tuple[TScalar, ...]
    payloads: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for v in self.values:
            if v.is_top:
                raise ValueError("grid values live in R_max, Top is excluded")
            if v.model is not self.model:
                raise ValueError("grid value from the wrong model")
        keys = [v._key() for v in self.values]
        if keys != sorted(set(keys)):
            raise ValueError("grid values must be sorted and distinct")
        object.__setattr__(self, "payloads", tuple(v.payload for v in self.values))

    @property
    def size(self) -> int:
        return len(self.values) ** self.n

    def point(self, idx: Sequence[int]) -> TVec:
        return _vec(self.model, tuple(self.payloads[k] for k in idx))

    def points(self) -> Iterable[TVec]:
        for idx in itertools.product(range(len(self.values)), repeat=self.n):
            yield self.point(idx)


def make_grid(
    model: Model, n: int, extra: Iterable[TScalar] = (), spanning: bool = True
) -> GridSpec:
    """Two to the powers -1..2 plus zero, augmented with extra finite values.

    With spanning=True the axis also holds one value strictly below and
    one strictly above everything else, so every threshold on it is
    exercised from both sides as well as exactly at its value.
    """
    payloads = {model.two_power(k) for k in range(-1, 3)}
    for s in extra:
        if s.is_finite:
            payloads.add(s.payload)
    if spanning:
        payloads.add(model.mul(min(payloads), model.two_power(-1)))
        payloads.add(model.mul(max(payloads), model.two))
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
    """Two to the powers -2..2."""
    return [TScalar.finite(model, model.two_power(k)) for k in range(-2, 3)]


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
    """Every grid point claimed by exactly one side (zero by both for cones;
    zero is the all-zero index tuple when the axis starts at Bottom)."""
    table1, table2 = _grid_table(side1, grid), _grid_table(side2, grid)
    zero = (0,) * grid.n if zero_in_both and grid.payloads[:1] == (None,) else None
    for cases, (idx, m1) in enumerate(table1.items(), start=1):
        m2 = table2[idx]
        if not (m1 and m2 if idx == zero else m1 != m2):
            return Verdict(name, False, cases, f"x={grid.point(idx)}, side1={m1}, side2={m2}")
    return Verdict(name, True, grid.size)


def partition_check(obj, grid: GridSpec) -> Verdict:
    """Every grid point lies on exactly one side of the pair, except that
    zero lies on both sides of a conical pair.

    Both sides are evaluated structurally (a complement through its
    normalised spec); agreement with plain negation is exactly what
    exactly-one-side means.
    """
    affine = isinstance(obj, AffineHemispace)
    member, other = (affine_member if affine else conical_member), other_side(obj)
    return pair_partition_check(
        lambda x: member(obj, x), lambda x: member(other, x), grid, zero_in_both=not affine,
        name="affine-partition" if affine else "partition",
    )


affine_partition_check = partition_check  # the name bench/workloads.py calls


def _grid_table(member: MemberFn, grid: GridSpec) -> dict[tuple[int, ...], bool]:
    """Every grid point decided once, keyed by its index tuple, in
    row-major order."""
    return {idx: member(grid.point(idx))
            for idx in itertools.product(range(len(grid.values)), repeat=grid.n)}


class _ExtendedAxis:
    """The grid values and their products with some factors, sorted and
    distinct, with one membership memo on tuples of axis indices.

    `maps[c][k]` is the axis index of values[k]·c, so the multiple x·c of
    a grid point is a per-coordinate map of its index tuple, and the
    tropical sum of two axis points is the coordinatewise max of their
    indices.  The memo starts from the grid table and calls `member`
    once on each other tuple it is asked about.
    """

    def __init__(self, member: MemberFn, grid: GridSpec,
                 table: dict[tuple[int, ...], bool], factors: Iterable[TScalar]):
        model, values = grid.model, grid.payloads
        products = {}
        for c in factors:
            _check_factor(model, c)
            products[c] = [None] * len(values) if c.is_bottom else _times(model, values, c.payload)
        axis = sorted(set(itertools.chain(values, *products.values())),
                      key=lambda q: (0, 0) if q is None else (1, q))
        where = {q: a for a, q in enumerate(axis)}
        self.model, self.axis, self._member = model, axis, member
        self.maps = {c: [where[q] for q in row] for c, row in products.items()}
        pos = [where[q] for q in values]
        self._memo = {tuple(pos[k] for k in idx): inside for idx, inside in table.items()}

    def point(self, t: tuple[int, ...]) -> TVec:
        return _vec(self.model, tuple(self.axis[a] for a in t))

    def member(self, t: tuple[int, ...]) -> bool:
        inside = self._memo.get(t)
        if inside is None:
            inside = self._memo[t] = self._member(self.point(t))
        return inside


def _thermometer_codes(grid: GridSpec) -> list[int]:
    """Each grid point in row-major order as an int with one field of
    len(values) bits per coordinate, value index k written as k one-bits.
    The values are sorted, so the bitwise or of two codes is the code of
    the join of their points."""
    m = len(grid.values)
    codes = [0]
    for c in range(grid.n):  # row-major: the last coordinate varies fastest
        codes = [base | ((1 << k) - 1) << (c * m) for base in codes for k in range(m)]
    return codes


def _join_closed(grid: GridSpec, table: dict[tuple[int, ...], bool], codes: list[int]) -> bool:
    """Whether the grid members are closed under pairwise joins.

    The grid is a product of chains.  Let J(p) be the join of the members
    at or below p: p itself for a member, otherwise the join of J at p's
    n lower neighbours.  The members are join-closed exactly when no
    non-member p has J(p) = p.  J is held as a thermometer code, so a
    join is a bitwise or; the empty join is 0, the code of the least
    point, which is never the join of members below it.
    """
    m, n = len(grid.values), grid.n
    strides = [m ** (n - 1 - c) for c in range(n)]
    below = [0] * len(codes)
    for f, (idx, inside) in enumerate(table.items()):
        if inside:
            below[f] = codes[f]
            continue
        acc = 0
        for c, k in enumerate(idx):
            if k:
                acc |= below[f - strides[c]]
        if f and acc == codes[f]:
            return False
        below[f] = acc
    return True


def closure_check(
    member: MemberFn,
    grid: GridSpec,
    pairs: Optional[int],
    scalars: Sequence[TScalar],
    seed: int = 0,
    name: str = "closure",
) -> Verdict:
    """Members stay members under pairwise joins and scalar multiples.

    pairs=None checks every pair of grid members.  The grid is closed
    under joins, so this is the lower-neighbour pass over the grid
    table; a pass counts one case per ordered pair of members, and a
    failure is named by the row-major pair scan.  Scalar multiples are
    decided on the extended axis of the grid values and `scalars`.
    """
    table = _grid_table(member, grid)
    members_idx = [idx for idx, inside in table.items() if inside]
    cases = grid.size

    def join_failure(ia, ib) -> Verdict:
        z = tuple(map(max, ia, ib))
        return Verdict(name, False, cases, f"x={grid.point(ia)}, y={grid.point(ib)}, "
                                           f"join={grid.point(z)} left the set")

    if pairs is None:
        codes = _thermometer_codes(grid)
        if _join_closed(grid, table, codes):
            cases += len(members_idx) ** 2
        else:
            codes = [code for code, inside in zip(codes, table.values()) if inside]
            inside = set(codes)
            # The join is symmetric, so the first failing pair in
            # row-major order lies on or right of the diagonal.
            for a, code in enumerate(codes):
                if not inside.issuperset(map(code.__or__, codes[a:])):
                    b = next(b for b in range(a, len(codes)) if code | codes[b] not in inside)
                    cases += (a + 1) * len(codes)
                    return join_failure(members_idx[a], members_idx[b])
            raise InternalInconsistencyError("lower-neighbour pass and pair scan disagree")
    elif members_idx:
        rng = random.Random(f"{seed}:{name}:pairs")
        for _ in range(pairs):
            ia = members_idx[rng.randrange(len(members_idx))]
            ib = members_idx[rng.randrange(len(members_idx))]
            cases += 1
            if not table[tuple(map(max, ia, ib))]:
                return join_failure(ia, ib)

    if not members_idx:
        return Verdict(name, True, cases)
    ext = _ExtendedAxis(member, grid, table, scalars)
    ladder = [(lam, ext.maps[lam]) for lam in scalars]
    for idx in members_idx:
        for lam, scaled in ladder:
            cases += 1
            if not ext.member(tuple(scaled[k] for k in idx)):
                return Verdict(
                    name, False, cases,
                    f"x={grid.point(idx)}, lam={lam}: scalar multiple left the set",
                )
    return Verdict(name, True, cases)


def segment_coefficients(model: Model, k: int) -> list[tuple[TScalar, TScalar]]:
    """The first k coefficient pairs (a, b) of the tropical segment
    samples (a·x) ⊕ (b·y).

    The ladder starts with (1,1), (1,zero), (zero,1) -- i.e. x+y, x, y --
    and then interleaves (1, 2^-s) and (2^-s, 1) for s = 1, 2, ...  so
    any k >= 3 includes both endpoints and the join.
    """
    if k < 1:
        raise ValueError("k must be positive")
    one = TScalar.unit(model)
    bot = TScalar.bottom(model)
    pairs = [(one, one), (one, bot), (bot, one)]
    for s in range(1, k // 2 + 1):
        step = TScalar.finite(model, model.two_power(-s))
        pairs += [(one, step), (step, one)]
    return pairs[:k]


def segment_convexity_check(
    member: MemberFn,
    grid: GridSpec,
    pairs: int,
    k: int,
    seed: int = 0,
    name: str = "segment-convexity",
) -> Verdict:
    """Sampled tropical segments between members stay inside the set.

    Each segment point is the coordinatewise max of two mapped index
    tuples on the extended axis of the grid values and the coefficients.
    """
    table = _grid_table(member, grid)
    members_idx = [idx for idx, inside in table.items() if inside]
    cases = grid.size
    if not members_idx:
        return Verdict(name, True, cases)
    coefficients = segment_coefficients(grid.model, k)
    ext = _ExtendedAxis(member, grid, table, dict.fromkeys(c for ab in coefficients for c in ab))
    ladder = [(ext.maps[a], ext.maps[b]) for a, b in coefficients]
    rng = random.Random(f"{seed}:{name}")
    for _ in range(pairs):
        ix = members_idx[rng.randrange(len(members_idx))]
        iy = members_idx[rng.randrange(len(members_idx))]
        for ma, mb in ladder:
            cases += 1
            t = tuple(max(ma[i], mb[j]) for i, j in zip(ix, iy))
            if not ext.member(t):
                return Verdict(
                    name, False, cases,
                    f"x={grid.point(ix)}, y={grid.point(iy)}: "
                    f"segment point {ext.point(t)} left the set",
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


def sector_union_check(obj, grid: GridSpec) -> Verdict:
    """Every member point exposes a fully-contained (quasi)sector, and the
    sector types seen on the two sides are disjoint and respect I / J.

    An affine side is the unit section of its cone, and its type-i sector
    at x is the unit section of the type-i quasisector at (x, 1), whose
    generators are the sector's lifted hull point and rays up to scaling;
    so both kinds of pair test quasisector generators against a cone.

    A cone holds a quasisector iff it holds each generator
    e_i + (y_j / y_i) e_j, which depends only on (i, j, y_i, y_j).  Each
    point's side is read from one grid table, and each call decides every
    such generator at most once per side, keyed by i, j and the value
    indices of y_i and y_j (the lifted coordinate, always the unit, has
    index len(values)); a generator is built only on a memo miss.
    """
    affine = isinstance(obj, AffineHemispace)
    sides = obj, other_side(obj)
    cones = tuple(side.cone for side in sides) if affine else sides
    n = obj.ambient_dim if affine else obj.n
    if grid.n != n:
        raise ValueError(f"grid dimension {grid.n} does not match {n}")
    payloads, lifted = grid.payloads + (grid.model.unit,), (len(grid.values),) if affine else ()
    table = _grid_table(lambda x: conical_member(cones[0], x.lift() if affine else x), grid)
    found: tuple[set, set] = (set(), set())
    decided: tuple[dict, dict] = ({}, {})  # per side: generator key -> in the cone
    cases = 0
    for idx, on_first in table.items():
        t = idx + lifted
        supp = [c for c, k in enumerate(t, start=1) if payloads[k] is not None]
        if not supp:
            continue
        which = 0 if on_first else 1
        cone, seen = cones[which], decided[which]
        hit = None
        for i in supp:
            cases += 1
            for j in supp:
                key = (i, j, t[i - 1], t[j - 1])
                inside = seen.get(key)
                if inside is None:
                    y = _vec(grid.model, tuple(payloads[k] for k in t))
                    inside = seen[key] = conical_member(cone, quasisector_gen(y, i, j))
                if not inside:
                    break
            else:
                hit = i
                break
        if hit is None:
            return Verdict("sector-union", False, cases,
                           f"x={grid.point(idx)}: no contained sector on its own side")
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
    witness assembly at the lifted level.

    The members are indexed by sector.  w lies in the type-i sector at y
    iff supp(w) lies in supp(y) and i is an index where (w, 1)_k / (y, 1)_k
    is largest, type n+1 being the lifted coordinate.  So the sectors'
    ratio routine, built once at (y, 1), reads off every type that a
    fitting member covers, and the first member of each type, in grid
    order, is its witness.  Only a certificate or a message builds a vector.
    """
    table = _grid_table(lambda y: pr_member(y, d), grid)
    model, payloads, unit = grid.model, grid.payloads, (grid.model.unit,)
    supports = {idx: frozenset(c for c, k in enumerate(idx, 1) if payloads[k] is not None)
                for idx in table}
    members = [idx for idx, inside in table.items() if inside]
    fitting: dict[frozenset, list] = {}  # supp(y) -> lifted payloads of the fitting members
    for cases, (idx, is_member) in enumerate(table.items(), start=1):
        supp = supports[idx]
        if not supp:
            meets = any(not supports[w] for w in members)
            if is_member != meets:
                return Verdict("multiorder", False, cases, f"y={grid.point(idx)} (zero case)")
            continue
        if supp not in fitting:
            fitting[supp] = [tuple(payloads[k] for k in w) + unit
                             for w in members if supports[w] <= supp]
        y = tuple(payloads[k] for k in idx) + unit
        top = _top_ratios(model, y)
        witnesses = {}
        for w in fitting[supp]:
            for i in top(w):
                witnesses.setdefault(i, w)
            if len(witnesses) > len(supp):
                break
        meets = len(witnesses) > len(supp)
        if is_member != meets:
            return Verdict(
                "multiorder", False, cases,
                f"y={grid.point(idx)}: member={is_member} but sector coverage={meets}",
            )
        if meets:
            # Exact certificate: reassemble the lifted point from its
            # lifted quasisector witnesses.
            assemble_from_witnesses(_vec(model, y),
                                    {i: _vec(model, w) for i, w in witnesses.items()})
    return Verdict("multiorder", True, grid.size)


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
    and random gauge factors, then builds it.  `build` re-derives the
    structure from the raw entries and walks the minors only if a law
    fails, so a valid draw never reaches `rank_one_check`; a failure
    would expose a bug in the generator or in the laws.
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
    member = affine_member if affine else conical_member
    side1: MemberFn = lambda x: member(first, x)
    side2: MemberFn = lambda x: member(second, x)
    catalogue = {
        "partition": lambda: partition_check(obj, grid),
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
                f"unknown property {quote_token(which)}; choose from {sorted(catalogue)} or 'all'"
            )
        return [catalogue[which]()]
    return [catalogue[name]() for name in sorted(catalogue)]
