"""Acceptance suite: one test per criterion, one printed verdict line each.

Every comparison is exact (rational arithmetic end to end), so the
tolerance everywhere is zero.  Run with `pytest -s tests/test_acceptance.py`
to see the verdict lines.
"""

import itertools
import random
import time
from functools import lru_cache

from conftest import MP, MT, bset, common_point, evaluate, sc, vec, worked_example
from tropconv.hemispace import (
    AffineHemispace,
    HemispaceSpec,
    affine_complement,
    affine_member,
    complement_spec,
    conical_member,
    is_closed,
    rank_one_check,
    to_halfspace,
)
from tropconv.sectors import (
    SectorId,
    quasisector_contains,
    quasisector_gens,
    sector_contains,
    sector_pr,
)
from tropconv.semiring import t_inv, t_mul
from tropconv.specio import parse_spec_text
from tropconv.tlinalg import (
    ConeGen,
    cone_member_fg,
    homogenize,
    pr_member,
    section_unity,
    support,
)
from tropconv.verify import (
    closure_check,
    closure_scalars,
    grid_for_spec,
    make_grid,
    partition_check,
    random_pr,
    random_valid_spec,
    random_violated_spec,
    segment_convexity_check,
    violation_witness_detail,
)

WORKED_JSON = """{
  "model": "max-times", "n": 4, "I": [1, 2], "J": [3, 4],
  "sigma": [
    {"i": 1, "j": 3, "threshold": "1", "closed": true},
    {"i": 1, "j": 4, "threshold": "inf", "closed": false},
    {"i": 2, "j": 3, "threshold": "zero", "closed": true},
    {"i": 2, "j": 4, "threshold": "1", "closed": true}
  ]
}
"""


def _verdict(criterion: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} ({detail})")
    assert passed, f"{criterion} failed: {detail}"


@lru_cache(maxsize=1)
def _spec_pool() -> tuple:
    """104 validated random specs with n <= 4, both models."""
    rng = random.Random(20240901)
    specs = []
    plan = [(2, 40), (3, 40), (4, 24)]
    for n, count in plan:
        for k in range(count):
            model = MT if k % 2 == 0 else MP
            specs.append(random_valid_spec(rng, model, n))
    return tuple(specs)


def test_criterion_1_worked_example_end_to_end():
    start = time.monotonic()
    spec = parse_spec_text(WORKED_JSON)
    assert rank_one_check(spec) is None

    comp = complement_spec(spec)
    assert sorted(comp.I) == [3, 4] and sorted(comp.J) == [1, 2]
    expected = {
        (3, 1): bset("1", False),
        (3, 2): bset("inf", False),
        (4, 1): bset("zero", True),
        (4, 2): bset("1", False),
    }
    assert comp.sigma == expected

    cases = [("[0,2,0,1]", True), ("[0,1,0,2]", False),
             ("[2,0,1,0]", True), ("[1,0,2,0]", False)]
    for text, inside in cases:
        assert conical_member(spec, vec(text)) is inside
        assert conical_member(comp, vec(text)) is (not inside)
    elapsed = time.monotonic() - start
    _verdict(
        "C1 worked example",
        elapsed < 1.0,
        f"rank-one ok, complement matches, 4/4 membership cases, {elapsed:.3f}s",
    )


def test_criterion_2_partition_and_closure_on_grids():
    start = time.monotonic()
    specs = (worked_example(),) + _spec_pool()
    assert len(specs) >= 101
    failures = 0
    points = 0
    for spec in specs:
        # the stated grid: standard values augmented with the thresholds
        grid = grid_for_spec(spec, spanning=False)
        points += grid.size
        if not partition_check(spec, grid).passed:
            failures += 1
            continue
        comp = complement_spec(spec)
        scalars = closure_scalars(spec.model)
        side1 = closure_check(lambda x, s=spec: conical_member(s, x), grid, None, scalars)
        side2 = closure_check(lambda x, c=comp: conical_member(c, x), grid, None, scalars,
                              name="closure-complement")
        if not (side1.passed and side2.passed):
            failures += 1
    elapsed = time.monotonic() - start
    _verdict(
        "C2 partition+closure",
        failures == 0 and elapsed < 60.0,
        f"{len(specs)} specs, {points} grid points, all pairs joined, "
        f"{failures} failures, {elapsed:.1f}s",
    )


def test_criterion_3_rank_one_necessity():
    rng = random.Random(77001)
    checked = 0
    for model in (MT, MP):
        for _ in range(25):
            raw, violation = random_violated_spec(rng, model, 4)
            detail = violation_witness_detail(raw, violation)
            assert not detail.z.is_zero()
            for gens in (detail.inside_gens, detail.outside_gens):
                cert = cone_member_fg(detail.z, ConeGen.of(model, 4, gens))
                assert cert.member
            checked += 1
    _verdict("C3 rank-one necessity", checked >= 50,
             f"{checked} violated specs, every witness certified in both cones")


def _row_partition(spec):
    lt, le, zero, inf = {}, {}, {}, {}
    for i in sorted(spec.I):
        lt[i], le[i], zero[i], inf[i] = set(), set(), set(), set()
        for j in sorted(spec.J):
            b = spec.entry(i, j)
            if b.threshold.is_top:
                inf[i].add(j)
            elif b.threshold.is_bottom:
                zero[i].add(j)
            elif b.closed:
                le[i].add(j)
            else:
                lt[i].add(j)
    return lt, le, zero, inf


def _comparable(a, b):
    return a <= b or b <= a


def test_criterion_4_thin_structure_laws():
    specs = (worked_example(),) + _spec_pool()
    for spec in specs:
        lt, le, zero, inf = _row_partition(spec)
        ts = spec.thin
        J = set(spec.J)
        for i in spec.I:
            # (i) the four sets partition J
            assert lt[i] | le[i] | zero[i] | inf[i] == J
            assert len(lt[i]) + len(le[i]) + len(zero[i]) + len(inf[i]) == len(J)
        for i1 in spec.I:
            for i2 in spec.I:
                # (ii) Top and zero column sets form chains
                assert _comparable(inf[i1], inf[i2])
                assert _comparable(zero[i1], zero[i2])
                f1, f2 = lt[i1] | le[i1], lt[i2] | le[i2]
                if f1 & f2:
                    # (iii) overlapping finite parts coincide entirely
                    assert f1 == f2 and inf[i1] == inf[i2] and zero[i1] == zero[i2]
                    # (iv) strict parts are nested
                    assert _comparable(lt[i1], lt[i2])
                    # (v)/(vi) one scaling relates the two rows
                    ratios = {
                        t_mul(spec.entry(i1, j).threshold,
                              t_inv(spec.entry(i2, j).threshold))
                        for j in f1
                    }
                    assert len(ratios) == 1
        # class laws: finite columns partition, descending chain, nesting
        seen = set()
        for cls in ts.classes:
            assert set(cls.J_elems) | cls.K | cls.L == J
            assert not (set(cls.J_elems) & seen)
            seen |= set(cls.J_elems)
            for i in cls.I_elems:
                assert inf[i] == cls.K and zero[i] == cls.L
                assert lt[i] | le[i] == set(cls.J_elems)
            chain = sorted((lt[i] for i in cls.I_elems), key=len)
            for small, big in zip(chain, chain[1:]):
                assert small <= big
        for prev, cur in zip(ts.classes, ts.classes[1:]):
            assert set(cur.J_elems) | cur.K <= prev.K
        # gauge factorisation reproduces every finite entry exactly
        for (i, j), b in spec.sigma.items():
            if b.threshold.is_finite:
                assert b.threshold == t_mul(t_inv(ts.gamma[j]), ts.beta[i])
    _verdict("C4 thin-structure laws", True,
             f"{len(specs)} specs, all row/class/gauge laws hold exactly")


def test_criterion_5_closed_specs_equal_halfspaces():
    rng = random.Random(31337)
    conical = 0
    mismatches = 0
    for _ in range(30):
        model = MT if conical % 2 == 0 else MP
        spec = random_valid_spec(rng, model, rng.choice([2, 3, 4]), closed_only=True)
        assert is_closed(spec)
        hs = to_halfspace(spec)
        for x in grid_for_spec(spec).points():
            if evaluate(hs, x) != conical_member(spec, x):
                mismatches += 1
        conical += 1

    affine = 0
    attempts = 0
    while affine < 25 and attempts < 400:
        attempts += 1
        n = rng.choice([1, 2, 3])
        base = random_valid_spec(rng, MT if affine % 2 else MP, n + 1,
                                 closed_only=True, force_in_I=n + 1)
        h = AffineHemispace(base, contains_zero=True)
        hs = to_halfspace(h)
        for x in make_grid(base.model, n, (b.threshold for b in base.sigma.values())).points():
            if evaluate(hs, x) != affine_member(h, x):
                mismatches += 1
        affine += 1
        # open-boxed bases give a closed complement side; exercise it too
        d = random_valid_spec(rng, base.model, n + 1, closed_only=True)
        if (n + 1) in d.J and not any(
            b.threshold.is_bottom for b in d.sigma.values()
        ):
            side = AffineHemispace(complement_spec(d), contains_zero=False)
            hs2 = to_halfspace(side)
            for x in make_grid(d.model, n, (b.threshold for b in d.sigma.values())).points():
                if evaluate(hs2, x) != affine_member(side, x):
                    mismatches += 1
    _verdict(
        "C5 closed = halfspace",
        conical + affine >= 50 and mismatches == 0,
        f"{conical} conical + {affine} affine closed specs, {mismatches} mismatches",
    )


def test_criterion_6_sector_equivalences():
    rng = random.Random(60601)
    checked = 0
    for model in (MT, MP):
        for n in (2, 3, 4):
            grid = make_grid(model, n)
            points = list(grid.points())
            bases = [p for p in points if not p.is_zero()]
            for _ in range(4 if n < 4 else 2):
                y = rng.choice(bases)
                for i in sorted(support(y)):
                    sid = SectorId.of_support(y, i)
                    gens = quasisector_gens(sid)
                    d = sector_pr(sid)
                    for x in points:
                        assert cone_member_fg(x, gens).member == quasisector_contains(sid, x)
                        assert pr_member(x, d) == sector_contains(sid, x)
                    checked += 1
                aff = SectorId.affine(y)
                d = sector_pr(aff)
                for x in points:
                    assert pr_member(x, d) == sector_contains(aff, x)
                checked += 1
    # extra-type sectors grow with the scaling of the base point
    pairs = [("1/4", "1/2"), ("1/2", "1"), ("1", "2"), ("2", "4"), ("1/4", "4")]
    grid = make_grid(MT, 2)
    points = list(grid.points())
    for y in random.Random(60602).sample(points, 8):
        for lo, hi in pairs:
            small = SectorId.affine(y.scale(sc(lo)))
            large = SectorId.affine(y.scale(sc(hi)))
            for x in points:
                if sector_contains(small, x):
                    assert sector_contains(large, x)
    _verdict("C6 sector equivalences", checked >= 30,
             f"{checked} (y, i) pairs on full grids, monotonicity over 5 scalar pairs")


def test_criterion_7_homogenization_round_trip():
    rng = random.Random(70707)
    count = 0
    for model in (MT, MP):
        for n, reps in ((2, 20), (3, 20), (4, 10)):
            grid = make_grid(model, n)
            points = list(grid.points())
            for _ in range(reps):
                d = random_pr(rng, model, n)
                back = section_unity(homogenize(d))
                for x in points:
                    assert pr_member(x, d) == pr_member(x, back)
                count += 1
    # intersection witnesses always satisfy both sector predicates
    grid = make_grid(MT, 3)
    pts = [p for p in grid.points() if not p.is_zero()]
    wit = 0
    for _ in range(120):
        x, y = rng.choice(pts), rng.choice(pts)
        shared = sorted(support(x) & support(y))
        for i in shared:
            z = common_point(x, y, i, affine=False)
            assert quasisector_contains(SectorId.of_support(x, i), z)
            assert quasisector_contains(SectorId.of_support(y, i), z)
            wit += 1
        for i in shared + [4]:
            z = common_point(x, y, i, affine=True)
            sx = SectorId.affine(x) if i == 4 else SectorId.of_support(x, i)
            sy = SectorId.affine(y) if i == 4 else SectorId.of_support(y, i)
            assert sector_contains(sx, z) and sector_contains(sy, z)
            wit += 1
    _verdict("C7 homogenization round trip", count >= 100,
             f"{count} decompositions pointwise on grids, {wit} intersection witnesses")


def _catalog_2d():
    thresholds = [("1/2", True), ("1/2", False), ("1", True), ("1", False),
                  ("2", True), ("2", False)]
    for (t1, c1), (t2, c2) in itertools.product(thresholds, repeat=2):
        yield HemispaceSpec.build(MT, 3, [3], [1, 2], {
            (3, 1): bset(t1, c1), (3, 2): bset(t2, c2)})
    for (t1, c1), (t2, c2) in itertools.product(thresholds, repeat=2):
        yield HemispaceSpec.build(MT, 3, [1, 3], [2], {
            (1, 2): bset(t1, c1), (3, 2): bset(t2, c2)})
    for (t1, c1), (t2, c2) in itertools.product(thresholds, repeat=2):
        yield HemispaceSpec.build(MT, 3, [2, 3], [1], {
            (2, 1): bset(t1, c1), (3, 1): bset(t2, c2)})


def test_criterion_8_planar_catalog(tmp_path):
    from tropconv.render2d import render_svg

    rendered = 0
    convex_failures = 0
    for idx, base in enumerate(_catalog_2d()):
        h = AffineHemispace(base, contains_zero=True)
        svg = render_svg(h)
        assert svg.startswith("<svg")
        (tmp_path / f"family_{idx:03d}.svg").write_text(svg)
        rendered += 1
        grid = make_grid(MT, 2, (b.threshold for b in base.sigma.values()))
        inside = segment_convexity_check(
            lambda x: affine_member(h, x), grid, pairs=500, k=5, seed=idx)
        comp = affine_complement(h)
        outside = segment_convexity_check(
            lambda x: affine_member(comp, x), grid, pairs=500, k=5, seed=idx)
        if not (inside.passed and outside.passed):
            convex_failures += 1
    _verdict(
        "C8 planar catalog",
        rendered == 108 and convex_failures == 0,
        f"{rendered} hemispace families rendered, both sides convex "
        f"(500 pairs x 5 points each), {convex_failures} failures",
    )
