import dataclasses
import hashlib
import itertools
import random
import re

import pytest

from conftest import MP, MT, bset, sc, segment_points, vec, worked_example
from tropconv.hemispace import (
    AffineHemispace,
    HemispaceSpec,
    affine_complement,
    affine_member,
    conical_member,
    other_side,
    rank_one_check,
)
from tropconv.sectors import (
    SectorId,
    _top_ratios,
    assemble_from_witnesses,
    quasisector_gens,
    sector_contains,
)
from tropconv.semiring import InternalInconsistencyError, ModelMismatchError, TScalar
from tropconv import verify
from tropconv.specio import canonical_text
from tropconv.tlinalg import ConeGen, PRDecomposition, cone_member_fg, pr_member, support
from tropconv.verify import (
    GridSpec,
    Verdict,
    affine_partition_check,
    closure_check,
    closure_scalars,
    grid_for_spec,
    make_grid,
    multiorder_invariant_check,
    pair_partition_check,
    partition_check,
    random_valid_affine,
    random_pr,
    random_valid_spec,
    random_violated_spec,
    run_properties,
    sector_union_check,
    segment_convexity_check,
    violation_witness_detail,
)


def test_grid_includes_thresholds(worked_spec=None):
    spec = worked_example()
    grid = grid_for_spec(spec)
    tokens = {str(v.payload) for v in grid.values if v.is_finite}
    assert "1" in tokens  # every finite threshold of the spec is on the axis
    assert grid.values[0].is_bottom
    with pytest.raises(ValueError):
        GridSpec(MT, 2, (sc("2"), sc("1")))
    with pytest.raises(ValueError):
        GridSpec(MT, 2, (sc("1"), sc("inf")))


def test_partition_on_worked_example():
    spec = worked_example()
    grid = grid_for_spec(spec)
    verdict = partition_check(spec, grid)
    assert verdict.passed and verdict.cases == grid.size >= 625


def test_partition_negative_control():
    # A hand-built overlapping pair (a cone against itself) must fail
    # with a witness; the honest pair passes.
    spec = HemispaceSpec.build(MT, 2, [1], [2], {(1, 2): bset("1", True)})
    grid = grid_for_spec(spec)
    bad = pair_partition_check(
        lambda x: conical_member(spec, x),
        lambda x: conical_member(spec, x),
        grid,
        zero_in_both=True,
    )
    assert not bad.passed and bad.counterexample is not None
    assert partition_check(spec, grid).passed


def _box(contains_zero: bool, closed_31: bool = True) -> AffineHemispace:
    sigma = {(3, 1): bset("1", closed_31), (3, 2): bset("1", True)}
    return AffineHemispace(HemispaceSpec.build(MT, 3, [3], [1, 2], sigma), contains_zero)


def test_affine_partition_negative_control():
    # Opening entry (3, 1) of a single-row box keeps it rank-one valid.
    # Its far side, taken structurally, overlaps the honest closed box
    # on the line x1 = 1, and the partition oracle must say where.
    h, mutated = _box(True), _box(True, closed_31=False)
    grid = make_grid(MT, 2)
    assert affine_partition_check(h, grid).passed
    side1 = lambda x: affine_member(h, x)
    side2 = lambda x: affine_member(affine_complement(mutated), x)
    bad = pair_partition_check(side1, side2, grid, zero_in_both=False)
    assert not bad.passed
    x = vec(re.match(r"x=(\[[^\]]*\])", bad.counterexample).group(1))
    assert x.at(1) == sc("1")
    assert side1(x) and side2(x)


def test_sector_union_builds_the_far_cone_once(monkeypatch):
    far = _box(False)
    builds = []
    build = HemispaceSpec.build.__func__

    def counting_build(cls, *args):
        builds.append(args)
        return build(cls, *args)

    monkeypatch.setattr(HemispaceSpec, "build", classmethod(counting_build))
    assert sector_union_check(far, make_grid(MT, 2)).passed
    assert len(builds) == 1


def _reference_sector_union(obj, grid):
    """sector_union_check as a per-point loop that builds the generators
    of every quasisector it tries and tests them all again."""
    affine = isinstance(obj, AffineHemispace)
    sides = obj, other_side(obj)
    cones = tuple(side.cone for side in sides) if affine else sides
    side_member = affine_member if affine else conical_member
    found, cases = (set(), set()), 0
    for x in grid.points():
        if x.is_zero() and not affine:
            continue
        which = 0 if side_member(sides[0], x) else 1
        y = x.lift() if affine else x
        hit = None
        for i in sorted(support(y)):
            cases += 1
            gens = quasisector_gens(SectorId.of_support(y, i)).gens
            if all(conical_member(cones[which], g) for g in gens):
                hit = i
                break
        if hit is None:
            return verify.Verdict("sector-union", False, cases,
                                  f"x={x}: no contained sector on its own side")
        found[which].add(hit)
    if found[0] & found[1]:
        return verify.Verdict("sector-union", False, cases,
                              f"sector types on both sides: {sorted(found[0] & found[1])}")
    if not found[0] <= cones[0].I or not found[1] <= cones[1].I:
        return verify.Verdict("sector-union", False, cases,
                              f"types {sorted(found[0])} / {sorted(found[1])} leak across I/J")
    return verify.Verdict("sector-union", True, cases)


def _bounds_the_lift(h: AffineHemispace) -> bool:
    """Whether some lifted threshold sigma(n+1, j) is finite, so that the
    affine side is not a cone."""
    return any(b.threshold.is_finite for (i, _), b in h.base.sigma.items() if i == h.base.n)


def _seeded_pairs():
    """Seeded conical specs (n = 2..4) and affine pairs (ambient 1..3) in
    both models, each with the grid through its thresholds.  Per model and
    ambient dimension one more affine pair is drawn, from its own seed,
    until its lifted row has a finite threshold."""
    rng, bounded = random.Random(21), random.Random(22)
    for model in (MT, MP):
        for n in (2, 3, 4):
            for _ in range(2 if n < 4 else 1):
                spec = random_valid_spec(rng, model, n)
                yield spec, grid_for_spec(spec, spanning=n < 4)
        for ambient in (1, 2, 3):
            h = random_valid_affine(rng, model, ambient)
            yield h, grid_for_spec(h.base, ambient, spanning=ambient < 3)
            h = random_valid_affine(bounded, model, ambient)
            while not _bounds_the_lift(h):
                h = random_valid_affine(bounded, model, ambient)
            yield h, grid_for_spec(h.base, ambient, spanning=ambient < 3)


def test_sector_union_matches_the_per_point_reference():
    kinds, bounded = set(), 0
    for obj, grid in _seeded_pairs():
        for side in (obj, other_side(obj)):
            assert sector_union_check(side, grid) == _reference_sector_union(side, grid)
            kinds.add(isinstance(side, AffineHemispace))
        bounded += isinstance(obj, AffineHemispace) and _bounds_the_lift(obj)
    assert kinds == {False, True}
    assert bounded >= 6


def test_sector_union_tests_each_generator_once_per_side(monkeypatch):
    made, tested = [], []
    gen, member = verify.quasisector_gen, verify.conical_member

    def counting_gen(y, i, j):
        g = gen(y, i, j)
        made.append((g, (i, j, y.at(i).payload, y.at(j).payload)))
        return g

    def counting_member(cone, x):
        if made and made[-1][0] is x:  # a generator test, not a side decision
            tested.append((id(cone), made.pop()[1]))
        return member(cone, x)

    monkeypatch.setattr(verify, "quasisector_gen", counting_gen)
    monkeypatch.setattr(verify, "conical_member", counting_member)
    spec = worked_example()
    for obj, grid in ((spec, grid_for_spec(spec)), (_box(False), make_grid(MT, 2)),
                      (random_valid_affine(random.Random(3), MP, 2), make_grid(MP, 2))):
        del made[:], tested[:]
        # The reference calls hemispace's conical_member, which is not patched.
        assert sector_union_check(obj, grid) == _reference_sector_union(obj, grid)
        assert not made and tested
        assert len(tested) == len(set(tested))


def test_closure_positive_and_negative():
    spec = worked_example()
    grid = grid_for_spec(spec)
    scalars = closure_scalars(MT)
    good = closure_check(lambda x: conical_member(spec, x), grid, None, scalars)
    assert good.passed

    # Negative control: the union of the two axes is closed under scaling
    # but not under joins.
    def axes_only(x):
        return x.at(1).is_bottom or x.at(2).is_bottom

    grid2 = make_grid(MT, 2)
    bad = closure_check(axes_only, grid2, None, scalars)
    assert not bad.passed
    assert bad.counterexample is not None
    # the counterexample replays: parse the two points back and re-check
    assert "join=" in bad.counterexample


def test_closure_sampled_mode_is_deterministic():
    spec = worked_example()
    grid = grid_for_spec(spec)
    scalars = closure_scalars(MT)
    runs = [
        closure_check(lambda x: conical_member(spec, x), grid, 150, scalars, seed=9)
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


def test_segment_convexity_negative_control():
    # Two crossed boxes (extra-type sectors at (1,4) and (4,1)) make a
    # genuinely non-convex union: the join of their corners escapes.
    s1 = SectorId.affine(vec("[1, 4]"))
    s2 = SectorId.affine(vec("[4, 1]"))

    def crossed(x):
        return sector_contains(s1, x) or sector_contains(s2, x)

    assert crossed(vec("[1, 4]")) and crossed(vec("[4, 1]"))
    assert not crossed(vec("[4, 4]"))
    grid = make_grid(MT, 2)
    bad = segment_convexity_check(crossed, grid, pairs=300, k=5, seed=1)
    assert not bad.passed

    good = segment_convexity_check(lambda x: sector_contains(s1, x), grid, 300, 5, seed=1)
    assert good.passed
    # semispaces (sector complements) are convex too
    comp = segment_convexity_check(lambda x: not sector_contains(s1, x), grid, 300, 5, seed=1)
    assert comp.passed


def _reference_grid_membership(member, grid):
    m = len(grid.values)
    return [idx for idx in itertools.product(range(m), repeat=grid.n)
            if member(grid.point(idx))]


def _reference_closure(member, grid, pairs, scalars, seed=0, name="closure"):
    """The closure check before grid tables: every pair of members through
    thermometer codes, and every scalar multiple through `TVec.scale`."""
    members_idx = _reference_grid_membership(member, grid)
    cases = grid.size

    def recheck(ia, ib):
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
        for a in range(len(codes)):
            cases += len(codes)
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
                return Verdict(name, False, cases,
                               f"x={x}, lam={lam}: scalar multiple left the set")
    return Verdict(name, True, cases)


def _reference_segments(member, grid, pairs, k, seed=0, name="segment-convexity"):
    """The segment check before grid tables: each sampled point built with
    `TVec.scale` and `join`."""
    members_idx = _reference_grid_membership(member, grid)
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
                return Verdict(name, False, cases,
                               f"x={x}, y={y}: segment point {z} left the set")
    return Verdict(name, True, cases)


def _box_le_2(x):
    """The max-times box with every coordinate at most 2: closed under
    joins, not under scaling."""
    return all(c.is_bottom or c.payload <= 2 for c in x.coords)


def _all_but(point):
    """The whole space without one point."""
    return lambda x: x != point


def _assert_matches_references(member, grid, samples=60, seed=3):
    """Both closure modes and the segment check agree with the references."""
    scalars = closure_scalars(grid.model)
    verdicts = []
    for pairs in (None, samples):
        got = closure_check(member, grid, pairs, scalars, seed)
        assert got == _reference_closure(member, grid, pairs, scalars, seed)
        verdicts.append(got)
    got = segment_convexity_check(member, grid, samples, 5, seed)
    assert got == _reference_segments(member, grid, samples, 5, seed)
    return verdicts + [got]


def test_scaling_negative_control():
    grid = make_grid(MT, 2)
    for pairs in (None, 40):
        bad = closure_check(_box_le_2, grid, pairs, closure_scalars(MT))
        assert not bad.passed
        assert bad.counterexample.endswith("scalar multiple left the set")
        assert bad == _reference_closure(_box_le_2, grid, pairs, closure_scalars(MT))


def test_segment_negative_control_off_the_grid():
    grid = make_grid(MT, 2)
    z = vec("[1/8, 1]")  # [0, 1] ⊕ 1/2·[1/4, 1]; 1/8 is not a grid value
    assert z not in set(grid.points())
    assert segment_points(vec("[0, 1]"), vec("[1/4, 1]"), 4)[3] == z
    bad = segment_convexity_check(_all_but(z), grid, 2000, 5, seed=1)
    assert not bad.passed and "segment point [1/8, 1] left the set" in bad.counterexample
    assert bad == _reference_segments(_all_but(z), grid, 2000, 5, seed=1)


def test_closure_and_segments_match_the_references():
    """Seeded conical pairs (n = 2..4) and affine pairs (ambient 1..3) in
    both models, both closure modes.  Each affine pair that bounds its
    lift, in `_seeded_pairs` and the six added here, has a side that
    scaling leaves."""
    instances = list(_seeded_pairs())
    rng = random.Random(4)
    for model in (MT, MP):
        for ambient in (1, 2, 3):
            h = random_valid_affine(rng, model, ambient)
            while not _bounds_the_lift(h):
                h = random_valid_affine(rng, model, ambient)
            instances.append((h, grid_for_spec(h.base, ambient)))
    scaling_failures = 0
    for obj, grid in instances:
        for side in (obj, other_side(obj)):
            member = (affine_member if isinstance(side, AffineHemispace) else conical_member)
            verdicts = _assert_matches_references(lambda x, s=side: member(s, x), grid)
            assert verdicts[2].passed and verdicts[0].passed == verdicts[1].passed
            scaling_failures += not verdicts[0].passed
    assert scaling_failures >= 6


def test_negative_controls_match_the_references():
    """Sets that break each law: random subsets of the grid, cones with one
    point taken out (on the grid, deep in row-major order, or a scalar
    multiple off it), the box and the crossed boxes."""
    rng = random.Random(17)
    failed = []
    for model in (MT, MP):
        for n in (2, 3):
            grid = make_grid(model, n)
            for density in (0.6, 0.95):
                salt = rng.random()

                def subset(x, salt=salt, density=density):
                    digest = hashlib.sha256(f"{salt}:{x}".encode()).digest()
                    return digest[0] < 256 * density

                failed.append(_assert_matches_references(subset, grid))
            spec = random_valid_spec(rng, model, n)
            members = [x for x in grid.points() if conical_member(spec, x) and not x.is_zero()]
            gone = members[-len(members) // 3]
            failed.append(_assert_matches_references(
                lambda x, s=spec, g=gone: x != g and conical_member(s, x), grid))
            on_grid = set(grid.points())
            off = next(y for x in members for lam in closure_scalars(model)
                       if (y := x.scale(lam)) not in on_grid)
            failed.append(_assert_matches_references(
                lambda x, s=spec, g=off: x != g and conical_member(s, x), grid))
    grid = make_grid(MT, 2)
    s1, s2 = SectorId.affine(vec("[1, 4]")), SectorId.affine(vec("[4, 1]"))
    for member in (_box_le_2, lambda x: x.at(1).is_bottom or x.at(2).is_bottom,
                   lambda x: sector_contains(s1, x) or sector_contains(s2, x)):
        failed.append(_assert_matches_references(member, grid, samples=300))
    assert sum(not v.passed for vs in failed for v in vs) >= 2 * len(failed)


def test_closure_and_segments_decide_each_point_once():
    rng = random.Random(5)
    for model in (MT, MP):
        spec = random_valid_spec(rng, model, 3)
        grid = grid_for_spec(spec)
        for member in (lambda x: conical_member(spec, x), _box_le_2 if model is MT else
                       (lambda x: x.at(1).is_bottom or x.at(2).is_bottom)):
            asked = []

            def counting(x):
                asked.append(x.coords)
                return member(x)

            for run in (lambda: closure_check(counting, grid, None, closure_scalars(model)),
                        lambda: closure_check(counting, grid, 200, closure_scalars(model)),
                        lambda: segment_convexity_check(counting, grid, 200, 7)):
                del asked[:]
                run()
                assert len(asked) == len(set(asked)) >= grid.size


def test_every_oracle_walks_the_grid_through_its_table(monkeypatch):
    # No oracle walks GridSpec.points: each reads the grid as index tuples
    # through one table, and the verdicts are those of an unpatched run.
    spec = worked_example()
    h = random_valid_affine(random.Random(3), MP, 2)
    grid, affine_grid = grid_for_spec(spec), grid_for_spec(h.base, 2)
    side, far = (lambda x: conical_member(spec, x)), (lambda x: affine_member(h, x))
    d = random_pr(random.Random(4), MT, 2)
    runs = [
        lambda: partition_check(spec, grid),
        lambda: affine_partition_check(h, affine_grid),
        lambda: closure_check(side, grid, None, closure_scalars(MT)),
        lambda: closure_check(side, grid, 200, closure_scalars(MT), seed=2),
        lambda: segment_convexity_check(side, grid, 100, 5, seed=2),
        lambda: segment_convexity_check(far, affine_grid, 100, 5, seed=2),
        lambda: sector_union_check(spec, grid),
        lambda: sector_union_check(h, affine_grid),
        lambda: multiorder_invariant_check(d, make_grid(MT, 2)),
        lambda: run_properties(spec, grid, 60, 1, "all"),
        lambda: run_properties(h, affine_grid, 60, 1, "all"),
    ]
    expected = [run() for run in runs]

    def no_walk(self):
        raise AssertionError("an oracle walked GridSpec.points")

    monkeypatch.setattr(GridSpec, "points", no_walk)
    for run, want in zip(runs, expected):
        got = run()
        assert got == want
        assert all(v.passed for v in (got if isinstance(got, list) else [got]))


def test_bad_factors_and_ladders_raise_as_before():
    grid = make_grid(MT, 2)
    member = _box_le_2
    for scalars, exc in (([TScalar.top(MT)], ValueError),
                         ([TScalar.unit(MP)], ModelMismatchError)):
        for check in (closure_check, _reference_closure):
            with pytest.raises(exc):
                check(member, grid, None, scalars)
    for check in (segment_convexity_check, _reference_segments):
        with pytest.raises(ValueError):
            check(member, grid, 10, 0)


def test_violation_witness_lands_in_both_cones():
    sigma = {
        (1, 3): bset("1", True),
        (1, 4): bset("1", True),
        (2, 3): bset("1", True),
        (2, 4): bset("2", True),
    }
    raw = HemispaceSpec.raw(MT, 4, [1, 2], [3, 4], sigma)
    v = rank_one_check(raw)
    detail = violation_witness_detail(raw, v)
    assert not detail.z.is_zero()
    for gens in (detail.inside_gens, detail.outside_gens):
        assert cone_member_fg(detail.z, ConeGen.of(MT, 4, gens)).member


def test_violation_witness_requires_a_violation():
    spec = worked_example()
    fake = rank_one_check(
        HemispaceSpec.raw(MT, 4, [1, 2], [3, 4], {
            (1, 3): bset("1", True), (1, 4): bset("1", True),
            (2, 3): bset("1", True), (2, 4): bset("2", True)})
    )
    with pytest.raises(ValueError, match="no violation"):
        violation_witness_detail(spec, fake)
    # The crossing spec fails equation 1 at its only minor, not equation 2:
    # the witness is built from the violation's own equation alone.
    raw = HemispaceSpec.raw(MT, 4, [1, 2], [3, 4], {
        (1, 3): bset("1", True), (1, 4): bset("1", True),
        (2, 3): bset("1", True), (2, 4): bset("2", True)})
    assert fake.side == 1
    with pytest.raises(ValueError, match="no violation at .* equation 2"):
        violation_witness_detail(raw, dataclasses.replace(fake, side=2))


def test_random_violations_mirrored_sides():
    rng = random.Random(99)
    seen_sides = set()
    for _ in range(30):
        raw, v = random_violated_spec(rng, MT, 4)
        detail = violation_witness_detail(raw, v)
        seen_sides.add(v.side)
        for gens in (detail.inside_gens, detail.outside_gens):
            assert cone_member_fg(detail.z, ConeGen.of(MT, 4, gens)).member
    assert seen_sides  # both sides typically appear over 30 draws


def test_sector_union_and_multiorder_negative_control(monkeypatch):
    spec = worked_example()
    grid = grid_for_spec(spec)
    assert sector_union_check(spec, grid).passed

    # A decomposition whose hull misses the zero vector: the multiorder
    # equivalence must still hold.
    d = PRDecomposition.of(MT, 2, {vec("[1, 0]")}, set())
    grid2 = make_grid(MT, 2)
    assert multiorder_invariant_check(d, grid2).passed

    # A cone test that rejects every point with two nonzero coordinates
    # holds no quasisector at a base point of larger support.
    monkeypatch.setattr(verify, "conical_member",
                        lambda s, x: len(support(x)) < 2 and conical_member(s, x))
    for obj, g in ((spec, grid), (_box(False), make_grid(MT, 2))):
        bad = sector_union_check(obj, g)
        assert not bad.passed
        assert bad.counterexample.endswith("no contained sector on its own side")
    monkeypatch.undo()

    # A ratio routine that names no type for its own base point: the
    # single hull point then covers none of its own sectors.
    monkeypatch.setattr(verify, "_top_ratios", _blind_to_the_base)
    bad = multiorder_invariant_check(d, grid2)
    assert not bad.passed
    assert bad.counterexample == "y=[1, 0]: member=True but sector coverage=False"


def _blind_to_the_base(model, y):
    """The sectors' ratio routine at y, except that it names no type for
    the payloads of y itself (a negative control)."""
    top = _top_ratios(model, y)
    return lambda x: () if x == y else top(x)


def _reference_multiorder(d: PRDecomposition, grid: GridSpec, contains=sector_contains) -> Verdict:
    """multiorder_invariant_check deciding each grid point twice: once to
    collect the members, and again as the point y under test."""
    members = [x for x in grid.points() if pr_member(x, d)]
    cases = 0
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
            w = next((w for w in members if contains(sid, w)), None)
            if w is None:
                meets = False
                break
            witnesses[i] = w.lift()
        if is_member != meets:
            return Verdict("multiorder", False, cases,
                           f"y={y}: member={is_member} but sector coverage={meets}")
        if meets:
            assemble_from_witnesses(y.lift(), witnesses)
    return Verdict("multiorder", True, cases)


def test_multiorder_decides_each_point_once(monkeypatch):
    # Each grid point is decided once, and the sectors' ratio routine is
    # built once per nonzero grid point, at the lifted point (y, 1), where
    # the reference scan tests every sector against every member it
    # passes over.
    calls, built = [], []
    decide = verify.pr_member
    monkeypatch.setattr(verify, "pr_member", lambda x, d: calls.append(x) or decide(x, d))
    monkeypatch.setattr(verify, "_top_ratios",
                        lambda model, y: built.append(y) or _top_ratios(model, y))
    rng = random.Random(31)
    for model in (MT, MP):
        for n, draws in ((2, 4), (3, 4), (4, 2)):
            grid = make_grid(model, n, spanning=False)
            lifted = [y.lift().p for y in grid.points() if not y.is_zero()]
            for _ in range(draws):
                d = random_pr(rng, model, n)
                del calls[:], built[:]
                got = multiorder_invariant_check(d, grid)
                assert len(calls) == grid.size and len(set(calls)) == grid.size
                assert built == lifted
                assert got == _reference_multiorder(d, grid) and got.passed
    # A routine blind to its base point fails both the same way as a
    # sector predicate that leaves out the sector's base point.
    def broken(sid, w):
        return w != sid.base and sector_contains(sid, w)

    monkeypatch.setattr(verify, "_top_ratios", _blind_to_the_base)
    d = PRDecomposition.of(MT, 2, {vec("[1, 0]")}, set())
    bad = multiorder_invariant_check(d, make_grid(MT, 2))
    assert not bad.passed and bad == _reference_multiorder(d, make_grid(MT, 2), broken)


def test_run_properties_bundle_and_determinism():
    spec = worked_example()
    grid = grid_for_spec(spec)
    a = run_properties(spec, grid, samples=60, seed=4)
    b = run_properties(spec, grid, samples=60, seed=4)
    assert [v.to_record() for v in a] == [v.to_record() for v in b]
    assert {v.name for v in a} == {
        "partition", "closure", "closure-complement",
        "segment-convexity", "segment-convexity-complement", "sector-union",
    }
    assert all(v.passed for v in a)

    h = random_valid_affine(random.Random(5), MT, 2)
    grid2 = make_grid(MT, 2, (b_.threshold for b_ in h.base.sigma.values()))
    verdicts = run_properties(h, grid2, samples=40, seed=4)
    assert {v.name for v in verdicts} == {
        "affine-partition", "segment-convexity",
        "segment-convexity-complement", "sector-union",
    }
    assert all(v.passed for v in verdicts)

    with pytest.raises(ValueError):
        run_properties(spec, grid, 10, 0, which="no-such-property")


def test_counterexample_replay():
    def axes_only(x):
        return x.at(1).is_bottom or x.at(2).is_bottom

    grid = make_grid(MT, 2)
    bad = closure_check(axes_only, grid, None, closure_scalars(MT))
    assert not bad.passed
    # replay: the reported join must really leave the set
    again = closure_check(axes_only, grid, None, closure_scalars(MT))
    assert again == bad


def test_random_generators_cover_models_and_shapes():
    rng = random.Random(123)
    shapes = set()
    for _ in range(40):
        n = rng.choice([2, 3, 4])
        spec = random_valid_spec(rng, MP, n)
        shapes.add((n, len(spec.thin.classes)))
        assert rank_one_check(spec) is None
    assert any(p > 1 for (_, p) in shapes)
    closed = [random_valid_spec(rng, MT, 3, closed_only=True) for _ in range(10)]
    from tropconv.hemispace import is_closed

    assert all(is_closed(s) for s in closed)


def test_seeded_random_draws_are_unchanged():
    # Digests of the draws before the scalar pools were merged into
    # closure_scalars: the same seed must still give the same instances.
    expected = {
        1: "f44c8f029f688495989ab373396cd415129ee4d4c9acee7f5a22197e7f7810b7",
        2: "050fc92c7de59668a76e27de8714be0a4831941fb68d09205218fb6770eee808",
        3: "08e27c43a9fcc45eb795217abe6fcc11470624003a25a84c34377cc3cba7be80",
    }
    for seed, digest in expected.items():
        rng = random.Random(seed)
        parts = []
        for model in (MT, MP):
            parts.append(canonical_text(random_valid_spec(rng, model, 4)))
            spec, v = random_violated_spec(rng, model)
            parts.append(canonical_text(spec) + v.describe())
            d = random_pr(rng, model, 3)
            parts.append(str(sorted(map(str, d.P))) + str(sorted(map(str, d.R))))
        assert hashlib.sha256("\n".join(parts).encode()).hexdigest() == digest, seed
