import dataclasses
import hashlib
import random
import re

import pytest

from conftest import MP, MT, bset, sc, vec, worked_example
from tropconv.hemispace import (
    AffineHemispace,
    HemispaceSpec,
    affine_complement,
    affine_member,
    conical_member,
    rank_one_check,
)
from tropconv.sectors import SectorId, sector_contains
from tropconv import verify
from tropconv.specio import canonical_text
from tropconv.tlinalg import ConeGen, PRDecomposition, cone_member_fg, support
from tropconv.verify import (
    GridSpec,
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

    # A sector predicate that leaves out the sector's own base point:
    # the single hull point then covers none of its own sectors.
    monkeypatch.setattr(verify, "sector_contains",
                        lambda sid, w: w != sid.base and sector_contains(sid, w))
    bad = multiorder_invariant_check(d, grid2)
    assert not bad.passed
    assert bad.counterexample == "y=[1, 0]: member=True but sector coverage=False"


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
