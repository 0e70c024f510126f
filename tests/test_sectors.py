import random

import pytest

from conftest import MP, MT, common_point, sc, vec
from tropconv.sectors import (
    InvalidSectorError,
    SectorId,
    WitnessError,
    assemble_from_witnesses,
    quasisector_contains,
    quasisector_gen,
    quasisector_gens,
    sector_contains,
    sector_pr,
    semispace_contains,
)
from tropconv.semiring import TScalar
from tropconv.tlinalg import TVec, cone_member_fg, pr_member, support
from tropconv.verify import closure_scalars, make_grid


def test_sector_id_validation():
    y = vec("[1, 0]")
    with pytest.raises(InvalidSectorError):
        SectorId.of_support(y, 2)
    with pytest.raises(InvalidSectorError):
        SectorId.of_support(TVec.zero(MT, 2), 1)
    assert SectorId.affine(TVec.zero(MT, 2)).is_affine_type
    # A type index is in supp(y) or n+1; nothing wraps or crashes.
    y = vec("[1, 0, 2]")
    for i in (0, -1, 5, 2, None, True):
        with pytest.raises(InvalidSectorError, match="neither in supp"):
            SectorId(y, i)
    for i in (0, -1, 4, 5):
        with pytest.raises(InvalidSectorError, match=f"type index {i} is not in supp"):
            SectorId.of_support(y, i)
    assert [SectorId(y, i).is_affine_type for i in (1, 3, 4)] == [False, False, True]
    assert SectorId(y, 4) == SectorId.affine(y)
    zero = TVec.zero(MP, 2)
    assert SectorId(zero, 3).describe() == "type n+1 at [zero, zero]"
    assert sector_contains(SectorId(zero, 3), zero)
    assert not sector_contains(SectorId(zero, 3), vec("[0, zero]", MP))


def test_quasisector_predicate():
    y = vec("[1, 1]")
    s1 = SectorId.of_support(y, 1)
    assert quasisector_contains(s1, y)
    assert quasisector_contains(s1, TVec.zero(MT, 2))
    assert not quasisector_contains(s1, vec("[1, 2]"))
    # support escape
    s = SectorId.of_support(vec("[1, 0]"), 1)
    assert not quasisector_contains(s, vec("[1, 1]"))


def test_sector_predicate():
    y = vec("[1, 1]")
    assert sector_contains(SectorId.of_support(y, 1), vec("[2, 1]"))
    assert sector_contains(SectorId.affine(y), vec("[1/2, 1]"))
    assert not sector_contains(SectorId.of_support(y, 1), vec("[2, 3]"))


def test_semispace_is_sector_complement():
    y = vec("[1, 1]")
    assert not semispace_contains(SectorId.of_support(y, 1), y)
    assert semispace_contains(SectorId.of_support(y, 1), vec("[1, 2]"))
    assert semispace_contains(SectorId.affine(y), vec("[2, 1]"))
    # support escape puts the point into every semispace at y
    z = vec("[0, 0, 1]")
    y3 = vec("[1, 1, 0]")
    for i in (1, 2):
        assert semispace_contains(SectorId.of_support(y3, i), z)
    assert semispace_contains(SectorId.affine(y3), z)


def test_quasisector_generators():
    assert quasisector_gens(SectorId.of_support(vec("[1, 1]"), 1)).gens == {
        vec("[1, 0]"),
        vec("[1, 1]"),
    }
    assert quasisector_gens(SectorId.of_support(vec("[2, 1]"), 1)).gens == {
        vec("[1, 0]"),
        vec("[1, 1/2]"),
    }
    assert quasisector_gens(SectorId.of_support(vec("[1, 0]"), 1)).gens == {vec("[1, 0]")}


def test_quasisector_gens_are_the_single_generators():
    rng = random.Random(8)
    for model in (MT, MP):
        pool = [TScalar.bottom(model)] + closure_scalars(model)
        for _ in range(60):
            y = TVec(model, tuple(rng.choice(pool) for _ in range(rng.randint(1, 4))))
            for i in support(y):
                sid = SectorId.of_support(y, i)
                gens = {quasisector_gen(y, i, j) for j in support(y)}
                assert quasisector_gens(sid).gens == gens
                assert all(quasisector_contains(sid, g) for g in gens)


def test_sector_pr_forms():
    d = sector_pr(SectorId.of_support(vec("[1, 1]"), 1))
    assert d.P == {vec("[1, 0]")}
    assert d.R == {vec("[1, 0]"), vec("[1, 1]")}

    d = sector_pr(SectorId.affine(vec("[1, 1]")))
    assert d.P == {TVec.zero(MT, 2), vec("[1, 0]"), vec("[0, 1]")}
    assert d.R == frozenset()

    d = sector_pr(SectorId.affine(vec("[1, 0]")))
    assert d.P == {TVec.zero(MT, 2), vec("[1, 0]")}


def test_generator_and_inequality_forms_agree_on_grids():
    rng = random.Random(19)
    for model in (MT, MP):
        grid = make_grid(model, 3)
        points = list(grid.points())
        bases = [p for p in points if not p.is_zero()]
        for _ in range(12):
            y = rng.choice(bases)
            for i in sorted(support(y)):
                sid = SectorId.of_support(y, i)
                gens = quasisector_gens(sid)
                d = sector_pr(sid)
                for x in points:
                    assert cone_member_fg(x, gens).member == quasisector_contains(sid, x)
                    assert pr_member(x, d) == sector_contains(sid, x)
            aff = SectorId.affine(y)
            d = sector_pr(aff)
            for x in points:
                assert pr_member(x, d) == sector_contains(aff, x)


def test_extra_sector_grows_with_scaling():
    rng = random.Random(23)
    grid = make_grid(MT, 2)
    points = list(grid.points())
    scalar_pairs = [("1/4", "1/2"), ("1/2", "1"), ("1", "2"), ("2", "4"), ("1/4", "4")]
    for y in rng.sample(points, 6):
        for lo, hi in scalar_pairs:
            small = SectorId.affine(y.scale(sc(lo)))
            large = SectorId.affine(y.scale(sc(hi)))
            for x in points:
                if sector_contains(small, x):
                    assert sector_contains(large, x)


def test_common_point_examples():
    x, y = vec("[2, 1]"), vec("[1, 2]")
    assert common_point(x, x, 1, affine=False) == vec("[1, 1/2]")
    assert common_point(x, y, 1, affine=False) == vec("[1, 1/2]")
    assert common_point(x, y, 3, affine=True) == vec("[1, 1]")
    with pytest.raises(InvalidSectorError):
        common_point(vec("[1, 0]"), vec("[0, 1]"), 1, affine=False)


def test_common_point_lands_in_both_sectors():
    rng = random.Random(29)
    grid = make_grid(MT, 3)
    pts = [p for p in grid.points() if not p.is_zero()]
    for _ in range(60):
        x, y = rng.choice(pts), rng.choice(pts)
        shared = support(x) & support(y)
        for i in sorted(shared):
            z = common_point(x, y, i, affine=False)
            assert not z.is_zero()
            assert quasisector_contains(SectorId.of_support(x, i), z)
            assert quasisector_contains(SectorId.of_support(y, i), z)
        for i in sorted(shared) + [4]:
            z = common_point(x, y, i, affine=True)
            sx = SectorId.affine(x) if i == 4 else SectorId.of_support(x, i)
            sy = SectorId.affine(y) if i == 4 else SectorId.of_support(y, i)
            assert sector_contains(sx, z)
            assert sector_contains(sy, z)


def test_assemble_from_witnesses():
    y = vec("[1, 1]")
    assert assemble_from_witnesses(y, {1: y, 2: y}) == y
    assert assemble_from_witnesses(y, {1: vec("[1, 1/2]"), 2: vec("[1/2, 1]")}) == y
    # scaling invariance of the witnesses
    assert assemble_from_witnesses(y, {1: y.scale(sc("4")), 2: y.scale(sc("1/4"))}) == y

    with pytest.raises(WitnessError):
        assemble_from_witnesses(y, {1: y})
    with pytest.raises(WitnessError):
        assemble_from_witnesses(y, {1: vec("[1, 2]"), 2: y})
    with pytest.raises(WitnessError):
        assemble_from_witnesses(y, {1: TVec.zero(MT, 2), 2: y})


def test_assemble_reconstructs_members():
    rng = random.Random(31)
    grid = make_grid(MP, 2)
    pts = [p for p in grid.points() if not p.is_zero()]
    for _ in range(40):
        y = rng.choice(pts)
        witnesses = {}
        ok = True
        for i in sorted(support(y)):
            sid = SectorId.of_support(y, i)
            cands = [p for p in pts if quasisector_contains(sid, p)]
            if not cands:
                ok = False
                break
            witnesses[i] = rng.choice(cands)
        if ok:
            assert assemble_from_witnesses(y, witnesses) == y


# ----------------------------------------------------------------------
# The direct sector formulas, kept as references for the sector as the
# unit section of its lifted quasisector.  Type None is the extra type.


def _reference_sector_contains(y: TVec, i, x: TVec, strict: bool = False) -> bool:
    """max(1, max over supp(y) of x_j / y_j) is at most x_i / y_i at a
    support type i, or at most 1 for the extra type; `strict` weakens
    `top >= 1` to `top > 1` (a negative control)."""
    mul, inv = x.model.mul, x.model.inv
    pairs = list(zip(x.p, y.p))
    if any(a is not None and b is None for a, b in pairs):
        return False
    r = [None if a is None else mul(a, inv(b)) for a, b in pairs]
    top = max((q for q in r if q is not None), default=None)
    if i is None:
        return top is None or top <= x.model.unit
    if top is None or top != r[i - 1]:
        return False
    return top > x.model.unit if strict else top >= x.model.unit


def _reference_sector_pr(y: TVec, i) -> tuple[set, set]:
    """Support type i: the hull point y_i e_i plus the quasisector rays.
    Extra type: the hull of zero and the axis points y_j e_j, no rays."""
    model, n = y.model, y.dim
    hull = support(y) if i is None else {i}
    P = {TVec(model, tuple(c if k == j else TScalar.bottom(model)
                           for k, c in enumerate(y.coords, 1))) for j in hull}
    if i is None:
        return P | {TVec.zero(model, n)}, set()
    return P, set(quasisector_gens(SectorId.of_support(y, i)).gens)


def _reference_describe(y: TVec, i) -> str:
    return f"type {'n+1' if i is None else i} at {y}"


def _sector_cases():
    """(model, grid points, base, reference type, type index): every
    nonzero base of the grids n = 1, 2 and a seeded sample for n = 3,
    plus the zero base with the extra type; every type per base."""
    rng = random.Random(41)
    for model in (MT, MP):
        for n in (1, 2, 3):
            points = list(make_grid(model, n, spanning=n < 3).points())
            bases = [y for y in points if not y.is_zero()]
            if n == 3:
                bases = rng.sample(bases, 30)
            for y in bases + [TVec.zero(model, n)]:
                for i in sorted(support(y)) + [None]:
                    yield model, points, y, i, n + 1 if i is None else i


def test_sector_formulas_equal_the_direct_references():
    seen = set()
    for model, points, y, i, t in _sector_cases():
        sid = SectorId(y, t)
        assert sid.describe() == _reference_describe(y, i)
        P, R = _reference_sector_pr(y, i)
        d = sector_pr(sid)
        assert (d.P, d.R) == (P, R)
        for x in points:
            want = _reference_sector_contains(y, i, x)
            assert sector_contains(sid, x) == want
            assert semispace_contains(sid, x) == (not want)
            seen.add((model, i is None, want))
    assert len(seen) == 8  # both models, both kinds of type, IN and OUT


def test_a_strict_sector_reference_disagrees():
    assert any(sector_contains(SectorId(y, t), x) != _reference_sector_contains(y, i, x, True)
               for _, points, y, i, t in _sector_cases() if i is not None for x in points)


def test_sector_predicates_build_no_lifted_vector(monkeypatch):
    # The sector is read at (y, 1) from payloads; no lifted TVec is built.
    lifts = []
    lift = TVec.lift
    monkeypatch.setattr(TVec, "lift", lambda x: lifts.append(x) or lift(x))
    tested = 0
    for _, points, y, i, t in _sector_cases():
        sid = SectorId(y, t)
        for x in points[::5]:
            sector_contains(sid, x)
            semispace_contains(sid, x)
            if i is not None:
                quasisector_contains(sid, x)
            tested += 1
    assert tested > 1000 and not lifts
    vec("[1, 0]").lift()  # the patched lift does count
    assert len(lifts) == 1
