import random
from fractions import Fraction

import pytest

from conftest import MP, MT, drop_last, sc, segment_points, vec
from tropconv.semiring import ModelMismatchError, TScalar, t_add, t_mul
from tropconv.tlinalg import (
    ConeGen,
    DimensionMismatchError,
    PRDecomposition,
    TVec,
    _same_space,
    cone_member_fg,
    homogenize,
    parse_vector,
    pr_member,
    section_unity,
    support,
    unit_vector,
)
from tropconv.verify import make_grid, random_pr


def test_support_examples():
    assert support(vec("[2, 0, 1]")) == {1, 3}
    assert support(TVec.zero(MT, 3)) == set()
    assert support(vec("[1, 2, 3]")) == {1, 2, 3}


def test_vectors_reject_top_and_mixed_models():
    with pytest.raises(ValueError):
        TVec(MT, (TScalar.top(MT),))
    with pytest.raises(ValueError):
        TVec(MT, (TScalar.unit(MP),))


def test_unit_vectors():
    assert unit_vector(MT, 1, 2) == vec("[1, 0]")
    assert unit_vector(MT, 2, 2) == vec("[0, 1]")
    assert unit_vector(MP, 1, 2) == vec("[0, zero]", MP)
    with pytest.raises(IndexError):
        unit_vector(MT, 3, 2)


def test_segment_points():
    x, y = vec("[2, 1]"), vec("[1, 2]")
    assert segment_points(x, y, 1) == [vec("[2, 2]")]
    three = segment_points(x, y, 3)
    assert three == [vec("[2, 2]"), x, y]
    five = segment_points(x, y, 5)
    # coefficient pair (1, 1/2) evaluates to max(2, 1/2), max(1, 1)
    assert vec("[2, 1]") in five[3:]
    assert len(five) == 5
    with pytest.raises(DimensionMismatchError):
        segment_points(x, vec("[1, 1, 1]"), 3)


def test_cone_membership_certificates():
    units = ConeGen.of(MT, 2, {vec("[1, 0]"), vec("[0, 1]")})
    cert = cone_member_fg(vec("[1, 1]"), units)
    assert cert.member
    assert set(cert.lambdas) == {sc("1")}

    single = ConeGen.of(MT, 2, {vec("[1, 1]")})
    cert = cone_member_fg(vec("[2, 1]"), single)
    assert not cert.member
    assert cert.lambdas == (sc("1"),)
    assert cert.reconstruction == vec("[1, 1]")

    skew = ConeGen.of(MT, 2, {vec("[2, 1]"), vec("[1, 2]")})
    cert = cone_member_fg(vec("[1, 1]"), skew)
    assert cert.member
    assert set(cert.lambdas) == {sc("1/2")}


def test_cone_membership_generators_and_joins():
    rng = random.Random(5)
    grid = make_grid(MT, 3)
    pts = [p for p in grid.points() if not p.is_zero()]
    gens = ConeGen.of(MT, 3, set(rng.sample(pts, 4)))
    for g in gens.gens:
        assert cone_member_fg(g, gens).member
    members = [p for p in pts if cone_member_fg(p, gens).member]
    for _ in range(200):
        a, b = rng.choice(members), rng.choice(members)
        assert cone_member_fg(a.join(b), gens).member


def test_homogenize_and_section_examples():
    d = PRDecomposition.of(MT, 2, {vec("[2, 1]")}, {vec("[1, 2]")})
    lifted = homogenize(d)
    assert lifted.gens == {vec("[2, 1, 1]"), vec("[1, 2, 0]")}

    assert homogenize(PRDecomposition.of(MT, 2, set(), {vec("[1, 2]")})).gens == {
        vec("[1, 2, 0]")
    }
    assert homogenize(PRDecomposition.of(MT, 2, {TVec.zero(MT, 2)}, set())).gens == {
        vec("[0, 0, 1]")
    }

    back = section_unity(lifted)
    assert back == d
    assert section_unity(ConeGen.of(MT, 3, {vec("[4, 2, 2]")})) == PRDecomposition.of(
        MT, 2, {vec("[2, 1]")}, set()
    )
    only_ray = section_unity(ConeGen.of(MT, 3, {vec("[1, 2, 0]")}))
    assert not only_ray.P
    assert not pr_member(vec("[1, 2]"), only_ray)


def test_pr_member_examples():
    d = PRDecomposition.of(MT, 2, {vec("[2, 1]")}, set())
    assert pr_member(vec("[2, 1]"), d)

    d = PRDecomposition.of(MT, 2, {TVec.zero(MT, 2)}, {vec("[1, 0]")})
    assert pr_member(vec("[3, 0]"), d)

    d = PRDecomposition.of(MT, 2, {vec("[1, 0]")}, set())
    assert not pr_member(vec("[2, 0]"), d)


def test_section_homogenize_round_trip_on_grids():
    rng = random.Random(11)
    for model in (MT, MP):
        grid = make_grid(model, 3)
        for _ in range(8):
            d = random_pr(rng, model, 3)
            back = section_unity(homogenize(d))
            for x in grid.points():
                assert pr_member(x, d) == pr_member(x, back)


def test_section_scaling_invariance():
    # x sits in the unit section iff the alpha-scaled point sits in the
    # alpha section; both reduce to cone membership of scaled lifts.
    rng = random.Random(7)
    grid = make_grid(MT, 2)
    for _ in range(6):
        d = random_pr(rng, MT, 2)
        cone = homogenize(d)
        for alpha in (sc("1/2"), sc("2"), sc("4")):
            for x in grid.points():
                lifted = x.lift()
                scaled = x.lift().scale(alpha)
                assert (
                    cone_member_fg(lifted, cone).member
                    == cone_member_fg(scaled, cone).member
                )


def test_vector_literals():
    assert parse_vector("[2, 0, 1]", MT) == TVec(MT, (sc("2"), TScalar.bottom(MT), sc("1")))
    assert parse_vector("[zero, -1]", MP).at(1).is_bottom
    with pytest.raises(ValueError):
        parse_vector("2, 0", MT)
    with pytest.raises(ValueError):
        parse_vector("[]", MT)


# The scalar-op bodies of `scale` and `join`, kept as the reference for
# the payload arithmetic that replaced them.
def _reference_scale(x: TVec, lam: TScalar) -> TVec:
    if lam.is_top:
        raise ValueError("Top is not a vector scaling factor")
    return TVec(x.model, tuple(t_mul(lam, c) for c in x.coords))


def _reference_join(x: TVec, y: TVec) -> TVec:
    _same_space(x, y)
    return TVec(x.model, tuple(t_add(a, b) for a, b in zip(x.coords, y.coords)))


def _random_scalar(rng: random.Random, model) -> TScalar:
    """Bottom, the unit, or a small or large payload of either sign."""
    kind = rng.randrange(4)
    if kind == 0:
        return TScalar.bottom(model)
    if kind == 1:
        return TScalar.unit(model)
    big = kind == 3
    q = Fraction(rng.randint(1, 10**30 if big else 9), rng.randint(1, 10**25 if big else 5))
    if model is MT:
        return TScalar.finite(model, q if rng.random() < 0.5 else 1 / q)
    return TScalar.finite(model, q if rng.random() < 0.5 else -q)


@pytest.mark.parametrize("model", [MT, MP], ids=["max-times", "max-plus"])
def test_vector_fast_paths_match_the_scalar_ops(model):
    rng = random.Random(f"fast-paths:{model.value}")
    for _ in range(400):
        n = rng.randint(1, 5)
        x = TVec(model, tuple(_random_scalar(rng, model) for _ in range(n)))
        y = TVec(model, tuple(_random_scalar(rng, model) for _ in range(n)))
        lam = _random_scalar(rng, model)
        for got, want in ((x.scale(lam), _reference_scale(x, lam)),
                          (x.join(y), _reference_join(x, y))):
            assert got == want
            assert [(c.kind, c.payload) for c in got.coords] == \
                [(c.kind, c.payload) for c in want.coords]
            assert TVec(model, got.coords) == got  # the public checks accept it
        assert x.lift() == TVec(model, x.coords + (TScalar.unit(model),))
        assert drop_last(x) == TVec(model, x.coords[:-1])
    assert TVec.zero(model, 3) == TVec(model, (TScalar.bottom(model),) * 3)


_REFERENCE = {"scale": _reference_scale, "join": _reference_join}


@pytest.mark.parametrize("method, arg, error", [
    ("scale", TScalar.top(MT), ValueError),
    ("scale", TScalar.unit(MP), ModelMismatchError),
    ("scale", TScalar.bottom(MP), ModelMismatchError),
    ("join", vec("[1, 2, 3]"), DimensionMismatchError),
    ("join", vec("[1, 2]", MP), ValueError),
], ids=["scale-top", "scale-cross-model", "scale-cross-model-bottom", "join-dimension",
        "join-model"])
def test_vector_boundaries_reject_bad_input(method, arg, error):
    x = vec("[2, 1/2]")
    for call in (getattr(x, method), lambda a: _REFERENCE[method](x, a)):
        with pytest.raises(ValueError) as exc:
            call(arg)
        assert type(exc.value) is error
