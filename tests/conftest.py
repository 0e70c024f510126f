import pytest
from hypothesis import HealthCheck, settings

from tropconv.hemispace import BoundarySet, HalfspaceForm, HemispaceSpec
from tropconv.sectors import InvalidSectorError
from tropconv.semiring import Model, TScalar, parse_scalar, t_inv, t_mul
from tropconv.tlinalg import (
    DimensionMismatchError,
    TVec,
    _same_space,
    _vec,
    parse_vector,
    support,
)
from tropconv.verify import segment_coefficients

settings.register_profile(
    "fixed",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("fixed")

MT = Model.MAX_TIMES
MP = Model.MAX_PLUS


def sc(token: str, model: Model = MT) -> TScalar:
    return parse_scalar(token, model)


def vec(text: str, model: Model = MT) -> TVec:
    return parse_vector(text, model)


def bset(token: str, closed: bool, model: Model = MT) -> BoundarySet:
    return BoundarySet.make(parse_scalar(token, model), closed)


def worked_example() -> HemispaceSpec:
    """The running 4-d max-times example: I={1,2}, J={3,4}."""
    sigma = {
        (1, 3): bset("1", True),
        (1, 4): bset("inf", False),
        (2, 3): bset("zero", True),
        (2, 4): bset("1", True),
    }
    return HemispaceSpec.build(MT, 4, [1, 2], [3, 4], sigma)


@pytest.fixture
def worked_spec() -> HemispaceSpec:
    return worked_example()


def segment_points(x: TVec, y: TVec, k: int) -> list[TVec]:
    """k samples (a·x) ⊕ (b·y) of the tropical segment between x and y,
    computed with `TVec.scale` and `join` on the oracle's coefficient
    ladder; the reference for `verify.segment_convexity_check`."""
    _same_space(x, y)
    return [x.scale(a).join(y.scale(b)) for a, b in segment_coefficients(x.model, k)]


def drop_last(x: TVec) -> TVec:
    """x without its last coordinate: the head of a lifted point."""
    return _vec(x.model, x.p[:-1])


def common_point(x: TVec, y: TVec, i: int, affine: bool) -> TVec:
    """A nonzero point in the type-i (quasi)sectors of both x and y.

    Conical case: z_j = min(x_j / x_i, y_j / y_i), which lies in both
    quasisectors.  Affine case: the same construction on the lifted
    points (x,1), (y,1) -- with i = n+1 allowed -- rescaled back to the
    unit slice; the result lies in both sectors.
    """
    _same_space(x, y)
    n = x.dim
    if affine:
        zl = _conical_common(x.lift(), y.lift(), i)
        return drop_last(zl.scale(t_inv(zl.at(n + 1))))
    return _conical_common(x, y, i)


def _conical_common(x: TVec, y: TVec, i: int) -> TVec:
    common = support(x) & support(y)
    if not common:
        raise InvalidSectorError("points have no common support")
    if i not in common:
        raise InvalidSectorError(f"type index {i} is not in the common support {sorted(common)}")
    xi_inv, yi_inv = t_inv(x.at(i)), t_inv(y.at(i))
    return TVec(x.model, tuple(min(t_mul(xi_inv, x.at(j)), t_mul(yi_inv, y.at(j)))
                               for j in range(1, x.dim + 1)))


def evaluate(hs: HalfspaceForm, x: TVec) -> bool:
    """Whether x satisfies the halfspace form: the closed-spec reference
    that `conical_member` and `affine_member` are checked against.

    It reads the form's coefficients in x's model, on payloads with None
    for Bottom; an affine form is read at (x, 1)."""
    if x.dim != hs.n:
        raise DimensionMismatchError(f"dimension mismatch: {x.dim} vs {hs.n}")
    p, mul = (x.lift() if hs.affine else x).p, x.model.mul
    if any(p[k - 1] is not None for k in hs.L):
        return False

    def side(coeffs, idx):
        return max((mul(coeffs[k].payload, p[k - 1]) for k in idx if p[k - 1] is not None),
                   default=None)

    lhs, rhs = side(hs.gamma, hs.J), side(hs.beta, hs.I)
    return lhs is None or (rhs is not None and lhs <= rhs)
