import pytest
from hypothesis import HealthCheck, settings

from tropconv.hemispace import BoundarySet, HemispaceSpec
from tropconv.semiring import Model, TScalar, parse_scalar
from tropconv.tlinalg import TVec, _same_space, parse_vector
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
