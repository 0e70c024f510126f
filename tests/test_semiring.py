from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tropconv.semiring import (
    MAX_TOKEN_CHARS,
    Model,
    ModelMismatchError,
    TScalar,
    format_scalar,
    format_scalar_compact,
    parse_scalar,
    t_add,
    t_inv,
    t_mul,
)

MT = Model.MAX_TIMES
MP = Model.MAX_PLUS


def finite_payloads(model):
    nums = st.integers(min_value=1 if model is MT else -16, max_value=16)
    dens = st.integers(min_value=1, max_value=12)
    return st.builds(Fraction, nums, dens)


def scalars(model, with_top=True):
    opts = [
        st.just(TScalar.bottom(model)),
        finite_payloads(model).map(lambda q: TScalar.finite(model, q)),
    ]
    if with_top:
        opts.append(st.just(TScalar.top(model)))
    return st.one_of(opts)


def both_models(with_top=True):
    return st.sampled_from([MT, MP]).flatmap(
        lambda m: st.tuples(st.just(m), scalars(m, with_top), scalars(m, with_top),
                            scalars(m, with_top))
    )


@settings(max_examples=1000)
@given(both_models())
def test_add_is_idempotent_commutative_associative(data):
    _, a, b, c = data
    assert t_add(a, a) == a
    assert t_add(a, b) == t_add(b, a)
    assert t_add(t_add(a, b), c) == t_add(a, t_add(b, c))


@settings(max_examples=500)
@given(both_models(with_top=False))
def test_mul_distributes_over_add_below_top(data):
    _, a, b, c = data
    assert t_mul(a, t_add(b, c)) == t_add(t_mul(a, b), t_mul(a, c))


@settings(max_examples=500)
@given(both_models())
def test_order_consistent_with_add(data):
    _, a, b, _ = data
    assert (t_add(a, b) == b) == (a <= b)


@settings(max_examples=300)
@given(st.sampled_from([MT, MP]).flatmap(lambda m: finite_payloads(m).map(
    lambda q: TScalar.finite(m, q))))
def test_finite_inverse_cancels(a):
    assert t_mul(a, t_inv(a)) == TScalar.unit(a.model)


def test_neutral_and_absorbing_elements():
    for model in (MT, MP):
        a = TScalar.finite(model, 3 if model is MP else "3/2")
        bot, top = TScalar.bottom(model), TScalar.top(model)
        assert t_add(a, bot) == a
        assert t_add(a, top) == top
        assert t_mul(bot, top) == bot
        assert t_mul(top, bot) == bot
        assert t_mul(top, a) == top
        assert t_mul(bot, a) == bot


def test_max_times_examples():
    two, three = TScalar.finite(MT, 2), TScalar.finite(MT, 3)
    assert t_add(two, three) == three
    assert t_mul(two, three) == TScalar.finite(MT, 6)
    assert t_inv(two) == TScalar.finite(MT, "1/2")
    assert t_inv(TScalar.top(MT)) == TScalar.bottom(MT)
    assert t_inv(TScalar.bottom(MT)) == TScalar.top(MT)


def test_max_plus_examples():
    assert t_mul(TScalar.finite(MP, 2), TScalar.finite(MP, 3)) == TScalar.finite(MP, 5)
    assert t_inv(TScalar.finite(MP, 3)) == TScalar.finite(MP, -3)
    assert TScalar.unit(MP) == TScalar.finite(MP, 0)
    assert t_mul(TScalar.finite(MP, 5), t_inv(TScalar.finite(MP, 2))) == TScalar.finite(MP, 3)


def test_model_mixing_rejected():
    with pytest.raises(ModelMismatchError):
        t_add(TScalar.unit(MT), TScalar.unit(MP))
    with pytest.raises(ModelMismatchError):
        t_mul(TScalar.unit(MT), TScalar.unit(MP))
    with pytest.raises(ModelMismatchError):
        TScalar.unit(MT) <= TScalar.unit(MP)


def test_max_times_rejects_nonpositive_finite():
    with pytest.raises(ValueError):
        TScalar.finite(MT, 0)
    with pytest.raises(ValueError):
        TScalar.finite(MT, -1)
    TScalar.finite(MP, -1)  # fine in max-plus


def test_parse_and_format_round_trip():
    for model in (MT, MP):
        for token in ("zero", "inf", "5", "7/3"):
            s = parse_scalar(token, model)
            assert format_scalar(s) == token
    assert parse_scalar("0", MT).is_bottom
    assert parse_scalar("0/4", MT).is_bottom
    assert parse_scalar("0", MP) == TScalar.unit(MP)
    assert format_scalar_compact(TScalar.bottom(MT)) == "0"
    assert format_scalar_compact(TScalar.bottom(MP)) == "zero"
    with pytest.raises(ValueError):
        parse_scalar("-2", MT)
    with pytest.raises(ValueError):
        parse_scalar("nonsense", MT)
    with pytest.raises(ValueError):
        parse_scalar("1/0", MT)


def test_numeric_tokens_are_bounded_and_quoted_short():
    edge = "1/" + "7" * (MAX_TOKEN_CHARS - 2)
    assert parse_scalar(edge, MT).payload == Fraction(1, int(edge[2:]))
    with pytest.raises(ValueError) as info:
        parse_scalar(edge + "7", MT)
    assert str(info.value) == (
        f"bad scalar token '1/777777777777777777'... ({MAX_TOKEN_CHARS + 1} characters): "
        f"numeric tokens are limited to {MAX_TOKEN_CHARS} characters"
    )
    with pytest.raises(ValueError) as info:
        parse_scalar("x" * MAX_TOKEN_CHARS, MT)
    assert str(info.value).startswith("bad scalar token '" + "x" * MAX_TOKEN_CHARS + "': ")


def test_total_order():
    bot, one, two, top = (TScalar.bottom(MT), TScalar.unit(MT),
                          TScalar.finite(MT, 2), TScalar.top(MT))
    assert bot < one < two < top
    assert sorted([top, bot, two, one], key=lambda s: s._key()) == [bot, one, two, top]


def _doubling(a: TScalar) -> TScalar:
    """Model isomorphism on integer payloads: exponent-to-power-of-two."""
    if a.is_bottom:
        return TScalar.bottom(MT)
    if a.is_top:
        return TScalar.top(MT)
    return TScalar.finite(MT, Fraction(2) ** a.payload)


@settings(max_examples=400)
@given(st.tuples(*(st.one_of(
    st.just(None), st.just("top"), st.integers(min_value=-12, max_value=12)
) for _ in range(2))))
def test_models_are_isomorphic_on_integer_exponents(raw):
    def lift(v):
        if v is None:
            return TScalar.bottom(MP)
        if v == "top":
            return TScalar.top(MP)
        return TScalar.finite(MP, v)

    a, b = (lift(v) for v in raw)
    assert _doubling(t_add(a, b)) == t_add(_doubling(a), _doubling(b))
    assert _doubling(t_mul(a, b)) == t_mul(_doubling(a), _doubling(b))
    assert (a <= b) == (_doubling(a) <= _doubling(b))
    assert _doubling(t_inv(a)) == t_inv(_doubling(a))
    assert _doubling(TScalar.unit(MP)) == TScalar.unit(MT)
