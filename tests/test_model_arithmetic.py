"""Each model's arithmetic against the bodies it replaced.

`semiring.Model` defines the product, inverse, unit and powers of two of
each model once.  The scalar operations, the residuation test and the
grid, closure, segment and witness constants used to pick the model's
arithmetic where they stood; those bodies are kept here as references
and compared on seeded inputs.  A model whose inverse is wrong fails
the comparison.
"""

import random
from fractions import Fraction

from conftest import MP, MT
from tropconv import verify
from tropconv.hemispace import pick_finite_in_interval
from tropconv.semiring import (
    MAX_TOKEN_CHARS,
    ModelMismatchError,
    TScalar,
    parse_fraction,
    t_add,
    t_inv,
    t_mul,
)
from tropconv.tlinalg import ConeGen, PRDecomposition, TVec, cone_member_fg, pr_member, support

# ----------------------------------------------------------------------
# The replaced bodies.


def ref_unit(model) -> TScalar:
    return TScalar.finite(model, 0 if model is MP else 1)


def ref_mul(a: TScalar, b: TScalar) -> TScalar:
    if a.model is not b.model:
        raise ModelMismatchError(f"cannot combine {a.model.value} with {b.model.value}")
    if a.is_bottom or b.is_bottom:
        return TScalar.bottom(a.model)
    if a.is_top or b.is_top:
        return TScalar.top(a.model)
    if a.model is MP:
        return TScalar.finite(a.model, a.payload + b.payload)
    return TScalar.finite(a.model, a.payload * b.payload)


def ref_inv(a: TScalar) -> TScalar:
    if a.is_bottom:
        return TScalar.top(a.model)
    if a.is_top:
        return TScalar.bottom(a.model)
    if a.model is MP:
        return TScalar.finite(a.model, -a.payload)
    return TScalar.finite(a.model, 1 / a.payload)


def ref_cone_member(x: TVec, gens) -> tuple:
    """(member, lambdas, reconstruction, gens) of the scalar-op body."""
    model = x.model
    gens = tuple(sorted(gens, key=TVec.sort_key))
    supp_x = support(x)
    lambdas = []
    for g in gens:
        supp_g = support(g)
        if not supp_g or not supp_g <= supp_x:
            lambdas.append(TScalar.bottom(model))
            continue
        lam = None
        for k in supp_g:
            ratio = ref_mul(x.at(k), ref_inv(g.at(k)))
            lam = ratio if lam is None or ratio < lam else lam
        lambdas.append(lam)
    combo = (TScalar.bottom(model),) * x.dim
    for lam, g in zip(lambdas, gens):
        combo = tuple(t_add(a, ref_mul(lam, b)) for a, b in zip(combo, g.coords))
    combo = TVec(model, combo)
    return combo == x, tuple(lambdas), combo, gens


def ref_pr_member(x: TVec, P, R) -> bool:
    model = x.model
    one, bot = ref_unit(model), TScalar.bottom(model)
    gens = [TVec(model, p.coords + (one,)) for p in P] + [TVec(model, r.coords + (bot,)) for r in R]
    return ref_cone_member(TVec(model, x.coords + (one,)), gens)[0]


OLD_BASE = {MT: ["1/2", "1", "2", "4"], MP: ["-1", "0", "1", "2"]}
OLD_CLOSURE = {MT: ["1/4", "1/2", "1", "2", "4"], MP: ["-2", "-1", "0", "1", "2"]}
OLD_HALF = {MT: "1/2", MP: "-1"}


def ref_grid_values(model, extra, spanning: bool) -> tuple:
    payloads = {Fraction(t) for t in OLD_BASE[model]}
    payloads |= {s.payload for s in extra if s.is_finite}
    if spanning:
        if model is MT:
            payloads.add(min(payloads) / 2)
            payloads.add(max(payloads) * 2)
        else:
            payloads.add(min(payloads) - 1)
            payloads.add(max(payloads) + 1)
    return (TScalar.bottom(model),) + tuple(TScalar.finite(model, q) for q in sorted(payloads))


def ref_segment_coefficients(model, k: int) -> list:
    one, bot = ref_unit(model), TScalar.bottom(model)
    half = TScalar.finite(model, OLD_HALF[model])
    pairs = [(one, one), (one, bot), (bot, one)]
    step = one
    while len(pairs) < k:
        step = ref_mul(step, half)
        pairs.append((one, step))
        if len(pairs) < k:
            pairs.append((step, one))
    return pairs[:k]


def ref_pick(lo: TScalar, strict_lo: bool, hi: TScalar, strict_hi: bool) -> TScalar:
    model = lo.model
    if not strict_lo and lo.is_finite:
        return lo
    if not strict_hi and hi.is_finite:
        return hi
    if lo.is_bottom and hi.is_top:
        return ref_unit(model)
    plus = model is MP
    if lo.is_bottom:
        return ref_mul(hi, TScalar.finite(model, -1 if plus else Fraction(1, 2)))
    if hi.is_top:
        return ref_mul(lo, TScalar.finite(model, 1 if plus else 2))
    return TScalar.finite(model, (lo.payload + hi.payload) / 2)


# ----------------------------------------------------------------------
# Seeded comparison.


def _scalar(rng: random.Random, model, top: bool = False) -> TScalar:
    kind = rng.randrange(6 if top else 5)
    if kind == 0:
        return TScalar.bottom(model)
    if kind == 5:
        return TScalar.top(model)
    q = Fraction(rng.randint(1, 9), rng.randint(1, 4))
    if model is MT:
        return TScalar.finite(model, q if rng.random() < 0.5 else 1 / q)
    return TScalar.finite(model, q if rng.random() < 0.5 else -q)


def _vec(rng: random.Random, model, n: int) -> TVec:
    return TVec(model, tuple(_scalar(rng, model) for _ in range(n)))


def _combination(rng: random.Random, gens, model, n: int) -> TVec:
    """A join of scaled generators, built with the reference bodies."""
    acc = (TScalar.bottom(model),) * n
    for g in rng.sample(gens, rng.randint(1, len(gens))):
        lam = _scalar(rng, model)
        acc = tuple(t_add(a, ref_mul(lam, b)) for a, b in zip(acc, g.coords))
    return TVec(model, acc)


def _mismatches(seed: int = 0) -> tuple[list, dict]:
    """(mismatch labels, counts of the inputs compared)."""
    rng = random.Random(f"model-arithmetic:{seed}")
    bad, seen = [], {"zero generators": 0, "zero points": 0, "members": 0, "pr members": 0}
    for model in (MT, MP):
        if TScalar.unit(model) != ref_unit(model):
            bad.append("unit")
        for _ in range(300):
            a, b = _scalar(rng, model, top=True), _scalar(rng, model, top=True)
            if t_mul(a, b) != ref_mul(a, b):
                bad.append("t_mul")
            if t_inv(a) != ref_inv(a):
                bad.append("t_inv")
            lo, hi = sorted((a, b), key=lambda s: s._key())
            if lo < hi and not lo.is_top and not hi.is_bottom:
                strict_lo, strict_hi = rng.random() < 0.5, rng.random() < 0.5
                if pick_finite_in_interval(lo, strict_lo, hi, strict_hi) != \
                        ref_pick(lo, strict_lo, hi, strict_hi):
                    bad.append("pick_finite_in_interval")
        if verify.make_grid(model, 1, spanning=False).values != ref_grid_values(model, (), False):
            bad.append("grid table")
        if verify.closure_scalars(model) != [TScalar.finite(model, t) for t in OLD_CLOSURE[model]]:
            bad.append("closure_scalars")
        for k in range(1, 10):
            if verify.segment_coefficients(model, k) != ref_segment_coefficients(model, k):
                bad.append("segment_coefficients")
        for n in (2, 3, 4):
            for spanning in (True, False):
                extra = [_scalar(rng, model) for _ in range(rng.randint(0, 3))]
                if verify.make_grid(model, n, extra, spanning).values != \
                        ref_grid_values(model, extra, spanning):
                    bad.append("make_grid")
            for _ in range(20):
                gens = [_vec(rng, model, n) for _ in range(rng.randint(1, 4))]
                if rng.random() < 0.3:
                    gens.append(TVec.zero(model, n))
                seen["zero generators"] += any(g.is_zero() for g in gens)
                cone = ConeGen.of(model, n, gens)
                points = [TVec.zero(model, n)] + [_vec(rng, model, n) for _ in range(4)]
                points += [_combination(rng, gens, model, n) for _ in range(4)]
                for x in points:
                    got = cone_member_fg(x, cone)
                    want = ref_cone_member(x, cone.gens)
                    if (got.member, got.lambdas, got.reconstruction, got.gens) != want:
                        bad.append("cone_member_fg")
                    seen["zero points"] += x.is_zero()
                    seen["members"] += want[0]
                P = {_vec(rng, model, n) for _ in range(rng.randint(0, 2))}
                d = PRDecomposition.of(model, n, P, set(gens))
                for x in points:
                    want = ref_pr_member(x, d.P, d.R)
                    if pr_member(x, d) != want:
                        bad.append("pr_member")
                    seen["pr members"] += want
    return bad, seen


def test_model_arithmetic_matches_the_replaced_bodies():
    bad, seen = _mismatches()
    assert bad == []
    assert all(count > 0 for count in seen.values()), seen


def test_a_wrong_inverse_fails_the_reference_comparison(monkeypatch):
    for model in (MT, MP):
        monkeypatch.setattr(model, "inv", lambda q: q)  # right only at the unit
    bad, _seen = _mismatches()
    assert {"t_inv", "cone_member_fg", "pr_member", "pick_finite_in_interval",
            "grid table", "closure_scalars", "segment_coefficients",
            "make_grid"} <= set(bad)


def _long_token(rng: random.Random, sign: str) -> str:
    """A token p/q of exactly MAX_TOKEN_CHARS characters, the longest the
    parser reads, with random digits and no leading zero."""
    body = MAX_TOKEN_CHARS - len(sign) - 1

    def digits(k: int) -> str:
        return str(rng.randint(1, 9)) + "".join(rng.choice("0123456789") for _ in range(k - 1))

    split = rng.randint(1, body - 1)
    return f"{sign}{digits(split)}/{digits(body - split)}"


def test_pair_product_reduces_to_mul():
    rng = random.Random("pair-product")
    for model in (MT, MP):
        low = -9 if model is MP else 1
        pool = [model.unit] + [Fraction(rng.randint(low, 9), rng.randint(1, 9))
                               for _ in range(200)]
        for _ in range(100):
            token = _long_token(rng, rng.choice(("", "-")) if model is MP else "")
            assert len(token) == MAX_TOKEN_CHARS
            pool.append(parse_fraction(token))
        assert any(q < 0 for q in pool) == (model is MP)
        for _ in range(3000):
            x, y = rng.choice(pool), rng.choice(pool)
            a, b = model.pair_mul(x.numerator, x.denominator, y.numerator, y.denominator)
            assert b > 0 and Fraction(a, b) == model.mul(x, y), (model, x, y)
