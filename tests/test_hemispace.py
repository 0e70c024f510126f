import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import MP, MT, bset, evaluate, sc, vec
from tropconv import cli, hemispace
from tropconv.hemispace import (
    AffineHemispace,
    BoundarySet,
    HemispaceSpec,
    NotClosedError,
    RankOneError,
    SpecError,
    Violation,
    affine_complement,
    affine_member,
    complement_spec,
    conical_member,
    down_up_overlap,
    downset_product,
    generator_pair,
    is_closed,
    pick_finite_in_interval,
    rank_one_check,
    thin_structure,
    to_halfspace,
    upset_of,
    upset_product,
)
from tropconv.semiring import InternalInconsistencyError, TScalar, t_mul
from tropconv.specio import canonical_text
from tropconv.tlinalg import TVec, support
from tropconv.verify import (
    closure_scalars,
    grid_for_spec,
    make_grid,
    random_valid_affine,
    random_valid_spec,
    random_violated_spec,
)


# ----------------------------------------------------------------------
# Boundary sets and their product arithmetic.


def test_boundary_canonical_forms():
    top_closed = BoundarySet.make(sc("inf"), True)
    assert not top_closed.closed  # normalised to the open form
    with pytest.raises(SpecError):
        BoundarySet.make(sc("zero"), False)
    b = bset("2", True)
    assert b.contains(sc("2")) and b.contains(sc("zero")) and not b.contains(sc("3"))
    assert not bset("2", False).contains(sc("2"))
    assert not bset("2", True).contains(sc("inf"))
    u = upset_of(bset("2", True))
    assert u.contains(sc("inf")) and u.contains(sc("3")) and not u.contains(sc("2"))
    assert upset_of(bset("2", False)).contains(sc("2"))


def test_downset_product_examples():
    assert downset_product(bset("1", True), bset("1", True)) == bset("1", True)
    assert downset_product(bset("zero", True), bset("inf", False)) == bset("zero", True)
    assert downset_product(bset("2", True), bset("3", False)) == bset("6", False)


def test_upset_product_examples():
    top = upset_of(bset("inf", False))
    assert upset_product(top, upset_of(bset("2", True))).threshold.is_top
    assert upset_product(top, upset_of(bset("zero", True))).threshold.is_top
    u = upset_product(upset_of(bset("2", True)), upset_of(bset("3", False)))
    assert u.threshold == sc("6") and u.strict


from fractions import Fraction

_STEPS = [Fraction(1, 32), Fraction(1, 16), Fraction(1, 8), Fraction(1, 4),
          Fraction(1, 2), Fraction(1), Fraction(2), Fraction(4), Fraction(8),
          Fraction(16), Fraction(64), Fraction(256), Fraction(1024), Fraction(4096)]


def _below(t: TScalar, step: Fraction) -> TScalar:
    """A finite value below t by the given (multiplicative/additive) step."""
    if t.model is MT:
        return TScalar.finite(MT, t.payload / (1 + step))
    return TScalar.finite(MP, t.payload - step)


def _above(t: TScalar, step: Fraction) -> TScalar:
    if t.model is MT:
        return TScalar.finite(MT, t.payload * (1 + step))
    return TScalar.finite(MP, t.payload + step)


def _free_samples(model) -> list[TScalar]:
    if model is MT:
        return [TScalar.finite(MT, q) for q in
                (Fraction(1, 4096), Fraction(1, 256), Fraction(1, 64), Fraction(1, 16),
                 Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3), Fraction(8),
                 Fraction(16), Fraction(64), Fraction(256), Fraction(1024), Fraction(4096))]
    return [TScalar.finite(MP, q) for q in
            (-512, -64, -8, -2, -1, Fraction(-1, 2), 0, Fraction(1, 2), 1, 2, 8, 64,
             256, 512)]


def _down_samples(b: BoundarySet) -> list[TScalar]:
    model = b.threshold.model
    out = [TScalar.bottom(model)]
    t = b.threshold
    if t.is_bottom:
        return out
    if t.is_top:
        return out + _free_samples(model)
    out += [_below(t, s) for s in _STEPS]
    if b.closed:
        out.append(t)
    return out


def _up_samples(u) -> list[TScalar]:
    model = u.threshold.model
    out = [TScalar.top(model)]
    t = u.threshold
    if t.is_top:
        return out
    if t.is_bottom:
        return out + _free_samples(model)
    out += [_above(t, s) for s in _STEPS]
    if not u.strict:
        out.append(t)
    return out


CATALOG = ["zero:c", "1/2:c", "1/2:o", "2:c", "2:o", "inf:o"]


def _catalog_sets():
    out = []
    for tag in CATALOG:
        tok, flag = tag.split(":")
        out.append(bset(tok, flag == "c"))
    return out


def test_down_products_match_sampled_brute_force():
    for a, b in itertools.product(_catalog_sets(), repeat=2):
        claimed = downset_product(a, b)
        products = [t_mul(x, y) for x in _down_samples(a) for y in _down_samples(b)]
        degenerate = a.threshold.is_bottom or b.threshold.is_bottom
        assert len(products) >= 200 or degenerate
        for p in products:
            assert claimed.contains(p), (a.describe(), b.describe(), p)
        attained = any(p == claimed.threshold for p in products)
        if claimed.threshold.is_bottom:
            assert all(p.is_bottom for p in products)
        elif claimed.threshold.is_top:
            big = sc("1024") if claimed.threshold.model is MT else TScalar.finite(MP, 100)
            assert any(not p.is_bottom and p >= big for p in products)
        elif claimed.closed:
            assert attained
        else:
            # the supremum is approached but never attained
            assert not attained
            assert any(p >= _below(claimed.threshold, Fraction(1, 8)) for p in products)


def test_up_products_match_sampled_brute_force():
    for a, b in itertools.product(_catalog_sets(), repeat=2):
        ua, ub = upset_of(a), upset_of(b)
        claimed = upset_product(ua, ub)
        products = [t_mul(x, y) for x in _up_samples(ua) for y in _up_samples(ub)]
        for p in products:
            assert claimed.contains(p), (ua.describe(), ub.describe(), p)
        finite = [p for p in products if p.is_finite]
        if claimed.threshold.is_top:
            assert not finite  # only Top is reachable
        else:
            attained = any(p == claimed.threshold for p in finite)
            assert attained == (not claimed.strict)
            if claimed.strict and not claimed.threshold.is_bottom:
                assert any(p <= _above(claimed.threshold, Fraction(1, 8)) for p in finite)


def test_overlap_decision_is_certified():
    sets = _catalog_sets()
    downs = [downset_product(a, b) for a, b in itertools.product(sets, repeat=2)]
    ups = [upset_product(upset_of(a), upset_of(b))
           for a, b in itertools.product(sets, repeat=2)]
    for d in downs:
        for u in ups:
            if down_up_overlap(d, u):
                w = pick_finite_in_interval(u.threshold, u.strict, d.threshold, not d.closed)
                assert w.is_finite and d.contains(w) and u.contains(w)
            else:
                for x in _down_samples(d):
                    if x is not None:
                        assert not u.contains(x)


# ----------------------------------------------------------------------
# Rank-one validation.


def test_worked_example_is_rank_one(worked_spec):
    assert worked_spec.validated
    assert rank_one_check(worked_spec) is None


def test_crossing_products_violate():
    sigma = {
        (1, 3): bset("1", True),
        (1, 4): bset("1", True),
        (2, 3): bset("1", True),
        (2, 4): bset("2", True),
    }
    raw = HemispaceSpec.raw(MT, 4, [1, 2], [3, 4], sigma)
    v = rank_one_check(raw)
    assert v is not None
    assert (v.i1, v.i2, v.j1, v.j2, v.side) == (1, 2, 3, 4, 1)
    with pytest.raises(RankOneError):
        HemispaceSpec.build(MT, 4, [1, 2], [3, 4], sigma)


def _rank_one_check_ordered(spec):
    """Reference: every ordered quadruple (i1, i2, j1, j2), diagonals
    included, with both equations tested at each.  Each cell's down-set
    and up-set is built once per spec."""
    I, J = sorted(spec.I), sorted(spec.J)
    down = {(i, j): spec.entry(i, j) for i in I for j in J}
    up = {key: upset_of(b) for key, b in down.items()}
    for i1 in I:
        for i2 in I:
            for j1 in J:
                for j2 in J:
                    up1 = upset_product(up[i1, j2], up[i2, j1])
                    down1 = downset_product(down[i1, j1], down[i2, j2])
                    if down_up_overlap(down1, up1):
                        return Violation(i1, i2, j1, j2, 1, down1, up1)
                    up2 = upset_product(up[i1, j1], up[i2, j2])
                    down2 = downset_product(down[i1, j2], down[i2, j1])
                    if down_up_overlap(down2, up2):
                        return Violation(i1, i2, j1, j2, 2, down2, up2)
    return None


_TOKENS = {MT: ["zero", "inf", "1/2", "1", "2"], MP: ["zero", "inf", "-1", "0", "1"]}


def _random_raw_spec(rng, model, n=None):
    """A raw spec, n = 2..7 unless given, with zero, Top and finite
    thresholds and both closedness flags drawn independently per entry."""
    tokens = _TOKENS[model]
    n = n or rng.randint(2, 7)
    while True:
        I = [k for k in range(1, n + 1) if rng.random() < 0.5]
        if 0 < len(I) < n:
            break
    J = [k for k in range(1, n + 1) if k not in I]
    sigma = {}
    for i in I:
        for j in J:
            token = rng.choice(tokens)
            sigma[(i, j)] = bset(token, token == "zero" or rng.random() < 0.5, model)
    return HemispaceSpec.raw(model, n, I, J, sigma)


def test_minor_walk_returns_the_ordered_loops_first_violation():
    rng = random.Random(5)
    violated = 0
    for k in range(10_000):
        spec = _random_raw_spec(rng, (MT, MP)[k % 2])
        expected = _rank_one_check_ordered(spec)
        assert rank_one_check(spec) == expected
        violated += expected is not None
    assert 3000 < violated < 7000  # both outcomes well represented
    for k in range(200):
        spec, v = random_violated_spec(rng, (MT, MP)[k % 2], rng.randint(4, 7))
        assert v == _rank_one_check_ordered(spec)


def _build(raw):
    return HemispaceSpec.build(raw.model, raw.n, raw.I, raw.J, raw.sigma)


def _mutate_one_entry(rng, spec):
    """The raw spec with one entry changed: its closedness flipped, or its
    threshold swapped for one of zero, Top or a finite grid value."""
    key = rng.choice(sorted(spec.sigma))
    b = spec.sigma[key]
    if b.threshold.is_bottom or rng.random() < 0.5:
        thr = rng.choice([TScalar.bottom(spec.model), TScalar.top(spec.model),
                          *closure_scalars(spec.model)])
        b = BoundarySet.make(thr, thr.is_bottom or rng.random() < 0.5)
    else:
        b = BoundarySet.make(b.threshold, not b.closed)
    return HemispaceSpec.raw(spec.model, spec.n, spec.I, spec.J, {**spec.sigma, key: b})


def test_build_decides_exactly_as_the_minor_walk(monkeypatch):
    walks = []
    first_violation = hemispace._first_violation
    monkeypatch.setattr(hemispace, "_first_violation",
                        lambda spec: walks.append(spec) or first_violation(spec))
    rng = random.Random(7)
    outcomes = []

    def agree(raw):
        expected = _rank_one_check_ordered(raw)
        walks.clear()
        try:
            spec = _build(raw)
        except RankOneError as exc:
            assert exc.violation == expected is not None
            assert len(walks) == 1
        else:
            assert expected is None and spec.validated
            assert not walks  # a spec whose laws hold never reaches the walk
        outcomes.append(expected is None)

    for k in range(20_000):
        model, n, kind = (MT, MP)[k % 2], 2 + k // 2 % 7, k % 10
        if kind < 4:
            agree(_random_raw_spec(rng, model, n))
        elif kind < 8:
            walks.clear()
            valid = random_valid_spec(rng, model, n)
            assert not walks
            agree(valid if kind < 6 else _mutate_one_entry(rng, valid))
        else:
            agree(random_violated_spec(rng, model, max(n, 4))[0])
    valid = sum(outcomes)
    assert 0.2 * len(outcomes) <= valid <= 0.8 * len(outcomes), valid


@pytest.mark.parametrize("model", [MT, MP], ids=["max-times", "max-plus"])
def test_every_2x2_boundary_matrix_is_decided_as_the_minor_walk(monkeypatch, model):
    # All 8**4 matrices over zero, inf, and three finite values each open
    # or closed (1/2, 1, 2 in max-times and their image -1, 0, 1 in
    # max-plus): the laws, the minor walk and the reference agree.
    failed = []
    laws = hemispace.thin_structure

    def recording(spec):
        try:
            return laws(spec)
        except InternalInconsistencyError as exc:
            failed.append(str(exc))
            raise

    monkeypatch.setattr(hemispace, "thin_structure", recording)
    finite = _TOKENS[model][2:]
    alphabet = [bset("zero", True, model), bset("inf", False, model),
                *(bset(t, closed, model) for t in finite for closed in (False, True))]
    cells = [(1, 3), (1, 4), (2, 3), (2, 4)]
    valid = 0
    for entries in itertools.product(alphabet, repeat=4):
        raw = HemispaceSpec.raw(model, 4, [1, 2], [3, 4], dict(zip(cells, entries)))
        expected = _rank_one_check_ordered(raw)
        assert rank_one_check(raw) == expected
        try:
            _build(raw)
        except RankOneError as exc:
            assert exc.violation == expected is not None
        else:
            assert expected is None
            valid += 1
    assert valid == 856
    assert set(failed) == {"strict column sets are not nested",
                           "gauge factorisation failed on a finite entry",
                           "descending chain law failed between classes"}


def test_a_rejected_build_derives_the_laws_once(monkeypatch):
    derived = []
    laws = hemispace.thin_structure
    monkeypatch.setattr(hemispace, "thin_structure",
                        lambda spec: derived.append(spec) or laws(spec))
    rng = random.Random(17)
    for k in range(40):
        raw, v = random_violated_spec(rng, (MT, MP)[k % 2], 4 + k % 4)
        derived.clear()
        with pytest.raises(RankOneError) as info:
            _build(raw)
        assert len(derived) == 1
        assert info.value.violation == v == _rank_one_check_ordered(raw)


def test_rank_one_check_that_trusts_every_spec_disagrees_with_the_walk(monkeypatch):
    # Negative control: with laws that accept everything, rank_one_check
    # no longer reaches the walk, so the reference above catches it.
    rng = random.Random(11)
    drawn = [random_violated_spec(rng, (MT, MP)[k % 2], 4 + k % 4)[0] for k in range(20)]
    monkeypatch.setattr(hemispace, "thin_structure", lambda spec: None)
    assert any(rank_one_check(spec) != _rank_one_check_ordered(spec) for spec in drawn)


def test_laws_that_fail_where_no_minor_does_are_a_bug(monkeypatch, worked_spec):
    def broken(spec):
        raise InternalInconsistencyError("gauge factorisation failed on a finite entry")

    monkeypatch.setattr(hemispace, "thin_structure", broken)
    with pytest.raises(InternalInconsistencyError, match="no 2x2 minor"):
        rank_one_check(worked_spec)


def test_a_valid_spec_walks_no_minor(monkeypatch, tmp_path, capsys):
    overlaps = []
    monkeypatch.setattr(hemispace, "down_up_overlap",
                        lambda d, u: overlaps.append(1) or down_up_overlap(d, u))
    rng = random.Random(13)
    for n in range(2, 13):
        for model in (MT, MP):
            for _ in range(10):
                spec = random_valid_spec(rng, model, n)
                assert rank_one_check(spec) is None
    assert not overlaps
    spec = random_valid_spec(random.Random(5), MT, 60)
    assert len(spec.I) >= 20 and len(spec.J) >= 20
    path = tmp_path / "valid-60.json"
    path.write_text(canonical_text(spec), encoding="utf-8")
    assert cli.main(["check", str(path)]) == 0
    assert capsys.readouterr().out == "OK\n"
    assert not overlaps
    for k in range(60):
        spec, v = random_violated_spec(rng, (MT, MP)[k % 2], 4 + k % 4)
        overlaps.clear()
        assert rank_one_check(spec) == v
        assert overlaps, spec


# Top column sets {3, 4} and {5}: neither contains the other
TOP_COLUMNS = {
    (1, 3): bset("inf", False), (1, 4): bset("inf", False), (1, 5): bset("zero", True),
    (2, 3): bset("zero", True), (2, 4): bset("zero", True), (2, 5): bset("inf", False),
}


def _single_class(closed, thresholds):
    """I = {1, 2}, J = {3, 4}, entries (1,3), (1,4), (2,3), (2,4) in order."""
    keys = [(1, 3), (1, 4), (2, 3), (2, 4)]
    return {k: bset(t, c) for k, c, t in zip(keys, closed, thresholds)}


@pytest.mark.parametrize("sigma, law", [
    # strict parts {4} and {3} of one class, neither inside the other
    (_single_class([True, False, False, True], "1111"), "strict column sets are not nested"),
    # one class, all closed, with no beta_i / gamma_j factorisation
    (_single_class([True] * 4, "1112"), "gauge factorisation failed"),
    (TOP_COLUMNS, "descending chain law failed"),
], ids=["nestedness", "gauge", "chain"])
def test_each_kept_law_rejects_its_negative_control(sigma, law):
    n = max(j for _, j in sigma)
    raw = HemispaceSpec.raw(MT, n, [1, 2], range(3, n + 1), sigma)
    with pytest.raises(InternalInconsistencyError, match=law):
        thin_structure(raw)
    v = rank_one_check(raw)
    assert v is not None
    with pytest.raises(RankOneError) as info:
        _build(raw)
    assert info.value.violation == v


@settings(max_examples=300)
@given(data=st.data())
def test_build_agrees_with_the_minor_walk_on_drawn_specs(data):
    model = data.draw(st.sampled_from([MT, MP]), label="model")
    n = data.draw(st.integers(2, 6), label="n")
    I = data.draw(st.sets(st.integers(1, n), min_size=1, max_size=n - 1), label="I")
    J = [j for j in range(1, n + 1) if j not in I]
    sigma = {}
    for i in sorted(I):
        for j in J:
            token = data.draw(st.sampled_from(_TOKENS[model]), label=f"t{i},{j}")
            closed = token == "zero" or data.draw(st.booleans(), label=f"c{i},{j}")
            sigma[(i, j)] = bset(token, closed, model)
    expected = rank_one_check(HemispaceSpec.raw(model, n, I, J, sigma))
    try:
        HemispaceSpec.build(model, n, I, J, sigma)
    except RankOneError as exc:
        assert exc.violation == expected is not None
    else:
        assert expected is None


def test_single_row_and_column_always_pass():
    rng = random.Random(2)
    flags = [bset("1/2", True), bset("1", False), bset("2", True), bset("zero", True),
             bset("inf", False)]
    for _ in range(20):
        sigma = {(1, j): rng.choice(flags) for j in (2, 3, 4)}
        assert rank_one_check(HemispaceSpec.raw(MT, 4, [1], [2, 3, 4], sigma)) is None
        assert HemispaceSpec.build(MT, 4, [1], [2, 3, 4], sigma).validated
        sigma = {(i, 4): rng.choice(flags) for i in (1, 2, 3)}
        assert rank_one_check(HemispaceSpec.raw(MT, 4, [1, 2, 3], [4], sigma)) is None
        assert HemispaceSpec.build(MT, 4, [1, 2, 3], [4], sigma).validated


def test_structural_validation():
    entry = bset("1", True)
    with pytest.raises(SpecError):
        HemispaceSpec.raw(MT, 2, [1, 2], [], {})
    with pytest.raises(SpecError):
        HemispaceSpec.raw(MT, 3, [1], [2], {(1, 2): entry})
    with pytest.raises(SpecError):
        HemispaceSpec.raw(MT, 2, [1], [2], {})
    with pytest.raises(SpecError):
        HemispaceSpec.raw(MT, 2, [1], [2], {(1, 2): entry, (2, 1): entry})


# ----------------------------------------------------------------------
# Thin structure.


def test_thin_structure_of_worked_example(worked_spec):
    ts = worked_spec.thin
    assert [c.I_elems for c in ts.classes] == [(1,), (2,)]
    assert [c.J_elems for c in ts.classes] == [(3,), (4,)]
    assert [sorted(c.K) for c in ts.classes] == [[4], []]
    assert [sorted(c.L) for c in ts.classes] == [[], [3]]
    one = TScalar.unit(MT)
    assert ts.beta == {1: one, 2: one}
    assert ts.gamma == {3: one, 4: one}


def test_thin_structure_single_class_all_finite():
    sigma = {
        (1, 3): bset("2", True), (1, 4): bset("4", True),
        (2, 3): bset("1", True), (2, 4): bset("2", True),
    }
    spec = HemispaceSpec.build(MT, 4, [1, 2], [3, 4], sigma)
    ts = spec.thin
    assert len(ts.classes) == 1
    cls = ts.classes[0]
    assert set(cls.I_elems) == {1, 2} and set(cls.J_elems) == {3, 4}
    assert not cls.K and not cls.L
    from tropconv.semiring import t_inv

    for (i, j), b in sigma.items():
        assert b.threshold == t_mul(t_inv(ts.gamma[j]), ts.beta[i])


def test_thin_structure_coordinate_plane():
    sigma = {(1, 2): bset("zero", True), (1, 3): bset("zero", True)}
    spec = HemispaceSpec.build(MT, 3, [1], [2, 3], sigma)
    cls = spec.thin.classes[0]
    assert not cls.J_elems and sorted(cls.L) == [2, 3]
    # the cone is exactly the first coordinate axis
    assert conical_member(spec, vec("[5, 0, 0]"))
    assert not conical_member(spec, vec("[5, 1, 0]"))


@pytest.mark.parametrize("sigma", [
    TOP_COLUMNS,
    # equal Top column sets, zero column sets {3} and {4}
    {(1, 3): bset("zero", True), (1, 4): bset("1", True),
     (2, 3): bset("1", True), (2, 4): bset("zero", True)},
], ids=["top-columns", "zero-columns"])
def test_thin_structure_rejects_incomparable_classes(sigma):
    n = max(j for _, j in sigma)
    raw = HemispaceSpec.raw(MT, n, [1, 2], range(3, n + 1), sigma)
    assert rank_one_check(raw) is not None
    with pytest.raises(InternalInconsistencyError, match="descending chain law failed"):
        thin_structure(raw)


# ----------------------------------------------------------------------
# Membership and complement.


def test_membership_worked_cases(worked_spec):
    assert conical_member(worked_spec, TVec.zero(MT, 4))
    assert conical_member(worked_spec, vec("[0, 2, 0, 1]"))
    assert not conical_member(worked_spec, vec("[0, 1, 0, 2]"))
    assert conical_member(worked_spec, vec("[2, 0, 1, 0]"))
    assert not conical_member(worked_spec, vec("[1, 0, 2, 0]"))
    # nonzero point supported outside I
    assert not conical_member(worked_spec, vec("[0, 0, 1, 1]"))
    # boundary ownership: e1 + 1*e3 is a generator, e1 + 2*e3 is not
    assert conical_member(worked_spec, vec("[1, 0, 1, 0]"))
    assert not conical_member(worked_spec, vec("[1, 0, 2, 0]"))


def test_membership_worked_cases_max_plus_mirror():
    # The same structure written additively: thresholds move to the unit 0
    # and the four membership cases carry over through the isomorphism.
    sigma = {
        (1, 3): bset("0", True, MP),
        (1, 4): bset("inf", False, MP),
        (2, 3): bset("zero", True, MP),
        (2, 4): bset("0", True, MP),
    }
    spec = HemispaceSpec.build(MP, 4, [1, 2], [3, 4], sigma)
    cases = [("[zero, 1, zero, 0]", True), ("[zero, 0, zero, 1]", False),
             ("[1, zero, 0, zero]", True), ("[0, zero, 1, zero]", False)]
    for text, inside in cases:
        assert conical_member(spec, vec(text, MP)) is inside
    comp = complement_spec(spec)
    assert comp.entry(3, 1) == bset("0", False, MP)
    assert comp.entry(4, 1) == bset("zero", True, MP)


def test_worked_example_explicit_decompositions(worked_spec):
    # The membership cases come with explicit finite generator witnesses;
    # the residuation certificate must reproduce each point from them.
    from tropconv.tlinalg import ConeGen, cone_member_fg, unit_vector

    e = lambda i: unit_vector(MT, i, 4)
    inside_cases = [
        (vec("[0, 2, 0, 1]"), {e(2), e(2).join(e(4))}),
        (vec("[2, 0, 1, 0]"), {e(1), e(1).join(e(3))}),
        (vec("[2, 0, 1, 4]"), {e(1), e(1).join(e(3)), e(1).join(e(4).scale(sc("2")))}),
    ]
    for x, gens in inside_cases:
        assert cone_member_fg(x, ConeGen.of(MT, 4, gens)).member
        assert conical_member(worked_spec, x)
    comp = complement_spec(worked_spec)
    outside_cases = [
        (vec("[1, 0, 2, 0]"), {e(3), e(3).join(e(1).scale(sc("1/2")))}),
        (vec("[0, 1, 0, 2]"), {e(4), e(4).join(e(2).scale(sc("1/2")))}),
    ]
    for x, gens in outside_cases:
        assert cone_member_fg(x, ConeGen.of(MT, 4, gens)).member
        assert conical_member(comp, x)
        assert not conical_member(worked_spec, x)


def test_complement_of_worked_example(worked_spec):
    comp = complement_spec(worked_spec)
    assert sorted(comp.I) == [3, 4] and sorted(comp.J) == [1, 2]
    assert comp.entry(3, 1) == bset("1", False)
    assert comp.entry(3, 2) == bset("inf", False)
    assert comp.entry(4, 1) == bset("zero", True)
    assert comp.entry(4, 2) == bset("1", False)
    assert complement_spec(comp) == worked_spec


def test_complement_2d_example():
    spec = HemispaceSpec.build(MT, 2, [1], [2], {(1, 2): bset("1", True)})
    comp = complement_spec(spec)
    assert sorted(comp.I) == [2] and comp.entry(2, 1) == bset("1", False)
    assert complement_spec(comp) == spec


def test_complement_membership_cross_checked(worked_spec):
    comp = complement_spec(worked_spec)
    grid = grid_for_spec(worked_spec)
    rng = random.Random(13)
    pts = list(grid.points())
    for x in rng.sample(pts, 60):
        m = conical_member(comp, x)
        assert m == (x.is_zero() or not conical_member(worked_spec, x))


def test_complement_is_built_once_and_links_forward_only(worked_spec):
    comp = complement_spec(worked_spec)
    assert complement_spec(worked_spec) is comp
    back = complement_spec(comp)
    assert back == worked_spec and back is not worked_spec


def test_generator_soundness_on_random_specs():
    rng = random.Random(17)
    for model in (MT, MP):
        for _ in range(12):
            spec = random_valid_spec(rng, model, rng.choice([2, 3, 4]))
            half = sc("1/2", model) if model is MT else TScalar.finite(model, -1)
            twice = sc("2", model) if model is MT else TScalar.finite(model, 1)
            for (i, j), b in sorted(spec.sigma.items()):
                lams = [TScalar.bottom(model), TScalar.unit(model)]
                if b.threshold.is_finite:
                    lams += [b.threshold, t_mul(b.threshold, half), t_mul(b.threshold, twice)]
                for lam in lams:
                    g = generator_pair(spec, i, j, lam)
                    assert conical_member(spec, g) == b.contains(lam), (
                        i, j, b.describe(), lam,
                    )
                # Top always lands in the complement (it collapses to e_j).
                assert not conical_member(spec, generator_pair(spec, i, j, TScalar.top(model)))


# ----------------------------------------------------------------------
# Halfspace conversion.


def test_is_closed(worked_spec):
    assert not is_closed(worked_spec)  # holds a Top row and that is open
    spec = HemispaceSpec.build(MT, 2, [1], [2], {(1, 2): bset("1", True)})
    assert is_closed(spec)
    assert not is_closed(HemispaceSpec.build(MT, 2, [1], [2], {(1, 2): bset("1", False)}))


def test_to_halfspace_simple():
    spec = HemispaceSpec.build(MT, 2, [1], [2], {(1, 2): bset("1", True)})
    hs = to_halfspace(spec)
    assert hs.I == (1,) and hs.J == (2,) and hs.L == ()
    one = TScalar.unit(MT)
    assert hs.beta[1] == one and hs.gamma[2] == one
    grid = grid_for_spec(spec)
    for x in grid.points():
        assert evaluate(hs, x) == conical_member(spec, x)
    assert "x2" in hs.pretty() and "<=" in hs.pretty()


def test_to_halfspace_coordinate_plane():
    sigma = {(1, 2): bset("zero", True), (1, 3): bset("zero", True)}
    spec = HemispaceSpec.build(MT, 3, [1], [2, 3], sigma)
    hs = to_halfspace(spec)
    assert hs.I == () and hs.J == () and hs.L == (2, 3)
    assert evaluate(hs, vec("[7, 0, 0]")) and not evaluate(hs, vec("[7, 0, 1]"))


def test_to_halfspace_rejects_open_entries(worked_spec):
    with pytest.raises(NotClosedError) as err:
        to_halfspace(worked_spec)
    assert "(i=1, j=4)" in str(err.value)


def test_affine_halfspace_of_bounded_box():
    sigma = {(3, 1): bset("1", True), (3, 2): bset("1", True)}
    base = HemispaceSpec.build(MT, 3, [3], [1, 2], sigma)
    h = AffineHemispace(base, contains_zero=True)
    hs = to_halfspace(h)
    # the form is the cone's, read at (x, 1): index 3 carries the constant
    assert hs.affine and hs.n == 2 and hs.beta[3] == sc("1")
    assert hs.I == (3,) and hs.J == (1, 2)
    grid = make_grid(MT, 2)
    for x in grid.points():
        assert evaluate(hs, x) == affine_member(h, x)
    # the complement side is open, not a closed halfspace
    with pytest.raises(NotClosedError):
        to_halfspace(affine_complement(h))


def test_affine_halfspace_left_offset():
    # Open box on the zero side makes the complement closed, with the
    # lifted coordinate landing on the left of the inequality.
    sigma = {(3, 1): bset("1", False), (3, 2): bset("1", False)}
    base = HemispaceSpec.build(MT, 3, [3], [1, 2], sigma)
    h = AffineHemispace(base, contains_zero=False)
    hs = to_halfspace(h)
    assert hs.affine and hs.gamma[3] == sc("1") and 3 in hs.J and 3 not in hs.I
    grid = make_grid(MT, 2)
    for x in grid.points():
        assert evaluate(hs, x) == affine_member(h, x)


# ----------------------------------------------------------------------
# Affine hemispaces.


def test_affine_box_membership():
    sigma = {(3, 1): bset("1", True), (3, 2): bset("1", True)}
    base = HemispaceSpec.build(MT, 3, [3], [1, 2], sigma)
    h = AffineHemispace(base, contains_zero=True)
    assert affine_member(h, vec("[1, 1]"))
    assert not affine_member(h, vec("[2, 0]"))
    assert affine_member(h, TVec.zero(MT, 2))
    comp = affine_complement(h)
    assert affine_member(comp, vec("[2, 0]"))
    assert not affine_member(comp, TVec.zero(MT, 2))


def test_affine_pair_partitions_everything():
    # The far side (avoiding zero) is decided structurally through the
    # complement cone; it must equal the negation of the base cone at
    # the lifted point.
    rng = random.Random(37)
    for model in (MT, MP):
        for _ in range(10):
            h = random_valid_affine(rng, model, rng.choice([1, 2, 3]))
            comp = affine_complement(h)
            far = comp if h.contains_zero else h
            grid = make_grid(model, h.ambient_dim,
                             (b.threshold for b in h.base.sigma.values()))
            for x in grid.points():
                assert affine_member(h, x) != affine_member(comp, x)
                assert affine_member(far, x) == (not conical_member(h.base, x.lift()))
            zero = TVec.zero(model, h.ambient_dim)
            assert affine_member(h, zero) == h.contains_zero


def test_affine_requires_lifted_index_in_I():
    sigma = {(1, 2): bset("1", True), (3, 2): bset("1", True)}
    base = HemispaceSpec.build(MT, 3, [1, 3], [2], sigma)
    AffineHemispace(base, True)
    bad = HemispaceSpec.build(MT, 3, [1, 2], [3], {
        (1, 3): bset("1", True), (2, 3): bset("1", True)})
    with pytest.raises(SpecError):
        AffineHemispace(bad, True)


def test_closed_spec_membership_equals_finite_residuation():
    # Closed specs are finitely generated: the units on I plus one pair
    # generator per finite entry.  Class-reduction membership must agree
    # pointwise with the raw residuation test on that finite set -- two
    # fully independent routes.
    from tropconv.tlinalg import ConeGen, cone_member_fg, unit_vector

    rng = random.Random(53)
    for model in (MT, MP):
        for _ in range(10):
            spec = random_valid_spec(rng, model, rng.choice([2, 3, 4]), closed_only=True)
            gens = {unit_vector(model, i, spec.n) for i in spec.I}
            for (i, j), b in spec.sigma.items():
                if b.threshold.is_finite:
                    gens.add(generator_pair(spec, i, j, b.threshold))
            cone = ConeGen.of(model, spec.n, gens)
            for x in grid_for_spec(spec, spanning=False).points():
                assert cone_member_fg(x, cone).member == conical_member(spec, x), (
                    sorted(spec.I),
                    {k: v.describe() for k, v in sorted(spec.sigma.items())},
                    str(x),
                )


def test_complement_is_an_involution_on_random_specs():
    rng = random.Random(61)
    for model in (MT, MP):
        for _ in range(15):
            spec = random_valid_spec(rng, model, rng.choice([2, 3, 4]))
            assert complement_spec(complement_spec(spec)) == spec


def test_gathered_sector_decompositions_stay_inside():
    # The (P, R) forms of sectors contained in a hemispace may be united:
    # each sector's hull point is supported inside each of its rays.
    from tropconv.sectors import SectorId, sector_pr
    from tropconv.tlinalg import PRDecomposition, homogenize, pr_member

    sigma = {(1, 2): bset("1", True), (3, 2): bset("2", True)}
    base = HemispaceSpec.build(MT, 3, [1, 3], [2], sigma)
    h = AffineHemispace(base, contains_zero=True)

    def sector_in_affine_side(sid):
        # The side's cone holds the sector iff it holds its lifted hull
        # points and rays.
        return all(conical_member(h.cone, g) for g in homogenize(sector_pr(sid)).gens)

    grid = make_grid(MT, 2, (b.threshold for b in sigma.values()))
    bases = [p for p in grid.points() if not p.is_zero()]
    parts = []
    for y in bases:
        for i in sorted(support(y)):
            sid = SectorId.of_support(y, i)
            if sector_in_affine_side(sid):
                parts.append(sector_pr(sid))
        sid = SectorId.affine(y)
        if sector_in_affine_side(sid):
            parts.append(sector_pr(sid))
    assert len(parts) >= 3
    for d in parts:
        assert all(any(support(p) <= support(z) for p in d.P) for z in d.R)
    merged = PRDecomposition.of(
        MT, 2, frozenset().union(*(d.P for d in parts)), frozenset().union(*(d.R for d in parts))
    )
    for x in grid.points():
        if pr_member(x, merged):
            assert affine_member(h, x)
    for d in parts:
        for x in grid.points():
            if pr_member(x, d):
                assert pr_member(x, merged)


def test_degenerate_affine_whole_space():
    # A Top row on the lifted index makes the zero side everything;
    # the pair still splits the space exactly, and the empty complement
    # side has no halfspace form (its slice pins the lifted coordinate).
    sigma = {(3, 1): bset("inf", False), (3, 2): bset("inf", False)}
    base = HemispaceSpec.build(MT, 3, [3], [1, 2], sigma)
    h = AffineHemispace(base, contains_zero=True)
    comp = affine_complement(h)
    for x in make_grid(MT, 2).points():
        assert affine_member(h, x)
        assert not affine_member(comp, x)
    with pytest.raises(NotClosedError, match="slice is empty"):
        to_halfspace(comp)
