"""The compiled membership kernel against the structural test it replaced.

`reference_trace` is the membership test as it ran before specs compiled
their kernel: the leading-class halfspace-with-ownership test in
`TScalar` arithmetic, evaluated from the thin structure on every call.
The kernel must give the same member, reason, class and reduced point,
raise the same errors, and leave every oracle verdict unchanged.
"""

import dataclasses
import functools
import random

import pytest

from conftest import MP, MT, vec, worked_example
from tropconv import hemispace, verify
from tropconv.hemispace import (
    HemispaceSpec,
    MembershipTrace,
    SpecError,
    affine_complement,
    affine_member,
    complement_spec,
    conical_member,
    member_trace,
)
from tropconv.semiring import TScalar, t_add, t_mul
from tropconv.tlinalg import DimensionMismatchError, TVec, support
from tropconv.verify import (
    closure_check,
    closure_scalars,
    grid_for_spec,
    random_valid_affine,
    random_valid_spec,
    run_properties,
)


def reference_trace(spec: HemispaceSpec, x: TVec) -> MembershipTrace:
    if not spec.validated:
        raise SpecError("membership requires a validated spec")
    if x.model is not spec.model:
        raise SpecError("point and spec use different models")
    if x.dim != spec.n:
        raise DimensionMismatchError(f"dimension mismatch: {x.dim} vs {spec.n}")
    if x.is_zero():
        return MembershipTrace(True, "zero vector")
    ts = spec.thin
    lead = None
    for cls in ts.classes:
        if any(not x.at(i).is_bottom for i in cls.I_elems):
            lead = cls
            break
    if lead is None:
        return MembershipTrace(False, "nonzero point with no support on I")

    dropped = set(lead.K).union(*(cls.I_elems for cls in ts.classes[lead.index:]))
    reduced = x
    if any(not x.at(k).is_bottom for k in dropped):
        bot = TScalar.bottom(spec.model)
        reduced = TVec(spec.model, tuple(
            bot if k in dropped else c for k, c in enumerate(x.coords, start=1)
        ))

    if not lead.J_elems:
        ok = support(reduced) <= set(lead.I_elems)
        reason = "coordinate-plane class" if ok else "support outside the plane class"
        return MembershipTrace(ok, reason, lead.index, reduced)

    if any(not reduced.at(j).is_bottom for j in sorted(lead.L)):
        return MembershipTrace(
            False, "support on a zero-threshold column", lead.index, reduced
        )
    row = {i: t_mul(ts.beta[i], reduced.at(i)) for i in lead.I_elems}
    col = {j: t_mul(ts.gamma[j], reduced.at(j)) for j in lead.J_elems}
    rhs = functools.reduce(t_add, row.values(), TScalar.bottom(spec.model))
    if rhs < functools.reduce(t_add, col.values(), TScalar.bottom(spec.model)):
        return MembershipTrace(False, "dominated: max gamma_j x_j > max beta_i x_i",
                               lead.index, reduced)
    for j in lead.J_elems:
        if col[j] == rhs and not any(
            row[k] == rhs and j in ts.J_le[k] for k in lead.I_elems
        ):
            return MembershipTrace(
                False,
                f"boundary attained at column {j} is owned by the complement",
                lead.index,
                reduced,
            )
    return MembershipTrace(True, "inside the class halfspace", lead.index, reduced)


def reference_affine(h, x: TVec) -> MembershipTrace:
    return reference_trace(h.cone, x.lift())


# (n, seeds, spanning grid) per stratum: full grid_for_spec grids, with
# the non-spanning grid at n = 5 to keep the run to seconds.
STRATA = ((2, range(6), True), (3, range(3), True), (4, range(1), True), (5, range(1), False))


def conical_cases():
    """(label, cone, grid): both models, n = 2..5, each spec and its complement."""
    for n, seeds, spanning in STRATA:
        for model in (MT, MP):
            for seed in seeds:
                spec = random_valid_spec(random.Random(f"kernel:{seed}"), model, n)
                grid = grid_for_spec(spec, spanning=spanning)
                for side, cone in (("spec", spec), ("complement", complement_spec(spec))):
                    yield f"{model.value} n={n} seed={seed} {side}", cone, grid


def affine_cases():
    """(label, side, grid): both sides of seeded affine pairs, ambient n = 1..3."""
    for ambient in (1, 2, 3):
        for model in (MT, MP):
            for seed in range(2):
                h = random_valid_affine(random.Random(f"kernel:{seed}"), model, ambient)
                grid = grid_for_spec(h.base, ambient)
                for side in (h, affine_complement(h)):
                    yield f"{model.value} n={ambient} seed={seed} {side.contains_zero}", side, grid


def test_kernel_matches_the_reference_on_seeded_grids():
    queries, reasons = 0, set()
    for label, cone, grid in conical_cases():
        for x in grid.points():
            want = reference_trace(cone, x)
            assert member_trace(cone, x) == want, (label, str(x))
            assert conical_member(cone, x) is want.member, (label, str(x))
            queries += 1
            reasons.add(want.reason)
    for label, side, grid in affine_cases():
        for x in grid.points():
            want = reference_affine(side, x)
            assert member_trace(side, x) == want, (label, str(x))
            assert affine_member(side, x) is want.member, (label, str(x))
            queries += 1
            reasons.add(want.reason)
    assert queries >= 20_000
    # The kernel decides a lead class with no finite column by its
    # zero-threshold test alone; the cases reach both of its outcomes.
    assert {"coordinate-plane class", "support outside the plane class"} <= reasons


def test_kernel_with_an_owner_dropped_disagrees_with_the_reference():
    # Row k owns column j of its class; the point e_k + sigma_kj e_j sits
    # on that boundary, so a kernel that forgets the owner must send it
    # to the complement.  Every (class, column, owner) is dropped in turn.
    specs = [worked_example()] + [
        random_valid_spec(random.Random(f"owner:{seed}"), model, 3)
        for seed in range(4) for model in (MT, MP)
    ]
    mutants = 0
    for spec in specs:
        grid = grid_for_spec(spec)
        conical_member(spec, grid.point([0] * spec.n))
        pair_mul, kernels = spec._kernel
        for c, lead in enumerate(kernels):
            for pos, (j, gn, gd, owners) in enumerate(lead.cols):
                for k in owners:
                    cols = list(lead.cols)
                    cols[pos] = (j, gn, gd, owners - {k})
                    broken = dataclasses.replace(lead, cols=tuple(cols))
                    mutant = HemispaceSpec.build(spec.model, spec.n, spec.I, spec.J, spec.sigma)
                    mutant._kernel = (pair_mul, kernels[:c] + (broken,) + kernels[c + 1:])
                    assert any(member_trace(mutant, x) != reference_trace(spec, x)
                               for x in grid.points()), (spec, j, k)
                    mutants += 1
    assert mutants >= 5


def test_kernel_with_the_other_models_pair_product_disagrees_with_the_reference():
    # Max-plus multiplies pairs by adding cross products, max-times by
    # multiplying numerators; a kernel that reads its gauge pairs with
    # the other model's formula misplaces grid points.  Max-plus's formula
    # on max-times pairs adds the factor instead, which keeps every
    # comparison when all gauge factors are equal, so only specs with two
    # distinct factors must disagree.
    for model, other in ((MT, MP), (MP, MT)):
        mutants = 0
        for seed in range(8):
            spec = random_valid_spec(random.Random(f"pair:{seed}"), model, 3)
            grid = grid_for_spec(spec)
            conical_member(spec, grid.point([0] * spec.n))
            pair_mul, kernels = spec._kernel
            assert pair_mul is model.pair_mul
            gauges = {g[1:3] for lead in kernels for g in lead.rows + lead.cols}
            if len(gauges) < 2:
                continue
            mutant = HemispaceSpec.build(spec.model, spec.n, spec.I, spec.J, spec.sigma)
            mutant._kernel = (other.pair_mul, kernels)
            assert any(member_trace(mutant, x) != reference_trace(spec, x)
                       for x in grid.points()), (model, seed)
            mutants += 1
        assert mutants >= 4, model


def test_kernel_is_compiled_on_the_first_query_and_kept(monkeypatch):
    compiled = []
    compile_kernel = hemispace._compile_kernel
    monkeypatch.setattr(hemispace, "_compile_kernel",
                        lambda spec: compiled.append(spec) or compile_kernel(spec))
    spec = worked_example()
    assert spec._kernel is None and compiled == []
    assert conical_member(spec, vec("[2, 0, 1, 0]"))
    kernel = spec._kernel
    assert kernel is not None and compiled == [spec]
    for x in grid_for_spec(spec).points():
        conical_member(spec, x)
        member_trace(spec, x)
    assert spec._kernel is kernel and compiled == [spec]

    comp = complement_spec(spec)
    assert comp._kernel is None
    assert conical_member(comp, vec("[1, 0, 2, 0]"))
    assert comp._kernel is not None and comp._kernel is not kernel
    assert compiled == [spec, comp] and spec._kernel is kernel


def _raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


def test_membership_errors_are_unchanged():
    spec = worked_example()
    raw = HemispaceSpec.raw(spec.model, spec.n, spec.I, spec.J, spec.sigma)
    cases = [
        (raw, vec("[1, 0, 1, 0]")),
        (spec, vec("[1, 0, 1, 0]", MP)),
        (spec, vec("[1, 0, 1]")),
        (spec, vec("[1, 0, 1, 0, 1]")),
    ]
    expected = [
        (SpecError, "membership requires a validated spec"),
        (SpecError, "point and spec use different models"),
        (DimensionMismatchError, "dimension mismatch: 3 vs 4"),
        (DimensionMismatchError, "dimension mismatch: 5 vs 4"),
    ]
    for (cone, x), want in zip(cases, expected):
        assert _raised(reference_trace, cone, x) == want
        assert _raised(conical_member, cone, x) == want
        assert _raised(member_trace, cone, x) == want

    h = random_valid_affine(random.Random(0), MT, 2)
    for side in (h, affine_complement(h)):
        want = (DimensionMismatchError, "dimension mismatch: 3 vs 2")
        assert _raised(affine_member, side, vec("[1, 1, 1]")) == want
        assert _raised(member_trace, side, vec("[1, 1, 1]")) == want
        want = (ValueError, "vector coordinates must share the vector's model")
        assert _raised(affine_member, side, vec("[1, 1]", MP)) == want


def _verdicts(obj, grid, member):
    """`run_properties` (partition, sampled closure, segments, sector-union)
    plus the all-pairs closure check, with `member(side, x)` as the side test."""
    out = run_properties(obj, grid, 40, 5)
    if isinstance(obj, HemispaceSpec):
        scalars = closure_scalars(grid.model)
        out.append(closure_check(lambda x: member(obj, x), grid, None, scalars))
    return out


def test_oracle_verdicts_equal_the_reference(monkeypatch):
    pairs = []
    for model in (MT, MP):
        for n in (2, 3, 4):
            rng = random.Random(f"verdicts:{model.value}:{n}")
            spec = random_valid_spec(rng, model, n)
            pairs.append((spec, grid_for_spec(spec, spanning=n < 4)))
            h = random_valid_affine(rng, model, n)
            pairs.append((h, grid_for_spec(h.base, n, spanning=n < 4)))

    def kernel_member(obj, x):
        return (conical_member if isinstance(obj, HemispaceSpec) else affine_member)(obj, x)

    def reference_member(obj, x):
        trace = reference_trace if isinstance(obj, HemispaceSpec) else reference_affine
        return trace(obj, x).member

    got = [_verdicts(obj, grid, kernel_member) for obj, grid in pairs]
    monkeypatch.setattr(verify, "conical_member", lambda s, x: reference_trace(s, x).member)
    monkeypatch.setattr(verify, "affine_member", lambda h, x: reference_affine(h, x).member)
    want = [_verdicts(obj, grid, reference_member) for obj, grid in pairs]
    assert got == want
    assert all(v.passed for vs in got for v in vs)
