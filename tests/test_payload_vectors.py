"""Vectors store payloads: `TVec.p` holds a `Fraction` per finite
coordinate and None for Bottom.

`_RefVec` is the vector as it was when it stored `TScalar`s, computing
with the scalar operations.  On seeded vectors of both models, with
Bottom coordinates and the max-plus unit payload 0 (finite, not Bottom),
every vector operation must agree with it.  The module tests also keep
the scalars at the boundary: no module but `tlinalg` reads the scalar
view of a vector.
"""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import MP, MT, drop_last
import tropconv
from tropconv.semiring import TScalar, format_scalar_compact, t_add, t_mul
from tropconv.tlinalg import TVec, support

MODELS = pytest.mark.parametrize("model", [MT, MP], ids=["max-times", "max-plus"])


class _RefVec:
    """The old vector: a tuple of scalars and the scalar operations."""

    def __init__(self, model, coords):
        self.model, self.coords = model, tuple(coords)

    def join(self, other):
        return _RefVec(self.model, (t_add(a, b) for a, b in zip(self.coords, other.coords)))

    def scale(self, lam):
        return _RefVec(self.model, (t_mul(lam, c) for c in self.coords))

    def lift(self):
        return _RefVec(self.model, self.coords + (TScalar.unit(self.model),))

    def drop_last(self):
        return _RefVec(self.model, self.coords[:-1])

    def support(self):
        return frozenset(i for i, c in enumerate(self.coords, start=1) if not c.is_bottom)

    def is_zero(self):
        return all(c.is_bottom for c in self.coords)

    def sort_key(self):
        return tuple(c._key() for c in self.coords)

    def __eq__(self, other):
        return self.model is other.model and self.coords == other.coords

    def __str__(self):
        return "[" + ", ".join(format_scalar_compact(c) for c in self.coords) + "]"


def _scalar(rng: random.Random, model) -> TScalar:
    """Bottom, the unit (max-plus payload 0), or a small payload."""
    kind = rng.randrange(4)
    if kind == 0:
        return TScalar.bottom(model)
    if kind == 1:
        return TScalar.unit(model)
    q = Fraction(rng.randint(1, 9), rng.randint(1, 4))
    if model is MT:
        return TScalar.finite(model, q if kind == 2 else 1 / q)
    return TScalar.finite(model, q if kind == 2 else -q)


def _samples(model, count=300):
    """(TVec, _RefVec) pairs of one seeded draw, dimensions 1..4."""
    rng = random.Random(f"payload-vectors:{model.value}")
    out = []
    for _ in range(count):
        coords = [_scalar(rng, model) for _ in range(rng.randint(1, 4))]
        out.append((TVec(model, coords), _RefVec(model, coords)))
    return out


def _agrees(x: TVec, ref: _RefVec) -> bool:
    return x.model is ref.model and x.coords == ref.coords and str(x) == str(ref)


@MODELS
def test_payloads_hold_bottom_as_none_and_unit_as_finite(model):
    x = TVec(model, (TScalar.bottom(model), TScalar.unit(model)))
    assert x.p == (None, model.unit)
    assert x.p[1] is not None and support(x) == {2}


@MODELS
def test_vector_operations_equal_the_scalar_reference(model):
    samples = _samples(model)
    rng = random.Random(f"payload-ops:{model.value}")
    assert any(q == 0 for x, _ in samples for q in x.p if q is not None) == (model is MP)
    for x, rx in samples:
        assert TVec(model, x.coords) == x and _agrees(x, rx)
        assert support(x) == rx.support()
        assert x.is_zero() == rx.is_zero()
        y, ry = rng.choice([s for s in samples if s[0].dim == x.dim])
        assert _agrees(x.join(y), rx.join(ry))
        lam = _scalar(rng, model)
        assert _agrees(x.scale(lam), rx.scale(lam))
        assert _agrees(x.lift(), rx.lift())
        assert _agrees(drop_last(x), rx.drop_last())


@MODELS
def test_equality_hash_and_order_equal_the_scalar_reference(model):
    samples = _samples(model, 120)
    for x, rx in samples:
        for y, ry in samples:
            assert (x == y) == (rx == ry)
            if x == y:
                assert hash(x) == hash(y)
    by_payload = sorted(range(len(samples)), key=lambda k: samples[k][0].sort_key())
    by_scalar = sorted(range(len(samples)), key=lambda k: samples[k][1].sort_key())
    assert by_payload == by_scalar


@MODELS
def test_support_reference_rejects_a_truthiness_test(model):
    """Negative control: `if q` drops the max-plus unit payload 0."""
    def truthy_support(x):
        return frozenset(i for i, q in enumerate(x.p, start=1) if q)

    samples = _samples(model)
    misses = sum(truthy_support(x) != rx.support() for x, rx in samples)
    assert misses == 0 if model is MT else misses > 0
    assert all(support(x) == rx.support() for x, rx in samples)


@pytest.mark.parametrize("coord, message", [
    (TScalar.top(MT), "Top is not a vector coordinate"),
    (TScalar.unit(MP), "vector coordinates must share the vector's model"),
    (TScalar.top(MP), "vector coordinates must share the vector's model"),
], ids=["top", "wrong-model", "wrong-model-top"])
def test_constructor_keeps_its_errors(coord, message):
    with pytest.raises(ValueError) as exc:
        TVec(MT, (TScalar.unit(MT), coord))
    assert type(exc.value) is ValueError and str(exc.value) == message


# ----------------------------------------------------------------------
# The boundary enforces itself.


def _scalar_view_reads(source: str) -> list[str]:
    """Each `.coords` read and `.at(...)` call in the source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "coords":
            found.append(f"line {node.lineno}: .coords")
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "at"):
            found.append(f"line {node.lineno}: .at(")
    return sorted(found)


def _definitions(source: str) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names


SOURCES = sorted(Path(tropconv.__file__).parent.glob("*.py"))


def test_only_tlinalg_reads_the_scalar_view():
    assert len(SOURCES) >= 9
    reads = {path.name: _scalar_view_reads(path.read_text(encoding="utf-8"))
             for path in SOURCES if path.name != "tlinalg.py"}
    assert {name: found for name, found in reads.items() if found} == {}


def test_removed_scalar_helpers_stay_removed():
    for path in SOURCES:
        assert not {"t_max", "t_div"} & _definitions(path.read_text(encoding="utf-8")), path.name


def test_boundary_scanners_find_what_they_look_for():
    assert _scalar_view_reads("y = x.coords[0]\nz = x.at(1)\nw = x.p") == \
        ["line 1: .coords", "line 2: .at("]
    assert {"t_max", "t_div"} <= _definitions("def t_max(v): pass\nt_div = None")
