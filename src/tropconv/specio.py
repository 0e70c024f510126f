"""Hemispace spec files: parsing and canonical text.

The on-disk form is JSON with 1-based indices::

    {
      "model": "max-times",
      "n": 4,
      "I": [1, 2],
      "J": [3, 4],
      "sigma": [
        {"i": 1, "j": 3, "threshold": "1", "closed": true},
        ...
      ]
    }

Thresholds use the scalar tokens "zero", "inf" or an exact fraction.
Affine files describe a hemispace of R_max^n through a base spec one
dimension up: they add ``"affine": true`` and ``"contains_zero"``, and
must list the homogenizing index n+1 in I.

`canonical_text` sorts I, J and the sigma entries, so writing, reading
back and writing again is byte-identical.
"""

from __future__ import annotations

import json

from .hemispace import AffineHemispace, BoundarySet, HemispaceSpec, SpecError, SpecLike
from .semiring import Model, format_scalar, parse_scalar


class SpecFormatError(ValueError):
    pass


def _need(payload: dict, key: str, kind, where: str):
    if key not in payload:
        raise SpecFormatError(f"{where}: missing field {key!r}")
    value = payload[key]
    if kind is int and isinstance(value, bool):
        raise SpecFormatError(f"{where}: field {key!r} must be an integer")
    if not isinstance(value, kind):
        raise SpecFormatError(f"{where}: field {key!r} has the wrong type")
    return value


def parse_spec_text(text: str) -> SpecLike:
    """Parse and fully validate (structure plus rank-one)."""
    model, dim, I, J, sigma, affine, contains_zero = _parse_fields(text)
    spec = HemispaceSpec.build(model, dim, I, J, sigma)
    if not affine:
        return spec
    return AffineHemispace(spec, contains_zero)


def parse_spec_text_raw(text: str):
    """Parse structurally only; returns (raw spec, affine?, contains_zero).

    The raw spec has not passed the rank-one check; this is the input
    form for the checker itself.
    """
    model, dim, I, J, sigma, affine, contains_zero = _parse_fields(text)
    return HemispaceSpec.raw(model, dim, I, J, sigma), affine, contains_zero


def _parse_fields(text: str):
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise SpecFormatError("top level must be an object")

    name = _need(payload, "model", str, "spec")
    try:
        model = Model.parse(name)
    except ValueError as exc:
        raise SpecFormatError(f"spec: {exc}") from None
    n = _need(payload, "n", int, "spec")
    if n < 1:
        raise SpecFormatError("n must be positive")
    affine = "affine" in payload and _need(payload, "affine", bool, "spec")
    dim = n + 1 if affine else n

    def index_list(key: str) -> list[int]:
        raw = _need(payload, key, list, "spec")
        out = []
        for v in raw:
            if isinstance(v, bool) or not isinstance(v, int):
                raise SpecFormatError(f"spec: {key} must hold integers")
            if not 1 <= v <= dim:
                raise SpecFormatError(f"spec: index {v} in {key} out of range 1..{dim}")
            out.append(v)
        if len(set(out)) != len(out):
            raise SpecFormatError(f"spec: duplicate indices in {key}")
        return out

    I, J = index_list("I"), index_list("J")
    sigma_raw = _need(payload, "sigma", list, "spec")
    sigma = {}
    for pos, entry in enumerate(sigma_raw):
        where = f"sigma[{pos}]"
        if not isinstance(entry, dict):
            raise SpecFormatError(f"{where}: entry must be an object")
        i = _need(entry, "i", int, where)
        j = _need(entry, "j", int, where)
        token = _need(entry, "threshold", str, where)
        closed = _need(entry, "closed", bool, where)
        try:
            threshold = parse_scalar(token, model)
        except ValueError as exc:
            raise SpecFormatError(f"{where}: {exc}") from None
        if (i, j) in sigma:
            raise SpecFormatError(f"{where}: duplicate entry for (i={i}, j={j})")
        try:
            sigma[(i, j)] = BoundarySet.make(threshold, closed)
        except SpecError as exc:
            raise SpecFormatError(f"{where}: {exc}") from None

    if affine:
        contains_zero = _need(payload, "contains_zero", bool, "spec")
        if dim not in I:
            raise SpecFormatError(f"affine spec must list the index n+1 = {dim} in I")
    else:
        if "contains_zero" in payload:
            raise SpecFormatError("contains_zero is only meaningful with affine: true")
        contains_zero = None
    return model, dim, I, J, sigma, affine, contains_zero


def canonical_text(obj: SpecLike) -> str:
    if isinstance(obj, AffineHemispace):
        spec, affine, contains_zero = obj.base, True, obj.contains_zero
        n = spec.n - 1
    else:
        spec, affine, contains_zero = obj, False, None
        n = spec.n
    doc: dict = {"model": spec.model.value, "n": n}
    if affine:
        doc["affine"] = True
        doc["contains_zero"] = contains_zero
    doc["I"] = sorted(spec.I)
    doc["J"] = sorted(spec.J)
    doc["sigma"] = [
        {
            "i": i,
            "j": j,
            "threshold": format_scalar(spec.entry(i, j).threshold),
            "closed": spec.entry(i, j).closed,
        }
        for (i, j) in sorted(spec.sigma)
    ]
    return json.dumps(doc, indent=2) + "\n"

