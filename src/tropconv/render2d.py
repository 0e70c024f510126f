"""Deterministic SVG rendering of 2-D hemispaces.

The shaded region is built from the exact boundary sets, not by pixel
scanning: every planar hemispace over two coordinates is either a
"rectangle" (both coordinates bounded by down-sets) or the region under
the upper envelope of a horizontal line and a line through the scaling
family, so each piece is a window box clipped by rational halfplanes.
Boundary segments are drawn solid where the shaded side owns them and
dashed where the complement does.

The tests classify points from the same exact data (`PlaneGeometry`)
and compare the answers with the structural membership predicates; the
two routes are independent (Minkowski-sum geometry here, class
reduction in `hemispace`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .hemispace import AffineHemispace, BoundarySet, SpecError, SpecLike
from .semiring import Model, TScalar, t_inv, t_mul

REGION_FILL = "#7fb2e5"
COMPLEMENT_FILL = "#f6e8c9"
BOUNDARY_STROKE = "#16324f"
FRAME_STROKE = "#999999"


@dataclass(frozen=True)
class RenderConfig:
    window: tuple[Fraction, Fraction] = (Fraction(4), Fraction(4))
    resolution: int = 64
    show_complement: bool = True
    show_boundary_ownership: bool = True

    def __post_init__(self):
        if self.window[0] <= 0 or self.window[1] <= 0:
            raise ValueError("window must be strictly positive")
        if self.resolution < 16:
            raise ValueError("resolution must be at least 16")


@dataclass(frozen=True)
class PlaneGeometry:
    """Exact description of the zero-side region of a 2-D hemispace.

    rect: {x1 in A, x2 in B}.  curve: {x2 in const  or  x2 in x1*lin}
    (swapped when transposed).  `flip` says the object's own side is the
    complement of this region.
    """

    model: Model
    kind: str  # "rect" | "curve"
    A: Optional[BoundarySet]
    B: Optional[BoundarySet]
    const: Optional[BoundarySet]
    lin: Optional[BoundarySet]
    transposed: bool
    flip: bool


def build_geometry(obj: SpecLike) -> PlaneGeometry:
    if isinstance(obj, AffineHemispace):
        base = obj.base
        if base.n != 3:
            raise SpecError("2-d rendering needs an affine spec over two coordinates")
        I = frozenset(base.I)
        if I == frozenset({3}):
            return PlaneGeometry(base.model, "rect", base.entry(3, 1), base.entry(3, 2),
                                 None, None, False, not obj.contains_zero)
        if I == frozenset({1, 3}):
            return PlaneGeometry(base.model, "curve", None, None, base.entry(3, 2),
                                 base.entry(1, 2), False, not obj.contains_zero)
        if I == frozenset({2, 3}):
            return PlaneGeometry(base.model, "curve", None, None, base.entry(3, 1),
                                 base.entry(2, 1), True, not obj.contains_zero)
        raise SpecError(f"unsupported affine index layout I={sorted(I)}")
    if obj.n != 2:
        raise SpecError("2-d rendering needs a conical spec with n = 2")
    zero_ray = BoundarySet.make(TScalar.bottom(obj.model), True)
    if obj.I == frozenset({1}):
        return PlaneGeometry(obj.model, "curve", None, None, zero_ray,
                             obj.entry(1, 2), False, False)
    return PlaneGeometry(obj.model, "curve", None, None, zero_ray,
                         obj.entry(2, 1), True, False)


# ----------------------------------------------------------------------
# Exact plot-space construction.  Plot coordinates are Fractions; the
# tropical value axis maps directly (max-times: zero sits at 0, max-plus:
# zero is off-window below).


class _Frame:
    def __init__(self, model: Model, config: RenderConfig):
        self.model = model
        wx, wy = Fraction(config.window[0]), Fraction(config.window[1])
        if model is Model.MAX_TIMES:
            self.xlo, self.xhi = Fraction(0), wx
            self.ylo, self.yhi = Fraction(0), wy
        else:
            self.xlo, self.xhi = -wx, wx
            self.ylo, self.yhi = -wy, wy

    def plot(self, s: TScalar, axis_lo: Fraction, axis_hi: Fraction) -> Optional[Fraction]:
        """Clamped plot coordinate; None when the value is off-window low."""
        if s.is_bottom:
            return Fraction(0) if self.model is Model.MAX_TIMES else None
        if s.is_top:
            return axis_hi
        return min(max(s.payload, axis_lo), axis_hi)

    def box(self):
        return [(self.xlo, self.ylo), (self.xhi, self.ylo),
                (self.xhi, self.yhi), (self.xlo, self.yhi)]


def _clip(poly, a: Fraction, b: Fraction, c: Fraction):
    """Sutherland-Hodgman clip of a polygon by a*x + b*y + c <= 0."""
    out = []
    m = len(poly)
    for idx in range(m):
        p, q = poly[idx], poly[(idx + 1) % m]
        fp = a * p[0] + b * p[1] + c
        fq = a * q[0] + b * q[1] + c
        if fp <= 0:
            out.append(p)
            if fq > 0:
                t = fp / (fp - fq)
                out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
        elif fq <= 0:
            t = fp / (fp - fq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    dedup = []
    for pt in out:
        if not dedup or dedup[-1] != pt:
            dedup.append(pt)
    if dedup and len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    return dedup


def _area2(poly) -> Fraction:
    s = Fraction(0)
    for idx in range(len(poly)):
        x1, y1 = poly[idx]
        x2, y2 = poly[(idx + 1) % len(poly)]
        s += x1 * y2 - x2 * y1
    return abs(s)


@dataclass
class _Feature:
    kind: str  # "poly" | "segment" | "point" | "edge"
    points: list
    owner_zero_side: bool = True


def _down_constraint(frame: _Frame, b: BoundarySet, axis: int) -> Optional[list]:
    """Halfplane list for 'coordinate[axis] in b', or None when empty on-window."""
    t = b.threshold
    if t.is_top:
        return []
    if t.is_bottom:
        if frame.model is Model.MAX_PLUS:
            return None
        return [(1, 0, 0)] if axis == 0 else [(0, 1, 0)]
    coef = -t.payload
    return [(1, 0, coef)] if axis == 0 else [(0, 1, coef)]


def _wedge_constraint(frame: _Frame, lin: BoundarySet) -> Optional[list]:
    """Halfplanes for x2 <= lin.threshold (*) x1 within the window."""
    t = lin.threshold
    if t.is_top:
        return []
    if t.is_bottom:
        if frame.model is Model.MAX_PLUS:
            return None
        return [(0, 1, 0)]
    if frame.model is Model.MAX_TIMES:
        return [(-t.payload, 1, 0)]
    return [(-1, 1, -t.payload)]


def _emit_piece(frame: _Frame, constraints: Optional[list]) -> Optional[_Feature]:
    if constraints is None:
        return None
    poly = frame.box()
    for (a, b, c) in constraints:
        poly = _clip(poly, Fraction(a), Fraction(b), Fraction(c))
        if not poly:
            return None
    distinct = sorted(set(poly))
    if len(poly) >= 3 and _area2(poly) > 0:
        return _Feature("poly", poly)
    if len(distinct) >= 2:
        return _Feature("segment", [distinct[0], distinct[-1]])
    return _Feature("point", [distinct[0]])


def _geometry_features(geom: PlaneGeometry, frame: _Frame) -> list:
    feats = []
    if geom.kind == "rect":
        A, B = geom.A, geom.B
        ca = _down_constraint(frame, A, 0)
        cb = _down_constraint(frame, B, 1)
        piece = None if ca is None or cb is None else _emit_piece(frame, ca + cb)
        if piece:
            feats.append(piece)
        # Boundary edges exist only where the true threshold crosses the
        # window; a clamped position would draw a phantom border.
        tb_cap = frame.plot(B.threshold, frame.ylo, frame.yhi)
        if (A.threshold.is_finite and frame.xlo <= A.threshold.payload <= frame.xhi
                and tb_cap is not None):
            ta = A.threshold.payload
            feats.append(_Feature("edge", [(ta, frame.ylo), (ta, tb_cap)], A.closed))
        ta_cap = frame.plot(A.threshold, frame.xlo, frame.xhi)
        if (B.threshold.is_finite and frame.ylo <= B.threshold.payload <= frame.yhi
                and ta_cap is not None):
            tb = B.threshold.payload
            feats.append(_Feature("edge", [(frame.xlo, tb), (ta_cap, tb)], B.closed))
        return feats

    const, lin = geom.const, geom.lin
    strip = _emit_piece(frame, _down_constraint(frame, const, 1))
    if strip:
        feats.append(strip)
    wedge = _emit_piece(frame, _wedge_constraint(frame, lin))
    if wedge:
        feats.append(wedge)

    # Horizontal boundary where the constant part is the upper envelope.
    tc = const.threshold
    if tc.is_finite and frame.ylo <= tc.payload <= frame.yhi:
        astar = t_mul(tc, t_inv(lin.threshold))  # crossing with the scaled part
        xstop = frame.plot(astar, frame.xlo, frame.xhi)
        if xstop is not None and xstop > frame.xlo:
            feats.append(_Feature("edge", [(frame.xlo, tc.payload), (xstop, tc.payload)],
                                  const.closed))
    # Diagonal boundary where the scaled part dominates.
    tl = lin.threshold
    if tl.is_finite:
        mul, tl_inv = frame.model.mul, frame.model.inv(tl.payload)
        f = lambda a: mul(tl.payload, a)
        finv = lambda b: mul(b, tl_inv)
        a1 = frame.xlo
        if tc.is_finite:
            a1 = max(a1, finv(tc.payload))  # the crossing with the constant part
        elif tc.is_top:
            a1 = frame.xhi  # constant part covers everything
        if f(a1) < frame.ylo:
            a1 = max(a1, finv(frame.ylo))
        a2 = frame.xhi
        if f(a2) > frame.yhi:
            a2 = min(a2, finv(frame.yhi))
        if a1 < a2:
            feats.append(_Feature("edge", [(a1, f(a1)), (a2, f(a2))], lin.closed))
    if tl.is_top and frame.model is Model.MAX_TIMES and not tc.is_top:
        # Region is everything right of the vertical axis; the axis itself
        # splits at the constant threshold.
        split = frame.plot(tc, frame.ylo, frame.yhi)
        if split is None:
            split = frame.ylo
        if split > frame.ylo:
            feats.append(_Feature("edge", [(Fraction(0), frame.ylo), (Fraction(0), split)],
                                  const.closed))
        if split < frame.yhi:
            feats.append(_Feature("edge", [(Fraction(0), split), (Fraction(0), frame.yhi)],
                                  False))

    if geom.transposed:
        for feat in feats:
            feat.points = [(y, x) for (x, y) in feat.points]
    return feats


# ----------------------------------------------------------------------
# SVG assembly.


def _fmt(v: float) -> str:
    return f"{v:.4f}".rstrip("0").rstrip(".")


def render_svg(obj: SpecLike, config: RenderConfig = RenderConfig()) -> str:
    geom = build_geometry(obj)
    frame = _Frame(geom.model, config)
    feats = _geometry_features(geom, frame)

    span_x = frame.xhi - frame.xlo
    span_y = frame.yhi - frame.ylo
    pad = 24.0
    width = float(span_x * config.resolution)
    height = float(span_y * config.resolution)

    def px(pt) -> tuple[float, float]:
        x = float((pt[0] - frame.xlo) * config.resolution) + pad
        y = height - float((pt[1] - frame.ylo) * config.resolution) + pad
        return x, y

    region_fill = COMPLEMENT_FILL if geom.flip else REGION_FILL
    back_fill = REGION_FILL if geom.flip else COMPLEMENT_FILL
    if not config.show_complement:
        back_fill = "#ffffff"

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width + 2 * pad)}" height="{_fmt(height + 2 * pad)}">'
    )
    bl, tr = px((frame.xlo, frame.yhi)), px((frame.xhi, frame.ylo))
    out.append(
        f'<rect x="{_fmt(bl[0])}" y="{_fmt(bl[1])}" width="{_fmt(tr[0] - bl[0])}" '
        f'height="{_fmt(tr[1] - bl[1])}" fill="{back_fill}" stroke="none"/>'
    )
    for feat in feats:
        if feat.kind == "poly":
            pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in map(px, feat.points))
            out.append(f'<polygon points="{pts}" fill="{region_fill}" stroke="none"/>')
        elif feat.kind == "segment":
            (x1, y1), (x2, y2) = map(px, feat.points)
            out.append(
                f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
                f'stroke="{region_fill}" stroke-width="3"/>'
            )
        elif feat.kind == "point":
            (x1, y1) = px(feat.points[0])
            out.append(f'<circle cx="{_fmt(x1)}" cy="{_fmt(y1)}" r="3" fill="{region_fill}"/>')
    for feat in feats:
        if feat.kind != "edge":
            continue
        shaded_owns = feat.owner_zero_side != geom.flip
        dash = "" if (shaded_owns or not config.show_boundary_ownership) \
            else ' stroke-dasharray="6,5"'
        (x1, y1), (x2, y2) = map(px, feat.points)
        out.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{BOUNDARY_STROKE}" stroke-width="2"{dash}/>'
        )
    out.append(
        f'<rect x="{_fmt(bl[0])}" y="{_fmt(bl[1])}" width="{_fmt(tr[0] - bl[0])}" '
        f'height="{_fmt(tr[1] - bl[1])}" fill="none" stroke="{FRAME_STROKE}"/>'
    )
    label = _describe(obj)
    out.append(
        f'<text x="{_fmt(pad)}" y="{_fmt(pad - 8)}" font-family="monospace" '
        f'font-size="12">{label}</text>'
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _describe(obj: SpecLike) -> str:
    if isinstance(obj, AffineHemispace):
        zero = "contains zero" if obj.contains_zero else "avoids zero"
        return (
            f"affine hemispace ({obj.base.model.value}), I={sorted(obj.base.I)}, "
            f"J={sorted(obj.base.J)}, {zero}"
        )
    return f"conical hemispace ({obj.model.value}), I={sorted(obj.I)}, J={sorted(obj.J)}"
