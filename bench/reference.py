"""The benchmark's own arithmetic: input generators and independent answers.

Nothing here imports tropconv.  Scalars are plain values: a `Fraction`
is a finite element, `None` is Bottom (the additive unit, "zero") and
the string "inf" is Top, which appears only as a boundary threshold.
A vector is a tuple of `Fraction | None`.  A spec is a `Doc`: the same
fields as a spec file, with sigma as a dict (i, j) -> (threshold, closed).

Every answer the benchmark checks the program against comes from this
file: residuation against finite generators, membership read straight
off the boundary thresholds, the class/gauge/nesting laws, complements,
and the exact plane geometry of the planar catalog.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

MAX_TIMES = "max-times"
MAX_PLUS = "max-plus"
MODELS = (MAX_TIMES, MAX_PLUS)
TOP = "inf"

# Gauge factors: every finite threshold beta_i / gamma_j lies in THRESHOLDS.
GAUGE = {MAX_TIMES: (Fraction(1), Fraction(2)), MAX_PLUS: (Fraction(0), Fraction(1))}
THRESHOLDS = {
    MAX_TIMES: (Fraction(1, 2), Fraction(1), Fraction(2)),
    MAX_PLUS: (Fraction(-1), Fraction(0), Fraction(1)),
}
# Fixed scaling ladders (closure scalars and p + lam*r probes).
LADDER = {
    MAX_TIMES: tuple(Fraction(p) for p in ("1/4", "1/2", "1", "2", "4")),
    MAX_PLUS: tuple(Fraction(p) for p in ("-2", "-1", "0", "1", "2")),
}


def one(model: str) -> Fraction:
    return Fraction(0) if model == MAX_PLUS else Fraction(1)


def mul(model: str, a, b):
    if a is None or b is None:
        return None
    return a + b if model == MAX_PLUS else a * b


def div(model: str, a, b):
    """a / b for finite b."""
    if a is None:
        return None
    return a - b if model == MAX_PLUS else a / b


def inv(model: str, t):
    """Inverse extended by inv(zero) = inf and inv(inf) = zero."""
    if t is None:
        return TOP
    if t == TOP:
        return None
    return -t if model == MAX_PLUS else 1 / t


def less(a, b) -> bool:
    """Strict order on finite-or-zero values: zero below every finite."""
    if a is None:
        return b is not None
    return b is not None and a < b


def tmax(a, b):
    return b if less(a, b) else a


def token(t) -> str:
    if t is None:
        return "zero"
    return t if t == TOP else str(t)


def untoken(text: str):
    if text == "zero":
        return None
    return TOP if text == "inf" else Fraction(text)


def in_downset(lam, threshold, closed: bool) -> bool:
    """lam (finite or zero) in {l <= threshold} / {l < threshold}."""
    if lam is None:
        return True  # zero lies in every non-empty down-set
    if threshold == TOP:
        return True
    if threshold is None:
        return False
    return lam <= threshold if closed else lam < threshold


# ----------------------------------------------------------------------
# Specs.


@dataclass
class Doc:
    model: str
    n: int  # dimension of the (base) spec
    I: tuple
    J: tuple
    sigma: dict  # (i, j) -> (threshold, closed)
    affine: bool = False
    contains_zero: Optional[bool] = None

    def text(self, rng=None) -> str:
        """Spec-file text; with an rng the entry order is shuffled."""
        entries = [
            {"i": i, "j": j, "threshold": token(t), "closed": c}
            for (i, j), (t, c) in sorted(self.sigma.items())
        ]
        if rng is not None:
            rng.shuffle(entries)
        doc = {"model": self.model, "n": self.n - 1 if self.affine else self.n}
        if self.affine:
            doc["affine"] = True
            doc["contains_zero"] = self.contains_zero
        doc.update({"I": sorted(self.I), "J": sorted(self.J), "sigma": entries})
        return json.dumps(doc, separators=(",", ":"))

    def is_closed(self) -> bool:
        return all(c and t != TOP for t, c in self.sigma.values())


def doc_from_json(payload: dict) -> Doc:
    affine = bool(payload.get("affine", False))
    n = payload["n"] + (1 if affine else 0)
    sigma = {(e["i"], e["j"]): (untoken(e["threshold"]), e["closed"]) for e in payload["sigma"]}
    return Doc(payload["model"], n, tuple(sorted(payload["I"])), tuple(sorted(payload["J"])),
               sigma, affine, payload.get("contains_zero") if affine else None)


def complement_doc(d: Doc) -> Doc:
    """Roles of I and J swap, thresholds invert, strictness flips."""
    sigma = {}
    for (i, j), (t, c) in d.sigma.items():
        u = inv(d.model, t)
        sigma[(j, i)] = (u, u is None or (not c and u != TOP))
    return Doc(d.model, d.n, d.J, d.I, sigma)


def random_doc(rng, model: str, n: int, n_rows: Optional[int] = None,
               closed: bool = False, force_row: Optional[int] = None) -> Doc:
    """A valid spec drawn from the class, gauge and nesting laws.

    Rows fall into ordered classes; each class has Top columns K, zero
    columns L and finite columns J_r.  Finite column sets of different
    classes are disjoint and each later class lives inside the previous
    Top set (the descending chain).  Within a class every finite entry is
    beta_i / gamma_j, and the open entries of its rows form nested sets.
    """
    coords = list(range(1, n + 1))
    while True:
        if n_rows is None:
            I = {i for i in coords if rng.random() < 0.5}
        else:
            I = set(rng.sample(coords, n_rows))
        if force_row is not None:
            I.add(force_row)
        if I and len(I) < n:
            break
    J = sorted(set(coords) - I)
    rows = sorted(I)
    rng.shuffle(rows)
    p = rng.randint(1, min(len(rows), 3))
    cuts = sorted(rng.sample(range(1, len(rows)), p - 1)) if p > 1 else []
    groups = [rows[a:b] for a, b in zip([0] + cuts, cuts + [len(rows)])]

    classes: list = []
    K_prev: set = set()
    J_prev: list = []
    for r, members in enumerate(groups):
        if r > 0 and not K_prev and not J_prev:
            classes[-1][0].extend(members)  # nothing left to order against
            continue
        universe = set(J) if r == 0 else set(K_prev)
        K: set = set()
        if not closed:
            for _ in range(16):
                K = {j for j in sorted(universe) if rng.random() < 0.4}
                if r == 0 or K < K_prev or J_prev:
                    break
            else:
                K = set(sorted(K_prev)[1:])
        elif r > 0 and not J_prev:
            classes[-1][0].extend(members)
            continue
        J_r = [j for j in sorted(universe - K) if rng.random() < 0.7]
        L = set(J) - K - set(J_r)
        classes.append((list(members), K, J_r, L))
        K_prev, J_prev = K, J_r

    gauge = GAUGE[model]
    sigma = {}
    for members, K, J_r, L in classes:
        order = J_r[:]
        rng.shuffle(order)
        gamma = {j: rng.choice(gauge) for j in J_r}
        for i in members:
            beta = rng.choice(gauge)
            cut = 0 if closed or not order else rng.randint(0, len(order))
            strict = set(order[len(order) - cut:]) if cut else set()
            for j in J_r:
                sigma[(i, j)] = (div(model, beta, gamma[j]), j not in strict)
            for j in K:
                sigma[(i, j)] = (TOP, False)
            for j in L:
                sigma[(i, j)] = (None, True)
    return Doc(model, n, tuple(sorted(I)), tuple(J), sigma)


def plant_violation(rng, d: Doc) -> Doc:
    """Overwrite a 2x2 block with finite closed entries breaking rank one."""
    i1, i2 = rng.sample(d.I, 2)
    j1, j2 = rng.sample(d.J, 2)
    pool = THRESHOLDS[d.model]
    while True:
        s11, s12, s21, s22 = (rng.choice(pool) for _ in range(4))
        if mul(d.model, s11, s22) != mul(d.model, s12, s21):
            break
    sigma = dict(d.sigma)
    sigma.update({(i1, j1): (s11, True), (i1, j2): (s12, True),
                  (i2, j1): (s21, True), (i2, j2): (s22, True)})
    return Doc(d.model, d.n, d.I, d.J, sigma)


def random_vector(rng, values, n: int, nonzero: bool = False) -> tuple:
    while True:
        v = tuple(rng.choice(values) for _ in range(n))
        if not nonzero or any(c is not None for c in v):
            return v


# ----------------------------------------------------------------------
# Membership, computed apart from the program.


def residuate(model: str, x: tuple, gens) -> bool:
    """x in the cone of finitely many generators (principal solution)."""
    combo = [None] * len(x)
    for g in gens:
        supp = [k for k, c in enumerate(g) if c is not None]
        if not supp or any(x[k] is None for k in supp):
            continue
        lam = None
        for k in supp:
            r = div(model, x[k], g[k])
            lam = r if lam is None or r < lam else lam
        for k in supp:
            combo[k] = tmax(combo[k], mul(model, lam, g[k]))
    return tuple(combo) == tuple(x)


def pr_member(model: str, x: tuple, P, R) -> bool:
    """x in conv(P) + cone(R), lifted to a cone one dimension up."""
    gens = [p + (one(model),) for p in P] + [r + (None,) for r in R]
    return residuate(model, x + (one(model),), gens)


def closed_generators(d: Doc) -> list:
    """{e_i : i in I} and {e_i + sigma_ij e_j} of a closed spec."""
    gens = []
    for i in d.I:
        gens.append(tuple(one(d.model) if k == i else None for k in range(1, d.n + 1)))
    for (i, j), (t, _c) in d.sigma.items():
        if t is not None:
            gens.append(tuple(one(d.model) if k == i else t if k == j else None
                              for k in range(1, d.n + 1)))
    return gens


def threshold_member(d: Doc, x: tuple) -> bool:
    """Membership in the cone generated by e_i and e_i + lam*e_j, lam in sigma_ij.

    Read straight off the thresholds: a nonzero x is a member iff it has
    support on I and every nonzero x_j (j in J) is reached by some row i
    with x_i nonzero and x_j / x_i in sigma_ij.
    """
    if all(c is None for c in x):
        return True
    rows = [i for i in d.I if x[i - 1] is not None]
    if not rows:
        return False
    for j in d.J:
        xj = x[j - 1]
        if xj is None:
            continue
        if not any(in_downset(div(d.model, xj, x[i - 1]), *d.sigma[(i, j)]) for i in rows):
            return False
    return True


def sector_member(model: str, y: tuple, i: Optional[int], x: tuple,
                  quasi: bool = False, strict: bool = False) -> bool:
    """x in the (quasi)sector of type i at y; i None is the extra type n+1.

    With m = max over supp(y) of x_j / y_j: a quasisector asks
    m <= x_i / y_i, a sector max(m, 1) <= x_i / y_i, the extra type m <= 1,
    and all of them supp(x) in supp(y).  strict=True puts '<' in place of
    '<=', the deliberately wrong predicate of the negative control.
    """
    if any(c is not None and y[k] is None for k, c in enumerate(x)):
        return False
    top = None
    for k, c in enumerate(y):
        if c is not None:
            top = tmax(top, div(model, x[k], c))
    if i is None:
        lhs, rhs = top, one(model)
    else:
        lhs = top if quasi else tmax(top, one(model))
        rhs = div(model, x[i - 1], y[i - 1])
    return less(lhs, rhs) if strict else not less(rhs, lhs)


# ----------------------------------------------------------------------
# Structure laws, checked against the program's thin structure.


def row_kinds(d: Doc, i: int):
    """(open, closed, zero, Top) column sets of row i."""
    lt, le, zero, top = set(), set(), set(), set()
    for j in d.J:
        t, c = d.sigma[(i, j)]
        (top if t == TOP else zero if t is None else le if c else lt).add(j)
    return lt, le, zero, top


def thin_law_errors(d: Doc, classes, beta: dict, gamma: dict) -> list:
    """C4 laws of a thin structure given as plain data.

    classes: [(I_elems, J_elems, K, L)] in class order; beta / gamma map
    indices to finite values.
    """
    errors = []
    kinds = {i: row_kinds(d, i) for i in d.I}
    seen_rows: list = []
    seen_cols: set = set()
    for rows, cols, K, L in classes:
        seen_rows.extend(rows)
        if set(cols) & seen_cols:
            errors.append(f"finite columns {sorted(set(cols) & seen_cols)} in two classes")
        seen_cols |= set(cols)
        if set(cols) | set(K) | set(L) != set(d.J):
            errors.append(f"class {rows}: J_r, K, L do not partition J")
        for i in rows:
            lt, le, zero, top = kinds[i]
            if top != set(K) or zero != set(L) or lt | le != set(cols):
                errors.append(f"row {i} disagrees with its class")
        chain = sorted((kinds[i][0] for i in rows), key=len)
        if any(not a <= b for a, b in zip(chain, chain[1:])):
            errors.append(f"class {rows}: strict parts are not nested")
    if sorted(seen_rows) != sorted(d.I):
        errors.append("classes do not partition I")
    for (_, _, pK, _), (_, cc, cK, _) in zip(classes, classes[1:]):
        if not set(cc) | set(cK) <= set(pK):
            errors.append("descending chain law fails")
    for (i, j), (t, _c) in d.sigma.items():
        if t is not None and t != TOP:
            if i not in beta or j not in gamma or div(d.model, beta[i], gamma[j]) != t:
                errors.append(f"gauge factors miss the entry ({i},{j}) = {t}")
    return errors


# ----------------------------------------------------------------------
# The planar catalog and its exact pictures.

CATALOG_THRESHOLDS = [(Fraction(1, 2), True), (Fraction(1, 2), False), (Fraction(1), True),
                      (Fraction(1), False), (Fraction(2), True), (Fraction(2), False)]


def planar_catalog() -> list:
    """The 108 max-times affine families over two coordinates."""
    out = []
    layouts = ([3], [(3, 1), (3, 2)]), ([1, 3], [(1, 2), (3, 2)]), ([2, 3], [(2, 1), (3, 1)])
    for I, keys in layouts:
        J = tuple(sorted({1, 2, 3} - set(I)))
        for a in CATALOG_THRESHOLDS:
            for b in CATALOG_THRESHOLDS:
                out.append(Doc(MAX_TIMES, 3, tuple(I), J, {keys[0]: a, keys[1]: b},
                               affine=True, contains_zero=True))
    return out


WINDOW = Fraction(4)


def _wedge(t: Fraction) -> set:
    pts = {(Fraction(0), Fraction(0)), (WINDOW, Fraction(0))}
    if t * WINDOW <= WINDOW:
        pts.add((WINDOW, t * WINDOW))
    else:
        pts |= {(WINDOW, WINDOW), (WINDOW / t, WINDOW)}
    return pts


def planar_picture(d: Doc):
    """Expected shaded polygons and boundary edges of a catalog family.

    Returns (polygons, edges): polygons as vertex sets in drawing order,
    edges as {(endpoint pair, solid)}; world coordinates in the default
    4 x 4 window.  A box family draws one polygon; the other layouts draw
    a strip under the constant threshold and a wedge under the scaled one.
    """
    zero = Fraction(0)
    if d.I == (3,):
        (t1, c1), (t2, c2) = d.sigma[(3, 1)], d.sigma[(3, 2)]
        box = {(zero, zero), (t1, zero), (t1, t2), (zero, t2)}
        edges = {(frozenset({(t1, zero), (t1, t2)}), c1),
                 (frozenset({(zero, t2), (t1, t2)}), c2)}
        return [box], edges
    col = d.J[0]
    row = d.I[0]
    (c, cc), (t, tc) = d.sigma[(3, col)], d.sigma[(row, col)]
    strip = {(zero, zero), (WINDOW, zero), (WINDOW, c), (zero, c)}
    cross = min(WINDOW, c / t)
    a2 = min(WINDOW, WINDOW / t)
    edges = {(frozenset({(zero, c), (cross, c)}), cc)}
    if cross < a2:
        edges.add((frozenset({(cross, t * cross), (a2, t * a2)}), tc))
    polys = [strip, _wedge(t)]
    if d.I == (2, 3):  # transposed layout
        polys = [{(b, a) for a, b in p} for p in polys]
        edges = {(frozenset((b, a) for a, b in seg), s) for seg, s in edges}
    return polys, edges
