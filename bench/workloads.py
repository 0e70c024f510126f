"""The four workloads: seeded inputs, one operation, and its checks.

A workload has three parts.  `inputs(seed, workdir)` is the set-up: it
makes plain data only (spec texts, vectors, decompositions, grid values,
files), so no program work hides in set-up.  `run(item)` is one timed
operation; it turns the plain inputs into program objects and calls the
public API.  `check(item, out)` runs between operations, outside the
timed interval, and returns a list of errors found by comparing the
outputs with the independent answers of `reference`.

Program functions are always looked up as module attributes
(`hemispace.conical_member`), so that traced runs see the wrappers.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import re
from dataclasses import dataclass
from typing import Any

from tropconv import cli, hemispace, sectors, semiring, specio, tlinalg, verify

import reference as ref

# Grid axes: zero plus the threshold pool.  Membership depends on ratios
# of coordinates, and the ratios of these values lie below, at and above
# every threshold, so each boundary is exercised from both sides and on it.
GRID_VALUES = {m: (None,) + ref.THRESHOLDS[m] for m in ref.MODELS}
SEGMENT_PAIRS = 40
SEGMENT_POINTS = 5


@dataclass
class Item:
    kind: str
    model: str
    n: int  # ambient dimension of the grid, or of the spec
    data: Any
    points: int = 0  # grid points the operation visits


# ----------------------------------------------------------------------
# Plain data <-> program objects.


def model_of(model: str):
    return semiring.Model(model)


def to_scalar(model: str, v):
    m = model_of(model)
    return semiring.TScalar.bottom(m) if v is None else semiring.TScalar.finite(m, v)


def to_vec(model: str, x: tuple):
    return tlinalg.TVec(model_of(model), tuple(to_scalar(model, v) for v in x))


def plain(s):
    return None if s.is_bottom else ref.TOP if s.is_top else s.payload


def plain_vec(x) -> tuple:
    return tuple(plain(c) for c in x.coords)


def to_grid(model: str, n: int):
    return verify.GridSpec(model_of(model), n,
                           tuple(to_scalar(model, v) for v in GRID_VALUES[model]))


def grid_points(model: str, n: int) -> list:
    """Plain grid points, in the order `GridSpec.points` yields them."""
    return list(itertools.product(GRID_VALUES[model], repeat=n))


def interleave(strata: list) -> list:
    """Round-robin over strata, so any prefix holds every stratum in proportion."""
    out = []
    for k in range(max(len(s) for s in strata)):
        out.extend(s[k] for s in strata if k < len(s))
    return out


def answer_errors(label: str, points, got, want) -> list:
    return [f"{label}: x={p} program={g} reference={w}"
            for p, g, w in zip(points, got, want) if g != w][:3]


# ----------------------------------------------------------------------
# grid-oracles: spec build, then partition, closure, segments and sector
# union on the spec's threshold grid.

GRID_CONICAL = {2: 6, 3: 6, 4: 4}  # specs per (n, model, closed?) stratum
GRID_AFFINE = {1: 4, 2: 4, 3: 2}  # pairs per (ambient n, model, side) stratum


def grid_round(rng, _files, _r) -> list:
    strata = []
    for n, count in GRID_CONICAL.items():
        for model in ref.MODELS:
            for closed in (True, False):
                docs = [ref.random_doc(rng, model, n, closed=closed) for _ in range(count)]
                strata.append([Item("conical", model, n, (d, d.text(rng), rng.randrange(1 << 30)),
                                    len(GRID_VALUES[model]) ** n) for d in docs])
    for amb, count in GRID_AFFINE.items():
        for model in ref.MODELS:
            for side in (True, False):
                items = []
                for _ in range(count):
                    d = ref.random_doc(rng, model, amb + 1, force_row=amb + 1)
                    d.affine, d.contains_zero = True, side
                    items.append(Item("affine", model, amb, (d, d.text(rng), rng.randrange(1 << 30)),
                                      len(GRID_VALUES[model]) ** amb))
                strata.append(items)
    return interleave(strata)


def grid_run(item: Item):
    doc, text, seed = item.data
    obj = specio.parse_spec_text(text)
    grid = to_grid(item.model, item.n)
    if item.kind == "conical":
        comp = hemispace.complement_spec(obj)
        scalars = [to_scalar(item.model, v) for v in ref.LADDER[item.model]]
        return obj, [
            verify.partition_check(obj, grid),
            verify.closure_check(lambda x: hemispace.conical_member(obj, x), grid, None, scalars),
            verify.closure_check(lambda x: hemispace.conical_member(comp, x), grid, None, scalars,
                                 name="closure-complement"),
            verify.sector_union_check(obj, grid),
        ]
    other = hemispace.affine_complement(obj)
    return obj, [
        verify.affine_partition_check(obj, grid),
        verify.segment_convexity_check(lambda x: hemispace.affine_member(obj, x), grid,
                                       SEGMENT_PAIRS, SEGMENT_POINTS, seed),
        verify.segment_convexity_check(lambda x: hemispace.affine_member(other, x), grid,
                                       SEGMENT_PAIRS, SEGMENT_POINTS, seed,
                                       name="segment-convexity-complement"),
        verify.sector_union_check(obj, grid),
    ]


def spec_reference(doc: ref.Doc):
    """Reference membership: residuation against the finite generators for
    closed specs, the thresholds read directly otherwise."""
    if doc.is_closed():
        gens = ref.closed_generators(doc)
        return lambda x: ref.residuate(doc.model, x, gens)
    return lambda x: ref.threshold_member(doc, x)


def grid_check(item: Item, out) -> list:
    doc, _text, _seed = item.data
    obj, verdicts = out
    errors = [f"{v.name} failed: {v.counterexample}" for v in verdicts if not v.passed]
    for v in verdicts:
        # Conical sector union skips the zero vector, which has no sector.
        least = item.points - (v.name == "sector-union" and item.kind == "conical")
        if v.cases < least:
            errors.append(f"{v.name}: {v.cases} cases, fewer than {least} grid points")
    points = grid_points(item.model, item.n)
    if item.kind == "conical":
        comp = hemispace.complement_spec(obj)
        vecs = [to_vec(item.model, p) for p in points]
        errors += membership_errors(doc, points, [hemispace.conical_member(obj, x) for x in vecs])
        cdoc = ref.complement_doc(doc)
        errors += answer_errors("complement side", points,
                                [hemispace.conical_member(comp, x) for x in vecs],
                                [ref.threshold_member(cdoc, p) for p in points])
        return errors
    return errors + affine_errors(doc, obj, points)


def membership_errors(doc: ref.Doc, points, answers) -> list:
    member = spec_reference(doc)
    return answer_errors("conical_member", points, answers, [member(p) for p in points])


def affine_errors(doc: ref.Doc, h, points) -> list:
    """Both sides of an affine pair decided structurally at the lifted point.

    The zero side is the base cone, the other side the cone of
    complement_spec(base); they must split every point, and affine_member
    must agree with the side the object denotes.
    """
    one = (ref.one(doc.model),)
    comp = hemispace.complement_spec(h.base)
    member = spec_reference(doc)
    errors = []
    for p in points:
        lifted = to_vec(doc.model, p + one)
        zero_side = hemispace.conical_member(h.base, lifted)
        other_side = hemispace.conical_member(comp, lifted)
        claimed = hemispace.affine_member(h, to_vec(doc.model, p))
        if zero_side == other_side:
            errors.append(f"x={p}: structural sides overlap or miss ({zero_side})")
        if claimed != (zero_side if doc.contains_zero else other_side):
            errors.append(f"x={p}: affine_member={claimed} against the structural side")
        if zero_side != member(p + one):
            errors.append(f"x={p}: base cone={zero_side} against the reference")
    return errors[:3]


# ----------------------------------------------------------------------
# residuation: (P, R)-decompositions, quasisectors and sectors on their
# full grids.

RESIDUATION_PLAN = {2: 4, 3: 4, 4: 4}  # objects per (n, model, kind) stratum
MULTIORDER_PER_MODEL = 4  # n = 2 decompositions per model


def random_pr(rng, model: str, n: int) -> tuple:
    values = GRID_VALUES[model]
    P = [ref.random_vector(rng, values, n) for _ in range(2)]
    R = [ref.random_vector(rng, values, n, nonzero=True) for _ in range(2)]
    return P, R


def residuation_round(rng, _files, _r) -> list:
    strata = []
    for n, count in RESIDUATION_PLAN.items():
        for model in ref.MODELS:
            values = GRID_VALUES[model]
            size = len(values) ** n
            strata.append([Item("pr", model, n, random_pr(rng, model, n), size)
                           for _ in range(count)])
            for kind in ("quasi", "sector", "extra-sector"):
                items = []
                for _ in range(count):
                    y = ref.random_vector(rng, values, n, nonzero=True)
                    i = None if kind == "extra-sector" else rng.choice(
                        [k + 1 for k, c in enumerate(y) if c is not None])
                    items.append(Item(kind, model, n, (y, i), size))
                strata.append(items)
    for model in ref.MODELS:
        strata.append([Item("multiorder", model, 2, random_pr(rng, model, 2),
                            len(GRID_VALUES[model]) ** 2) for _ in range(MULTIORDER_PER_MODEL)])
    return interleave(strata)


def residuation_run(item: Item):
    grid = to_grid(item.model, item.n)
    m = model_of(item.model)
    if item.kind in ("pr", "multiorder"):
        P, R = item.data
        d = tlinalg.PRDecomposition.of(m, item.n, [to_vec(item.model, p) for p in P],
                                       [to_vec(item.model, r) for r in R])
        if item.kind == "multiorder":
            return d, verify.multiorder_invariant_check(d, grid)
        back = tlinalg.section_unity(tlinalg.homogenize(d))
        got, again = [], []
        for x in grid.points():
            got.append(tlinalg.pr_member(x, d))
            again.append(tlinalg.pr_member(x, back))
        return d, got, again
    y, i = item.data
    base = to_vec(item.model, y)
    if item.kind == "quasi":
        sid = sectors.SectorId.of_support(base, i)
        gens = sectors.quasisector_gens(sid)
        return sid, [tlinalg.cone_member_fg(x, gens).member for x in grid.points()], \
            [sectors.quasisector_contains(sid, x) for x in grid.points()]
    sid = sectors.SectorId.affine(base) if i is None else sectors.SectorId.of_support(base, i)
    d = sectors.sector_pr(sid)
    return d, [tlinalg.pr_member(x, d) for x in grid.points()], \
        [sectors.sector_contains(sid, x) for x in grid.points()]


def residuation_check(item: Item, out) -> list:
    points = grid_points(item.model, item.n)
    if item.kind == "multiorder":
        v = out[1]
        errors = [] if v.passed else [f"multiorder failed: {v.counterexample}"]
        if v.cases < item.points:
            errors.append(f"multiorder: {v.cases} cases on a {item.points}-point grid")
        return errors
    if item.kind == "pr":
        d, got, again = out
        P, R = item.data
        errors = answer_errors("round trip", points, again, got)
        errors += answer_errors("pr_member", points, got,
                                [ref.pr_member(item.model, p, P, R) for p in points])
        return errors + hull_errors(item.model, d)
    obj, by_gens, by_predicate = out
    errors = sector_errors(item, points, by_gens, by_predicate)
    if item.kind != "quasi":
        errors += hull_errors(item.model, obj)
    return errors


def sector_errors(item: Item, points, by_gens, by_predicate) -> list:
    """The generator form and the predicate agree, and match the reference."""
    y, i = item.data
    want = [ref.sector_member(item.model, y, i, p, quasi=item.kind == "quasi") for p in points]
    return (answer_errors("generators vs predicate", points, by_gens, by_predicate)
            + answer_errors("predicate", points, by_predicate, want))


def hull_errors(model: str, d) -> list:
    """Every P point, and every p + lam*r on the fixed ladder, is a member."""
    P = sorted((plain_vec(p) for p in d.P), key=repr)
    R = sorted((plain_vec(r) for r in d.R), key=repr)
    probes = list(P)
    for p in P:
        for r in R:
            for lam in ref.LADDER[model]:
                probes.append(tuple(ref.tmax(a, ref.mul(model, lam, b)) for a, b in zip(p, r)))
    return [f"{x} is not a member of its own decomposition"
            for x in probes if not tlinalg.pr_member(to_vec(model, x), d)][:3]


# ----------------------------------------------------------------------
# spec-build: parse, validate, thin structure, complement, canonical text.

# (n, |I|) per size step: balanced up to n = 16, then four rows, so that
# the largest specs grow in n without the rank-one loop growing as n^4.
SPEC_SIZES = ((4, 2), (6, 3), (8, 4), (10, 5), (12, 6), (14, 7), (16, 8),
              (20, 4), (24, 4), (28, 4), (32, 4))


SPEC_COPIES = 3  # draws per (size, kind, model) in one round


def spec_round(rng, _files, _r) -> list:
    strata = []
    for model in ref.MODELS:
        for kind in ("valid", "violated"):
            items = []
            for _ in range(SPEC_COPIES):
                for n, rows in SPEC_SIZES:
                    d = ref.random_doc(rng, model, n, n_rows=rows)
                    if kind == "violated":
                        d = ref.plant_violation(rng, d)
                    items.append(Item(kind, model, n, (d, d.text(rng))))
            strata.append(items)
    return interleave(strata)


def spec_run(item: Item):
    _doc, text = item.data
    if item.kind == "valid":
        spec = specio.parse_spec_text(text)
        comp = hemispace.complement_spec(spec)
        first = specio.canonical_text(spec)
        second = specio.canonical_text(specio.parse_spec_text(first))
        return spec, comp, first, second
    raw, _affine, _contains_zero = specio.parse_spec_text_raw(text)
    violation = hemispace.rank_one_check(raw)
    if violation is None:
        return None, None
    return violation, verify.violation_witness_detail(raw, violation)


def spec_check(item: Item, out) -> list:
    doc = item.data[0]
    if item.kind == "valid":
        return valid_spec_errors(doc, *out)
    violation, detail = out
    if violation is None:
        return ["a violated spec was accepted"]
    return witness_errors(doc, detail)


def valid_spec_errors(doc: ref.Doc, spec, comp, first, second) -> list:
    ts = spec.thin
    classes = [(c.I_elems, c.J_elems, c.K, c.L) for c in ts.classes]
    errors = ref.thin_law_errors(doc, classes, {i: plain(b) for i, b in ts.beta.items()},
                                 {j: plain(g) for j, g in ts.gamma.items()})
    cdoc = ref.complement_doc(doc)
    got = {k: (plain(b.threshold), b.closed) for k, b in comp.sigma.items()}
    if (tuple(sorted(comp.I)), tuple(sorted(comp.J)), got) != (cdoc.I, cdoc.J, cdoc.sigma):
        errors.append("complement differs from the inverted, flipped entries")
    if specio.canonical_text(hemispace.complement_spec(comp)) != first:
        errors.append("complement of the complement differs from the spec")
    if first != second:
        errors.append("canonical text round trip is not byte-identical")
    back = ref.doc_from_json(json.loads(first))
    if (back.model, back.n, back.I, back.J, back.sigma) != (doc.model, doc.n, doc.I, doc.J,
                                                           doc.sigma):
        errors.append("canonical text does not hold the spec")
    return errors


def witness_errors(doc: ref.Doc, detail) -> list:
    """z is nonzero and lies in cone(inside) and cone(outside), where the
    inside generators e_i + lam*e_j take lam in sigma_ij, the outside ones
    lam outside it, and the four (i, j) form one 2x2 block."""
    z = plain_vec(detail.z)
    errors = [] if any(c is not None for c in z) else ["witness z is zero"]
    cells = {}
    for side, gens in (("inside", detail.inside_gens), ("outside", detail.outside_gens)):
        plain_gens = [plain_vec(g) for g in gens]
        for g in plain_gens:
            supp = [k + 1 for k, c in enumerate(g) if c is not None]
            rows = [k for k in supp if k in doc.I and g[k - 1] == ref.one(doc.model)]
            cols = [k for k in supp if k in doc.J]
            if len(supp) != 2 or len(rows) != 1 or len(cols) != 1:
                errors.append(f"{side} generator {g} is not e_i + lam*e_j")
                continue
            (i,), (j,) = rows, cols
            if ref.in_downset(g[j - 1], *doc.sigma[(i, j)]) != (side == "inside"):
                errors.append(f"{side} generator {g} has lam on the wrong side of sigma_{i}{j}")
            cells[(i, j)] = side
        if not ref.residuate(doc.model, z, plain_gens):
            errors.append(f"z={z} is not in the {side} cone")
    rows = sorted({i for i, _ in cells})
    cols = sorted({j for _, j in cells})
    if len(cells) != 4 or len(rows) != 2 or len(cols) != 2:
        errors.append("witness generators do not form a 2x2 block")
    elif cells[(rows[0], cols[0])] != cells[(rows[1], cols[1])] or \
            cells[(rows[0], cols[0])] == cells[(rows[0], cols[1])]:
        errors.append("inside and outside generators are not the two diagonals")
    return errors


# ----------------------------------------------------------------------
# cli-planar: in-process `tropconv` commands on the planar catalog and the
# shipped spec files.

CLI_VALUES = {m: (None,) + ref.LADDER[m] for m in ref.MODELS}


def vector_text(x: tuple) -> str:
    return "[" + ", ".join(ref.token(c) for c in x) + "]"


def cli_files(workdir: str) -> list:
    """Write the catalog families and the shipped specs/*.json into workdir."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    texts = [(f"family_{k:03d}.json", d.text()) for k, d in enumerate(ref.planar_catalog())]
    spec_dir = os.path.join(root, "specs")
    for name in sorted(os.listdir(spec_dir)):
        with open(os.path.join(spec_dir, name), encoding="utf-8") as fh:
            texts.append((name, fh.read()))
    os.makedirs(os.path.join(workdir, "svg"), exist_ok=True)
    files = []
    for name, text in texts:
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        files.append((path, ref.doc_from_json(json.loads(text))))
    return files


def cli_round(rng, files, _r) -> list:
    items = []
    for path, doc in files:
        amb = doc.n - 1 if doc.affine else doc.n
        values = CLI_VALUES[doc.model]
        x1 = ref.random_vector(rng, values, amb)
        x2 = ref.random_vector(rng, values, amb)
        argvs = [["check", path], ["thin", path], ["halfspace", path],
                 ["member", path, vector_text(x1), "--explain"],
                 ["member", path, vector_text(x2), "--complement"],
                 ["complement", path]]
        if amb == 2:
            svg = os.path.join(os.path.dirname(path), "svg",
                               os.path.basename(path).replace(".json", ".svg"))
            argvs.append(["render2d", path, svg])
        items.extend(Item(argv[0], doc.model, amb, (doc, argv, (x1, x2))) for argv in argvs)
    return items


def cli_run(item: Item):
    _doc, argv, _vectors = item.data
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class CliChecker:
    """Checks of one run; remembers each file's first render."""

    def __init__(self):
        self.renders: dict = {}

    def __call__(self, item: Item, out) -> list:
        doc, argv, vectors = item.data
        code, stdout, stderr = out
        cmd = argv[0]
        if cmd == "check":
            return [] if (code, stdout) == (0, "OK\n") else [f"check: exit {code}, {stdout!r}"]
        if cmd == "thin":
            return thin_output_errors(doc, code, stdout)
        if cmd == "halfspace":
            want = 0 if doc.is_closed() else 1
            if code != want or (code == 0 and "<=" not in stdout):
                return [f"halfspace: exit {code}, expected {want}: {stdout!r} {stderr!r}"]
            return []
        if cmd == "member":
            return member_output_errors(doc, argv, vectors, code, stdout)
        if cmd == "complement":
            return complement_output_errors(doc, code, stdout)
        return self.render_errors(doc, argv, code)

    def render_errors(self, doc: ref.Doc, argv, code) -> list:
        if code != 0:
            return [f"render2d: exit {code}"]
        with open(argv[2], encoding="utf-8") as fh:
            svg = fh.read()
        first = self.renders.setdefault(argv[1], svg)
        errors = [] if first == svg else [f"{argv[1]}: two renders differ"]
        if doc.affine and doc.model == ref.MAX_TIMES:
            errors += svg_layout_errors(doc, svg)
        return errors


def expected_member(doc: ref.Doc, x: tuple, complement: bool) -> bool:
    if doc.affine:
        # The base cone is the zero side; the object is the other side
        # when it avoids zero.
        base = ref.threshold_member(doc, x + (ref.one(doc.model),))
        inside = base == doc.contains_zero
        return not inside if complement else inside
    return ref.threshold_member(ref.complement_doc(doc) if complement else doc, x)


def member_output_errors(doc, argv, vectors, code, stdout) -> list:
    complement = "--complement" in argv
    x = vectors[1] if complement else vectors[0]
    want = expected_member(doc, x, complement)
    lines = stdout.splitlines()
    if not lines or lines[0] != ("IN" if want else "OUT") or code != (0 if want else 1):
        return [f"member {argv[2]} {'--complement' if complement else ''}: exit {code}, "
                f"{stdout!r}, expected {'IN' if want else 'OUT'}"]
    if "--explain" in argv and not any(line.strip().startswith("reason:") for line in lines):
        return ["member --explain printed no reason"]
    return []


def thin_output_errors(doc: ref.Doc, code, stdout) -> list:
    """Every finite entry equals beta_i / gamma_j as printed."""
    if code != 0:
        return [f"thin: exit {code}"]
    beta = {int(i): ref.untoken(v) for i, v in re.findall(r"^row (\d+): .* beta=(\S+)$",
                                                          stdout, re.M)}
    gamma = {int(j): ref.untoken(v) for j, v in re.findall(r"^col (\d+): gamma=(\S+)$",
                                                           stdout, re.M)}
    errors = [] if set(beta) == set(doc.I) else ["thin: rows missing from the output"]
    for (i, j), (t, _c) in sorted(doc.sigma.items()):
        if t is not None and t != ref.TOP and (
                i not in beta or j not in gamma or ref.div(doc.model, beta[i], gamma[j]) != t):
            errors.append(f"thin: gauge misses entry ({i},{j})")
    return errors


def complement_output_errors(doc: ref.Doc, code, stdout) -> list:
    if code != 0:
        return [f"complement: exit {code}"]
    got = ref.doc_from_json(json.loads(stdout))
    if doc.affine:
        want = ref.Doc(doc.model, doc.n, doc.I, doc.J, doc.sigma, True, not doc.contains_zero)
    else:
        want = ref.complement_doc(doc)
    fields = lambda d: (d.model, d.n, d.I, d.J, d.sigma, d.affine, d.contains_zero)
    return [] if fields(got) == fields(want) else ["complement output differs from expected"]


# The default render: 4 x 4 window, 64 pixels per unit, 24 pixels padding.
_PAD, _RES, _SIDE = 24, 64, 4


def _world(px: str, py: str) -> tuple:
    return (round((float(px) - _PAD) / _RES, 3), round((_SIDE * _RES + _PAD - float(py)) / _RES, 3))


def _rounded(pt) -> tuple:
    return (round(float(pt[0]), 3), round(float(pt[1]), 3))


def svg_layout_errors(doc: ref.Doc, svg: str) -> list:
    """The shaded polygons are the family's box, or its strip and wedge, and
    each boundary edge is solid exactly where the shaded side owns it."""
    polys = [{_world(*pt.split(",")) for pt in pts.split()}
             for pts in re.findall(r'<polygon points="([^"]*)"', svg)]
    edges = set()
    for attrs in re.findall(r"<line ([^>]*)/>", svg):
        if 'stroke="#16324f"' not in attrs:
            continue
        c = dict(re.findall(r'(\w[\w-]*)="([^"]*)"', attrs))
        seg = frozenset({_world(c["x1"], c["y1"]), _world(c["x2"], c["y2"])})
        edges.add((seg, "stroke-dasharray" not in c))
    want_polys, want_edges = ref.planar_picture(doc)
    errors = []
    if polys != [{_rounded(p) for p in poly} for poly in want_polys]:
        errors.append(f"layout: polygons {polys} are not the expected box / strip + wedge")
    if edges != {(frozenset(_rounded(p) for p in seg), solid) for seg, solid in want_edges}:
        errors.append("layout: boundary edges or their ownership differ")
    return errors


ROUNDS = 16  # distinct rounds made in set-up; a run that needs more starts over


@dataclass
class Workload:
    name: str
    make_round: Any  # (rng, files, round index) -> [Item], one round of fixed make-up
    run: Any  # Item -> output, the timed operation
    checker: Any  # () -> check(item, output) -> [error]
    files: Any = None  # workdir -> files written once in set-up

    def inputs(self, seed: int, workdir: str) -> list:
        """The set-up: ROUNDS rounds of plain inputs, all drawn from the seed."""
        rng = random.Random(f"{self.name}:{seed}")
        files = self.files(workdir) if self.files else None
        return [self.make_round(rng, files, r) for r in range(ROUNDS)]


WORKLOADS = {
    "grid-oracles": Workload("grid-oracles", grid_round, grid_run, lambda: grid_check),
    "residuation": Workload("residuation", residuation_round, residuation_run,
                            lambda: residuation_check),
    "spec-build": Workload("spec-build", spec_round, spec_run, lambda: spec_check),
    "cli-planar": Workload("cli-planar", cli_round, cli_run, CliChecker, cli_files),
}
