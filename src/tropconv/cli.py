"""Command-line front end.

Subcommands: check, complement, member, thin, halfspace, render2d,
sectors (with `test` and `gens` actions), verify.  Exit codes: 0 on
success, 1 on a semantic result (rank-one violation, OUT, failed
property), 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .hemispace import (
    AffineHemispace,
    NotClosedError,
    SpecError,
    complement_spec,  # noqa: F401 -- bench/test_bench.py checks tracing rebinds it here
    member_trace,
    other_side,
    rank_one_check,
    to_halfspace,
)
from .render2d import RenderConfig, render_svg
from .sectors import (
    SectorId,
    quasisector_contains,
    quasisector_gens,
    sector_contains,
    sector_pr,
    semispace_contains,
)
from .semiring import (
    MAX_TOKEN_CHARS,
    Model,
    format_scalar_compact,
    parse_fraction,
    parse_scalar,
    quote_token,
)
from .specio import (
    SpecFormatError,
    canonical_text,
    parse_spec_text,
    parse_spec_text_raw,
)
from .tlinalg import TVec, parse_vector
from .verify import GridSpec, grid_for_spec, run_properties

OK, SEMANTIC_FAIL, USAGE = 0, 1, 2

# Most grid points `verify` will enumerate.  A default grid holds zero,
# the standard values, the spec's thresholds and two spanning values: at
# most 12 per axis for the thresholds of `verify.random_valid_spec`, so
# every such grid up to n = 5 fits (12**5 = 248,832).
MAX_GRID_POINTS = 250_000

MAX_SECTOR_DIM = 500  # longest `sectors` base point; `gens` prints dim**2 coordinates


class CliError(Exception):
    def __init__(self, message: str, code: int = USAGE):
        super().__init__(message)
        self.code = code


def _load(path: str, parse):
    """Read a spec file and parse its text; file and format errors exit 2."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except FileNotFoundError:
        raise CliError(f"no such file: {path}")
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}")
    except (SpecFormatError, SpecError) as exc:
        raise CliError(f"{path}: {exc}")


def _write(path: str, text: str) -> None:
    """Write an output file; a path that cannot be written exits 2."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror}")


def _base_spec(obj):
    return obj.base if isinstance(obj, AffineHemispace) else obj


def cmd_check(args) -> int:
    raw, _affine, _cz = _load(args.path, parse_spec_text_raw)
    violation = rank_one_check(raw)
    if violation is None:
        print("OK")
        return OK
    print(violation.describe())
    return SEMANTIC_FAIL


def cmd_complement(args) -> int:
    out = canonical_text(other_side(_load(args.path, parse_spec_text)))
    if args.output:
        _write(args.output, out)
    else:
        sys.stdout.write(out)
    return OK


def cmd_member(args) -> int:
    obj = _load(args.path, parse_spec_text)
    side = other_side(obj) if args.complement else obj
    try:  # a malformed vector or one of the wrong length
        x = parse_vector(args.vector, _base_spec(obj).model)
        trace = member_trace(side, x)
    except ValueError as exc:
        raise CliError(str(exc))
    print("IN" if trace.member else "OUT")
    if args.explain:
        print(f"  reason: {trace.reason}")
        if trace.class_index is not None:
            print(f"  class: {trace.class_index}")
        if trace.reduced is not None:
            print(f"  reduced point: {trace.reduced}")
    return OK if trace.member else SEMANTIC_FAIL


def cmd_thin(args) -> int:
    obj = _load(args.path, parse_spec_text)
    spec = _base_spec(obj)
    ts = spec.thin
    for cls in ts.classes:
        print(
            f"class {cls.index}: I={list(cls.I_elems)} J={list(cls.J_elems)} "
            f"K={sorted(cls.K)} L={sorted(cls.L)}"
        )
    for i in sorted(spec.I):
        print(
            f"row {i}: le={sorted(ts.J_le[i])} lt={sorted(ts.J_lt[i])} "
            f"zero={sorted(ts.J_zero[i])} inf={sorted(ts.J_inf[i])} "
            f"beta={format_scalar_compact(ts.beta[i])}"
        )
    for j in sorted(ts.gamma):
        print(f"col {j}: gamma={format_scalar_compact(ts.gamma[j])}")
    return OK


def cmd_halfspace(args) -> int:
    obj = _load(args.path, parse_spec_text)
    try:
        form = to_halfspace(obj)
    except NotClosedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return SEMANTIC_FAIL
    print(form.pretty())
    return OK


def cmd_render2d(args) -> int:
    obj = _load(args.path, parse_spec_text)
    try:
        wx, wy = (parse_fraction(tok) for tok in args.window.split(","))
        config = RenderConfig(
            window=(wx, wy),
            resolution=args.resolution,
            show_complement=not args.no_complement,
            show_boundary_ownership=not args.no_ownership,
        )
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"bad render options: {exc}")
    try:
        svg = render_svg(obj, config)
    except SpecError as exc:
        raise CliError(str(exc))
    _write(args.output, svg)
    print(f"wrote {args.output}")
    return OK


def _parse_sector(args, model: Model) -> SectorId:
    try:
        y = parse_vector(args.base, model)
    except ValueError as exc:
        raise CliError(str(exc))
    if y.dim > MAX_SECTOR_DIM:
        raise CliError(f"base point has {y.dim} coordinates, more than {MAX_SECTOR_DIM}")
    token = args.type.strip()
    try:
        idx = y.dim + 1 if token == "n+1" else int(token)
    except ValueError:
        raise CliError(f"bad type index {quote_token(token)}")
    if idx == y.dim + 1:
        if args.quasi:
            raise CliError("quasisectors have no n+1 type")
        return SectorId.affine(y)
    try:
        return SectorId.of_support(y, idx)
    except ValueError as exc:
        raise CliError(str(exc))


def cmd_sectors(args) -> int:
    try:
        model = Model.parse(args.model)
    except ValueError as exc:
        raise CliError(str(exc))
    sid = _parse_sector(args, model)
    if args.action == "gens":
        if args.quasi:
            gens = quasisector_gens(sid)
            print(f"cone generators of quasisector {sid.describe()}:")
            for g in gens.sorted_gens:
                print(f"  {g}")
        else:
            d = sector_pr(sid)
            print(f"hull/ray form of sector {sid.describe()}:")
            for p in sorted(d.P, key=TVec.sort_key):
                print(f"  P {p}")
            for r in sorted(d.R, key=TVec.sort_key):
                print(f"  R {r}")
        return OK
    try:  # a malformed point or one of the wrong length
        x = parse_vector(args.point, model)
        if args.quasi:
            inside = quasisector_contains(sid, x)
        elif args.semispace:
            inside = semispace_contains(sid, x)
        else:
            inside = sector_contains(sid, x)
    except ValueError as exc:
        raise CliError(str(exc))
    print("IN" if inside else "OUT")
    return OK if inside else SEMANTIC_FAIL


def cmd_verify(args) -> int:
    obj = _load(args.path, parse_spec_text)
    base = _base_spec(obj)
    n = obj.ambient_dim if isinstance(obj, AffineHemispace) else base.n
    if args.grid is not None:
        try:
            values = tuple(
                sorted(
                    {parse_scalar(tok, base.model) for tok in args.grid.split(",")},
                    key=lambda s: s._key(),
                )
            )
            grid = GridSpec(base.model, n, values)
        except ValueError as exc:
            raise CliError(f"bad grid: {exc}")
    else:
        grid = grid_for_spec(base, n)
    if grid.size > MAX_GRID_POINTS:
        raise CliError(f"grid of {len(grid.values)} values in {n} dimensions has more than "
                       f"{MAX_GRID_POINTS} points")
    try:
        verdicts = run_properties(obj, grid, args.samples, args.seed, args.property)
    except ValueError as exc:
        raise CliError(str(exc))
    for v in verdicts:
        print(json.dumps(v.to_record()))
    failed = [v for v in verdicts if not v.passed]
    summary = f"{len(verdicts) - len(failed)}/{len(verdicts)} properties passed"
    if failed:
        summary += "; failed: " + ", ".join(v.name for v in failed)
    print(summary, file=sys.stderr)
    return OK if not failed else SEMANTIC_FAIL


def bounded_int(lo: int | None = None, hi: int | None = None):
    """An argparse type: an integer token of at most MAX_TOKEN_CHARS
    characters, within lo..hi where given; errors quote the token short."""

    def parse(token: str) -> int:
        if len(token) > MAX_TOKEN_CHARS:
            raise argparse.ArgumentTypeError(f"{quote_token(token)} is too long")
        try:
            value = int(token)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {quote_token(token)}") from None
        if (lo is not None and value < lo) or (hi is not None and value > hi):
            raise argparse.ArgumentTypeError(f"{quote_token(token)} is outside {lo}..{hi}")
        return value

    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tropconv",
        description="Exact tropical convexity: hemispaces, sectors, semispaces.",
    )
    parser.add_argument("--model", default="max-times",
                        help="scalar model for commands without a spec file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a spec file (structure + rank-one)")
    p.add_argument("path")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("complement", help="emit the complementary hemispace spec")
    p.add_argument("path")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=cmd_complement)

    p = sub.add_parser("member", help="decide membership of a vector")
    p.add_argument("path")
    p.add_argument("vector")
    p.add_argument("--complement", action="store_true",
                   help="test against the complement side")
    p.add_argument("--explain", action="store_true")
    p.set_defaults(fn=cmd_member)

    p = sub.add_parser("thin", help="print the derived thin structure")
    p.add_argument("path")
    p.set_defaults(fn=cmd_thin)

    p = sub.add_parser("halfspace", help="closed spec as a halfspace inequality")
    p.add_argument("path")
    p.set_defaults(fn=cmd_halfspace)

    p = sub.add_parser("render2d", help="render a 2-d spec to SVG")
    p.add_argument("path")
    p.add_argument("output")
    p.add_argument("--window", default="4,4", help="world window as X,Y (default 4,4)")
    p.add_argument("--resolution", type=bounded_int(16, 10_000), default=64,
                   help="pixels per unit, 16..10000")
    p.add_argument("--no-complement", action="store_true")
    p.add_argument("--no-ownership", action="store_true")
    p.set_defaults(fn=cmd_render2d)

    p = sub.add_parser("sectors", help="sector predicates and generator forms")
    p.add_argument("action", choices=["test", "gens"])
    p.add_argument("--base", required=True, help='base point, e.g. "[1, 1]"')
    p.add_argument("--type", required=True, help='type index (1-based) or "n+1"')
    p.add_argument("--point", default=None, help="point to test (test action)")
    variant = p.add_mutually_exclusive_group()
    variant.add_argument("--quasi", action="store_true", help="use the conical variant")
    variant.add_argument("--semispace", action="store_true",
                         help="test the complement (semispace) instead")
    p.set_defaults(fn=cmd_sectors)

    p = sub.add_parser("verify", help="run brute-force property checks on a spec")
    p.add_argument("path")
    p.add_argument("--grid", default=None,
                   help='comma-separated grid values, e.g. "zero,1/2,1,2,4"')
    p.add_argument("--samples", type=bounded_int(1, 100_000), default=200,
                   help="sample count for pair-based checks, 1..100000")
    p.add_argument("--seed", type=bounded_int(), default=0, help="seed for sampled checks")
    p.add_argument("--property", default="all")
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "sectors" and args.action == "test" and args.point is None:
        parser.error("sectors test requires --point")
    if args.command == "sectors" and args.action == "gens" and args.semispace:
        parser.error("sectors gens has no --semispace form")
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
