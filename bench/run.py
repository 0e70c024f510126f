"""tropconv benchmark: one seeded workload, end-to-end or per-layer figures.

    python3 bench/run.py --workload grid-oracles --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the program is imported from
its `src/` directory.  The load is a closed loop in this one process:
one operation at a time, the next only after the previous one and its
checks have finished.  Set-up imports the program and draws several
rounds of the same make-up from the seed; the run makes one pass per
round, at least three, until the timed operations add up to `--seconds`.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics and installs nothing.
--trace 1 alternates untraced passes, for half of `--seconds`, with the
same passes under the per-layer wrappers of `tracing.py`, and reports
the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 5  # input generation is repeated; the import happens once
MIN_PASSES = 3
WALL_LIMIT_S = 150  # stop early, mid-round, rather than overrun the harness

# Per-layer metrics of a traced run: (name, unit, source).  "calls" is per
# operation, "self" is self time per call.
LAYER_METRICS = (
    ("semiring.scalar_ops", "calls/op", ("count", "semiring.scalar_ops")),
    ("tlinalg.vec_ops", "calls/op", ("count", "tlinalg.vec_ops")),
    ("tlinalg.cone_member_fg.calls", "calls/op", ("calls", "tlinalg.cone_member_fg")),
    ("tlinalg.cone_member_fg.self_us", "us/call", ("self", "tlinalg.cone_member_fg", 1e3)),
    ("tlinalg.pr_member.self_us", "us/call", ("self", "tlinalg.pr_member", 1e3)),
    ("tlinalg.homogenize.calls", "calls/op", ("calls", "tlinalg.homogenize")),
    ("sectors.predicate.self_us", "us/call", ("self", "sectors.predicate", 1e3)),
    ("sectors.gens.calls", "calls/op", ("calls", "sectors.gens")),
    ("hemispace.build.calls", "calls/op", ("calls", "hemispace.build")),
    ("hemispace.build.self_ms", "ms/call", ("self", "hemispace.build", 1e6)),
    ("hemispace.rank_one.self_ms", "ms/call", ("self", "hemispace.rank_one", 1e6)),
    ("hemispace.thin.self_ms", "ms/call", ("self", "hemispace.thin", 1e6)),
    ("hemispace.complement.calls", "calls/op", ("calls", "hemispace.complement")),
    ("hemispace.complement.self_ms", "ms/call", ("self", "hemispace.complement", 1e6)),
    ("hemispace.member.calls", "calls/op", ("calls", "hemispace.member")),
    ("hemispace.member.self_us", "us/call", ("self", "hemispace.member", 1e3)),
    ("hemispace.affine_member.self_us", "us/call", ("self", "hemispace.affine_member", 1e3)),
    ("verify.partition.self_s", "s/call", ("self", "verify.partition", 1e9)),
    ("verify.closure.self_s", "s/call", ("self", "verify.closure", 1e9)),
    ("verify.segment.self_s", "s/call", ("self", "verify.segment", 1e9)),
    ("verify.sector_union.self_s", "s/call", ("self", "verify.sector_union", 1e9)),
    ("verify.multiorder.self_s", "s/call", ("self", "verify.multiorder", 1e9)),
    ("verify.member_calls_per_point", "calls/point", ("per_point", "hemispace.member")),
    ("specio.parse.self_us", "us/call", ("self", "specio.parse", 1e3)),
    ("specio.canonical.self_us", "us/call", ("self", "specio.canonical", 1e3)),
    ("render2d.render_svg.self_us", "us/call", ("self", "render2d.render_svg", 1e3)),
    ("cli.main.self_us", "us/call", ("self", "cli.main", 1e3)),
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["grid-oracles", "residuation", "spec-build", "cli-planar"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def import_program():
    """Put the checkout's src/ first on the path; refuse to run without it."""
    if not os.path.isfile(os.path.join(ROOT, "src", "tropconv", "__init__.py")):
        sys.exit(f"error: no tropconv sources under {os.path.join(ROOT, 'src')}; "
                 "run the benchmark from a source checkout")
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]


class Run:
    """Counters of one run; `op` times one operation and checks it."""

    def __init__(self, workload, checker, tracer=None):
        self.workload, self.check, self.tracer = workload, checker, tracer
        self.attempted = self.failed = self.points = 0
        self.pass_ns: list = []  # latencies (ns) of each pass, one round each
        self.faults: list = []  # operations that raised
        self.errors: list = []  # wrong answers

    def op(self, item) -> int:
        start = time.perf_counter_ns()
        try:
            out = self.workload.run(item)
        except Exception as exc:  # a program fault fails this operation only
            out = exc
        elapsed = time.perf_counter_ns() - start
        self.attempted += 1
        self.points += item.points
        if isinstance(out, Exception):
            self.failed += 1
            self.faults.append(f"{item.kind} n={item.n}: {type(out).__name__}: {out}")
        else:
            if self.tracer is not None:
                with self.tracer.paused():
                    errors = self.check(item, out)
            else:
                errors = self.check(item, out)
            self.errors.extend(f"{item.kind} n={item.n}: {e}" for e in errors)
        return elapsed

    def passes(self, rounds, wall_start: float, seconds: float = 0.0, count: int = 0) -> None:
        """One pass per round, in order: `count` passes, or else at least
        MIN_PASSES until the timed operations reach `seconds`."""
        timed = 0
        while (len(self.pass_ns) < count if count
               else len(self.pass_ns) < MIN_PASSES or timed < seconds * 1e9):
            latencies = []
            self.pass_ns.append(latencies)
            for item in rounds[(len(self.pass_ns) - 1) % len(rounds)]:
                latencies.append(self.op(item))
                if time.monotonic() - wall_start > WALL_LIMIT_S:
                    return
            timed += sum(latencies)

    def timed_ns(self) -> int:
        return sum(sum(latencies) for latencies in self.pass_ns)


def end_to_end(run: Run, setup_s: float) -> dict:
    """Throughput, p50 and p90 of each pass: its operations over its timed
    seconds, and percentiles of its latencies.  Each figure reported is the
    median over the passes, so a slow spell of a shared host that covers
    fewer than half the passes does not move it.  Every pass runs a whole
    round of the same make-up, so a change of the program moves every pass."""
    figures = []
    for latencies in run.pass_ns:
        ms = [t / 1e6 for t in latencies]
        p90 = statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0]
        figures.append((len(ms) / (sum(ms) / 1e3), statistics.median(ms), p90))
    ops_per_s, p50, p90 = (statistics.median(f) for f in zip(*figures))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "ops_per_s": {"value": ops_per_s, "unit": "operations/s"},
        "op_p50_ms": {"value": p50, "unit": "ms"},
        "op_p90_ms": {"value": p90, "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_kib / 1024, "unit": "MiB"},
    }


def per_layer(tracer, run: Run, plain: Run) -> dict:
    ops = max(run.attempted, 1)
    out = {}
    for name, unit, source in LAYER_METRICS:
        kind, layer = source[0], source[1]
        if kind == "count":
            value = tracer.counts.get(layer, 0) / ops
        elif kind == "calls":
            value = tracer.calls(layer) / ops
        elif kind == "self":
            value = tracer.self_ns_per_call(layer) / source[2]
        else:
            value = tracer.calls(layer) / run.points if run.points else 0.0
        out[name] = {"value": value, "unit": unit}
    untraced_ns = plain.timed_ns()
    out["trace.overhead_pct"] = {"value": 100.0 * (run.timed_ns() - untraced_ns) / untraced_ns,
                                 "unit": "%"}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    wall_start = time.monotonic()
    import_program()
    start = time.perf_counter()
    import workloads  # imports tropconv

    import_s = time.perf_counter() - start
    workload = workloads.WORKLOADS[args.workload]

    work_root = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        input_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            rounds = workload.inputs(args.seed, workdir)
            input_times.append(time.perf_counter() - start)
        setup_s = import_s + statistics.median(input_times)

        run = Run(workload, workload.checker())
        if not args.trace:
            run.passes(rounds, wall_start, seconds=args.seconds)
            metrics = end_to_end(run, setup_s)
            attempted, failed = run.attempted, run.failed
        else:
            from tracing import Tracer

            # Untraced and traced passes alternate over the same rounds, so
            # a slow spell of the host weighs on both alike.
            plain, tracer = run, Tracer()
            run = Run(workload, workload.checker(), tracer)
            while ((len(plain.pass_ns) < MIN_PASSES or plain.timed_ns() < args.seconds / 2 * 1e9)
                   and time.monotonic() - wall_start < WALL_LIMIT_S):
                plain.passes(rounds, wall_start, count=len(plain.pass_ns) + 1)
                with tracer.installed():
                    run.passes(rounds, wall_start, count=len(run.pass_ns) + 1)
            print(tracer.table(), file=sys.stderr)
            metrics = per_layer(tracer, run, plain)
            attempted, failed = plain.attempted + run.attempted, plain.failed + run.failed
            run.faults[:0] = plain.faults
            run.errors[:0] = plain.errors
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            os.rmdir(work_root)

    for line in run.faults[:5]:
        print(f"failed: {line}", file=sys.stderr)
    for line in run.errors[:10]:
        print(f"wrong: {line}", file=sys.stderr)
    print(json.dumps({"correct": not run.errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
