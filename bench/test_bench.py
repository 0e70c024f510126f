"""Tests of the benchmark itself: negative controls and tracing hygiene.

    python3 -m pytest -q bench/test_bench.py

Every check must reject a deliberately wrong answer, and the per-layer
wrappers must leave no trace once a traced run is over.
"""

import importlib
import inspect
import itertools
import os
import random
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import reference as ref  # noqa: E402
import run as bench_run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

HELD_OUT_SEED = 9001


def first_round(name, tmp_path, seed=HELD_OUT_SEED):
    return W.WORKLOADS[name].inputs(seed, str(tmp_path))[0]


def test_grid_oracles_rejects_a_flipped_membership(tmp_path):
    item = next(i for i in first_round("grid-oracles", tmp_path)
                if i.kind == "conical" and i.n == 3)
    doc = item.data[0]
    obj, _verdicts = W.grid_run(item)
    points = W.grid_points(item.model, item.n)
    answers = [W.hemispace.conical_member(obj, W.to_vec(item.model, p)) for p in points]
    assert W.membership_errors(doc, points, answers) == []
    flipped = list(answers)
    flipped[len(points) // 2] = not flipped[len(points) // 2]
    assert W.membership_errors(doc, points, flipped)


def test_residuation_rejects_a_strict_sector_predicate(tmp_path):
    item = next(i for i in first_round("residuation", tmp_path) if i.kind == "sector")
    _d, by_gens, by_predicate = W.residuation_run(item)
    points = W.grid_points(item.model, item.n)
    assert W.sector_errors(item, points, by_gens, by_predicate) == []
    y, i = item.data
    strict = [ref.sector_member(item.model, y, i, p, strict=True) for p in points]
    assert W.sector_errors(item, points, by_gens, strict)


def test_spec_build_rejects_a_planted_violation_presented_as_valid(tmp_path):
    item = next(i for i in first_round("spec-build", tmp_path)
                if i.kind == "valid" and i.n >= 8)
    out = W.spec_run(item)
    doc = item.data[0]
    assert W.valid_spec_errors(doc, *out) == []
    planted = ref.plant_violation(random.Random(3), doc)
    assert W.valid_spec_errors(planted, *out)


def test_cli_rejects_an_svg_with_ownership_swapped(tmp_path):
    item = next(i for i in first_round("cli-planar", tmp_path) if i.kind == "render2d"
                and {c for _t, c in i.data[0].sigma.values()} == {True, False})
    code, _out, _err = W.cli_run(item)
    assert code == 0
    doc, argv, _vectors = item.data
    with open(argv[2], encoding="utf-8") as fh:
        svg = fh.read()
    assert W.svg_layout_errors(doc, svg) == []

    def swap(match):
        line = match.group(0)
        if ' stroke-dasharray="6,5"' in line:
            return line.replace(' stroke-dasharray="6,5"', "")
        return line.replace('stroke-width="2"', 'stroke-width="2" stroke-dasharray="6,5"')

    swapped = re.sub(r'<line [^>]*stroke="#16324f"[^>]*/>', swap, svg)
    assert swapped != svg
    assert W.svg_layout_errors(doc, swapped)


def test_cli_expected_answer_follows_the_side_of_an_affine_file():
    doc = ref.planar_catalog()[0]
    other = ref.Doc(doc.model, doc.n, doc.I, doc.J, doc.sigma, True, not doc.contains_zero)
    for x in itertools.product(W.CLI_VALUES[doc.model], repeat=doc.n - 1):
        for complement in (False, True):
            assert W.expected_member(other, x, complement) != \
                W.expected_member(doc, x, complement)


def test_held_out_seed_passes_the_checks(tmp_path):
    for name, workload in W.WORKLOADS.items():
        check = workload.checker()
        for item in first_round(name, tmp_path / name)[:12]:
            assert check(item, workload.run(item)) == [], (name, item.kind, item.n)


def program_attributes():
    """Every function-valued attribute of the tropconv namespaces, plus the
    wrapped methods, by identity."""
    snap = {}
    for mod_name in ["tropconv"] + [f"tropconv.{m}" for m in tracing.MODULES]:
        module = importlib.import_module(mod_name)
        for name, obj in vars(module).items():
            if inspect.isfunction(obj):
                snap[(mod_name, name)] = obj
    for short, cls_name, meth in tracing.METHODS:
        cls = getattr(importlib.import_module(f"tropconv.{short}"), cls_name)
        snap[(cls_name, meth)] = vars(cls)[meth]
    return snap


def test_traced_run_leaves_no_trace(tmp_path):
    before = program_attributes()
    tracer = tracing.Tracer()
    with tracer.installed():
        during = program_attributes()
        assert during[("tropconv.verify", "conical_member")] is not \
            before[("tropconv.verify", "conical_member")]
        assert during[("tropconv.cli", "complement_spec")] is \
            during[("tropconv.hemispace", "complement_spec")]
        for name, workload in W.WORKLOADS.items():
            check = workload.checker()
            for item in first_round(name, tmp_path / name, seed=1)[:4]:
                out = workload.run(item)
                with tracer.paused():
                    assert check(item, out) == []
    after = program_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracer.counts["semiring.scalar_ops"] > 0
    assert tracer.calls("hemispace.member") > 0 and tracer.calls("cli.main") > 0


def test_untraced_run_installs_nothing(tmp_path, monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("an untraced run installed wrappers")

    monkeypatch.setattr(tracing.Tracer, "install", refuse)
    before = program_attributes()
    assert bench_run.main(["--workload", "cli-planar", "--seconds", "0.01", "--trace", "0"]) == 0
    result = capsys.readouterr().out.strip().splitlines()[-1]
    assert '"correct": true' in result and '"failed": 0' in result
    after = program_attributes()
    assert all(after[k] is before[k] for k in before)
