import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import MP, MT
import tropconv
from tropconv.cli import main
from tropconv.hemispace import (
    AffineHemispace,
    SpecError,
    affine_complement,
    affine_member,
    complement_spec,
    conical_member,
    conical_member_trace,
)
from tropconv.render2d import RenderConfig, build_geometry, render_svg
from tropconv.semiring import TScalar
from tropconv.specio import (
    SpecFormatError,
    canonical_text,
    parse_spec_text,
    parse_spec_text_raw,
)
from tropconv.tlinalg import TVec
from tropconv.verify import make_grid, random_valid_affine, random_valid_spec

WORKED = """{
  "model": "max-times", "n": 4, "I": [1, 2], "J": [3, 4],
  "sigma": [
    {"i": 1, "j": 3, "threshold": "1", "closed": true},
    {"i": 1, "j": 4, "threshold": "inf", "closed": false},
    {"i": 2, "j": 3, "threshold": "zero", "closed": true},
    {"i": 2, "j": 4, "threshold": "1", "closed": true}
  ]
}
"""

SECTOR_BOX = """{
  "model": "max-times", "n": 2, "affine": true, "contains_zero": true,
  "I": [3], "J": [1, 2],
  "sigma": [
    {"i": 3, "j": 1, "threshold": "1", "closed": true},
    {"i": 3, "j": 2, "threshold": "1", "closed": true}
  ]
}
"""

VIOLATING = """{
  "model": "max-times", "n": 4, "I": [1, 2], "J": [3, 4],
  "sigma": [
    {"i": 1, "j": 3, "threshold": "1", "closed": true},
    {"i": 1, "j": 4, "threshold": "1", "closed": true},
    {"i": 2, "j": 3, "threshold": "1", "closed": true},
    {"i": 2, "j": 4, "threshold": "2", "closed": true}
  ]
}
"""


@pytest.fixture
def worked_file(tmp_path):
    p = tmp_path / "worked.json"
    p.write_text(WORKED)
    return str(p)


@pytest.fixture
def box_file(tmp_path):
    p = tmp_path / "box.json"
    p.write_text(SECTOR_BOX)
    return str(p)


# ----------------------------------------------------------------------
# Spec file parsing.


def test_parse_round_trip_is_byte_stable():
    spec = parse_spec_text(WORKED)
    text = canonical_text(spec)
    assert canonical_text(parse_spec_text(text)) == text
    box = parse_spec_text(SECTOR_BOX)
    assert isinstance(box, AffineHemispace)
    text = canonical_text(box)
    assert canonical_text(parse_spec_text(text)) == text


def test_parse_diagnostics():
    with pytest.raises(SpecFormatError, match="JSON"):
        parse_spec_text("not json")
    with pytest.raises(SpecFormatError, match="missing field 'model'"):
        parse_spec_text("{}")
    with pytest.raises(SpecFormatError, match="out of range"):
        parse_spec_text('{"model": "max-times", "n": 2, "I": [1], "J": [5], "sigma": []}')
    with pytest.raises(SpecFormatError, match="duplicate entry"):
        parse_spec_text(
            '{"model": "max-times", "n": 2, "I": [1], "J": [2], "sigma": ['
            '{"i": 1, "j": 2, "threshold": "1", "closed": true},'
            '{"i": 1, "j": 2, "threshold": "2", "closed": true}]}'
        )
    with pytest.raises(SpecFormatError, match="contains_zero"):
        parse_spec_text(
            '{"model": "max-times", "n": 2, "I": [1], "J": [2], "contains_zero": true,'
            ' "sigma": [{"i": 1, "j": 2, "threshold": "1", "closed": true}]}'
        )
    # structural problems surface as spec errors with the field named
    from tropconv.hemispace import SpecError

    with pytest.raises(SpecError, match="partition"):
        parse_spec_text(
            '{"model": "max-times", "n": 3, "I": [1], "J": [2], "sigma": ['
            '{"i": 1, "j": 2, "threshold": "1", "closed": true}]}'
        )


def test_raw_parse_skips_rank_one():
    raw, affine, cz = parse_spec_text_raw(VIOLATING)
    assert not raw.validated and not affine and cz is None
    with pytest.raises(Exception):
        parse_spec_text(VIOLATING)


# ----------------------------------------------------------------------
# CLI behaviour.


def test_cli_check(worked_file, tmp_path, capsys):
    assert main(["check", worked_file]) == 0
    assert "OK" in capsys.readouterr().out

    bad = tmp_path / "bad.json"
    bad.write_text(VIOLATING)
    assert main(["check", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "i1=1" in out and "j2=4" in out

    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"model": "max-times", "n": 2, "I": [1, 2], "J": [], "sigma": []}')
    assert main(["check", str(malformed)]) == 2
    assert main(["check", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize("command, extra", [("check", []), ("member", ["[1]"])],
                         ids=["check", "member"])
def test_cli_unreadable_spec_file_exits_2(tmp_path, capsys, command, extra):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b'{"model": "\xff"}')
    for path, message in ((tmp_path, "cannot read"), (binary, "not UTF-8")):
        assert main([command, str(path), *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err


def test_cli_check_rejects_a_huge_n_promptly(tmp_path):
    # The index sets are checked by size and range, never by listing
    # 1..n.  The run gets a memory cap so that a regression fails the
    # test instead of exhausting the machine.
    path = tmp_path / "huge.json"
    path.write_text(
        '{"model": "max-times", "n": 1000000000000, "I": [1], "J": [2], "sigma": ['
        '{"i": 1, "j": 2, "threshold": "1", "closed": true}]}'
    )
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "from tropconv.cli import main\n"
        "sys.exit(main(['check', sys.argv[1]]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(tropconv.__file__).parents[1])}
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2, done.stderr
    assert "index sets must partition 1..n" in done.stderr
    assert time.perf_counter() - start < 30


@pytest.mark.parametrize("text", [
    "[" * 100_000 + "]" * 100_000,
    WORKED.replace('"n": 4', '"n": ' + "9" * 5000),
], ids=["deep-nesting", "huge-int-literal"])
def test_cli_hostile_json_exits_2(tmp_path, capsys, text):
    path = tmp_path / "hostile.json"
    path.write_text(text)
    assert main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "not valid JSON" in captured.err


SPEC_FILES = sorted((Path(__file__).parents[1] / "specs").glob("*.json"))

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**12, 10**12) | st.text(max_size=6)
    | st.sampled_from(["zero", "inf", "1/0", "-1", "1/3", "n+1", "max-plus"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["i", "j", "threshold", "closed", "n"]), inner,
                      max_size=3),
    max_leaves=6,
)

# Spliced into the JSON text: nesting past the decoder's recursion
# limit, an integer past the int-parsing digit limit, broken syntax.
HOSTILE_CHUNKS = ["[" * 5000, "9" * 5000, "\x00", '"', "}", ",", "1e999"]


def _containers(node):
    """(container, key) for every member of every list and object in node."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in list(items):
        yield node, key
        if isinstance(value, (dict, list)):
            yield from _containers(value)


@settings(max_examples=60)
@given(data=st.data())
def test_mutated_spec_files_fail_cleanly(tmp_path_factory, data):
    source = data.draw(st.sampled_from(SPEC_FILES), label="file")
    doc = json.loads(source.read_text())
    vector = "[" + ", ".join(["1"] * doc["n"]) + "]"
    for _ in range(data.draw(st.integers(0, 3), label="edits")):
        node, key = data.draw(st.sampled_from(list(_containers(doc))), label="target")
        if data.draw(st.booleans(), label="delete"):
            del node[key]
        else:
            node[key] = data.draw(JSON_VALUES, label="value")
    text = json.dumps(doc)
    if data.draw(st.booleans(), label="splice"):
        at = data.draw(st.integers(0, len(text)), label="at")
        text = text[:at] + data.draw(st.sampled_from(HOSTILE_CHUNKS), label="chunk") + text[at:]
    try:
        parse_spec_text(text)
    except (SpecFormatError, SpecError, ValueError):
        pass
    path = tmp_path_factory.mktemp("fuzz") / "spec.json"
    path.write_text(text)
    assert main(["check", str(path)]) in (0, 1, 2)
    assert main(["member", str(path), vector]) in (0, 1, 2)


def test_cli_imports_no_numpy():
    # tropconv has no runtime dependency: the CLI loads the standard
    # library only.
    script = "import sys, tropconv.cli; print('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(tropconv.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_cli_unknown_model_exits_2(tmp_path, capsys):
    path = tmp_path / "foo.json"
    path.write_text(WORKED.replace('"max-times"', '"foo"'))
    assert main(["check", str(path)]) == 2
    assert "unknown model 'foo'" in capsys.readouterr().err
    assert main(["--model", "foo", "sectors", "gens", "--base", "[1,1]", "--type", "1"]) == 2
    assert "unknown model 'foo'" in capsys.readouterr().err


def test_cli_affine_flag_must_be_a_boolean(tmp_path, capsys):
    path = tmp_path / "string-flag.json"
    path.write_text(SECTOR_BOX.replace('"affine": true', '"affine": "false"'))
    assert main(["member", str(path), "[1,1]"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "'affine' has the wrong type" in captured.err


def test_cli_exponent_tokens_exit_2_promptly(worked_file, box_file, tmp_path, capsys):
    # Fraction("1e10000000") would build a ten-million-digit integer.
    path = tmp_path / "exponent.json"
    path.write_text(WORKED.replace('"threshold": "1"', '"threshold": "1e10000000"', 1))
    start = time.perf_counter()
    assert main(["check", str(path)]) == 2
    assert "exponent form" in capsys.readouterr().err
    assert main(["render2d", box_file, str(tmp_path / "out.svg"),
                 "--window", "1e10000000,4"]) == 2
    assert "exponent form" in capsys.readouterr().err
    assert main(["member", worked_file, "[1e10000000,0,0,0]"]) == 2
    assert "exponent form" in capsys.readouterr().err
    assert time.perf_counter() - start < 1.0


def test_cli_member(worked_file, capsys):
    assert main(["member", worked_file, "[2,0,1,0]"]) == 0
    assert capsys.readouterr().out.strip() == "IN"
    assert main(["member", worked_file, "[1,0,2,0]"]) == 1
    assert capsys.readouterr().out.strip() == "OUT"
    assert main(["member", worked_file, "[0,0,0,0]"]) == 0
    capsys.readouterr()
    assert main(["member", worked_file, "[1,0,2,0]", "--complement"]) == 0
    capsys.readouterr()
    assert main(["member", worked_file, "[2,0,1,0]", "--explain"]) == 0
    out = capsys.readouterr().out
    assert "reason:" in out and "class:" in out
    assert main(["member", worked_file, "[1,0]"]) == 2


def test_cli_member_affine(box_file, capsys):
    assert main(["member", box_file, "[1,1]"]) == 0
    assert main(["member", box_file, "[2,0]"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("contains_zero", [True, False])
@pytest.mark.parametrize("closed", [True, False])
def test_cli_member_explain_follows_the_side(tmp_path, capsys, contains_zero, closed):
    text = SECTOR_BOX.replace('"contains_zero": true', f'"contains_zero": {json.dumps(contains_zero)}')
    if not closed:
        text = text.replace('"closed": true', '"closed": false')
    path = tmp_path / "box.json"
    path.write_text(text)
    h = parse_spec_text(text)
    one = TScalar.unit(MT)
    for complement in (False, True):
        side = affine_complement(h) if complement else h
        cone = h.base if side.contains_zero else complement_spec(h.base)
        flag = ["--complement"] if complement else []
        for x in make_grid(MT, 2).points():
            code = main(["member", str(path), str(x), "--explain", *flag])
            lines = capsys.readouterr().out.splitlines()
            inside = affine_member(side, x)
            assert (code, lines[0]) == ((0, "IN") if inside else (1, "OUT"))
            reason = conical_member_trace(cone, x.append(one)).reason
            assert lines[1] == f"  reason: {reason}", (contains_zero, complement, str(x))


@pytest.mark.parametrize("complement", [[], ["--complement"]])
def test_cli_member_rejects_a_wrong_length_vector(worked_file, box_file, capsys, complement):
    for path, vector in ((worked_file, "[1,0]"), (box_file, "[1,1,1]")):
        assert main(["member", path, vector, *complement]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error: dimension mismatch" in captured.err


def test_cli_complement_round_trip(worked_file, tmp_path, capsys):
    out1 = tmp_path / "comp.json"
    out2 = tmp_path / "comp2.json"
    assert main(["complement", worked_file, "-o", str(out1)]) == 0
    assert main(["complement", str(out1), "-o", str(out2)]) == 0
    original = canonical_text(parse_spec_text(WORKED))
    assert out2.read_text() == original
    # affine complement just flips the flag
    box = tmp_path / "box.json"
    box.write_text(SECTOR_BOX)
    assert main(["complement", str(box)]) == 0
    flipped = capsys.readouterr().out
    assert '"contains_zero": false' in flipped


def test_cli_thin_and_halfspace(worked_file, box_file, capsys):
    assert main(["thin", worked_file]) == 0
    out = capsys.readouterr().out
    assert "class 1" in out and "class 2" in out

    assert main(["halfspace", box_file]) == 0
    out = capsys.readouterr().out
    assert "<=" in out

    assert main(["halfspace", worked_file]) == 1  # open entries present
    assert "open or degenerate" in capsys.readouterr().err


def test_cli_sectors(capsys):
    assert main(["sectors", "test", "--base", "[1,1]", "--type", "1",
                 "--point", "[2,1]"]) == 0
    assert capsys.readouterr().out.strip() == "IN"
    assert main(["sectors", "test", "--base", "[1,1]", "--type", "n+1",
                 "--point", "[2,1]"]) == 1
    capsys.readouterr()
    assert main(["sectors", "test", "--base", "[1,1]", "--type", "1",
                 "--point", "[2,1]", "--semispace"]) == 1
    capsys.readouterr()
    assert main(["sectors", "gens", "--base", "[2,1]", "--type", "1"]) == 0
    out = capsys.readouterr().out
    assert "P [2, 0]" in out and "R [1, 1/2]" in out
    assert main(["sectors", "gens", "--base", "[2,1]", "--type", "1", "--quasi"]) == 0
    capsys.readouterr()
    assert main(["sectors", "test", "--base", "[0,0]", "--type", "1",
                 "--point", "[1,1]"]) == 2
    capsys.readouterr()


def test_cli_verify(worked_file, capsys):
    assert main(["verify", worked_file, "--samples", "40", "--seed", "11"]) == 0
    out, err = capsys.readouterr().out, ""
    records = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    assert len(records) == 6
    assert all(r["passed"] for r in records)
    assert main(["verify", worked_file, "--samples", "40", "--property", "partition"]) == 0
    capsys.readouterr()
    assert main(["verify", worked_file, "--property", "bogus"]) == 2


def test_cli_seed_belongs_to_verify(worked_file, monkeypatch, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--seed", "5", "verify", worked_file])
    assert exc.value.code == 2
    seeds = []

    def fake_run_properties(obj, grid, samples, seed, which):
        seeds.append(seed)
        return []

    monkeypatch.setattr("tropconv.cli.run_properties", fake_run_properties)
    assert main(["verify", worked_file, "--seed", "7"]) == 0
    assert seeds == [7]
    capsys.readouterr()


def test_cli_render(box_file, tmp_path, capsys):
    out = tmp_path / "box.svg"
    assert main(["render2d", box_file, str(out)]) == 0
    svg1 = out.read_text()
    assert svg1.startswith("<svg") and "polygon" in svg1
    assert main(["render2d", box_file, str(out)]) == 0
    assert out.read_text() == svg1  # byte-identical on identical input
    capsys.readouterr()


def test_cli_unwritable_output_exits_2(worked_file, box_file, tmp_path, capsys):
    for target in (tmp_path, tmp_path / "missing" / "out"):
        for argv in (["render2d", box_file, str(target)],
                     ["complement", worked_file, "-o", str(target)]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and f"cannot write {target}" in captured.err


def test_cli_render_rejects_higher_dims(worked_file, tmp_path, capsys):
    assert main(["render2d", worked_file, str(tmp_path / "x.svg")]) == 2
    capsys.readouterr()


MAXPLUS_HALFPLANE = """{
  "model": "max-plus", "n": 2, "I": [1], "J": [2],
  "sigma": [{"i": 1, "j": 2, "threshold": "0", "closed": true}]
}
"""


def test_cli_max_plus_spec_end_to_end(tmp_path, capsys):
    path = tmp_path / "halfplane.json"
    path.write_text(MAXPLUS_HALFPLANE)
    assert main(["check", str(path)]) == 0
    assert main(["member", str(path), "[1, 1]"]) == 0
    assert main(["member", str(path), "[1, 2]"]) == 1
    capsys.readouterr()
    assert main(["halfspace", str(path)]) == 0
    assert "x2" in capsys.readouterr().out
    out = tmp_path / "halfplane.svg"
    assert main(["render2d", str(path), str(out)]) == 0
    assert out.read_text().startswith("<svg")
    capsys.readouterr()
    assert main(["verify", str(path), "--samples", "30", "--seed", "2"]) == 0
    capsys.readouterr()


# ----------------------------------------------------------------------
# Render geometry equals structural membership.


def _sample_plane_points(model, rng, count):
    pool = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(4),
            Fraction(3, 2), Fraction(1, 4)]
    pts = []
    for _ in range(count):
        coords = []
        for _ in range(2):
            q = rng.choice(pool) + Fraction(rng.randrange(0, 5), 16)
            if model is MT:
                coords.append(TScalar.bottom(MT) if q == 0 else TScalar.finite(MT, q))
            else:
                coords.append(TScalar.finite(MP, q - 2))
        pts.append(TVec(model, tuple(coords)))
    return pts


def test_render_classification_agrees_with_membership():
    rng = random.Random(77)
    for model in (MT, MP):
        for _ in range(12):
            h = random_valid_affine(rng, model, 2)
            geom = build_geometry(h)
            for x in _sample_plane_points(model, rng, 90):
                assert geom.shaded_member(x) == affine_member(h, x), (
                    sorted(h.base.I), h.contains_zero, str(x),
                )
        for _ in range(6):
            spec = random_valid_spec(rng, model, 2)
            geom = build_geometry(spec)
            for x in _sample_plane_points(model, rng, 60):
                assert geom.shaded_member(x) == conical_member(spec, x)


def test_render_svg_options():
    box = parse_spec_text(SECTOR_BOX)
    plain = render_svg(box, RenderConfig(show_boundary_ownership=False))
    assert "dasharray" not in plain
    open_box = parse_spec_text(SECTOR_BOX.replace('"closed": true', '"closed": false'))
    dashed = render_svg(open_box)
    assert "dasharray" in dashed
    no_comp = render_svg(box, RenderConfig(show_complement=False))
    assert "#ffffff" in no_comp
    with pytest.raises(ValueError):
        RenderConfig(window=(Fraction(0), Fraction(1)))
    with pytest.raises(ValueError):
        RenderConfig(resolution=8)
