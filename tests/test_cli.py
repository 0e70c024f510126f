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
from tropconv.cli import MAX_GRID_POINTS, MAX_SECTOR_DIM, main
from tropconv.hemispace import (
    AffineHemispace,
    SpecError,
    affine_complement,
    affine_member,
    complement_spec,
    conical_member,
    member_trace,
)
from tropconv.render2d import RenderConfig, build_geometry, render_svg
from tropconv.semiring import TScalar, t_mul
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


LONG = "x" * 5000


@pytest.mark.parametrize("argv, text", [
    (["check", "{long_model}"], "unknown model 'xxxx"),
    (["--model", LONG, "sectors", "gens", "--base", "[1,1]", "--type", "1"], "unknown model"),
    (["sectors", "gens", "--base", "[1,1]", "--type", LONG], "bad type index"),
    (["verify", "{worked}", "--property", LONG], "unknown property"),
], ids=["spec-model", "global-model", "sector-type", "verify-property"])
def test_cli_long_user_strings_are_quoted_short(worked_file, tmp_path, capsys, argv, text):
    path = tmp_path / "long-model.json"
    path.write_text(WORKED.replace('"max-times"', f'"{LONG}"'))
    argv = [a.format(long_model=path, worked=worked_file) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and text in captured.err
    assert "(5000 characters)" in captured.err and len(captured.err.encode()) < 300


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


@pytest.mark.parametrize("token", ["9" * 5000, "7" * 4000 + "/" + "3" * 4000],
                         ids=["long-integer", "long-ratio"])
def test_cli_long_numeric_tokens_exit_2_with_a_short_message(
        worked_file, box_file, tmp_path, capsys, token):
    # Unbounded, the 5,000-digit integer fails at the interpreter's digit
    # limit with the whole token quoted, and the ratio is read in full.
    path = tmp_path / "long.json"
    path.write_text(WORKED.replace('"threshold": "1"', f'"threshold": "{token}"', 1))
    for argv, text in (
        (["check", str(path)], "bad scalar token"),
        (["member", str(path), "[1,0,1,0]"], "bad scalar token"),
        (["member", worked_file, f"[{token},0,0,0]"], "bad scalar token"),
        (["verify", worked_file, "--grid", f"zero,{token}"], "bad scalar token"),
        (["render2d", box_file, str(tmp_path / "out.svg"), "--window", f"{token},4"],
         "limited to 100 characters"),
    ):
        assert main(argv) == 2, argv[0]
        captured = capsys.readouterr()
        assert captured.out == "" and text in captured.err, argv[0]
        assert len(captured.err.encode()) < 300, (argv[0], captured.err)


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
    for complement in (False, True):
        side = affine_complement(h) if complement else h
        cone = h.base if side.contains_zero else complement_spec(h.base)
        flag = ["--complement"] if complement else []
        for x in make_grid(MT, 2).points():
            code = main(["member", str(path), str(x), "--explain", *flag])
            lines = capsys.readouterr().out.splitlines()
            inside = affine_member(side, x)
            assert (code, lines[0]) == ((0, "IN") if inside else (1, "OUT"))
            reason = member_trace(cone, x.lift()).reason
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


def _affine_box(closed: bool, threshold: str, contains_zero: bool) -> str:
    entries = ", ".join(f'{{"i": 3, "j": {j}, "threshold": "{threshold}", '
                        f'"closed": {json.dumps(closed)}}}' for j in (1, 2))
    return (f'{{"model": "max-times", "n": 2, "affine": true, "contains_zero": '
            f'{json.dumps(contains_zero)}, "I": [3], "J": [1, 2], "sigma": [{entries}]}}')


COORDINATE_PLANE = """{"model": "max-times", "n": 3, "I": [1], "J": [2, 3], "sigma": [
  {"i": 1, "j": 2, "threshold": "zero", "closed": true},
  {"i": 1, "j": 3, "threshold": "zero", "closed": true}]}"""


@pytest.mark.parametrize("name, text, code, out, err", [
    ("box-2d", None, 0, "max(1*x1, 1*x2) <= max(1)\n", ""),
    ("halfplane-2d-maxplus", None, 0, "max(0*x2) <= max(0*x1)\n", ""),
    ("left-offset", _affine_box(False, "1", False), 0, "max(1) <= max(1*x1, 1*x2)\n", ""),
    ("coordinate-plane", COORDINATE_PLANE, 0, "zero <= zero ; x2 = zero, x3 = zero\n", ""),
    ("empty-slice", _affine_box(False, "inf", False), 1, "",
     "error: affine slice is empty: the lifted coordinate is forced to zero\n"),
])
def test_cli_halfspace_golden_text(tmp_path, capsys, name, text, code, out, err):
    if text is None:
        path = Path(__file__).parents[1] / "specs" / f"{name}.json"
    else:
        path = tmp_path / f"{name}.json"
        path.write_text(text)
    assert main(["halfspace", str(path)]) == code
    assert capsys.readouterr() == (out, err)


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


@pytest.mark.parametrize("argv, message", [
    (["test", "--point", "[2,1]", "--quasi", "--semispace"],
     "argument --semispace: not allowed with argument --quasi"),
    (["gens", "--semispace"], "sectors gens has no --semispace form"),
], ids=["test-quasi-semispace", "gens-semispace"])
def test_cli_sectors_refuses_a_dropped_semispace_flag(capsys, argv, message):
    # Both once answered as if --semispace were absent.
    with pytest.raises(SystemExit) as exc:
        main(["sectors", argv[0], "--base", "[1,1]", "--type", "1", *argv[1:]])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err and len(captured.err) < 400


@pytest.mark.parametrize("extra", [["--type", "1"], ["--type", "1", "--quasi"],
                                   ["--type", "1", "--semispace"], ["--type", "n+1"]],
                         ids=["sector", "quasi", "semispace", "n+1"])
def test_cli_sectors_test_rejects_a_wrong_length_point(capsys, extra):
    # Exit 1 would read as OUT; a point of the wrong length is a usage error.
    assert main(["sectors", "test", "--base", "[1,1]", "--point", "[1,1,1]", *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: dimension mismatch: 3 vs 2\n"


@pytest.mark.parametrize("quasi", [[], ["--quasi"]], ids=["sector", "quasi"])
def test_cli_sectors_bounds_the_base_dimension(capsys, quasi):
    base = "[" + ",".join(["1"] * 3000) + "]"
    start = time.monotonic()
    assert main(["sectors", "gens", "--base", base, "--type", "1", *quasi]) == 2
    assert time.monotonic() - start < 2
    err = capsys.readouterr().err
    assert "3000 coordinates" in err and len(err.encode()) < 300
    bound = "[" + ",".join(["1"] * MAX_SECTOR_DIM) + "]"
    assert main(["sectors", "test", "--base", bound, "--type", "1", "--point", bound]) == 0
    assert capsys.readouterr().out == "IN\n"


@pytest.mark.parametrize("token", ["3", "03", "+3", " 3 ", "n+1"])
@pytest.mark.parametrize("quasi", [False, True], ids=["sector", "quasi"])
def test_cli_sectors_reads_the_extra_type_as_an_integer(capsys, token, quasi):
    # At n = 2 every spelling of the integer 3 is the extra type n+1: a
    # sector takes it, a quasisector has none.  "03" and "+3" once fell
    # through to the support check.
    argv = ["sectors", "gens", "--base", "[1,2]", "--type", token]
    if quasi:
        assert main([*argv, "--quasi"]) == 2
        assert capsys.readouterr() == ("", "error: quasisectors have no n+1 type\n")
    else:
        assert main(argv) == 0
        assert capsys.readouterr() == ("hull/ray form of sector type n+1 at [1, 2]:\n"
                                       "  P [0, 0]\n  P [0, 2]\n  P [1, 0]\n", "")


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


def test_cli_verify_bounds_the_grid(tmp_path, monkeypatch, capsys):
    values = "zero," + ",".join(str(v) for v in range(1, 60))  # 60**4 points
    start = time.monotonic()
    conical = str(SPEC_FILES[0].parent / "conical-4d.json")
    assert main(["verify", conical, "--grid", values, "--property", "partition"]) == 2
    assert time.monotonic() - start < 2
    err = capsys.readouterr().err
    assert "grid of 60 values in 4 dimensions" in err and len(err.encode()) < 300

    # Every default grid of the shipped specs and of random valid specs up
    # to n = 5 is admitted.
    sizes = []
    monkeypatch.setattr("tropconv.cli.run_properties",
                        lambda obj, grid, *rest: sizes.append(grid.size) or [])
    rng = random.Random(8)
    files = list(SPEC_FILES)
    for model in (MT, MP):
        for n in (2, 3, 4, 5):
            for _ in range(20):
                for obj in (random_valid_spec(rng, model, n), random_valid_affine(rng, model, n)):
                    files.append(tmp_path / f"spec{len(files)}.json")
                    files[-1].write_text(canonical_text(obj))
    for path in files:
        assert main(["verify", str(path)]) == 0, path
    assert len(sizes) == len(files) and max(sizes) > 10 ** 4
    assert max(sizes) <= MAX_GRID_POINTS
    capsys.readouterr()


@pytest.mark.parametrize("values", ["", " ", ","])
def test_cli_verify_rejects_an_empty_grid(values, capsys):
    # An explicit empty grid once ran the default grid instead.
    conical = str(SPEC_FILES[0].parent / "conical-4d.json")
    assert main(["verify", conical, "--grid", values]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: bad grid: ") and len(err) < 300


@pytest.mark.parametrize("argv", [
    ["verify", "{box}", "--samples", "1000000000"],
    ["verify", "{box}", "--samples", "-5"],
    ["render2d", "{box}", "{out}", "--resolution", str(10**400)],
    ["verify", "{box}", "--samples", "9" * 5000],
    ["verify", "{box}", "--seed", "9" * 5000],
    ["render2d", "{box}", "{out}", "--resolution", "9" * 5000],
], ids=["samples-huge", "samples-negative", "resolution-huge", "samples-long",
        "seed-long", "resolution-long"])
def test_cli_integer_options_are_bounded(box_file, tmp_path, monkeypatch, capsys, argv):
    # Unbounded, a billion samples hang, negative samples pass every
    # sampled check vacuously, a 401-digit resolution overflows a float
    # in render_svg, and a 5,000-digit value is quoted in full.
    def accepted(*args):
        raise AssertionError("the option was accepted")

    monkeypatch.setattr("tropconv.cli.run_properties", accepted)
    monkeypatch.setattr("tropconv.cli.render_svg", accepted)
    argv = [a.format(box=box_file, out=tmp_path / "out.svg") for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and argv[-2] in captured.err
    assert len(captured.err.encode()) < 300 and "Traceback" not in captured.err


def test_cli_integer_options_accept_their_bounds(box_file, tmp_path, monkeypatch, capsys):
    seen = []
    monkeypatch.setattr("tropconv.cli.run_properties",
                        lambda obj, grid, samples, seed, which: seen.append((samples, seed)) or [])
    monkeypatch.setattr("tropconv.cli.render_svg",
                        lambda obj, config: seen.append(config.resolution) or "<svg/>")
    for samples, seed in (("1", "-7"), ("100000", "9" * 100)):
        assert main(["verify", box_file, "--samples", samples, "--seed", seed]) == 0
    for resolution in ("16", "10000"):
        assert main(["render2d", box_file, str(tmp_path / "out.svg"),
                     "--resolution", resolution]) == 0
    assert seen == [(1, -7), (100000, int("9" * 100)), 16, 10000]
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


def _shaded_member(geom, x) -> bool:
    """Whether the 2-d point x lies in the region `render_svg` shades,
    read from the exact geometry: {x1 in A, x2 in B} (rect) or
    {x2 in const, or x2 in x1 * lin} (curve), with the coordinates
    swapped when transposed and the region complemented when flipped."""
    a, b = x.at(1), x.at(2)
    if geom.transposed:
        a, b = b, a
    if geom.kind == "rect":
        inside = geom.A.contains(a) and geom.B.contains(b)
    else:
        inside = geom.const.contains(b) or _scaled_contains(geom.lin, a, b)
    return inside != geom.flip


def _scaled_contains(lin, a, b) -> bool:
    """b in a * lin (the down-set scaled by a)."""
    if a.is_bottom:
        return b.is_bottom
    if lin.threshold.is_top:
        return True
    bound = t_mul(a, lin.threshold)
    return b <= bound if lin.closed else b < bound


def test_render_classification_agrees_with_membership():
    rng = random.Random(77)
    for model in (MT, MP):
        for _ in range(12):
            h = random_valid_affine(rng, model, 2)
            geom = build_geometry(h)
            for x in _sample_plane_points(model, rng, 90):
                assert _shaded_member(geom, x) == affine_member(h, x), (
                    sorted(h.base.I), h.contains_zero, str(x),
                )
        for _ in range(6):
            spec = random_valid_spec(rng, model, 2)
            geom = build_geometry(spec)
            for x in _sample_plane_points(model, rng, 60):
                assert _shaded_member(geom, x) == conical_member(spec, x)


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
