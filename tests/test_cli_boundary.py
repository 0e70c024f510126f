"""`cli.main` is the one place where bad input becomes exit code 2.

Any `ValueError` a command raises reaches `main`, which prints
`error: <message>` and returns 2.  A command may still catch one to add
context or to pick another exit code, but a handler that only re-raises
the message as a `CliError` restates the boundary and is flagged.
"""

import ast
from pathlib import Path

import pytest

from tropconv import cli
from tropconv.cli import main


def _message_is_the_exception(arg, name) -> bool:
    """Whether a message node is str(name) or f"{name}"."""
    if isinstance(arg, ast.Call):
        return (isinstance(arg.func, ast.Name) and arg.func.id == "str" and len(arg.args) == 1
                and isinstance(arg.args[0], ast.Name) and arg.args[0].id == name)
    if isinstance(arg, ast.JoinedStr) and len(arg.values) == 1:
        value = arg.values[0]
        return (isinstance(value, ast.FormattedValue) and isinstance(value.value, ast.Name)
                and value.value.id == name)
    return False


def rethrowing_handlers(source: str) -> list[int]:
    """Lines of the `except` handlers whose whole body is
    `raise CliError(str(exc))` for the exception they caught."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ExceptHandler) or node.name is None or len(node.body) != 1:
            continue
        stmt = node.body[0]
        if (isinstance(stmt, ast.Raise) and isinstance(stmt.exc, ast.Call)
                and isinstance(stmt.exc.func, ast.Name) and stmt.exc.func.id == "CliError"
                and len(stmt.exc.args) == 1 and not stmt.exc.keywords
                and _message_is_the_exception(stmt.exc.args[0], node.name)):
            lines.append(node.lineno)
    return lines


def main_catches(source: str) -> set[str]:
    """The exception names that `main`'s handlers catch."""
    caught = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name == "main":
            for handler in (h for n in ast.walk(node) if isinstance(n, ast.Try)
                            for h in n.handlers):
                types = handler.type.elts if isinstance(handler.type, ast.Tuple) \
                    else [handler.type]
                caught.update(t.id for t in types if isinstance(t, ast.Name))
    return caught


CLI_SOURCE = Path(cli.__file__).read_text(encoding="utf-8")


def test_no_command_rethrows_a_value_error_as_is():
    assert rethrowing_handlers(CLI_SOURCE) == []


def test_main_is_the_value_error_boundary():
    assert "ValueError" in main_catches(CLI_SOURCE)
    assert not hasattr(cli.CliError("x"), "code") and issubclass(cli.CliError, ValueError)


PLANTED = '''
def cmd(args):
    try:
        x = parse_vector(args.point)
    except ValueError as exc:
        raise CliError(str(exc))
    try:
        y = parse_vector(args.base)
    except ValueError as err:
        raise CliError(f"{err}")
    try:
        z = parse_vector(args.other)
    except ValueError as exc:
        raise CliError(f"bad point: {exc}")

def main(argv):
    try:
        return cmd(argv)
    except CliError as exc:
        return 2
'''


def test_a_planted_rethrow_is_flagged():
    # The first two handlers only restate the message; the third adds context.
    assert rethrowing_handlers(PLANTED) == [5, 9]
    assert main_catches(PLANTED) == {"CliError"}


BOX = """{
  "model": "max-times", "n": 2, "affine": true, "contains_zero": true,
  "I": [3], "J": [1, 2],
  "sigma": [
    {"i": 3, "j": 1, "threshold": "1", "closed": true},
    {"i": 3, "j": 2, "threshold": "1", "closed": true}
  ]
}
"""

NUL = "a\x00b"


@pytest.mark.parametrize("argv", [
    ["check", NUL],
    ["complement", NUL],
    ["complement", "{box}", "-o", NUL],
    ["member", NUL, "[1,1]"],
    ["thin", NUL],
    ["halfspace", NUL],
    ["render2d", NUL, "{out}"],
    ["render2d", "{box}", NUL],
    ["verify", NUL],
], ids=["check", "complement", "complement-output", "member", "thin", "halfspace",
        "render2d", "render2d-output", "verify"])
def test_a_path_with_a_null_byte_exits_2(tmp_path, capsys, argv):
    # open() refuses such a path with a ValueError, not an OSError, so the
    # per-path handlers never saw it and it once ended in a traceback.
    box = tmp_path / "box.json"
    box.write_text(BOX)
    argv = [a.format(box=box, out=tmp_path / "out.svg") for a in argv]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: embedded null byte\n")
