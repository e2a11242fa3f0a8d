"""Which lines of ``src/polyscale`` the program's own entry points reach.

Runs demos 01-05 and the CLI tests (``tests/test_cli.py``) in one process
under ``sys.settrace``, recording only frames whose code lives in
``src/polyscale``, then prints per module the executable lines that nothing
reached, and a table of each module's physical, executable and unreached
lines with the ``src/polyscale`` totals.  Lines of a ``raise`` statement are set aside and counted apart:
they guard input the entry points do not send.  A line that only tests
outside ``test_cli.py`` reach shows up here as unreached, which is what makes
it a deletion candidate.

Not collected by pytest (the name does not start with ``test_``).  Run it
from any directory:

    python tests/line_reach.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import runpy
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "polyscale"
DEMOS = sorted((ROOT / "demos").glob("0[1-5]_*.py"))
CLI_TESTS = ROOT / "tests" / "test_cli.py"


def executable_lines(code) -> set[int]:
    """Line numbers that carry bytecode, over a code object and its children."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= executable_lines(const)
    return lines


def raise_lines(tree) -> set[int]:
    """Every line of every ``raise`` statement."""
    return {line for node in ast.walk(tree) if isinstance(node, ast.Raise)
            for line in range(node.lineno, node.end_lineno + 1)}


def record(run) -> dict[str, set[int]]:
    """Lines of ``src/polyscale`` reached while ``run()`` runs, per file."""
    prefix = str(PACKAGE) + "/"
    reached: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        reached.setdefault(filename, set()).add(frame.f_lineno)
        return local

    sys.settrace(tracer)
    try:
        run()
    finally:
        sys.settrace(None)
    return reached


def run_entry_points() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    for demo in DEMOS:
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(demo), run_name="__main__")
    import pytest

    code = pytest.main(["-q", "-p", "no:cacheprovider", str(CLI_TESTS)])
    if code != 0:
        raise SystemExit(f"{CLI_TESTS.name} failed (pytest exit code {code})")


def main() -> int:
    reached = record(run_entry_points)
    rows = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        executable = executable_lines(compile(text, str(path), "exec"))
        missed = executable - reached.get(str(path), set())
        guarded = missed & raise_lines(ast.parse(text))
        rows.append((path, text.splitlines(), len(executable), sorted(missed - guarded),
                     len(guarded)))
    for path, source, _, missed, _ in rows:
        if missed:
            print(f"\n{path.relative_to(ROOT)}")
        for line in missed:
            print(f"  {line:>4}  {source[line - 1].strip()}")
    print(f"\n{'module':<16}{'lines':>7}{'executable':>11}{'unreached':>10}{'raise':>7}")
    for path, source, n, missed, guarded in rows:
        print(f"{path.name:<16}{len(source):>7}{n:>11}{len(missed):>10}{guarded:>7}")
    print(f"{'total':<16}{sum(len(r[1]) for r in rows):>7}{sum(r[2] for r in rows):>11}"
          f"{sum(len(r[3]) for r in rows):>10}{sum(r[4] for r in rows):>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
