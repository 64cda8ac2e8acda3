"""List the lines of ``src/streamguard`` that no tier-1 test runs.

Run from the root of a source checkout:

    PYTHONPATH=src python tests/unreached_lines.py

It runs the tier-1 suite in this process under a line tracer
(``sys.settrace``, and ``threading.settrace`` for the threads the tests
start), with no coverage package.  A line is executable when the module's
compiled code maps an instruction to it.  Each executable line that no test
reached is printed as ``path:line: text``; the script exits 1 when one of
them is not in the allowlist, ``tests/unreached_lines.txt``, or when an
allowed line was reached after all (its entry is then stale), and 0
otherwise.

The tracer makes the suite about three times slower, so the tests that
bound a wall time, marked ``timing``, are deselected.  Every other test must
pass under it: the script stops with exit 2 when one fails, or when pytest
did not run the suite (a collection error, a usage error, an interrupt).
Lines run only in a child process, such as a ``--jobs`` worker or a command
started by ``subprocess``, are not seen.  Line numbers differ between
Python versions; CI runs it on one.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "streamguard"
ALLOWLIST = Path(__file__).resolve().with_name("unreached_lines.txt")


def executable_lines(path: Path) -> set:
    """Every line the compiled module, or any code object in it, maps an
    instruction to.  A module's first instruction is on line 0, which no
    line event reports."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


def read_allowlist() -> dict:
    """``{(path, stripped line text): reason}``, from lines of the form
    ``path | text | reason``; ``#`` starts a comment line."""
    allowed = {}
    for raw in ALLOWLIST.read_text(encoding="utf-8").splitlines():
        if raw.strip() and not raw.lstrip().startswith("#"):
            path, text, reason = (part.strip() for part in raw.split("|", 2))
            allowed[path, text] = reason
    return allowed


def run_traced(files: list) -> dict:
    """Run tier-1 under the tracer; returns ``{file: lines reached}``."""
    import pytest

    reached = {str(p): set() for p in files}

    def line_tracer(add):
        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local
        return local

    tracers = {name: line_tracer(lines.add) for name, lines in reached.items()}

    def trace(frame, event, arg):
        return tracers.get(frame.f_code.co_filename)

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "-m", "not timing",
                            "--rootdir", str(ROOT), str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if code != pytest.ExitCode.OK:
        print(f"the suite did not pass under the tracer (pytest exit {int(code)})",
              file=sys.stderr)
        raise SystemExit(2)
    return reached


def main() -> int:
    files = sorted(PACKAGE.rglob("*.py"))
    reached = run_traced(files)
    allowed = read_allowlist()
    used, unexpected, total = set(), 0, 0
    for path in files:
        rel = path.relative_to(ROOT).as_posix()
        source = path.read_text(encoding="utf-8").splitlines()
        lines = executable_lines(path)
        total += len(lines)
        for line in sorted(lines - reached[str(path)]):
            key = (rel, source[line - 1].strip())
            if key in allowed:
                used.add(key)
                print(f"{rel}:{line}: {key[1]}  (allowed: {allowed[key]})")
            else:
                unexpected += 1
                print(f"{rel}:{line}: {key[1]}")
    stale = sorted(set(allowed) - used)
    for rel, text in stale:
        print(f"{ALLOWLIST.name}: '{rel} | {text}' is reached or gone; remove its entry")
    print(f"{total} executable lines in {len(files)} files; {unexpected} unreached and "
          f"not allowed, {len(used)} allowed, {len(stale)} stale allowlist entries")
    return 1 if unexpected or stale else 0


if __name__ == "__main__":
    sys.exit(main())
