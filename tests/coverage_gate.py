"""Line-coverage gate over src/nilk: every executable line is run by a test,
or is named in ALLOWED with the reason no test can run it.

    python tests/coverage_gate.py

It runs the Tier-1 suite in this process under a sys.settrace line tracer
that follows frames of src/nilk only, then lists every executable line no
test ran, and every ALLOWED entry that a test now runs or that names no
line.  It exits 1 if either list is non-empty or a test failed, else 0.
The executable lines of a module are the line numbers its compiled code
objects carry (co_lines), the lines a line event can name; a function's
own `def` line is left to the code that defines it, and the line 0 that
CPython gives a module's first instruction is not a line.  pytest does not
collect this file, as its name does not start with test_.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nilk"

# (module file, the line's text without its indent): why no test runs it;
# keyed by text, so an edit elsewhere in the module does not move an entry
ALLOWED = {
    ("cli.py", "sys.exit(main())"):
        "runs only as `python -m nilk.cli`, in a child process the tracer does not follow",
}


def executable_lines(path: Path) -> set[int]:
    code = compile(path.read_text(), str(path), "exec")
    lines, stack = set(), [code]
    while stack:
        co = stack.pop()
        own = {line for _, _, line in co.co_lines() if line}  # a module's entry is line 0
        lines |= own - {co.co_firstlineno} if co is not code else own
        stack.extend(c for c in co.co_consts if isinstance(c, type(code)))
    return lines


def run_traced(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code on args, and the lines of src/nilk each module ran."""
    ours = {str(p): p.name for p in PACKAGE.glob("*.py")}
    hits = defaultdict(set)

    def line(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename in ours else None

    sys.path.insert(0, str(PACKAGE.parent))
    sys.settrace(call)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
    return int(code), {ours[f]: lines for f, lines in hits.items()}


def main() -> int:
    code, ran = run_traced(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                            str(ROOT / "tests")])
    missed, stale = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text().splitlines()
        for n in sorted(executable_lines(path) - ran.get(path.name, set())):
            if (path.name, text[n - 1].strip()) not in ALLOWED:
                missed.append(f"src/nilk/{path.name}:{n}: {text[n - 1].strip()}")
    for (name, line), why in ALLOWED.items():
        path = PACKAGE / name
        numbers = [n for n, t in enumerate(path.read_text().splitlines(), 1) if t.strip() == line]
        if not numbers or any(n in ran.get(name, ()) for n in numbers):
            stale.append(f"src/nilk/{name}: {line!r} ({why})")
    print(f"\ncoverage gate: {len(missed)} executable lines no test ran, "
          f"{len(stale)} stale allow-list entries, pytest exit {code}")
    for item in missed:
        print("  not run:", item)
    for item in stale:
        print("  stale allowance:", item)
    return 1 if missed or stale or code else 0


if __name__ == "__main__":
    sys.exit(main())
