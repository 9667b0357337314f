"""Compare the label sweep and the code lines of this tree with a base tree.

Runs this tree's ``tests/sweep.py`` once against this tree's ``src`` and
once against the base tree's, and each tree's own ``tests/code_lines.py``.
Prints a Markdown summary: how many sweep lines differ and the first 20 of
them, then each module's code lines in both trees.  It fails only when one
of those commands fails, never because the trees differ:

    git worktree add --detach /tmp/base BASE_COMMIT
    python tests/compare_with_base.py /tmp/base

pytest does not collect this file (its name does not start with ``test_``).
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

HEAD = Path(__file__).resolve().parent.parent
SHOWN = 20


def _output(script: Path, src: Path) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run(
        [sys.executable, str(script)], env=env, check=True, capture_output=True, text=True
    )
    return run.stdout.splitlines()


def _code_lines(tree: Path) -> dict[str, int]:
    lines = _output(tree / "tests" / "code_lines.py", tree / "src")
    return {name: int(count) for name, count in (line.split() for line in lines)}


def main(base: Path) -> None:
    sweep = HEAD / "tests" / "sweep.py"
    before, after = _output(sweep, base / "src"), _output(sweep, HEAD / "src")
    differing = [(b, a) for b, a in zip(before, after) if b != a]
    print("### Label sweep against the base commit\n")
    print(f"{len(differing)} of {len(after)} lines differ.\n")
    if differing:
        print("```diff")
        for b, a in differing[:SHOWN]:
            print(f"- {b}\n+ {a}")
        print("```\n")
    old, new = _code_lines(base), _code_lines(HEAD)
    print("### Code lines (`tests/code_lines.py`)\n")
    print("| module | base | head | change |\n|---|---:|---:|---:|")
    for name in sorted(old.keys() | new.keys(), key=lambda n: (n == "total", n)):
        b, a = old.get(name, 0), new.get(name, 0)
        print(f"| {name} | {b} | {a} | {a - b:+d} |")


if __name__ == "__main__":
    main(Path(sys.argv[1]).resolve())
