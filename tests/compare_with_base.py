"""Compare the label sweep, the code lines, the numpy calls and the
allocation peaks of this tree with a base tree.

Runs this tree's ``tests/sweep.py`` once against this tree's ``src`` and
once against the base tree's, and each tree's own ``tests/code_lines.py``,
``tests/call_table.py`` and ``tests/peak_table.py``.  Prints a Markdown
summary: how many sweep lines differ and the first 20 of them, each
module's code lines in both trees, and each call and peak table of both
trees side by side, a cell that changed reading ``base → head`` (a table
that only one tree prints is printed as it is).  It only reports, and
fails only when one of those commands fails, never because the trees
differ:

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


def _tables(tree: Path, name: str) -> list[list[list[str]]]:
    """The Markdown tables that a tree's report script prints, each as its
    rows of cells."""
    tables: list[list[list[str]]] = []
    within = False
    for line in _output(tree / "tests" / name, tree / "src"):
        if line.startswith("|"):
            if not within:
                tables.append([])
            tables[-1].append([cell.strip() for cell in line.strip("|").split("|")])
        within = line.startswith("|")
    return tables


def _print_rows(rows: list[list[str]]) -> None:
    print("\n".join("| " + " | ".join(row) + " |" for row in rows) + "\n")


def _side_by_side(name: str, base: Path) -> None:
    """Each table of the head tree's script beside the base tree's table
    with the same header; a table only one tree prints is printed as it is."""
    print(f"### `tests/{name}`, base → head\n")
    if not (base / "tests" / name).is_file():
        print("The base tree has no such script.\n")
        return
    old = {tuple(table[0]): table for table in _tables(base, name)}
    new = {tuple(table[0]): table for table in _tables(HEAD, name)}
    for header, rows in new.items():
        before = old.get(header)
        if before is None:
            print("Only in head:\n")
            _print_rows(rows)
        elif [row[0] for row in before] != [row[0] for row in rows]:
            # Another layout: the two tables one after the other.
            _print_rows(before)
            _print_rows(rows)
        else:
            _print_rows([[y if x == y else f"{x} → {y}" for x, y in zip(b, a)] for b, a in zip(before, rows)])
    for header in (header for header in old if header not in new):
        print("Only in base:\n")
        _print_rows(old[header])


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
    print()
    for name in ("call_table.py", "peak_table.py"):
        _side_by_side(name, base)


if __name__ == "__main__":
    main(Path(sys.argv[1]).resolve())
