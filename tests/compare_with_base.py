"""Compare the label sweep, the code lines, the numpy calls and the
allocation peaks of this tree with a base tree.

Runs this tree's ``tests/sweep.py`` once against this tree's ``src`` and
once against the base tree's, and each tree's own ``tests/code_lines.py``,
``tests/call_table.py`` and ``tests/peak_table.py``.  Prints a Markdown
summary: how many sweep lines differ, matched by their case, and how many
cases only one tree prints, with the first 20 lines of each kind; each
module's code lines in both trees; and each call and peak table of both
trees merged into one (``merge_tables``), a cell that changed reading
``base → head``.  Tables are matched by their first header cell, in the
order each tree prints them, so a table that gains or loses a column is
still merged, and the columns only one tree has are named below it (a
table that only one tree prints is printed as it is).  It only reports,
and fails only when one of those commands fails, never because the trees
differ:

    git worktree add --detach /tmp/base BASE_COMMIT
    python tests/compare_with_base.py /tmp/base

pytest does not collect this file (its name does not start with ``test_``).
"""

from __future__ import annotations

import json
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


def merge_tables(before: list[list[str]], after: list[list[str]]) -> tuple[list[list[str]], list[str], list[str]]:
    """One Markdown table (header, separator, body) from a base and a head
    table of the same first header cell, each given as its rows of cells,
    with the columns only the head has and those only the base has.

    Rows are matched by their first cell and columns by their header.  The
    merged table has the head's columns, and its rows are the head's, then
    those only the base has.  In a column both tables have, a cell reads
    ``base → head`` where the two differ, and ``–`` stands for the cell of
    a row one table lacks; a column only the head has shows its cells as
    they are.
    """
    old_columns = {name: i for i, name in enumerate(before[0])}
    old_rows = {row[0]: row for row in before[2:]}
    new_rows = {row[0]: row for row in after[2:]}
    keys = list(new_rows) + [key for key in old_rows if key not in new_rows]
    body = []
    for key in keys:
        old, new = old_rows.get(key), new_rows.get(key)
        row = [key]
        for i, name in enumerate(after[0][1:], start=1):
            b = "–" if old is None or name not in old_columns else old[old_columns[name]]
            a = "–" if new is None else new[i]
            row.append(a if name not in old_columns or a == b else f"{b} → {a}")
        body.append(row)
    added = [name for name in after[0] if name not in old_columns]
    removed = [name for name in before[0] if name not in after[0]]
    return [after[0], after[1], *body], added, removed


def _by_first_header_cell(tables: list[list[list[str]]]) -> dict[tuple[str, int], list[list[str]]]:
    """Each table under its first header cell and the number of tables
    before it with that cell."""
    keyed: dict[tuple[str, int], list[list[str]]] = {}
    for table in tables:
        seen = sum(key[0] == table[0][0] for key in keyed)
        keyed[table[0][0], seen] = table
    return keyed


def _side_by_side(name: str, base: Path) -> None:
    """Each table of the head tree's script merged with the base tree's
    table of the same first header cell (``merge_tables``); a table only
    one tree prints is printed as it is."""
    print(f"### `tests/{name}`, base → head\n")
    if not (base / "tests" / name).is_file():
        print("The base tree has no such script.\n")
        return
    old = _by_first_header_cell(_tables(base, name))
    new = _by_first_header_cell(_tables(HEAD, name))
    for key, rows in new.items():
        if key not in old:
            print("Only in head:\n")
            _print_rows(rows)
            continue
        merged, added, removed = merge_tables(old[key], rows)
        _print_rows(merged)
        for label, columns in (("head", added), ("base", removed)):
            if columns:
                print(f"Columns only in {label}: " + ", ".join(f"`{c}`" for c in columns) + ".\n")
    for key in (key for key in old if key not in new):
        print("Only in base:\n")
        _print_rows(old[key])


def sweep_diff(before: list[str], after: list[str]) -> tuple[list[tuple[str, str]], list[str], list[str]]:
    """The sweep lines of the cases both trees print that differ, as
    ``(base, head)`` pairs, then the lines of the cases only the base
    prints and of those only the head prints, each in its tree's order."""
    old = {json.loads(line)["case"]: line for line in before}
    new = {json.loads(line)["case"]: line for line in after}
    changed = [(old[case], line) for case, line in new.items() if case in old and old[case] != line]
    removed = [line for case, line in old.items() if case not in new]
    added = [line for case, line in new.items() if case not in old]
    return changed, removed, added


def main(base: Path) -> None:
    sweep = HEAD / "tests" / "sweep.py"
    after = _output(sweep, HEAD / "src")
    changed, removed, added = sweep_diff(_output(sweep, base / "src"), after)
    print("### Label sweep against the base commit\n")
    print(
        f"{len(changed)} of {len(after) - len(added)} lines differ; "
        f"{len(removed)} only in base, {len(added)} only in head.\n"
    )
    if changed or removed or added:
        print("```diff")
        for b, a in changed[:SHOWN]:
            print(f"- {b}\n+ {a}")
        for line in removed[:SHOWN]:
            print(f"- {line}")
        for line in added[:SHOWN]:
            print(f"+ {line}")
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
