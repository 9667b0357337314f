"""``compare_with_base.py``'s merge of two report tables and of two sweeps,
and its list of the names only one source tree defines, on small inputs: a
table that gains or loses a column or a row is still merged, a sweep case
only one tree prints is counted apart, and a deleted or added function,
class or module constant is named with its code lines."""

from compare_with_base import definitions, merge_tables, names_only_in_one, sweep_diff

BASE = [
    ["shape", "256²", "1024²"],
    ["---", "---", "---"],
    ["square", "0.031", "0.119"],
    ["cone", "0.041", "0.117"],
    ["kite", "0.037", "0.115"],
]

HEAD = [
    ["shape", "256²", "2048²", "1024²"],
    ["---", "---", "---", "---"],
    ["square", "0.030", "0.142", "0.119"],
    ["cone", "0.041", "0.178", "0.120"],
    ["disk", "0.050", "0.160", "0.130"],
]


def test_tables_merge_by_row_and_column():
    merged, added, removed = merge_tables(BASE, HEAD)
    assert merged == [
        ["shape", "256²", "2048²", "1024²"],
        ["---", "---", "---", "---"],
        ["square", "0.031 → 0.030", "0.142", "0.119"],
        ["cone", "0.041", "0.178", "0.117 → 0.120"],
        ["disk", "– → 0.050", "0.160", "– → 0.130"],
        ["kite", "0.037 → –", "–", "0.115 → –"],
    ]
    assert (added, removed) == (["2048²"], [])


def test_a_removed_column_is_named_and_not_shown():
    merged, added, removed = merge_tables(HEAD, BASE)
    assert merged[0] == BASE[0]
    assert merged[2] == ["square", "0.030 → 0.031", "0.119"]
    assert (added, removed) == ([], ["2048²"])


def test_same_tables_merge_to_the_head_table():
    assert merge_tables(BASE, BASE) == (BASE, [], [])


def test_sweep_lines_match_by_case():
    before = ['{"case": "a", "label": "Kite"}', '{"case": "b", "label": "Cone"}', '{"case": "c", "label": "Square"}']
    after = ['{"case": "a", "label": "Kite"}', '{"case": "c", "label": "Rhombus"}', '{"case": "d", "label": "Cone"}']
    changed, removed, added = sweep_diff(before, after)
    assert changed == [(before[2], after[1])]
    assert removed == [before[1]]
    assert added == [after[2]]


BASE_GEOMETRY = '''"""Module docstring."""

import math

#: A comment is no code line.
LIMIT = 1 << 20
LOW, HIGH = 0, 1


def _span(pts):
    """Docstring lines do not count."""
    return max(pts) - min(pts)


def kept(x):
    return x
'''

HEAD_GEOMETRY = '''"""Module docstring."""

import functools

LIMIT = 1 << 20
LOW = 0


def kept(x):
    return x


@functools.cache
def added(x):
    if x:
        return 1
    return 2


class Shape:
    """Docstring."""

    side: int = 0
'''


def _tree(root, **modules):
    package = root / "src" / "shapeid"
    package.mkdir(parents=True)
    for name, source in modules.items():
        (package / f"{name}.py").write_text(source)
    return package


def test_names_only_one_tree_defines(tmp_path):
    base = _tree(tmp_path / "base", geometry=BASE_GEOMETRY, pgm="SIDE = 4\n")
    head = _tree(tmp_path / "head", geometry=HEAD_GEOMETRY, segment="def spans():\n    pass\n")
    assert definitions(base) == {
        "geometry.LIMIT": 1,
        "geometry.LOW": 1,
        "geometry.HIGH": 1,
        "geometry._span": 2,
        "geometry.kept": 2,
        "pgm.SIDE": 1,
    }
    removed, added = names_only_in_one(definitions(base), definitions(head))
    assert removed == [("geometry.HIGH", 1), ("geometry._span", 2), ("pgm.SIDE", 1)]
    assert added == [("geometry.Shape", 2), ("geometry.added", 5), ("segment.spans", 2)]
