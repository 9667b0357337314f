"""``compare_with_base.py``'s merge of two report tables and of two sweeps,
on small inputs: a table that gains or loses a column or a row is still
merged, and a sweep case only one tree prints is counted apart."""

from compare_with_base import merge_tables, sweep_diff

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
