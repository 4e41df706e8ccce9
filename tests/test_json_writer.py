"""The CLI's JSON writer writes the bytes of
`json.dumps(obj, indent=2, ensure_ascii=False)`.

The golden digests pin a few outputs; these tests pin the writer itself
to the standard library on every table of rank at most 4 that `table`
accepts, on E6, on a table whose rows carry no report, on a deduplicated
table and on the heavy `compute` reports, whose names are not ASCII."""

import json
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagample import cli
from flagample.dynkin import parse_type
from flagample.errors import InvalidTypeError
from flagample.pipeline import CaseSpec, run_case, run_table, sweep_cases


def _reference(obj) -> str:
    return json.dumps(obj, indent=2, ensure_ascii=False)


def _accepted(label: str) -> bool:
    try:
        parse_type(label)
    except InvalidTypeError:
        return False
    return True


SMALL_TABLES = [
    f"{s}{n}" for s in "ABCDEFG" for n in range(1, 5) if _accepted(f"{s}{n}")
]


def _payload(dynkin, rows) -> dict:
    """The table as one object, as json.dumps would be given it."""
    return {
        "series": dynkin.series,
        "rank": dynkin.rank,
        "rows": [
            {
                "input": r["input"],
                "status": r["status"],
                "report": r["report"].to_json_dict() if r["report"] else None,
            }
            for r in rows
        ],
    }


def _assert_table_matches(label: str, **options):
    dynkin = parse_type(label)
    rows = run_table(dynkin, **options)
    out = []
    cli._table_json(dynkin, rows, out.append)
    assert "".join(out) == _reference(_payload(dynkin, rows)) + "\n"
    return rows


def test_small_tables_cover_every_series():
    assert {label[0] for label in SMALL_TABLES} == set("ABCDFG")
    assert len(SMALL_TABLES) == 14


@pytest.mark.parametrize("label", SMALL_TABLES + ["E6"])
def test_table_matches_json_dumps(label):
    rows = _assert_table_matches(label)
    assert all(r["status"] == "ok" for r in rows)


def test_capped_table_matches_json_dumps():
    """Every row is an EnumerationCap row with `report: null`."""
    rows = _assert_table_matches("A2", method="bruteforce", max_weyl=1)
    assert {r["status"] for r in rows} == {"EnumerationCap"}
    assert all(r["report"] is None for r in rows)


def test_deduplicated_table_matches_json_dumps():
    rows = _assert_table_matches("D4", dedupe=True)
    assert 0 < len(rows) < len(sweep_cases(parse_type("D4")))


ANCHORS = [
    ("E7", (7,), ()),
    ("E8", (1,), ()),
    ("A14", (1, 8), (2, 3)),
]


@pytest.mark.parametrize("label,noncompact,levi", ANCHORS)
def test_compute_report_matches_json_dumps(label, noncompact, levi):
    rep = run_case(CaseSpec(parse_type(label), noncompact, levi)).to_json_dict()
    assert cli._json_text(rep, 0, {}) == _reference(rep)


def test_anchor_names_are_not_ascii():
    """E7 {7} is named e7(C6⊕ℝ); the K of A14 {1,8} is A7×A6."""
    reports = [
        run_case(CaseSpec(parse_type(label), noncompact, levi))
        for label, noncompact, levi in ANCHORS
    ]
    assert "⊕ℝ" in reports[0].realform_name
    assert "×" in reports[2].k_type


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=20,
)


@given(st.lists(_json_values, max_size=4))
@settings(max_examples=200, deadline=None)
def test_arbitrary_values_match_json_dumps(values):
    """One cache shared across several values, as across a table's rows:
    an integer list cached at one depth is not reused at another, and
    [1] is not taken for [true]."""
    int_lists = {}
    for value in values + [[value] for value in values]:
        assert cli._json_text(value, 0, int_lists) == _reference(value)


@pytest.mark.parametrize(
    "value",
    [
        [[1], [True], [1], [True, 1], [1, 0]],
        {"a": [], "b": {}, "c": [[], {}], "d": [0, -1, 10**30]},
        "quote \" backslash \\ newline \n tab \t bell \x07 e7(C6⊕ℝ) ×  ",
    ],
)
def test_edge_values_match_json_dumps(value):
    assert cli._json_text(value, 0, {}) == _reference(value)


@pytest.mark.parametrize(
    "value",
    [(1, 2), 1.5, [1, 2.0], {"a": (1,)}, {1: 2}, [{"a": [0, 1.0]}]],
    ids=["tuple", "float", "float-in-list", "tuple-in-dict", "int-key", "nested"],
)
def test_other_types_raise_type_error(value):
    with pytest.raises(TypeError):
        cli._json_text(value, 0, {})
