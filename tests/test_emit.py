"""cli's report writer against its oracles.

results.json must be exactly ``json.dumps(report, indent=2, sort_keys=True,
allow_nan=False)`` plus a newline, and users.csv and fractions.csv exactly
what ``csv.writer`` writes for the same rows (``_csv_oracle`` below keeps that
writing path as the oracle).
"""

import csv
import io
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mirsim import cli

from testutil import small_config


def _dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)


def _written(doc, block_rows=cli._BLOCK_ROWS) -> str:
    with mock.patch.object(cli, "_BLOCK_ROWS", block_rows):
        return "".join(cli._json_chunks(doc))


def _csv_oracle(header, rows) -> bytes:
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().encode()


_FLOATS = (st.floats(allow_nan=False, allow_infinity=False)
           | st.sampled_from([-0.0, 0.0, 1e16, 5e-324, 1.7976931348623157e308, 0.1]))
_INTS = st.integers() | st.sampled_from([10**400, -(10**30), 2**63])
_TEXT = st.text() | st.sampled_from(["", "é ü", '"quoted"', "a,b", "line\nbreak", "\r\x00\x1f",
                                     "tab\t", "100%", "%s", "日本語", "😀"])
_SCALARS = (st.none() | st.booleans() | _INTS | _FLOATS | _TEXT
            | _FLOATS.map(np.float64))  # a float subclass


@st.composite
def _tables(draw, cells):
    """Rows of one width, or dicts of one key set, whose columns may mix types."""
    width = draw(st.integers(1, 4))
    kinds = [draw(st.sampled_from([_FLOATS, _INTS, _TEXT, cells])) for _ in range(width)]
    n = draw(st.integers(1, 7))
    columns = [draw(st.lists(kind, min_size=n, max_size=n)) for kind in kinds]
    rows = [list(row) for row in zip(*columns)]
    shape = draw(st.sampled_from(["lists", "tuples", "dicts"]))
    if shape == "dicts":
        keys = draw(st.lists(_TEXT, min_size=width, max_size=width, unique=True))
        return [dict(zip(keys, row)) for row in rows]
    return [tuple(row) for row in rows] if shape == "tuples" else rows


_DOCS = st.recursive(
    _SCALARS,
    lambda children: (st.lists(children, max_size=5) | st.tuples(children, children)
                      | st.dictionaries(_TEXT, children, max_size=5) | _tables(children)),
    max_leaves=30)


@settings(max_examples=400, deadline=None)
@given(_DOCS, st.sampled_from([1, 2, 3, 512]))
def test_writer_matches_json_dumps(doc, block_rows):
    assert _written(doc, block_rows) == _dumps(doc)


@pytest.mark.parametrize("doc", [
    3.0, -0.0, 5e-324, 1e16, 10**400, True, None, "", "é\n\"", [], {}, [[]], [{}], [[], []],
    [[1, 2], [3]], [{"a": 1}, {"b": 2}], [{"a": 1}, [1]], [[1, 2], (3, 4)],
    {"a": [[0, "x", 1.5], [1, "y", -2.5]], "b": [{"k": None, "j": [1, 2]}, {"k": 1, "j": []}]},
    [[np.float64(0.1), 1], [2.5, np.float64(-0.0)]], [[True, 1], [1, 1.0]],
])
def test_writer_matches_json_dumps_on_edge_cases(doc):
    assert _written(doc) == _dumps(doc)
    assert _written(doc, block_rows=1) == _dumps(doc)


_NON_FINITE = [math.nan, math.inf, -math.inf, np.float64("nan"), np.float64("-inf")]


@pytest.mark.parametrize("bad", _NON_FINITE)
@pytest.mark.parametrize("place", [
    lambda v: v,
    lambda v: [1.0, v],
    lambda v: {"a": {"b": [v]}},
    lambda v: [[0, "s", 1.0], [1, "t", v]],  # a table's float column
    lambda v: [[0, 1.0]] * 3 + [[1, v]],  # in a later block
    lambda v: [{"x": 1.0, "y": None}, {"x": v, "y": None}],
])
def test_writer_rejects_non_finite_numbers(bad, place):
    doc = place(bad)
    with pytest.raises(ValueError, match="JSON compliant"):
        _dumps(doc)
    with pytest.raises(ValueError, match="JSON compliant"):
        _written(doc, block_rows=2)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(_FLOATS, min_size=3, max_size=3), min_size=1, max_size=9),
       st.data())
def test_writer_rejects_a_non_finite_cell_anywhere_in_a_table(rows, data):
    row = data.draw(st.integers(0, len(rows) - 1))
    rows[row][data.draw(st.integers(0, 2))] = data.draw(st.sampled_from(_NON_FINITE))
    with pytest.raises(ValueError, match="JSON compliant"):
        _written(rows, block_rows=data.draw(st.sampled_from([1, 2, 512])))


@pytest.mark.parametrize("doc", [
    object(), {1, 2}, np.int64(3), b"bytes", [1, object()], {"a": np.bool_(True)},
    [[1, np.int64(2)], [3, 4]], [{"a": 1, "b": {2}}, {"a": 3, "b": 4}],
])
def test_writer_rejects_unsupported_types(doc):
    with pytest.raises(TypeError):
        _dumps(doc)
    with pytest.raises(TypeError):
        _written(doc)


def test_writer_takes_only_string_keys():
    for doc in ({1: "a"}, [{1: 0}, {1: 2}]):
        with pytest.raises(TypeError):
            _written(doc)


def test_a_csv_table_must_have_one_width_or_key_set():
    pieces = ["header\r\n"]
    rows = [[1, 2.0], [3]]
    with pytest.raises(TypeError, match="one width or key set"):
        "".join(cli._json_chunks({"rows": rows}, feeds={id(rows): (pieces, range(2))}))


def _assert_outputs_match_oracles(report, out):
    paths = cli.emit_outputs(report, out)
    assert paths["results"].read_text() == _dumps(vars(report)) + "\n"
    assert paths["users"].read_bytes() == _csv_oracle(cli.USERS_COLUMNS, report.per_user["rows"])
    fraction_rows = [[f["slot"], f["pair"], f["alpha_weak"], f["alpha_strong"]]
                     for f in report.power_fractions]
    assert paths["fractions"].read_bytes() == _csv_oracle(cli.FRACTIONS_COLUMNS, fraction_rows)


@pytest.mark.parametrize("num_users", [5, 6])  # odd: the unpaired user's strong_user is None
def test_emitted_run_matches_json_and_csv_oracles(tmp_path, num_users):
    cfg = small_config(num_users=num_users, num_slots=3)
    report = cli.run_experiment(cfg, ["M-IRS-NOMA", "No-IRS-NOMA", "M-IRS-OMA"], [1, 2])
    with mock.patch.object(cli, "_BLOCK_ROWS", 4):  # several blocks per table
        _assert_outputs_match_oracles(report, tmp_path / "small-blocks")
    _assert_outputs_match_oracles(report, tmp_path / "default-blocks")


_CELLS = (st.none() | st.booleans() | _INTS | _FLOATS | _TEXT | _FLOATS.map(np.float64)
          | st.lists(_INTS, max_size=2))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(_CELLS, min_size=7, max_size=7), max_size=6),
       st.lists(st.fixed_dictionaries({key: _CELLS for key in [
           "scenario", "slot", "pair", "weak_user", "strong_user", "alpha_weak",
           "alpha_strong"]}), max_size=6),
       st.sampled_from([1, 2, 512]))
def test_emitted_tables_match_json_and_csv_oracles(tmp_path_factory, users, fractions,
                                                   block_rows):
    report = cli.ExperimentReport(per_user={"columns": cli.USERS_COLUMNS, "rows": users},
                                  power_fractions=fractions)
    with mock.patch.object(cli, "_BLOCK_ROWS", block_rows):
        _assert_outputs_match_oracles(report, tmp_path_factory.mktemp("out"))
