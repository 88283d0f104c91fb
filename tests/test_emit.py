"""cli's table formatter against its oracles.

json.dumps writes results.json except its two big tables, which ``cli._table``
formats column by column.  Its JSON half must be exactly ``json.dumps(rows,
indent=2, sort_keys=True, allow_nan=False)`` at the indent where the table sits,
and its CSV half exactly what ``csv.writer`` writes for the same rows
(``_csv_oracle`` below keeps that writing path as the oracle).  The whole
results.json must be ``json.dumps(report, ...)`` plus a newline.
"""

import csv
import io
import itertools
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mirsim import cli

from testutil import small_config

# A table at the top level, and where power_fractions and per_user.rows sit in the report.
_INDENTS = ["\n", "\n  ", "\n    "]


def _dumps(doc, nl="\n") -> str:
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False).replace("\n", nl)


def _formatted(rows, nl="\n", csv_keys=(), block_rows=cli._BLOCK_ROWS) -> tuple[str, bytes]:
    with mock.patch.object(cli, "_BLOCK_ROWS", block_rows):
        json_pieces, csv_pieces = cli._table(rows, nl, csv_keys)
    return "".join(json_pieces), "".join(csv_pieces).encode()


def _csv_oracle(rows) -> bytes:
    buffer = io.StringIO(newline="")
    csv.writer(buffer).writerows(rows)
    return buffer.getvalue().encode()


def _assert_table_matches_oracles(rows, nl, csv_keys, block_rows):
    text, cells = _formatted(rows, nl, csv_keys, block_rows)
    assert text == _dumps(rows, nl)
    assert cells == _csv_oracle([[row[key] for key in csv_keys] for row in rows])


_FLOATS = (st.floats(allow_nan=False, allow_infinity=False)
           | st.sampled_from([-0.0, 0.0, 1e16, 5e-324, 1.7976931348623157e308, 0.1]))
_INTS = st.integers() | st.sampled_from([10**400, -(10**30), 2**63])
_TEXT = st.text() | st.sampled_from(["", "é ü", '"quoted"', "a,b", "line\nbreak", "\r\x00\x1f",
                                     "tab\t", "100%", "%s", "日本語", "😀"])
_SCALARS = (st.none() | st.booleans() | _INTS | _FLOATS | _TEXT
            | _FLOATS.map(np.float64))  # a float subclass
_CELLS = st.recursive(
    _SCALARS, lambda children: st.lists(children, max_size=3)
    | st.dictionaries(_TEXT, children, max_size=3), max_leaves=8)


@st.composite
def _tables(draw):
    """(rows, csv_keys): list rows of one width or dict rows of one key set, whose columns
    may mix types, and two or more of their columns in any order."""
    width = draw(st.integers(2, 4))
    kinds = [draw(st.sampled_from([_FLOATS, _INTS, _TEXT, _CELLS])) for _ in range(width)]
    n = draw(st.integers(1, 7))
    rows = [list(row) for row in zip(*(draw(st.lists(kind, min_size=n, max_size=n))
                                       for kind in kinds))]
    keys = list(range(width))
    if draw(st.booleans()):
        keys = draw(st.lists(_TEXT, min_size=width, max_size=width, unique=True))
        rows = [dict(zip(keys, row)) for row in rows]
    return rows, draw(st.permutations(keys).map(lambda keys: keys[:max(2, len(keys) - 1)]))


@settings(max_examples=400, deadline=None)
@given(_tables(), st.sampled_from(_INDENTS), st.sampled_from([1, 2, 3, 512]))
def test_writer_matches_json_dumps(table, nl, block_rows):
    rows, csv_keys = table
    _assert_table_matches_oracles(rows, nl, csv_keys, block_rows)


@pytest.mark.parametrize("doc", [  # each value as a table cell
    3.0, -0.0, 5e-324, 1e16, 10**400, True, None, "", "é\n\"", [], {}, [[]], [{}], [[], []],
    [[1, 2], [3]], [{"a": 1}, {"b": 2}], [{"a": 1}, [1]], [[1, 2], (3, 4)],
    {"a": [[0, "x", 1.5], [1, "y", -2.5]], "b": [{"k": None, "j": [1, 2]}, {"k": 1, "j": []}]},
    [[np.float64(0.1), 1], [2.5, np.float64(-0.0)]], [[True, 1], [1, 1.0]],
])
def test_writer_matches_json_dumps_on_edge_cases(doc):
    tables = [([[doc, 1.5], [0, doc], ["x", doc]], [1, 0]),
              ([{"b": doc, "a": 2}] * 3, ["a", "b"]),
              ([[doc, doc], [doc, doc]], [0, 1])]
    for (rows, csv_keys), nl, block_rows in itertools.product(tables, _INDENTS, [1, 512]):
        _assert_table_matches_oracles(rows, nl, csv_keys, block_rows)
    assert _formatted([[doc]])[0] == _dumps([[doc]])  # one column
    assert _formatted([]) == ("[]", b"")


_NON_FINITE = [math.nan, math.inf, -math.inf, np.float64("nan"), np.float64("-inf")]


@pytest.mark.parametrize("bad", _NON_FINITE)
@pytest.mark.parametrize("place", [
    lambda v: [[v]],
    lambda v: [[0, [1.0, v]]],  # inside a list cell
    lambda v: [{"a": {"b": [v]}, "c": 0}],  # inside a dict cell
    lambda v: [[0, "s", 1.0], [1, "t", v]],  # a float column
    lambda v: [[0, 1.0]] * 3 + [[1, v]],  # in a later block
    lambda v: [{"x": 1.0, "y": None}, {"x": v, "y": None}],
])
def test_writer_rejects_non_finite_numbers(bad, place):
    rows = place(bad)
    with pytest.raises(ValueError, match="JSON compliant"):
        _dumps(rows)
    with pytest.raises(ValueError, match="JSON compliant"):
        _formatted(rows, block_rows=2)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(_FLOATS, min_size=3, max_size=3), min_size=1, max_size=9),
       st.data())
def test_writer_rejects_a_non_finite_cell_anywhere_in_a_table(rows, data):
    row = data.draw(st.integers(0, len(rows) - 1))
    rows[row][data.draw(st.integers(0, 2))] = data.draw(st.sampled_from(_NON_FINITE))
    with pytest.raises(ValueError, match="JSON compliant"):
        _formatted(rows, csv_keys=range(3), block_rows=data.draw(st.sampled_from([1, 2, 512])))


@pytest.mark.parametrize("doc", [  # each value as a table cell
    object(), {1, 2}, np.int64(3), b"bytes", [1, object()], {"a": np.bool_(True)},
    [[1, np.int64(2)], [3, 4]], [{"a": 1, "b": {2}}, {"a": 3, "b": 4}],
])
def test_writer_rejects_unsupported_types(doc):
    for rows in ([[0, doc]], [[0, 1], [2, doc]], [{"a": 0, "b": doc}]):
        with pytest.raises(TypeError):
            _dumps(rows)
        with pytest.raises(TypeError):
            _formatted(rows)


def test_writer_takes_only_string_keys():
    for rows in ([{1: 0}, {1: 2}], [{"a": 0, 1: 2}]):
        with pytest.raises(TypeError):
            _formatted(rows)


def test_a_csv_table_must_have_one_width_or_key_set():
    for rows in ([[1, 2.0], [3]], [{"a": 1}, {"b": 2}], [[1], {"a": 1}], [[]], [{}], [(1, 2)],
                 [1, 2]):
        with pytest.raises(TypeError, match="one width or dict rows of one key set"):
            _formatted(rows)


def _assert_outputs_match_oracles(report, out):
    paths = cli.emit_outputs(report, out)
    assert paths["results"].read_text() == _dumps(vars(report)) + "\n"
    assert paths["users"].read_bytes() == _csv_oracle([cli.USERS_COLUMNS,
                                                       *report.per_user["rows"]])
    assert paths["fractions"].read_bytes() == _csv_oracle([cli.FRACTIONS_COLUMNS, *(
        [f["slot"], f["pair"], f["alpha_weak"], f["alpha_strong"]]
        for f in report.power_fractions)])


@pytest.mark.parametrize("num_users", [5, 6])  # odd: the unpaired user's strong_user is None
def test_emitted_run_matches_json_and_csv_oracles(tmp_path, num_users):
    cfg = small_config(num_users=num_users, num_slots=3)
    report = cli.run_experiment(cfg, ["M-IRS-NOMA", "No-IRS-NOMA", "M-IRS-OMA"], [1, 2])
    with mock.patch.object(cli, "_BLOCK_ROWS", 4):  # several blocks per table
        _assert_outputs_match_oracles(report, tmp_path / "small-blocks")
    _assert_outputs_match_oracles(report, tmp_path / "default-blocks")


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
