import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rician_mimo.results import (
    FIELD_NAMES,
    ResultRow,
    emit_results,
    parse_csv,
    render_csv,
    render_json,
)


def make_row(**overrides):
    base = dict(
        scenario_id="s1",
        scheme="conv_single",
        snr_db=0.0,
        user_id=0,
        se_value=1.25,
        se_stderr=0.01,
        se_de=1.24,
        tau_used=20,
        prelog=0.96,
        seed=3,
    )
    base.update(overrides)
    return ResultRow(**base)


def test_csv_header_and_row_count():
    text = render_csv([make_row(), make_row(user_id=1)])
    lines = text.split("\n")
    assert lines[0] == ",".join(FIELD_NAMES)
    assert len(lines) == 4 and lines[-1] == ""  # trailing LF


def test_csv_full_precision_round_trip():
    row = make_row(se_value=1 / 3, se_stderr=2 / 7, se_de=1e-17)
    back = parse_csv(render_csv([row]))[0]
    assert back.se_value == row.se_value
    assert back.se_stderr == row.se_stderr
    assert back.se_de == row.se_de


def test_csv_optional_fields_empty():
    row = make_row(se_stderr=None, se_de=None)
    text = render_csv([row])
    back = parse_csv(text)[0]
    assert back.se_stderr is None
    assert back.se_de is None


def test_csv_uses_lf_only():
    assert "\r" not in render_csv([make_row()])


def test_csv_deterministic():
    rows = [make_row(user_id=i, se_value=0.1 * i) for i in range(5)]
    assert render_csv(rows) == render_csv(rows)


def test_parse_rejects_bad_header():
    with pytest.raises(ValueError):
        parse_csv("foo,bar\n1,2\n")


def test_json_round_trips_values():
    rows = [make_row(), make_row(scheme="stat_multi", se_stderr=None)]
    data = json.loads(render_json(rows))
    assert len(data) == 2
    assert data[0]["se_value"] == rows[0].se_value
    assert data[1]["se_stderr"] is None


def test_emit_results_writes_file(tmp_path):
    path = emit_results([make_row()], "csv", tmp_path / "sub" / "out.csv")
    raw = path.read_bytes()
    assert raw == render_csv([make_row()]).encode()
    assert b"\r" not in raw


def test_emit_rejects_bad_input(tmp_path):
    with pytest.raises(ValueError):
        emit_results([], "csv", tmp_path / "out.csv")
    with pytest.raises(ValueError):
        emit_results([make_row()], "xml", tmp_path / "out.xml")


@pytest.mark.parametrize(
    "field, value",
    [
        ("se_value", float("nan")),
        ("se_value", float("inf")),
        ("se_value", -1e-18),
        ("se_stderr", float("nan")),
        ("se_stderr", -1e-18),
        ("se_de", float("-inf")),
        ("se_de", -0.287),
    ],
)
def test_row_rejects_non_finite_or_negative_se(field, value):
    with pytest.raises(ValueError, match=field):
        make_row(**{field: value})


@settings(max_examples=30, deadline=None)
@given(
    se=st.floats(0, 1e6, allow_nan=False),
    stderr=st.one_of(st.none(), st.floats(0, 10, allow_nan=False)),
    snr=st.floats(-50, 50),
    seed=st.integers(0, 2**31),
)
def test_csv_round_trip_property(se, stderr, snr, seed):
    row = make_row(se_value=se, se_stderr=stderr, snr_db=snr, seed=seed)
    back = parse_csv(render_csv([row]))[0]
    assert back == row or (stderr == 0.0 and back.se_stderr is None)
