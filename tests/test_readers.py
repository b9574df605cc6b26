"""Property tests: each CSV reader against a per-row reference reader."""

import math
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sensorgp import data
from sensorgp.errors import FormatError, InputError
from helpers import (
    LineError,
    reference_query_csv,
    reference_sensor_csv,
    reference_weather_csv,
    rows_of,
)

START = datetime(2021, 11, 1, tzinfo=timezone.utc)
SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
BLANK_LINES = st.sampled_from(["", ",,,,", "  "])
WEATHER_NAMES = data.WEATHER_COLUMNS[1:]


def stamp(hour, minute, form):
    """A timestamp in one of the four accepted spellings."""
    ts = START + timedelta(hours=hour, minutes=minute)
    if form == 0:
        return ts.strftime("%Y-%m-%dT%H:%M:%SZ")
    if form == 1:
        return ts.isoformat()
    if form == 2:
        return ts.strftime("%Y-%m-%d %H:%M:%S")   # naive: taken as UTC
    return ts.astimezone(timezone(timedelta(hours=3, minutes=30))).isoformat()


stamps = st.builds(stamp, st.integers(0, 11), st.integers(0, 59), st.integers(0, 3))
coordinates = st.floats(-90, 90).map(repr)
good_numbers = st.floats(-1e3, 1e3).map(repr)
bad_numbers = st.sampled_from(["nan", "inf", "-inf", "calm", ""])


def write(path, header, lines):
    path.write_text("\n".join([",".join(header)] + lines) + "\n", encoding="utf-8")


def line_error(reader, *args):
    """The line a reference reader rejects, or None."""
    try:
        reader(*args)
    except LineError as err:
        return err.line
    return None


@st.composite
def sensor_files(draw):
    header = draw(st.permutations(data.SENSOR_COLUMNS + ("battery",)))
    pm_cells = st.one_of(
        st.floats(0, 500).map(repr),
        st.sampled_from(["", "n/a", "-4.0", "nan", "inf", "-0.5"]),
    )
    row = st.fixed_dictionaries({
        "site_id": st.sampled_from(["a", "b", " s1", "site02"]),
        "latitude": coordinates,
        "longitude": coordinates,
        "timestamp": stamps,
        "pm2_5": pm_cells,
        "battery": st.just("88"),
    }).map(lambda cells: ",".join(cells[c] for c in header))
    lines = draw(st.lists(st.one_of(row, row, row, BLANK_LINES), min_size=1, max_size=40))
    return header, lines


@SETTINGS
@given(sensor_files())
def test_load_sensor_csv_matches_the_per_row_reader(tmp_path, spec):
    header, lines = spec
    path = tmp_path / "s.csv"
    write(path, header, lines)
    rows, (read, dropped, duplicates) = reference_sensor_csv(path)
    if not rows:
        with pytest.raises(InputError, match="no usable readings"):
            data.load_sensor_csv(path)
        return
    readings, report = data.load_sensor_csv(path)
    assert rows_of(readings) == rows   # order, first coordinates, exact means
    assert (report.rows_read, report.dropped_bad_value, report.duplicates_averaged) == (
        read, dropped, duplicates
    )
    assert readings.hour.dtype == np.int64 and readings.covariates is None


@SETTINGS
@given(
    hours=st.lists(st.integers(-30, 200), min_size=1, max_size=25, unique=True),
    values=st.lists(st.lists(good_numbers, min_size=6, max_size=6), min_size=25, max_size=25),
    blanks=st.lists(st.tuples(st.integers(0, 25), BLANK_LINES), max_size=3),
    fault=st.one_of(
        st.none(),
        st.tuples(st.integers(0, 24), st.integers(0, 5), bad_numbers),
        st.tuples(st.integers(0, 24), st.just("duplicate"), st.integers(1, 59)),
        st.tuples(st.integers(0, 24), st.just("timestamp"), st.just("noon")),
    ),
)
def test_load_weather_csv_matches_the_per_row_reader(tmp_path, hours, values, blanks, fault):
    rows = [[stamp(h, 0, h % 4)] + list(v) for h, v in zip(hours, values)]
    if fault is not None and fault[0] < len(rows):
        at, column, text = fault
        if column == "duplicate":
            if at == 0:
                at = 1
            rows.insert(at, [stamp(hours[0], text, 0)] + list(values[0]))
        elif column == "timestamp":
            rows[at][0] = text
        else:
            rows[at][1 + column] = text
    lines = [",".join(r) for r in rows]
    for at, blank in blanks:
        lines.insert(min(at, len(lines)), blank)
    path = tmp_path / "w.csv"
    write(path, data.WEATHER_COLUMNS, lines)

    bad_line = line_error(reference_weather_csv, path)
    if bad_line is not None:
        with pytest.raises(FormatError, match=f"line {bad_line}:"):
            data.load_weather_csv(path)
        return
    expect_hours, expect_covariates = reference_weather_csv(path)
    got_hours, got_covariates = data.load_weather_csv(path)
    assert got_hours.tolist() == expect_hours
    assert got_covariates.tolist() == expect_covariates


@SETTINGS
@given(
    with_covariates=st.booleans(),
    with_site=st.booleans(),
    n_rows=st.integers(1, 12),
    cells=st.data(),
    fault=st.one_of(
        st.none(),
        st.tuples(
            st.integers(0, 11),
            st.sampled_from(["latitude", "longitude", "timestamp", *WEATHER_NAMES]),
        ),
    ),
)
def test_load_query_csv_matches_the_per_row_reader(
    tmp_path, with_covariates, with_site, n_rows, cells, fault
):
    header = ["latitude", "longitude", "timestamp", *WEATHER_NAMES, "note"]
    if with_site:
        header.insert(0, "site_id")
    rows = []
    for _ in range(n_rows):
        row = {
            "site_id": cells.draw(st.sampled_from(["a", " b ", "site03"])),
            "latitude": cells.draw(coordinates),
            "longitude": cells.draw(coordinates),
            "timestamp": cells.draw(stamps),
            "note": "x",
            **{name: cells.draw(good_numbers) for name in WEATHER_NAMES},
        }
        rows.append(row)
    if fault is not None and fault[0] < n_rows:
        at, column = fault
        rows[at][column] = "noon" if column == "timestamp" else cells.draw(bad_numbers)
    path = tmp_path / "q.csv"
    write(path, header, [",".join(r[c] for c in header) for r in rows])
    columns = data.BASE_INPUT_COLUMNS + (
        data.COVARIATE_INPUT_COLUMNS if with_covariates else ()
    )

    bad_line = line_error(reference_query_csv, path, with_covariates)
    if bad_line is not None:
        with pytest.raises(FormatError, match=f"line {bad_line}:"):
            data.load_query_csv(path, columns)
        return
    expect = reference_query_csv(path, with_covariates)
    readings, ignored = data.load_query_csv(path, columns)
    assert [row[:4] for row in expect] == [row[:4] for row in rows_of(readings)]
    assert all(math.isnan(v) for v in readings.pm25)
    if with_covariates:
        assert readings.covariates.tolist() == [row[4] for row in expect]
        assert ignored == ["note"]
    else:
        assert readings.covariates is None
        assert ignored == sorted(WEATHER_NAMES + ("note",))
