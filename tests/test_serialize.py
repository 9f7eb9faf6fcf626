"""Deterministic text formats: 17-digit floats, JSON lines, CSV blocks."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heun_rsj.errors import InvalidParams
from heun_rsj.model import Trajectory
from heun_rsj.serialize import (
    SCHEMA,
    fmt_float,
    json_dumps,
    read_trajectory_csv,
    trajectory_to_csv,
    trajectory_to_json,
    write_csv,
)


class TestFloatFormatting:
    def test_recognisable_values(self):
        assert fmt_float(0.25) == "0.25"
        assert fmt_float(1.0) == "1"
        assert fmt_float(-1.0) == "-1"

    @given(
        x=st.floats(
            allow_nan=False, allow_infinity=False, min_value=-1e300, max_value=1e300
        )
    )
    @settings(max_examples=300)
    def test_round_trips_exactly(self, x):
        assert float(fmt_float(x)) == x

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(InvalidParams):
            fmt_float(bad)


class TestJson:
    def test_layout(self):
        text = json_dumps({"schema": SCHEMA, "x": 0.5, "flag": True, "none": None})
        assert text.endswith("\n")
        assert json.loads(text) == {
            "schema": "heun-rsj/1",
            "x": 0.5,
            "flag": True,
            "none": None,
        }

    def test_insertion_order_preserved(self):
        text = json_dumps({"b": 1, "a": 2})
        assert text.index('"b"') < text.index('"a"')

    def test_numpy_values(self):
        text = json_dumps({"v": np.float64(0.1), "i": np.int64(3), "a": np.arange(2)})
        assert json.loads(text) == {"v": 0.1, "i": 3, "a": [0, 1]}

    def test_seventeen_digit_floats(self):
        x = 1.0 / 3.0
        text = json_dumps({"x": x})
        assert json.loads(text)["x"] == x

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidParams):
            json_dumps({"x": math.nan})

    def test_rejects_non_string_keys(self):
        with pytest.raises(InvalidParams):
            json_dumps({1: "x"})

    def test_deterministic(self):
        payload = {"a": 0.1, "b": [1.0, 2.0], "c": {"d": -0.5}}
        assert json_dumps(payload) == json_dumps(payload)


class TestCsv:
    def test_header_and_line_endings(self):
        text = write_csv(["a", "b"], [[1, 0.5], [2, 0.25]])
        assert text == "a,b\n1,0.5\n2,0.25\n"

    def test_quoting(self):
        text = write_csv(["a"], [["x,y"]])
        assert text == 'a\n"x,y"\n'


class TestTrajectoryFormats:
    def _traj(self):
        return Trajectory(times=[0.0, 0.5, 1.0], values=[0.1, 0.2, 0.35])

    def _traj_xy(self):
        return Trajectory(times=[0.0, 0.5], values=[[1.0, 0.0], [0.9, -0.1]])

    @pytest.mark.parametrize(
        "values", [[[0.1], [0.2]], [[1.0, 2.0], [3.0, 4.0]]], ids=["phase", "xy"]
    )
    def test_csv_header_matches_row_width(self, values):
        lines = trajectory_to_csv(Trajectory(times=[0.0, 1.0], values=values)).splitlines()
        widths = {len(line.split(",")) for line in lines}
        assert widths == {1 + len(values[0])}

    def test_csv_header_must_match_row_width(self):
        with pytest.raises(InvalidParams, match="rows of 3 cells"):
            read_trajectory_csv("t,phi\n0,1,2\n1,3,4\n")
        with pytest.raises(InvalidParams, match="rows of 2 cells"):
            read_trajectory_csv("t,x,y\n0,1\n1,3\n")

    def test_csv_round_trip_phase(self):
        text = trajectory_to_csv(self._traj())
        assert text.splitlines()[0] == "t,phi"
        back = read_trajectory_csv(text)
        assert back.kind == "phase"
        np.testing.assert_array_equal(back.times, self._traj().times)
        np.testing.assert_array_equal(back.values, self._traj().values)

    def test_csv_round_trip_xy(self):
        text = trajectory_to_csv(self._traj_xy())
        assert text.splitlines()[0] == "t,x,y"
        back = read_trajectory_csv(text)
        assert back.kind == "xy"
        np.testing.assert_array_equal(back.values, self._traj_xy().values)

    def test_json_structure(self):
        doc = json.loads(trajectory_to_json(self._traj_xy()))
        assert doc["schema"] == SCHEMA
        assert doc["kind"] == "xy"
        assert doc["columns"] == ["t", "x", "y"]
        assert doc["rows"] == [[0.0, 1.0, 0.0], [0.5, 0.9, -0.1]]
