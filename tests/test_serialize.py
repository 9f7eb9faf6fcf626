"""Deterministic text formats: 17-digit floats, JSON lines, CSV blocks."""

import csv
import io
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
    table_rows,
    trajectory_to_csv,
    trajectory_to_json,
    write_table,
)

from oracles import json_dumps_chain, write_csv


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


_JSON_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1.7976931348623157e308]
)
_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    _JSON_FLOATS,
    st.text(),  # non-ASCII and control characters included
    _JSON_FLOATS.map(np.float64),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    st.lists(_JSON_FLOATS, max_size=4).map(np.array),
    st.lists(st.integers(-(2**31), 2**31 - 1), max_size=4).map(np.array),
)
_JSON_RECORDS = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=8), inner, max_size=5),
    ),
    max_leaves=30,
)


class IntKind(int):
    pass


class FloatKind(float):
    pass


class StrKind(str):
    pass


class DictKind(dict):
    pass


class ListKind(list):
    pass


class TestJsonDispatch:
    @settings(max_examples=300, deadline=None)
    @given(_JSON_RECORDS)
    def test_bytes_of_the_isinstance_chain(self, record):
        assert json_dumps(record) == json_dumps_chain(record)

    def test_subclasses_and_numpy_containers(self):
        record = DictKind(
            a=IntKind(7), b=FloatKind(-0.0), c=StrKind("\u00e9t\u00e9"),
            d=ListKind([np.arange(3.0).reshape(3, 1), (np.float64(5e-324),)]),
            e=[True, False, None, np.int32(-4), 2**70],
        )
        text = json_dumps(record)
        assert text == json_dumps_chain(record)
        assert text == (
            '{"a": 7, "b": -0, "c": "\\u00e9t\\u00e9", '
            '"d": [[[0], [1], [2]], [4.9406564584124654e-324]], '
            '"e": [true, false, null, -4, 1180591620717411303424]}\n'
        )

    @pytest.mark.parametrize(
        "bad",
        [
            {1: "x"},
            {"a": [{(1, 2): 0.5}]},
            {"x": math.nan},
            [math.inf],
            np.float64(-math.inf),
            {"x": np.bool_(True)},
            [np.array([True])],
            {"x": object()},
            {1.5},
        ],
    )
    def test_same_typed_errors(self, bad):
        with pytest.raises(InvalidParams) as fast:
            json_dumps(bad)
        with pytest.raises(InvalidParams) as chain:
            json_dumps_chain(bad)
        assert str(fast.value) == str(chain.value)


class TestCsv:
    def test_header_and_line_endings(self):
        text = write_csv(["a", "b"], [[1, 0.5], [2, 0.25]])
        assert text == "a,b\n1,0.5\n2,0.25\n"

    def test_quoting(self):
        text = write_csv(["a"], [["x,y"]])
        assert text == 'a\n"x,y"\n'


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-160, 0.1,
                -1.0 / 3.0, 1e22, 1e16, 123456789012345680.0, -1.7976931348623157e308]


class TestColumnarEmitter:
    """The columnar emitter gives the bytes of the cell-by-cell emitters."""

    @staticmethod
    def _columns(seed: int, rows: int):
        rng = np.random.default_rng(seed)
        spread = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
        floats = np.concatenate([_EDGE_FLOATS, spread])
        ints = rng.integers(-(2**62), 2**62, floats.size)
        return ints, floats, rng.permutation(floats), rng.random(floats.size) < 0.3

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_csv_matches_write_csv(self, seed):
        ints, a, b, blank = self._columns(seed, 200)
        header = ["i", "a", "b", "c"]
        # Blank cells may hold anything: they are neither checked nor printed.
        c = np.where(blank, np.nan, b[::-1])
        rows = [
            [i, x, y, "" if gap else z]
            for i, x, y, z, gap in zip(ints.tolist(), a.tolist(), b.tolist(),
                                       c.tolist(), blank.tolist())
        ]
        assert write_table(header[:3], [ints, a, b]) == write_csv(
            header[:3], [r[:3] for r in rows]
        )
        assert write_table(header, [ints, a], [b, c], ~blank) == write_csv(
            header, [[i, x, "" if gap else y, z] for (i, x, y, z), gap
                     in zip(rows, blank.tolist())]
        )

    @pytest.mark.parametrize("seed", [0, 1])
    def test_json_rows_match_json_dumps(self, seed):
        _, a, b, _ = self._columns(seed, 200)
        rows = table_rows([a, b], sep=", ", brackets=("[", "]"))
        assert "[" + ", ".join(rows) + "]\n" == json_dumps(
            [[x, y] for x, y in zip(a.tolist(), b.tolist())]
        )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        good = np.array([0.5, 1.5])
        col = np.array([0.25, bad])
        with pytest.raises(InvalidParams, match="non-finite float"):
            table_rows([good, col])
        with pytest.raises(InvalidParams, match="non-finite float"):
            table_rows([good], [col], np.array([True, True]))
        assert table_rows([good], [col], np.array([True, False])) == ["0.5,0.25", "1.5,"]

    def test_ints_print_as_ints(self):
        assert write_table(["n", "x"], [np.arange(3), np.array([1.0, 2.5, -0.0])]) == (
            "n,x\n0,1\n1,2.5\n2,-0\n"
        )


def _trajectory(seed: int, columns: int) -> Trajectory:
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.random(300) + 1e-3) - 2.0
    values = rng.standard_normal((300, columns)) * 10.0 ** rng.integers(-200, 200, (300, columns))
    values[:3] = [[0.0] * columns, [-0.0] * columns, [5e-324] * columns]
    return Trajectory(times=times, values=values)


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

    @staticmethod
    def _parse(text):
        header, *rows = csv.reader(io.StringIO(text))
        return header, np.array(rows, dtype=float)

    def test_csv_round_trip_phase(self):
        header, data = self._parse(trajectory_to_csv(self._traj()))
        assert header == ["t", "phi"]
        back = Trajectory(times=data[:, 0], values=data[:, 1:])
        assert back.kind == "phase"
        np.testing.assert_array_equal(back.times, self._traj().times)
        np.testing.assert_array_equal(back.values, self._traj().values)

    def test_csv_round_trip_xy(self):
        header, data = self._parse(trajectory_to_csv(self._traj_xy()))
        assert header == ["t", "x", "y"]
        back = Trajectory(times=data[:, 0], values=data[:, 1:])
        assert back.kind == "xy"
        np.testing.assert_array_equal(back.values, self._traj_xy().values)

    def test_json_structure(self):
        doc = json.loads(trajectory_to_json(self._traj_xy()))
        assert doc["schema"] == SCHEMA
        assert doc["kind"] == "xy"
        assert doc["columns"] == ["t", "x", "y"]
        assert doc["rows"] == [[0.0, 1.0, 0.0], [0.5, 0.9, -0.1]]

    @pytest.mark.parametrize("columns", [1, 2], ids=["phase", "xy"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_bytes_of_the_cell_by_cell_forms(self, seed, columns):
        traj = _trajectory(seed, columns)
        names = ["t", "phi"] if columns == 1 else ["t", "x", "y"]
        rows = [[float(t), *map(float, v)] for t, v in zip(traj.times, traj.values)]
        assert trajectory_to_csv(traj) == write_csv(names, rows)
        assert trajectory_to_json(traj) == json_dumps(
            {"schema": SCHEMA, "kind": traj.kind, "columns": names, "rows": rows}
        )
