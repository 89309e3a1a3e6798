"""Calibration table storage, interpolation, inversion, projection, text IO."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import isotonic_regression

from longcal.table import (
    CalibrationTable,
    MonotonicityViolation,
    ParseError,
    default_cmd_grid,
    default_speed_grid,
    deserialize,
    invert,
    lookup_acc,
    lookup_cmd,
    project_monotone,
    serialize,
    _monotone_columns,
)


def make_table(speed=None, cmd=None, acc=None):
    speed = np.array([0.0, 1.0, 2.0, 3.0]) if speed is None else np.asarray(speed, float)
    cmd = np.array([-50.0, 0.0, 50.0, 100.0]) if cmd is None else np.asarray(cmd, float)
    if acc is None:
        # linear in cmd, mild speed droop: strictly monotone in cmd
        acc = 0.04 * cmd[:, None] - 0.1 * speed[None, :]
    return CalibrationTable(speed, cmd, np.asarray(acc, float))


def random_monotone_table(rng, n_cmd=9, n_speed=6, strict=True):
    speed = np.sort(rng.uniform(0, 10, n_speed))
    speed[0] = 0.0
    while np.any(np.diff(speed) <= 1e-6):
        speed = np.sort(rng.uniform(0, 10, n_speed))
        speed[0] = 0.0
    cmd = np.linspace(-100, 100, n_cmd)
    steps = rng.uniform(0.05 if strict else 0.0, 0.5, size=(n_cmd, n_speed))
    acc = np.cumsum(steps, axis=0) - 2.0 + rng.uniform(-0.2, 0.2, n_speed)
    return CalibrationTable(speed, cmd, acc)


class TestConstruction:
    def test_rejects_short_grids(self):
        with pytest.raises(ValueError):
            CalibrationTable(np.array([1.0]), np.array([0.0, 1.0]), np.zeros((2, 1)))

    def test_rejects_non_increasing_grid(self):
        with pytest.raises(ValueError):
            make_table(speed=[0.0, 1.0, 1.0, 3.0])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            CalibrationTable(np.array([0.0, 1.0]), np.array([0.0, 1.0]), np.zeros((3, 2)))

    def test_rejects_non_finite(self):
        acc = np.zeros((4, 4))
        acc[1, 2] = np.nan
        with pytest.raises(ValueError):
            make_table(acc=acc)

    def test_immutable(self):
        t = make_table()
        with pytest.raises(ValueError):
            t.acc[0, 0] = 99.0


class TestLookupAcc:
    def test_constant_field(self):
        t = make_table(acc=np.full((4, 4), 0.7))
        for cmd, v in [(-50, 0), (12.3, 1.7), (100, 3), (-200, 99)]:
            assert lookup_acc(t, cmd, v) == pytest.approx(0.7)

    def test_exact_at_grid_points(self):
        t = make_table()
        for i, cmd in enumerate(t.cmd_grid):
            for j, v in enumerate(t.speed_grid):
                assert lookup_acc(t, cmd, v) == pytest.approx(t.acc[i, j], abs=1e-12)

    def test_cell_midpoint_2x2(self):
        # hand bilinear: mean of the four corner values at the cell centre
        t = CalibrationTable(
            np.array([0.0, 1.0]), np.array([0.0, 10.0]), np.array([[0.0, 1.0], [2.0, 3.0]])
        )
        assert lookup_acc(t, 5.0, 0.5) == pytest.approx(1.5)

    def test_clamps_outside_grid(self):
        t = make_table()
        assert lookup_acc(t, 500.0, 1.0) == pytest.approx(lookup_acc(t, 100.0, 1.0))
        assert lookup_acc(t, -500.0, -3.0) == pytest.approx(lookup_acc(t, -50.0, 0.0))

    def test_bounded_by_cell_corners(self):
        rng = np.random.default_rng(7)
        t = random_monotone_table(rng)
        for _ in range(200):
            cmd = rng.uniform(-100, 100)
            v = rng.uniform(0, 10)
            ci = np.clip(np.searchsorted(t.cmd_grid, cmd) - 1, 0, len(t.cmd_grid) - 2)
            vi = np.clip(np.searchsorted(t.speed_grid, v) - 1, 0, len(t.speed_grid) - 2)
            corners = t.acc[ci:ci + 2, vi:vi + 2]
            a = lookup_acc(t, cmd, v)
            assert corners.min() - 1e-12 <= a <= corners.max() + 1e-12


class TestInvert:
    def test_linear_column(self):
        t = CalibrationTable(
            np.array([0.0, 1.0]),
            np.array([-50.0, 0.0, 50.0]),
            np.array([[-1.0, -1.0], [0.0, 0.0], [1.0, 1.0]]),
        )
        view = invert(t)
        assert lookup_cmd(view, 0.0, 0.5) == pytest.approx(25.0)

    def test_round_trip_at_grid_points(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            t = random_monotone_table(rng, strict=True)
            view = invert(t)
            for i, cmd in enumerate(t.cmd_grid):
                for j, v in enumerate(t.speed_grid):
                    back = lookup_cmd(view, v, lookup_acc(t, cmd, v))
                    assert abs(back - cmd) <= 1e-9

    def test_clamps_above_column_max(self):
        t = make_table()
        view = invert(t)
        assert lookup_cmd(view, 1.0, 99.0) == pytest.approx(t.cmd_grid[-1])
        assert lookup_cmd(view, 1.0, -99.0) == pytest.approx(t.cmd_grid[0])

    def test_rejects_non_monotone(self):
        acc = np.array([[0.0, 0.0], [1.0, -1.0], [2.0, 2.0]])
        t = CalibrationTable(np.array([0.0, 1.0]), np.array([-50.0, 0.0, 50.0]), acc)
        with pytest.raises(MonotonicityViolation):
            invert(t)


class TestLookupCmd:
    def test_symmetric_table_zero_acc(self):
        # odd in cmd: acc=0 must invert to cmd=0
        t = make_table(acc=0.03 * np.array([-50.0, 0.0, 50.0, 100.0])[:, None] * np.ones(4))
        view = invert(t)
        assert lookup_cmd(view, 1.3, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_intermediate_speed_averages_identical_columns(self):
        # both columns share the same shape: mid-speed inverse equals either
        acc = np.array([[-1.0, -1.0], [0.0, 0.0], [2.0, 2.0]])
        t = CalibrationTable(np.array([0.0, 2.0]), np.array([-40.0, 0.0, 40.0]), acc)
        view = invert(t)
        at_mid = lookup_cmd(view, 1.0, 0.5)
        at_lo = lookup_cmd(view, 0.0, 0.5)
        at_hi = lookup_cmd(view, 2.0, 0.5)
        assert at_mid == pytest.approx(0.5 * (at_lo + at_hi))
        assert at_mid == pytest.approx(10.0)


class TestProjectMonotone:
    def test_monotone_fixed_point(self):
        t = make_table()
        assert project_monotone(t) is t

    def test_pav_by_hand(self):
        acc = np.array([[1.0], [3.0], [2.0]])
        t = CalibrationTable(
            np.array([0.0, 1.0]),
            np.array([0.0, 50.0, 100.0]),
            np.hstack([acc, acc]),
        )
        p = project_monotone(t)
        assert np.allclose(p.acc[:, 0], [1.0, 2.5, 2.5])

    def test_output_always_monotone_and_idempotent(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            acc = rng.normal(0, 1, size=(8, 5))
            t = CalibrationTable(np.arange(5.0), np.linspace(-100, 100, 8), acc)
            p = project_monotone(t)
            assert p.is_monotone()
            again = project_monotone(p)
            assert np.allclose(again.acc, p.acc)

    def test_projection_is_l2_nearest(self):
        # brute-force check on tiny columns: no monotone sequence on the same
        # value set beats the projection in squared distance
        rng = np.random.default_rng(5)
        for _ in range(20):
            col = rng.normal(0, 1, 4)
            t = CalibrationTable(
                np.array([0.0, 1.0]),
                np.linspace(0, 100, 4),
                np.hstack([col[:, None], col[:, None]]),
            )
            proj = project_monotone(t).acc[:, 0]
            best = np.sum((proj - col) ** 2)
            for _ in range(500):
                cand = np.sort(col + rng.normal(0, 0.3, 4))
                assert np.sum((cand - col) ** 2) >= best - 1e-9


@st.composite
def repair_tables(draw):
    """Tables whose columns are noise, ascending, descending or plateaus, with ties."""
    n = draw(st.integers(2, 12))
    m = draw(st.integers(2, 8))
    value = st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 2.0]), st.floats(-1e3, 1e3))
    cols = []
    for _ in range(m):
        col = np.array(draw(st.lists(value, min_size=n, max_size=n)))
        shape = draw(st.sampled_from(["raw", "ascending", "descending", "plateau"]))
        if shape == "ascending":
            col = np.sort(col)
        elif shape == "descending":
            col = -np.sort(-col)
        elif shape == "plateau":
            lo = draw(st.integers(0, n - 2))
            col[lo : draw(st.integers(lo + 2, n))] = col[lo]
        cols.append(col)
    return np.column_stack(cols)


class TestMonotoneColumnsProperties:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(repair_tables())
    def test_batched_repair_matches_per_column_isotonic(self, acc):
        out = _monotone_columns(acc.copy())
        monotone = np.all(np.diff(acc, axis=0) >= 0.0, axis=0)
        ref = acc.copy()
        for j in np.flatnonzero(~monotone):
            ref[:, j] = isotonic_regression(acc[:, j]).x
        scale = max(1.0, float(np.abs(acc).max()))
        assert np.all(np.abs(out - ref) <= 1e-12 * scale)
        assert np.all(np.diff(out, axis=0) >= 0.0)
        assert np.array_equal(out[:, monotone], acc[:, monotone])
        # project_monotone is the same repair, and idempotent
        n, m = acc.shape
        p = project_monotone(CalibrationTable(np.arange(float(m)), np.arange(float(n)), acc))
        assert np.array_equal(p.acc, out)
        assert project_monotone(p) is p


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(2)
        t = random_monotone_table(rng)
        # one pass quantizes to the 9-digit format; after that the text
        # representation is a fixed point
        q = deserialize(serialize(t))
        assert np.allclose(q.acc, t.acc, atol=1e-7)
        assert serialize(deserialize(serialize(q))) == serialize(q)
        r = deserialize(serialize(q))
        assert np.array_equal(r.acc, q.acc)
        assert np.array_equal(r.speed_grid, q.speed_grid)
        assert np.array_equal(r.cmd_grid, q.cmd_grid)

    def test_comments_and_blanks_ignored(self):
        t = make_table()
        text = "# a comment\n\n" + serialize(t).replace("cmd_grid", "# inline\ncmd_grid")
        r = deserialize(text)
        assert np.allclose(r.acc, t.acc)

    def test_non_increasing_speed_grid_rejected(self):
        text = "speed_grid: 0 1 1 3\ncmd_grid: 0 50\n" + "0 0 0 0\n" * 2
        with pytest.raises(ParseError) as err:
            deserialize(text)
        assert err.value.line == 1

    def test_ragged_row_rejected(self):
        text = "speed_grid: 0 1\ncmd_grid: 0 50\n0 0\n0\n"
        with pytest.raises(ParseError) as err:
            deserialize(text)
        assert err.value.line == 4

    def test_missing_rows_rejected(self):
        text = "speed_grid: 0 1\ncmd_grid: 0 50\n0 0\n"
        with pytest.raises(ParseError):
            deserialize(text)

    def test_golden_file(self, tmp_path):
        golden = (
            "# 3x3 nominal table\n"
            "speed_grid: 0 1.5 3\n"
            "cmd_grid: -100 0 100\n"
            "-3 -3.5 -4\n"
            "0 -0.2 -0.4\n"
            "2.5 2.2 2\n"
        )
        t = deserialize(golden)
        assert t.shape == (3, 3)
        assert lookup_acc(t, 0.0, 1.5) == pytest.approx(-0.2)
        assert lookup_acc(t, 100.0, 3.0) == pytest.approx(2.0)
        assert t.is_monotone()


class TestDefaultGrids:
    def test_speed_grid_step(self):
        g = default_speed_grid(3.0)
        assert g[0] == 0.0 and g[-1] == 3.0
        assert len(g) == 16
        assert np.allclose(np.diff(g), 0.2)

    def test_cmd_grid_span(self):
        g = default_cmd_grid()
        assert g[0] == -100.0 and g[-1] == 100.0
        assert len(g) == 41
        assert 0.0 in g
