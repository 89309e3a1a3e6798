"""Calibration table storage, interpolation, inversion, projection, text IO."""

import math
import sys
import threading

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

    def test_view_input_does_not_follow_its_base(self):
        # the table owns a copy: a later write to the base of the view it was
        # built from changes neither its cells nor its cached column reads
        base = np.ones((4, 5))
        t = CalibrationTable(np.array([0.0, 1.0, 2.0, 3.0]), np.array([-50.0, 0.0, 50.0, 100.0]), base[:, :4])
        assert lookup_acc(t, 0.0, 1.0) == 1.0
        base[:] = 5.0
        assert lookup_acc(t, 0.0, 1.0) == 1.0
        assert lookup_acc(t, 25.0, 2.5) == 1.0
        assert np.all(t.acc == 1.0)

    def test_caller_arrays_stay_writable(self):
        speed = np.array([0.0, 1.0, 2.0, 3.0])
        cmd = np.array([-50.0, 0.0, 50.0, 100.0])
        acc = 0.04 * cmd[:, None] - 0.1 * speed[None, :]
        t = CalibrationTable(speed, cmd, acc)
        for arr in (speed, cmd, acc):
            assert arr.flags.writeable
        acc[0, 0] = 99.0
        speed[0] = -1.0
        assert t.acc[0, 0] == -2.0 and t.speed_grid[0] == 0.0
        for arr in (t.speed_grid, t.cmd_grid, t.acc):
            assert not arr.flags.writeable


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


class TestColumnCache:
    def test_concurrent_first_reads_agree(self):
        # six readers race to fill the column caches of fresh tables, with the
        # interpreter switching threads as often as it can; every read must
        # equal the same read of a copy whose cache one thread filled alone
        rng = np.random.default_rng(7)
        tables = [random_monotone_table(rng, n_cmd=21, n_speed=12) for _ in range(40)]
        probes = list(zip(rng.uniform(-110, 110, 30).tolist(), rng.uniform(-1, 11, 30).tolist(),
                          rng.uniform(-3, 3, 30).tolist()))

        def reads(table):
            return [(lookup_acc(table, c, v), lookup_cmd(table, v, a)) for c, v, a in probes]

        expect = [reads(CalibrationTable(t.speed_grid, t.cmd_grid, t.acc)) for t in tables]
        errors = []
        start = threading.Barrier(6)

        def reader(order):
            start.wait(timeout=10)
            errors.extend(k for k in order if reads(tables[k]) != expect[k])

        threads = [
            threading.Thread(target=reader, args=(rng.permutation(len(tables)).tolist(),))
            for _ in range(6)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert errors == []


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


def _reference_grid_weights(grid: np.ndarray, x: float) -> tuple[int, float]:
    x = min(max(x, grid[0]), grid[-1])
    i = min(int(grid.searchsorted(x, side="right")) - 1, len(grid) - 2)
    return i, float((x - grid[i]) / (grid[i + 1] - grid[i]))


def _reference_lookup_acc(table: CalibrationTable, cmd: float, v: float) -> float:
    """The numpy form of ``lookup_acc``: ``searchsorted`` weights, array indexing."""
    ci, cw = _reference_grid_weights(table.cmd_grid, cmd)
    vi, vw = _reference_grid_weights(table.speed_grid, v)
    a = table.acc
    return float(
        a[ci, vi] * (1.0 - cw) * (1.0 - vw)
        + a[ci + 1, vi] * cw * (1.0 - vw)
        + a[ci, vi + 1] * (1.0 - cw) * vw
        + a[ci + 1, vi + 1] * cw * vw
    )


def _reference_lookup_cmd(table: CalibrationTable, v: float, acc: float) -> float:
    """The numpy form of ``lookup_cmd``: ``np.interp`` on both neighbouring columns.

    A step so small that its slope overflows gives inf, and inf times a zero
    weight NaN, as plain floats do: numpy's warning about it is silenced.
    """
    j, w = _reference_grid_weights(table.speed_grid, v)
    lo = np.interp(acc, table.acc[:, j], table.cmd_grid)
    hi = np.interp(acc, table.acc[:, j + 1], table.cmd_grid)
    with np.errstate(invalid="ignore"):
        return float((1.0 - w) * lo + w * hi)


def _same(a: float, b: float) -> bool:
    """Bit-equal floats, any NaN matching any NaN."""
    return (math.isnan(a) and math.isnan(b)) or a.hex() == b.hex()


def _probes(grid) -> list[float]:
    """Every grid value, every midpoint, a value beyond each end, and NaN."""
    grid = np.unique(grid)
    span = max(1.0, float(grid[-1] - grid[0]))
    return (
        grid.tolist()
        + (0.5 * (grid[1:] + grid[:-1])).tolist()
        + [float(grid[0]) - span, float(grid[-1]) + span, math.nan]
    )


@st.composite
def monotone_tables(draw):
    """Tables that pass ``invert``, with plateaus, ties across columns and tiny steps."""
    n = draw(st.integers(2, 8))
    m = draw(st.integers(2, 5))
    gap = st.floats(0.05, 40.0)
    cmd = np.cumsum([draw(st.floats(-100.0, 0.0))] + draw(st.lists(gap, min_size=n - 1, max_size=n - 1)))
    speed = np.cumsum([draw(st.floats(0.0, 2.0))] + draw(st.lists(gap, min_size=m - 1, max_size=m - 1)))
    step = st.one_of(st.just(0.0), st.sampled_from([5e-324, 1e-12, 0.25, 1.0]), st.floats(0.0, 3.0))
    shared = [draw(step) for _ in range(n - 1)]
    cols = []
    for _ in range(m):
        # a column either repeats the shared steps (ties with its neighbours) or draws its own
        steps = shared if draw(st.booleans()) else [draw(step) for _ in range(n - 1)]
        cols.append(np.cumsum([draw(st.floats(-6.0, 0.0))] + steps))
    return CalibrationTable(speed, cmd, np.column_stack(cols))


class TestReadsEqualReference:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(monotone_tables())
    def test_lookup_cmd_bit_equal(self, table):
        # exact cell values, values inside and beyond each column, NaN acc,
        # at speeds on, between and beyond the grid and NaN
        invert(table)
        for v in _probes(table.speed_grid):
            for acc in _probes(table.acc):
                got = lookup_cmd(table, v, acc)
                assert type(got) is float
                assert _same(got, _reference_lookup_cmd(table, v, acc)), (v, acc)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(monotone_tables())
    def test_lookup_acc_bit_equal(self, table):
        for v in _probes(table.speed_grid):
            for cmd in _probes(table.cmd_grid):
                got = lookup_acc(table, cmd, v)
                assert type(got) is float
                assert _same(got, _reference_lookup_acc(table, cmd, v)), (cmd, v)

    @pytest.mark.parametrize(
        "column, acc, expect",
        [
            # x - x0 overflows and the slope is 0: np.interp retries from the
            # upper row, and so must the bisection
            pytest.param([-1e308, 1.7e308], 1e308, 100.0, id="overflowing-span"),
            # the slope overflows to inf, so only the exact-hit rule gives the
            # lower row's command, not inf * 0
            pytest.param([0.0, 5e-324], 0.0, -100.0, id="subnormal-step"),
        ],
    )
    def test_degenerate_span_matches_reference(self, column, acc, expect):
        t = CalibrationTable(np.array([0.0, 1.0]), np.array([-100.0, 100.0]), np.array([column, column]).T)
        assert lookup_cmd(t, 0.0, acc) == _reference_lookup_cmd(t, 0.0, acc) == expect

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(monotone_tables(), st.floats(0.0, 1.0))
    def test_round_trip_inside_column(self, table, frac):
        # at a grid speed, commanding what lookup_cmd gives for any acceleration
        # inside the column's range reads that acceleration back
        for j, v in enumerate(table.speed_grid.tolist()):
            col = table.acc[:, j]
            targets = np.unique(col).tolist() + [float(col[0] + frac * (col[-1] - col[0]))]
            for a in targets:
                back = lookup_acc(table, lookup_cmd(table, v, a), v)
                assert abs(back - a) <= 1e-9 * max(1.0, abs(a)), (v, a, back)


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

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(monotone_tables())
    def test_round_trip_property(self, table):
        # one pass rounds every number to 9 significant digits, within half a
        # unit of the ninth digit; the rounded table reads back as itself
        q = deserialize(serialize(table))
        for got, want in ((q.speed_grid, table.speed_grid), (q.cmd_grid, table.cmd_grid), (q.acc, table.acc)):
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= 5e-9 * np.abs(want) * (1.0 + 1e-6))
        assert serialize(q) == serialize(table)
        assert invert(q) is q
        r = deserialize(serialize(q))
        assert np.array_equal(r.speed_grid, q.speed_grid)
        assert np.array_equal(r.cmd_grid, q.cmd_grid)
        assert np.array_equal(r.acc, q.acc)

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
