"""Online update law: gates, costs, table steps, and atomic publication."""

import dataclasses
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import isotonic_regression

import longcal.online
import longcal.table
from longcal.online import (
    DELTA_CMD,
    DELTA_V,
    XI,
    ImplausibleTable,
    OnlineCalibrator,
    OnlineConfig,
    OnlineUpdate,
    publish,
    update_table,
    _cost_matrix,
    _window,
)
from longcal.preprocess import ACC_MEAS_LIMIT, OnlineFeedback
from longcal.simulator import ax1, run_closed_loop, trapezoid_profile
from longcal.table import CalibrationTable, NonFiniteTable, invert, lookup_acc, lookup_cmd


def grid_table(n_cmd=41, n_speed=16, v_max=3.0, slope=0.03):
    cmd = np.linspace(-100, 100, n_cmd)
    speed = np.linspace(0, v_max, n_speed)
    acc = slope * cmd[:, None] - 0.05 * speed[None, :]
    return CalibrationTable(speed, cmd, acc)


def _reference_cell_cost(init_table, i, j, feedback):
    """The cost law for one cell in plain floats: the reference for ``_cost_matrix``."""
    d_cmd = feedback.cmd_ref - float(init_table.cmd_grid[i])
    d_v = feedback.v_ref - float(init_table.speed_grid[j])
    if abs(d_cmd) <= DELTA_CMD and abs(d_v) <= DELTA_V:
        distance = 0.0
    else:
        distance = d_cmd**2 + d_v**2 + XI
    similarity = math.exp(-abs(float(init_table.acc[i, j]) - feedback.acc_k))
    return distance * similarity


def fb(cmd_ref=20.0, v_ref=1.0, acc_ref=0.5, acc_k=0.2, v_k=1.0):
    return OnlineFeedback(cmd_ref=cmd_ref, v_ref=v_ref, acc_ref=acc_ref, acc_k=acc_k, v_k=v_k)


@pytest.mark.parametrize(
    "module, name",
    [
        pytest.param(m, n, id=f"{m.__name__}.{n}")
        for m in (longcal.table, longcal.online)
        for n in m.__all__
    ],
)
def test_all_names_exist(module, name):
    # a name deleted from the module but left in __all__ breaks ``import *``
    assert hasattr(module, name)


class TestOnlineConfig:
    def test_defaults_valid(self):
        # the learning ratio is the law's one setting
        cfg = OnlineConfig()
        assert [f.name for f in dataclasses.fields(cfg)] == ["sigma"]
        assert 0 < cfg.sigma <= 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            OnlineConfig(sigma=0.0)
        with pytest.raises(ValueError):
            OnlineConfig(sigma=-1.0)

    def test_rejects_sigma_above_one(self):
        with pytest.raises(ValueError):
            OnlineConfig(sigma=1.5)

    @pytest.mark.parametrize(
        "args",
        [
            # refused at construction, not at the first update (sigma=nan
            # would raise NonFiniteTable there)
            pytest.param(dict(sigma=float("nan")), id="sigma-nan"),
            pytest.param(dict(sigma=float("inf")), id="sigma-inf"),
            pytest.param(dict(sigma=True), id="sigma-bool"),
            # numpy's bool is no ``bool``: it ran as sigma 1
            pytest.param(dict(sigma=np.True_), id="sigma-numpy-bool"),
        ],
    )
    def test_rejects_non_finite_bool_and_non_integer(self, args):
        with pytest.raises(ValueError, match=next(iter(args))):
            OnlineConfig(**args)


class TestConvergeCheck:
    """``OnlineCalibrator.step`` skips a cycle whose speed error is within ``GAMMA_V``."""

    def step(self, v_actual):
        cal = OnlineCalibrator(grid_table())
        update = cal.step(2.0, v_actual, fb(acc_ref=0.9, acc_k=0.2))
        assert cal.cycle == 1 and cal.revision == int(update is not None)
        return update

    def test_equal_speeds(self):
        assert self.step(2.0) is None

    def test_boundary_inclusive(self):
        assert self.step(2.05) is None

    def test_just_outside(self):
        assert self.step(2.06) is not None


class TestComputeGain:
    """The gain ``update_table`` steps by: expected minus measured acceleration."""

    def test_zero(self):
        # the promise kept: nothing to learn, and nothing published
        cal = OnlineCalibrator(grid_table())
        assert cal.step(2.0, 1.0, fb(acc_ref=0.4, acc_k=0.4)) is None
        assert cal.revision == 0

    def test_direct_subtraction(self):
        # the window's cells take the full step, sigma * (acc_ref - acc_k)
        table = grid_table()
        cfg = OnlineConfig()
        new = update_table(OnlineCalibrator(table), fb(acc_ref=1.0, acc_k=0.4), cfg)
        window = _window(table, fb())
        delta = (table.acc - new.acc)[window]
        np.testing.assert_allclose(delta, cfg.sigma * 0.6, rtol=0.0, atol=1e-12)

    def test_sluggish_vehicle_positive(self):
        # promised 0.5, delivered 0.2: a positive gain, and the window's cells come down
        table = grid_table()
        new = update_table(OnlineCalibrator(table), fb(acc_ref=0.5, acc_k=0.2), OnlineConfig())
        window = _window(table, fb())
        assert np.all(new.acc[window] < table.acc[window])


class TestCellCost:
    def test_window_cell_zero_cost(self):
        table = grid_table()
        i = int(np.argmin(np.abs(table.cmd_grid - 20.0)))
        j = int(np.argmin(np.abs(table.speed_grid - 1.0)))
        feedback = fb(cmd_ref=float(table.cmd_grid[i]), v_ref=float(table.speed_grid[j]),
                      acc_k=float(table.acc[i, j]))
        state = OnlineCalibrator(table)
        assert _cost_matrix(state.init_table, feedback)[i, j] == 0.0

    def test_far_cell_hand_value(self):
        # offsets (10 %, 1 m/s) and init agreeing with the measurement:
        # cost = 10^2 + 1^2 + xi
        table = grid_table()
        i = int(np.argmin(np.abs(table.cmd_grid - 20.0)))
        j = int(np.argmin(np.abs(table.speed_grid - 1.2)))
        feedback = fb(
            cmd_ref=float(table.cmd_grid[i]) + 10.0,
            v_ref=float(table.speed_grid[j]) + 1.0,
            acc_k=float(table.acc[i, j]),
        )
        cost = _cost_matrix(table, feedback)[i, j]
        assert cost == pytest.approx(100.0 + 1.0 + 1e-8, rel=1e-12)

    def test_similarity_bounded_and_vanishing(self):
        table = grid_table()
        i, j = 0, 0
        base = fb(cmd_ref=50.0, v_ref=2.0, acc_k=float(table.acc[i, j]))
        nearby = _cost_matrix(table, base)[i, j]
        d_cmd, d_v = base.cmd_ref - table.cmd_grid[i], base.v_ref - table.speed_grid[j]
        distance = d_cmd**2 + d_v**2 + XI
        assert nearby <= distance + 1e-12
        far_acc = fb(cmd_ref=50.0, v_ref=2.0, acc_k=float(table.acc[i, j]) + 50.0)
        assert _cost_matrix(table, far_acc)[i, j] < 1e-12

    def test_matrix_matches_scalar(self):
        table = grid_table(n_cmd=9, n_speed=5)
        feedback = fb(cmd_ref=33.0, v_ref=1.7, acc_k=0.42)
        matrix = _cost_matrix(table, feedback)
        for i in range(9):
            for j in range(5):
                assert matrix[i, j] == pytest.approx(
                    _reference_cell_cost(table, i, j, feedback), rel=1e-12
                )

    def test_matrix_bit_equal_to_the_general_law_at_its_defaults(self):
        # the general law, with weights alpha = beta = epsilon = iota = 1.0
        # and exponents m_cmd = m_v = 2 written out: the constants reproduce
        # it bit for bit, at points exactly DELTA off a grid value too
        table = ax1().true_table()
        rng = np.random.default_rng(4)
        cmds = rng.uniform(-105, 105, 8).tolist()
        cmds += [g + d for g in table.cmd_grid.tolist() for d in (-DELTA_CMD, DELTA_CMD)]
        speeds = rng.uniform(-0.5, 3.5, 8).tolist()
        speeds += [g + d for g in table.speed_grid.tolist() for d in (-DELTA_V, DELTA_V)]
        for cmd_ref in cmds:
            for v_ref in speeds:
                feedback = fb(cmd_ref=cmd_ref, v_ref=v_ref, acc_k=rng.uniform(-3.0, 3.0))
                d_cmd = cmd_ref - table.cmd_grid
                d_v = v_ref - table.speed_grid
                want = (1.0 * d_cmd**2)[:, None] + 1.0 * d_v**2 + 1e-8
                want[(np.abs(d_cmd)[:, None] <= 5.0) & (np.abs(d_v)[None, :] <= 0.2)] = 0.0
                want *= 1.0 * np.exp(-1.0 * np.abs(table.acc - feedback.acc_k))
                assert np.array_equal(_cost_matrix(table, feedback), want), (cmd_ref, v_ref)

    def test_window_is_the_zero_cost_block(self):
        # points on, between and beyond the grid, and exactly delta off a
        # grid value, where the float rounding of |x - g| decides
        table = grid_table()
        rng = np.random.default_rng(3)
        cmds = [-120.0, -100.0, 7.5, 100.0, 130.0] + rng.uniform(-105, 105, 40).tolist()
        cmds += [g + d for g in table.cmd_grid.tolist() for d in (-DELTA_CMD, DELTA_CMD)]
        speeds = [-1.0, 0.0, 0.1, 3.0, 4.0] + rng.uniform(-0.5, 3.5, 40).tolist()
        speeds += [g + d for g in table.speed_grid.tolist() for d in (-DELTA_V, DELTA_V)]
        for cmd_ref, v_ref in zip(cmds, speeds):
            feedback = fb(cmd_ref=cmd_ref, v_ref=v_ref)
            expect = (np.abs(cmd_ref - table.cmd_grid)[:, None] <= DELTA_CMD) & (
                np.abs(v_ref - table.speed_grid)[None, :] <= DELTA_V
            )
            got = np.zeros(table.shape, dtype=bool)
            got[_window(table, feedback)] = True
            assert np.array_equal(got, expect), (cmd_ref, v_ref)

    def test_buffers_hold_the_same_cost(self):
        # the cost written into reused, stale buffers is the freshly allocated one
        table = grid_table()
        out, work = np.full(table.shape, np.nan), np.full(table.shape, 7.0)
        for feedback in (fb(), fb(cmd_ref=-62.0, v_ref=2.9, acc_k=-1.4)):
            got = _cost_matrix(table, feedback, out, work)
            assert got is out
            assert np.array_equal(got, _cost_matrix(table, feedback))


class TestUpdateTable:
    def test_zero_gain_fixed_point(self):
        table = grid_table()
        state = OnlineCalibrator(table)
        new = update_table(state, fb(acc_ref=0.5, acc_k=0.5), OnlineConfig())
        assert new is table

    def test_window_cells_take_full_step(self):
        table = grid_table()
        cfg = OnlineConfig()
        state = OnlineCalibrator(table)
        feedback = fb(cmd_ref=20.0, v_ref=1.0, acc_ref=0.8, acc_k=0.3)
        gain = feedback.acc_ref - feedback.acc_k
        new = update_table(state, feedback, cfg)
        window = (np.abs(feedback.cmd_ref - table.cmd_grid)[:, None] <= DELTA_CMD) & (
            np.abs(feedback.v_ref - table.speed_grid)[None, :] <= DELTA_V
        )
        delta = table.acc - new.acc
        # cells inside the window move by exactly sigma * gain (the column
        # plateau produced by the uniform shift survives projection because
        # the shifted block stays weakly monotone against its neighbours);
        # everything else moves strictly less
        assert window.any()
        assert np.allclose(delta[window], cfg.sigma * gain, atol=1e-9)
        assert np.abs(delta[~window]).max() < cfg.sigma * abs(gain)

    def test_step_bounded_by_sigma_gain(self):
        rng = np.random.default_rng(0)
        table = grid_table()
        state = OnlineCalibrator(table)
        cfg = OnlineConfig()
        for _ in range(25):
            feedback = fb(
                cmd_ref=rng.uniform(-100, 100),
                v_ref=rng.uniform(0, 3),
                acc_ref=rng.uniform(-2, 2),
                acc_k=rng.uniform(-2, 2),
            )
            gain = feedback.acc_ref - feedback.acc_k
            cost = _cost_matrix(state.init_table, feedback)
            assert np.all(cost >= 0.0)
            step = cfg.sigma * gain / (1.0 + cost)
            assert np.all(np.abs(step) <= cfg.sigma * abs(gain) + 1e-15)

    def test_window_gets_largest_step_when_similarity_uniform(self):
        # constant initial table makes every similarity factor identical
        speed = np.linspace(0, 3, 16)
        cmd = np.linspace(-100, 100, 41)
        table = CalibrationTable(speed, cmd, np.zeros((41, 16)) + 0.1)
        cfg = OnlineConfig()
        feedback = fb(cmd_ref=20.0, v_ref=1.0, acc_ref=0.6, acc_k=0.1)
        cost = _cost_matrix(table, feedback)
        window = (np.abs(feedback.cmd_ref - cmd)[:, None] <= DELTA_CMD) & (
            np.abs(feedback.v_ref - speed)[None, :] <= DELTA_V
        )
        step = np.abs(cfg.sigma * (feedback.acc_ref - feedback.acc_k) / (1 + cost))
        assert step[window].min() >= step[~window].max()

    def test_moves_toward_measurement(self):
        table = grid_table()
        state = OnlineCalibrator(table)
        cfg = OnlineConfig()
        # sluggish: promised 0.8, measured 0.3 -> cells drop
        new = update_table(state, fb(acc_ref=0.8, acc_k=0.3), cfg)
        assert np.all(new.acc <= table.acc + 1e-15)
        # eager: promised -0.5, measured -0.1 -> brake cells rise toward zero
        new2 = update_table(state, fb(cmd_ref=-30.0, acc_ref=-0.5, acc_k=-0.1), cfg)
        assert np.all(new2.acc >= table.acc - 1e-15)

    def test_repeated_updates_converge_on_feedback_cell(self):
        table = grid_table()
        cal = OnlineCalibrator(table, OnlineConfig())
        i = int(np.argmin(np.abs(table.cmd_grid - 20.0)))
        j = int(np.argmin(np.abs(table.speed_grid - 1.0)))
        target = float(table.acc[i, j]) - 0.4  # the plant really produces this
        for _ in range(400):
            acc_ref = lookup_acc(cal.table, 20.0, 1.0)
            cal.step(2.0, 1.0, fb(cmd_ref=20.0, v_ref=1.0, acc_ref=acc_ref, acc_k=target))
        assert lookup_acc(cal.table, 20.0, 1.0) == pytest.approx(target, abs=0.01)

    def test_init_table_never_mutates(self):
        table = grid_table()
        frozen = table.acc.copy()
        cal = OnlineCalibrator(table, OnlineConfig())
        rng = np.random.default_rng(1)
        for _ in range(100):
            acc_ref = rng.uniform(-2, 2)
            cal.step(
                2.0,
                1.0,
                fb(cmd_ref=rng.uniform(-100, 100), v_ref=rng.uniform(0, 3),
                   acc_ref=acc_ref, acc_k=acc_ref + rng.uniform(-1, 1)),
            )
        assert np.array_equal(cal.init_table.acc, frozen)
        with pytest.raises(ValueError):
            cal.init_table.acc[0, 0] = 9.9

    def test_update_independent_of_other_cells(self):
        # the per-cell step depends on the feedback and the initial table
        # only, so two current tables differing far away get identical steps
        base = grid_table()
        state_a = OnlineCalibrator(base)
        other_acc = base.acc.copy()
        other_acc[:, 10:] += 0.25  # same monotonicity, different far values
        state_b = OnlineCalibrator(base)
        publish(state_b, CalibrationTable(base.speed_grid, base.cmd_grid, other_acc))
        cfg = OnlineConfig()
        feedback = fb(cmd_ref=-40.0, v_ref=0.6, acc_ref=-1.0, acc_k=-1.3)
        new_a = update_table(state_a, feedback, cfg)
        new_b = update_table(state_b, feedback, cfg)
        delta_a = state_a.table.acc - new_a.acc
        delta_b = state_b.table.acc - new_b.acc
        assert np.allclose(delta_a, delta_b, atol=1e-12)

    def test_successor_reads_its_own_cells(self):
        # the old table's reads fill its column cache first; the successor
        # must read its own cells, as a table built afresh from them does
        table = grid_table()
        state = OnlineCalibrator(table)
        cmd, v = 20.0, 1.0
        before = lookup_acc(table, cmd, v), lookup_cmd(table, v, 0.3)
        new = update_table(state, fb(cmd_ref=cmd, v_ref=v, acc_ref=0.8, acc_k=0.3), OnlineConfig(sigma=1.0))
        fresh = CalibrationTable(new.speed_grid, new.cmd_grid, new.acc)
        after = lookup_acc(new, cmd, v), lookup_cmd(new, v, 0.3)
        assert after == (lookup_acc(fresh, cmd, v), lookup_cmd(fresh, v, 0.3))
        assert after[0] < before[0] and after[1] > before[1]
        assert lookup_acc(table, cmd, v) == before[0]

    def test_projection_restores_monotonicity(self):
        # a feedback at the edge of the window bends the column; the
        # published table must still be monotone
        table = grid_table(slope=0.001)
        state = OnlineCalibrator(table)
        cfg = OnlineConfig(sigma=1.0)
        feedback = fb(cmd_ref=20.0, v_ref=1.0, acc_ref=2.0, acc_k=-2.0)
        # the step alone leaves a column decreasing, so the repair has work
        gain = feedback.acc_ref - feedback.acc_k
        raw = table.acc - cfg.sigma * gain / (1.0 + _cost_matrix(table, feedback))
        assert np.any(np.diff(raw, axis=0) < 0.0)
        new = update_table(state, feedback, cfg)
        assert new.is_monotone()

    def test_replay_matches_per_column_isotonic_reference(self):
        # the feedback of every update a 20 s online ax1(+150 kg) run published
        init = ax1().true_table()
        cfg = OnlineConfig()
        loaded = ax1(load=150.0)
        run = run_closed_loop(
            loaded, init, trapezoid_profile(loaded.v_max, 20.0), duration=20.0, online=cfg
        )
        feedbacks = [fb(e.cmd_ref, e.v_ref, e.acc_ref, e.acc_k) for e in run.events]
        assert len(feedbacks) > 500
        cal = OnlineCalibrator(init, cfg)
        ref = init.acc.copy()
        repaired = overshot = 0
        for feedback in feedbacks:
            old = cal.table.acc
            publish(cal, update_table(cal, feedback, cfg))
            # no cell moves further than sigma * |gain| but for one ulp of the
            # cell, and rounding does take some cells that ulp further
            gain = feedback.acc_ref - feedback.acc_k
            excess = np.abs(cal.table.acc - old) - cfg.sigma * abs(gain)
            assert np.all(excess <= np.spacing(np.maximum(np.abs(old), np.abs(cal.table.acc))))
            overshot += bool(np.any(excess > 0.0))
            # the same step, then scipy's isotonic regression column by column
            ref = ref - cfg.sigma * gain / (1.0 + _cost_matrix(init, feedback))
            for j in np.flatnonzero(np.any(np.diff(ref, axis=0) < 0.0, axis=0)):
                ref[:, j] = isotonic_regression(ref[:, j]).x
                repaired += 1
            np.testing.assert_allclose(cal.table.acc, ref, rtol=0.0, atol=1e-12)
        assert repaired > len(feedbacks) and overshot > len(feedbacks) // 2
        assert np.array_equal(cal.table.acc, run.table.acc)


@st.composite
def update_cases(draw):
    """A monotone table, one feedback point around its grid, and a learning ratio.

    A non-zero gain is 1e-9 or more in magnitude: far below the table's
    values, so a cell's rounding, one ulp of it, is far more than the step.
    """
    n = draw(st.integers(2, 12))
    m = draw(st.integers(2, 6))
    cmd = np.cumsum([draw(st.floats(-100.0, 0.0))] + draw(st.lists(st.floats(0.5, 40.0), min_size=n - 1, max_size=n - 1)))
    speed = np.cumsum([draw(st.floats(0.0, 1.0))] + draw(st.lists(st.floats(0.05, 3.0), min_size=m - 1, max_size=m - 1)))
    step = st.one_of(st.just(0.0), st.floats(0.0, 3.0))
    cols = [np.cumsum([draw(st.floats(-6.0, 0.0))] + [draw(step) for _ in range(n - 1)]) for _ in range(m)]
    table = CalibrationTable(speed, cmd, np.column_stack(cols))
    acc_ref = draw(st.floats(-8.0, 8.0))
    gain = draw(st.one_of(st.just(0.0), st.floats(1e-9, 8.0), st.floats(-8.0, -1e-9)))
    feedback = fb(
        cmd_ref=draw(st.floats(cmd[0] - 10.0, cmd[-1] + 10.0)),
        v_ref=draw(st.floats(speed[0], speed[-1] + 1.0)),
        acc_ref=acc_ref,
        acc_k=acc_ref - gain,
    )
    cfg = OnlineConfig(sigma=draw(st.sampled_from([0.05, 0.3, 1.0])))
    return table, feedback, cfg


class TestUpdateProperties:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(update_cases())
    def test_one_update_is_finite_invertible_and_bounded(self, case):
        # isotonic regression does not expand sup-norm distances and leaves a
        # monotone column as it is, so the repair keeps every cell within the
        # largest step, sigma * |gain|, but for the rounding of the cell: one
        # ulp of the larger of its old and new magnitudes
        table, feedback, cfg = case
        state = OnlineCalibrator(table, cfg)
        new = update_table(state, feedback, cfg)
        assert np.all(np.isfinite(new.acc))
        assert invert(new) is new
        gain = feedback.acc_ref - feedback.acc_k
        ulp = np.spacing(np.maximum(np.abs(table.acc), np.abs(new.acc)))
        assert np.all(np.abs(new.acc - table.acc) <= cfg.sigma * abs(gain) + ulp)


class TestPublish:
    def test_revision_strictly_increasing(self):
        table = grid_table()
        state = OnlineCalibrator(table)
        assert state.revision == 0
        publish(state, table)
        publish(state, table)
        assert state.revision == 2

    def test_snapshot_consistency_under_concurrent_publish(self):
        table = grid_table(n_cmd=11, n_speed=6)
        state = OnlineCalibrator(table)
        stop = threading.Event()
        errors = []
        published = [table]  # published[rev] is the table of revision rev

        def reader():
            last_rev = -1
            while not stop.is_set():
                snap_table, rev = state.snapshot()
                if rev < last_rev:
                    errors.append(f"revision went backwards: {rev} < {last_rev}")
                last_rev = rev
                if not snap_table.is_monotone():
                    errors.append("non-monotone table observed")
                if snap_table is not published[rev]:
                    errors.append(f"revision {rev} paired with another revision's table")

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        rng = np.random.default_rng(2)
        current = table
        for _ in range(300):
            acc = current.acc + rng.uniform(0.0, 0.01)
            current = CalibrationTable(table.speed_grid, table.cmd_grid, acc)
            published.append(current)
            publish(state, current)
        stop.set()
        for t in threads:
            t.join()
        assert errors == []
        assert state.revision == 300

    @pytest.mark.parametrize("row, value", [(-1, ACC_MEAS_LIMIT + 0.5), (0, -ACC_MEAS_LIMIT - 0.5)])
    def test_runaway_table_is_refused(self, row, value):
        table = grid_table()
        state = OnlineCalibrator(table)
        acc = table.acc.copy()
        acc[row, 3] = value
        with pytest.raises(ImplausibleTable, match="beyond 50"):
            publish(state, CalibrationTable(table.speed_grid, table.cmd_grid, acc))
        assert state.table is table and state.revision == 0

    def test_table_at_the_limit_is_published(self):
        table = grid_table()
        state = OnlineCalibrator(table)
        acc = table.acc.copy()
        acc[0, :], acc[-1, :] = -ACC_MEAS_LIMIT, ACC_MEAS_LIMIT
        limit = CalibrationTable(table.speed_grid, table.cmd_grid, acc)
        publish(state, limit)
        assert state.table is limit and state.revision == 1

    def test_runaway_run_stops_at_publish(self, monkeypatch):
        # sigma 0.5 at the ax1's own truth runs away (see ROADMAP): the update
        # that first crosses the limit is refused at publish, long before the
        # t = 240.35 s frame whose expected acceleration ``push`` would refuse
        states = []
        real = longcal.online.publish

        def spy(state, new_table):
            states.append(state)
            return real(state, new_table)

        monkeypatch.setattr(longcal.online, "publish", spy)
        config = ax1(load=0.0)
        profile = trapezoid_profile(config.v_max, 300.0)
        with pytest.raises(ImplausibleTable):
            run_closed_loop(config, config.true_table(), profile, online=OnlineConfig(sigma=0.5), seed=0)
        state = states[-1]
        assert state.cycle * 0.01 < 240.35
        assert state.revision == len(states) - 1
        assert np.abs(state.table.acc).max() <= ACC_MEAS_LIMIT


class TestOnlineCalibrator:
    # True ran until the first update, then failed with AttributeError: ... 'sigma'
    @pytest.mark.parametrize("cfg", [0.5, True, "yes", {"sigma": 0.05}])
    def test_refuses_cfg_of_another_type(self, cfg, monkeypatch):
        def no_setup(*args, **kwargs):
            raise AssertionError("the calibrator was set up before cfg was checked")

        monkeypatch.setattr(longcal.online, "invert", no_setup)
        with pytest.raises(TypeError, match=r"^cfg must be None or an OnlineConfig, got "):
            OnlineCalibrator(grid_table(), cfg)

    def test_converged_cycle_skips_update_but_counts(self):
        cal = OnlineCalibrator(grid_table(), OnlineConfig())
        assert cal.step(1.0, 1.02, fb(acc_ref=1.0, acc_k=0.0)) is None
        assert cal.cycle == 1
        assert cal.revision == 0

    def test_no_feedback_no_update(self):
        cal = OnlineCalibrator(grid_table(), OnlineConfig())
        assert cal.step(2.0, 1.0, None) is None
        assert cal.cycle == 1

    def test_non_finite_update_is_refused(self):
        # the gain overflows to inf and is refused before the step
        table = ax1().true_table()
        cal = OnlineCalibrator(table)
        with pytest.raises(NonFiniteTable):
            cal.step(2.0, 1.0, OnlineFeedback(20.0, 1.0, 1e308, -1e308, 1.0))
        assert cal.revision == 0
        assert cal.table is table

    def test_update_publishes_new_revision(self):
        # the returned record is the feedback the step applied, its gain, the
        # full-strength window's size and the revision it published
        table = grid_table()
        cal = OnlineCalibrator(table, OnlineConfig())
        feedback = fb(cmd_ref=22.0, v_ref=1.1, acc_ref=0.9, acc_k=0.2)
        update = cal.step(2.0, 1.0, feedback)
        assert isinstance(update, OnlineUpdate)
        assert (update.cmd_ref, update.v_ref, update.acc_ref, update.acc_k) == (22.0, 1.1, 0.9, 0.2)
        assert update.gain == 0.9 - 0.2
        assert update.updated_cells == int((_cost_matrix(table, feedback) == 0).sum()) > 1
        assert update.revision == cal.revision == 1
        assert update.cycle == cal.cycle == 1
        assert update.seconds > 0
