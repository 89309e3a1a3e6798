"""Offline cleaning ops, the delay estimate, the Butterworth filter, and the online feedback gates."""

import dataclasses
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import butter, group_delay, lfilter, lfilter_zi

import longcal
from longcal import ParseError, preprocess
from longcal.preprocess import (
    CELL_CAP,
    CMD_GAP,
    CMD_LIMIT,
    CONSISTENCY_WINDOW,
    LOG_HEADER,
    MAX_DELAY,
    MEAN_WINDOW,
    MODE_AUTO,
    STEER_LIMIT,
    ButterworthFilter,
    DriveLog,
    ImplausibleFrame,
    InvalidRate,
    NonFiniteFrame,
    OnlinePreprocessor,
    TimestampNotIncreasing,
    UnreadableDelay,
    _bin_and_uniform,
    command_consistency_gate,
    estimate_delay,
    nearest_cell_index,
    offline_pipeline,
    speed_acc_consistency_gate,
)
from longcal.simulator import PRESETS, ax1, generate_drive_log, run_closed_loop, trapezoid_profile


def make_log(n=100, cmd=None, v=None, acc=None, theta=None, mode=None, dt=0.01):
    t = np.arange(n) * dt
    cmd = np.zeros(n) if cmd is None else np.asarray(cmd, float)
    v = np.zeros(n) if v is None else np.asarray(v, float)
    acc = np.zeros(n) if acc is None else np.asarray(acc, float)
    theta = np.zeros(n) if theta is None else np.asarray(theta, float)
    mode = np.array(["MANUAL"] * n, dtype=object) if mode is None else mode
    return DriveLog(t, cmd, v, acc, theta, mode)


def edited(log, **columns):
    """``log`` with the named columns replaced."""
    return DriveLog(**{name: columns.get(name, getattr(log, name)) for name in LOG_HEADER})


def answering(cmd, shift, gain=0.01):
    """An IMU channel ``gain * cmd`` that answers each command ``shift`` frames late."""
    cmd = np.asarray(cmd, float)
    return gain * np.r_[np.full(shift, cmd[0]), cmd[: len(cmd) - shift]]


@pytest.fixture
def presets_delay(monkeypatch):
    """Make ``offline_pipeline`` pair frames 0.2 s (20 samples) apart, the presets' delay.

    For a log made to test one stage, whose command or IMU channel holds
    no delay to read.
    """
    monkeypatch.setattr(preprocess, "estimate_delay", lambda log: 20)


# one command and one IMU value: no delay to read
@pytest.mark.usefixtures("presets_delay")
class TestSteeringGate:
    """offline_pipeline's steering selection, on a log steady in command and speed."""

    # frames 0..START-1 feed the first frame's delay shift and mean window
    START = round(0.2 / 0.01) + MEAN_WINDOW

    def kept(self, theta):
        """Indices of the frames offline_pipeline keeps.

        Each frame's speed is its index, and each index has its own speed
        cell, so no cell reaches ``CELL_CAP``.
        """
        n = len(theta)
        log = make_log(n=n, cmd=np.full(n, 50.0), v=np.arange(n), acc=np.full(n, 0.5), theta=theta)
        bins = offline_pipeline(log, np.array([0.0, 50.0, 100.0]), np.arange(n, dtype=float))
        return np.rint(bins.to_samples()[:, 1]).astype(int)

    def test_all_straight_retained(self):
        assert np.array_equal(self.kept(np.zeros(50)), np.arange(self.START, 50))

    def test_threshold_is_strict(self):
        below = np.nextafter(STEER_LIMIT, 0.0)
        theta = np.tile([0.0, STEER_LIMIT, -STEER_LIMIT, below, -below], 20)
        kept = np.arange(self.START, 100)
        kept = kept[np.abs(theta[kept]) < STEER_LIMIT]
        assert len(kept) == 45
        assert np.array_equal(self.kept(theta), kept)

    def test_mixed_log(self):
        theta = np.tile([0.0, 5.0, STEER_LIMIT, 20.0], 25)
        kept = self.kept(theta)
        assert np.array_equal(kept, [k for k in range(self.START, 100) if theta[k] in (0.0, 5.0)])


GRIDS = (np.linspace(-100.0, 100.0, 5), np.linspace(0.0, 3.0, 4))


def kept_in_one_cell(acc):
    """The ``acc`` values ``_bin_and_uniform`` keeps of rows that all share one cell, in order."""
    n = len(acc)
    bins = _bin_and_uniform(np.full(n, 50.0), np.full(n, 1.0), np.asarray(acc, float), *GRIDS, 0.2)
    return bins.to_samples()[:, 2]


def reference_bins(cmd, v, acc, cmd_grid, speed_grid, delay):
    """``_bin_and_uniform`` as one loop over the cells, each its own draw and z-score mask."""
    ci = nearest_cell_index(cmd_grid, cmd)
    vi = nearest_cell_index(speed_grid, v)
    cell_id = ci * len(speed_grid) + vi
    order = np.argsort(cell_id, kind="stable")
    bounds = np.flatnonzero(np.r_[True, np.diff(cell_id[order]) != 0, True])
    rng = np.random.default_rng(0)
    kept = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        idx = order[a:b]
        if len(idx) > CELL_CAP:
            idx = idx[np.sort(rng.choice(len(idx), size=CELL_CAP, replace=False))]
        values = acc[idx]
        if len(values) > 1 and values.std() > 0.0:
            idx = idx[np.abs(values - values.mean()) / values.std() <= 1.0]
        kept.append(idx)
    idx = np.concatenate(kept)
    return np.column_stack([cmd[idx], v[idx], acc[idx]]), cell_id[idx], delay


def assert_bins_equal_reference(bins, *args):
    samples, cell, delay = reference_bins(*args)
    assert bins.samples.dtype == samples.dtype and bins.samples.shape == samples.shape
    assert bins.samples.tobytes() == samples.tobytes()
    assert bins.cell.dtype == cell.dtype and bins.cell.tobytes() == cell.tobytes()
    assert bins.delay == delay


@st.composite
def binned_rows(draw):
    """Shuffled rows of a few cells on ``GRIDS``, with one ``acc`` each.

    Cells of one row, zero spread, two values, ties and any values, of up to
    ``CELL_CAP + 1`` rows; a cell drawn twice holds both draws' rows, so a
    cell can pass ``CELL_CAP + 1`` rows too.
    """
    acc, cells = [], []
    # hundredths: sums of them round, so the order of a sum shows in its bits
    value = st.integers(-800, 800).map(lambda k: k / 100)
    for _ in range(draw(st.integers(1, 5))):
        n = draw(st.sampled_from([1, 2, 3, 6, 7, 8, 9, 16, CELL_CAP - 2, CELL_CAP - 1, CELL_CAP, CELL_CAP + 1]))
        kind = draw(st.sampled_from(["zero spread", "two values", "ties", "any"]))
        if kind == "zero spread":
            acc += [draw(value)] * n
        elif kind == "two values":
            # as many rows of each value (n even): every row is one deviation
            # out, so which side of 1 its z-score falls on is down to rounding
            acc += ([draw(value), draw(value)] * n)[:n]
        elif kind == "ties":
            acc += draw(st.lists(st.sampled_from([draw(value) for _ in range(3)]), min_size=n, max_size=n))
        else:
            acc += draw(st.lists(st.floats(-8.0, 8.0), min_size=n, max_size=n))
        cells += [(draw(st.integers(0, 4)), draw(st.integers(0, 3)))] * n
    perm = draw(st.permutations(range(len(acc))))
    i, j = np.array(cells)[perm].T
    # each row its own command, within half a cell of its grid point
    cmd = GRIDS[0][i] + 1e-3 * np.arange(len(acc))
    return cmd, GRIDS[1][j], np.array(acc)[perm]


class TestRemoveOutliers:
    """``_bin_and_uniform``'s z-score stage, on rows that all share one cell."""

    def test_all_equal_passthrough(self):
        assert np.array_equal(kept_in_one_cell(np.full(6, 1.25)), np.full(6, 1.25))

    def test_hand_zscores(self):
        # mean 2.5, std 4.330: the 10 sits at z=1.73 and is dropped
        assert np.array_equal(kept_in_one_cell([0.0, 0.0, 0.0, 10.0]), [0.0, 0.0, 0.0])

    def test_single_sample_passthrough(self):
        assert np.array_equal(kept_in_one_cell([7.0]), [7.0])

    def test_never_empties_nonempty_input(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            cell = rng.normal(rng.uniform(-3, 3), rng.uniform(0, 2), rng.integers(1, 12))
            assert len(kept_in_one_cell(cell)) > 0

    def test_single_pass_not_iterated(self):
        # iterating would also kill the 4.0 on the second sweep
        kept = kept_in_one_cell([0.0, 0.0, 0.0, 0.0, 4.0, 100.0])
        assert np.array_equal(kept, [0.0, 0.0, 0.0, 0.0, 4.0])


class TestBinsEqualPerCellReference:
    """``_bin_and_uniform`` gives byte for byte the bins of one loop over the cells."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_presets_logs(self, preset, seed, monkeypatch):
        config = PRESETS[preset]()
        log = generate_drive_log(config, duration=60.0, seed=seed)
        calls = []

        def recorded(*args):
            calls.append(args)
            return _bin_and_uniform(*args)

        monkeypatch.setattr(preprocess, "_bin_and_uniform", recorded)
        grids = config.table_grids()
        bins = offline_pipeline(log, *grids)
        (cmd, v, *_), = calls
        # some cell is drawn down to CELL_CAP
        cells = nearest_cell_index(grids[0], cmd) * len(grids[1]) + nearest_cell_index(grids[1], v)
        assert np.bincount(cells).max() > CELL_CAP
        assert_bins_equal_reference(bins, *calls[0])

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(binned_rows())
    def test_cells_of_every_kind(self, rows):
        assert_bins_equal_reference(_bin_and_uniform(*rows, *GRIDS, 0.2), *rows, *GRIDS, 0.2)

    def test_a_cell_at_the_cap_draws_nothing(self):
        # a draw in the first cell would move the generator, and so the second cell's draw
        n = 2 * CELL_CAP + 10
        cmd = np.where(np.arange(n) < CELL_CAP, -100.0, 0.0)
        rows = (cmd, np.zeros(n), np.random.default_rng(4).normal(0.0, 1.0, n))
        assert_bins_equal_reference(_bin_and_uniform(*rows, *GRIDS, 0.2), *rows, *GRIDS, 0.2)

    def test_empty_input_gives_empty_bins(self):
        empty = np.zeros(0)
        bins = _bin_and_uniform(empty, empty, empty, *GRIDS, 0.2)
        assert bins.samples.shape == (0, 3) and len(bins.cell) == 0
        assert not bins.counts().any()
        assert_bins_equal_reference(bins, empty, empty, empty, *GRIDS, 0.2)


class TestBinAndUniform:
    def test_counts_unchanged_below_cap(self):
        rng = np.random.default_rng(1)
        n = 60
        cols = (rng.uniform(-100, 100, n), rng.uniform(0, 3, n), np.zeros(n))
        bins = _bin_and_uniform(*cols, np.linspace(-100, 100, 5), np.linspace(0, 3, 4), 0.2)
        assert bins.counts().sum() == n

    def test_cap_semantics(self):
        cols = (np.full(1000, 20.0), np.full(1000, 1.0), np.zeros(1000))
        bins = _bin_and_uniform(*cols, np.linspace(-100, 100, 5), np.linspace(0, 3, 4), 0.2)
        assert bins.counts().sum() == CELL_CAP

    def test_seeded_reproducible(self):
        # six cells of 60 to 130 samples each: every cell is drawn down to CELL_CAP
        rng = np.random.default_rng(2)
        n = 500
        cols = (rng.uniform(-100, 100, n), rng.uniform(0, 3, n), rng.normal(0, 1, n))
        grids = (np.linspace(-100, 100, 3), np.linspace(0, 3, 2))
        a = _bin_and_uniform(*cols, *grids, 0.2)
        b = _bin_and_uniform(*cols, *grids, 0.2)
        assert a.counts().max() <= CELL_CAP
        assert np.array_equal(a.counts(), b.counts())
        assert np.array_equal(a.to_samples(), b.to_samples())

    def test_samples_inside_cell_bounds(self):
        rng = np.random.default_rng(3)
        n = 400
        cmd_grid = np.linspace(-100, 100, 9)
        speed_grid = np.linspace(0, 3, 7)
        cols = (rng.uniform(-100, 100, n), rng.uniform(0, 3, n), rng.normal(0, 1, n))
        bins = _bin_and_uniform(*cols, cmd_grid, speed_grid, 0.2)
        half_c = 0.5 * (cmd_grid[1] - cmd_grid[0])
        half_v = 0.5 * (speed_grid[1] - speed_grid[0])
        i, j = np.divmod(bins.cell, len(speed_grid))
        rows = bins.to_samples()
        assert np.all(np.abs(rows[:, 0] - cmd_grid[i]) <= half_c + 1e-12)
        assert np.all(np.abs(rows[:, 1] - speed_grid[j]) <= half_v + 1e-12)
        assert np.all(np.diff(bins.cell) >= 0)

    def test_nearest_cell_index(self):
        grid = np.array([0.0, 1.0, 2.0])
        assert np.array_equal(nearest_cell_index(grid, [-5.0, 0.4, 0.6, 1.4, 9.0]), [0, 0, 1, 1, 2])


def lowpass(series, sample_rate=100.0):
    f = ButterworthFilter(sample_rate)
    return np.array([f(x) for x in series])


class TestButterworth:
    def test_rate_must_clear_cutoff(self):
        with pytest.raises(InvalidRate):
            ButterworthFilter(4.0)

    @pytest.mark.parametrize(
        "args, error",
        [
            pytest.param(dict(sample_rate=0.0), InvalidRate, id="rate-0"),
            pytest.param(dict(sample_rate=float("inf")), InvalidRate, id="rate-inf"),
            pytest.param(dict(sample_rate=float("nan")), InvalidRate, id="rate-nan"),
        ],
    )
    def test_invalid_arguments_raise(self, args, error):
        with pytest.raises(error):
            ButterworthFilter(**{"sample_rate": 100.0, **args})
        if error is InvalidRate:
            with pytest.raises(InvalidRate):
                OnlinePreprocessor(args["sample_rate"])

    @pytest.mark.parametrize("rate", [50.0, 100.0, 200.0])
    def test_design_equals_scipy(self, rate):
        f = ButterworthFilter(rate)
        b, a = butter(3, 2.0, fs=rate, btype="low")
        assert np.array_equal(f._bl, b)
        assert np.array_equal(f._al, a)
        assert np.array_equal(f._zi_unit, lfilter_zi(b, a))
        assert abs(f.dc_delay - group_delay((b, a), w=[1e-9], fs=rate)[1][0]) < 1e-9

    def test_unity_dc_gain(self):
        out = lowpass(np.full(500, 2.7))
        assert np.allclose(out, 2.7, atol=1e-9)

    @staticmethod
    def steady_gain(freq_hz, rate=100.0, seconds=6.0):
        t = np.arange(int(seconds * rate)) / rate
        x = np.sin(2 * np.pi * freq_hz * t)
        y = lowpass(x, rate)
        tail = y[len(y) // 2 :]
        return np.sqrt(2.0) * tail.std()

    def test_cutoff_gain_is_half_power(self):
        assert self.steady_gain(2.0) == pytest.approx(1.0 / np.sqrt(2.0), abs=0.03)

    def test_decade_above_cutoff_attenuated(self):
        assert self.steady_gain(20.0) < 0.005

    def test_linearity(self):
        rng = np.random.default_rng(4)
        x = rng.normal(0, 1, 400)
        y = rng.normal(0, 1, 400)
        a, b = 1.7, -0.6
        lhs = lowpass(a * x + b * y)
        rhs = a * lowpass(x) + b * lowpass(y)
        assert np.allclose(lhs, rhs, atol=1e-9)

    def test_streaming_matches_batch(self):
        rng = np.random.default_rng(5)
        x = rng.normal(0, 1, 300)
        stream = ButterworthFilter(100.0)
        one_by_one = np.array([stream(xi) for xi in x])
        b, a = butter(3, 2.0, fs=100.0, btype="low")
        batch, _ = lfilter(b, a, x, zi=lfilter_zi(b, a) * x[0])
        assert np.allclose(one_by_one, batch, atol=1e-9)

    def test_causal_no_lookahead(self):
        # outputs up to k must not change when the future changes
        x = np.zeros(100)
        y1 = lowpass(x)
        x2 = x.copy()
        x2[60:] = 5.0
        y2 = lowpass(x2)
        assert np.allclose(y1[:60], y2[:60])


class TestCommandConsistencyGate:
    def make_hist(self, fn, t0=0.0, t1=1.0, dt=0.01):
        t = np.arange(t0, t1, dt)
        return t, np.array([fn(ti) for ti in t])

    def test_constant_true(self):
        t, c = self.make_hist(lambda ti: 30.0)
        assert command_consistency_gate(t, c, 0.5, 30.0, dt=0.01)

    def test_spike_false(self):
        t, c = self.make_hist(lambda ti: 30.0)
        c[np.argmin(np.abs(t - 0.55))] = 30.0 + 2 * CMD_GAP
        assert not command_consistency_gate(t, c, 0.5, 30.0, dt=0.01)

    def test_slow_ramp_true(self):
        # slope gap/0.3s: max deviation inside +-0.1s is gap/3 < gap
        t, c = self.make_hist(lambda ti: CMD_GAP / 0.3 * ti)
        assert command_consistency_gate(t, c, 0.5, c[50], dt=0.01)

    @pytest.mark.parametrize("offset", [CMD_GAP, -CMD_GAP])
    def test_reference_one_gap_off_the_history_false(self, offset):
        # the gate compares the history with the command it is handed,
        # not with a command it reads back from the history
        t, c = self.make_hist(lambda ti: 30.0)
        assert not command_consistency_gate(t, c, 0.5, 30.0 + offset, dt=0.01)
        assert command_consistency_gate(t, c, 0.5, 30.0 + 0.99 * offset, dt=0.01)

    def test_insufficient_history(self):
        t, c = self.make_hist(lambda ti: 0.0, t0=0.45, t1=0.55)
        assert not command_consistency_gate(t, c, 0.5, 0.0, dt=0.01)

    @pytest.mark.parametrize(
        "dropped, fills",
        [
            # the history reaches past both ends of [0.4, 0.6] every time
            pytest.param((0.46, 0.47, 0.48, 0.49), False, id="four-inside"),
            pytest.param((0.40,), False, id="first-frame"),
            # one frame inside, as a frame push refused leaves
            pytest.param((0.47,), True, id="one-inside"),
        ],
    )
    def test_window_with_missing_frames(self, dropped, fills):
        t, c = self.make_hist(lambda ti: 0.0)
        keep = np.all(np.abs(t[:, None] - np.array(dropped)) > 0.005, axis=1)
        assert command_consistency_gate(t[keep], c[keep], 0.5, 0.0, dt=0.01) == fills


class TestSpeedAccConsistencyGate:
    def test_truth_table(self):
        assert speed_acc_consistency_gate(2.0, 1.0, 0.5, 0.2) is True
        assert speed_acc_consistency_gate(1.0, 2.0, 0.2, 0.5) is True
        assert speed_acc_consistency_gate(1.0, 2.0, 0.5, 0.2) is False
        assert speed_acc_consistency_gate(2.0, 1.0, 0.2, 0.5) is False

    def test_zero_product_is_false(self):
        assert speed_acc_consistency_gate(1.0, 1.0, 0.5, 0.2) is False
        assert speed_acc_consistency_gate(2.0, 1.0, 0.3, 0.3) is False


def shortest_readable_log():
    """A log of exactly the frames ``estimate_delay`` needs, answered 20 frames late.

    Commands dwell 1-6 frames at levels over the whole pedal range.  The
    first change, at frame 3 inside the few frames every lag reads, is
    full brake to full throttle: no later change is as large, so no other
    lag scores as high.
    """
    n = round(MAX_DELAY / 0.01) + MEAN_WINDOW
    rng = np.random.default_rng(3)
    levels = np.repeat(rng.uniform(-100.0, 100.0, n), rng.integers(1, 7, n))
    cmd = np.r_[np.full(3, -100.0), 100.0, levels][:n]
    return make_log(n=n, cmd=cmd, v=rng.uniform(0.0, 3.0, n), acc=answering(cmd, 20))


class TestOfflinePipeline:
    @pytest.fixture(scope="class")
    def ax1_log(self):
        return generate_drive_log(ax1(), duration=60.0, seed=0)

    def test_pipeline_applies_all_stages(self):
        rng = np.random.default_rng(6)
        n = 2000
        cmd = np.repeat(rng.uniform(-100, 100, n // 100), 100)
        log = make_log(
            n=n,
            cmd=cmd,
            v=rng.uniform(0, 3, n),
            acc=rng.normal(0.5, 0.05, n) + answering(cmd, 20),
            theta=np.where(np.arange(n) % 10 == 0, 30.0, 0.0),
        )
        bins = offline_pipeline(log, np.linspace(-100, 100, 9), np.linspace(0, 3, 4))
        assert bins.delay == pytest.approx(0.2)
        counts = bins.counts()
        assert counts.sum() > 0
        assert counts.max() <= CELL_CAP

    @pytest.mark.parametrize(
        "make, error, message",
        [
            # the CSV round trip refused this mode at its line; the
            # constructor took it
            pytest.param(lambda log: edited(log, mode=np.r_[log.mode[:-1], ["BOGUS"]]),
                         ValueError, "^mode must be MANUAL or AUTO, got 'BOGUS'$", id="mode-bogus"),
            # columns of shape (n, 1) passed the length check, but the
            # delay estimate's np.diff needs 1-D ones
            pytest.param(lambda log: edited(log, cmd=log.cmd[:, None]),
                         ValueError, "one-dimensional", id="cmd-2d"),
            pytest.param(lambda log: edited(log, t=log.t[:, None], acc=log.acc[:, None]),
                         ValueError, "one-dimensional", id="t-and-acc-2d"),
            # the three logs estimate_delay cannot read
            pytest.param(lambda log: edited(log, cmd=np.full(len(log), 30.0)),
                         UnreadableDelay, "^no command change", id="constant-command"),
            pytest.param(lambda log: DriveLog(*[getattr(log, name)[:104] for name in LOG_HEADER]),
                         UnreadableDelay, "^a log of 104 frames is too short", id="too-short"),
            pytest.param(lambda log: generate_drive_log(dataclasses.replace(ax1(), delay=MAX_DELAY), 60.0, seed=0),
                         UnreadableDelay, "^the peak is at the last lag searched", id="peak-at-the-last-lag"),
        ],
    )
    def test_invalid_arguments_raise(self, make, error, message, ax1_log, monkeypatch):
        def no_binning(*args):
            raise AssertionError("the pipeline binned a log it cannot read")

        monkeypatch.setattr(preprocess, "_bin_and_uniform", no_binning)
        with pytest.raises(error, match=message):
            offline_pipeline(make(ax1_log), *ax1().table_grids())

    @pytest.mark.parametrize(
        "name, bad",
        [
            # none may bin: each is a grid no CalibrationTable accepts, and a
            # one-entry speed grid has no spacing for the standstill threshold
            pytest.param("speed_grid", lambda g: g[:1], id="speed-one-entry"),
            pytest.param("speed_grid", lambda g: g[::-1], id="speed-reversed"),
            pytest.param("cmd_grid", lambda g: g[::-1], id="cmd-reversed"),
            pytest.param("speed_grid", lambda g: np.r_[g[:3], np.nan, g[4:]], id="speed-nan"),
            pytest.param("cmd_grid", lambda g: np.r_[g[:3], g[2], g[4:]], id="cmd-repeated"),
        ],
    )
    def test_invalid_grid_raises(self, name, bad, ax1_log):
        grids = dict(zip(("cmd_grid", "speed_grid"), ax1().table_grids()))
        grids[name] = bad(grids[name])
        with pytest.raises(ValueError, match=name):
            offline_pipeline(ax1_log, **grids)

    @pytest.mark.parametrize("delay", [0.2, 0.0])
    def test_filter_and_delay_alignment(self, delay):
        # a command steady to the gate yet distinct per frame, stepping by up
        # to 8 % every 7-15 frames; a speed equal to the frame index (one
        # speed cell per frame); and a curved IMU ramp plus an answer to the
        # command ``delay`` late
        n, dt = 200, 0.01
        shift = round(delay / dt)
        k = np.arange(n)
        rng = np.random.default_rng(0)
        cmd = 50.0 + 0.01 * k + np.repeat(rng.uniform(-4.0, 4.0, n), rng.integers(7, 16, n))[:n]
        raw = 0.01 * (0.1 * k) ** 2 - 0.03 * k + answering(cmd, shift, gain=0.1)
        log = make_log(n=n, cmd=cmd, v=k, acc=raw, dt=dt)
        bins = offline_pipeline(log, np.array([0.0, 50.0, 100.0]), k.astype(float))
        assert bins.delay == pytest.approx(delay, abs=1e-12)
        rows = bins.to_samples()
        frames = np.rint(rows[:, 1]).astype(int)
        assert np.array_equal(frames, np.arange(shift + MEAN_WINDOW, n))
        assert np.array_equal(rows[:, 0], log.cmd[frames - shift])
        means = [raw[f - MEAN_WINDOW : f].mean() for f in frames]
        np.testing.assert_allclose(rows[:, 2], means, rtol=0, atol=1e-12)

    # one command and an IMU of noise alone: no delay to read
    @pytest.mark.usefixtures("presets_delay")
    def test_mean_filter_reduces_noise(self):
        rng = np.random.default_rng(7)
        n = 5000
        # speeds spread over 200 cells of about 25 frames: none reaches CELL_CAP
        v = np.linspace(0.0, 1.99, n)
        log = make_log(n=n, cmd=np.full(n, 50.0), v=v, acc=rng.normal(1.0, 0.05, n))
        bins = offline_pipeline(log, np.array([0.0, 50.0, 100.0]), np.arange(200) * 0.01)
        assert bins.counts().max() < CELL_CAP
        accs = bins.to_samples()[:, 2]
        assert len(accs) > 100
        assert accs.std() < 0.05 / np.sqrt(5) * 1.5

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda: generate_drive_log(ax1(), duration=60.0, seed=0), id="ax1"),
            pytest.param(lambda: generate_drive_log(PRESETS["mkz"](), duration=60.0, seed=1), id="mkz"),
            pytest.param(shortest_readable_log, id="shortest-readable"),
        ],
    )
    def test_steadiness_mask_equals_ptp_over_windows(self, make, monkeypatch):
        # the frames kept are those whose MEAN_WINDOW + 1 issuing commands
        # span less than CMD_GAP by np.ptp, the other two masks applied alike
        log = make()
        calls = []
        monkeypatch.setattr(preprocess, "_bin_and_uniform", lambda *args: calls.append(args))
        cmd_grid, speed_grid = ax1().table_grids()
        offline_pipeline(log, cmd_grid, speed_grid)
        shift = estimate_delay(log)
        start, end = shift + MEAN_WINDOW, len(log)
        windows = np.lib.stride_tricks.sliding_window_view(log.cmd, MEAN_WINDOW + 1)[: end - start]
        steady = np.ptp(windows, axis=1) < CMD_GAP
        assert 0 < steady.sum() < len(steady)
        cmd, v = log.cmd[start - shift : end - shift], log.v[start:]
        keep = steady & ~((cmd < 0.0) & (v < 0.5 * (speed_grid[1] - speed_grid[0])))
        keep &= np.abs(log.theta[start:]) < STEER_LIMIT
        ((got_cmd, got_v, *_),) = calls
        assert got_cmd.tobytes() == cmd[keep].tobytes() and got_v.tobytes() == v[keep].tobytes()


class TestEstimateDelay:
    @pytest.mark.parametrize("preset", ["ax1", "mkz"])
    @pytest.mark.parametrize("delay", [0.0, 0.1, 0.2, 0.35, 0.5])
    def test_reads_the_plants_delay(self, preset, delay):
        # the scripted driver's dwells, from plants of several delays, a
        # zero-delay one included: it reads lag 0
        config = dataclasses.replace(PRESETS[preset](load=0.0), delay=delay)
        for seed in range(3):
            bins = offline_pipeline(generate_drive_log(config, 300.0, seed=seed), *config.table_grids())
            assert bins.delay == pytest.approx(delay, abs=1e-9)

    @pytest.mark.parametrize("preset", ["ax1", "mkz"])
    @pytest.mark.parametrize("delay", [0.1, 0.2, 0.35, 0.5])
    def test_reads_a_smooth_closed_loop_command(self, preset, delay):
        # a static tracking run's command moves a little every cycle, not in
        # dwells; its IMU is the speed's difference plus the preset's noise
        config = dataclasses.replace(PRESETS[preset](load=0.0), delay=delay)
        trace = run_closed_loop(config, config.true_table(), trapezoid_profile(config.v_max, 300.0)).trace
        n, dt = len(trace), 1.0 / config.sample_rate
        acc = np.diff(trace.v, prepend=0.0) / dt + np.random.default_rng(0).normal(0.0, config.noise_std, n)
        log = DriveLog(trace.t, trace.cmd, trace.v, acc, np.zeros(n), np.full(n, MODE_AUTO, dtype=object))
        assert estimate_delay(log) == round(delay / dt)

    def test_shortest_log_read(self):
        # the window's 100 lags plus MEAN_WINDOW frames; one step of the
        # command, answered 20 frames later
        n = round(MAX_DELAY / 0.01) + MEAN_WINDOW
        cmd = np.where(np.arange(n) < 3, 0.0, 30.0)
        assert estimate_delay(make_log(n=n, cmd=cmd, acc=answering(cmd, 20))) == 20
        with pytest.raises(UnreadableDelay, match="^a log of 104 frames is too short"):
            estimate_delay(make_log(n=n - 1, cmd=cmd[:-1], acc=answering(cmd, 20)[:-1]))


# frames ``push`` refuses: a change to frame 200 of a steady stream, and the error
REFUSED_FRAMES = [
    pytest.param({"acc_meas": float("nan")}, NonFiniteFrame, id="acc_meas"),
    pytest.param({"cmd": float("nan")}, NonFiniteFrame, id="cmd"),
    pytest.param({"v": float("nan")}, NonFiniteFrame, id="v"),
    pytest.param({"t": float("nan")}, NonFiniteFrame, id="t"),
    # finite but no vehicle's: admitted, each stepped every cell toward
    # it and published absurd tables that passed ``invert``
    pytest.param({"acc_meas": 1e308}, ImplausibleFrame, id="acc_meas-1e308"),
    pytest.param({"acc_meas": 1e6}, ImplausibleFrame, id="acc_meas-1e6"),
    pytest.param({"acc_meas": -1e6}, ImplausibleFrame, id="acc_meas-minus-1e6"),
    # a finite but absurd expected acceleration: 1e6, admitted, stepped
    # every cell by its gain
    pytest.param({"acc_expected": 1e6}, ImplausibleFrame, id="acc_expected-1e6"),
    pytest.param({"acc_expected": -1e6}, ImplausibleFrame, id="acc_expected-minus-1e6"),
    # a command off the table's axis: unbounded, 154 of 200 frames
    # at 1e6 were admitted
    pytest.param({"cmd": 1e6}, ImplausibleFrame, id="cmd-1e6"),
    pytest.param({"cmd": -CMD_LIMIT - 1e-9}, ImplausibleFrame, id="cmd-past-minus-limit"),
    # frame 200 carrying frame 199's time, and a time one second back
    pytest.param({"t": 199 * 0.01}, TimestampNotIncreasing, id="t-repeated"),
    pytest.param({"t": 200 * 0.01 - 1.0}, TimestampNotIncreasing, id="t-back"),
]


class TestOnlinePreprocessor:
    def run_stream(self, pre, frames):
        out = []
        for f in frames:
            fb = pre.push(**f)
            if fb is not None:
                out.append(fb)
        return out

    def steady_frames(self, n=200, dt=0.01, cmd=20.0, v=1.0, acc=0.4, acc_exp=0.6, v_exp=1.2):
        # expected above measured both in speed and acceleration: gate passes
        return [
            dict(t=k * dt, cmd=cmd, v=v, acc_meas=acc, acc_expected=acc_exp, v_expected=v_exp)
            for k in range(n)
        ]

    def test_steady_stream_yields_feedback(self):
        pre = OnlinePreprocessor(sample_rate=100.0)
        out = self.run_stream(pre, self.steady_frames())
        assert len(out) > 100
        fb = out[-1]
        assert fb.cmd_ref == 20.0
        assert fb.v_ref == 1.0
        assert fb.acc_ref == 0.6
        assert fb.acc_k == pytest.approx(0.4, abs=1e-6)
        assert fb.v_k == 1.0

    @pytest.mark.parametrize(
        "args",
        [
            pytest.param(dict(delay=float("nan")), id="delay-nan"),
            pytest.param(dict(delay=0.5 * CONSISTENCY_WINDOW), id="delay-below-window"),
            # a bool would pass as a 1 s delay
            pytest.param(dict(delay=True), id="delay-bool"),
            pytest.param(dict(delay=np.True_), id="delay-numpy-bool"),
        ],
    )
    def test_invalid_arguments_raise(self, args):
        # the delay must be a finite number that covers the history window
        with pytest.raises(ValueError, match=next(iter(args))):
            OnlinePreprocessor(sample_rate=100.0, **args)
        assert self.run_stream(OnlinePreprocessor(sample_rate=100.0), self.steady_frames())

    @pytest.mark.parametrize("change, error", REFUSED_FRAMES)
    def test_non_finite_frame_raises_and_changes_nothing(self, change, error):
        frames = self.steady_frames(n=400)
        pre = OnlinePreprocessor(sample_rate=100.0)
        before = self.run_stream(pre, frames[:200])
        with pytest.raises(error):
            pre.push(**dict(frames[200], **change))
        after = self.run_stream(pre, frames[201:])
        # admissions resume at once, exactly as if the frame had never come
        assert len(after) > 190
        clean = self.run_stream(OnlinePreprocessor(sample_rate=100.0), frames[:200] + frames[201:])
        assert before + after == clean

    @pytest.mark.parametrize("cmd", [CMD_LIMIT, -CMD_LIMIT])
    def test_command_at_the_limit_is_admitted(self, cmd):
        # full pedal either way: the tracking loop's clamped command
        assert self.run_stream(OnlinePreprocessor(sample_rate=100.0), self.steady_frames(cmd=cmd))

    def test_forward_gap_drops_stale_pairings(self):
        # the clock jumps from t=1.99 to 3.00 after frame 199; the command
        # changes with it, so a pre-gap cmd_ref is recognisable after the gap
        dt = 0.01
        frames = self.steady_frames(n=400)
        for k, f in enumerate(frames[200:]):
            f.update(t=3.0 + k * dt, cmd=60.0)
        pre = OnlinePreprocessor(sample_rate=100.0)
        before = self.run_stream(pre, frames[:200])
        assert {fb.cmd_ref for fb in before} == {20.0}
        after = [(f["t"], pre.push(**f)) for f in frames[200:]]
        admitted_at = [t for t, fb in after if fb is not None]
        # nothing issued before the gap is paired with an acceleration after it
        assert {fb.cmd_ref for _, fb in after if fb is not None} == {60.0}
        # nor is anything admitted before the post-gap history fills the window
        assert admitted_at[0] >= 3.0 + CONSISTENCY_WINDOW + pre.delay_total - 0.5 * dt
        # from the first post-gap command's maturity on, every frame admits
        assert len(admitted_at) == sum(f["t"] >= admitted_at[0] for f in frames[200:])
        assert len(admitted_at) > 150

    def test_inconsistent_sign_rejected(self):
        # measured acceleration above expectation while speed lags: senseless
        frames = self.steady_frames(acc=0.9, acc_exp=0.6, v_exp=1.2, v=1.0)
        # v_exp > v (under speed) but acc_k > acc_ref: product negative
        pre = OnlinePreprocessor(sample_rate=100.0)
        assert self.run_stream(pre, frames) == []

    def test_command_step_suppresses_window(self):
        frames = self.steady_frames(n=400)
        for f in frames[200:]:
            f["cmd"] = 80.0
        pre = OnlinePreprocessor(sample_rate=100.0)
        out = self.run_stream(pre, frames)
        # feedback stops around the step and resumes once history steadies
        ts = {round(fb.cmd_ref, 6) for fb in out}
        assert ts == {20.0, 80.0}

    def test_manual_mode_rejected(self):
        frames = self.steady_frames()
        for f in frames:
            f["mode"] = "MANUAL"
        pre = OnlinePreprocessor(sample_rate=100.0)
        assert self.run_stream(pre, frames) == []

    def test_steering_rejected(self):
        frames = self.steady_frames()
        for f in frames:
            f["theta"] = 25.0
        pre = OnlinePreprocessor(sample_rate=100.0)
        assert self.run_stream(pre, frames) == []

    @pytest.mark.parametrize(
        "theta, admits",
        [
            pytest.param(STEER_LIMIT, False, id="at-limit"),
            pytest.param(-STEER_LIMIT, False, id="at-minus-limit"),
            pytest.param(np.nextafter(STEER_LIMIT, 0.0), True, id="just-below"),
        ],
    )
    def test_steering_limit_is_strict(self, theta, admits):
        frames = [dict(f, theta=theta) for f in self.steady_frames()]
        out = self.run_stream(OnlinePreprocessor(sample_rate=100.0), frames)
        assert bool(out) is admits

    def test_delay_alignment_pairs_cause_and_effect(self):
        # command steps at t=1.0; the effect (acc jump) appears at t=1.2 in
        # the measured channel; the matured feedback for the stepped command
        # must carry the post-step acceleration
        dt, n = 0.01, 300
        frames = []
        for k in range(n):
            t = k * dt
            cmd = 10.0 if t < 1.0 else 60.0
            acc = 0.1 if t < 1.2 else 1.1  # plant exhibits a pure 0.2 s delay
            frames.append(
                dict(t=t, cmd=cmd, v=1.0, acc_meas=acc, acc_expected=1.15 if cmd == 60 else 0.12,
                     v_expected=1.3)
            )
        pre = OnlinePreprocessor(sample_rate=100.0)
        out = self.run_stream(pre, frames)
        stepped = [fb for fb in out if fb.cmd_ref == 60.0]
        assert stepped
        late = [fb for fb in stepped if fb.acc_k > 0.9]
        assert len(late) / len(stepped) > 0.8


class TestDriveLogCsv:
    @pytest.fixture(scope="class")
    def text(self):
        return generate_drive_log(ax1(), duration=20.0, seed=0).to_csv()

    def test_round_trip_through_text_and_file(self, text, tmp_path):
        assert DriveLog.from_csv(text).to_csv() == text
        path = tmp_path / "log.csv"
        DriveLog.from_csv(text).save(path)
        assert DriveLog.load(path).to_csv() == text

    def test_wrong_header_rejected(self, text):
        with pytest.raises(ValueError, match="header"):
            DriveLog.from_csv(text.replace("theta", "steer", 1))

    def test_swapped_rows_rejected(self, text):
        lines = text.splitlines(keepends=True)
        lines[10], lines[11] = lines[11], lines[10]
        with pytest.raises(ValueError, match="timestamps must be strictly increasing"):
            DriveLog.from_csv("".join(lines))

    @pytest.mark.parametrize(
        "edit, message",
        [
            # a seventh field used to be dropped without a word
            pytest.param(lambda row: row + ",7", "line 12: expected 6 fields, got 7", id="seven-fields"),
            # and a fifth-field mode failed in numpy, naming no line
            pytest.param(lambda row: row.rsplit(",", 2)[0] + ",MANUAL", "line 12: expected 6 fields, got 5",
                         id="five-fields"),
            pytest.param(lambda row: "x," + row.split(",", 1)[1], "line 12: bad number: .*'x'", id="bad-number"),
            # a non-finite number used to fail in the constructor, naming no line
            pytest.param(lambda row: row.split(",", 1)[0] + ",nan," + row.split(",", 2)[2],
                         "line 12: non-finite value", id="nan"),
            pytest.param(lambda row: ",".join(row.split(",")[:4]) + ",-inf," + row.rsplit(",", 1)[1],
                         "line 12: non-finite value", id="inf"),
            # and any mode string was accepted
            pytest.param(lambda row: row.rsplit(",", 1)[0] + ",BOGUS",
                         "line 12: mode must be MANUAL or AUTO, got 'BOGUS'", id="bad-mode"),
        ],
    )
    def test_malformed_row_names_its_line(self, text, edit, message):
        lines = text.splitlines()
        lines[11] = edit(lines[11])
        with pytest.raises(ParseError, match=f"^{message}$") as err:
            DriveLog.from_csv("\n".join(lines))
        assert err.value.line == 12


def test_runtime_imports_no_scipy():
    # a fresh interpreter importing the package from this checkout
    src = Path(longcal.__file__).resolve().parents[1]
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "import longcal, longcal.preprocess, longcal.offline, longcal.online, longcal.simulator\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        # and no process pool: the folds run one after another
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == ["[]", "[]"]
