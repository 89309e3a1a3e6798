"""Simulated plant and tracking loop: goldens, determinism, divergence, and the paper's claim.

The golden files under ``tests/golden`` pin the outputs of the whole
pipeline so that a refactor which changes them fails here.  Regenerate them
with ``PYTHONPATH=src python tests/test_simulator.py`` only when an output
is meant to change, and say why in the change.
"""

import dataclasses
import hashlib
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longcal import offline, online, preprocess, simulator
from longcal.online import _cost_matrix
from longcal.table import CalibrationTable, lookup_acc, lookup_cmd, serialize

GOLDEN = Path(__file__).parent / "golden"
LOG_S = 300.0  # drive log behind the golden offline tables
ONLINE_S = 60.0  # closed-loop run behind the online golden and the claim
ONLINE_LOAD = 150.0  # kg added to the ax1 in that run
# short drive logs kept whole: both end inside a dwell, and the ax1 one
# overshoots v_max, so the truncated dwell and the speed-limit break are pinned
SHORT_LOG_S = 90.37
LOG_COLUMNS = ("t", "cmd", "v", "acc", "theta")


def offline_bins(config, duration=LOG_S, seed=0):
    """A drive log of ``duration`` seconds, cleaned and binned over the preset's grids."""
    log = simulator.generate_drive_log(config, duration, seed=seed)
    return preprocess.offline_pipeline(log, *config.table_grids())


def offline_fit(config, seed=0, duration=LOG_S):
    """Drive log to (monotone table, throttle net, brake net, bins), with the program's default seeds."""
    bins = offline_bins(config, duration, seed)
    cmd_grid, speed_grid = config.table_grids()
    throttle, brake = offline.split_by_sign(bins.to_samples())
    t_model = offline.train_mlp(throttle, offline.MlpHyper(seed=0))
    b_model = offline.train_mlp(brake, offline.MlpHyper(seed=1))
    return offline.build_table(t_model, b_model, speed_grid, cmd_grid), t_model, b_model, bins


def offline_table(config, seed=0):
    return offline_fit(config, seed)[0]


def nets_text(throttle, brake) -> str:
    """Both losses and every parameter of the two nets, losslessly as ``float.hex``.

    The table goldens keep 9 significant digits, so only this one sees a
    last-bit change in a weight.
    """
    lines = []
    for name, model in (("throttle", throttle), ("brake", brake)):
        lines.append(f"{name} first_epoch_mse {model.first_epoch_mse.hex()}")
        lines.append(f"{name} final_mse {model.final_mse.hex()}")
        for i, (w, b) in enumerate(zip(model.weights, model.biases)):
            lines.append(f"{name} w{i} {w.shape[0]} {w.shape[1]}")
            lines.extend(" ".join(x.hex() for x in row) for row in w.tolist())
            lines.append(f"{name} b{i} " + " ".join(x.hex() for x in b.tolist()))
    return "\n".join(lines) + "\n"


def acc_text(acc) -> str:
    """A table's cells, one command row per line, losslessly as ``float.hex``."""
    return "".join(" ".join(x.hex() for x in row) + "\n" for row in acc.tolist())


def log_text(log) -> str:
    """Every frame of a drive log, the float columns losslessly as ``float.hex``."""
    lines = [" ".join(LOG_COLUMNS + ("mode",))]
    cols = [getattr(log, name).tolist() for name in LOG_COLUMNS]
    for *row, mode in zip(*cols, log.mode.tolist()):
        lines.append(" ".join(x.hex() for x in row) + " " + mode)
    return "\n".join(lines) + "\n"


def log_digests(preset: str) -> str:
    """sha256 of each column of the 1200 s seed-0 log of ``preset``, one line per column."""
    log = simulator.generate_drive_log(simulator.PRESETS[preset](load=0.0), 1200.0, seed=0)
    data = {name: getattr(log, name).astype("<f8").tobytes() for name in LOG_COLUMNS}
    data["mode"] = "\n".join(log.mode.tolist()).encode()
    return "".join(f"{preset} {name} {hashlib.sha256(b).hexdigest()}\n" for name, b in data.items())


def short_log(preset: str):
    return simulator.generate_drive_log(simulator.PRESETS[preset](load=0.0), SHORT_LOG_S, seed=0)


def ax1_loop(table, online, duration=ONLINE_S, seed=0):
    loaded = simulator.ax1(load=ONLINE_LOAD)
    profile = simulator.trapezoid_profile(loaded.v_max, duration)
    return simulator.run_closed_loop(
        loaded, table, profile, duration=duration, online=online, seed=seed
    )


@pytest.fixture(scope="module")
def ax1_fit():
    return offline_fit(simulator.ax1(load=0.0))


@pytest.fixture(scope="module")
def ax1_table(ax1_fit):
    return ax1_fit[0]


@pytest.fixture(scope="module")
def mkz_table():
    return offline_table(simulator.mkz(load=0.0))


@pytest.fixture(scope="module")
def online_run(ax1_table):
    return ax1_loop(ax1_table, online=True)


@pytest.fixture(scope="module")
def static_run(ax1_table):
    return ax1_loop(ax1_table, online=False)


class TestGoldens:
    def test_ax1_offline_table(self, ax1_table):
        assert serialize(ax1_table) == (GOLDEN / "ax1_offline.txt").read_text()

    def test_ax1_nets_bit_exact(self, ax1_fit):
        _, throttle, brake, _ = ax1_fit
        assert nets_text(throttle, brake) == (GOLDEN / "ax1_nets.txt").read_text()

    def test_mkz_offline_table(self, mkz_table):
        assert serialize(mkz_table) == (GOLDEN / "mkz_offline.txt").read_text()

    def test_ax1_online_final_table(self, online_run):
        assert acc_text(online_run.table.acc) == (GOLDEN / "ax1_online_acc.txt").read_text()


class TestDriveLogGoldens:
    @pytest.mark.parametrize("preset", sorted(simulator.PRESETS))
    def test_short_log_bit_exact(self, preset):
        # line by line: a failed comparison of the whole text would diff a megabyte
        got = log_text(short_log(preset)).splitlines()
        want = (GOLDEN / f"drive_log_{preset}.txt").read_text().splitlines()
        assert len(got) == len(want)
        first = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), None)
        assert first is None, f"frame {first - 1} differs: {got[first]!r} != {want[first]!r}"

    def test_short_ax1_log_passes_v_max(self):
        config = simulator.ax1(load=0.0)
        log = short_log("ax1")
        assert log.v.max() > config.v_max

    @pytest.mark.parametrize("preset", sorted(simulator.PRESETS))
    def test_full_log_column_digests(self, preset):
        golden = (GOLDEN / "drive_log_sha256.txt").read_text().splitlines(keepends=True)
        assert log_digests(preset) == "".join(line for line in golden if line.startswith(preset + " "))


class TestDeterminism:
    def test_drive_log_repeats_per_seed(self):
        config = simulator.ax1(load=0.0)
        a = simulator.generate_drive_log(config, 20.0, seed=3)
        b = simulator.generate_drive_log(config, 20.0, seed=3)
        c = simulator.generate_drive_log(config, 20.0, seed=4)
        assert a.to_csv() == b.to_csv()
        assert not np.array_equal(a.acc, c.acc)

    def test_closed_loop_repeats_per_seed(self, ax1_table):
        a = ax1_loop(ax1_table, online=True, duration=5.0, seed=2)
        b = ax1_loop(ax1_table, online=True, duration=5.0, seed=2)
        assert np.array_equal(a.trace.v, b.trace.v)
        assert np.array_equal(a.trace.cmd, b.trace.cmd)
        assert np.array_equal(a.table.acc, b.table.acc)
        assert [e.revision for e in a.events] == [e.revision for e in b.events]


class TestHostileInput:
    # True gave 100 frames or cycles
    @pytest.mark.parametrize("duration", [float("nan"), float("inf"), -float("inf"), -5.0, 0.0, 0.004, True])
    def test_drive_log_refuses_duration_without_frames(self, duration, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("a generator was made before the duration was checked")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        with pytest.raises(ValueError, match="duration"):
            simulator.generate_drive_log(simulator.ax1(load=0.0), duration, seed=0)

    @pytest.mark.parametrize("duration", [float("nan"), float("inf"), -float("inf"), -5.0, 0.0, 0.004, True])
    def test_closed_loop_refuses_duration_without_cycles(self, duration, monkeypatch):
        config = simulator.ax1(load=0.0)
        table = config.true_table()
        profile = simulator.trapezoid_profile(config.v_max, 5.0)

        def no_setup(*args, **kwargs):
            raise AssertionError("the loop was set up before the duration was checked")

        for name in ("Plant", "OnlineCalibrator", "OnlinePreprocessor", "invert"):
            monkeypatch.setattr(simulator, name, no_setup)
        with pytest.raises(ValueError, match="duration"):
            simulator.run_closed_loop(config, table, profile, duration=duration, online=True)

    # each failed only at the first update, with AttributeError: ... 'sigma';
    # 0.0 ran static without a word
    @pytest.mark.parametrize("online", [0.5, 0.0, 1, np.True_, "yes"])
    def test_closed_loop_refuses_online_of_another_type(self, online, monkeypatch):
        config = simulator.ax1(load=0.0)
        table = config.true_table()
        profile = simulator.trapezoid_profile(config.v_max, 5.0)

        def no_setup(*args, **kwargs):
            raise AssertionError("the loop was set up before online was checked")

        for name in ("Plant", "OnlineCalibrator", "OnlinePreprocessor", "invert"):
            monkeypatch.setattr(simulator, name, no_setup)
        with pytest.raises(TypeError, match=r"^online must be None, a bool or an OnlineConfig, got "):
            simulator.run_closed_loop(config, table, profile, duration=1.0, online=online)

    @pytest.mark.parametrize("online", [False, True])
    @pytest.mark.parametrize("delay", [0.0, 0.05])
    def test_closed_loop_refuses_delay_below_the_consistency_window(self, delay, online, monkeypatch):
        # PlantConfig and generate_drive_log take these delays; the loop failed
        # inside OnlinePreprocessor, naming its own ``delay``
        config = dataclasses.replace(simulator.ax1(load=0.0), delay=delay)
        table = config.true_table()
        profile = simulator.trapezoid_profile(config.v_max, 5.0)

        def no_setup(*args, **kwargs):
            raise AssertionError("the loop was set up before the delay was checked")

        for name in ("Plant", "OnlineCalibrator", "OnlinePreprocessor", "invert"):
            monkeypatch.setattr(simulator, name, no_setup)
        with pytest.raises(ValueError, match=r"^config\.delay must be at least the 0\.1 s CONSISTENCY_WINDOW"):
            simulator.run_closed_loop(config, table, profile, duration=1.0, online=online)

    @pytest.mark.parametrize("online", [False, True])
    @pytest.mark.parametrize(
        "change, error, message",
        [
            # every cell beyond ACC_MEAS_LIMIT: the first prediction is refused
            pytest.param(
                "table+60", preprocess.ImplausibleFrame, "frame at t=0.0 expects 60.0 m/s^2, beyond 50",
                id="table-shifted",
            ),
            # the first command reaches the plant after its 0.2 s delay
            pytest.param(
                1e-3, preprocess.ImplausibleFrame, "frame at t=0.21 measures 117031.79536512059 m/s^2, beyond 50",
                id="tiny-mass",
            ),
            pytest.param(
                1e-310, preprocess.NonFiniteFrame, "frame at t=0.21 holds a non-finite value", id="subnormal-mass"
            ),
        ],
    )
    def test_refused_frame_stops_the_run_at_its_cycle(self, change, error, message, online, monkeypatch):
        # a static run admits its feedback after the loop, yet a frame push would
        # refuse still stops it at that frame's cycle, with push's error
        config = simulator.ax1(load=0.0)
        table = config.true_table()
        if change == "table+60":
            table = CalibrationTable(table.speed_grid, table.cmd_grid, table.acc + 60.0)
        else:
            config = dataclasses.replace(config, mass=change)
        stepped = []
        real_step = simulator.Plant.step

        def step(plant, cmd):
            stepped.append(cmd)
            return real_step(plant, cmd)

        monkeypatch.setattr(simulator.Plant, "step", step)
        profile = simulator.trapezoid_profile(config.v_max, 30.0)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            simulator.run_closed_loop(config, table, profile, online=online)
        t = float(message.split("t=")[1].split()[0])
        assert len(stepped) == round(t * config.sample_rate) + 1

    @pytest.mark.parametrize(
        "name, value",
        [
            pytest.param("mass", float("nan"), id="mass-nan"),
            pytest.param("mass", float("inf"), id="mass-inf"),
            pytest.param("mass", True, id="mass-bool"),
            pytest.param("v_max", 0.0, id="v_max-zero"),
            # each passed, and then the speed grid had one entry and
            # true_table() raised
            pytest.param("v_max", 0.1, id="v_max-at-0.1"),
            pytest.param("v_max", 0.05, id="v_max-below-0.1"),
            pytest.param("sample_rate", 0.0, id="sample_rate-zero"),
            pytest.param("sample_rate", float("nan"), id="sample_rate-nan"),
            pytest.param("load", float("inf"), id="load-inf"),
            pytest.param("load", True, id="load-bool"),
            pytest.param("delay", float("nan"), id="delay-nan"),
            pytest.param("delay", float("inf"), id="delay-inf"),
            pytest.param("drag", float("nan"), id="drag-nan"),
            pytest.param("rolling", -1.0, id="rolling-negative"),
            pytest.param("noise_std", -1.0, id="noise_std-negative"),
            pytest.param("noise_std", float("nan"), id="noise_std-nan"),
            pytest.param("throttle_force", np.append(np.linspace(0.0, 1200.0, 20), np.nan), id="throttle_force-nan"),
            pytest.param("brake_breaks", np.append(np.arange(0.0, 100.0, 5.0), np.inf), id="brake_breaks-inf"),
            # named, not "force maps must be monotone"
            pytest.param("throttle_breaks", np.arange(100.0, -2.5, -5.0), id="throttle_breaks-decreasing"),
            pytest.param("brake_force", np.linspace(1800.0, 0.0, 21), id="brake_force-decreasing"),
            pytest.param("brake_force", np.linspace(0.0, 1800.0, 20), id="brake_force-short"),
        ]
        + [
            # numpy's bool is no ``bool``: each passed as 1
            pytest.param(name, np.True_, id=f"{name}-numpy-bool")
            for name in ("mass", "load", "drag", "rolling", "delay", "noise_std", "sample_rate", "v_max")
        ],
    )
    def test_plant_config_refuses_bad_constants(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            dataclasses.replace(simulator.ax1(load=0.0), **{name: value})

    @pytest.mark.parametrize(
        "name, value",
        [
            pytest.param("v_max", 0.0, id="v_max-zero"),
            pytest.param("v_max", -3.0, id="v_max-negative"),
            pytest.param("v_max", float("nan"), id="v_max-nan"),
            pytest.param("v_max", float("inf"), id="v_max-inf"),
            pytest.param("duration", 0.0, id="duration-zero"),
            pytest.param("duration", float("nan"), id="duration-nan"),
            pytest.param("duration", float("inf"), id="duration-inf"),
            # each ran as 1
            pytest.param("v_max", True, id="v_max-bool"),
            pytest.param("duration", np.True_, id="duration-numpy-bool"),
        ],
    )
    def test_trapezoid_profile_refuses_bad_inputs(self, name, value):
        args = {"v_max": 3.0, "duration": 10.0, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            simulator.trapezoid_profile(**args)

    # True ran as seed 1; -1 and 1.5 failed in numpy, naming no argument
    @pytest.mark.parametrize("seed", [True, np.int64(-1), 1.5])
    def test_drive_log_refuses_bad_seed(self, seed, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("a generator was made before the seed was checked")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        with pytest.raises(ValueError, match="^seed must be an integer"):
            simulator.generate_drive_log(simulator.ax1(load=0.0), 1.0, seed=seed)

    @pytest.mark.parametrize("seed", [True, -1, 1.5])
    def test_closed_loop_refuses_bad_seed(self, seed, monkeypatch):
        config = simulator.ax1(load=0.0)
        table = config.true_table()
        profile = simulator.trapezoid_profile(config.v_max, 5.0)

        def no_setup(*args, **kwargs):
            raise AssertionError("the loop was set up before the seed was checked")

        for name in ("Plant", "OnlineCalibrator", "OnlinePreprocessor", "invert"):
            monkeypatch.setattr(simulator, name, no_setup)
        with pytest.raises(ValueError, match="^seed must be an integer"):
            simulator.run_closed_loop(config, table, profile, duration=1.0, online=True, seed=seed)

    @pytest.mark.parametrize(
        "t_points, v_points, name",
        [
            # a NaN duration, an endless profile, and a NaN speed sampled
            pytest.param([0.0, float("nan")], [0.0, 1.0], "t_points", id="t-nan"),
            pytest.param([0.0, float("inf")], [0.0, 1.0], "t_points", id="t-inf"),
            pytest.param([0.0, 1.0], [0.0, float("nan")], "v_points", id="v-nan"),
        ],
    )
    def test_speed_profile_refuses_non_finite_breakpoints(self, t_points, v_points, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            simulator.SpeedProfile(t_points, v_points)

    def test_drive_log_of_one_frame(self):
        log = simulator.generate_drive_log(simulator.ax1(load=0.0), 0.01, seed=0)
        assert len(log) == 1 and log.t[0] == 0.0

    def test_nan_command_never_reaches_the_plant(self, monkeypatch):
        # a NaN feedforward fails both clamp comparisons; the loop must refuse it
        config = simulator.ax1(load=0.0)
        real_lookup = simulator.lookup_cmd
        calls = []

        def lookup(table, v, acc):
            calls.append(None)
            return float("nan") if len(calls) == 50 else real_lookup(table, v, acc)

        stepped = []
        real_step = simulator.Plant.step

        def step(plant, cmd):
            stepped.append(cmd)
            return real_step(plant, cmd)

        monkeypatch.setattr(simulator, "lookup_cmd", lookup)
        monkeypatch.setattr(simulator.Plant, "step", step)
        profile = simulator.trapezoid_profile(config.v_max, 5.0)
        with pytest.raises(simulator.NonFiniteCommand, match="NaN"):
            simulator.run_closed_loop(config, config.true_table(), profile)
        assert len(stepped) == 49
        assert np.all(np.isfinite(stepped))


def bits(values) -> list:
    """Floats as ``float.hex``, so that -0.0 and 0.0 differ and equality is bitwise."""
    return [float(x).hex() for x in values]


# full pedal both ways, zero of either sign, coast-sized and any commands
HOLD_CMDS = st.one_of(
    st.sampled_from([100.0, -100.0, 0.0, -0.0]), st.floats(-4.0, 4.0), st.floats(-100.0, 100.0)
)
# (command, frames, speed cap); a 0.2 s delay keeps 20 frames in flight
HOLDS = st.lists(
    st.tuples(HOLD_CMDS, st.integers(1, 150), st.sampled_from([math.inf, 0.3, 1.5, 2.9, 8.0])),
    min_size=1,
    max_size=12,
)


class TestPlant:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(preset=st.sampled_from(["ax1", "mkz"]), delay=st.sampled_from([None, 0.0]), holds=HOLDS)
    def test_hold_equals_repeated_step(self, preset, delay, holds):
        # ``hold`` is the drive log's path and ``step`` the loop's: a twin
        # plant stepping each dwell frame by frame must match it bit for bit
        config = simulator.ax1(load=0.0) if preset == "ax1" else simulator.mkz(load=600.0)
        if delay is not None:
            config = dataclasses.replace(config, delay=delay)
        held, stepped = simulator.Plant(config), simulator.Plant(config)
        for cmd, frames, v_cap in holds:
            vs, accs = held.hold(cmd, frames, v_cap)
            want_v, want_acc = [], []
            for _ in range(frames):
                s = stepped.step(cmd)
                want_v.append(s.v)
                want_acc.append(s.acc)
                if s.v > v_cap:
                    break
            assert (bits(vs), bits(accs)) == (bits(want_v), bits(want_acc))
            a, b = held.state, stepped.state
            assert bits([a.t, a.v, a.station, a.acc]) == bits([b.t, b.v, b.station, b.acc])
            assert bits(a.queue) == bits(b.queue)

    def test_true_table_monotone(self):
        for preset in simulator.PRESETS.values():
            assert preset(load=0.0).true_table().is_monotone()
            assert preset(load=600.0).true_table().is_monotone()

    def test_absurd_table_diverges(self):
        # a table promising 9-11 m/s^2 for any command makes the feedforward
        # brake hard while the profile asks for speed, until the speed error
        # has stayed beyond DIVERGE_LIMIT for a second
        config = simulator.mkz(load=0.0)
        cmd_grid, speed_grid = config.table_grids()
        acc = 10.0 + np.tile(cmd_grid[:, None] / 100.0, (1, len(speed_grid)))
        absurd = CalibrationTable(speed_grid, cmd_grid, acc)
        profile = simulator.trapezoid_profile(config.v_max, 30.0)
        with pytest.raises(simulator.Diverged, match=f"above {simulator.DIVERGE_LIMIT} m/s"):
            simulator.run_closed_loop(config, absurd, profile)


class TestPaperClaim:
    def test_online_beats_static_under_load(self, online_run, static_run):
        # measured on this run: speed 0.081 vs 0.350 m/s, station 0.48 vs 6.16 m
        on, st = online_run.metrics, static_run.metrics
        assert on.speed_mae < 0.5 * st.speed_mae
        assert on.station_mae < 0.2 * st.station_mae

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_online_beats_static_under_load_on_mkz(self, seed):
        # the unloaded truth drives mkz +600 kg over the 120 s trapezoid.
        # Measured: static 0.872 m/s / 11.53 m on every seed, online
        # 0.183-0.186 m/s / 1.42-1.64 m
        loaded = simulator.mkz(load=600.0)
        table = simulator.mkz(load=0.0).true_table()
        profile = simulator.trapezoid_profile(loaded.v_max, 120.0)
        on, st = (
            simulator.run_closed_loop(loaded, table, profile, online=online, seed=seed).metrics
            for online in (True, False)
        )
        assert on.speed_mae < st.speed_mae
        assert on.station_mae < st.station_mae

    def test_online_run_published_updates(self, online_run):
        assert len(online_run.events) > 100
        assert [e.revision for e in online_run.events] == list(range(1, len(online_run.events) + 1))
        assert online_run.table.is_monotone()

    def test_updated_cells_is_the_full_strength_window(self, ax1_table, online_run):
        # the default half-widths (5 %, 0.2 m/s) equal the grid steps, so the
        # window spans at most 3 command rows by 3 speed columns
        cells = [e.updated_cells for e in online_run.events]
        assert 1 <= min(cells) and max(cells) <= 9
        for e in online_run.events[:50]:
            fb = preprocess.OnlineFeedback(e.cmd_ref, e.v_ref, e.acc_ref, e.acc_k, v_k=0.0)
            assert e.updated_cells == int((_cost_matrix(ax1_table, fb) == 0).sum())

    @pytest.mark.parametrize("preset", ["ax1", "mkz"])
    def test_twenty_minutes_of_driving_is_enough(self, preset):
        # the paper's table "only needs twenty-minutes data collection".
        # Measured: ax1 covers 0.936 of the cells at 1200 s (visited-cell
        # MAE 0.0228 m/s^2) and 0.825 at 300 s; unloaded mkz covers 0.909
        # (MAE 0.0153) and 0.595.  mkz() at its default 200 kg covers 0.892.
        config = simulator.PRESETS[preset](load=0.0)
        table, _, _, bins = offline_fit(config, duration=1200.0)
        visited = bins.counts() > 0
        mae = np.abs(table.acc - config.true_table().acc)[visited].mean()
        assert visited.mean() >= 0.90 and mae <= 0.03
        assert (offline_bins(config, 300.0).counts() > 0).mean() < 0.90

    @pytest.mark.parametrize("preset", ["ax1", "mkz"])
    def test_table_from_a_slower_actuator(self, preset):
        # only the log knows the delay.  Paired 0.2 s apart, a 0.35 s
        # plant's visited cells were 0.138 (ax1) and 0.173 (mkz) m/s^2 off.
        # Measured with the delay read from the log: 0.023 and 0.016
        config = simulator.PRESETS[preset](load=0.0)
        table, _, _, bins = offline_fit(dataclasses.replace(config, delay=0.35), duration=1200.0)
        assert bins.delay == pytest.approx(0.35, abs=1.0 / config.sample_rate)
        visited = bins.counts() > 0
        assert np.abs(table.acc - config.true_table().acc)[visited].mean() <= 0.03


def marked_cells(table, cmd, v):
    """A bool grid over ``table``'s cells, True at the nearest cell of each ``(cmd, v)``."""
    marked = np.zeros(table.acc.shape, dtype=bool)
    nearest = preprocess.nearest_cell_index
    marked[nearest(table.cmd_grid, cmd), nearest(table.speed_grid, v)] = True
    return marked


class TestControlCycle:
    def test_visited_cells_are_the_events_cells(self, online_run):
        # an online run marks the cell of each published update's feedback,
        # all at once after the loop
        events = online_run.events
        expect = marked_cells(online_run.table, [e.cmd_ref for e in events], [e.v_ref for e in events])
        assert np.array_equal(online_run.visited_cells, expect)

    @pytest.mark.parametrize("online", [False, True])
    def test_one_read_each_way_per_cycle(self, ax1_table, online, monkeypatch):
        # the loop reads the table through the module's own names, once each
        # per cycle, so a reader swapped in there sees every read
        calls = {"lookup_cmd": 0, "lookup_acc": 0}
        for name in calls:
            real = getattr(simulator, name)

            def counted(*args, _real=real, _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(simulator, name, counted)
        run = ax1_loop(ax1_table, online=online, duration=5.0)
        assert calls == {"lookup_cmd": len(run.trace), "lookup_acc": len(run.trace)}

    @pytest.mark.parametrize("preset, load", [("ax1", 0.0), ("ax1", 150.0), ("mkz", 0.0), ("mkz", 600.0)])
    def test_static_marks_the_cells_it_read(self, preset, load):
        # a static run gates no feedback: it marks the nearest cell of each
        # cycle's command and speed, the (cmd_ref, v_ref) push records for
        # that frame, so it marks every cell of the feedback push would admit
        config = simulator.PRESETS[preset](load=load)
        table = simulator.PRESETS[preset](load=0.0).true_table()
        run = simulator.run_closed_loop(config, table, simulator.trapezoid_profile(config.v_max, 300.0))
        trace = run.trace
        assert np.array_equal(run.visited_cells, marked_cells(table, trace.cmd, trace.v))
        # the run's frames rebuilt bit for bit: the plant's acceleration plus
        # the seed-0 noise, and the table read at the speed before the step
        v_before = np.r_[0.0, trace.v[:-1]]
        noise = np.random.default_rng(0).normal(0.0, config.noise_std, len(trace))
        acc_meas = (trace.v - v_before) / (1.0 / config.sample_rate) + noise
        acc_pred = [lookup_acc(table, cmd, v) for cmd, v in zip(trace.cmd.tolist(), v_before.tolist())]
        pre = preprocess.OnlinePreprocessor(config.sample_rate, config.delay)
        frames = zip(trace.t.tolist(), trace.cmd.tolist(), trace.v.tolist(), acc_meas.tolist(), acc_pred,
                     trace.v_des.tolist())
        feedback = [fb for fb in (pre.push(*frame) for frame in frames) if fb is not None]
        assert len(feedback) > 15000
        admitted = marked_cells(table, [fb.cmd_ref for fb in feedback], [fb.v_ref for fb in feedback])
        assert not (admitted & ~run.visited_cells).any()

    @pytest.mark.parametrize("online", [False, True])
    def test_run_shorter_than_the_delay_marks_no_cell(self, online):
        # no feedback matures: the first pairing is due after the 0.2 s delay
        # and the filter's lag.  So an online run marks no cell, while a
        # static run marks the cells its 15 cycles read
        config = simulator.ax1(load=0.0)
        profile = simulator.trapezoid_profile(config.v_max, 5.0)
        table = config.true_table()
        run = simulator.run_closed_loop(config, table, profile, duration=0.15, online=online)
        assert len(run.trace) == 15
        read = marked_cells(table, run.trace.cmd, run.trace.v)
        assert read.any() and np.array_equal(run.visited_cells, read & (not online))

    def test_updates_go_through_the_online_module(self, ax1_table, monkeypatch):
        # every published table is built by ``online.update_table`` and made
        # current by ``online.publish``, looked up on the module at each call
        built, published = [], []
        real_update, real_publish = online.update_table, online.publish

        def update(state, feedback, cfg):
            built.append(real_update(state, feedback, cfg))
            return built[-1]

        def publish(state, table):
            published.append(table is built[-1])
            real_publish(state, table)

        monkeypatch.setattr(online, "update_table", update)
        monkeypatch.setattr(online, "publish", publish)
        run = ax1_loop(ax1_table, online=True, duration=10.0)
        assert len(run.events) > 50
        assert published == [True] * len(run.events)
        assert run.table is built[-1]

    def test_records_carry_the_feedback_update_table_got(self, ax1_table, monkeypatch):
        # each record is built from the very feedback ``step`` passed to
        # ``online.update_table``, not from a copy the loop kept
        applied = []
        real_update = online.update_table

        def update(state, feedback, cfg):
            new_table = real_update(state, feedback, cfg)
            if new_table is not state.table:
                applied.append(feedback)
            return new_table

        monkeypatch.setattr(online, "update_table", update)
        run = ax1_loop(ax1_table, online=True, duration=10.0)
        assert len(run.events) == len(applied) > 50
        for e, feedback in zip(run.events, applied):
            assert (e.cmd_ref, e.v_ref, e.acc_ref, e.acc_k) == feedback[:4]
            assert e.gain == feedback.acc_ref - feedback.acc_k
        assert np.array_equal(run.update_seconds, [e.seconds for e in run.events])
        assert np.all(run.update_seconds > 0)

    def test_cycle_runs_on_plain_floats(self, online_run):
        # ``type(...) is float``, not ``isinstance``: np.float64 subclasses float
        assert all(type(e.acc_k) is float for e in online_run.events)
        e = online_run.events[-1]
        assert type(lookup_cmd(online_run.table, e.v_ref, e.acc_k)) is float
        assert type(lookup_acc(online_run.table, e.cmd_ref, e.v_ref)) is float


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    ax1, ax1_throttle, ax1_brake, _ = offline_fit(simulator.ax1(load=0.0))
    (GOLDEN / "ax1_offline.txt").write_text(serialize(ax1))
    (GOLDEN / "ax1_nets.txt").write_text(nets_text(ax1_throttle, ax1_brake))
    (GOLDEN / "mkz_offline.txt").write_text(serialize(offline_table(simulator.mkz(load=0.0))))
    (GOLDEN / "ax1_online_acc.txt").write_text(acc_text(ax1_loop(ax1, online=True).table.acc))
    for preset in sorted(simulator.PRESETS):
        (GOLDEN / f"drive_log_{preset}.txt").write_text(log_text(short_log(preset)))
    (GOLDEN / "drive_log_sha256.txt").write_text("".join(log_digests(p) for p in sorted(simulator.PRESETS)))
