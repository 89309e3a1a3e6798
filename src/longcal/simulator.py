"""Ground-truth longitudinal plant, scripted data generation, and tracking runs.

The plant is a point-mass vehicle: a monotone piecewise-linear pedal-to-force
map (separate throttle and brake shapes), quadratic drag, constant rolling
resistance, an actuator FIFO delay, and additive IMU noise.  It stands in
for the real vehicle both as a data source for offline training and as the
closed-loop target that scores calibration quality by speed and station
error under configurable load.

The plant has two stepping paths that do the same float operations per
frame.  ``Plant.hold`` steps drive logs, a whole dwell of one command per
call: a 1200 s ax1 log takes 0.07-0.11 s that way against 0.17-0.24 s
frame by frame.  ``Plant.step`` steps the closed loop, whose command
changes every cycle: a one-frame ``hold`` costs 3.0-3.2 µs per call against
0.9 µs for ``step`` (one core of a 2-vCPU x86 VM, CPython 3.11).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from itertools import chain, islice, repeat

import numpy as np

from .online import OnlineCalibrator, OnlineConfig, OnlineUpdate
from .preprocess import CMD_LIMIT, MODE_AUTO, MODE_MANUAL, DriveLog, OnlinePreprocessor, nearest_cell_index
from .table import (CalibrationTable, check_grid, check_number, default_cmd_grid, default_speed_grid, invert,
                    lookup_acc, lookup_cmd)


class Diverged(RuntimeError):
    """Sustained speed error beyond any plausible tracking failure."""


class NonFiniteCommand(ValueError):
    """A control command that is NaN, refused before it reaches the plant."""


def _power_law_map(f_max: float):
    """Sample F = f_max * (cmd/100)^1.2 every 5 % as a piecewise-linear map."""
    breaks = np.arange(0.0, 102.5, 5.0)
    force = f_max * (breaks / 100.0) ** 1.2
    return breaks, force


@dataclass(frozen=True)
class PlantConfig:
    """Physical constants of the simulated vehicle, checked at construction.

    Each number must pass ``check_number``: ``mass``, ``sample_rate`` and
    ``v_max`` finite and positive, ``load``, ``drag``, ``rolling``,
    ``delay`` and ``noise_std`` finite and non-negative, and no value a
    bool.  Each force map's breakpoints must pass ``check_grid``, and its
    forces be finite, non-decreasing and one per breakpoint.
    """

    mass: float
    load: float = 0.0
    throttle_breaks: np.ndarray = None
    throttle_force: np.ndarray = None  # N, monotone over throttle_breaks
    brake_breaks: np.ndarray = None
    brake_force: np.ndarray = None  # N opposing motion, monotone over |cmd|
    drag: float = 0.0  # N s^2 / m^2
    rolling: float = 0.0  # N
    delay: float = 0.2  # s, actuator FIFO
    noise_std: float = 0.05  # m/s^2 IMU noise
    sample_rate: float = 100.0  # Hz
    v_max: float = 3.0  # m/s

    def __post_init__(self):
        for name, positive in (
            ("mass", True), ("load", False), ("drag", False), ("rolling", False), ("delay", False),
            ("noise_std", False), ("sample_rate", True), ("v_max", True),
        ):
            check_number(name, getattr(self, name), 0.0, above=positive)
        for breaks, force in (("throttle_breaks", "throttle_force"), ("brake_breaks", "brake_force")):
            grid = check_grid(breaks, getattr(self, breaks))
            values = np.array(getattr(self, force), dtype=float)
            if values.shape != grid.shape or not np.all(np.isfinite(values)) or np.any(np.diff(values) < 0):
                raise ValueError(f"{force} must be finite, non-decreasing and one per entry of {breaks}")
            for name, arr in ((breaks, grid), (force, values)):
                arr.setflags(write=False)
                object.__setattr__(self, name, arr)

    @property
    def total_mass(self) -> float:
        return self.mass + self.load

    def steady_state_acc(self, cmd, v):
        """Analytic acceleration holding ``cmd`` at speed ``v``.

        At standstill the vehicle cannot be pushed backwards: brake or
        insufficient throttle yields zero.
        """
        cmd = np.asarray(cmd, dtype=float)
        v = np.asarray(v, dtype=float)
        force = np.where(
            cmd > 0,
            np.interp(np.abs(cmd), self.throttle_breaks, self.throttle_force),
            -np.interp(np.abs(cmd), self.brake_breaks, self.brake_force),
        )
        a = (force - self.drag * v**2 - self.rolling) / self.total_mass
        a = np.where(v > 0, a, np.maximum(a, 0.0))
        return float(a) if a.ndim == 0 else a

    def table_grids(self):
        return default_cmd_grid(), default_speed_grid(self.v_max)

    def true_table(self) -> CalibrationTable:
        """Steady-state acceleration over the default grids (the oracle)."""
        cmd_grid, speed_grid = self.table_grids()
        acc = self.steady_state_acc(cmd_grid[:, None], speed_grid[None, :])
        return CalibrationTable(speed_grid, cmd_grid, acc)


def ax1(load: float = 0.0) -> PlantConfig:
    """Small electric cargo vehicle: 300 kg curb weight, 3 m/s top speed."""
    tb, tf = _power_law_map(1200.0)
    bb, bf = _power_law_map(1800.0)
    return PlantConfig(
        mass=300.0,
        load=load,
        throttle_breaks=tb,
        throttle_force=tf,
        brake_breaks=bb,
        brake_force=bf,
        drag=18.0,
        rolling=30.0,
        v_max=3.0,
    )


def mkz(load: float = 200.0) -> PlantConfig:
    """Hybrid passenger sedan: 1769 kg curb weight, 10 m/s test ceiling."""
    tb, tf = _power_law_map(7200.0)
    bb, bf = _power_law_map(11000.0)
    return PlantConfig(
        mass=1769.0,
        load=load,
        throttle_breaks=tb,
        throttle_force=tf,
        brake_breaks=bb,
        brake_force=bf,
        drag=18.0,
        rolling=180.0,
        v_max=10.0,
    )


PRESETS = {"ax1": ax1, "mkz": mkz}


@dataclass
class PlantState:
    """Kinematic state plus the in-flight delayed commands."""

    t: float = 0.0
    v: float = 0.0
    station: float = 0.0
    acc: float = 0.0
    queue: deque = field(default_factory=deque)


class Plant:
    """Steps the vehicle one control period at a time."""

    def __init__(self, config: PlantConfig):
        self.config = config
        self.dt = 1.0 / config.sample_rate
        delay_steps = int(round(config.delay * config.sample_rate))
        self.state = PlantState(queue=deque([0.0] * delay_steps))
        # plain-float copies of the force map for the per-cycle hot path
        self._tb = config.throttle_breaks.tolist()
        self._tf = config.throttle_force.tolist()
        self._bb = config.brake_breaks.tolist()
        self._bf = config.brake_force.tolist()
        self._inv_mass = 1.0 / config.total_mass

    def _force(self, cmd: float) -> float:
        if cmd == 0.0:
            return 0.0
        breaks, force = (self._tb, self._tf) if cmd > 0 else (self._bb, self._bf)
        x = abs(cmd)
        if x >= breaks[-1]:
            f = force[-1]
        elif x <= breaks[0]:
            f = force[0]
        else:
            k = bisect_right(breaks, x) - 1
            w = (x - breaks[k]) / (breaks[k + 1] - breaks[k])
            f = force[k] + w * (force[k + 1] - force[k])
        return f if cmd > 0 else -f

    def step(self, cmd: float) -> PlantState:
        """Advance one period with ``cmd`` entering the actuator queue.

        The closed loop's per-cycle path.  Drive logs step through ``hold``,
        which is slower than this for a single frame (see the module notes).
        """
        s = self.state
        c = self.config
        if s.queue:
            s.queue.append(cmd)
            eff = s.queue.popleft()
        else:
            eff = cmd
        v = s.v
        a = (self._force(eff) - c.drag * v * v - c.rolling) * self._inv_mass
        v_new = v + a * self.dt
        if v_new < 0.0:
            v_new = 0.0
        s.acc = (v_new - v) / self.dt
        s.v = v_new
        s.station += v_new * self.dt
        s.t += self.dt
        return s

    def hold(self, cmd: float, frames: int, v_cap: float) -> tuple[list, list]:
        """Hold ``cmd`` for up to ``frames`` periods; return their speeds and accelerations.

        The drive log's path, one call per dwell.  Each frame is
        bit-identical to a ``step(cmd)``, but the loop runs on local
        variables, looks the force up only when the effective command
        changes (once the commands already in the actuator queue have left,
        it stays ``cmd``) and writes the state once, at the end.  It stops
        after the first frame whose speed exceeds ``v_cap``.
        """
        s = self.state
        queue = s.queue
        in_flight = list(islice(queue, frames))  # act before ``cmd`` reaches the plant
        force = self._force
        drag, rolling, inv_mass, dt = self.config.drag, self.config.rolling, self._inv_mass, self.dt
        v, acc, station, t = s.v, s.acc, s.station, s.t
        last = f = math.nan
        vs = []
        accs = []
        for eff in chain(in_flight, repeat(cmd, frames - len(in_flight))):
            if eff != last:
                f = force(eff)
                last = eff
            a = (f - drag * v * v - rolling) * inv_mass
            v_new = v + a * dt
            if v_new < 0.0:
                v_new = 0.0
            acc = (v_new - v) / dt
            v = v_new
            station += v_new * dt
            t += dt
            vs.append(v)
            accs.append(acc)
            if v > v_cap:
                break
        # past the queue's length every slot holds ``cmd``
        for _ in range(min(len(vs), len(queue))):
            queue.popleft()
            queue.append(cmd)
        s.v, s.acc, s.station, s.t = v, acc, station, t
        return vs, accs


# ---------------------------------------------------------------------------
# scripted driving for offline data generation
# ---------------------------------------------------------------------------

def _frame_count(duration: float, sample_rate: float) -> int:
    """Frames in ``duration`` seconds; ValueError unless it is finite, not a bool, and gives at least one."""
    check_number("duration", duration, 0.0, above=True)
    frames = duration * sample_rate
    n = int(round(frames)) if math.isfinite(frames) else 0
    if n < 1:
        raise ValueError(f"duration must give at least one frame at {sample_rate} Hz, got {duration!r}")
    return n


def generate_drive_log(
    config: PlantConfig, duration: float = 1200.0, seed: int = 0
) -> DriveLog:
    """Emulate manual driving that sweeps the command/speed envelope.

    The scripted driver alternates accelerate/brake/coast dwells with
    randomised commands and speed targets, pinning the pedals to their
    extremes now and then, so most table cells collect samples.  A few
    dwells steer (exercising the downstream steering gate); IMU noise is
    added per the config.  Deterministic for a given seed.

    Each dwell is one ``Plant.hold`` call, bit-identical to stepping it
    frame by frame, and the log is written a dwell at a time: one slice
    write per column, and the dwell's steering noise in one draw of as many
    values as the dwell took frames, after its last frame.
    That draw consumes the generator stream exactly as one scalar draw per
    frame does.  Raises ValueError, before any draw, unless ``duration`` is
    finite and gives at least one frame and ``seed`` is an integer >= 0,
    neither a bool.
    """
    n = _frame_count(duration, config.sample_rate)
    check_number("seed", seed, 0, integer=True)
    rng = np.random.default_rng(seed)
    plant = Plant(config)
    hold = plant.hold
    dt = plant.dt
    v_max = config.v_max

    cmd_col = np.empty(n)
    v_col = np.empty(n)
    acc_col = np.empty(n)
    theta_col = np.empty(n)
    noise = rng.normal(0.0, config.noise_std, n) if config.noise_std > 0 else np.zeros(n)

    k = 0
    while k < n:
        frac = plant.state.v / v_max
        # phase choice leans on the current speed so the envelope gets swept
        r = rng.random()
        if frac < 0.07:
            kind = "throttle" if r < 0.8 else ("brake" if r < 0.9 else "coast")
        elif frac > 0.93:
            kind = "brake" if r < 0.6 else ("coast" if r < 0.9 else "throttle")
        else:
            kind = "throttle" if r < 0.45 else ("brake" if r < 0.8 else "coast")
        if kind == "throttle":
            cmd = 100.0 if rng.random() < 0.08 else rng.uniform(5.0, 100.0)
            dwell = rng.uniform(0.5, 2.0)
        elif kind == "brake":
            cmd = -100.0 if rng.random() < 0.08 else rng.uniform(-100.0, -5.0)
            dwell = rng.uniform(0.5, 1.6)
        else:
            cmd = rng.uniform(-4.0, 4.0)
            dwell = rng.uniform(0.4, 1.2)
        theta_target = rng.uniform(10.0, 30.0) * rng.choice([-1.0, 1.0]) if rng.random() < 0.04 else 0.0
        # a real driver respects the vehicle's speed limit
        vs, accs = hold(cmd, min(max(1, int(round(dwell / dt))), n - k), v_max if cmd > 0.0 else math.inf)
        end = k + len(vs)
        cmd_col[k:end] = cmd
        v_col[k:end] = vs
        acc_col[k:end] = accs
        theta_col[k:end] = theta_target + rng.normal(0.0, 0.5, end - k)
        k = end

    acc_col += noise
    mode = np.array([MODE_MANUAL] * n, dtype=object)
    return DriveLog(np.arange(n) * dt, cmd_col, v_col, acc_col, theta_col, mode)


# ---------------------------------------------------------------------------
# speed profiles and the tracking loop
# ---------------------------------------------------------------------------

class SpeedProfile:
    """Piecewise-linear desired speed with its slope as desired acceleration.

    ``t_points`` must pass ``check_grid``, and ``v_points`` be finite with
    one speed per time; ValueError otherwise.
    """

    def __init__(self, t_points, v_points):
        self.t_points = check_grid("t_points", t_points)
        self.v_points = np.array(v_points, dtype=float)
        if self.v_points.shape != self.t_points.shape or not np.all(np.isfinite(self.v_points)):
            raise ValueError("v_points must be finite, one speed per entry of t_points")
        self._t_list = self.t_points.tolist()
        self._v_list = self.v_points.tolist()
        self._s_list = (np.diff(self.v_points) / np.diff(self.t_points)).tolist()

    @property
    def duration(self) -> float:
        return float(self.t_points[-1])

    def sample(self, t: float):
        """Desired (speed, acceleration) at time t; flat beyond the ends."""
        pts, vals, slopes = self._t_list, self._v_list, self._s_list
        if t <= pts[0]:
            return vals[0], 0.0
        if t >= pts[-1]:
            return vals[-1], 0.0
        lo = bisect_right(pts, t) - 1
        return vals[lo] + slopes[lo] * (t - pts[lo]), slopes[lo]


def trapezoid_profile(v_max: float, duration: float) -> SpeedProfile:
    """Repeating accelerate/cruise/brake/stop cycles over the speed range.

    Peak speeds rotate through a spread of the usable range so every band
    of the table sees traffic.  Ramps climb and fall at ``0.13 * v_max``
    per second, scaled to the vehicle's envelope.  Raises ValueError unless
    ``v_max`` and ``duration`` are finite and positive, neither a bool.
    """
    check_number("v_max", v_max, 0.0, above=True)
    check_number("duration", duration, 0.0, above=True)
    accel = 0.13 * v_max  # 0.4 m/s^2 on a 3 m/s vehicle
    peaks = [0.5, 0.85, 1.0, 0.65]
    t_pts = [0.0]
    v_pts = [0.0]
    k = 0
    while t_pts[-1] < duration:
        peak = peaks[k % len(peaks)] * v_max
        ramp = peak / accel
        t_pts.append(t_pts[-1] + ramp)
        v_pts.append(peak)
        t_pts.append(t_pts[-1] + 8.0)  # cruise
        v_pts.append(peak)
        t_pts.append(t_pts[-1] + ramp)
        v_pts.append(0.0)
        t_pts.append(t_pts[-1] + 2.0)  # stand still
        v_pts.append(0.0)
        k += 1
    return SpeedProfile(t_pts, v_pts)


@dataclass
class TrackingMetrics:
    """Mean absolute speed and station error of one run."""

    speed_mae: float
    station_mae: float


@dataclass
class RunTrace:
    """Per-frame record of a closed-loop run."""

    t: np.ndarray
    v_des: np.ndarray
    v: np.ndarray
    station_des: np.ndarray
    station: np.ndarray
    cmd: np.ndarray

    def __len__(self):
        return len(self.t)


def compute_metrics(trace: RunTrace) -> TrackingMetrics:
    """Mean absolute speed and station error over a trace of at least one frame."""
    return TrackingMetrics(
        speed_mae=float(np.abs(trace.v_des - trace.v).mean()),
        station_mae=float(np.abs(trace.station_des - trace.station).mean()),
    )


@dataclass
class RunResult:
    """One run; an event came ``(event.cycle - 1) * (1 / sample_rate)`` seconds into it."""

    metrics: TrackingMetrics
    trace: RunTrace
    table: CalibrationTable  # final controller table (adapted when online)
    events: list[OnlineUpdate]  # what OnlineCalibrator.step returned for each update it published
    update_seconds: np.ndarray  # the events' seconds: update_table + publish per event
    visited_cells: np.ndarray  # bool grid of cells with admitted feedback, marked once after the run


KP = 0.8  # command % per m/s of speed error
KI = 0.1
DIVERGE_LIMIT = 5.0  # m/s of speed error that, held for a second, ends a run


def run_closed_loop(
    config: PlantConfig,
    table: CalibrationTable,
    profile: SpeedProfile,
    duration: float | None = None,
    online: OnlineConfig | None | bool = None,
    seed: int = 0,
) -> RunResult:
    """Track the profile with feedforward from the table plus PI correction.

    With ``online`` set (an OnlineConfig, or True for defaults) the table
    adapts every cycle from gated feedback; otherwise it stays frozen.  The
    controller always reads the latest published snapshot.  Raises
    ValueError, before any set-up, unless ``duration`` (the profile's by
    default) is finite and gives at least one cycle and ``seed`` is an
    integer >= 0, neither a bool; Diverged when the speed error exceeds
    ``DIVERGE_LIMIT`` for a sustained second; and NonFiniteCommand, before
    the plant steps, when the command clamped to ``CMD_LIMIT`` is NaN (an
    infinite one clamps to the limit).
    """
    duration = profile.duration if duration is None else duration
    n = _frame_count(duration, config.sample_rate)
    check_number("seed", seed, 0, integer=True)
    if online is True:
        online = OnlineConfig()
    plant = Plant(config)
    dt = plant.dt
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, config.noise_std, n) if config.noise_std > 0 else np.zeros(n)

    cal = OnlineCalibrator(table, online) if online else None
    # a static run reads ``table`` as given and as ``invert`` returned it; an
    # online run reads the latest published table both ways
    acc_table, cmd_table = table, invert(table)
    pre = OnlinePreprocessor(sample_rate=config.sample_rate, delay=config.delay)

    cmd_grid, speed_grid = table.cmd_grid, table.speed_grid
    # (cmd_ref, v_ref) of every marked feedback; their cells are found in one
    # pass after the loop
    marked_cmd = np.empty(n)
    marked_v = np.empty(n)
    marked = 0
    events: list[OnlineUpdate] = []

    vdes_col = np.empty(n)
    v_col = np.empty(n)
    cmd_col = np.empty(n)
    station_des = 0.0
    sdes_col = np.empty(n)
    s_col = np.empty(n)

    integral = 0.0
    diverged_since = None

    for k in range(n):
        t = k * dt
        v_des, acc_des = profile.sample(t)
        if cal is not None:
            acc_table = cmd_table = cal.table
        v = plant.state.v
        err = v_des - v
        integral += err * dt
        ff = lookup_cmd(cmd_table, v, acc_des)
        cmd = ff + KP * err + KI * integral
        if cmd > CMD_LIMIT:
            cmd = CMD_LIMIT
        elif cmd < -CMD_LIMIT:
            cmd = -CMD_LIMIT
        elif cmd != cmd:
            # NaN fails both clamp comparisons; only unclamped cycles pay this one
            raise NonFiniteCommand(f"command is NaN at t={t:.2f}s (feedforward {ff!r})")
        acc_pred = lookup_acc(acc_table, cmd, v)

        s = plant.step(cmd)
        acc_meas = s.acc + noise.item(k)
        feedback = pre.push(
            t, cmd=cmd, v=s.v, acc_meas=acc_meas, acc_expected=acc_pred,
            v_expected=v_des, mode=MODE_AUTO,
        )
        update = cal.step(v_des, s.v, feedback) if cal is not None else None
        # a static run marks every admitted feedback, an online run the
        # feedback it published an update from
        mark = feedback if cal is None else update
        if mark is not None:
            marked_cmd[marked] = mark.cmd_ref
            marked_v[marked] = mark.v_ref
            marked += 1
        if update is not None:
            events.append(update)

        station_des += v_des * dt
        vdes_col[k] = v_des
        v_col[k] = s.v
        cmd_col[k] = cmd
        sdes_col[k] = station_des
        s_col[k] = s.station

        if abs(v_des - s.v) > DIVERGE_LIMIT:
            if diverged_since is None:
                diverged_since = t
            elif t - diverged_since >= 1.0:
                raise Diverged(
                    f"speed error above {DIVERGE_LIMIT} m/s for 1 s at t={t:.2f}s"
                )
        else:
            diverged_since = None

    visited = np.zeros((len(cmd_grid), len(speed_grid)), dtype=bool)
    visited[
        nearest_cell_index(cmd_grid, marked_cmd[:marked]),
        nearest_cell_index(speed_grid, marked_v[:marked]),
    ] = True
    trace = RunTrace(
        t=np.arange(n) * dt, v_des=vdes_col, v=v_col, station_des=sdes_col, station=s_col, cmd=cmd_col
    )
    return RunResult(
        metrics=compute_metrics(trace),
        trace=trace,
        table=cal.table if cal is not None else table,
        events=events,
        update_seconds=np.array([e.seconds for e in events]),
        visited_cells=visited,
    )
