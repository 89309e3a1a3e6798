"""Data cleaning for calibration: offline log preparation and online feedback gating.

Offline, raw drive logs pass through a fixed pipeline: steering gate, mean
filter on the IMU channel, grid binning with uniform per-cell downsampling
and per-cell outlier removal.  Online, per-cycle feedback is delay-aligned
with the actuator, low-pass filtered, and admitted only when the recent
command history is steady and the speed/acceleration errors agree in sign.
"""

from __future__ import annotations

import csv
import io
import math
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

MODE_MANUAL = "MANUAL"
MODE_AUTO = "AUTO"

LOG_HEADER = ["t", "cmd", "v", "acc", "theta", "mode"]


class WindowTooLarge(ValueError):
    """Mean filter window exceeds the series length."""


class InvalidRate(ValueError):
    """Sample rate too low for the filter cutoff."""


class InsufficientHistory(ValueError):
    """Command history does not cover the consistency window."""


class NonFiniteFrame(ValueError):
    """An online frame carries a NaN or infinite number."""


class ImplausibleFrame(ValueError):
    """An online frame's measured or expected acceleration is finite but beyond any vehicle's."""


# |acc_meas| or |acc_expected| above this is no vehicle's acceleration but a
# corrupt frame: about 5 g, against peaks near 6 m/s^2 on both simulated
# presets, with room for hard braking and sensor noise.  Such a frame,
# admitted, would step every cell by it through the gain and publish absurd
# (if finite and monotone) tables.
ACC_MEAS_LIMIT = 50.0  # m/s^2


class TimestampNotIncreasing(ValueError):
    """An online frame's timestamp repeats or precedes the previous frame's."""


class DriveLog:
    """Column-oriented drive log with CSV round-trip.

    Columns follow the interchange header ``t,cmd,v,acc,theta,mode``;
    timestamps must be strictly increasing.
    """

    def __init__(self, t, cmd, v, acc, theta, mode):
        self.t = np.asarray(t, dtype=float)
        self.cmd = np.asarray(cmd, dtype=float)
        self.v = np.asarray(v, dtype=float)
        self.acc = np.asarray(acc, dtype=float)
        self.theta = np.asarray(theta, dtype=float)
        self.mode = np.asarray(mode, dtype=object)
        n = len(self.t)
        if not all(len(col) == n for col in (self.cmd, self.v, self.acc, self.theta, self.mode)):
            raise ValueError("all log columns must have equal length")
        if n and np.any(np.diff(self.t) <= 0):
            raise ValueError("timestamps must be strictly increasing")
        for col in (self.t, self.cmd, self.v, self.acc, self.theta):
            if not np.all(np.isfinite(col)):
                raise ValueError("log values must be finite")

    def __len__(self):
        return len(self.t)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(LOG_HEADER)
        for i in range(len(self)):
            writer.writerow(
                [
                    "%.9g" % self.t[i],
                    "%.9g" % self.cmd[i],
                    "%.9g" % self.v[i],
                    "%.9g" % self.acc[i],
                    "%.9g" % self.theta[i],
                    str(self.mode[i]),
                ]
            )
        return buf.getvalue()

    def save(self, path):
        with open(path, "w", newline="") as fh:
            fh.write(self.to_csv())

    @classmethod
    def from_csv(cls, text: str) -> "DriveLog":
        reader = csv.reader(io.StringIO(text))
        header = next(reader, None)
        if header != LOG_HEADER:
            raise ValueError(f"expected drive log header {LOG_HEADER}, got {header}")
        cols = {name: [] for name in LOG_HEADER}
        for row in reader:
            if not row:
                continue
            for name, value in zip(LOG_HEADER, row):
                cols[name].append(value)
        return cls(
            t=np.array(cols["t"], dtype=float),
            cmd=np.array(cols["cmd"], dtype=float),
            v=np.array(cols["v"], dtype=float),
            acc=np.array(cols["acc"], dtype=float),
            theta=np.array(cols["theta"], dtype=float),
            mode=np.array(cols["mode"], dtype=object),
        )

    @classmethod
    def load(cls, path) -> "DriveLog":
        with open(path) as fh:
            return cls.from_csv(fh.read())


# ---------------------------------------------------------------------------
# offline cleaning
# ---------------------------------------------------------------------------

def mean_filter(series, window: int) -> np.ndarray:
    """Sliding mean over ``window`` consecutive samples.

    Returns the means of every full window in order (length
    ``len(series) - window + 1``); the value at output position k summarises
    the window starting at input position k and stands in for the sample
    that follows it.  ``window=1`` reproduces the input values.
    """
    series = np.asarray(series, dtype=float)
    if window < 1:
        raise ValueError("window must be >= 1")
    if window > len(series):
        raise WindowTooLarge(f"window {window} > series length {len(series)}")
    kernel = np.full(window, 1.0 / window)
    return np.convolve(series, kernel, mode="valid")


def steering_gate(log: DriveLog, delta_steer: float) -> DriveLog:
    """Keep only frames with |steering angle| strictly below the threshold."""
    if delta_steer <= 0:
        raise ValueError("delta_steer must be positive")
    keep = np.abs(log.theta) < delta_steer
    return DriveLog(
        log.t[keep], log.cmd[keep], log.v[keep], log.acc[keep], log.theta[keep], log.mode[keep]
    )


def _outlier_mask(values: np.ndarray) -> np.ndarray:
    """Single-pass z-score mask: True where |x - mean| / std <= 1.

    Fewer than two samples, or zero spread, keeps everything.  The mean
    always survives its own cell, so a non-empty input never empties.
    """
    values = np.asarray(values, dtype=float)
    if len(values) < 2:
        return np.ones(len(values), dtype=bool)
    std = values.std()
    if std == 0.0:
        return np.ones(len(values), dtype=bool)
    return np.abs(values - values.mean()) / std <= 1.0


def nearest_cell_index(grid: np.ndarray, x) -> np.ndarray:
    """Index of the nearest grid value, clamped to the grid."""
    mids = 0.5 * (grid[1:] + grid[:-1])
    return np.searchsorted(mids, np.asarray(x, dtype=float))


@dataclass
class GridBins:
    """Per-cell acceleration samples keyed by (command index, speed index).

    ``cells[(i, j)]`` holds rows ``(cmd, v, acc)`` of every retained sample
    whose nearest grid point is ``(cmd_grid[i], speed_grid[j])``.
    """

    cmd_grid: np.ndarray
    speed_grid: np.ndarray
    cells: dict = field(default_factory=dict)

    def counts(self) -> np.ndarray:
        out = np.zeros((len(self.cmd_grid), len(self.speed_grid)), dtype=int)
        for (i, j), rows in self.cells.items():
            out[i, j] = len(rows)
        return out

    def to_samples(self) -> np.ndarray:
        """All retained rows (cmd, v, acc) stacked in cell order."""
        if not self.cells:
            return np.empty((0, 3))
        return np.vstack([self.cells[key] for key in sorted(self.cells)])


def bin_and_uniform(
    log: DriveLog,
    cmd_grid,
    speed_grid,
    cap: int = 50,
    seed: int = 0,
    filtered_acc: np.ndarray | None = None,
) -> GridBins:
    """Assign samples to nearest grid cells, downsample, and de-outlier.

    Cells holding more than ``cap`` samples are reduced to ``cap`` by a
    seeded uniform draw without replacement, then each cell drops its
    z-score > 1 outliers.  ``filtered_acc`` substitutes a cleaned IMU
    channel (same length as the log) for the raw one.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    cmd_grid = np.asarray(cmd_grid, dtype=float)
    speed_grid = np.asarray(speed_grid, dtype=float)
    acc = log.acc if filtered_acc is None else np.asarray(filtered_acc, dtype=float)
    if len(acc) != len(log):
        raise ValueError("filtered_acc must match the log length")

    ci = nearest_cell_index(cmd_grid, log.cmd)
    vi = nearest_cell_index(speed_grid, log.v)
    cell_id = ci * len(speed_grid) + vi
    order = np.argsort(cell_id, kind="stable")
    sorted_ids = cell_id[order]
    bounds = np.flatnonzero(np.r_[True, np.diff(sorted_ids) != 0, True])

    rng = np.random.default_rng(seed)
    bins = GridBins(cmd_grid=cmd_grid, speed_grid=speed_grid)
    for a, b in zip(bounds[:-1], bounds[1:]):
        idx = order[a:b]
        if len(idx) > cap:
            pick = rng.choice(len(idx), size=cap, replace=False)
            idx = idx[np.sort(pick)]
        keep = _outlier_mask(acc[idx])
        idx = idx[keep]
        if len(idx) == 0:
            continue
        key = (int(ci[idx[0]]), int(vi[idx[0]]))
        bins.cells[key] = np.column_stack([log.cmd[idx], log.v[idx], acc[idx]])
    return bins


def offline_pipeline(
    log: DriveLog,
    cmd_grid,
    speed_grid,
    delta_steer: float = 10.0,
    mean_window: int = 5,
    cap: int = 50,
    seed: int = 0,
    delay: float = 0.2,
    cmd_gap: float = 10.0,
) -> GridBins:
    """Clean a raw log into binned training cells.

    Stages: the IMU channel is smoothed with the ``mean_window`` samples
    preceding each frame (on the contiguous raw stream, before any frame is
    dropped), each measurement frame is attributed to the command issued
    ``delay`` seconds earlier (the actuator is not instantaneous, and hard
    braking sweeps the speed range too fast for same-frame pairing to mean
    anything), transition frames whose issuing commands moved more than
    ``cmd_gap`` are discarded, steering frames are gated out, and the rest
    is binned with per-cell downsampling and outlier removal.
    """
    cmd_grid = np.asarray(cmd_grid, dtype=float)
    speed_grid = np.asarray(speed_grid, dtype=float)
    empty = GridBins(cmd_grid, speed_grid)
    if len(log) < 2:
        return empty
    dt = float(np.median(np.diff(log.t)))
    shift = int(round(delay / dt)) if delay > 0 else 0
    start = shift + mean_window
    if len(log) <= start:
        return empty
    smoothed = mean_filter(log.acc, mean_window)
    j = np.arange(start, len(log))
    # a frame is usable only when the commands that produced its smoothing
    # window were steady: cells visited solely mid-transition (full throttle
    # at standstill, say) cannot be measured and stay empty instead of
    # collecting smeared values
    windows = np.lib.stride_tricks.sliding_window_view(log.cmd, mean_window + 1)
    steady = np.ptp(windows, axis=1)[j - shift - mean_window] < cmd_gap
    j = j[steady]
    if len(j) == 0:
        return empty
    # braking at or near standstill pins the IMU at zero no matter the pedal:
    # those frames say nothing about the actuator, and the residual crawl
    # frames straddle the parked/rolling discontinuity, so both are dropped
    v_still = 0.5 * float(speed_grid[1] - speed_grid[0])
    informative = ~((log.cmd[j - shift] < 0.0) & (log.v[j] < v_still))
    j = j[informative]
    if len(j) == 0:
        return empty
    aligned = DriveLog(
        log.t[j],
        log.cmd[j - shift],
        log.v[j],
        smoothed[j - mean_window],
        log.theta[j],
        log.mode[j],
    )
    gated = steering_gate(aligned, delta_steer)
    if len(gated) == 0:
        return empty
    return bin_and_uniform(gated, cmd_grid, speed_grid, cap=cap, seed=seed)


# ---------------------------------------------------------------------------
# online feedback preparation
# ---------------------------------------------------------------------------

def _butter_lowpass(order: int, cutoff_hz: float, sample_rate: float):
    """Digital Butterworth low-pass: ``(b, a, zi, dc_delay)``.

    ``b`` and ``a`` are the transfer-function coefficients, ``zi`` the
    direct-form II transposed state of a unit constant input, and
    ``dc_delay`` the group delay at DC in samples.  The steps and their order
    are those of SciPy's ``signal.butter`` and ``signal.lfilter_zi``, so
    ``b``, ``a`` and ``zi`` come out bit-equal to SciPy's.
    """
    # analog prototype poles, prewarped for the bilinear transform (fs = 2)
    warped = 4.0 * math.tan(math.pi * (2.0 * cutoff_hz / sample_rate) / 2.0)
    m = np.arange(-order + 1, order, 2)
    p = -np.exp(1j * math.pi * m / (2 * order)) * warped
    k = warped**order
    # bilinear map s -> z; every analog zero at infinity lands on z = -1
    p_z = (4.0 + p) / (4.0 - p)
    k_z = k * np.real(1.0 / np.prod(4.0 - p))
    b = k_z * np.poly(-np.ones(order))
    a = np.poly(p_z).real
    # the state a unit step settles to: (I - A) zi = B, A the companion of a
    companion = np.eye(order, k=-1)
    companion[0] = -a[1:]
    zi = np.linalg.solve(np.eye(order) - companion.T, b[1:] - a[1:] * b[0])
    # -d(phase)/dw of b/a at w = 0, from the coefficients' centres of mass
    n = np.arange(order + 1)
    dc_delay = float((n @ b) / b.sum() - (n @ a) / a.sum())
    return b, a, zi, dc_delay


class ButterworthFilter:
    """Causal low-pass filter with per-stream state.

    Third order, 2 Hz cutoff by default, discretised by the bilinear
    transform.  The design is plain numpy (``_butter_lowpass``), bit-equal
    to SciPy's ``signal.butter``/``signal.lfilter_zi``.  ``dc_delay`` is the
    group delay at DC in samples.  State is primed to the steady-state
    response of the first sample, so a constant stream passes through
    unchanged from the start and the filter stays linear in its input.  One
    instance per stream; not thread-safe.
    """

    def __init__(self, sample_rate: float, cutoff_hz: float = 2.0, order: int = 3):
        if not (isinstance(order, (int, np.integer)) and order >= 1):
            raise ValueError(f"order must be an integer >= 1, got {order!r}")
        if not (math.isfinite(cutoff_hz) and cutoff_hz > 0.0):
            raise ValueError(f"cutoff must be finite and positive, got {cutoff_hz!r}")
        if not (math.isfinite(sample_rate) and sample_rate > 2.0 * cutoff_hz):
            raise InvalidRate(
                f"sample rate {sample_rate:g} Hz must be finite and exceed twice the "
                f"{cutoff_hz:g} Hz cutoff"
            )
        self.sample_rate = float(sample_rate)
        self.cutoff_hz = float(cutoff_hz)
        self.order = int(order)
        b, a, self._zi_unit, self.dc_delay = _butter_lowpass(
            self.order, self.cutoff_hz, self.sample_rate
        )
        self._bl = [float(c) for c in b]
        self._al = [float(c) for c in a]
        self._state = None

    def __call__(self, x: float) -> float:
        # direct form II transposed, plain floats: called once per control
        # cycle, so this avoids the per-call cost of an lfilter round trip
        if self._state is None:
            self._state = [float(z) for z in self._zi_unit * x]
        b, a, z = self._bl, self._al, self._state
        n = len(z)
        y = b[0] * x + z[0]
        for i in range(1, n):
            z[i - 1] = b[i] * x - a[i] * y + z[i]
        z[n - 1] = b[n] * x - a[n] * y
        return y


def command_consistency_gate(
    t_hist, cmd_hist, t_ref: float, delta_cmd_gap: float, dt: float, window: float = 0.1
) -> bool:
    """True when every command within +-window of t_ref stays near the reference.

    ``t_hist`` must be increasing, sampled every ``dt`` seconds.  The
    reference command is the history value nearest ``t_ref`` (the earlier one
    on a tie).  Plain Python over any indexable sequence, so the online
    preprocessor passes its history deques as they are, once per control
    cycle.  Raises InsufficientHistory unless the samples inside the window
    reach both of its ends (within half a sample) and miss at most one of its
    ``round(2 * window / dt) + 1`` frames: a frame ``push`` refused leaves
    such a one-sample hole, while a jump in the clock leaves an edge empty.
    """
    lo = bisect_left(t_hist, t_ref - window - 1e-12)
    hi = bisect_right(t_hist, t_ref + window + 1e-12)
    if (
        hi - lo < max(round(2.0 * window / dt), 1)
        or t_hist[lo] > t_ref - window + 0.5 * dt
        or t_hist[hi - 1] < t_ref + window - 0.5 * dt
    ):
        raise InsufficientHistory(
            f"{hi - lo} samples do not fill [{t_ref - window:g}, {t_ref + window:g}]"
        )
    k = bisect_left(t_hist, t_ref)
    if k == len(t_hist) or (k > 0 and t_ref - t_hist[k - 1] <= t_hist[k] - t_ref):
        k -= 1
    cmd_ref = cmd_hist[k]
    # max(c) - ref rounds to max over c of (c - ref): float subtraction is
    # monotone, so this is |c - ref| < gap for every c in the window
    cmds = list(islice(cmd_hist, lo, hi))
    return max(cmds) - cmd_ref < delta_cmd_gap and cmd_ref - min(cmds) < delta_cmd_gap


def speed_acc_consistency_gate(v_ref: float, v_k: float, a_ref: float, a_k: float) -> bool:
    """True when speed error and acceleration error share a sign.

    ``v_ref`` is the expected speed and ``v_k`` the measured one; likewise
    for the accelerations.  A zero product (either error exactly zero)
    fails: there is nothing consistent to learn from.
    """
    return (v_ref - v_k) * (a_ref - a_k) > 0.0


@dataclass(frozen=True)
class OnlineFeedback:
    """One admitted feedback event tying a past command to its measured effect.

    ``cmd_ref`` was issued ``delay`` seconds ago at speed ``v_ref``;
    ``acc_ref`` is the acceleration the table promised for it; ``acc_k`` is
    the filtered IMU acceleration now observed; ``v_k`` the current speed.
    """

    cmd_ref: float
    v_ref: float
    acc_ref: float
    acc_k: float
    v_k: float


class OnlinePreprocessor:
    """Stateful per-cycle gatekeeper turning raw frames into OnlineFeedback.

    Pipeline order per cycle: finiteness, plausibility and timestamp
    checks, mode/steering gate, actuator-delay alignment (a FIFO of issued
    commands; one that matured more than half a sample before the current
    frame is dropped), causal Butterworth filtering of the IMU channel
    (``ButterworthFilter.__call__``, one sample per cycle),
    ``command_consistency_gate`` over the history deques for the +-window
    around the issue time (a window the history does not yet fill admits
    nothing), and the speed/acceleration sign-consistency check.
    """

    def __init__(
        self,
        sample_rate: float,
        delay: float = 0.2,
        delta_steer: float = 10.0,
        delta_cmd_gap: float = 10.0,
        window: float = 0.1,
    ):
        for name, value in (
            ("delay", delay), ("window", window),
            ("delta_cmd_gap", delta_cmd_gap), ("delta_steer", delta_steer),
        ):
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if delay < window:
            raise ValueError("delay must cover the consistency window")
        # the filter validates the rate, so it is built before dividing by it
        self._filter = ButterworthFilter(sample_rate)
        self.sample_rate = float(sample_rate)
        self.delay = float(delay)
        self.delta_steer = float(delta_steer)
        self.delta_cmd_gap = float(delta_cmd_gap)
        self.window = float(window)
        self._dt = 1.0 / float(sample_rate)
        # the causal low-pass delays the measured acceleration by its group
        # delay; fold that into the pairing constant so a command meets the
        # acceleration it actually caused, not a pre-command reading
        self.delay_total = self.delay + self._filter.dc_delay * self._dt
        self._pending = deque()
        hist_len = int(round((self.delay_total + window) / self._dt)) + 4
        self._t_hist = deque(maxlen=hist_len)
        self._cmd_hist = deque(maxlen=hist_len)

    def push(
        self,
        t: float,
        cmd: float,
        v: float,
        acc_meas: float,
        acc_expected: float,
        v_expected: float,
        mode: str = MODE_AUTO,
        theta: float = 0.0,
    ) -> OnlineFeedback | None:
        """Feed one control-cycle frame; returns feedback once its delay matures.

        ``cmd`` is the command issued this cycle, ``acc_expected`` the
        acceleration the table predicts for it, ``v_expected`` the desired
        speed right now, and ``acc_meas`` the raw IMU reading.  A frame with
        a non-finite number raises NonFiniteFrame, one whose ``acc_meas`` or
        ``acc_expected`` exceeds ``ACC_MEAS_LIMIT`` in magnitude raises
        ImplausibleFrame, and one whose ``t`` is not later than the previous
        frame's raises TimestampNotIncreasing; each leaves the filter and the
        history as they were, so the next valid frame carries on.  After a forward jump
        in ``t``, the commands whose delay matured inside the jump are
        dropped unadmitted.
        """
        if not all(map(math.isfinite, (t, cmd, v, acc_meas, acc_expected, v_expected, theta))):
            raise NonFiniteFrame(f"frame at t={t!r} holds a non-finite value")
        if abs(acc_meas) > ACC_MEAS_LIMIT:
            raise ImplausibleFrame(
                f"frame at t={t!r} measures {acc_meas!r} m/s^2, beyond {ACC_MEAS_LIMIT:g}"
            )
        if abs(acc_expected) > ACC_MEAS_LIMIT:
            raise ImplausibleFrame(
                f"frame at t={t!r} expects {acc_expected!r} m/s^2, beyond {ACC_MEAS_LIMIT:g}"
            )
        if self._t_hist and t <= self._t_hist[-1]:
            raise TimestampNotIncreasing(f"frame at t={t!r} does not follow t={self._t_hist[-1]!r}")
        acc_f = self._filter(acc_meas)
        auto = (mode == MODE_AUTO) and (abs(theta) < self.delta_steer)
        self._t_hist.append(t)
        self._cmd_hist.append(cmd)
        self._pending.append((t, cmd, v, acc_expected, auto))

        feedback = None
        while self._pending and self._pending[0][0] + self.delay_total <= t + 0.5 * self._dt:
            t_ref, cmd_ref, v_ref, acc_ref, issued_auto = self._pending.popleft()
            # matured more than half a sample ago (the clock jumped forward):
            # this frame's acceleration is not the command's effect
            if t_ref + self.delay_total < t - 0.5 * self._dt:
                continue
            if not (auto and issued_auto):
                continue
            try:
                steady = command_consistency_gate(
                    self._t_hist, self._cmd_hist, t_ref, self.delta_cmd_gap, self._dt, self.window
                )
            except InsufficientHistory:
                steady = False
            if not steady:
                continue
            if not speed_acc_consistency_gate(v_expected, v, acc_ref, acc_f):
                continue
            feedback = OnlineFeedback(
                cmd_ref=cmd_ref, v_ref=v_ref, acc_ref=acc_ref, acc_k=acc_f, v_k=v
            )
        return feedback
