"""Data cleaning for calibration: offline log preparation and online feedback gating.

Offline, a raw drive log is smoothed (a ``MEAN_WINDOW`` mean on the IMU
channel), aligned (each frame paired with the command one actuator delay
earlier), selected (one mask for steady, informative, straight frames) and
binned on the grid with uniform per-cell downsampling to ``CELL_CAP`` and
outlier removal; the binned samples are one array (``GridBins``), and
``offline_pipeline``'s one setting is the delay.  Online,
per-cycle feedback is delay-aligned, low-pass filtered, and admitted only
when the recent command history is steady and the speed/acceleration
errors agree in sign: ``OnlinePreprocessor.push`` decides frame by frame,
as an adapting loop needs, and ``OnlinePreprocessor.admitted_refs`` decides
the same at once for a whole stream on a tracking run's clock, as a run
with a frozen table can.  Both sides share the threshold constants below.
"""

from __future__ import annotations

import csv
import io
import math
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple

import numpy as np

from .table import ParseError, check_grid, check_number

MODE_MANUAL = "MANUAL"
MODE_AUTO = "AUTO"

LOG_HEADER = ["t", "cmd", "v", "acc", "theta", "mode"]


class InvalidRate(ValueError):
    """Sample rate too low for the filter cutoff."""


class NonFiniteFrame(ValueError):
    """An online frame carries a NaN or infinite number."""


class ImplausibleFrame(ValueError):
    """An online frame's command or acceleration is finite but beyond any vehicle's."""


# |acc_meas| or |acc_expected| above this is no vehicle's acceleration but a
# corrupt frame: about 5 g, against peaks near 6 m/s^2 on both simulated
# presets, with room for hard braking and sensor noise.  Such a frame,
# admitted, would step every cell by it through the gain and publish absurd
# (if finite and monotone) tables.
ACC_MEAS_LIMIT = 50.0  # m/s^2
# |cmd| above this lies off the table's command axis (full pedal either way):
# the tracking loop clamps its command to it, and a frame beyond it is corrupt
CMD_LIMIT = 100.0  # %

STEER_LIMIT = 10.0  # |steering| from which a frame is a turn: dropped offline and online
CMD_GAP = 10.0  # command spread (%) around an issue time that marks a transition, both sides
MEAN_WINDOW = 5  # samples in the offline IMU mean filter
CELL_CAP = 50  # samples a grid cell keeps at most offline, drawn uniformly with seed 0
CONSISTENCY_WINDOW = 0.1  # s either side of the issue time that the history gate reads
FILTER_ORDER, FILTER_CUTOFF_HZ = 3, 2.0  # the online Butterworth low-pass


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
        """Parse ``to_csv``'s text, skipping blank lines.

        ParseError names the 1-based line of a row that is not six fields:
        five finite numbers and a mode, ``MANUAL`` or ``AUTO``.
        """
        reader = csv.reader(io.StringIO(text))
        header = next(reader, None)
        if header != LOG_HEADER:
            raise ValueError(f"expected drive log header {LOG_HEADER}, got {header}")
        numbers, mode = [], []
        for row in reader:
            if not row:
                continue
            if len(row) != len(LOG_HEADER):
                raise ParseError(reader.line_num, f"expected {len(LOG_HEADER)} fields, got {len(row)}")
            try:
                values = [float(x) for x in row[:-1]]
            except ValueError as exc:
                raise ParseError(reader.line_num, f"bad number: {exc}") from None
            if not all(map(math.isfinite, values)):
                raise ParseError(reader.line_num, "non-finite value")
            if row[-1] not in (MODE_MANUAL, MODE_AUTO):
                raise ParseError(reader.line_num, f"mode must be {MODE_MANUAL} or {MODE_AUTO}, got {row[-1]!r}")
            numbers.append(values)
            mode.append(row[-1])
        t, cmd, v, acc, theta = np.array(numbers, dtype=float).reshape(-1, 5).T.copy()
        return cls(t, cmd, v, acc, theta, np.array(mode, dtype=object))

    @classmethod
    def load(cls, path) -> "DriveLog":
        with open(path) as fh:
            return cls.from_csv(fh.read())


# ---------------------------------------------------------------------------
# offline cleaning
# ---------------------------------------------------------------------------

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


@dataclass(frozen=True)
class GridBins:
    """The retained offline samples on the (command, speed) grid.

    ``samples`` holds one read-only row ``(cmd, v, acc)`` per retained
    frame, grouped by cell in (command, speed) index order and in log order
    within a cell.  ``cell[k]`` is row k's flat cell index
    ``i * len(speed_grid) + j``: its nearest grid point is
    ``(cmd_grid[i], speed_grid[j])``.
    """

    cmd_grid: np.ndarray
    speed_grid: np.ndarray
    samples: np.ndarray
    cell: np.ndarray

    def counts(self) -> np.ndarray:
        """Retained samples per cell, shaped ``(len(cmd_grid), len(speed_grid))``."""
        shape = (len(self.cmd_grid), len(self.speed_grid))
        return np.bincount(self.cell, minlength=shape[0] * shape[1]).reshape(shape)

    def to_samples(self) -> np.ndarray:
        """All retained rows ``(cmd, v, acc)``, in cell order."""
        return self.samples


def _bin_and_uniform(cmd, v, acc, cmd_grid, speed_grid) -> GridBins:
    """Assign samples ``(cmd, v, acc)`` to their nearest grid cells.

    Cells holding more than ``CELL_CAP`` samples are reduced to ``CELL_CAP``
    by a uniform draw without replacement (one generator seeded with 0,
    drawn cell by cell in order), then each cell drops its z-score > 1
    outliers of ``acc``.  No samples give empty bins.
    """
    ci = nearest_cell_index(cmd_grid, cmd)
    vi = nearest_cell_index(speed_grid, v)
    cell_id = ci * len(speed_grid) + vi
    order = np.argsort(cell_id, kind="stable")
    bounds = np.flatnonzero(np.r_[True, np.diff(cell_id[order]) != 0, True])

    # per cell, so the draws and each cell's std are those of one cell alone
    rng = np.random.default_rng(0)
    kept = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        idx = order[a:b]
        if len(idx) > CELL_CAP:
            idx = idx[np.sort(rng.choice(len(idx), size=CELL_CAP, replace=False))]
        kept.append(idx[_outlier_mask(acc[idx])])
    idx = np.concatenate(kept)
    samples = np.column_stack([cmd[idx], v[idx], acc[idx]])
    cell = cell_id[idx]
    samples.setflags(write=False)
    cell.setflags(write=False)
    return GridBins(cmd_grid, speed_grid, samples, cell)


def offline_pipeline(log: DriveLog, cmd_grid, speed_grid, delay: float = 0.2) -> GridBins:
    """Clean a raw log into binned training samples.

    Stages: the IMU channel is smoothed with the ``MEAN_WINDOW`` samples
    preceding each frame (on the contiguous raw stream, before any frame is
    dropped); each measurement frame is attributed to the command issued
    ``delay`` seconds earlier (the actuator is not instantaneous, and hard
    braking sweeps the speed range too fast for same-frame pairing to mean
    anything); one mask keeps the frames that are steady (their issuing
    commands spread less than ``CMD_GAP``), informative (not braking at
    standstill) and straight (|steering| below ``STEER_LIMIT``); and those
    are binned with per-cell downsampling to ``CELL_CAP`` and outlier
    removal.  A log too short for the delay and the window gives empty
    bins.  Raises ValueError before any work unless ``delay`` is a finite
    number >= 0, not a bool, and both grids pass ``check_grid``.
    """
    check_number("delay", delay, 0.0)
    cmd_grid = check_grid("cmd_grid", cmd_grid)
    speed_grid = check_grid("speed_grid", speed_grid)
    nothing = np.empty(0)
    if len(log) < 2:
        return _bin_and_uniform(nothing, nothing, nothing, cmd_grid, speed_grid)
    dt = float(np.median(np.diff(log.t)))
    # a delay longer than the log leaves nothing (and delay / dt may overflow)
    shift = int(round(min(delay / dt, len(log))))
    start = shift + MEAN_WINDOW
    if len(log) <= start:
        return _bin_and_uniform(nothing, nothing, nothing, cmd_grid, speed_grid)
    # each frame from ``start`` on, as slices: its speed, the command issued
    # ``shift`` frames before it, and the mean IMU of the MEAN_WINDOW frames
    # before it
    end = len(log)
    cmd = log.cmd[start - shift : end - shift]
    v = log.v[start:]
    means = np.convolve(log.acc, np.full(MEAN_WINDOW, 1.0 / MEAN_WINDOW), "valid")
    acc = means[start - MEAN_WINDOW : end - MEAN_WINDOW]
    # a frame is usable only when the commands that produced its smoothing
    # window were steady: cells visited solely mid-transition (full throttle
    # at standstill, say) cannot be measured and stay empty instead of
    # collecting smeared values
    windows = np.lib.stride_tricks.sliding_window_view(log.cmd, MEAN_WINDOW + 1)
    keep = np.ptp(windows[: end - start], axis=1) < CMD_GAP
    # braking at or near standstill pins the IMU at zero no matter the pedal:
    # those frames say nothing about the actuator, and the residual crawl
    # frames straddle the parked/rolling discontinuity, so both are dropped
    v_still = 0.5 * float(speed_grid[1] - speed_grid[0])
    keep &= ~((cmd < 0.0) & (v < v_still))
    keep &= np.abs(log.theta[start:]) < STEER_LIMIT
    return _bin_and_uniform(cmd[keep], v[keep], acc[keep], cmd_grid, speed_grid)


# ---------------------------------------------------------------------------
# online feedback preparation
# ---------------------------------------------------------------------------

def _butter_lowpass(order: int, cutoff: float, sample_rate: float):
    """Digital Butterworth low-pass: ``(b, a, zi, dc_delay)``.

    ``b`` and ``a`` are the transfer-function coefficients, ``zi`` the
    direct-form II transposed state of a unit constant input, and
    ``dc_delay`` the group delay at DC in samples.  The steps and their order
    are those of SciPy's ``signal.butter`` and ``signal.lfilter_zi``, so
    ``b``, ``a`` and ``zi`` come out bit-equal to SciPy's.
    """
    # analog prototype poles, prewarped for the bilinear transform (fs = 2)
    warped = 4.0 * math.tan(math.pi * (2.0 * cutoff / sample_rate) / 2.0)
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

    Order ``FILTER_ORDER`` (3) with its cutoff at ``FILTER_CUTOFF_HZ``
    (2 Hz), discretised by the bilinear transform; ``sample_rate`` must be
    finite and above twice the cutoff.  The design is plain numpy
    (``_butter_lowpass``), bit-equal to SciPy's
    ``signal.butter``/``signal.lfilter_zi``.  ``dc_delay`` is the group
    delay at DC in samples.  State is primed to the steady-state response
    of the first sample, so a constant stream passes through unchanged from
    the start and the filter stays linear in its input.  One instance per
    stream; not thread-safe.
    """

    def __init__(self, sample_rate: float):
        if not (math.isfinite(sample_rate) and sample_rate > 2.0 * FILTER_CUTOFF_HZ):
            raise InvalidRate(
                f"sample rate {sample_rate:g} Hz must be finite and exceed twice the "
                f"{FILTER_CUTOFF_HZ:g} Hz cutoff"
            )
        self.sample_rate = float(sample_rate)
        b, a, self._zi_unit, self.dc_delay = _butter_lowpass(
            FILTER_ORDER, FILTER_CUTOFF_HZ, self.sample_rate
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


def command_consistency_gate(t_hist, cmd_hist, t_ref: float, cmd_ref: float, dt: float) -> bool:
    """True when every command near t_ref stays within ``CMD_GAP`` of ``cmd_ref``.

    ``cmd_ref`` is the command issued at ``t_ref``; the window read is
    ``CONSISTENCY_WINDOW`` either side of t_ref.  ``t_hist`` must be
    increasing, sampled every ``dt`` seconds.  Plain Python over any
    indexable sequence, so the online preprocessor passes its history
    deques as they are, once per control cycle.  False, too, unless the
    samples inside the window reach both of its ends (within half a sample)
    and miss at most one of its ``round(2 * CONSISTENCY_WINDOW / dt) + 1``
    frames: a frame ``push`` refused leaves such a one-sample hole, while a
    jump in the clock, or a history too short yet, leaves an edge empty.
    Only the window's start is searched over the whole history; its end is
    searched from there, and the window's commands are read in one slice.
    """
    window = CONSISTENCY_WINDOW
    lo = bisect_left(t_hist, t_ref - window - 1e-12)
    hi = bisect_right(t_hist, t_ref + window + 1e-12, lo)
    if (
        hi - lo < max(round(2.0 * window / dt), 1)
        or t_hist[lo] > t_ref - window + 0.5 * dt
        or t_hist[hi - 1] < t_ref + window - 0.5 * dt
    ):
        return False
    # max(c) - ref rounds to max over c of (c - ref): float subtraction is
    # monotone, so this is |c - ref| < gap for every c in the window
    cmds = list(islice(cmd_hist, lo, hi))
    return max(cmds) - cmd_ref < CMD_GAP and cmd_ref - min(cmds) < CMD_GAP


def speed_acc_consistency_gate(v_ref, v_k, a_ref, a_k):
    """True when speed error and acceleration error share a sign.

    ``v_ref`` is the expected speed and ``v_k`` the measured one; likewise
    for the accelerations.  A zero product (either error exactly zero)
    fails: there is nothing consistent to learn from.  Floats give a bool;
    numpy arrays give the test elementwise, as a bool array.
    """
    return (v_ref - v_k) * (a_ref - a_k) > 0.0


def check_frame(t, cmd, v, acc_meas, acc_expected, v_expected, theta=0.0, t_prev=-math.inf):
    """Raise the error ``OnlinePreprocessor.push`` refuses a frame with; return None for a valid one.

    In order: NonFiniteFrame for a non-finite number, ImplausibleFrame for
    a ``cmd`` beyond ``CMD_LIMIT`` or an ``acc_meas`` or ``acc_expected``
    beyond ``ACC_MEAS_LIMIT`` in magnitude, and TimestampNotIncreasing for
    a ``t`` not later than ``t_prev``, the previous frame's.
    """
    if not all(map(math.isfinite, (t, cmd, v, acc_meas, acc_expected, v_expected, theta))):
        raise NonFiniteFrame(f"frame at t={t!r} holds a non-finite value")
    if abs(cmd) > CMD_LIMIT:
        raise ImplausibleFrame(f"frame at t={t!r} commands {cmd!r} %, beyond {CMD_LIMIT:g}")
    if abs(acc_meas) > ACC_MEAS_LIMIT:
        raise ImplausibleFrame(
            f"frame at t={t!r} measures {acc_meas!r} m/s^2, beyond {ACC_MEAS_LIMIT:g}"
        )
    if abs(acc_expected) > ACC_MEAS_LIMIT:
        raise ImplausibleFrame(
            f"frame at t={t!r} expects {acc_expected!r} m/s^2, beyond {ACC_MEAS_LIMIT:g}"
        )
    if t <= t_prev:
        raise TimestampNotIncreasing(f"frame at t={t!r} does not follow t={t_prev!r}")


class OnlineFeedback(NamedTuple):
    """One admitted feedback event tying a past command to its measured effect.

    ``cmd_ref`` was issued ``delay`` seconds ago at speed ``v_ref``;
    ``acc_ref`` is the acceleration the table promised for it; ``acc_k`` is
    the filtered IMU acceleration now observed; ``v_k`` the current speed.
    An immutable named tuple, cheap to build once per admitted cycle.
    """

    cmd_ref: float
    v_ref: float
    acc_ref: float
    acc_k: float
    v_k: float


class OnlinePreprocessor:
    """Stateful per-cycle gatekeeper turning raw frames into OnlineFeedback.

    Pipeline order per cycle: finiteness, plausibility and timestamp
    checks, mode/steering gate (AUTO mode and |steering| below
    ``STEER_LIMIT``), actuator-delay alignment (a FIFO of issued commands;
    one that matured more than half a sample before the current frame is
    dropped), causal Butterworth filtering of the IMU channel
    (``ButterworthFilter.__call__``, one sample per cycle), then two gates
    that must both pass: the speed/acceleration sign-consistency check, and
    ``command_consistency_gate`` with a gap of ``CMD_GAP`` between the
    issued command and the history deques for the ``CONSISTENCY_WINDOW``
    either side of its issue time (a window the history does not yet fill
    admits nothing).  The sign check runs first: it is the cheaper one, and
    on a tracking run it refuses about a third of the frames that reach it.
    ``delay`` must be a finite number (not a bool) that covers the
    consistency window.

    ``push`` is the reference.  ``admitted_refs`` gives what pushing every
    frame of a recorded stream on a tracking run's clock would, in one pass
    over arrays, for a caller that needs the feedback only after the stream
    ends (a run whose table does not adapt).  A change to the gates must
    change both; the tests hold them equal.
    """

    def __init__(self, sample_rate: float, delay: float = 0.2):
        check_number("delay", delay, CONSISTENCY_WINDOW)
        # the filter validates the rate, so it is built before dividing by it
        self._filter = ButterworthFilter(sample_rate)
        self.sample_rate = float(sample_rate)
        self.delay = float(delay)
        self._dt = 1.0 / float(sample_rate)
        # the causal low-pass delays the measured acceleration by its group
        # delay; fold that into the pairing constant so a command meets the
        # acceleration it actually caused, not a pre-command reading
        self.delay_total = self.delay + self._filter.dc_delay * self._dt
        self._pending = deque()
        hist_len = int(round((self.delay_total + CONSISTENCY_WINDOW) / self._dt)) + 4
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
        a non-finite number raises NonFiniteFrame, one whose ``cmd`` exceeds
        ``CMD_LIMIT`` or whose ``acc_meas`` or ``acc_expected`` exceeds
        ``ACC_MEAS_LIMIT`` in magnitude raises ImplausibleFrame, and one
        whose ``t`` is not later than the previous frame's raises
        TimestampNotIncreasing (``check_frame``); each leaves the filter
        and the history as they were, so the next valid frame carries on.
        ``v`` is checked for finiteness only: every table read clamps speed
        to the grid.  After a forward jump in ``t``, the commands whose
        delay matured inside the jump are dropped unadmitted.
        """
        hist = self._t_hist
        check_frame(t, cmd, v, acc_meas, acc_expected, v_expected, theta, hist[-1] if hist else -math.inf)
        acc_f = self._filter(acc_meas)
        auto = (mode == MODE_AUTO) and (abs(theta) < STEER_LIMIT)
        self._t_hist.append(t)
        self._cmd_hist.append(cmd)
        self._pending.append((t, cmd, v, acc_expected, auto))

        feedback = None
        pending, delay_total, half = self._pending, self.delay_total, 0.5 * self._dt
        while pending and pending[0][0] + delay_total <= t + half:
            t_ref, cmd_ref, v_ref, acc_ref, issued_auto = pending.popleft()
            # matured more than half a sample ago (the clock jumped forward):
            # this frame's acceleration is not the command's effect
            if t_ref + delay_total < t - half:
                continue
            if not (auto and issued_auto):
                continue
            if not speed_acc_consistency_gate(v_expected, v, acc_ref, acc_f):
                continue
            if not command_consistency_gate(self._t_hist, self._cmd_hist, t_ref, cmd_ref, self._dt):
                continue
            feedback = OnlineFeedback(
                cmd_ref=cmd_ref, v_ref=v_ref, acc_ref=acc_ref, acc_k=acc_f, v_k=v
            )
        return feedback

    def admitted_refs(self, cmd, v, acc_meas, acc_expected, v_expected):
        """``(cmd_ref, v_ref)`` of every feedback ``push`` would return for a recorded stream.

        The stream holds ``push``'s arguments but ``t`` as arrays, one entry
        per frame, every frame AUTO with steering 0, frame k at
        ``k * (1 / sample_rate)``: the clock ``run_closed_loop`` records.
        The arrays returned are those of the feedback that pushing every
        frame, in order, through this preprocessor while it is fresh would
        return.  The preprocessor is left as it is; one already pushed raises
        ValueError.  A stream with a frame ``push`` would refuse raises what
        ``push`` raises at the first such frame (``check_frame``).

        The stages are ``push``'s, on arrays: a fresh ``ButterworthFilter``;
        each frame paired with the frame at which its command matures; the
        sign gate; and ``command_consistency_gate``'s window, edges and
        comparisons.  On this clock each frame pops at most one pairing,
        none of them stale, and every window is still in the history deques.
        """
        if self._t_hist:
            raise ValueError("admitted_refs replays a stream from the start: this preprocessor was pushed")
        cols = [np.asarray(x, dtype=float) for x in (cmd, v, acc_meas, acc_expected, v_expected)]
        cmd, v, acc_meas, acc_expected, v_expected = cols
        n = len(cmd)
        if any(x.shape != (n,) for x in cols):
            raise ValueError("the stream's columns must be one-dimensional and of equal length")
        dt, half, window = self._dt, 0.5 * self._dt, CONSISTENCY_WINDOW
        t = np.arange(n) * dt
        valid = np.isfinite(v) & np.isfinite(v_expected) & (np.abs(cmd) <= CMD_LIMIT)
        valid &= (np.abs(acc_meas) <= ACC_MEAS_LIMIT) & (np.abs(acc_expected) <= ACC_MEAS_LIMIT)
        if not valid.all():
            k = int(np.argmin(valid))
            check_frame(t.item(k), *(x.item(k) for x in cols))
        acc_f = np.fromiter(map(ButterworthFilter(self.sample_rate), memoryview(acc_meas)), float, n)
        # frame j pops pairing i: the first frame at which t[i] + delay_total <= t[j] + half;
        # j rises with i, so the pairings that mature inside the stream come first
        j = np.searchsorted(t + half, t + self.delay_total)
        j = j[: np.searchsorted(j, n)]
        i = np.flatnonzero(speed_acc_consistency_gate(v_expected[j], v[j], acc_expected[: len(j)], acc_f[j]))
        # command_consistency_gate around each t[i], with cmd[i] as the reference
        t_ref, cmd_ref = t[i], cmd[i]
        lo = np.searchsorted(t, t_ref - window - 1e-12)
        hi = np.searchsorted(t, t_ref + window + 1e-12, "right")  # lo <= i < hi
        # each window's extremes, from reduceat over the pairs (lo, hi): a
        # sentinel lets hi reach n, and the spans between windows are dropped
        ext, bounds = np.append(cmd, 0.0), np.column_stack([lo, hi]).ravel()
        top, bottom = np.maximum.reduceat(ext, bounds)[::2], np.minimum.reduceat(ext, bounds)[::2]
        # every frame is in the stream, so the edges imply the gate's count of frames
        keep = (t[lo] <= t_ref - window + half) & (t[hi - 1] >= t_ref + window - half)
        keep &= (top - cmd_ref < CMD_GAP) & (cmd_ref - bottom < CMD_GAP)
        return cmd_ref[keep], v[i[keep]]
