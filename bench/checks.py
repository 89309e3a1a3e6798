"""Analytic truth and the correctness checks the benchmark applies to longcal's outputs.

The truth is computed here from the presets' physical constants, not from
``PlantConfig.true_table()``, so a fault in the simulator's own oracle cannot
hide a fault in the calibration.  Every check returns a list of failure
messages; an empty list means the output passed.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

# Physical constants of the presets (see the README).  The pedal force is
# f_max * (|cmd| / 100) ** EXPONENT; the plant interpolates that law linearly
# between 5 % breakpoints, which coincide with the table's command grid, so
# the two agree exactly on every grid row.
PRESETS = {
    "ax1": {"mass": 300.0, "f_throttle": 1200.0, "f_brake": 1800.0, "rolling": 30.0},
    "mkz": {"mass": 1769.0, "f_throttle": 7200.0, "f_brake": 11000.0, "rolling": 180.0},
}
DRAG = 18.0  # N s^2 / m^2, both presets
EXPONENT = 1.2
IMU_NOISE = 0.05  # m/s^2, standard deviation of one IMU sample
MEAN_WINDOW = 5  # samples in the offline mean filter
# mean absolute IMU error left after the mean filter: sigma * sqrt(2/pi) / sqrt(5)
NOISE_FLOOR = IMU_NOISE * math.sqrt(2.0 / math.pi) / math.sqrt(MEAN_WINDOW)

TABLE_TOL = IMU_NOISE  # offline table_mae bound: below one raw IMU sample's noise
CV_MULTIPLE = 1.5  # cv_mae bound, as a multiple of NOISE_FLOOR
MOVE_RTOL = 1e-9  # slack on the per-update move bound sigma * |gain|


def truth(preset: str, load: float, cmd_grid, speed_grid) -> np.ndarray:
    """Steady-state acceleration over (cmd_grid x speed_grid) from first principles."""
    c = PRESETS[preset]
    cmd = np.asarray(cmd_grid, dtype=float)[:, None]
    v = np.asarray(speed_grid, dtype=float)[None, :]
    frac = (np.abs(cmd) / 100.0) ** EXPONENT
    force = np.where(cmd > 0, c["f_throttle"] * frac, -c["f_brake"] * frac)
    acc = (force - DRAG * v**2 - c["rolling"]) / (c["mass"] + load)
    # at standstill the vehicle cannot be pushed backwards
    return np.where(v > 0, acc, np.maximum(acc, 0.0))


def table_mae(acc, truth_acc, visited) -> float:
    """Mean absolute table error over the visited cells."""
    visited = np.asarray(visited, dtype=bool)
    return float(np.abs(np.asarray(acc) - truth_acc)[visited].mean())


def check_monotone_finite(acc, what: str) -> list[str]:
    acc = np.asarray(acc, dtype=float)
    fails = []
    if not np.all(np.isfinite(acc)):
        fails.append(f"{what}: non-finite entries")
    elif np.any(np.diff(acc, axis=0) < 0.0):
        cols = np.flatnonzero(np.any(np.diff(acc, axis=0) < 0.0, axis=0))
        fails.append(f"{what}: columns {cols.tolist()} decrease along the command axis")
    return fails


def check_offline(acc, mae: float, cv_mae: float) -> list[str]:
    fails = check_monotone_finite(acc, "offline table")
    if not mae < TABLE_TOL:
        fails.append(f"offline table_mae {mae:.4f} not below {TABLE_TOL} m/s^2")
    limit = CV_MULTIPLE * NOISE_FLOOR
    if not (math.isfinite(cv_mae) and cv_mae < limit):
        fails.append(f"cv_mae {cv_mae:.4f} not below {limit:.4f} m/s^2")
    return fails


def check_trace(trace, dt: float) -> list[str]:
    """Commands within +-100 and the station equal to the running sum of speed * dt."""
    fails = []
    cmd = np.asarray(trace.cmd)
    if not np.all(np.abs(cmd) <= 100.0):
        fails.append(f"command out of +-100: max |cmd| {np.abs(cmd).max():.3f}")
    expect = np.cumsum(np.asarray(trace.v) * dt)
    err = np.abs(np.asarray(trace.station) - expect).max()
    if not err <= 1e-9 * max(1.0, float(np.abs(expect).max())):
        fails.append(f"station differs from the running sum of speed * dt by {err:.3g} m")
    return fails


def check_update(old_acc, new_acc, gain: float, sigma: float) -> list[str]:
    """One online update: monotone, finite, and no cell moved beyond sigma * |gain|."""
    fails = check_monotone_finite(new_acc, "updated table")
    limit = sigma * abs(gain)
    move = float(np.abs(np.asarray(new_acc) - np.asarray(old_acc)).max())
    if not move <= limit * (1.0 + MOVE_RTOL):
        fails.append(f"update moved a cell by {move:.6g} > sigma*|gain| = {limit:.6g}")
    return fails


def _weights(grid: list, x: float) -> tuple[int, float]:
    """Left index and fractional weight of x, clamped into the grid."""
    x = min(max(x, grid[0]), grid[-1])
    i = min(bisect.bisect_right(grid, x) - 1, len(grid) - 2)
    return i, (x - grid[i]) / (grid[i + 1] - grid[i])


class ReferenceReads:
    """Reads of one frozen table, written apart from longcal, in the signatures the simulator calls.

    ``lookup_acc`` interpolates bilinearly, clamped to the grid.
    ``lookup_cmd`` inverts the two neighbouring speed columns by linear
    interpolation, clamped to each column's range (a flat run inverts to its
    upper command), and blends the two commands linearly in speed.
    ``invert`` checks that it is asked for this table and returns the reader.
    ``reads`` counts the lookups, so a caller can tell that they were used.
    """

    def __init__(self, table):
        self.table = table
        self.reads = 0
        self.cmd = table.cmd_grid.tolist()
        self.speed = table.speed_grid.tolist()
        self.acc = table.acc.tolist()  # rows follow cmd, columns follow speed
        self.columns = table.acc.T.tolist()

    def invert(self, table):
        if table is not self.table:
            raise ValueError("reference reads were built for another table")
        return self

    def lookup_acc(self, table, cmd, v) -> float:
        if table is not self.table:
            raise ValueError("reference reads were built for another table")
        self.reads += 1
        ci, cw = _weights(self.cmd, cmd)
        vi, vw = _weights(self.speed, v)
        a = self.acc
        return (
            a[ci][vi] * (1.0 - cw) * (1.0 - vw)
            + a[ci + 1][vi] * cw * (1.0 - vw)
            + a[ci][vi + 1] * (1.0 - cw) * vw
            + a[ci + 1][vi + 1] * cw * vw
        )

    def _column_cmd(self, j: int, acc: float) -> float:
        col, cmd = self.columns[j], self.cmd
        if acc < col[0]:
            return cmd[0]
        if acc >= col[-1]:
            return cmd[-1]
        i = bisect.bisect_right(col, acc) - 1
        return cmd[i] + (acc - col[i]) / (col[i + 1] - col[i]) * (cmd[i + 1] - cmd[i])

    def lookup_cmd(self, view, v, acc) -> float:
        if view is not self:
            raise ValueError("reference reads were given another inverse view")
        self.reads += 1
        vi, vw = _weights(self.speed, v)
        return (1.0 - vw) * self._column_cmd(vi, acc) + vw * self._column_cmd(vi + 1, acc)
