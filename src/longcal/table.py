"""Calibration table: the (command, speed) -> acceleration grid and its inverse.

The table stores, for every grid point, the steady longitudinal acceleration
a vehicle produces when a pedal command is held at a given speed.  Commands
live on a single signed axis: brake is [-100, 0), throttle is (0, 100], so
"more command" always means "more acceleration" and monotonicity is a single
constraint across the whole axis.

The controller-facing direction is the inverse: given a desired acceleration
at the current speed, pick the command.  ``invert`` builds that view, and
``project_monotone`` repairs tables whose columns lost monotonicity (for
example after an additive online update).
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np
from scipy.optimize import isotonic_regression

__all__ = [
    "CalibrationTable",
    "InverseTableView",
    "MonotonicityViolation",
    "ParseError",
    "default_cmd_grid",
    "default_speed_grid",
    "lookup_acc",
    "invert",
    "lookup_cmd",
    "project_monotone",
    "serialize",
    "deserialize",
]

FLOAT_FMT = "%.9g"  # fixed-precision text output, 9 significant digits


class MonotonicityViolation(ValueError):
    """A speed column decreases somewhere along the command axis."""


class ParseError(ValueError):
    """Malformed table text.  Carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def default_speed_grid(v_max: float, step: float = 0.2) -> np.ndarray:
    """Speed axis [0, v_max] every ``step`` m/s."""
    n = int(round(v_max / step))
    return np.round(np.arange(n + 1) * step, 9)


def default_cmd_grid(step: float = 5.0) -> np.ndarray:
    """Signed command axis [-100, 100] every ``step`` percent."""
    n = int(round(100.0 / step))
    return np.round(np.arange(-n, n + 1) * step, 9)


@dataclass(frozen=True)
class CalibrationTable:
    """Dense grid ``acc[i][j]`` = acceleration at ``cmd_grid[i]``, ``speed_grid[j]``.

    Grids must be strictly increasing with at least two entries; the value
    matrix must match their shape and be finite everywhere.  Instances are
    immutable: the online updater publishes changes by building a whole new
    table, never by mutating one in place, so a reader always holds an
    internally consistent snapshot.

    Column monotonicity is *not* enforced at construction (a freshly updated
    table may be temporarily non-monotone; ``project_monotone`` restores it).
    ``invert`` refuses non-monotone tables.
    """

    speed_grid: np.ndarray
    cmd_grid: np.ndarray
    acc: np.ndarray

    def __post_init__(self):
        speed = np.asarray(self.speed_grid, dtype=float)
        cmd = np.asarray(self.cmd_grid, dtype=float)
        acc = np.asarray(self.acc, dtype=float)
        if speed.ndim != 1 or len(speed) < 2:
            raise ValueError("speed_grid needs at least two entries")
        if cmd.ndim != 1 or len(cmd) < 2:
            raise ValueError("cmd_grid needs at least two entries")
        if np.any(np.diff(speed) <= 0):
            raise ValueError("speed_grid must be strictly increasing")
        if np.any(np.diff(cmd) <= 0):
            raise ValueError("cmd_grid must be strictly increasing")
        if acc.shape != (len(cmd), len(speed)):
            raise ValueError(
                f"acc shape {acc.shape} does not match |cmd_grid| x |speed_grid| "
                f"= ({len(cmd)}, {len(speed)})"
            )
        if not np.all(np.isfinite(acc)) or not np.all(np.isfinite(speed)) or not np.all(np.isfinite(cmd)):
            raise ValueError("table entries must all be finite")
        for name, arr in (("speed_grid", speed), ("cmd_grid", cmd), ("acc", acc)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def shape(self) -> tuple[int, int]:
        return self.acc.shape

    def is_monotone(self) -> bool:
        """True when every speed column is non-decreasing in command."""
        return bool(np.all(np.diff(self.acc, axis=0) >= 0.0))

    @classmethod
    def _trusted(cls, speed_grid, cmd_grid, acc: np.ndarray) -> "CalibrationTable":
        # construction without validation, for per-cycle update paths whose
        # inputs are already validated tables; grids are shared, not copied
        obj = object.__new__(cls)
        acc.setflags(write=False)
        object.__setattr__(obj, "speed_grid", speed_grid)
        object.__setattr__(obj, "cmd_grid", cmd_grid)
        object.__setattr__(obj, "acc", acc)
        return obj


@dataclass(frozen=True)
class InverseTableView:
    """Per-speed monotone map acceleration -> command.

    ``acc_columns[j]`` holds the (non-decreasing) accelerations of speed
    column j over ``cmd_grid``; interpolating command against that column
    inverts the table at that speed.
    """

    speed_grid: np.ndarray
    cmd_grid: np.ndarray
    acc_columns: np.ndarray  # shape |speed_grid| x |cmd_grid|

    def __post_init__(self):
        for name in ("speed_grid", "cmd_grid", "acc_columns"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _grid_weights(grid: np.ndarray, x):
    """Clamp x into the grid and return (left index, fractional weight)."""
    x = np.clip(x, grid[0], grid[-1])
    idx = np.clip(np.searchsorted(grid, x, side="right") - 1, 0, len(grid) - 2)
    w = (x - grid[idx]) / (grid[idx + 1] - grid[idx])
    return idx, w


def lookup_acc(table: CalibrationTable, cmd, v):
    """Bilinear interpolation of acceleration at (cmd, v).

    Queries outside the grid are clamped to its edge: commanding beyond the
    table never extrapolates the pedal map.  Exact at grid points.  Accepts
    scalars or equally shaped arrays.
    """
    scalar = np.isscalar(cmd) and np.isscalar(v)
    ci, cw = _grid_weights(table.cmd_grid, np.asarray(cmd, dtype=float))
    vi, vw = _grid_weights(table.speed_grid, np.asarray(v, dtype=float))
    a = table.acc
    out = (
        a[ci, vi] * (1.0 - cw) * (1.0 - vw)
        + a[ci + 1, vi] * cw * (1.0 - vw)
        + a[ci, vi + 1] * (1.0 - cw) * vw
        + a[ci + 1, vi + 1] * cw * vw
    )
    return float(out) if scalar else out


def invert(table: CalibrationTable) -> InverseTableView:
    """Build the acceleration -> command view used by the controller.

    Raises MonotonicityViolation if any speed column decreases anywhere;
    plateaus (equal neighbours) are allowed and invert to the upper command
    of the flat run.
    """
    diffs = np.diff(table.acc, axis=0)
    if np.any(diffs < 0.0):
        bad = int(np.argwhere(np.any(diffs < 0.0, axis=0))[0][0])
        raise MonotonicityViolation(
            f"speed column {bad} (v={table.speed_grid[bad]:g} m/s) is not "
            "monotone in command"
        )
    return InverseTableView(
        speed_grid=table.speed_grid,
        cmd_grid=table.cmd_grid,
        acc_columns=table.acc.T.copy(),
    )


def lookup_cmd(view: InverseTableView, v, acc):
    """Command that the table says produces ``acc`` at speed ``v``.

    Each neighbouring speed column is inverted by piecewise-linear
    interpolation (clamped to the column's acceleration range), then the two
    per-column commands are blended linearly in speed.
    """
    scalar = np.isscalar(v) and np.isscalar(acc)
    v, acc = np.broadcast_arrays(np.asarray(v, dtype=float), np.asarray(acc, dtype=float))
    v = np.atleast_1d(v)
    acc = np.atleast_1d(acc)
    vi, vw = _grid_weights(view.speed_grid, v)
    out = np.empty(v.shape)
    for k in range(v.size):
        i = int(vi.flat[k])
        w = float(vw.flat[k])
        a_q = float(acc.flat[k])
        lo = np.interp(a_q, view.acc_columns[i], view.cmd_grid)
        hi = np.interp(a_q, view.acc_columns[i + 1], view.cmd_grid)
        out.flat[k] = (1.0 - w) * lo + w * hi
    return out.item(0) if scalar else out


def _monotone_columns(acc: np.ndarray) -> np.ndarray:
    """Repair, in place, every column of ``acc`` that decreases somewhere.

    Each such column becomes its unit-weight L2 isotonic regression; the
    columns that are already non-decreasing are not touched.  The one
    monotone repair behind ``project_monotone`` and the online update.
    """
    for j in np.flatnonzero(np.any(np.diff(acc, axis=0) < 0.0, axis=0)):
        acc[:, j] = isotonic_regression(acc[:, j]).x
    return acc


def project_monotone(table: CalibrationTable) -> CalibrationTable:
    """Replace each speed column by its nearest non-decreasing sequence.

    The projection is the unit-weight isotonic regression of the column,
    applied only to the columns that violate, so already-monotone tables
    come back unchanged (same object) and the result is always a valid
    input to ``invert``.
    """
    if table.is_monotone():
        return table
    acc = _monotone_columns(table.acc.copy())
    return CalibrationTable(table.speed_grid, table.cmd_grid, acc)


def serialize(table: CalibrationTable) -> str:
    """Render the table as deterministic text.

    Line 1 is the speed grid, line 2 the command grid, then one line of
    accelerations per command row.  All numbers use 9 significant digits.
    """
    buf = io.StringIO()
    buf.write("speed_grid: " + " ".join(FLOAT_FMT % x for x in table.speed_grid) + "\n")
    buf.write("cmd_grid: " + " ".join(FLOAT_FMT % x for x in table.cmd_grid) + "\n")
    for row in table.acc:
        buf.write(" ".join(FLOAT_FMT % x for x in row) + "\n")
    return buf.getvalue()


def _parse_floats(body: str, lineno: int) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in body.split()], dtype=float)
    except ValueError as exc:
        raise ParseError(lineno, f"bad number: {exc}") from None


def deserialize(text: str) -> CalibrationTable:
    """Parse table text written by ``serialize``.

    Blank lines and ``#`` comments are skipped.  Raises ParseError (with the
    offending line number) on structural problems: missing headers,
    non-increasing grids, ragged or non-finite rows.
    """
    speed_grid = None
    cmd_grid = None
    rows: list[np.ndarray] = []
    header_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if speed_grid is None:
            if not line.startswith("speed_grid:"):
                raise ParseError(lineno, "expected 'speed_grid:' header")
            speed_grid = _parse_floats(line[len("speed_grid:"):], lineno)
            if len(speed_grid) < 2 or np.any(np.diff(speed_grid) <= 0):
                raise ParseError(lineno, "speed_grid must be strictly increasing with >= 2 entries")
            header_line = lineno
        elif cmd_grid is None:
            if not line.startswith("cmd_grid:"):
                raise ParseError(lineno, "expected 'cmd_grid:' header")
            cmd_grid = _parse_floats(line[len("cmd_grid:"):], lineno)
            if len(cmd_grid) < 2 or np.any(np.diff(cmd_grid) <= 0):
                raise ParseError(lineno, "cmd_grid must be strictly increasing with >= 2 entries")
            header_line = lineno
        else:
            row = _parse_floats(line, lineno)
            if len(row) != len(speed_grid):
                raise ParseError(
                    lineno, f"expected {len(speed_grid)} values per row, got {len(row)}"
                )
            if not np.all(np.isfinite(row)):
                raise ParseError(lineno, "non-finite acceleration value")
            rows.append(row)
            if len(rows) > len(cmd_grid):
                raise ParseError(lineno, f"more than {len(cmd_grid)} acceleration rows")
    if speed_grid is None or cmd_grid is None:
        raise ParseError(header_line + 1, "missing grid headers")
    if len(rows) != len(cmd_grid):
        raise ParseError(
            header_line + len(rows) + 1,
            f"expected {len(cmd_grid)} acceleration rows, got {len(rows)}",
        )
    return CalibrationTable(speed_grid, cmd_grid, np.vstack(rows))
