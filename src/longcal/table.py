"""Calibration table: the (command, speed) -> acceleration grid, read both ways.

The table stores, for every grid point, the steady longitudinal acceleration
a vehicle produces when a pedal command is held at a given speed.  Commands
live on a single signed axis: brake is [-100, 0), throttle is (0, 100], so
"more command" always means "more acceleration" and monotonicity is a single
constraint across the whole axis.

The controller-facing direction is the inverse: given a desired acceleration
at the current speed, pick the command.  ``lookup_cmd`` reads it straight
off the table's columns once ``invert`` has checked that they are finite and
monotone, and ``project_monotone`` repairs tables whose columns lost
monotonicity (for example after an additive online update): every violating
column at once, in one vectorised pool-adjacent-violators pass.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CalibrationTable",
    "MonotonicityViolation",
    "NonFiniteTable",
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


class NonFiniteTable(ValueError):
    """A table cell is NaN or infinite."""


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


def _grid_weights(grid: np.ndarray, x: float) -> tuple[int, float]:
    """Clamp x into the grid and return (left index, fractional weight)."""
    x = min(max(x, grid[0]), grid[-1])
    i = min(int(grid.searchsorted(x, side="right")) - 1, len(grid) - 2)
    return i, float((x - grid[i]) / (grid[i + 1] - grid[i]))


def lookup_acc(table: CalibrationTable, cmd: float, v: float) -> float:
    """Bilinear interpolation of acceleration at (cmd, v).

    Queries outside the grid are clamped to its edge: commanding beyond the
    table never extrapolates the pedal map.  Exact at grid points.
    """
    ci, cw = _grid_weights(table.cmd_grid, cmd)
    vi, vw = _grid_weights(table.speed_grid, v)
    a = table.acc
    return float(
        a[ci, vi] * (1.0 - cw) * (1.0 - vw)
        + a[ci + 1, vi] * cw * (1.0 - vw)
        + a[ci, vi + 1] * (1.0 - cw) * vw
        + a[ci + 1, vi + 1] * cw * vw
    )


def invert(table: CalibrationTable) -> CalibrationTable:
    """Check that ``lookup_cmd`` can read ``table`` and return the same table.

    Raises NonFiniteTable if any cell is NaN or infinite, and
    MonotonicityViolation if any speed column decreases anywhere; plateaus
    (equal neighbours) are allowed and invert to the upper command of the
    flat run.  Every table the controller reads passes here: the static
    table once, and every online table when it is published.
    """
    if not np.isfinite(table.acc).all():
        raise NonFiniteTable("table holds a NaN or infinite acceleration")
    diffs = np.diff(table.acc, axis=0)
    if np.any(diffs < 0.0):
        bad = int(np.argwhere(np.any(diffs < 0.0, axis=0))[0][0])
        raise MonotonicityViolation(
            f"speed column {bad} (v={table.speed_grid[bad]:g} m/s) is not "
            "monotone in command"
        )
    return table


def lookup_cmd(table: CalibrationTable, v: float, acc: float) -> float:
    """Command that the table says produces ``acc`` at speed ``v``.

    Each neighbouring speed column is inverted by piecewise-linear
    interpolation (clamped to the column's acceleration range), then the two
    per-column commands are blended linearly in speed.  ``table`` must have
    passed ``invert``.
    """
    j, w = _grid_weights(table.speed_grid, v)
    lo = np.interp(acc, table.acc[:, j], table.cmd_grid)
    hi = np.interp(acc, table.acc[:, j + 1], table.cmd_grid)
    return float((1.0 - w) * lo + w * hi)


def _monotone_columns(acc: np.ndarray) -> np.ndarray:
    """Repair, in place, every column of ``acc`` that decreases somewhere.

    Each such column becomes its unit-weight L2 isotonic regression; the
    columns that are already non-decreasing are not touched.  All violating
    columns are repaired together by one pool-adjacent-violators pass: laid
    end to end, each column starts as blocks of its ascending steps (every
    strictly descending run pooled from the start), and each round merges
    every block whose left neighbour in the same column has a larger mean,
    until none does.  Merging any adjacent violators, in any order, ends at
    the same unique regression.  The one monotone repair behind
    ``project_monotone`` and the online update.
    """
    d = acc[1:] - acc[:-1]
    bad = np.flatnonzero((d < 0.0).any(axis=0))
    if bad.size == 0:
        return acc
    n = acc.shape[0]
    vals = acc.T[bad].ravel()
    start = np.ones((bad.size, n), dtype=bool)
    start[:, 1:] = d.T[bad] >= 0.0
    # block edges over the columns laid end to end, closed by a sentinel
    edges = np.append(np.flatnonzero(start), vals.size)
    while True:
        counts = edges[1:] - edges[:-1]
        mean = np.add.reduceat(vals, edges[:-1]) / counts
        # a column's head block never merges into the column before it
        merge = (mean[:-1] > mean[1:]) & (edges[1:-1] % n != 0)
        if not merge.any():
            break
        edges = edges[np.concatenate(([True], ~merge, [True]))]
    acc.T[bad] = np.repeat(mean, counts).reshape(bad.size, n)
    return acc


def project_monotone(table: CalibrationTable) -> CalibrationTable:
    """Replace each speed column by its nearest non-decreasing sequence.

    The projection is the unit-weight isotonic regression of each column
    that violates, all of them computed in one batched pass; the other
    columns keep their values bit for bit, an already-monotone table comes
    back unchanged (same object), and the result is always a valid input
    to ``invert``.
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
