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

Both reads run once per control cycle on scalars, so they do their work on
plain Python floats, not in numpy calls: each table keeps list copies of
its two grids and of each speed column it has been read at,
``bisect_right`` finds the cell, and the cell values are list items.
``lookup_cmd`` inverts a column with the arithmetic of ``np.interp``, in
its order, so both reads return the very floats the numpy forms would; a
NaN query returns NaN.
"""

from __future__ import annotations

import io
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CalibrationTable",
    "MonotonicityViolation",
    "NonFiniteTable",
    "ParseError",
    "check_grid",
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


def check_grid(name: str, values) -> np.ndarray:
    """``values`` as a new float array, once it passes as the grid ``name``.

    Raises ValueError naming ``name`` unless the grid is 1-D with at least
    two entries, all finite and strictly increasing.
    """
    grid = np.array(values, dtype=float)
    if grid.ndim != 1 or len(grid) < 2:
        raise ValueError(f"{name} needs at least two entries")
    if not np.all(np.isfinite(grid)):
        raise ValueError(f"{name} must be finite")
    if np.any(np.diff(grid) <= 0):
        raise ValueError(f"{name} must be strictly increasing")
    return grid


def default_speed_grid(v_max: float) -> np.ndarray:
    """Speed axis [0, v_max] every 0.2 m/s."""
    n = int(round(v_max / 0.2))
    return np.round(np.arange(n + 1) * 0.2, 9)


def default_cmd_grid() -> np.ndarray:
    """Signed command axis [-100, 100] every 5 percent."""
    return np.arange(-20, 21) * 5.0


@dataclass(frozen=True)
class CalibrationTable:
    """Dense grid ``acc[i][j]`` = acceleration at ``cmd_grid[i]``, ``speed_grid[j]``.

    Grids must pass ``check_grid`` (finite, strictly increasing, at least
    two entries); the value matrix must match their shape and be finite
    everywhere.  Instances are immutable: construction copies all three
    arrays and makes the copies read-only, so neither a later write to the
    caller's arrays (or to the base of a view) nor the caller's own arrays'
    writability is affected.  The online updater publishes changes by
    building a whole new table, never by mutating one in place, so a reader
    always holds an internally consistent snapshot.

    Column monotonicity is *not* enforced at construction (a freshly updated
    table may be temporarily non-monotone; ``project_monotone`` restores it).
    ``invert`` refuses non-monotone tables.

    Beside the three fields, a table holds each grid as a list of Python
    floats, built once where the grids are validated, and a per-table cache
    of speed columns, each a list of Python floats made the first time a
    read touches that column (``_column``).  A successor built by
    ``_trusted`` shares its predecessor's grid lists but starts with an
    empty column cache, so publishing an update copies nothing and a read
    never sees its predecessor's values.  Two threads reading the same new
    column may both build it; they store equal lists, so whichever lands
    is correct.
    """

    speed_grid: np.ndarray
    cmd_grid: np.ndarray
    acc: np.ndarray

    def __post_init__(self):
        speed = check_grid("speed_grid", self.speed_grid)
        cmd = check_grid("cmd_grid", self.cmd_grid)
        acc = np.array(self.acc, dtype=float)
        if acc.shape != (len(cmd), len(speed)):
            raise ValueError(
                f"acc shape {acc.shape} does not match |cmd_grid| x |speed_grid| "
                f"= ({len(cmd)}, {len(speed)})"
            )
        if not np.all(np.isfinite(acc)):
            raise ValueError("table entries must all be finite")
        for name, arr in (("speed_grid", speed), ("cmd_grid", cmd), ("acc", acc)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "_speed", speed.tolist())
        object.__setattr__(self, "_cmd", cmd.tolist())
        object.__setattr__(self, "_cols", [None] * len(speed))

    @property
    def shape(self) -> tuple[int, int]:
        return self.acc.shape

    def is_monotone(self) -> bool:
        """True when every speed column is non-decreasing in command."""
        return bool(np.all(np.diff(self.acc, axis=0) >= 0.0))

    def _column(self, j: int) -> list[float]:
        """Speed column ``j`` as a list of floats, made on first use and then cached."""
        col = self._cols[j]
        if col is None:
            col = self._cols[j] = self.acc[:, j].tolist()
        return col

    @classmethod
    def _trusted(cls, like: "CalibrationTable", acc: np.ndarray) -> "CalibrationTable":
        # construction without validation or copies, for per-cycle update
        # paths whose ``acc`` is a fresh array over ``like``'s grids: the
        # grids and their lists are shared, the column cache starts empty
        obj = object.__new__(cls)
        acc.setflags(write=False)
        object.__setattr__(obj, "speed_grid", like.speed_grid)
        object.__setattr__(obj, "cmd_grid", like.cmd_grid)
        object.__setattr__(obj, "acc", acc)
        object.__setattr__(obj, "_speed", like._speed)
        object.__setattr__(obj, "_cmd", like._cmd)
        object.__setattr__(obj, "_cols", [None] * len(like._speed))
        return obj


def _grid_weights(grid: list[float], x: float) -> tuple[int, float]:
    """Clamp x into the grid and return (left index, fractional weight).

    ``grid`` is a table's list copy of one axis.  ``bisect_right`` on it is
    the index ``searchsorted(side="right")`` gives, NaN included: a NaN
    ``x`` lands past the end, so it reads the last cell with a NaN weight.
    """
    # a NaN fails both comparisons and stays NaN
    if x < grid[0]:
        x = grid[0]
    elif x > grid[-1]:
        x = grid[-1]
    i = bisect_right(grid, x) - 1
    if i == len(grid) - 1:
        i -= 1
    return i, (x - grid[i]) / (grid[i + 1] - grid[i])


def lookup_acc(table: CalibrationTable, cmd: float, v: float) -> float:
    """Bilinear interpolation of acceleration at (cmd, v).

    Queries outside the grid are clamped to its edge: commanding beyond the
    table never extrapolates the pedal map.  Exact at grid points.  A NaN
    ``cmd`` or ``v`` returns NaN.  The two speed columns are read from the
    table's column cache, the ones a ``lookup_cmd`` at the same speed reads.
    """
    ci, cw = _grid_weights(table._cmd, cmd)
    vi, vw = _grid_weights(table._speed, v)
    lo, hi = table._column(vi), table._column(vi + 1)
    return float(
        lo[ci] * (1.0 - cw) * (1.0 - vw)
        + lo[ci + 1] * cw * (1.0 - vw)
        + hi[ci] * (1.0 - cw) * vw
        + hi[ci + 1] * cw * vw
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
    falls = table.acc[1:] < table.acc[:-1]
    if falls.any():
        bad = int(np.flatnonzero(falls.any(axis=0))[0])
        raise MonotonicityViolation(
            f"speed column {bad} (v={table.speed_grid[bad]:g} m/s) is not "
            "monotone in command"
        )
    return table


def _column_cmd(col: list[float], cmd: list[float], x: float) -> float:
    """``np.interp(x, col, cmd)`` for a non-decreasing column ``col`` and a number ``x``.

    ``bisect_right`` over the column's list finds the last row at or below
    ``x``, the row ``np.interp``'s own search finds.  As there, a query
    below or above the column is clamped to its end, an exact hit returns
    that row's command (the upper end of a plateau), and between rows the
    command is ``(y1 - y0) / (x1 - x0) * (x - x0) + y0``, retried from the
    upper row when that is NaN (a span so wide its difference overflows).
    """
    i = bisect_right(col, x) - 1
    if i < 0:
        return cmd[0]
    if i == len(cmd) - 1:
        return cmd[i]
    x0 = col[i]
    if x0 == x:
        return cmd[i]
    x1 = col[i + 1]
    slope = (cmd[i + 1] - cmd[i]) / (x1 - x0)
    y = slope * (x - x0) + cmd[i]
    if y != y:
        y = slope * (x - x1) + cmd[i + 1]
    return y


def lookup_cmd(table: CalibrationTable, v: float, acc: float) -> float:
    """Command that the table says produces ``acc`` at speed ``v``.

    Each neighbouring speed column is inverted by piecewise-linear
    interpolation (clamped to the column's acceleration range), then the two
    per-column commands are blended linearly in speed.  The inversion is a
    bisection of the table's cached float columns with ``np.interp``'s
    arithmetic (``_column_cmd``), so it returns what ``np.interp`` on the
    two columns would.  A NaN ``acc`` or ``v`` returns NaN; a bisection
    alone would read NaN as beyond the column and command full throttle.
    ``table`` must have passed ``invert``.
    """
    if acc != acc:
        return float(acc)
    j, w = _grid_weights(table._speed, v)
    cmd = table._cmd
    lo = _column_cmd(table._column(j), cmd, acc)
    hi = _column_cmd(table._column(j + 1), cmd, acc)
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
