"""Per-cycle calibration table adaptation from closed-loop feedback.

Each admitted feedback event compares the acceleration the table promised
for a past command with what the vehicle actually did.  Every grid cell
then steps toward the measurement, scaled down by a cost that grows with
the cell's distance from the feedback point and with how far the pristine
initial table already sits from the measurement.  Cells inside a small
window around the feedback point update at full strength.

The law has one setting, the learning ratio ``OnlineConfig.sigma``, because
the measurements that judge the loop's stability sweep it.  The rest of the
law is fixed by the module constants below, the one value every caller used
for each: ``XI`` regularises the distance cost, ``DELTA_CMD`` and
``DELTA_V`` are the half-widths of the full-strength window (one grid step
each on the default grids), and ``GAMMA_V`` is the speed error within which
a cycle counts as converged and runs no update.

Feedback arrives already gated by ``OnlinePreprocessor.push``, which runs
the one command-consistency gate.  The columns a step leaves decreasing
are repaired together, by one batched isotonic pass in ``table``, and a
non-finite gain is refused before the step; the result passes
``invert`` and the plausibility bound ``ACC_MEAS_LIMIT`` and is published
by atomic whole-table replacement: a reader always sees either the old or
the new table, never a mixture.

``OnlineCalibrator.step`` returns each update it publishes as an
``OnlineUpdate``, the one record of the feedback and gain it applied.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from time import perf_counter
from typing import NamedTuple

import numpy as np

from .preprocess import ACC_MEAS_LIMIT, OnlineFeedback
from .table import CalibrationTable, NonFiniteTable, _monotone_columns, check_number, invert

__all__ = [
    "ImplausibleTable",
    "OnlineConfig",
    "OnlineCalibrator",
    "OnlineUpdate",
    "update_table",
    "publish",
]


class ImplausibleTable(ValueError):
    """A table to publish promises an acceleration beyond ``ACC_MEAS_LIMIT``."""


XI = 1e-8  # added to every out-of-window distance cost
DELTA_CMD = 5.0  # % of command: half-width of the full-strength window
DELTA_V = 0.2  # m/s: half-width of the full-strength window
GAMMA_V = 0.05  # m/s: speed error at or below which a cycle runs no update


@dataclass(frozen=True)
class OnlineConfig:
    """The update law's one setting, checked at construction.

    sigma   learning ratio in (0, 1]: cap on the per-cycle step as a
            fraction of the observed error

    ``sigma`` must be a finite number, not a bool.  It stays settable
    because the loop's stability is judged by sweeping it (from 0.2 up,
    some runs diverge).  Every other value had one value in use and is a
    constant: the cost shape, window and convergence gate here (``XI``,
    ``DELTA_CMD``, ``DELTA_V``, ``GAMMA_V``), the run's divergence guard
    (``simulator.DIVERGE_LIMIT``) and the gates before the law
    (``preprocess``'s ``STEER_LIMIT`` and ``CMD_GAP``).
    """

    sigma: float = 0.05

    def __post_init__(self):
        check_number("sigma", self.sigma, 0.0, above=True, high=1.0)


def _span(grid: list[float], x: float, half: float) -> slice:
    """The indices ``i`` with ``abs(x - grid[i]) <= half``, for an increasing ``grid``.

    ``abs(x - g)`` falls (weakly) up to the first grid value at or above
    ``x`` and rises (weakly) from there, float rounding included, so those
    indices are one contiguous run: walk out from that first value.
    """
    lo = hi = bisect_left(grid, x)
    while lo > 0 and abs(x - grid[lo - 1]) <= half:
        lo -= 1
    while hi < len(grid) and abs(x - grid[hi]) <= half:
        hi += 1
    return slice(lo, hi)


def _window(table: CalibrationTable, feedback: OnlineFeedback) -> tuple[slice, slice]:
    """(rows, columns) of the full-strength window around the feedback point.

    A cell is inside when ``|cmd_ref - cmd_grid[i]|`` is within
    ``DELTA_CMD`` and ``|v_ref - speed_grid[j]|`` within ``DELTA_V``: these
    are the cells ``_cost_matrix`` gives zero cost.
    """
    return (
        _span(table._cmd, feedback.cmd_ref, DELTA_CMD),
        _span(table._speed, feedback.v_ref, DELTA_V),
    )


def _cost_matrix(
    init_table: CalibrationTable,
    feedback: OnlineFeedback,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """Damping cost of every cell: distance decay times similarity.

    The offsets ``d_cmd`` and ``d_v`` run from each grid point to the
    feedback point ``(cmd_ref, v_ref)``.  Inside the window (``_window``:
    ``|d_cmd|`` within ``DELTA_CMD`` and ``|d_v|`` within ``DELTA_V``) the
    distance term collapses to zero, so the cell takes the full step
    regardless of similarity.  Far cells pay the distance cost
    ``d_cmd**2 + d_v**2 + XI``, scaled by the similarity
    ``exp(-|init acc - acc_k|)``: the closer the initial table already
    matches the measured acceleration, the more a far cell resists change.
    The window requires both offsets small; widening it to either offset
    lets every feedback drag whole rows and columns of unrelated cells at
    full strength, which destabilises the loop.

    The similarity depends on ``acc_k``, so no part of the matrix but the
    grid offsets carries over between updates.  The cost is written into
    ``out`` and the similarity into ``work``, two arrays of the table's
    shape, when given (``update_table`` passes the calibrator's own), and
    into new arrays otherwise; ``out`` is returned.
    """
    shape = init_table.acc.shape
    out = np.empty(shape) if out is None else out
    work = np.empty(shape) if work is None else work
    d_cmd = feedback.cmd_ref - init_table.cmd_grid
    d_v = feedback.v_ref - init_table.speed_grid
    np.add((d_cmd * d_cmd)[:, None], d_v * d_v, out=out)
    out += XI
    out[_window(init_table, feedback)] = 0.0
    np.subtract(init_table.acc, feedback.acc_k, out=work)
    np.abs(work, out=work)
    np.negative(work, out=work)
    np.exp(work, out=work)
    out *= work
    return out


def update_table(state: OnlineCalibrator, feedback: OnlineFeedback, cfg: OnlineConfig) -> CalibrationTable:
    """Build the successor table for one feedback event.

    Every cell moves toward the measured acceleration by
    ``sigma * gain / (1 + cost)``, so no cell ever moves further than
    ``sigma`` times the observed error, and zero-cost cells move exactly
    that far.  The columns the step left decreasing are re-projected
    together, by the same batched isotonic repair as ``project_monotone``;
    the old table is left untouched.  A gain that is not finite (finite
    but huge feedback overflows it) raises NonFiniteTable before any array
    work, the same refusal ``publish`` would make of the result.

    The gain is expected minus measured acceleration.  It is positive when
    the vehicle delivered less than the table promised (a sluggish plant,
    for example under extra load), so the affected cells come down toward
    the measurement.
    """
    gain = feedback.acc_ref - feedback.acc_k
    if not math.isfinite(gain):
        raise NonFiniteTable(f"feedback gain {gain!r} is not finite")
    old = state.table
    if gain == 0.0:
        return old
    # the step is formed in the calibrator's cost buffer, in place
    step = _cost_matrix(state.init_table, feedback, state._cost, state._work)
    step += 1.0
    np.divide(cfg.sigma * gain, step, out=step)
    acc = _monotone_columns(np.subtract(old.acc, step))
    return CalibrationTable._trusted(old, acc)


def publish(state: OnlineCalibrator, new_table: CalibrationTable) -> None:
    """Check ``new_table`` and make it the controller-visible table, atomically.

    The table must pass ``invert`` (finite and monotone) and promise no
    acceleration beyond ``ACC_MEAS_LIMIT`` in magnitude, the bound ``push``
    puts on a measurement; a runaway table raises ImplausibleTable.  The
    (table, revision) pair is swapped in one reference assignment;
    concurrent readers observe either the previous pair or this one, and
    revisions increase strictly.  A refused table raises before the swap,
    so the previous pair stays published.
    """
    acc = invert(new_table).acc
    # monotone columns: every column's extremes lie in the first and last rows
    low, high = float(acc[0].min()), float(acc[-1].max())
    if low < -ACC_MEAS_LIMIT or high > ACC_MEAS_LIMIT:
        raise ImplausibleTable(
            f"table promises {low if low < -ACC_MEAS_LIMIT else high!r} m/s^2, "
            f"beyond {ACC_MEAS_LIMIT:g}"
        )
    state._published = (new_table, state.revision + 1)


class OnlineUpdate(NamedTuple):
    """One update ``OnlineCalibrator.step`` published, and the feedback it applied.

    ``cmd_ref``, ``v_ref``, ``acc_ref`` and ``acc_k`` are the fields of the
    feedback ``step`` passed to ``update_table``; ``seconds`` is the wall
    time of ``update_table`` plus ``publish``.
    """

    cycle: int  # the calibrator's cycle count at the update, from 1
    cmd_ref: float
    v_ref: float
    acc_ref: float
    acc_k: float
    gain: float  # acc_ref - acc_k, the error the cells stepped toward
    updated_cells: int  # cells in the full-strength window (_window): the ones _cost_matrix gives zero cost
    revision: int  # the revision publish gave the new table
    seconds: float


class OnlineCalibrator:
    """Session state and driver: one ``step`` per control cycle.

    ``init_table`` passes ``invert`` and is then frozen for the session:
    every similarity cost refers to it.  Only the published (table,
    revision) pair advances.  Skipped cycles (converged speed, or no
    admissible feedback) still count toward ``cycle``; nothing decays
    between updates.  Readers may take snapshots from any thread, but
    updates run on one: each forms its step in the calibrator's two cost
    buffers.
    """

    def __init__(self, init_table: CalibrationTable, cfg: OnlineConfig | None = None):
        self.cfg = cfg or OnlineConfig()
        self.init_table = invert(init_table)
        self.cycle = 0
        # the cost matrix and its similarity factor, rewritten by every update
        self._cost = np.empty(self.init_table.shape)
        self._work = np.empty(self.init_table.shape)
        self._published = (self.init_table, 0)

    @property
    def table(self) -> CalibrationTable:
        return self._published[0]

    @property
    def revision(self) -> int:
        return self._published[1]

    def snapshot(self) -> tuple[CalibrationTable, int]:
        """One consistent (table, revision) pair."""
        return self._published

    def step(self, v_expected: float, v_actual: float, feedback: OnlineFeedback | None) -> OnlineUpdate | None:
        """Run one cycle; returns the ``OnlineUpdate`` it published, or None if it published nothing."""
        self.cycle += 1
        # converged: expected and actual speed agree within GAMMA_V
        if abs(v_expected - v_actual) <= GAMMA_V or feedback is None:
            return None
        t0 = perf_counter()
        new_table = update_table(self, feedback, self.cfg)
        if new_table is self.table:
            return None
        publish(self, new_table)
        seconds = perf_counter() - t0
        rows, cols = _window(self.init_table, feedback)
        cells = (rows.stop - rows.start) * (cols.stop - cols.start)
        return OnlineUpdate(
            self.cycle, feedback.cmd_ref, feedback.v_ref, feedback.acc_ref, feedback.acc_k,
            feedback.acc_ref - feedback.acc_k, cells, self.revision, seconds,
        )
