"""Per-cycle calibration table adaptation from closed-loop feedback.

Each admitted feedback event compares the acceleration the table promised
for a past command with what the vehicle actually did.  Every grid cell
then steps toward the measurement, scaled down by a cost that grows with
the cell's distance from the feedback point and with how far the pristine
initial table already sits from the measurement.  Cells inside a small
window around the feedback point update at full strength.

Feedback arrives already gated by ``OnlinePreprocessor.push``, which runs
the one command-consistency gate.  The columns a step leaves decreasing
are repaired together, by one batched isotonic pass in ``table``, and a
non-finite gain is refused before the step; the result passes
``invert`` and the plausibility bound ``ACC_MEAS_LIMIT`` and is published
by atomic whole-table replacement: a reader always sees either the old or
the new table, never a mixture.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .preprocess import ACC_MEAS_LIMIT, OnlineFeedback, _is_integer
from .table import CalibrationTable, NonFiniteTable, _monotone_columns, invert

__all__ = [
    "ImplausibleTable",
    "OnlineConfig",
    "OnlineCalibrator",
    "converge_check",
    "compute_gain",
    "update_table",
    "publish",
]


class ImplausibleTable(ValueError):
    """A table to publish promises an acceleration beyond ``ACC_MEAS_LIMIT``."""


@dataclass(frozen=True)
class OnlineConfig:
    """Knobs of the per-cell update law, checked at construction.

    alpha, beta        distance decay weights for command and speed offsets
    m_cmd, m_v         even integer exponents (>= 2) of those offsets
    xi                 small regulariser added to every out-of-window distance
    epsilon, iota      similarity scale and its exponential decay rate
    sigma              learning ratio in (0, 1]: cap on the per-cycle step
                       as a fraction of the observed error
    delta_cmd, delta_v half-widths of the full-strength update window
    gamma_v            speed-error threshold below which no update runs

    Every float must be finite and positive, and no value a bool.  The gates
    before the law use ``preprocess``'s ``STEER_LIMIT`` and ``CMD_GAP``.
    """

    alpha: float = 1.0
    beta: float = 1.0
    m_cmd: int = 2
    m_v: int = 2
    xi: float = 1e-8
    epsilon: float = 1.0
    iota: float = 1.0
    sigma: float = 0.05
    delta_cmd: float = 5.0
    delta_v: float = 0.2
    gamma_v: float = 0.05

    def __post_init__(self):
        for name in (
            "alpha", "beta", "xi", "epsilon", "iota", "sigma", "delta_cmd", "delta_v", "gamma_v",
        ):
            value = getattr(self, name)
            if isinstance(value, bool) or not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if self.sigma > 1.0:
            raise ValueError("sigma must lie in (0, 1]")
        for name in ("m_cmd", "m_v"):
            m = getattr(self, name)
            if not (_is_integer(m) and m >= 2 and m % 2 == 0):
                raise ValueError(f"{name} must be an even integer >= 2, got {m!r}")


def converge_check(v_ref: float, v_actual: float, gamma_v: float) -> bool:
    """True when expected and actual speed agree within gamma_v: skip the cycle."""
    return abs(v_ref - v_actual) <= gamma_v


def compute_gain(acc_ref: float, acc_k: float) -> float:
    """Expected minus measured acceleration: the raw error driving the update.

    Positive gain means the table promised more than the vehicle delivered
    (a sluggish plant, for example under extra load), so the affected cells
    must come down toward the measurement.
    """
    return acc_ref - acc_k


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


def _window(table: CalibrationTable, feedback: OnlineFeedback, cfg: OnlineConfig) -> tuple[slice, slice]:
    """(rows, columns) of the full-strength window around the feedback point.

    A cell is inside when ``|cmd_ref - cmd_grid[i]|`` is within delta_cmd
    and ``|v_ref - speed_grid[j]|`` within delta_v: these are the cells
    ``_cost_matrix`` gives zero cost.
    """
    return (
        _span(table._cmd, feedback.cmd_ref, cfg.delta_cmd),
        _span(table._speed, feedback.v_ref, cfg.delta_v),
    )


def _cost_matrix(
    init_table: CalibrationTable,
    feedback: OnlineFeedback,
    cfg: OnlineConfig,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """Damping cost of every cell: distance decay times similarity.

    The offsets ``d_cmd`` and ``d_v`` run from each grid point to the
    feedback point ``(cmd_ref, v_ref)``.  Inside the window (``_window``:
    ``|d_cmd|`` within delta_cmd and ``|d_v|`` within delta_v) the distance
    term collapses to zero, so the cell takes the full step regardless of
    similarity.  Far cells pay a polynomial distance cost,
    ``alpha * d_cmd**m_cmd + beta * d_v**m_v + xi``, scaled by the
    similarity ``epsilon * exp(-iota * |init acc - acc_k|)``: the closer the
    initial table already matches the measured acceleration, the more a far
    cell resists change.  The window requires both offsets small; widening
    it to either offset lets every feedback drag whole rows and columns of
    unrelated cells at full strength, which destabilises the loop.

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
    np.add((cfg.alpha * d_cmd**cfg.m_cmd)[:, None], cfg.beta * d_v**cfg.m_v, out=out)
    out += cfg.xi
    out[_window(init_table, feedback, cfg)] = 0.0
    np.subtract(init_table.acc, feedback.acc_k, out=work)
    np.abs(work, out=work)
    work *= -cfg.iota
    np.exp(work, out=work)
    work *= cfg.epsilon
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
    """
    gain = compute_gain(feedback.acc_ref, feedback.acc_k)
    if not math.isfinite(gain):
        raise NonFiniteTable(f"feedback gain {gain!r} is not finite")
    old = state.table
    if gain == 0.0:
        return old
    # the step is formed in the calibrator's cost buffer, in place
    step = _cost_matrix(state.init_table, feedback, cfg, state._cost, state._work)
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

    def step(self, v_expected: float, v_actual: float, feedback: OnlineFeedback | None) -> bool:
        """Run one cycle; returns True when a new table was published."""
        self.cycle += 1
        if converge_check(v_expected, v_actual, self.cfg.gamma_v):
            return False
        if feedback is None:
            return False
        new_table = update_table(self, feedback, self.cfg)
        if new_table is self.table:
            return False
        publish(self, new_table)
        return True
