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
``invert`` and is published by atomic whole-table replacement: a reader
always sees either the old or the new table, never a mixture.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .preprocess import OnlineFeedback
from .table import CalibrationTable, NonFiniteTable, _monotone_columns, invert

__all__ = [
    "OnlineConfig",
    "OnlineCalibrator",
    "converge_check",
    "compute_gain",
    "cell_cost",
    "update_table",
    "publish",
]


@dataclass(frozen=True)
class OnlineConfig:
    """Knobs of the per-cell update law.

    alpha, beta        distance decay weights for command and speed offsets
    m_cmd, m_v         even exponents of those offsets
    xi                 small regulariser added to every out-of-window distance
    epsilon, iota      similarity scale and its exponential decay rate
    sigma              learning ratio in (0, 1]: cap on the per-cycle step
                       as a fraction of the observed error
    delta_cmd, delta_v half-widths of the full-strength update window
    delta_cmd_gap      command perturbation admitted by the history gate
    gamma_v            speed-error threshold below which no update runs
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
    delta_cmd_gap: float = 10.0
    gamma_v: float = 0.05

    def __post_init__(self):
        for name in (
            "alpha", "beta", "xi", "epsilon", "iota", "sigma",
            "delta_cmd", "delta_v", "delta_cmd_gap", "gamma_v",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.sigma > 1.0:
            raise ValueError("sigma must lie in (0, 1]")
        for name in ("m_cmd", "m_v"):
            m = getattr(self, name)
            if m < 2 or m % 2 != 0:
                raise ValueError(f"{name} must be an even integer >= 2")


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


def cell_cost(
    init_table: CalibrationTable, i: int, j: int, feedback: OnlineFeedback, cfg: OnlineConfig
) -> float:
    """Damping cost of cell (i, j): distance decay times similarity.

    Inside the window (command offset within delta_cmd and speed offset
    within delta_v) the distance term collapses to zero, so the cell takes
    the full step regardless of similarity.  Far cells pay a polynomial
    distance cost scaled by how closely the initial table already matches
    the measured acceleration: agreement with the pristine table resists
    change.  The window requires both offsets small; widening it to either
    offset lets every feedback drag whole rows and columns of unrelated
    cells at full strength, which destabilises the loop.
    """
    d_cmd = feedback.cmd_ref - float(init_table.cmd_grid[i])
    d_v = feedback.v_ref - float(init_table.speed_grid[j])
    if abs(d_cmd) <= cfg.delta_cmd and abs(d_v) <= cfg.delta_v:
        distance = 0.0
    else:
        distance = cfg.alpha * d_cmd**cfg.m_cmd + cfg.beta * d_v**cfg.m_v + cfg.xi
    similarity = cfg.epsilon * math.exp(
        -cfg.iota * abs(float(init_table.acc[i, j]) - feedback.acc_k)
    )
    return distance * similarity


def _cost_matrix(
    init_table: CalibrationTable, feedback: OnlineFeedback, cfg: OnlineConfig
) -> np.ndarray:
    """Vectorised ``cell_cost`` over the whole grid."""
    d_cmd = feedback.cmd_ref - init_table.cmd_grid
    d_v = feedback.v_ref - init_table.speed_grid
    in_window = (np.abs(d_cmd)[:, None] <= cfg.delta_cmd) & (np.abs(d_v)[None, :] <= cfg.delta_v)
    distance = (
        cfg.alpha * d_cmd[:, None] ** cfg.m_cmd
        + cfg.beta * d_v[None, :] ** cfg.m_v
        + cfg.xi
    )
    distance[in_window] = 0.0
    similarity = cfg.epsilon * np.exp(-cfg.iota * np.abs(init_table.acc - feedback.acc_k))
    return distance * similarity


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
    step = (cfg.sigma * gain) / (1.0 + _cost_matrix(state.init_table, feedback, cfg))
    acc = _monotone_columns(old.acc - step)
    return CalibrationTable._trusted(old, acc)


def publish(state: OnlineCalibrator, new_table: CalibrationTable) -> None:
    """Check ``new_table`` with ``invert`` and make it the controller-visible table, atomically.

    The (table, revision) pair is swapped in one reference assignment;
    concurrent readers observe either the previous pair or this one, and
    revisions increase strictly.  A table that ``invert`` refuses raises
    before the swap, so the previous pair stays published.
    """
    state._published = (invert(new_table), state.revision + 1)


class OnlineCalibrator:
    """Session state and driver: one ``step`` per control cycle.

    ``init_table`` passes ``invert`` and is then frozen for the session:
    every similarity cost refers to it.  Only the published (table,
    revision) pair advances.  Skipped cycles (converged speed, or no
    admissible feedback) still count toward ``cycle``; nothing decays
    between updates.
    """

    def __init__(self, init_table: CalibrationTable, cfg: OnlineConfig | None = None):
        self.cfg = cfg or OnlineConfig()
        self.init_table = invert(init_table)
        self.cycle = 0
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
