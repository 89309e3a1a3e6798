"""The benchmark's workloads: their inputs, one timed round, and the checks on its outputs.

longcal is reached through module attributes (``offline.train_mlp``, not a
name imported from it), so the tracer's wrappers see every call.

offline-ax1  ax1 at zero load.  Set-up: the 1200 s scripted drive log.  A
             round: offline_pipeline, train_mlp for throttle and for brake,
             build_table, then serial 10-fold cross_validate.  An operation
             is one model fit: 2 for the table and 20 for the folds.
static-mkz   mkz with +600 kg tracks a 300 s trapezoid profile with the
             frozen offline table of the unloaded mkz, which set-up builds
             from its own 1200 s log.  An operation is one control cycle.
             Its tracking errors must match a run whose table reads are the
             benchmark's own.
online-mkz   the same inputs with online adaptation on.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import checks
from longcal import offline, preprocess, simulator

LOAD_MKZ = 600.0  # kg added to the mkz in the closed loop
LOG_S = 1200.0  # scripted drive log: the paper's twenty minutes
READ_RTOL = 1e-6  # static-mkz tracking errors against the run with reference table reads


@dataclass(frozen=True)
class Size:
    profile_s: float = 300.0  # closed-loop trapezoid profile
    folds: int = 10  # cross-validation folds on offline-ax1
    setups: int = 3  # set-ups per run; setup_s and the closed-loop table_s are their median


FULL = Size()
SMALL = Size(profile_s=120.0, folds=3, setups=1)


@dataclass
class Round:
    ops: int
    failed: int
    wall_s: float
    table_s: float | None = None
    cv_s: float | None = None


def build_offline_table(log, config):
    """Log to monotone table: offline_pipeline, train_mlp per sign, build_table.

    The program's own seeds (down-sampling, network initialisation, folds)
    keep their defaults, with the brake net on seed 1 as cross_validate
    does: the benchmark's seed makes the inputs, not the method's settings.
    """
    cmd_grid, speed_grid = config.table_grids()
    bins = preprocess.offline_pipeline(log, cmd_grid, speed_grid)
    throttle, brake = offline.split_by_sign(bins.to_samples())
    t_model = offline.train_mlp(throttle, offline.MlpHyper(seed=0))
    b_model = offline.train_mlp(brake, offline.MlpHyper(seed=1))
    return offline.build_table(t_model, b_model, speed_grid, cmd_grid), bins


class OfflineAx1:
    def __init__(self, seed: int, size: Size):
        self.seed, self.size = seed, size
        self.config = simulator.ax1(load=0.0)
        self.failures: list[str] = []
        self.out = None

    def build(self) -> float | None:
        """One set-up; returns the seconds spent building a table (none here)."""
        self.log = simulator.generate_drive_log(self.config, LOG_S, seed=self.seed)
        return None

    def run_round(self) -> Round:
        t0 = perf_counter()
        table, bins = build_offline_table(self.log, self.config)
        t1 = perf_counter()
        samples = bins.to_samples()
        cv = offline.cross_validate(samples, folds=self.size.folds, kind="nn", workers=1)
        t2 = perf_counter()
        if self.out is not None and not (
            np.array_equal(self.out[0].acc, table.acc)
            and np.array_equal(self.out[2].fold_mae, cv.fold_mae)
        ):
            self.failures.append("two rounds on the same inputs gave different tables or folds")
        self.out = (table, bins, cv)
        return Round(ops=2 + 2 * self.size.folds, failed=0, wall_s=t2 - t0, table_s=t1 - t0, cv_s=t2 - t1)

    def evaluate(self) -> tuple[dict, list[str]]:
        table, bins, cv = self.out
        visited = bins.counts() > 0
        cmd_grid, speed_grid = self.config.table_grids()
        mae = checks.table_mae(table.acc, checks.truth("ax1", 0.0, cmd_grid, speed_grid), visited)
        figures = {
            "acc_mae": (cv.mae, "m/s2"),
            "table_mae": (mae, "m/s2"),
            "cv_mae": (cv.mae, "m/s2"),
            "visited_cells": (int(visited.sum()), "count"),
            "cells": (int(visited.size), "count"),
        }
        return figures, self.failures + checks.check_offline(table.acc, mae, cv.mae)


class ClosedLoopMkz:
    def __init__(self, seed: int, size: Size, online: bool):
        self.seed, self.size, self.online = seed, size, online
        self.base = simulator.mkz(load=0.0)
        self.loaded = simulator.mkz(load=LOAD_MKZ)
        self.profile = simulator.trapezoid_profile(self.loaded.v_max, size.profile_s)
        self.cycles = int(round(self.profile.duration * self.loaded.sample_rate))
        self.failures: list[str] = []
        self.table = None
        self.result = None

    def build(self) -> float:
        """One set-up: the unloaded mkz's log and offline table; returns the table's seconds."""
        log = simulator.generate_drive_log(self.base, LOG_S, seed=self.seed)
        t0 = perf_counter()
        table, _ = build_offline_table(log, self.base)
        table_s = perf_counter() - t0
        if self.table is not None and not np.array_equal(self.table.acc, table.acc):
            self.failures.append("two set-ups on the same seed gave different tables")
        self.table = table
        return table_s

    def _run(self, online: bool):
        return simulator.run_closed_loop(
            self.loaded, self.table, self.profile, online=online, seed=self.seed
        )

    def _reference_run(self):
        """The static run again, with the table reads done by ``checks.ReferenceReads``."""
        ref = checks.ReferenceReads(self.table)
        saved = simulator.invert, simulator.lookup_cmd, simulator.lookup_acc
        simulator.invert, simulator.lookup_cmd, simulator.lookup_acc = (
            ref.invert, ref.lookup_cmd, ref.lookup_acc
        )
        try:
            return self._run(False).metrics, ref.reads
        finally:
            simulator.invert, simulator.lookup_cmd, simulator.lookup_acc = saved

    def run_round(self) -> Round:
        t0 = perf_counter()
        try:
            result, failed = self._run(self.online), 0
        except simulator.Diverged as exc:
            self.failures.append(f"Diverged: {exc}")
            match = re.search(r"t=([0-9.]+)s", str(exc))
            done = int(round(float(match.group(1)) * self.loaded.sample_rate)) if match else 0
            result, failed = None, self.cycles - done
        wall = perf_counter() - t0
        if result is not None:
            if self.result is not None and not np.array_equal(self.result.trace.v, result.trace.v):
                self.failures.append("two rounds on the same inputs gave different traces")
            self.result = result
        return Round(ops=self.cycles, failed=failed, wall_s=wall)

    def evaluate(self) -> tuple[dict, list[str]]:
        fails = list(self.failures)
        res = self.result
        if res is None:
            return {}, fails
        fails += checks.check_trace(res.trace, 1.0 / self.loaded.sample_rate)
        cmd_grid, speed_grid = self.base.table_grids()
        truth = checks.truth("mkz", LOAD_MKZ, cmd_grid, speed_grid)
        visited = res.visited_cells
        if not visited.any():
            return {}, fails + ["no feedback was admitted: no visited cells"]
        mae = checks.table_mae(res.table.acc, truth, visited)
        figures = {
            "acc_mae": (mae, "m/s2"),
            "speed_mae": (res.metrics.speed_mae, "m/s"),
            "station_mae": (res.metrics.station_mae, "m"),
            "table_mae": (mae, "m/s2"),
            "visited_cells": (int(visited.sum()), "count"),
        }
        if not self.online:
            # the frozen table's acc_mae cannot see the read path; the tracking errors can
            ref, reads = self._reference_run()
            if reads != 2 * self.cycles:
                fails.append(f"the reference run made {reads} table reads, not two per cycle")
            for what in ("speed_mae", "station_mae"):
                got, want = getattr(res.metrics, what), getattr(ref, what)
                figures[f"reference_{what}"] = (want, figures[what][1])
                if not abs(got - want) <= READ_RTOL * abs(want):
                    fails.append(f"{what} {got:.9g} differs from {want:.9g} with reference table reads")
            return figures, fails
        lat = np.asarray(res.update_seconds)
        init_mae = checks.table_mae(self.table.acc, truth, visited)
        figures.update(
            {
                "updates": (len(lat), "count"),
                "update_p50_ms": (float(np.percentile(lat, 50) * 1e3) if len(lat) else 0.0, "ms"),
                "update_p99_ms": (float(np.percentile(lat, 99) * 1e3) if len(lat) else 0.0, "ms"),
                "table_mae_initial": (init_mae, "m/s2"),
            }
        )
        fails += checks.check_monotone_finite(res.table.acc, "final online table")
        revisions = [e.revision for e in res.events]
        if revisions != list(range(1, len(lat) + 1)):
            fails.append(
                f"{len(lat)} update latencies but revisions {revisions[:3]}...{revisions[-3:]}"
            )
        if not mae < init_mae:
            fails.append(f"final table_mae {mae:.4f} not below the initial {init_mae:.4f}")
        static = self._run(False).metrics
        figures["static_speed_mae"] = (static.speed_mae, "m/s")
        figures["static_station_mae"] = (static.station_mae, "m")
        for what in ("speed_mae", "station_mae"):
            online_v, static_v = getattr(res.metrics, what), getattr(static, what)
            if not online_v < static_v:
                fails.append(f"online {what} {online_v:.4f} not below static {static_v:.4f}")
        return figures, fails


def make(name: str, seed: int, size: Size):
    if name == "offline-ax1":
        return OfflineAx1(seed, size)
    if name in ("static-mkz", "online-mkz"):
        return ClosedLoopMkz(seed, size, online=name == "online-mkz")
    raise ValueError(f"unknown workload {name!r}")
