"""Fast self-check of the benchmark: small runs complete, and every check rejects a wrong answer.

    python3 bench/selfcheck.py

Runs each workload at the small size, untraced and traced, and feeds the
checks deliberately wrong outputs: a table shifted by 0.1 m/s^2, a column
made decreasing, a station trace off by one step, an update that moves a
cell too far, a table that makes the loop diverge.  Exits 0 when all of it
behaves, 1 otherwise.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from longcal import simulator  # noqa: E402
from longcal.table import CalibrationTable, invert, lookup_acc, lookup_cmd  # noqa: E402

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def small_runs() -> None:
    for name in run.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed", "1",
                   "--seconds", "0", "--trace", str(trace), "--size", "small"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            wanted = [m for m, _ in (tracing.LAYER_METRICS if trace else run.END_TO_END)]
            expect(
                proc.returncode == 0
                and result.get("correct") is True
                and result.get("failed") == 0
                and result.get("attempted", 0) >= 1
                and list(result.get("metrics", {})) == wanted,
                f"{name} completes at the small size with --trace {trace}",
            )
            if proc.returncode != 0:
                print(proc.stdout[-2000:], proc.stderr[-2000:], sep="\n")


def wrong_tables() -> None:
    config = simulator.ax1(load=0.0)
    cmd_grid, speed_grid = config.table_grids()
    truth = checks.truth("ax1", 0.0, cmd_grid, speed_grid)
    visited = np.ones(truth.shape, dtype=bool)
    good_cv = checks.NOISE_FLOOR
    expect(not checks.check_offline(truth, 0.0, good_cv), "the analytic truth passes the offline checks")
    shifted = truth + 0.1
    mae = checks.table_mae(shifted, truth, visited)
    expect(bool(checks.check_offline(shifted, mae, good_cv)), "a table shifted by 0.1 m/s^2 fails")
    decreasing = truth.copy()
    decreasing[[10, 30], 5] = decreasing[[30, 10], 5]
    expect(bool(checks.check_monotone_finite(decreasing, "table")), "a column made decreasing fails")
    broken = truth.copy()
    broken[3, 3] = np.nan
    expect(bool(checks.check_monotone_finite(broken, "table")), "a non-finite cell fails")
    expect(bool(checks.check_offline(truth, 0.0, 2.0 * good_cv)), "cv_mae at twice the noise floor fails")
    # the simulator's own oracle agrees with the truth built from the constants
    expect(np.allclose(config.true_table().acc, truth, rtol=0, atol=1e-12), "truth matches true_table()")


def wrong_traces() -> None:
    loaded = simulator.mkz(load=600.0)
    cmd_grid, speed_grid = loaded.table_grids()
    table = CalibrationTable(speed_grid, cmd_grid, checks.truth("mkz", 600.0, cmd_grid, speed_grid))
    profile = simulator.trapezoid_profile(loaded.v_max, 30.0)
    trace = simulator.run_closed_loop(loaded, table, profile, seed=1).trace
    dt = 1.0 / loaded.sample_rate
    expect(not checks.check_trace(trace, dt), "a closed-loop trace passes the trace checks")
    late = simulator.RunTrace(trace.t, trace.v_des, trace.v, trace.station_des,
                              np.r_[0.0, trace.station[:-1]], trace.cmd)
    expect(bool(checks.check_trace(late, dt)), "a station trace off by one step fails")
    loud = simulator.RunTrace(trace.t, trace.v_des, trace.v, trace.station_des, trace.station,
                              trace.cmd * 1.5 + 1.0)
    expect(bool(checks.check_trace(loud, dt)), "a command beyond +-100 fails")


def diverged_round() -> None:
    wl = workloads.make("static-mkz", 1, workloads.SMALL)
    cmd_grid, speed_grid = wl.base.table_grids()
    # promises 9-11 m/s^2 for any command, so the controller brakes and the car never follows
    acc = 10.0 + np.tile(cmd_grid[:, None] / 100.0, (1, len(speed_grid)))
    wl.table = CalibrationTable(speed_grid, cmd_grid, acc)
    r = wl.run_round()
    _, fails = wl.evaluate()
    expect(
        0 < r.failed < r.ops and any(f.startswith("Diverged") for f in fails),
        "a diverged round counts the cycles it did not complete as failed",
    )


def wrong_reads() -> None:
    config = simulator.mkz(load=0.0)
    cmd_grid, speed_grid = config.table_grids()
    acc = checks.truth("mkz", 0.0, cmd_grid, speed_grid)
    acc[21] = acc[20]  # a flat run, as project_monotone leaves them
    table = CalibrationTable(speed_grid, cmd_grid, acc)
    ref, view = checks.ReferenceReads(table), invert(table)
    rng = np.random.default_rng(0)
    queries = zip(rng.uniform(-110, 110, 2000), rng.uniform(-1, 30, 2000), rng.uniform(-9, 6, 2000))
    err = max(
        max(abs(lookup_acc(table, c, v) - ref.lookup_acc(table, c, v)),
            abs(lookup_cmd(view, v, a) - ref.lookup_cmd(ref, v, a)))
        for c, v, a in queries
    )
    expect(err < 1e-9, f"the reference reads agree with lookup_acc and lookup_cmd ({err:.2g})")

    def static_run(tamper):
        wl = workloads.make("static-mkz", 1, workloads.SMALL)
        wl.table = table
        exact = simulator.lookup_cmd
        if tamper:
            # a coarser feed-forward: the command rounded to whole percent
            simulator.lookup_cmd = lambda view, v, acc: round(exact(view, v, acc))
        try:
            wl.run_round()
        finally:
            simulator.lookup_cmd = exact
        return [f for f in wl.evaluate()[1] if "reference table reads" in f]

    expect(not static_run(False), "a static run matches its run with reference table reads")
    expect(bool(static_run(True)), "a coarser lookup_cmd fails the reference-read check")


def wrong_updates() -> None:
    old = np.tile(np.linspace(-1.0, 1.0, 41)[:, None], (1, 16))
    gain, sigma = 0.4, 0.05
    step = np.zeros_like(old)
    step[20, 4] = sigma * gain
    expect(not checks.check_update(old, old - step, gain, sigma), "a move of exactly sigma*|gain| passes")
    step[20, 4] = sigma * gain * 1.001
    expect(bool(checks.check_update(old, old - step, gain, sigma)), "a move beyond sigma*|gain| fails")


if __name__ == "__main__":
    wrong_tables()
    wrong_traces()
    wrong_updates()
    wrong_reads()
    diverged_round()
    small_runs()
    print(f"{len(failures)} self-check failures")
    sys.exit(1 if failures else 0)
