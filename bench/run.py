"""Benchmark of longcal's calibration loop: offline table, static and online closed loop.

    python3 bench/run.py --workload offline-ax1 --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1

Run from any directory; longcal is imported from the ``src/`` beside this
directory.  A run sets its workload up ``Size.setups`` times, then repeats
whole rounds of the timed work until ``--seconds`` have passed, checks the
outputs and prints a report.  Its last line of standard output is one JSON
object: ``correct``, ``attempted`` and ``failed`` operations, and the
end-to-end metrics (``--trace 0``) or the per-layer metrics from a run with
every module wrapped in spans (``--trace 1``).  Results and spans go to
``bench/out/``.  The exit code is 0 when every check passed, 1 when one
failed and 2 when longcal cannot be imported.  See README.md.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# one thread: the numbers must not depend on how many cores BLAS finds free
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
# the run length the bounds were set on
RUN_SECONDS = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())["run_seconds"]
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("offline-ax1", "static-mkz", "online-mkz")

# (metric, unit) reported by an untraced run, in BENCHMARK.json's order
END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_us", "us"),
    ("acc_mae", "m/s2"),
]


def import_longcal() -> float:
    """Import longcal from this checkout; returns the seconds ``longcal.preprocess`` took."""
    sys.path.insert(0, str(SRC))
    import longcal

    if Path(longcal.__file__).resolve().parent != SRC / "longcal":
        raise ModuleNotFoundError(f"longcal resolved to {longcal.__file__}, not {SRC}")
    t0 = time.perf_counter()
    import longcal.preprocess  # noqa: F401  (pulls in scipy.signal)

    import_s = time.perf_counter() - t0
    import longcal.offline  # noqa: F401
    import longcal.online  # noqa: F401
    import longcal.simulator  # noqa: F401

    return import_s


def run_workload(name: str, seed: int, seconds: float, trace: bool, size_name: str = "full") -> dict:
    import_s = import_longcal()
    import tracing
    import workloads

    size = {"full": workloads.FULL, "small": workloads.SMALL}[size_name]
    wl = workloads.make(name, seed, size)
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    ready_s = time.perf_counter() - T_START

    builds, setup_tables = [], []
    for _ in range(size.setups):
        t0 = time.perf_counter()
        table_s = wl.build()
        builds.append(time.perf_counter() - t0)
        if table_s is not None:
            setup_tables.append(table_s)

    if tracer is not None:
        tracer.start_rounds()
    rounds = []
    t0 = time.perf_counter()
    while True:
        rounds.append(wl.run_round())
        if time.perf_counter() - t0 >= seconds:
            break
    timed_s = time.perf_counter() - t0

    if tracer is not None:
        tracer.uninstall()
    figures, failures = wl.evaluate()
    figures["setup_s"] = (ready_s + statistics.median(builds), "s")
    figures["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    ok_rounds = [r for r in rounds if not r.failed]
    if ok_rounds:
        figures["op_us"] = (statistics.median(r.wall_s / r.ops * 1e6 for r in ok_rounds), "us")
    # log -> table seconds: timed in the rounds on offline-ax1, in the set-ups on the closed loops
    figures["table_s"] = (statistics.median(setup_tables or [r.table_s for r in rounds]), "s")
    if rounds[0].cv_s is not None:
        figures["cv_s"] = (statistics.median(r.cv_s for r in rounds), "s")
    if tracer is not None:
        failures += tracer.failures
        layer = tracer.metrics(import_s, len(rounds))
        units = dict(tracing.LAYER_METRICS)
        metrics = {m: {"value": layer[m], "unit": units[m]} for m, _ in tracing.LAYER_METRICS}
    else:
        metrics = {m: {"value": figures[m][0], "unit": u} for m, u in END_TO_END if m in figures}
    result = {
        "correct": not failures,
        "attempted": sum(r.ops for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }
    report = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "size": size_name,
        "rounds": len(rounds),
        "timed_s": timed_s,
        "setup_builds_s": builds,
        "round_wall_s": [r.wall_s for r in rounds],
        "figures": {k: {"value": v, "unit": u} for k, (v, u) in figures.items()},
        "failures": failures,
        "result": result,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    if size_name != "full":
        stem += f"-{size_name}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT_DIR / f"{name}.spans.npz")
    return report


def print_report(report: dict) -> None:
    res = report["result"]
    print(
        f"{report['workload']} seed {report['seed']} trace {report['trace']}: "
        f"{report['rounds']} rounds in {report['timed_s']:.1f} s, "
        f"{res['attempted']} operations attempted, {res['failed']} failed"
    )
    for key, fig in report["figures"].items():
        print(f"  {key:<20} {fig['value']!s:>24} {fig['unit']}")
    if report["trace"]:
        for key, fig in res["metrics"].items():
            print(f"  {key:<40} {fig['value']!s:>24} {fig['unit']}")
    for failure in report["failures"]:
        print(f"  CHECK FAILED: {failure}")


def run_all(args) -> int:
    """Each workload in a process of its own, so set-up starts from a fresh import."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        code = max(code, proc.returncode)
        if proc.returncode == 2 or not proc.stdout.strip():
            return 2
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] &= last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(merged))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="timed rounds run until this much time has passed (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full", help="small: the self-check's inputs")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    except ModuleNotFoundError as exc:
        print(f"cannot import longcal from {SRC}: {exc}", file=sys.stderr)
        return 2
    print_report(report)
    print(json.dumps(report["result"]))
    return 0 if report["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
