"""Span tracing of longcal's five modules, wrapped from outside the package.

``install`` replaces each traced public function by a wrapper that records a
span (name, start, end, parent) around the call.  A wrapper goes on the name
the caller looks up: ``simulator`` imported ``lookup_cmd`` from ``table``, so
the controller's lookups are traced as ``simulator.lookup_cmd``.  Spans live
in flat arrays in memory and are written out once, at the end of the run.

The wrappers also count what the layers do (admitted feedback, published
updates, MLP epochs) and check every online update as it happens: the new
table is monotone and finite and no cell moved by more than sigma * |gain|.
The checks run in spans of their own, named ``bench.check``, whose time is
taken out of their parent's duration and self time.
"""

from __future__ import annotations

import contextlib
from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np

import checks

CHECK = "bench.check"

# (metric, unit) in the order BENCHMARK.json lists them
LAYER_METRICS = [
    ("table.lookup_cmd.calls", "count"),
    ("table.lookup_cmd.p50_us", "us"),
    ("table.lookup_cmd.p99_us", "us"),
    ("table.lookup_acc.calls", "count"),
    ("table.lookup_acc.p50_us", "us"),
    ("table.lookup_acc.p99_us", "us"),
    ("table.invert.calls", "count"),
    ("table.invert.p50_us", "us"),
    ("table.project_monotone.s", "s"),
    ("preprocess.import_s", "s"),
    ("preprocess.offline_pipeline.s", "s"),
    ("preprocess.offline_pipeline.samples", "count"),
    ("preprocess.push.calls", "count"),
    ("preprocess.push.admitted", "count"),
    ("preprocess.push.p50_us", "us"),
    ("preprocess.push.p99_us", "us"),
    ("offline.train_mlp.calls", "count"),
    ("offline.train_mlp.s", "s"),
    ("offline.train_mlp.epoch_ms", "ms"),
    ("offline.build_table.s", "s"),
    ("offline.cross_validate.s", "s"),
    ("offline.cross_validate.fits", "count"),
    ("offline.cross_validate.mae", "m/s2"),
    ("online.step.calls", "count"),
    ("online.step.p50_us", "us"),
    ("online.step.p99_us", "us"),
    ("online.update_table.calls", "count"),
    ("online.update_table.published", "count"),
    ("online.update_table.p50_us", "us"),
    ("online.update_table.p99_us", "us"),
    ("online.publish.p50_us", "us"),
    ("online.publish.p99_us", "us"),
    ("simulator.generate_drive_log.s", "s"),
    ("simulator.plant_step.calls", "count"),
    ("simulator.plant_step.p50_us", "us"),
    ("simulator.run_closed_loop.self_s", "s"),
    ("simulator.run_closed_loop.speed_mae", "m/s"),
    ("simulator.run_closed_loop.station_mae", "m"),
]


class Tracer:
    """Records spans in flat arrays; ``wrap`` installs a traced function."""

    def __init__(self):
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self.counts: Counter = Counter()
        self.values: dict[str, float] = {}
        self.failures: list[str] = []
        self.round_start = 0  # index of the first span opened in the timed rounds
        self.counts_at_rounds: Counter = Counter()

    def start_rounds(self) -> None:
        """Mark the end of set-up: per-round counts leave out what came before."""
        self.round_start = len(self.name)
        self.counts_at_rounds = Counter(self.counts)

    def _open(self, name: str) -> int:
        idx = len(self.name)
        self.name.append(self._ids.setdefault(name, len(self._ids)))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Trace ``owner.attr``; ``after(args, kwargs, result)`` runs once the span closes."""
        fn = getattr(owner, attr)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            idx = open_(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                close(idx)
            if after is not None:
                after(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        setattr(owner, attr, traced)
        self._undo.append((owner, attr, fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    # -- analysis ------------------------------------------------------------

    def _analyse(self):
        """Per-span name, parent, net duration (less checks) and self time, in seconds."""
        names = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        dur = dur.astype(float) * 1e-9
        net = dur.copy()
        if CHECK in self._ids:
            is_check = names == self._ids[CHECK]
            np.subtract.at(net, parent[is_check], dur[is_check])
        own = dur.copy()
        child = parent >= 0
        np.subtract.at(own, parent[child], dur[child])
        return names, parent, net, own

    def durations(self, name: str) -> np.ndarray:
        """Seconds per call of ``name``, less the checks run inside it."""
        if name not in self._ids:
            return np.empty(0)
        names, _, net, _ = self._analysis
        return net[names == self._ids[name]]

    def self_times(self, name: str) -> np.ndarray:
        """Seconds per call of ``name`` not covered by its child spans."""
        if name not in self._ids:
            return np.empty(0)
        names, _, _, own = self._analysis
        return own[names == self._ids[name]]

    def calls_per_round(self, name: str, rounds: int) -> float:
        """Calls of ``name`` per timed round; set-up calls are not counted."""
        if name not in self._ids:
            return 0.0
        names = self._analysis[0][self.round_start:]
        return int(np.count_nonzero(names == self._ids[name])) / rounds

    def children_of(self, child: str, ancestor: str) -> int:
        """Number of ``child`` spans with an ``ancestor`` span above them."""
        if child not in self._ids or ancestor not in self._ids:
            return 0
        names, parent, _, _ = self._analysis
        target = self._ids[ancestor]
        count = 0
        for idx in np.flatnonzero(names == self._ids[child]):
            p = parent[idx]
            while p >= 0 and names[p] != target:
                p = parent[p]
            count += p >= 0
        return int(count)

    def write(self, path) -> None:
        names = np.array(sorted(self._ids, key=self._ids.get))
        np.savez_compressed(
            path,
            names=names,
            name=np.frombuffer(self.name, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )

    def metrics(self, import_s: float, rounds: int) -> dict[str, float]:
        """Every per-layer metric of LAYER_METRICS, 0 for a layer the run did not call.

        ``.calls``, ``.admitted`` and ``.published`` are per timed round, so
        they move only when the program does a different amount of work per
        round, not when a faster machine fits in more rounds.
        """
        self._analysis = self._analyse()

        def pct(name, q):
            d = self.durations(name)
            return float(np.percentile(d, q) * 1e6) if len(d) else 0.0

        def median_s(name):
            d = self.durations(name)
            return float(np.median(d)) if len(d) else 0.0

        def per_round(count):
            return (self.counts[count] - self.counts_at_rounds[count]) / rounds

        cv_calls = len(self.durations("offline.cross_validate"))
        epochs = self.counts["offline.train_mlp.epochs"]
        loop_self = self.self_times("simulator.run_closed_loop")
        out = {
            "table.project_monotone.s": median_s("table.project_monotone"),
            "preprocess.import_s": import_s,
            "preprocess.offline_pipeline.s": median_s("preprocess.offline_pipeline"),
            "preprocess.offline_pipeline.samples": self.values.get("preprocess.offline_pipeline.samples", 0),
            "preprocess.push.admitted": per_round("preprocess.push.admitted"),
            "offline.train_mlp.s": median_s("offline.train_mlp"),
            "offline.train_mlp.epoch_ms": (
                self.durations("offline.train_mlp").sum() / epochs * 1e3 if epochs else 0.0
            ),
            "offline.build_table.s": median_s("offline.build_table"),
            "offline.cross_validate.s": median_s("offline.cross_validate"),
            "offline.cross_validate.fits": (
                self.children_of("offline.train_mlp", "offline.cross_validate") / cv_calls
                if cv_calls else 0
            ),
            "offline.cross_validate.mae": self.values.get("offline.cross_validate.mae", 0.0),
            "online.update_table.published": per_round("online.update_table.published"),
            "simulator.generate_drive_log.s": median_s("simulator.generate_drive_log"),
            "simulator.run_closed_loop.self_s": float(np.median(loop_self)) if len(loop_self) else 0.0,
            "simulator.run_closed_loop.speed_mae": self.values.get("simulator.run_closed_loop.speed_mae", 0.0),
            "simulator.run_closed_loop.station_mae": self.values.get("simulator.run_closed_loop.station_mae", 0.0),
        }
        for metric, unit in LAYER_METRICS:
            if metric in out:
                continue
            span, _, stat = metric.rpartition(".")
            if stat == "calls":
                out[metric] = self.calls_per_round(span, rounds)
            elif stat == "p50_us":
                out[metric] = pct(span, 50)
            elif stat == "p99_us":
                out[metric] = pct(span, 99)
            else:
                raise KeyError(metric)
        return {metric: out[metric] for metric, _ in LAYER_METRICS}


def install(tracer: Tracer) -> None:
    """Wrap the public functions of table, preprocess, offline, online and simulator."""
    from longcal import offline, online, preprocess, simulator

    def pipeline_samples(args, kwargs, bins):
        tracer.values["preprocess.offline_pipeline.samples"] = int(bins.counts().sum())

    def push_admitted(args, kwargs, feedback):
        if feedback is not None:
            tracer.counts["preprocess.push.admitted"] += 1

    def train_epochs(args, kwargs, model):
        hyper = args[1] if len(args) > 1 else kwargs.get("hyper")
        tracer.counts["offline.train_mlp.epochs"] += (hyper or offline.MlpHyper()).epochs

    def cv_mae(args, kwargs, report):
        tracer.values["offline.cross_validate.mae"] = report.mae

    def check_update(args, kwargs, new_table):
        state, feedback, cfg = args
        old = state.table
        if new_table is old:
            return
        tracer.counts["online.update_table.published"] += 1
        with tracer.span(CHECK):
            gain = feedback.acc_ref - feedback.acc_k
            tracer.failures += checks.check_update(old.acc, new_table.acc, gain, cfg.sigma)

    def check_publish(args, kwargs, _):
        state, new_table = args
        with tracer.span(CHECK):
            if state.table is not new_table:
                tracer.failures.append("publish did not make the new table current")
            tracer.failures += checks.check_monotone_finite(state.table.acc, "published table")

    def loop_errors(args, kwargs, result):
        tracer.values["simulator.run_closed_loop.speed_mae"] = result.metrics.speed_mae
        tracer.values["simulator.run_closed_loop.station_mae"] = result.metrics.station_mae

    w = tracer.wrap
    w(simulator, "lookup_cmd", "table.lookup_cmd")
    w(simulator, "lookup_acc", "table.lookup_acc")
    w(simulator, "invert", "table.invert")
    w(online, "invert", "table.invert")
    w(offline, "project_monotone", "table.project_monotone")
    w(preprocess, "offline_pipeline", "preprocess.offline_pipeline", pipeline_samples)
    w(preprocess.OnlinePreprocessor, "push", "preprocess.push", push_admitted)
    w(offline, "train_mlp", "offline.train_mlp", train_epochs)
    w(offline, "build_table", "offline.build_table")
    w(offline, "cross_validate", "offline.cross_validate", cv_mae)
    w(online.OnlineCalibrator, "step", "online.step")
    w(online, "update_table", "online.update_table", check_update)
    w(online, "publish", "online.publish", check_publish)
    w(simulator, "generate_drive_log", "simulator.generate_drive_log")
    w(simulator.Plant, "step", "simulator.plant_step")
    w(simulator, "run_closed_loop", "simulator.run_closed_loop", loop_errors)
