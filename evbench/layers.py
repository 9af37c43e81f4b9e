"""Per-layer metrics of evtraj, taken from a traced run.

Every public function of the modules in ``MODULES`` runs inside a span
named ``<module>.<function>``. The name is rebound in every evtraj module
that imported it (``build_displacement_volume`` lives in ``assoc`` but is
called through ``optimize``, ``objective`` and ``cli``). A few spans also
get an observer that records what the span alone cannot: neighbour-set
digests, masked events, degenerate iterations, bytes loaded.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import os
from collections import defaultdict

import numpy as np

from tracing import ancestor, net_durations, self_times

MODULES = ("assoc", "trajectory", "objective", "optimize", "synth", "events", "metrics", "flowio")
MINIMIZE = "optimize.minimize"
# Exactly one of these runs per optimizer iteration. The fixed-reference
# step is private, but minimize calls it in place of loss_gradient.
ITER_MARKERS = ("optimize.loss_gradient", "optimize._fixed_reference_value_and_grad")
# Spans the benchmark opens around each `evtraj.cli.main` call.
SYNTH, ESTIMATE, EVAL = "cli.synth", "cli.estimate", "cli.eval"
# Candidate tail percentiles; the tail is the highest one with at least
# ten samples beyond it.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# Printed in the summary and kept in the result file, but not declared in
# BENCHMARK.json: each reads 0 on every declared workload.
SUMMARY_ONLY = ("optimize.degenerate_iters",)


def tail_percentile(n: int) -> float:
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) >= 1000.0 - 1e-9:
            return p
    return 50.0


class LayerProbe:
    """Installs the span wrappers and keeps what their observers count."""

    def __init__(self, tracer, eps_contrast: float):
        self.tracer = tracer
        self.eps_contrast = eps_contrast
        self.builds = []  # (iteration span, digest of knn_indices)
        self.churn = []  # per iteration: share of (bin, cell) sets changed
        self.masked = 0
        self.warped = 0
        self.degenerate = 0
        self.loaded_bytes = {}  # load_events span -> file size
        self.last_build = None  # (field copy, volume) of the latest build
        self._prev = None  # (minimize span, iteration span, sorted knn_indices)

    def install(self, evtraj) -> None:
        observers = {
            "assoc.build_displacement_volume": self._on_volume,
            "objective.warp_events": self._on_warp,
            "optimize.loss_gradient": self._on_step,
            "optimize._fixed_reference_value_and_grad": self._on_fixed_step,
            "events.load_events": self._on_load,
        }
        owners = {m: importlib.import_module(f"evtraj.{m}") for m in MODULES}
        everywhere = [evtraj, evtraj.cli, *owners.values()]
        for short, module in owners.items():
            own = [
                (f"{short}.{n}", v) for n, v in vars(module).items()
                if inspect.isfunction(v) and v.__module__ == module.__name__
                and (not n.startswith("_") or f"{short}.{n}" in ITER_MARKERS)
            ]
            for name, fn in own:
                self.tracer.install(fn, self.tracer.wrap(name, fn, observers.get(name)), everywhere)

    def _in_minimize(self, sid) -> int | None:
        return ancestor(self.tracer.spans, sid, {MINIMIZE})

    def _on_volume(self, sid, args, kwargs, volume):
        run = self._in_minimize(sid)
        if run is None:
            return
        it = ancestor(self.tracer.spans, sid, ITER_MARKERS)
        self.builds.append((it, hashlib.sha1(volume.knn_indices.tobytes()).hexdigest()))
        self.last_build = (args[0].copy(), volume)
        prev = self._prev
        if prev is None or prev[1] != it:  # first build of an iteration
            sets = np.sort(volume.knn_indices, axis=-1)
            if prev is not None and prev[0] == run:
                self.churn.append(float(np.any(prev[2] != sets, axis=-1).mean()))
            self._prev = (run, it, sets)

    def _on_warp(self, sid, args, kwargs, warped):
        if self._in_minimize(sid) is not None:
            self.masked += warped.n_masked
            self.warped += len(warped.mask)

    def _on_step(self, sid, args, kwargs, result):
        self.degenerate += bool(result[0].degenerate)

    def _on_fixed_step(self, sid, args, kwargs, result):
        self.degenerate += bool(result[0] < self.eps_contrast)

    def _on_load(self, sid, args, kwargs, result):
        self.loaded_bytes[sid] = os.path.getsize(args[0])

    def metrics(self, overhead_frac: float) -> dict:
        """Every per-layer metric, from the spans recorded so far."""
        spans = self.tracer.spans
        net = net_durations(spans)
        own = self_times(spans)
        by_name = defaultdict(list)
        for i, s in enumerate(spans):
            by_name[s.name].append(i)

        def under(name, root):
            return [i for i in by_name[name] if ancestor(spans, i, {root}) is not None]

        def ms(idx):
            return 1e3 * sum(net[i] for i in idx)

        iters = [i for n in ITER_MARKERS for i in under(n, MINIMIZE)]
        n_iter = len(iters)
        runs = by_name[MINIMIZE]

        def per_iter(name):
            return ms(under(name, MINIMIZE)) / n_iter

        def calls_per_iter(name):
            return len(under(name, MINIMIZE)) / n_iter

        def per_root(name, root):
            return ms(under(name, root)) / len(by_name[root])

        knn_calls = under("assoc.knn_per_bin", MINIMIZE)
        groups = defaultdict(list)
        for it, digest in self.builds:
            groups[it].append(digest)
        iter_ms = np.array([1e3 * net[i] for i in iters])
        tail_pct = tail_percentile(len(iter_ms))
        # the optimize module's own time: minimize and loss_gradient minus
        # the calls they make into other modules
        in_run = runs + [
            i for n in by_name if n.startswith("optimize.") for i in under(n, MINIMIZE)
        ]
        assoc_names = {n for n in by_name if n.startswith("assoc.")}
        assoc_top = [
            i for n in assoc_names for i in under(n, MINIMIZE)
            if ancestor(spans, i, assoc_names) is None
        ]
        loads = by_name["events.load_events"]
        return {
            "assoc.build_displacement_volume.ms_per_iter": per_iter("assoc.build_displacement_volume"),
            "assoc.build_displacement_volume.calls_per_iter": calls_per_iter("assoc.build_displacement_volume"),
            "assoc.knn_per_bin.ms_per_call": ms(knn_calls) / len(knn_calls),
            "assoc.knn_per_bin.calls_per_iter": calls_per_iter("assoc.knn_per_bin"),
            "assoc.volume_unique_frac": float(np.mean([len(set(g)) / len(g) for g in groups.values()])),
            "assoc.knn_churn_frac": float(np.mean(self.churn)) if self.churn else 0.0,
            "assoc.build_consecutive_delta_field.ms_per_iter": per_iter("assoc.build_consecutive_delta_field"),
            "assoc.interpolate_flow.ms": per_root("assoc.interpolate_flow", ESTIMATE),
            "assoc.minimize_share": ms(assoc_top) / ms(runs),
            "trajectory.eval_trajectory_batch.ms_per_iter": per_iter("trajectory.eval_trajectory_batch"),
            "trajectory.eval_trajectory_batch.calls_per_iter": calls_per_iter("trajectory.eval_trajectory_batch"),
            "trajectory.save_field.ms": per_root("trajectory.save_field", ESTIMATE),
            "objective.warp_events.ms_per_iter": per_iter("objective.warp_events"),
            "objective.voting_stencil.ms_per_iter": per_iter("objective.voting_stencil"),
            "objective.masked_frac": self.masked / self.warped,
            "optimize.degenerate_iters": self.degenerate / len(runs),
            "optimize.minimize.ms_per_iter": ms(runs) / n_iter,
            "optimize.self_ms_per_iter": 1e3 * sum(own[i] for i in in_run) / n_iter,
            "optimize.iter_ms.p50": float(np.percentile(iter_ms, 50.0)),
            "optimize.iter_ms.tail": float(np.percentile(iter_ms, tail_pct)),
            "optimize.iter_ms.tail_pct": tail_pct,
            "optimize.iter_ms.samples": len(iter_ms),
            "synth.generate_events.ms": per_root("synth.generate_events", SYNTH),
            "events.save_events.ms": per_root("events.save_events", SYNTH),
            "events.load_events.ms": float(np.median([1e3 * net[i] for i in loads])),
            "events.load_events.mb_per_s": (
                sum(self.loaded_bytes[i] for i in loads) / 2**20 / sum(net[i] for i in loads)
            ),
            "flowio.save_flow.ms": per_root("flowio.save_flow", ESTIMATE),
            "flowio.load_flow.ms": per_root("flowio.load_flow", EVAL),
            "metrics.evaluate_trajectories.ms": per_root("metrics.evaluate_trajectories", EVAL),
            "metrics.fwl.ms": per_root("metrics.fwl", EVAL),
            "tracing.overhead_frac": overhead_frac,
        }
