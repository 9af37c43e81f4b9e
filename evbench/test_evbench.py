"""Tests of the benchmark itself.

    python3 -m pytest evbench -q
"""

import json
import re
import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from tracing import OBSERVE, Span, Tracer, net_durations, self_times  # noqa: E402

evtraj = harness.import_evtraj()
SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")

TINY = workloads.Workload(
    name="tiny",
    scene={"width": "32", "height": "24", "motion": "constant", "vx": "2", "vy": "-1",
           "points": "20", "n_events": "2000", "noise": "0.1"},
    flags=("--stride", "8", "--k", "4", "--nbins", "3", "--degree", "3"),
    iterations=2,
)


@pytest.fixture
def run_tiny(monkeypatch, tmp_path, capsys):
    """Run harness.main on the tiny workload; returns (result, stdout lines, CLI argvs)."""
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", TINY)
    monkeypatch.setattr(harness, "RESULTS", tmp_path / "results")
    calls = []
    real_cli = harness.quiet_cli

    def recording_cli(evtraj_, argv):
        calls.append(list(argv))
        return real_cli(evtraj_, argv)

    monkeypatch.setattr(harness, "quiet_cli", recording_cli)

    def run(seed=3, trace=0):
        work = tmp_path / f"work-{seed}-{trace}"
        work.mkdir()
        monkeypatch.setattr(harness.tempfile, "mkdtemp", lambda **kw: str(work))
        calls.clear()
        code = harness.main(["--workload", "tiny", "--seed", str(seed),
                             "--seconds", "0", "--trace", str(trace)])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        argvs = [[a.replace(str(work), "WORK") for a in argv] for argv in calls]
        return json.loads(lines[-1]), lines, argvs

    return run


def test_metric_and_workload_names():
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in SPEC[kind]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(set(names)) == len(names)
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_declared_metric(run_tiny, trace, kind):
    result, _, _ = run_tiny(trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())


def test_self_time_on_hand_built_tree():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("a.x", 1.5, 2.0, 1),
        Span("b", 5.0, 9.0, 0),
        Span("b.y", 5.0, 6.0, 3),
        Span("b.z", 5.5, 7.0, 3),  # overlaps b.y: together they cover 2.0
        Span("c", 9.5, 11.0, 0),  # outlives root: only 0.5 of it counts
    ]
    assert self_times(spans) == pytest.approx([2.5, 2.5, 0.5, 2.0, 1.0, 1.5, 1.5])


def test_observer_time_is_removed_from_every_ancestor():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span(OBSERVE, 2.0, 2.5, 1),
    ]
    assert net_durations(spans) == pytest.approx([9.5, 2.5, 0.5])


def test_wrappers_patch_every_importer_and_restore():
    def fn(x):
        return 2 * x

    home, user = types.ModuleType("home"), types.ModuleType("user")
    home.fn = user.fn = fn
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    assert tracer.install(fn, tracer.wrap("home.fn", fn), [home, user]) == 2
    assert user.fn(3) == 6 and home.fn is user.fn
    assert [(s.name, s.start, s.end) for s in tracer.spans] == [("home.fn", 0.0, 1.0)]
    tracer.uninstall()
    assert home.fn is fn and user.fn is fn


def test_failed_repetition_is_counted(run_tiny, monkeypatch):
    real = harness.check_estimate
    seen = []

    def flaky(*args):
        seen.append(1)
        if len(seen) == 2:
            raise harness.CheckFailed("injected")
        return real(*args)

    monkeypatch.setattr(harness, "check_estimate", flaky)
    result, lines, _ = run_tiny()
    assert (result["attempted"], result["failed"], result["correct"]) == (3, 1, False)
    assert "FAILED repetition: CheckFailed: injected" in lines
    failed_frac = next(ln for ln in lines if ln.startswith("failed_frac"))
    assert float(failed_frac.split()[1]) == pytest.approx(1 / 3, rel=1e-5)


def test_seed_changes_events_and_not_estimator_flags(run_tiny):
    _, lines_a, argvs_a = run_tiny(seed=3)
    _, lines_b, argvs_b = run_tiny(seed=4)

    def scene(lines):
        return next(ln for ln in lines if ln.startswith("scene sha256"))

    assert scene(lines_a) != scene(lines_b)
    synth_a = [a for a in argvs_a if a[0] == "synth"]
    synth_b = [a for a in argvs_b if a[0] == "synth"]
    assert synth_a[0][-2:] == ["--seed", "3"] and synth_b[0][-2:] == ["--seed", "4"]
    assert synth_a[0][:-1] == synth_b[0][:-1]
    assert [a for a in argvs_a if a[0] != "synth"] == [a for a in argvs_b if a[0] != "synth"]


def test_knn_check_rejects_a_wrong_neighbour_set():
    field = evtraj.trajectory.TrajectoryField.zeros(24, 16, 4, evtraj.trajectory.Basis(evtraj.trajectory.BEZIER, 3))
    field.coeffs[...] = np.random.default_rng(0).normal(scale=2.0, size=field.coeffs.shape)
    volume = evtraj.assoc.build_displacement_volume(field, 0.4, evtraj.assoc.KnnConfig(k=5), 1)
    assert harness.knn_matches_bruteforce(evtraj, field, volume, seed=0)
    volume.knn_indices[0, 0, 0, [0, 1]] = volume.knn_indices[0, 0, 0, [1, 0]]
    assert not harness.knn_matches_bruteforce(evtraj, field, volume, seed=0)


@pytest.mark.parametrize("n, pct", [(10, 50.0), (40, 75.0), (100, 90.0), (1000, 99.0)])
def test_tail_percentile_keeps_ten_samples_beyond(n, pct):
    assert layers.tail_percentile(n) == pct
