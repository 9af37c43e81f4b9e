import json
from pathlib import Path

import numpy as np
import pytest

from evtraj.cli import main
from evtraj.events import load_events
from evtraj.flowio import load_flow


SCENE = """\
# small constant-flow test scene
width=32
height=32
motion=constant
vx=3
vy=-2
points=40
n_events=1500
noise=0.05
query_times=0.5,1.0
"""


@pytest.fixture
def scene_file(tmp_path):
    path = tmp_path / "scene.cfg"
    path.write_text(SCENE)
    return path


def read_tree(out_dir: Path, skip=("manifest.json",)):
    return {
        p.name: p.read_bytes()
        for p in sorted(out_dir.iterdir())
        if p.is_file() and p.name not in skip
    }


class TestSynthCommand:
    def test_writes_events_gt_and_manifest(self, scene_file, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["synth", str(scene_file), "--out", str(out), "--seed", "7"])
        assert rc == 0
        sl = load_events(out / "events.evt1")
        assert len(sl) == 1500
        flow, t, valid = load_flow(out / "gt_01.flo1")
        assert t == 1.0
        np.testing.assert_allclose(flow[valid], np.broadcast_to([3.0, -2.0], flow[valid].shape))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "synth"

    def test_deterministic_given_seed(self, scene_file, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["synth", str(scene_file), "--out", str(out_a), "--seed", "3"])
        main(["synth", str(scene_file), "--out", str(out_b), "--seed", "3"])
        assert read_tree(out_a) == read_tree(out_b)

    def test_invalid_noise_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("width=16\nheight=16\nmotion=constant\nvx=1\nvy=0\nnoise=1.5\n")
        rc = main(["synth", str(bad), "--out", str(tmp_path / "x"), "--seed", "0"])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestEstimateCommand:
    def test_zero_iterations_zero_flow(self, scene_file, tmp_path):
        data = tmp_path / "data"
        main(["synth", str(scene_file), "--out", str(data), "--seed", "1"])
        out = tmp_path / "est"
        rc = main(
            [
                "estimate", str(data / "events.evt1"), "--out", str(out),
                "--basis", "poly", "--degree", "1", "--iters", "0",
                "--k", "8", "--flow-times", "0.5,1.0",
            ]
        )
        assert rc == 0
        flow, _, _ = load_flow(out / "flow_01.flo1")
        np.testing.assert_array_equal(flow, 0.0)
        trace = (out / "trace.csv").read_text().strip().splitlines()
        assert trace == ["iter,t_ref,G,R,total"]

    def test_fixed_ref_flag_routes(self, scene_file, tmp_path):
        data = tmp_path / "data"
        main(["synth", str(scene_file), "--out", str(data), "--seed", "1"])
        out = tmp_path / "est"
        rc = main(
            [
                "estimate", str(data / "events.evt1"), "--out", str(out),
                "--basis", "poly", "--degree", "1", "--iters", "2",
                "--k", "8", "--fixed-ref",
            ]
        )
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["args"]["fixed_ref"] is True

    @pytest.mark.parametrize(
        "flag, value, match",
        [
            ("--stride", "0", "stride"), ("--sigma", "-1", "sigma"), ("--iters", "-1", "iterations"),
            ("--lambda", "-1", "lambda"), ("--lambda", "nan", "lambda"), ("--lr", "nan", "step size"),
        ],
    )
    def test_bad_setting_exits_2(self, scene_file, tmp_path, capsys, flag, value, match):
        data = tmp_path / "data"
        main(["synth", str(scene_file), "--out", str(data), "--seed", "1"])
        rc = main(
            ["estimate", str(data / "events.evt1"), "--out", str(tmp_path / "est"),
             "--k", "8", flag, value]
        )
        assert rc == 2
        assert match in capsys.readouterr().err

    @pytest.mark.parametrize("times", ["1.5", "nan", "0.5,nan"])
    def test_bad_flow_times_exit_2_before_fitting(self, scene_file, tmp_path, capsys, times):
        data = tmp_path / "data"
        main(["synth", str(scene_file), "--out", str(data), "--seed", "1"])
        out = tmp_path / "est"
        rc = main(
            ["estimate", str(data / "events.evt1"), "--out", str(out),
             "--k", "8", "--iters", "3", "--flow-times", times]
        )
        assert rc == 2
        assert "--flow-times" in capsys.readouterr().err
        assert not out.exists()

    def test_rerun_reproduces_outputs(self, scene_file, tmp_path):
        data = tmp_path / "data"
        main(["synth", str(scene_file), "--out", str(data), "--seed", "1"])
        out = tmp_path / "est"
        main(
            [
                "estimate", str(data / "events.evt1"), "--out", str(out),
                "--basis", "bezier", "--degree", "3", "--iters", "3",
                "--k", "8", "--seed", "5",
            ]
        )
        first = read_tree(out)
        rc = main(["rerun", str(out / "manifest.json")])
        assert rc == 0
        assert read_tree(out) == first


class TestEvalCommand:
    def test_eval_report(self, scene_file, tmp_path, capsys):
        data = tmp_path / "data"
        main(["synth", str(scene_file), "--out", str(data), "--seed", "2"])
        est = tmp_path / "est"
        main(
            [
                "estimate", str(data / "events.evt1"), "--out", str(est),
                "--basis", "poly", "--degree", "1", "--iters", "0",
                "--k", "8", "--flow-times", "0.5,1.0",
            ]
        )
        rep = tmp_path / "report"
        rc = main(
            [
                "eval",
                "--pred", str(est / "flow_00.flo1"), str(est / "flow_01.flo1"),
                "--gt", str(data / "gt_00.flo1"), str(data / "gt_01.flo1"),
                "--events", str(data / "events.evt1"),
                "--out", str(rep),
            ]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "TEPE" in text and "FWL" in text
        csv = (rep / "report.csv").read_text().splitlines()
        assert csv[0].startswith("epe,ae,pct_out")
        # zero-flow prediction of a (3,-2) field: EPE at t=1 is |v|
        vals = dict(zip(csv[0].split(","), map(float, csv[1].split(","))))
        assert vals["epe"] == pytest.approx(np.hypot(3, 2), rel=1e-6)
        assert vals["fwl"] == pytest.approx(1.0)

    def test_time_mismatch_exits_2(self, scene_file, tmp_path, capsys):
        data = tmp_path / "data"
        main(["synth", str(scene_file), "--out", str(data), "--seed", "2"])
        rc = main(
            [
                "eval",
                "--pred", str(data / "gt_00.flo1"),
                "--gt", str(data / "gt_01.flo1"),
                "--events", str(data / "events.evt1"),
            ]
        )
        assert rc == 2


class TestRenderCommand:
    def test_accumulation_render(self, scene_file, tmp_path):
        data = tmp_path / "data"
        main(["synth", str(scene_file), "--out", str(data), "--seed", "4"])
        out = tmp_path / "iwe.pgm"
        rc = main(["render", str(data / "events.evt1"), "--out", str(out)])
        assert rc == 0
        assert out.read_bytes().startswith(b"P5")

    def test_bad_tref_exits_2(self, scene_file, tmp_path):
        data = tmp_path / "data"
        main(["synth", str(scene_file), "--out", str(data), "--seed", "4"])
        rc = main(
            ["render", str(data / "events.evt1"), "--out", str(tmp_path / "x.pgm"),
             "--tref", "1.5"]
        )
        assert rc == 2

    def test_field_render_logs_fwl(self, scene_file, tmp_path, capsys):
        data = tmp_path / "data"
        main(["synth", str(scene_file), "--out", str(data), "--seed", "4"])
        est = tmp_path / "est"
        main(
            ["estimate", str(data / "events.evt1"), "--out", str(est),
             "--basis", "poly", "--degree", "1", "--iters", "0", "--k", "8"]
        )
        rc = main(
            ["render", str(data / "events.evt1"), "--field", str(est / "field.trj1"),
             "--out", str(tmp_path / "w.pgm"), "--k", "8"]
        )
        assert rc == 0
        assert "FWL" in capsys.readouterr().out

    def test_missing_events_exits_2(self, tmp_path):
        rc = main(["render", str(tmp_path / "nope.evt1"), "--out", str(tmp_path / "x.pgm")])
        assert rc == 2
