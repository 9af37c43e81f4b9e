import hashlib
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from evtraj.cli import build_parser, main
from evtraj.events import EventSlice, load_events, save_events
from evtraj.flowio import load_flow, save_flow
from evtraj.optimize import OptimConfig
from evtraj.trajectory import POLYNOMIAL, Basis, TrajectoryField, save_field


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


def estimate_manifest(drop=(), **change):
    """An estimate manifest of the parser's defaults, without the keys
    ``drop`` and with ``change`` applied."""
    args = vars(build_parser().parse_args(["estimate", "events.evt1", "--out", "est"]))
    for key in ("command", *drop):
        del args[key]
    return json.dumps({"command": "estimate", "args": {**args, **change}})


# estimate manifests, each mapped to the one key that rerun must refuse: a
# value the estimate parser cannot give it, an unknown key or a missing one
BAD_ESTIMATE_KEYS = {
    estimate_manifest(iters="2"): "iters",
    estimate_manifest(k="4"): "k",
    estimate_manifest(lr="0.01"): "lr",
    estimate_manifest(degree="2"): "degree",
    estimate_manifest(stride=8.0): "stride",
    estimate_manifest(flow_times=1.0): "flow_times",
    estimate_manifest(basis=3): "basis",
    estimate_manifest(fixed_ref="yes"): "fixed_ref",
    estimate_manifest(out=None): "out",
    estimate_manifest(tile_size=512): "tile_size",
    estimate_manifest(drop=["seed"]): "seed",
}


def fixed_inputs(root: Path) -> dict:
    """Paths of a seeded 24x16 slice of 3,000 events, a degree-1 field of
    quarter-pixel offsets on stride 4 (24 anchors), and predicted and
    ground-truth maps of eighth-pixel values at t = 0.5 and 1."""
    rng = np.random.default_rng(8)
    width, height, n = 24, 16, 3000
    paths = {"events": root / "events.evt1", "field": root / "field.trj1"}
    save_events(EventSlice.from_arrays(rng.integers(0, width, n), rng.integers(0, height, n), rng.uniform(0, 1, n),
                                       rng.choice([-1, 1], n), width, height, t_start=0.0, t_end=1.0),
                paths["events"])
    field = TrajectoryField.zeros(width, height, 4, Basis(POLYNOMIAL, 1))
    field.coeffs[...] = rng.integers(-8, 9, field.coeffs.shape) / 4.0
    save_field(field, paths["field"])
    for kind in ("pred", "gt"):
        paths[kind] = [root / f"{kind}_{i}.flo1" for i in (0, 1)]
        for path, t in zip(paths[kind], (0.5, 1.0)):
            save_flow(path, rng.integers(-24, 25, (height, width, 2)) / 8.0, t, valid=rng.random((height, width)) > 0.1)
    return paths


# the report and the SHA-256 of each PGM that eval and render write for
# ``fixed_inputs``, recorded when the warp still read the table itself; a
# refactor keeps these bytes, and only a change of definition may move them
# (fwl's last digits moved once each site voted once at its summed weight)
UNCHANGED_REPORT = (
    "epe,ae,pct_out,tepe,tae,fwl,n_valid\n"
    "3.2213718807599485,77.591698491293982,0.53094462540716614,3.2101233269792946,76.134968796260424,"
    "2.3460498874185283,307\n"
)
UNCHANGED_PGM = {
    "plain": "24150aad5b569d38fc5ad715f622fbe969d5cccc1018cd5f257711f17faf7048",
    "field": "f6402fd5c1d2db2751eb2329fe18f6a03861f52843a30030e2f670c3a6eed49e",
}
# the SHA-256 of each file that estimate writes for ``fixed_inputs``' events
# at ESTIMATE_ARGV and each setting's flags, recorded while the volume and
# the delta field still had separate adjoint functions; the trace.csv
# digests were recorded again once each site voted once at its summed weight
ESTIMATE_ARGV = ["--stride", "4", "--k", "8", "--iters", "5", "--flow-times", "0.5,1"]
UNCHANGED_ESTIMATE = {
    "defaults": ([], {
        "field.trj1": "b36101cda39b0bde9bdefc4141c207a45c9c1aa3381f3086fc758f1ff3cde3a0",
        "trace.csv": "47daa9290cfcd319b9ae78b7620311cd7aeaa98c62cf16811bdcb20226129147",
        "flow_00.flo1": "59ad4231aa95cd2f18155c68ddd9e814bed1808dd47b1efea84d9731b3e07143",
        "flow_01.flo1": "40ec5bf7fd4f858f2b163707caa45b5df07448bcc183064f404d60c6746b6fc4",
    }),
    "sigma-degree": (["--sigma", "1", "--degree", "3"], {
        "field.trj1": "a65c35e244ff839f6259085699a5f780467ef388225cd8481ea3d57a50547150",
        "trace.csv": "ae469235fd32e3dd867de7c5620a196ca9e3610e82abd2944d5466acf8457438",
        "flow_00.flo1": "1256c41e9575157983f80689ac20a44361cbb57fab0c908dcd50f793f8f20bd9",
        "flow_01.flo1": "d8250e60c4b2985547d33fb5dc369545f9e2611d3007d07be7cfcbfd8a4b3691",
    }),
    "fixed-ref": (["--fixed-ref"], {
        "field.trj1": "1c3858c42c38f191183afabdddf52fa3c01f28360be66f08aae06174e64a7abc",
        "trace.csv": "7bf3da616039e51754e65e19548ea7ff03608a94fb772e2ad931e91dc59cb241",
        "flow_00.flo1": "7cb52ab15c7b6092afea78922fae9c534615efbc24ac137375c6bff487595d99",
        "flow_01.flo1": "afcf8ecc9dc5d1fcbe163acd715ce03892b84d4408ccaf3b2351929884f1bc9d",
    }),
}


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

    def test_degenerate_scene_exits_2_naming_the_file(self, tmp_path, capsys):
        bad = tmp_path / "bare.cfg"
        bad.write_text("width=16\nheight=16\nmotion=constant\nvx=1\nvy=0\npoints=0\nn_events=100\n")
        rc = main(["synth", str(bad), "--out", str(tmp_path / "x"), "--seed", "0"])
        assert rc == 2
        assert f"{bad}: degenerate scene" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_invalid_noise_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("width=16\nheight=16\nmotion=constant\nvx=1\nvy=0\nnoise=1.5\n")
        rc = main(["synth", str(bad), "--out", str(tmp_path / "x"), "--seed", "0"])
        assert rc == 2
        assert "error" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("line", ["vx=nan", "vy=inf", "query_times=0.5,nan"])
    def test_non_finite_number_exits_2_naming_the_key(self, tmp_path, capsys, line):
        key = line.split("=")[0]
        bad = tmp_path / "bad.cfg"
        bad.write_text(SCENE.replace(f"\n{key}=", f"\n{key}_old=") + line + "\n")
        rc = main(["synth", str(bad), "--out", str(tmp_path / "x"), "--seed", "0"])
        assert rc == 2
        assert f"scene key {key}=" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "key, lines",
        [
            ("offsets", ["motion=bezier", "offsets=3"]),
            ("offsets", ["motion=bezier", "offsets=1:2:3"]),
            ("width", ["width=abc"]),
            ("n_events", ["n_events=1e3"]),
            ("query_times", ["query_times=0.5,abc"]),
            ("width", []),
            ("vy", []),
            ("width", ["width=0"]),
            ("points", ["points=-3"]),
            ("vx", ["vx=1", "vx=2"]),
            ("noise", ["noise=1.5"]),
            ("motion", ["motion=spiral"]),
            ("angle", ["motion=circular", "cx=10", "cy=10"]),
            # EVT1 stores u16 coordinates: refused before any event is generated
            ("width", ["width=70000"]),
            ("height", ["height=65537"]),
            # one pair per Bezier degree: refused before any point is placed
            ("offsets", ["motion=bezier", "offsets=" + ",".join(["1:0"] * 1030)]),
        ],
        ids=["offsets-no-colon", "offsets-three", "width-abc", "n_events-float", "query_times-abc",
             "width-missing", "vy-missing", "width-zero", "points-negative", "vx-repeated",
             "noise-above-one", "motion-spiral", "circular-angle-missing", "width-beyond-evt1",
             "height-beyond-evt1", "offsets-beyond-bezier-degree"],
    )
    def test_malformed_scene_exits_2_naming_file_and_key(self, tmp_path, capsys, key, lines):
        bad = tmp_path / "bad.cfg"
        kept = [line for line in SCENE.splitlines() if line.split("=")[0] not in (key, "motion")]
        bad.write_text("\n".join(kept + lines) + "\n")
        rc = main(["synth", str(bad), "--out", str(tmp_path / "x"), "--seed", "0"])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"{bad}: scene key {key}" in err
        assert not (tmp_path / "x").exists()

    def test_repeated_key_names_both_lines(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(SCENE + "vx=2\n")
        rc = main(["synth", str(bad), "--out", str(tmp_path / "x"), "--seed", "0"])
        assert rc == 2
        assert f"{bad}: scene key vx is repeated (lines 5 and 11)" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_line_without_equals_exits_2_naming_file_and_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(SCENE + "points 40\n")
        rc = main(["synth", str(bad), "--out", str(tmp_path / "x"), "--seed", "0"])
        assert rc == 2
        assert f"{bad}: line 11: expected key=value" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_non_utf8_scene_exits_2_naming_file_and_byte(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"width=8\xff\n")
        rc = main(["synth", str(bad), "--out", str(tmp_path / "x"), "--seed", "0"])
        assert rc == 2
        assert f"{bad}: not UTF-8 text at byte 7" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_query_times_outside_unit_interval_exit_2(self, tmp_path, capsys):
        # they used to be written as GT maps that eval then misread
        bad = tmp_path / "bad.cfg"
        bad.write_text(SCENE.replace("query_times=0.5,1.0", "query_times=-0.5,1.5"))
        rc = main(["synth", str(bad), "--out", str(tmp_path / "x"), "--seed", "0"])
        assert rc == 2
        assert "query_times must lie in [0, 1]" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_negative_coverage_radius_exits_2_naming_the_key(self, tmp_path, capsys):
        # it used to write GT maps with no valid pixel
        bad = tmp_path / "bad.cfg"
        bad.write_text(SCENE + "coverage_radius=-1\n")
        rc = main(["synth", str(bad), "--out", str(tmp_path / "x"), "--seed", "0"])
        assert rc == 2
        assert "scene key coverage_radius=" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_negative_seed_exits_2_before_writing(self, scene_file, tmp_path, capsys):
        out = tmp_path / "x"
        rc = main(["synth", str(scene_file), "--out", str(out), "--seed", "-1"])
        assert rc == 2
        assert "error" in capsys.readouterr().err
        assert not out.exists()


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

    def test_field_overflowing_float32_exits_2_unwritten(self, tmp_path, capsys):
        # a step this large drives the coefficients past the float32 range:
        # the field used to be written with inf coefficients that render
        # rejects, and all-invalid flow maps
        scene = tmp_path / "scene.cfg"
        scene.write_text("width=32\nheight=24\nmotion=constant\nvx=3\nvy=-2\npoints=30\nn_events=1500\n")
        data = tmp_path / "data"
        main(["synth", str(scene), "--out", str(data), "--seed", "1"])
        out = tmp_path / "est"
        rc = main(["estimate", str(data / "events.evt1"), "--out", str(out), "--iters", "1",
                   "--stride", "8", "--k", "4", "--degree", "2", "--lr", "1e39"])
        assert rc == 2
        assert f"{out / 'field.trj1'}: TRJ1 coefficient" in capsys.readouterr().err
        assert not (out / "field.trj1").exists()
        assert not list(out.glob("flow_*.flo1"))

    def test_every_event_off_image_exits_3_unwritten(self, tmp_path, capsys):
        # the first step throws every event off the image; the run used to
        # go on, exit 0 and write a field hundreds of thousands of px off
        scene = tmp_path / "scene.cfg"
        scene.write_text("width=32\nheight=24\nmotion=constant\nvx=2\nvy=-1\npoints=30\nn_events=3000\n")
        data = tmp_path / "data"
        main(["synth", str(scene), "--out", str(data), "--seed", "0"])
        out = tmp_path / "est"
        rc = main(["estimate", str(data / "events.evt1"), "--out", str(out), "--iters", "5",
                   "--stride", "8", "--k", "4", "--degree", "2", "--lr", "1e5"])
        assert rc == 3
        assert "off the image at iteration 1" in capsys.readouterr().err
        assert not out.exists()

    def test_existing_out_directory_accepted(self, scene_file, tmp_path):
        data = tmp_path / "data"
        main(["synth", str(scene_file), "--out", str(data), "--seed", "1"])
        out = tmp_path / "est"
        out.mkdir()
        rc = main(["estimate", str(data / "events.evt1"), "--out", str(out), "--iters", "1", "--k", "8"])
        assert rc == 0
        assert (out / "field.trj1").exists()

    def test_estimator_defaults_come_from_the_configs(self):
        ocfg = OptimConfig()
        obj = ocfg.objective
        parser = build_parser()
        est = vars(parser.parse_args(["estimate", "ev.evt1", "--out", "x"]))
        assert (est["k"], est["nbins"], est["lambda"], est["sigma"]) == (obj.k, obj.n_bins, obj.lam, obj.sigma)
        assert (est["iters"], est["lr"], est["seed"]) == (ocfg.iterations, ocfg.lr, ocfg.seed)
        render = vars(parser.parse_args(["render", "ev.evt1", "--out", "x.pgm"]))
        assert (render["k"], render["nbins"]) == (obj.k, obj.n_bins)

    @pytest.mark.parametrize("name", list(UNCHANGED_ESTIMATE))
    def test_estimate_bytes_unchanged(self, tmp_path, name):
        extra, digests = UNCHANGED_ESTIMATE[name]
        paths = fixed_inputs(tmp_path)
        out = tmp_path / "est"
        assert main(["estimate", str(paths["events"]), "--out", str(out), *ESTIMATE_ARGV, *extra]) == 0
        assert {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in digests} == digests
        # R moves off 0 once the field does, so the fit ran through the
        # delta field's pullback as well as the volume's; the baseline has
        # lambda = 0
        r = [float(row.split(",")[3]) for row in (out / "trace.csv").read_text().splitlines()[1:]]
        assert len(r) == 5 and r[0] == 0.0
        assert all(v == 0.0 for v in r) if name == "fixed-ref" else all(v > 0.0 for v in r[1:])

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
            ("--seed", "-1", "seed"), ("--sigma", "inf", "sigma"), ("--lambda", "inf", "lambda"),
            ("--lr", "inf", "step size"), ("--sigma", "1e308", "sigma"),
        ],
    )
    def test_bad_setting_exits_2(self, scene_file, tmp_path, capsys, flag, value, match):
        data = tmp_path / "data"
        main(["synth", str(scene_file), "--out", str(data), "--seed", "1"])
        out = tmp_path / "est"
        rc = main(["estimate", str(data / "events.evt1"), "--out", str(out), "--k", "8", flag, value])
        assert rc == 2
        assert match in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("times", ["1.5", "nan", "0.5,nan", "0.5,abc", "1,,0", ""])
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

    def test_no_time_weighting_is_recorded_and_changes_the_fit(self, scene_file, tmp_path):
        data = tmp_path / "data"
        main(["synth", str(scene_file), "--out", str(data), "--seed", "1"])
        runs = {}
        for name, extra in (("default", []), ("flat", ["--no-time-weighting"])):
            out = tmp_path / name
            rc = main(["estimate", str(data / "events.evt1"), "--out", str(out),
                       "--basis", "poly", "--degree", "1", "--iters", "3", "--k", "8", *extra])
            assert rc == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["args"]["no_time_weighting"] is bool(extra)
            runs[name] = (out / "trace.csv").read_text()
        assert runs["default"] != runs["flat"]

    @pytest.mark.parametrize(
        "flag, value, match",
        [("--k", "100", "exceeds the anchor count 64"), ("--k", "0", "k must be >= 1"), ("--nbins", "0", "n_bins"),
         ("--degree", "1100", "bezier degree 1100 exceeds 1029")],
    )
    def test_bad_association_exits_2_before_writing(self, scene_file, tmp_path, capsys, flag, value, match):
        data = tmp_path / "data"
        main(["synth", str(scene_file), "--out", str(data), "--seed", "1"])
        out = tmp_path / "est"
        rc = main(["estimate", str(data / "events.evt1"), "--out", str(out), "--iters", "3", flag, value])
        assert rc == 2
        assert match in capsys.readouterr().err
        assert not out.exists()

    def test_oversized_header_value_exits_2_before_the_fit(self, scene_file, tmp_path, capsys):
        # TRJ1 stores the stride as u16; the header is checked before the
        # fit, not when the field is written after it
        data = tmp_path / "data"
        main(["synth", str(scene_file), "--out", str(data), "--seed", "1"])
        out = tmp_path / "est"
        rc = main(["estimate", str(data / "events.evt1"), "--out", str(out), "--iters", "1",
                   "--stride", "65536", "--k", "1", "--degree", "1"])
        assert rc == 2
        assert "TRJ1 header stride 65536 does not fit" in capsys.readouterr().err
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

    @pytest.mark.parametrize(
        "text",
        ["[]", "{", '{"command": "estimate"}', '{"command": "fit", "args": {}}',
         '{"command": ["synth"], "args": {}}', '{"command": "synth", "args": []}', *BAD_ESTIMATE_KEYS],
        ids=lambda text: BAD_ESTIMATE_KEYS.get(text, text),
    )
    def test_rerun_rejects_malformed_manifest(self, tmp_path, capsys, monkeypatch, text):
        # the estimate manifests' relative paths resolve under tmp_path
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "manifest.json"
        path.write_text(text)
        assert main(["rerun", str(path)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err
        if text in BAD_ESTIMATE_KEYS:
            assert f"manifest key {BAD_ESTIMATE_KEYS[text]!r}" in err
        assert list(tmp_path.iterdir()) == [path]

    def test_rerun_non_utf8_manifest_exits_2_naming_file_and_byte(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        path.write_bytes(b"\xff{}")
        assert main(["rerun", str(path)]) == 2
        assert f"{path}: not UTF-8 text at byte 0" in capsys.readouterr().err


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

    def test_report_bytes_unchanged(self, tmp_path):
        paths = fixed_inputs(tmp_path)
        rc = main(["eval", "--pred", *map(str, paths["pred"]), "--gt", *map(str, paths["gt"]),
                   "--events", str(paths["events"]), "--out", str(tmp_path / "rep")])
        assert rc == 0
        assert (tmp_path / "rep" / "report.csv").read_text() == UNCHANGED_REPORT

    def test_files_written_before_the_report_is_printed(self, scene_file, tmp_path, monkeypatch):
        # as when stdout is a pipe whose reader has gone, `evtraj eval ... | head -2`
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

        data = tmp_path / "data"
        main(["synth", str(scene_file), "--out", str(data), "--seed", "2"])
        maps = [str(data / "gt_00.flo1"), str(data / "gt_01.flo1")]
        monkeypatch.setattr("sys.stdout", ClosedPipe())
        rep = tmp_path / "rep"
        main(["eval", "--pred", *maps, "--gt", *maps, "--events", str(data / "events.evt1"), "--out", str(rep)])
        assert sorted(p.name for p in rep.iterdir()) == ["manifest.json", "report.csv", "report.txt"]
        assert (rep / "report.txt").read_text().startswith("EPE")

    def test_maps_pair_and_score_by_stored_time(self, scene_file, tmp_path):
        # maps whose name order is not their time order: eval pairs them by
        # stored time and takes EPE at the latest, t = 1, where the zero-flow
        # prediction of the (3,-2) field is off by |v|
        data, est = tmp_path / "data", tmp_path / "est"
        main(["synth", str(scene_file), "--out", str(data), "--seed", "2"])
        main(["estimate", str(data / "events.evt1"), "--out", str(est), "--basis", "poly", "--degree", "1",
              "--iters", "0", "--k", "8", "--flow-times", "1,0.5"])
        renamed = {"a_t1": est / "flow_00.flo1", "b_t05": est / "flow_01.flo1",
                   "x_t1": data / "gt_01.flo1", "y_t05": data / "gt_00.flo1"}
        for name, src in renamed.items():
            (tmp_path / f"{name}.flo1").write_bytes(src.read_bytes())
        for pred, gt in [
            ([est / "flow_00.flo1", est / "flow_01.flo1"], [data / "gt_00.flo1", data / "gt_01.flo1"]),
            ([tmp_path / "a_t1.flo1", tmp_path / "b_t05.flo1"], [tmp_path / "x_t1.flo1", tmp_path / "y_t05.flo1"]),
        ]:
            rep = tmp_path / f"report_{pred[0].stem}"
            rc = main(["eval", "--pred", *map(str, pred), "--gt", *map(str, gt),
                       "--events", str(data / "events.evt1"), "--out", str(rep)])
            assert rc == 0
            csv = (rep / "report.csv").read_text().splitlines()
            vals = dict(zip(csv[0].split(","), map(float, csv[1].split(","))))
            assert vals["epe"] == pytest.approx(np.hypot(3, 2), rel=1e-6)
            assert vals["tepe"] == pytest.approx(0.75 * np.hypot(3, 2), rel=1e-6)

    def test_map_counts_differing_exit_2(self, scene_file, tmp_path, capsys):
        data = tmp_path / "data"
        main(["synth", str(scene_file), "--out", str(data), "--seed", "2"])
        rc = main(["eval", "--pred", str(data / "gt_00.flo1"), str(data / "gt_01.flo1"),
                   "--gt", str(data / "gt_01.flo1"), "--events", str(data / "events.evt1"),
                   "--out", str(tmp_path / "rep")])
        assert rc == 2
        assert "--pred and --gt must pair up one or more maps, got 2 and 1" in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()

    def test_pred_and_gt_sizes_differing_exit_2(self, scene_file, tmp_path, capsys):
        data = tmp_path / "data"
        main(["synth", str(scene_file), "--out", str(data), "--seed", "2"])
        gt = tmp_path / "gt.flo1"
        save_flow(gt, np.zeros((16, 16, 2)), 1.0)
        pred = data / "gt_01.flo1"
        rc = main(["eval", "--pred", str(pred), "--gt", str(gt), "--events", str(data / "events.evt1")])
        assert rc == 2
        assert f"{gt} is 16x16 but the sensor is 32x32" in capsys.readouterr().err

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

    @pytest.mark.parametrize("size", [16, 48])
    def test_maps_not_matching_the_sensor_exit_2(self, scene_file, tmp_path, capsys, size):
        # the scene's sensor is 32x32; smaller maps used to crash, larger
        # ones to report a wrong FWL
        data = tmp_path / "data"
        main(["synth", str(scene_file), "--out", str(data), "--seed", "2"])
        flow = tmp_path / "flow.flo1"
        save_flow(flow, np.zeros((size, size, 2)), 1.0)
        rc = main(["eval", "--pred", str(flow), "--gt", str(flow), "--events", str(data / "events.evt1")])
        assert rc == 2
        assert str(flow) in capsys.readouterr().err

    def test_map_time_outside_unit_interval_exits_2(self, scene_file, tmp_path, capsys):
        # a map stamped t = -0.5 used to give an all-zero volume and FWL 1
        data = tmp_path / "data"
        main(["synth", str(scene_file), "--out", str(data), "--seed", "2"])
        flow = tmp_path / "flow.flo1"
        save_flow(flow, np.full((32, 32, 2), 5.0), -0.5)
        rc = main(["eval", "--pred", str(flow), "--gt", str(flow), "--events", str(data / "events.evt1"),
                   "--out", str(tmp_path / "rep")])
        assert rc == 2
        assert f"{flow}: flow time -0.5 lies outside [0, 1]" in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()

    def test_pair_without_shared_valid_pixel_names_both_maps(self, scene_file, tmp_path, capsys):
        data = tmp_path / "data"
        main(["synth", str(scene_file), "--out", str(data), "--seed", "2"])
        flow = tmp_path / "flow.flo1"
        save_flow(flow, np.zeros((32, 32, 2)), 1.0, valid=np.zeros((32, 32), bool))
        gt = data / "gt_01.flo1"
        rc = main(["eval", "--pred", str(flow), "--gt", str(gt), "--events", str(data / "events.evt1")])
        assert rc == 2
        assert f"{flow} and {gt} share no valid pixel" in capsys.readouterr().err

    def test_non_finite_map_time_exits_2(self, scene_file, tmp_path, capsys):
        # a NaN time used to pass the time-match check against any map
        data = tmp_path / "data"
        main(["synth", str(scene_file), "--out", str(data), "--seed", "2"])
        flow = tmp_path / "flow.flo1"
        save_flow(flow, np.zeros((32, 32, 2)), 1.0)
        raw = bytearray(flow.read_bytes())
        raw[12:20] = struct.pack("<d", float("nan"))
        flow.write_bytes(bytes(raw))
        rc = main(["eval", "--pred", str(flow), "--gt", str(data / "gt_01.flo1"),
                   "--events", str(data / "events.evt1")])
        assert rc == 2
        assert f"{flow}: FLO1 time nan at byte 12 is not finite" in capsys.readouterr().err


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

    @pytest.mark.parametrize("name", ["plain", "field"])
    def test_pgm_bytes_unchanged(self, tmp_path, name):
        paths = fixed_inputs(tmp_path)
        extra = ["--field", str(paths["field"]), "--k", "4", "--tref", "0.3"] if name == "field" else []
        out = tmp_path / "iwe.pgm"
        assert main(["render", str(paths["events"]), "--out", str(out), *extra]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == UNCHANGED_PGM[name]

    def test_k_beyond_the_field_names_the_flag_and_file(self, tmp_path, capsys):
        # a 32x24 field on stride 8 has 12 anchors, fewer than the default k
        events, field = tmp_path / "events.evt1", tmp_path / "field.trj1"
        save_events(EventSlice.from_arrays([1, 30], [2, 20], [0.0, 1.0], [1, -1], 32, 24), events)
        save_field(TrajectoryField.zeros(32, 24, 8, Basis(POLYNOMIAL, 1)), field)
        rc = main(["render", str(events), "--field", str(field), "--out", str(tmp_path / "x.pgm")])
        assert rc == 2
        assert f"{field}: --k 32 exceeds the field's anchor count 12" in capsys.readouterr().err
        assert main(["render", str(events), "--field", str(field), "--k", "4", "--out", str(tmp_path / "x.pgm")]) == 0

    def test_field_of_another_size_names_the_file(self, tmp_path, capsys):
        # 30 pixels on stride 4 take as many cells as the sensor's 32
        events, field = tmp_path / "events.evt1", tmp_path / "field.trj1"
        save_events(EventSlice.from_arrays([1, 30], [2, 20], [0.0, 1.0], [1, -1], 32, 24), events)
        save_field(TrajectoryField.zeros(30, 24, 4, Basis(POLYNOMIAL, 1)), field)
        rc = main(["render", str(events), "--field", str(field), "--k", "4", "--out", str(tmp_path / "x.pgm")])
        assert rc == 2
        assert f"{field} is 30x24 but the sensor is 32x24" in capsys.readouterr().err

    def test_bezier_field_whose_binomials_overflow_names_the_degree_byte(self, tmp_path, capsys):
        events, field = tmp_path / "events.evt1", tmp_path / "field.trj1"
        save_events(EventSlice.from_arrays([1, 30], [2, 20], [0.0, 1.0], [1, -1], 32, 24), events)
        save_field(TrajectoryField.zeros(32, 24, 4, Basis(POLYNOMIAL, 1100)), field)
        raw = field.read_bytes()
        field.write_bytes(raw[:4] + b"\x01" + raw[5:])  # the same degree, as a Bezier field
        rc = main(["render", str(events), "--field", str(field), "--k", "4", "--out", str(tmp_path / "x.pgm")])
        assert rc == 2
        assert f"{field}: TRJ1 bezier degree 1100 at byte 5" in capsys.readouterr().err
        assert not (tmp_path / "x.pgm").exists()

    def test_zero_bins_exits_2(self, scene_file, tmp_path, capsys):
        data = tmp_path / "data"
        main(["synth", str(scene_file), "--out", str(data), "--seed", "4"])
        rc = main(["render", str(data / "events.evt1"), "--out", str(tmp_path / "x.pgm"), "--nbins", "0"])
        assert rc == 2
        assert "n_bins" in capsys.readouterr().err

    def test_missing_events_exits_2(self, tmp_path):
        rc = main(["render", str(tmp_path / "nope.evt1"), "--out", str(tmp_path / "x.pgm")])
        assert rc == 2
