import struct

import numpy as np
import pytest

from evtraj.flowio import load_flow, save_flow


class TestFlo1:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        flow = rng.normal(0, 3, (12, 16, 2)).astype(np.float32).astype(np.float64)
        path = tmp_path / "f.flo1"
        save_flow(path, flow, t=0.75)
        back, t, valid = load_flow(path)
        assert t == 0.75
        assert valid.all()
        np.testing.assert_array_equal(back, flow)

    def test_invalid_pixels_as_nan(self, tmp_path):
        flow = np.ones((4, 4, 2))
        valid = np.ones((4, 4), bool)
        valid[1, 2] = False
        path = tmp_path / "f.flo1"
        save_flow(path, flow, t=1.0, valid=valid)
        back, _, back_valid = load_flow(path)
        np.testing.assert_array_equal(back_valid, valid)
        assert np.isnan(back[1, 2]).all()
        assert back[0, 0, 0] == 1.0

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.flo1"
        path.write_bytes(b"JUNKxxxxyyyyzzzz")
        with pytest.raises(ValueError, match="FLO1"):
            load_flow(path)

    @pytest.mark.parametrize(
        "edit", [lambda raw: raw[:-5], lambda raw: raw + b"\x00" * 4], ids=["truncated", "trailing"]
    )
    def test_body_length_names_path_and_offset(self, tmp_path, edit):
        path = tmp_path / "f.flo1"
        save_flow(path, np.zeros((3, 5, 2)), t=0.5)
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(ValueError, match="should end at byte 140") as info:
            load_flow(path)
        assert str(path) in str(info.value)

    def test_signalling_nan_is_an_invalid_pixel(self, tmp_path):
        path = tmp_path / "f.flo1"
        save_flow(path, np.ones((2, 3, 2)), t=0.5)
        raw = bytearray(path.read_bytes())
        raw[20 + 8 : 20 + 12] = bytes.fromhex("0100807f")  # pixel (0, 1), dx: 0x7f800001
        path.write_bytes(bytes(raw))
        flow, _, valid = load_flow(path)
        assert not valid[0, 1]
        assert valid.sum() == 5
        assert np.isnan(flow[0, 1, 0])

    @pytest.mark.parametrize("t", [float("nan"), float("inf")])
    def test_non_finite_time_names_path_and_offset(self, tmp_path, t):
        path = tmp_path / "f.flo1"
        save_flow(path, np.zeros((2, 3, 2)), t=0.5)
        raw = bytearray(path.read_bytes())
        raw[12:20] = struct.pack("<d", t)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="time .* at byte 12") as info:
            load_flow(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), float("-inf")])
    def test_writer_refuses_non_finite_time(self, tmp_path, t):
        path = tmp_path / "f.flo1"
        with pytest.raises(ValueError, match="time must be finite"):
            save_flow(path, np.zeros((2, 3, 2)), t=t)
        assert not path.exists()

    @pytest.mark.parametrize("value", [1e39, float("nan")], ids=["over-f32", "nan"])
    def test_writer_refuses_non_finite_valid_pixel(self, tmp_path, value):
        flow = np.zeros((2, 3, 2))
        flow[1, 2, 0] = value
        path = tmp_path / "f.flo1"
        with pytest.raises(ValueError, match=r"pixel \(x=2, y=1\).*not finite in float32") as info:
            save_flow(path, flow, t=0.5)
        assert str(path) in str(info.value)
        assert not path.exists()
        # on an invalid pixel the same value is written as NaN
        valid = np.ones((2, 3), bool)
        valid[1, 2] = False
        save_flow(path, flow, t=0.5, valid=valid)
        np.testing.assert_array_equal(load_flow(path)[2], valid)

    def test_shape_validation(self, tmp_path):
        with pytest.raises(ValueError):
            save_flow(tmp_path / "f.flo1", np.zeros((4, 4)), t=0.0)
