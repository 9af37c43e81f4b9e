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

    def test_shape_validation(self, tmp_path):
        with pytest.raises(ValueError):
            save_flow(tmp_path / "f.flo1", np.zeros((4, 4)), t=0.0)
