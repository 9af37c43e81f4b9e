import numpy as np
import pytest

from evtraj.events import EventSlice, load_events, save_events


def random_slice(rng, n=1000, width=64, height=48):
    return EventSlice.from_arrays(
        rng.integers(0, width, n),
        rng.integers(0, height, n),
        rng.uniform(0.0, 2.0, n),
        rng.choice([-1, 1], n),
        width,
        height,
        t_start=0.0,
        t_end=2.0,
    )


class TestEventSlice:
    def test_empty_slice(self):
        sl = EventSlice.from_arrays([], [], [], [], 64, 64)
        assert len(sl) == 0
        assert sl.t_start == sl.t_end == 0.0

    def test_singleton(self):
        sl = EventSlice.from_arrays([3], [4], [0.5], [1], 64, 64)
        assert len(sl) == 1
        assert sl.t_start <= 0.5 <= sl.t_end

    def test_unsorted_input_is_repaired_stably(self):
        # two events share t=0.5; their input order must survive the sort
        sl = EventSlice.from_arrays(
            [9, 1, 2], [0, 0, 0], [0.5, 0.5, 0.1], [1, -1, 1], 16, 16
        )
        assert list(sl.t) == [0.1, 0.5, 0.5]
        assert list(sl.x) == [2, 9, 1]

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            EventSlice.from_arrays([99], [0], [0.0], [1], 16, 16)
        with pytest.raises(ValueError):
            EventSlice.from_arrays([0], [0], [0.0], [2], 16, 16)
        with pytest.raises(ValueError):
            EventSlice.from_arrays([0], [0], [np.nan], [1], 16, 16)

    @pytest.mark.parametrize("t_start, t_end", [(np.nan, 1.0), (0.0, np.inf), (0.0, np.nan), (1.0, 0.5)])
    def test_bad_time_span_rejected(self, t_start, t_end):
        with pytest.raises(ValueError, match="t_start <= t_end"):
            EventSlice.from_arrays([1], [1], [0.5], [1], 4, 4, t_start=t_start, t_end=t_end)

    def test_normalized_times(self):
        sl = EventSlice.from_arrays([0, 1], [0, 0], [1.0, 3.0], [1, 1], 8, 8)
        np.testing.assert_allclose(sl.normalized_times(), [0.0, 1.0])


class TestBinaryFormat:
    def test_empty_roundtrip(self, tmp_path):
        sl = EventSlice.from_arrays([], [], [], [], 64, 64)
        path = tmp_path / "empty.evt1"
        save_events(sl, path)
        back = load_events(path)
        assert len(back) == 0
        assert back.width == 64 and back.height == 64

    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        sl = random_slice(rng, n=10000)
        path = tmp_path / "a.evt1"
        save_events(sl, path)
        back = load_events(path)
        path2 = tmp_path / "b.evt1"
        save_events(back, path2)
        assert path.read_bytes() == path2.read_bytes()
        np.testing.assert_array_equal(back.t, sl.t)
        np.testing.assert_array_equal(back.x, sl.x)
        np.testing.assert_array_equal(back.p, sl.p)

    def test_bad_magic_names_offset(self, tmp_path):
        path = tmp_path / "bad.evt1"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError, match="byte 0"):
            load_events(path)

    def test_truncated_body(self, tmp_path):
        rng = np.random.default_rng(0)
        sl = random_slice(rng, n=10)
        path = tmp_path / "trunc.evt1"
        save_events(sl, path)
        path.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(ValueError, match="ends at byte"):
            load_events(path)

    def test_trailing_bytes_name_path_and_offset(self, tmp_path):
        rng = np.random.default_rng(0)
        sl = random_slice(rng, n=10)
        path = tmp_path / "trailing.evt1"
        save_events(sl, path)
        path.write_bytes(path.read_bytes() + b"junk")
        # header 36 bytes + 10 records of 14 bytes
        with pytest.raises(ValueError, match="end at byte 176, file ends at byte 180") as info:
            load_events(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize(
        "offset, value, at",
        [
            (4, (0).to_bytes(4, "little"), 4),
            (8, (0).to_bytes(4, "little"), 8),
            (20, np.float64(np.nan).tobytes(), 20),
            (28, np.float64(np.inf).tobytes(), 28),
            # a t_start past t_end is reported at t_end, the field that must follow it
            (20, np.float64(3.0).tobytes(), 28),
        ],
        ids=["zero-width", "zero-height", "nan-t_start", "inf-t_end", "t_start-after-t_end"],
    )
    def test_bad_header_names_path_and_offset(self, tmp_path, offset, value, at):
        path = tmp_path / "header.evt1"
        save_events(EventSlice.from_arrays([], [], [], [], 64, 48, 0.0, 2.0), path)
        raw = bytearray(path.read_bytes())
        raw[offset : offset + len(value)] = value
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=f"at byte {at} ") as info:
            load_events(path)
        assert str(path) in str(info.value)

    def test_wide_sensor_rejected_on_save(self, tmp_path):
        # x = 65540 would wrap to 4 in the u16 record field
        sl = EventSlice.from_arrays([65540], [0], [0.5], [1], 70000, 4)
        path = tmp_path / "wide.evt1"
        with pytest.raises(ValueError, match="65536") as info:
            save_events(sl, path)
        assert str(path) in str(info.value)

    def test_out_of_bounds_coordinate_names_offset(self, tmp_path):
        rng = np.random.default_rng(1)
        sl = random_slice(rng, n=3, width=64, height=64)
        path = tmp_path / "oob.evt1"
        save_events(sl, path)
        raw = bytearray(path.read_bytes())
        # x of record 1 lives at header(36) + 14 + 8
        raw[36 + 14 + 8 : 36 + 14 + 10] = (60000).to_bytes(2, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="out-of-bounds"):
            load_events(path)
