"""Property tests of the file readers: a truncated or byte-edited EVT1, TRJ1
or FLO1 file either loads or raises a ValueError that names the path and
a byte offset."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evtraj.events import load_events, save_events
from evtraj.flowio import load_flow, save_flow
from evtraj.trajectory import BEZIER, Basis, load_field, save_field

from scenes import random_field, random_slice


def write_evt1(path):
    save_events(random_slice(np.random.default_rng(0), 6, 8, 6), path)


def write_trj1(path):
    save_field(random_field(np.random.default_rng(1), 8, 6, basis=Basis(BEZIER, 2)), path)


def write_flo1(path):
    save_flow(path, np.random.default_rng(2).normal(0.0, 2.0, (3, 4, 2)), t=0.5)


FORMATS = {
    "evt1": (write_evt1, load_events),
    "trj1": (write_trj1, load_field),
    "flo1": (write_flo1, load_flow),
}


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_edited_file_loads_or_names_path_and_offset(tmp_path_factory, fmt, data):
    write, load = FORMATS[fmt]
    path = tmp_path_factory.getbasetemp() / f"fuzz.{fmt}"
    write(path)
    raw = bytearray(path.read_bytes())
    if data.draw(st.booleans(), label="cut"):
        raw = raw[: data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        # up to four overwrites of 1-8 bytes each, clipped at the end of the file
        for _ in range(data.draw(st.integers(1, 4), label="writes")):
            pos = data.draw(st.integers(0, len(raw) - 1), label="position")
            chunk = data.draw(st.binary(min_size=1, max_size=8), label="bytes")
            raw[pos : pos + len(chunk)] = chunk[: len(raw) - pos]
    path.write_bytes(bytes(raw))
    try:
        load(path)
    except ValueError as exc:
        assert str(path) in str(exc)
        assert "byte" in str(exc)


HEADER_BYTES = {"evt1": 36, "trj1": 25, "flo1": 20}


@pytest.mark.parametrize("case", ["truncated-header", "bad-magic", "short-body", "trailing-bytes"])
@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_container_fault_names_path_format_and_offset(tmp_path, fmt, case):
    write, load = FORMATS[fmt]
    path = tmp_path / f"f.{fmt}"
    write(path)
    raw = path.read_bytes()
    edited, at = {
        "truncated-header": (raw[: HEADER_BYTES[fmt] - 1], HEADER_BYTES[fmt] - 1),
        "bad-magic": (b"NOPE" + raw[4:], 0),
        "short-body": (raw[:-1], len(raw) - 1),
        "trailing-bytes": (raw + b"\x00", len(raw) + 1),
    }[case]
    path.write_bytes(edited)
    with pytest.raises(ValueError) as info:
        load(path)
    message = str(info.value)
    assert message.startswith(f"{path}: {fmt.upper()} ")
    assert message.endswith(f" at byte {at}")
    if case in ("short-body", "trailing-bytes"):
        assert f"should end at byte {len(raw)}," in message
