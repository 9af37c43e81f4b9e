import numpy as np
import pytest

from evtraj.trajectory import (
    BEZIER,
    POLYNOMIAL,
    Basis,
    TrajectoryField,
    anchor_grid,
    contract_basis,
    displacement_basis,
    eval_trajectory_batch,
    load_field,
    save_field,
)

from oracles import bernstein_direct, de_casteljau, traj_position_scalar
from scenes import random_field


class TestEvalTrajectory:
    def test_zero_coefficients_stay_at_anchor(self):
        field = TrajectoryField.zeros(16, 16, 4, Basis(POLYNOMIAL, 3))
        pos = eval_trajectory_batch(field, [0.0, 0.3, 1.0])
        np.testing.assert_allclose(pos, np.broadcast_to(field.anchor_positions(), pos.shape))

    def test_linear_endpoint(self):
        field = TrajectoryField.zeros(16, 16, 4, Basis(POLYNOMIAL, 1))
        field.coeffs[1, 2, 0] = [5.0, -3.0]
        anchor = 1 * 4 + 2
        base = field.anchor_positions()[anchor]
        np.testing.assert_allclose(eval_trajectory_batch(field, [1.0])[0, anchor], base + [5.0, -3.0])

    def test_displacement_zero_at_t0(self):
        rng = np.random.default_rng(4)
        for basis in (Basis(POLYNOMIAL, 4), Basis(BEZIER, 10)):
            field = random_field(rng, basis=basis, scale=3.0)
            pos0 = eval_trajectory_batch(field, [0.0])[0]
            np.testing.assert_array_equal(pos0, field.anchor_positions())

    def test_bezier_matches_de_casteljau_on_pinned_polygon(self):
        rng = np.random.default_rng(9)
        field = random_field(rng, basis=Basis(BEZIER, 10), scale=3.0)
        anchor = 7
        base = field.anchor_positions()[anchor]
        # pinned control polygon: anchor itself, then anchor + offsets
        polygon = np.vstack([np.zeros(2), field.flat_coeffs()[anchor]]) + base
        got = eval_trajectory_batch(field, [0.37])[0, anchor]
        ref = de_casteljau(polygon, 0.37)
        np.testing.assert_allclose(got, ref, atol=1e-10)

    def test_linearity_in_coefficients(self):
        rng = np.random.default_rng(12)
        basis = Basis(BEZIER, 6)
        fa = random_field(rng, basis=basis, scale=3.0)
        fb = random_field(rng, basis=basis, scale=3.0)
        a, b = 0.7, -1.3
        mix = fa.copy()
        mix.coeffs = a * fa.coeffs + b * fb.coeffs
        t = 0.41
        anchor_pos = fa.anchor_positions()
        mixed = eval_trajectory_batch(mix, [t])[0]
        combo = (
            a * eval_trajectory_batch(fa, [t])[0]
            + b * eval_trajectory_batch(fb, [t])[0]
            + (1 - a - b) * anchor_pos
        )
        np.testing.assert_allclose(mixed, combo, atol=1e-10)

    def test_degree1_polynomial_is_constant_flow(self):
        field = TrajectoryField.zeros(8, 8, 4, Basis(POLYNOMIAL, 1))
        v = np.array([2.5, -1.0])
        field.coeffs[..., :] = v
        for t in np.linspace(0, 1, 9):
            disp = eval_trajectory_batch(field, [t])[0] - field.anchor_positions()
            np.testing.assert_array_equal(disp, np.broadcast_to(t * v, disp.shape))


class TestBatchEvaluation:
    def test_t0_is_anchor_grid(self):
        rng = np.random.default_rng(1)
        field = random_field(rng, basis=Basis(BEZIER, 10), scale=3.0)
        np.testing.assert_array_equal(
            eval_trajectory_batch(field, [0.0])[0], field.anchor_positions()
        )

    def test_matches_scalar_calls(self):
        rng = np.random.default_rng(3)
        field = random_field(rng, width=8, height=8, stride=4, basis=Basis(POLYNOMIAL, 3), scale=3.0)
        times = [0.1, 0.5, 0.9]
        batch = eval_trajectory_batch(field, times)
        for ti, t in enumerate(times):
            for n in range(field.n_anchors):
                np.testing.assert_allclose(
                    batch[ti, n], traj_position_scalar(field, n, t), atol=1e-12
                )

    def test_bounded_by_coefficient_magnitude(self):
        rng = np.random.default_rng(8)
        field = random_field(rng, basis=Basis(BEZIER, 10), scale=2.0)
        times = (np.arange(15) + 0.5) / 15
        pos = eval_trajectory_batch(field, times)
        assert np.all(np.isfinite(pos))
        bound = np.abs(field.coeffs).sum(axis=(2,)).max()
        assert np.abs(pos - field.anchor_positions()[None]).max() <= bound


class TestContractBasis:
    """``contract_basis`` forms the sums of the two np.einsum contractions
    it stands for, bit for bit: basis values against coefficients, as in
    ``eval_trajectory_batch`` and a neighbour mean, and step cotangents back
    to coefficients, as in a neighbour mean's pullback."""

    @pytest.mark.parametrize("fill", ["random", "negative_zero"])
    @pytest.mark.parametrize("n_bins", [1, 2, 15])
    @pytest.mark.parametrize(
        "basis", [Basis(POLYNOMIAL, 1), Basis(BEZIER, 1), Basis(POLYNOMIAL, 4), Basis(BEZIER, 10)],
        ids=["poly1", "bezier1", "poly4", "bezier10"],
    )
    def test_equals_einsum(self, basis, n_bins, fill):
        # a bin's positions at its centre, and the steps between consecutive
        # centres, none for one bin, as the delta field forms them. The -0.0
        # field and cotangents give -0.0 terms only: einsum's sums start at
        # +0.0, so none may come out -0.0
        rng = np.random.default_rng(n_bins)
        field = TrajectoryField.zeros(20, 12, 4, basis)
        n, d = field.n_anchors, basis.degree
        t = (np.arange(n_bins) + 0.5) / n_bins
        g = displacement_basis(basis, t)
        steps = displacement_basis(basis, t[1:]) - displacement_basis(basis, t[:-1])
        assert steps.shape == (n_bins - 1, d)
        for w in (g, steps):
            if fill == "random":
                field.coeffs[...] = rng.normal(0.0, 3.0, field.coeffs.shape)
                cot = rng.normal(0.0, 1.0, (len(w), n, 2))
            else:
                field.coeffs[...] = -0.0
                cot = np.full((len(w), n, 2), -0.0)
            forward = contract_basis(w, field.basis_rows()).reshape(len(w), n, 2)
            assert forward.tobytes() == np.einsum("td,ndc->tnc", w, field.flat_coeffs()).tobytes()
            back = contract_basis(w.T, cot.reshape(len(w), 2 * n)).reshape(d, n, 2).transpose(1, 0, 2)
            assert back.tobytes() == np.einsum("bnc,bd->ndc", cot, w).tobytes()
            if fill == "negative_zero":
                assert not np.signbit(forward).any() and not np.signbit(back).any()
                assert (forward == 0.0).all() and (back == 0.0).all()

    def test_eval_trajectory_batch_equals_einsum(self):
        rng = np.random.default_rng(4)
        field = random_field(rng, basis=Basis(POLYNOMIAL, 3), scale=3.0)
        times = np.linspace(0.0, 1.0, 7)
        want = field.anchor_positions()[None] + np.einsum(
            "td,ndc->tnc", displacement_basis(field.basis, times), field.flat_coeffs()
        )
        assert eval_trajectory_batch(field, times).tobytes() == want.tobytes()


class TestGridAndIo:
    def test_anchor_grid_centers(self):
        rows, cols, pos = anchor_grid(8, 8, 4)
        assert (rows, cols) == (2, 2)
        np.testing.assert_allclose(pos[0], [1.5, 1.5])
        np.testing.assert_allclose(pos[3], [5.5, 5.5])

    def test_grid_covers_non_divisible_dims(self):
        rows, cols, _ = anchor_grid(10, 6, 4)
        assert (rows, cols) == (2, 3)

    def test_trj1_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        field = random_field(rng, basis=Basis(BEZIER, 4), scale=3.0)
        field.coeffs[...] = field.coeffs.astype(np.float32)  # exact under f32 storage
        path = tmp_path / "f.trj1"
        save_field(field, path)
        back = load_field(path)
        assert back.basis == field.basis
        assert back.stride == field.stride
        assert (back.width, back.height) == (field.width, field.height)
        np.testing.assert_array_equal(back.coeffs, field.coeffs)

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda raw: raw[:-3], "ends at byte"),
            (lambda raw: raw + b"\x00", "ends at byte"),
            (lambda raw: raw[:4] + b"\x07" + raw[5:], "basis code 7 at byte 4"),
            (lambda raw: raw[:5] + b"\x00\x00" + raw[7:], "degree 0 at byte 5"),
            (lambda raw: raw[:5] + (1030).to_bytes(2, "little") + raw[7:], "bezier degree 1030 at byte 5 exceeds 1029"),
            (lambda raw: raw[:7] + b"\x00\x00" + raw[9:], "stride 0 at byte 7"),
            # 1x4 anchors hold as many coefficients as the true 2x2 grid
            (lambda raw: raw[:9] + (1).to_bytes(4, "little") + (4).to_bytes(4, "little") + raw[17:],
             "grid 1x4 at byte 9"),
            # a signalling NaN (0x7f800001) as the second coefficient; the header is 25 bytes
            (lambda raw: raw[:29] + bytes.fromhex("0100807f") + raw[33:],
             "TRJ1 non-finite coefficient at byte 29"),
        ],
        ids=["truncated-body", "trailing-bytes", "unknown-basis-code", "zero-degree",
             "bezier-degree-overflows-binomials", "zero-stride",
             "grid-mismatch", "nan-coefficient"],
    )
    def test_trj1_malformed_names_path_and_offset(self, tmp_path, edit, match):
        path = tmp_path / "f.trj1"
        save_field(TrajectoryField.zeros(8, 8, 4, Basis(BEZIER, 2)), path)
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(ValueError, match=match) as info:
            load_field(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("value", [1e39, -1e39, float("nan")], ids=["over-f32", "under-f32", "nan"])
    def test_trj1_writer_refuses_what_the_reader_rejects(self, tmp_path, value):
        field = TrajectoryField.zeros(8, 8, 4, Basis(BEZIER, 2))
        field.coeffs[1, 0, 1, 1] = value
        path = tmp_path / "f.trj1"
        with pytest.raises(ValueError, match="not finite in float32") as info:
            save_field(field, path)
        assert str(path) in str(info.value)
        assert not path.exists()

    def test_bezier_degree_whose_binomials_overflow_rejected(self):
        # degree 1029's central binomial is finite in float64, degree 1030's is not
        assert np.all(np.isfinite(displacement_basis(Basis(BEZIER, 1029), [0.0, 0.5, 1.0])))
        with pytest.raises(ValueError, match="bezier degree 1030 exceeds 1029"):
            Basis(BEZIER, 1030)
        assert displacement_basis(Basis(POLYNOMIAL, 1100), [0.5]).shape == (1, 1100)

    def test_displacement_basis_shapes(self):
        assert displacement_basis(Basis(POLYNOMIAL, 3), [0.5, 1.0]).shape == (2, 3)
        assert displacement_basis(Basis(BEZIER, 10), [0.5]).shape == (1, 10)

    @pytest.mark.parametrize(
        "basis, t, want",
        [
            (Basis(POLYNOMIAL, 1), 0.5, [0.5]),
            # Bernstein B_1..B_10 by the factorial definition; B_0 is pinned
            (Basis(BEZIER, 10), 0.3, [bernstein_direct(10, j, 0.3) for j in range(1, 11)]),
            (Basis(POLYNOMIAL, 2), 1.5, ValueError),
            (Basis(BEZIER, 2), -0.01, ValueError),
            (Basis(POLYNOMIAL, 2), float("nan"), ValueError),
        ],
        ids=["poly1", "bezier10-bernstein", "poly-above-1", "bezier-below-0", "poly-nan"],
    )
    def test_displacement_basis_values(self, basis, t, want):
        if want is ValueError:
            with pytest.raises(ValueError):
                displacement_basis(basis, [t])
        else:
            np.testing.assert_allclose(displacement_basis(basis, [t])[0], want, atol=1e-15)
