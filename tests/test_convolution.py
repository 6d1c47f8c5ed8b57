"""Surface-measure convolutions, the extension operator, and the L4 norm."""

import tracemalloc

import numpy as np
import pytest

from sharpsphere import (
    DegenerateSliceError,
    FormGrids,
    GammaSample,
    HarmonicCoeffs,
    PairKernel,
    SphereFunction,
    build_ball_grid,
    build_sphere_grid,
    circle_frames,
    conv_profile,
    convolve_many,
    exact_sizes,
    extension_at,
    four_identity_many,
    gamma_samples,
    harmonic_values,
    pair_slice_average,
    random_band_limited,
)
from sharpsphere import convolution, harmonics
from sharpsphere.convolution import (SliceColumn, SlicePlan, SplitValues, pair_profile,
                                    slice_point_table)
from sharpsphere.harmonics import parity_signs

from helpers import (ball_points, ball_rows, dense, legendre_factor_reference, node_values,
                     plan_at, projected_ring_blocks, rand_fn, split, unit_vectors)

PI = np.pi
ONE = SphereFunction.constant(1.0)
# the ball grid of the paper's chain on refined grids: n_t = 24, n_r = 24
CHAIN_BALL = build_ball_grid(24, build_sphere_grid(24))


class TestLiteralSliceAverage:
    """The literal one-point route: pair_slice_average of PairKernel.tensor(f, g)."""

    def test_closed_form_on_random_points(self):
        xs = ball_points(np.random.default_rng(0), 200)
        r = np.linalg.norm(xs, axis=1)
        vals = pair_slice_average(PairKernel.tensor(ONE, ONE), xs, 16)
        assert np.all(np.abs(vals - 2 * PI / r) <= 1e-12 * (2 * PI / r))

    def test_batches_count_the_factors_harmonic_tables(self):
        # a coefficient-backed factor builds an (L+1)^2-row harmonic table at
        # the slice nodes, and the other one at the partners: 1,424 counted
        # bytes a node at L=8, so 2048 centres on 34 nodes take batches of 86
        # centres, about 2.3 MB traced for this complex f; counting 64 B a
        # node alone, one batch of 481 centres peaked near 32 MB
        f = rand_fn(8, 17, complex_valued=True)
        K = PairKernel.tensor(f, f.antipodal_conjugate())
        xs = ball_points(np.random.default_rng(18), 2048)
        tracemalloc.start()
        try:
            batch = pair_slice_average(K, xs, 34)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * convolution._CHUNK_BYTES
        few = pair_slice_average(K, xs[-7:], 34)
        assert np.abs(batch[-7:] - few).max() <= 1e-14 * np.abs(few).max()

    def test_a_plain_callable_takes_batches_of_a_stated_node_count(self):
        # the same kernel as a plain callable: its factors' harmonic tables
        # are out of the byte count's sight, so its batches hold at most
        # _CALLABLE_NODES slice nodes, 120 centres on 34 nodes; counted as
        # 128 B a node, one batch of 963 centres peaked near 26 MB
        f = rand_fn(8, 17, complex_valued=True)
        fs = f.antipodal_conjugate()
        xs = ball_points(np.random.default_rng(18), 2048)
        tracemalloc.start()
        try:
            batch = pair_slice_average(lambda a, b: f(a) * fs(b), xs, 34)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * convolution._CHUNK_BYTES
        tensor = pair_slice_average(PairKernel.tensor(f, fs), xs, 34)
        assert np.abs(batch - tensor).max() <= 1e-14 * np.abs(tensor).max()

    def test_unit_and_boundary_radii(self):
        xs = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
        unit, boundary = pair_slice_average(PairKernel.tensor(ONE, ONE), xs, 8)
        assert abs(unit - 2 * PI) <= 1e-12 * 2 * PI
        assert abs(boundary - PI) <= 1e-12 * PI

    def test_modulation_multiplies_phase(self):
        xi = np.array([0.7, -0.3, 1.1])
        f = SphereFunction.plane_wave(xi)
        g = f.antipodal_conjugate()
        xs = ball_points(np.random.default_rng(1), 50)
        expect = np.exp(1j * (xs @ xi)) * 2 * PI / np.linalg.norm(xs, axis=1)
        vals = pair_slice_average(PairKernel.tensor(f, g), xs, 48)
        assert np.all(np.abs(vals - expect) <= 1e-12 * np.abs(expect))

    @pytest.mark.parametrize("route", [
        lambda X: pair_slice_average(PairKernel.tensor(ONE, ONE), X, 8),
        lambda X: convolve_many(ONE, ONE, X, 8),
    ], ids=["pair_slice_average", "convolve_many"])
    @pytest.mark.parametrize("centre", [0.0, 1e-300], ids=["zero", "underflow"])
    def test_origin_rejected(self, route, centre):
        # |x| of 1e-300 underflows to 0: the slice there is as undefined
        with pytest.raises(DegenerateSliceError):
            route(np.array([[centre, 0.0, 0.0]]))

    def test_real_inputs_give_a_real_value(self):
        f = rand_fn(4, 14)
        x = np.array([[0.3, -0.2, 0.9]])
        val = pair_slice_average(PairKernel.tensor(f, f.sharp_rearrangement()), x, 16)[0]
        assert np.isrealobj(val) and np.ndim(val) == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_centre_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            convolve_many(ONE, ONE, [bad, 0.0, 0.5], 16)
        with pytest.raises(ValueError, match="finite"):
            pair_slice_average(lambda p, q: np.ones(len(p)), np.array([[bad, 0.0, 0.5]]), 16)

    def test_outside_support_is_exactly_zero(self):
        vals = convolve_many(ONE, ONE, np.array([[0.0, 0.0, 2.0001], [3.0, 1.0, 0.0]]), 8)
        assert np.all(vals == 0.0)

    def test_hermitian_symmetry_of_star_pairing(self):
        f = rand_fn(6, 2, complex_valued=True)
        g = f.antipodal_conjugate()
        xs = ball_points(np.random.default_rng(3), 40)
        a = pair_slice_average(PairKernel.tensor(f, g), xs, 32)
        b = pair_slice_average(PairKernel.tensor(f, g), -xs, 32)
        assert np.all(np.abs(b - np.conj(a)) <= 1e-12 * np.maximum(np.abs(a), 1.0))

    def test_pointwise_symmetrization_bound(self):
        f = rand_fn(6, 4, complex_valued=True)
        g = f.antipodal_conjugate()
        sharp = f.sharp_rearrangement()
        xs = ball_points(np.random.default_rng(5), 100)
        lhs = np.abs(convolve_many(f, g, xs, 32))
        rhs = convolve_many(sharp, sharp, xs, 32).real
        assert np.all(lhs <= rhs + 1e-10)

    def test_literal_batches_are_sized_by_their_slice_nodes(self):
        # 2048 centres at n_c=128 in one batch would hold 262144 nodes and
        # f's degree-4 harmonic table there, 178 MB traced; batches of 7936
        # nodes (16 _CHUNK_BYTES at 528 B a node, f's two 25-row tables
        # counted) keep the peak near f's tables on one batch, and each
        # centre's value is its own
        f = rand_fn(4, 17, complex_valued=True)
        xs = ball_points(np.random.default_rng(18), 2048)
        K = PairKernel.tensor(f, f)
        tracemalloc.start()
        try:
            batch = pair_slice_average(K, xs, 128)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * convolution._CHUNK_BYTES
        few = pair_slice_average(K, xs[-7:], 128)
        assert np.abs(batch[-7:] - few).max() <= 1e-14 * np.abs(few).max()

    def test_mixed_batch_zeroes_outside_support(self):
        xs = np.array([[0.5, 0.0, 0.0], [2.5, 0.0, 0.0], [0.0, 0.0, 1.5]])
        vals = convolve_many(ONE, ONE, xs, 16)
        assert vals[1] == 0.0
        assert abs(vals[0] - 4 * PI) <= 1e-12 * 4 * PI
        assert abs(vals[2] - 4 * PI / 3) <= 1e-12 * 4 * PI / 3


def _pair(case):
    """Inputs (f, g) that take different routes through the slice plan."""
    f = rand_fn(4, 6, complex_valued=True)
    if case == "complex":
        return f, rand_fn(4, 7, complex_valued=True)
    if case == "sharp":
        return f.sharp_rearrangement(), rand_fn(3, 9).sharp_rearrangement()
    if case == "plane-wave":
        return SphereFunction.plane_wave((0.4, -0.1, 0.6)), f
    if case == "mixed-degrees":
        return rand_fn(2, 10), f
    if case == "constant":
        return ONE, ONE
    return f, f


class TestConvolveMany:
    @pytest.mark.parametrize(
        "case", ["complex", "sharp", "plane-wave", "mixed-degrees", "same-object"])
    def test_matches_scalar_calls(self, case):
        f, g = _pair(case)
        xs = ball_points(np.random.default_rng(8), 25)
        batch = convolve_many(f, g, xs, 18)
        scalar = [pair_slice_average(PairKernel.tensor(f, g), x[None], 18)[0] for x in xs]
        for value, expect in zip(scalar, batch):
            assert abs(value - expect) <= 1e-13 * max(abs(expect), 1.0)

    def test_even_and_odd_angle_counts_agree(self):
        # even counts pair each angle with its opposite; odd counts pair on
        # their rule nodes and partners, 2 n_c nodes; both are exact here
        f = rand_fn(5, 9, complex_valued=True)
        g = rand_fn(5, 10, complex_valued=True)
        xs = ball_points(np.random.default_rng(11), 30)
        even = convolve_many(f, g, xs, 34)
        odd = convolve_many(f, g, xs, 35)
        scale = np.abs(even).max()
        assert np.abs(even - odd).max() <= 1e-12 * scale

    def test_odd_count_matches_the_literal_slice_average(self):
        f, g = _pair("complex")
        xs = ball_points(np.random.default_rng(12), 30)
        tensor = pair_slice_average(PairKernel.tensor(f, g), xs, 35)
        assert np.all(np.abs(convolve_many(f, g, xs, 35) - tensor) <= 1e-14 * np.abs(tensor))

    @pytest.mark.parametrize("n_c", [16, 17, 34, 35])
    @pytest.mark.parametrize(
        "case", ["complex", "sharp", "plane-wave", "constant", "mixed-degrees"])
    def test_is_the_literal_slice_sum(self, case, n_c):
        # convolve_many is pair_slice_average of f tensor g, bit for bit,
        # as complex values, with centres beyond |x| = 2 exactly 0
        f, g = _pair(case)
        xs = np.concatenate([ball_points(np.random.default_rng(13), 20),
                             [[0.0, 0.0, 2.5], [1.5, -1.5, 0.0]]])
        vals = convolve_many(f, g, xs, n_c)
        assert vals.dtype == complex
        assert np.array_equal(vals[:20], pair_slice_average(PairKernel.tensor(f, g), xs[:20], n_c))
        assert np.all(vals[20:] == 0.0)

    @pytest.mark.parametrize("n_c", [16, 17])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_values_are_rejected(self, n_c, bad):
        f = SphereFunction(lambda p: np.full(len(p), bad))
        xs = ball_points(np.random.default_rng(14), 5)
        with pytest.raises(ValueError):
            convolve_many(ONE, f, xs, n_c)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_centres_are_rejected(self, bad):
        xs = np.array([[bad, 0.0, 0.5], [0.0, 0.0, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            convolve_many(ONE, ONE, xs, 16)

    def test_batches_bound_the_harmonic_table(self):
        # 4096 centres at L=8 on 34 nodes: one 2048-centre table would take
        # 45 MB; pair_slice_average's batches, sized from the factors' table
        # bytes, keep the peak within 96 _CHUNK_BYTES (24 MiB), and each
        # centre's value is its own
        f = rand_fn(8, 15, complex_valued=True)
        xs = ball_points(np.random.default_rng(16), 4096)
        tracemalloc.start()
        try:
            batch = convolve_many(f, f, xs, 34)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 96 * convolution._CHUNK_BYTES
        few = convolve_many(f, f, xs[-7:], 34)
        assert np.abs(batch[-7:] - few).max() <= 1e-14 * np.abs(few).max()


class TestPairProfile:
    @pytest.mark.parametrize("L, odd", [(L, False) for L in (0, 1, 2, 4, 8)] + [(4, True)],
                             ids=["0", "1", "2", "4", "8", "4-odd"])
    def test_split_rows_match_the_dense_profiles(self, L, odd):
        # f and f_star at +-p, rows read negated, a sharp field and |.|^2 of each;
        # coefficient rows come as 2L+1 slice-angle modes, the rest at the
        # slice nodes: an odd column holds 2 n_c a slice, rule nodes then partners
        n_t, n_r, n_c = exact_sizes(L)
        col = SliceColumn(build_ball_grid(n_r, build_sphere_grid(n_t)), n_c + odd, L)
        f = rand_fn(L, 80 + L, complex_valued=True)
        fs = f.antipodal_conjugate()
        neg = SphereFunction.from_coeffs(HarmonicCoeffs(L, -f.coeffs.coeffs))
        plan = SlicePlan([(f, False), (fs, False), (f, True), (fs, True), (neg, False),
                          (neg, True), (f.sharp_rearrangement(), False), (rand_fn(L, 90), True)])
        assert len(plan.rows) == (3 if L == 0 else 5)
        vals = col.sampler(plan)
        assert vals[0].re.shape[-1] == 2 * L + 1
        assert vals[6].re.shape[-1] == (2 if odd else 1) * col.n_c
        own = convolution._expansion(L, 2 * (2 * L + 1))   # |.|^2's own rule
        for a in vals:
            for b in vals:
                whole = pair_profile(*(split(dense(node_values(v))) for v in (a, b)), col.radii)
                parts = pair_profile(a, b, col.radii)
                assert parts.dtype == whole.dtype
                assert np.abs(parts - whole).max() <= 1e-15 * np.abs(whole).max()
                # |a|^2 |b|^2: two factors in modes on the band limit's own
                # 2(2L+1) nodes, anything else at the column's
                moved = a.expansion is not None and b.expansion is not None
                da, db = (np.abs(dense(node_values(v._replace(expansion=own) if moved else v)))
                          ** 2 for v in (a, b))
                whole = pair_profile(split(da), split(db), col.radii)
                parts = pair_profile(a, b, col.radii, True)
                assert parts.dtype == whole.dtype == float
                assert np.abs(parts - whole).max() <= 1e-15 * np.abs(whole).max()

    def test_real_squares_are_one_square_of_the_values(self):
        v, w = np.random.default_rng(81).standard_normal((2, 3, 40))
        v[0, :3] = (-0.0, 0.0, -1e-200)
        formed = convolution._Formed((v,), None).form(0, 3)
        assert formed.view(np.int64).tolist() == (np.abs(v) ** 2).view(np.int64).tolist()
        squared = pair_profile(SplitValues(v, None, -1.0), SplitValues(w), np.ones(3), True)
        squares = pair_profile(SplitValues(np.square(v)), SplitValues(np.square(w)), np.ones(3))
        assert squared.view(np.int64).tolist() == squares.view(np.int64).tolist()

    def test_odd_slice_count_is_rejected(self):
        with pytest.raises(ValueError, match="even"):
            pair_profile(SplitValues(np.ones((2, 5))), SplitValues(np.ones((2, 5))), np.ones(2))

    @pytest.mark.parametrize("complex_valued", [False, True])
    def test_dense_arrays_take_the_power_at_their_own_nodes(self, complex_valued):
        # one slice of four nodes: |a|^2 = 1, 4, 9, 16 meets |b|^2 at the
        # partners, 1, 1/4, 4, 1, so the profile is (2 pi / 4) 54 = 27 pi,
        # real or with the same magnitudes split over two parts
        a, b = np.array([[1.0, -2.0, 3.0, -4.0]]), np.array([[2.0, 1.0, -1.0, 0.5]])
        if complex_valued:
            a, b = a * np.exp(0.3j), b * np.exp(-1.1j)
        got = pair_profile(split(a), split(b), np.ones(1), True)
        assert got.dtype == float and abs(got[0] - 27 * PI) <= 1e-15 * 27 * PI


class TestModePairing:
    """Band-limited slice values pair in slice-angle modes, by Parseval."""

    @staticmethod
    def profiles(L, n_c, complex_valued):
        # (modes, nodes, centres): f tensor g's profile on a column's first
        # n_t azimuth rows from its modes and from its n_c slice nodes, and
        # the slices' centres, the ball grid's nodes of those rows
        ball = build_ball_grid(4, build_sphere_grid(5))
        col = SliceColumn(ball, n_c, L)
        f, g = rand_fn(L, 130, complex_valued=complex_valued), rand_fn(L, 131)
        a, b = col.sampler(SlicePlan([(f, False), (g, False)]))
        assert a.expansion is col.expansion and a.re.shape[-1] == 2 * L + 1
        modes = pair_profile(a, b, col.radii)
        nodes = pair_profile(node_values(a), node_values(b), col.radii)
        return modes, nodes, ball_rows(ball, 0, col.n_t), (f, g)

    @pytest.mark.parametrize("n_c", [10, 11], ids=["even", "odd"])
    @pytest.mark.parametrize("complex_valued", [False, True])
    def test_matches_the_literal_slice_average(self, n_c, complex_valued):
        # n_c > 2L: the trapezoid rule on the slice is exact too
        modes, nodes, x, (f, g) = self.profiles(4, n_c, complex_valued)
        literal = pair_slice_average(lambda p, q: f(p) * g(q), x.reshape(-1, 3),
                                     n_c).reshape(x.shape[:-1])
        scale = np.abs(literal).max()
        assert modes.dtype == literal.dtype
        assert np.abs(modes - literal).max() <= 1e-14 * scale
        assert np.abs(nodes - literal).max() <= 1e-14 * scale

    @pytest.mark.parametrize("n_c", [6, 3], ids=["even", "odd"])
    def test_is_exact_at_few_slice_nodes(self, n_c):
        # N <= 2L nodes (N = n_c, or 2 n_c at odd n_c): the modes still match
        # a 4x-oversampled literal slice average, where the node route's
        # trapezoid rule misses it
        modes, nodes, x, (f, g) = self.profiles(4, n_c, True)
        literal = pair_slice_average(lambda p, q: f(p) * g(q), x.reshape(-1, 3),
                                     4 * n_c).reshape(x.shape[:-1])
        scale = np.abs(literal).max()
        assert np.abs(modes - literal).max() <= 1e-14 * scale
        assert np.abs(nodes - literal).max() > 1e-6 * scale

    def test_weights_are_the_slice_integral_of_a_and_b_half_a_turn_on(self):
        # at even n_c the expansion's nodes are the uniform angles in order
        psi = 2 * PI * np.arange(64) / 64
        full = convolution._expansion(3, 64)
        assert np.abs(full[5] - np.cos(3 * psi)).max() <= 1e-14
        assert np.abs(full[6] - np.sin(3 * psi)).max() <= 1e-14
        a, b = np.random.default_rng(132).standard_normal((2, 7))
        half_turn = np.roll(full, -32, axis=1)
        literal = (2 * PI / 64) * np.sum((a @ full) * (b @ half_turn))
        assert abs(convolution._mode_pair(a, b) - literal) <= 1e-14 * abs(literal)


class TestConvProfile:
    def test_flat_profile_matches_closed_form(self):
        radii = np.linspace(0.04, 2.0, 50)
        prof = conv_profile(ONE, ONE, radii)
        assert prof.shape == radii.shape
        assert np.abs(prof - 2 * PI / radii).max() <= 1e-12 * (2 * PI / radii).max()

    def test_profile_runs_along_z(self):
        radii = np.array([0.5, 1.0, 1.5])
        f = rand_fn(3, 12)
        a = conv_profile(f, f, radii)
        assert np.array_equal(a, convolve_many(f, f, radii[:, None] * [0.0, 0.0, 1.0], 64))

    def test_out_of_range_radii_rejected(self):
        with pytest.raises(ValueError):
            conv_profile(ONE, ONE, np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            conv_profile(ONE, ONE, np.array([1.0, 2.2]))

    def test_non_finite_radii_rejected(self):
        with pytest.raises(ValueError, match="radii"):
            conv_profile(ONE, ONE, np.array([np.nan, 1.0]))


class TestConvL2Norm:
    def test_flat_norm_closed_form(self, ball_default):
        val = FormGrids(ball_default, 64).conv_l2_norm(ONE, ONE)
        assert abs(val - np.sqrt(32 * PI ** 3)) <= 1e-10 * np.sqrt(32 * PI ** 3)

    def test_modulation_invariance(self, ball_default):
        f = SphereFunction.plane_wave(np.array([0.3, 0.5, -0.2]))
        val = FormGrids(ball_default, 64).conv_l2_norm(f, f.antipodal_conjugate())
        assert abs(val - np.sqrt(32 * PI ** 3)) <= 1e-10 * np.sqrt(32 * PI ** 3)

    def test_zero_function(self, ball_default):
        zero = SphereFunction.constant(0.0)
        assert FormGrids(ball_default, 16).conv_l2_norm(zero, zero) == 0.0

    @pytest.mark.parametrize("complex_valued", [False, True])
    def test_square_is_the_ball_sum_of_the_squared_convolution(self, complex_valued):
        f, g = rand_fn(4, 74, complex_valued=complex_valued), rand_fn(4, 75, complex_valued=True)
        n_t, n_r, n_c = exact_sizes(4)
        ball = build_ball_grid(n_r, build_sphere_grid(n_t))
        literal = np.sum(ball.weights() * np.abs(convolve_many(f, g, ball.points(), n_c)) ** 2)
        assert abs(FormGrids(ball, n_c).conv_l2_norm(f, g) ** 2 - literal) <= 1e-14 * literal

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_values_are_rejected(self, bad):
        f = SphereFunction(lambda p: np.full(len(p), bad))
        ball = build_ball_grid(2, build_sphere_grid(2))
        with pytest.raises(ValueError):
            FormGrids(ball, 4).conv_l2_norm(f, ONE)
        with pytest.raises(ValueError):
            FormGrids(ball, 4).l4_norm(f)


class TestExtension:
    def test_flat_extension_closed_form(self, grid32):
        f = ONE
        assert abs(extension_at(f, np.zeros(3), grid32) - 4 * PI) <= 1e-12 * 4 * PI
        at_pi = extension_at(f, np.array([0.0, 0.0, PI]), grid32)
        assert abs(at_pi) <= 1e-10
        at_one = extension_at(f, np.array([1.0, 0.0, 0.0]), grid32)
        assert abs(at_one - 4 * PI * np.sin(1.0)) <= 1e-12 * 4 * PI

    def test_flat_extension_at_random_points(self, grid32):
        for x in ball_points(np.random.default_rng(13), 50, r_min=0.1, r_max=3.0):
            r = np.linalg.norm(x)
            expect = 4 * PI * np.sin(r) / r
            assert abs(extension_at(ONE, x, grid32) - expect) <= 1e-10 * 4 * PI

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_point_rejected(self, grid32, bad):
        with pytest.raises(ValueError, match="finite"):
            extension_at(ONE, np.array([bad, 0.0, 1.0]), grid32)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_values_rejected(self, grid32, bad):
        # f non-finite at some grid nodes: NaN would be carried into the
        # value, and inf would warn and give NaN
        f = SphereFunction(lambda p: np.where(p[:, 2] > 0.5, bad, 1.0))
        with pytest.raises(ValueError, match="non-finite"):
            extension_at(f, np.array([0.3, 0.0, 1.0]), grid32)


class TestL4Norm:
    def test_flat_l4_closed_form(self, ball_default):
        val = FormGrids(ball_default, 64).l4_norm(ONE)
        assert abs(val - 4 * PI ** 1.5) <= 1e-10 * 4 * PI ** 1.5

    def test_plane_wave_matches_flat(self, ball_default):
        f = SphereFunction.plane_wave(np.array([0.0, 1.0, 0.0]))
        val = FormGrids(ball_default, 64).l4_norm(f)
        assert abs(val - 4 * PI ** 1.5) <= 1e-10 * 4 * PI ** 1.5

    def test_zero_function(self, ball_default):
        assert FormGrids(ball_default, 16).l4_norm(SphereFunction.constant(0.0)) == 0.0

    def test_stable_under_grid_refinement(self):
        f = rand_fn(8, 14)
        coarse = FormGrids(build_ball_grid(24, build_sphere_grid(16)), 32).l4_norm(f)
        # at least as fine as the coarse side and exact_sizes(8) in every size
        fine = FormGrids(build_ball_grid(26, build_sphere_grid(18)), 34).l4_norm(f)
        assert abs(coarse - fine) <= 1e-6 * fine


class TestSliceColumn:
    BALL = build_ball_grid(5, build_sphere_grid(6))

    @pytest.fixture(scope="class")
    def column(self):
        return SliceColumn(self.BALL, 10, 5)

    def test_rotated_column_is_the_slice_geometry(self, column):
        # azimuth row a of the ball grid is its row 0 turned about z by
        # alpha_a = a pi / n_t, node by node, and so are the slices there
        X = ball_rows(self.BALL, 0, column.n_t)
        first = slice_point_table(X[0], column.n_c)[0]
        for a in range(column.n_t):
            c, s = np.cos(a * PI / column.n_t), np.sin(a * PI / column.n_t)
            turn = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
            assert np.abs(X[0] @ turn - X[a]).max() <= 1e-15
            pts = slice_point_table(X[a], column.n_c)[0]
            assert np.abs(first @ turn - pts).max() <= 1e-15
        assert np.array_equal(column.weights, self.BALL.weights()[::2 * column.n_t])
        assert np.array_equal(column.radii, np.linalg.norm(X[0], axis=-1))

    def test_turn_covers_the_rows_the_ball_route_reads(self, column):
        # one turn per azimuth row a < n_t: f turned by alpha_a = a pi / n_t
        # about z, f(p turned), has the turned coefficients (harmonics._turn)
        n_t, L = column.n_t, column.L
        c = random_band_limited(L, np.random.default_rng(59)).coeffs
        turned = harmonics._turn(c[None], np.arange(n_t) * (PI / n_t))
        assert turned.shape == (n_t, (L + 1) ** 2)
        pts = unit_vectors(np.random.default_rng(58), 40)
        for a in range(n_t):
            ca, sa = np.cos(a * PI / n_t), np.sin(a * PI / n_t)
            turn = np.array([[ca, sa, 0.0], [-sa, ca, 0.0], [0.0, 0.0, 1.0]])
            expect = c @ harmonic_values(L, pts @ turn)
            got = turned[a] @ harmonic_values(L, pts)
            assert np.abs(got - expect).max() <= 1e-14 * np.abs(expect).max()
        for name in ("centres", "n_az", "trig", "table", "spectra", "_mix", "_turn"):
            assert not hasattr(column, name)

    @staticmethod
    def at_nodes(column, modes):
        # azimuth rows of slice-angle modes, taken to every slice node
        return modes.reshape(column.n_t, column.radii.size, -1) @ column.expansion

    def test_synthesis_matches_literal_evaluation(self, column):
        c = random_band_limited(5, np.random.default_rng(60)).coeffs
        fields = self.at_nodes(column, column.synthesize(c[None])[0])
        pts = slice_nodes(self.BALL, column.n_c, 0, column.n_t)
        expect = c @ harmonic_values(5, pts)
        assert np.abs(fields.ravel() - expect).max() <= 1e-13 * np.abs(expect).max()

    @pytest.mark.parametrize("width", [4, 9, 30, 49])
    def test_rows_of_another_width_raise(self, column, width):
        # a column serves its own band limit: rows of degree 1, 2 and 6 on
        # a degree-5 column, and a width that is no degree's, are refused
        with pytest.raises(ValueError, match=f"rows of {width} coefficients.*L = 5"):
            column.recall(np.ones((1, width)))

    def test_sampler_shares_repeated_requests(self):
        column = SliceColumn(self.BALL, 10, 3)   # the plan's degree
        f = rand_fn(3, 63, complex_valued=True)
        sharp = f.sharp_rearrangement()
        plan = SlicePlan([(f, False), (f, False), (sharp, False), (sharp, True)])
        a, b, c, d = column.sampler(plan)
        assert a is b and c is d
        # the slices of azimuth rows [0, n_t): rows a >= n_t hold the
        # antipodal slices, which the ball route reads at -p
        n_t = column.n_t
        modes, nodes = (n_t, column.radii.size, 2 * column.L + 1), (n_t, column.radii.size, column.n_c)
        assert a.re.shape == a.im.shape == modes and c.re.shape == nodes and c.im is None

    def test_a_plan_refuses_a_literal_call(self):
        # literal callables take pair_slice_average at the ball nodes; a
        # plan, which only a column's sampler reads, refuses one when built
        wave = SphereFunction.plane_wave((0.1, 0.2, 0.3))
        with pytest.raises(ValueError, match="literal call"):
            SlicePlan([(rand_fn(3, 64), False), (wave, True)])

    def test_replaced_fields_drop_the_store(self):
        # the store is keyed by row index, and another call's rows reuse the
        # indices: recall drops the store with the fields it replaces, so
        # the products of the old fields never meet the new ones
        column = SliceColumn(self.BALL, 10, 3)   # the plans' degree
        plan = SlicePlan([(rand_fn(3, 65), False)])
        (held,) = column.sampler(plan)
        store = column.products
        pair_profile(held, held, column.radii, products=store)
        assert store
        column.sampler(plan)   # the held rows: the same store
        assert column.products is store
        column.sampler(SlicePlan([(rand_fn(3, 66), False)]))
        assert column.products is not store and not column.products

    def test_conjugate_pairs_share_rows_by_content(self):
        # the folded Q(f, f_star, f, f_star): f and two distinct f_star objects,
        # each at p and -p, need only the real and imaginary rows of f(+-p)
        f = rand_fn(4, 67, complex_valued=True)
        fa, fb = f.antipodal_conjugate(), f.antipodal_conjugate()
        requests = [(f, False), (fa, False), (f, True), (fa, True),
                    (f, True), (fb, True), (f, False), (fb, False)]
        plan = SlicePlan(requests)
        assert plan.rows.shape[0] == 4
        pts = unit_vectors(np.random.default_rng(68), 50)
        for (func, negate), v in zip(requests, plan_at(plan, pts)):
            expect = func(-pts if negate else pts)
            assert np.abs(v - expect).max() <= 1e-14 * np.abs(expect).max()

    def test_real_function_and_its_conjugate_hold_one_row_per_sign(self):
        f = rand_fn(4, 69)
        fs = f.antipodal_conjugate()
        requests = [(f, False), (fs, False), (f, True), (fs, True)]
        plan = SlicePlan(requests)
        assert plan.rows.shape[0] == 2
        pts = unit_vectors(np.random.default_rng(70), 50)
        for (func, negate), v in zip(requests, plan_at(plan, pts)):
            assert not np.iscomplexobj(v)
            expect = func(-pts if negate else pts)
            assert np.abs(v - expect).max() <= 1e-14 * np.abs(expect).max()

    @pytest.mark.parametrize("complex_valued", [False, True])
    def test_split_sharp_matches_its_literal_formula(self, complex_valued):
        f = rand_fn(5, 71, complex_valued=complex_valued)
        pts = unit_vectors(np.random.default_rng(72), 200)
        (v,) = plan_at(SlicePlan([(f.sharp_rearrangement(), False)]), pts)
        expect = np.sqrt(0.5 * (np.abs(f(pts)) ** 2 + np.abs(f(-pts)) ** 2))
        assert not np.iscomplexobj(v)
        assert np.abs(v - expect).max() <= 1e-15 * np.abs(expect).max()

    @pytest.mark.parametrize("n_c", [10, 11], ids=["even", "odd"])
    def test_no_slice_node_is_placed(self, n_c, monkeypatch):
        # the build evaluates harmonics (which convolution does not call)
        # at the projection grid's 2(L+1)^2 nodes turned by the quarter
        # turn, one table, once (the tilt, cached), and the Legendre
        # factor at the n_r radii; it places no slice node, and sampling
        # places none either, the sharp rearrangement's nodes included
        harmonics._tilt.cache_clear()
        placed, points, radii = [], [], []
        inner, values, legendre = (convolution.slice_point_table, harmonics.harmonic_values,
                                   convolution._legendre_orders)

        def spy(X, n):
            placed.append(len(X))
            return inner(X, n)

        def spy_values(L, pts):
            points.append(len(np.atleast_2d(pts)))
            return values(L, pts)

        def spy_legendre(L, t):
            radii.append(t.size)
            return legendre(L, t)

        monkeypatch.setattr(convolution, "slice_point_table", spy)
        monkeypatch.setattr(harmonics, "harmonic_values", spy_values)
        monkeypatch.setattr(convolution, "_legendre_orders", spy_legendre)
        L, n_r = 5, 5
        col = SliceColumn(build_ball_grid(n_r, build_sphere_grid(6)), n_c, L)
        grid = 2 * (L + 1) ** 2
        assert placed == [] and points == [grid] and radii == [n_r]
        f = rand_fn(5, 73, complex_valued=True)
        for v in col.sampler(SlicePlan([(f, False), (f.sharp_rearrangement(), True)])):
            node_values(v)
        assert placed == []

    @pytest.mark.parametrize("L", [0, 1, 2, 8, 16])
    def test_legendre_factors_keep_their_bits(self, L):
        # per order m, the rows of slots (k, m) of the full flat table at
        # t = r/2 in np.longdouble, transposed: (radii, L+1-m)
        n_t, n_r, n_c = exact_sizes(L)
        ball = build_ball_grid(n_r, build_sphere_grid(n_t))
        flat = legendre_factor_reference(L, 0.5 * ball.radial_nodes.astype(np.longdouble))
        order = harmonics._slot_orders(L)
        col = SliceColumn(ball, n_c, L)
        assert len(col.legendre) == L + 1
        for m, rows in enumerate(col.legendre):
            assert np.array_equal(rows, flat[order == m].T)

    @pytest.mark.parametrize("L", list(range(9)) + [16, 24])
    @pytest.mark.parametrize("grid", ["exact", "chain"])
    def test_ring_blocks_match_the_projection(self, grid, L):
        # the blocks composed on the frame route against the per-ring
        # projection of the turned harmonics
        n_t, n_r, n_c = exact_sizes(L)
        ball = build_ball_grid(n_r, build_sphere_grid(n_t)) if grid == "exact" else CHAIN_BALL
        col = SliceColumn(ball, n_c, L)
        oracle = projected_ring_blocks(L, ball.directions.nodes[::2 * col.n_t])
        for block, expect in zip(col.rotations, oracle, strict=True):
            assert np.abs(block - expect).max() <= 1e-14

    @pytest.mark.parametrize("L", list(range(9)) + [16])
    def test_rotation_blocks_are_orthogonal(self, L):
        # D_j^k of every ring and degree, after its Newton-Schulz step
        col = SliceColumn(CHAIN_BALL, 48, L)
        assert len(col.rotations) == L + 1
        for k, block in enumerate(col.rotations):
            assert block.shape == (2 * k + 1, 2 * k + 1, col.n_t)
            for j in range(col.n_t):
                d = block[..., j]
                assert np.abs(d.T @ d - np.eye(2 * k + 1)).max() <= 1e-15

    def test_memory_at_band_limit_16(self):
        # exact_sizes(16): the column keeps its two factors, 86 MB as a
        # table of every centre's modes; its build projects one chunk of
        # rings at a time, and a recall of 4 rows adds their fields
        n_t, n_r, n_c = exact_sizes(16)
        ball = build_ball_grid(n_r, build_sphere_grid(n_t))
        rows = np.stack([random_band_limited(16, np.random.default_rng(s)).coeffs
                         for s in range(4)])
        SliceColumn(ball, n_c, 2)   # caches of the grids, outside the count
        tracemalloc.start()
        try:
            col = SliceColumn(ball, n_c, 16)
            kept, build = tracemalloc.get_traced_memory()
            fields = col.recall(rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fields.nbytes == 4 * n_t * n_r * n_t * 33 * 8
        assert kept <= 3e6 and build <= 5e6 and peak <= 65e6

    @pytest.mark.parametrize("rows", [1, 2, 4])
    @pytest.mark.parametrize("L", [0, 1, 8, 16])
    @pytest.mark.parametrize("grid", ["exact", "chain"])
    def test_chunks_and_groups_synthesize_one_chunks_fields(self, grid, L, rows, monkeypatch):
        n_t, n_r, n_c = exact_sizes(L)
        ball = build_ball_grid(n_r, build_sphere_grid(n_t)) if grid == "exact" else CHAIN_BALL
        col = SliceColumn(ball, n_c, L)
        c = np.random.default_rng(75 + L).standard_normal((rows, (L + 1) ** 2))
        fields = col.synthesize(c)
        monkeypatch.setattr(convolution, "_CHUNK_BYTES", 1 << 40)   # one chunk, one group
        whole = col.synthesize(c)
        if grid == "exact" and L == 16:
            # the matmuls' shapes follow the chunks, and at these sizes
            # OpenBLAS rounds a few entries differently with them (with
            # one group of every pair too): a few in a million move by
            # less than one ulp of the largest field
            assert np.abs(fields - whole).max() <= np.spacing(np.abs(whole).max())
        else:
            assert np.array_equal(fields, whole)

    def test_synthesis_stays_within_its_budget_at_band_limit_16(self):
        # the docstring's budget beyond the fields, 4 rows at exact_sizes(16),
        # where a ring buffer of every pair would take 10 MB on its own
        n_t, n_r, n_c = exact_sizes(16)
        col = SliceColumn(build_ball_grid(n_r, build_sphere_grid(n_t)), n_c, 16)
        c = np.random.default_rng(76).standard_normal((4, 17 ** 2))
        tracemalloc.start()
        try:
            fields = col.synthesize(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - fields.nbytes <= 24 * convolution._CHUNK_BYTES

    def test_rows_above_the_band_limit_are_refused(self):
        # a plan of degree 4 on a column built to L = 2
        col = FormGrids(self.BALL, 10).slice_column(2)
        with pytest.raises(ValueError, match="rows of 25 coefficients.*L = 2"):
            col.sampler(SlicePlan([(rand_fn(4, 74), False)]))

    def test_rejects_non_product_directions(self):
        grid = build_sphere_grid(4)
        odd = type(grid)(grid.nodes[:-1].copy(), grid.weights[:-1].copy(),
                         grid.exactness_degree)
        with pytest.raises(ValueError):
            SliceColumn(build_ball_grid(3, odd), 8, 2)


def slice_nodes(ball, n_c: int, a0: int, a1: int) -> np.ndarray:
    """The literal slice nodes of a ball grid's azimuth rows a0:a1, flat:
    slice_point_table at their centres, the grid's own nodes."""
    X = ball_rows(ball, a0, a1)
    return slice_point_table(X.reshape(-1, 3), n_c)[0].reshape(-1, 3)


def antipodal_order(col: SliceColumn, values: np.ndarray) -> np.ndarray:
    """Values on the slices of azimuth rows [n_t, 2 n_t), flat, reordered to
    those of rows [0, n_t) at -p. Row a + n_t holds -x of row a's centre x
    on polar ring i at ring n_t - 1 - i, and -x's slice is x's negated with
    the slice angle negated: node j of each uniform half-rule (_half_turn)
    is node -j of x's."""
    n_t, N = col.n_t, values.size // (col.radii.size * col.n_t)
    k = np.arange(N)
    perm = k // col.n_c * col.n_c + (-k) % col.n_c
    rings = values.reshape(n_t, -1, n_t, N)[:, :, ::-1]
    return rings[..., perm].ravel()


def coeff_fn(L: int, c) -> SphereFunction:
    return SphereFunction.from_coeffs(HarmonicCoeffs(L, np.asarray(c)))


class TestNegatedReads:
    """f at -p is the field of f's parity-flipped coefficient row on the same
    azimuth rows (SlicePlan): rows are shared up to sign only."""

    @staticmethod
    def ball(L: int):
        # the identity is per slice, so a small product grid covers it
        return build_ball_grid(3, build_sphere_grid(L + 2))

    @classmethod
    def column(cls, L: int, odd: bool) -> SliceColumn:
        return SliceColumn(cls.ball(L), 2 * L + 2 + odd, L)

    @pytest.mark.parametrize("odd", [False, True], ids=["even", "odd"])
    @pytest.mark.parametrize("complex_valued", [False, True])
    @pytest.mark.parametrize("L", list(range(9)) + [16])
    def test_a_negated_read_is_the_parity_flipped_synthesis(self, L, complex_valued, odd):
        col = self.column(L, odd)
        n_t, modes = col.n_t, 2 * L + 1
        f = rand_fn(L, 140 + L, complex_valued=complex_valued)
        (v,) = col.sampler(SlicePlan([(f, True)]))
        flipped = parity_signs(L) * f.coeffs.coeffs
        fresh = col.synthesize(np.stack([flipped.real, flipped.imag]))
        assert fresh.shape == (2, n_t, col.radii.size, modes)
        expect = fresh[0] + 1j * fresh[1] if complex_valued else fresh[0]
        got = dense(v).reshape(expect.shape)
        assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max()
        # at the nodes, f on the slices of rows a >= n_t, those of -x, from a
        # harmonic table at their own nodes
        c = f.coeffs.coeffs
        upper = slice_nodes(self.ball(L), col.n_c, n_t, 2 * n_t)
        literal = antipodal_order(col, c @ harmonic_values(L, upper))
        nodes = dense(node_values(v)).ravel()
        assert np.abs(nodes - literal).max() <= 1e-13 * np.abs(literal).max()

    @pytest.mark.parametrize("parity", [1.0, -1.0], ids=["even", "odd"])
    def test_a_row_of_pure_parity_is_read_at_p_with_its_sign(self, parity):
        # parity * row = +-row, so the row at -p is the one row at p, with its sign
        col = self.column(4, False)
        c = rand_fn(4, 145).coeffs.coeffs
        f = coeff_fn(4, 0.5 * (c + parity * parity_signs(4) * c))
        plus, minus = col.sampler(SlicePlan([(f, False), (f, True)]))
        assert np.shares_memory(plus.re, minus.re)
        assert minus.re_sign == parity * plus.re_sign
        assert np.array_equal(dense(minus), parity * dense(plus))

    def test_one_synthesized_row_per_distinct_row_up_to_sign(self, monkeypatch):
        rows, synthesize = [], SliceColumn.synthesize

        def spy(col, coeffs):
            rows.append(len(coeffs))
            return synthesize(col, coeffs)

        monkeypatch.setattr(SliceColumn, "synthesize", spy)
        p = parity_signs(4)
        c, g = rand_fn(4, 146, complex_valued=True).coeffs.coeffs, rand_fn(4, 147).coeffs.coeffs
        even = 0.5 * (g + p * g)
        # rows, each also negated: c.real, c.imag, g and their parity flips,
        # even, its own flip, and the zero real row of 1j c.imag
        funcs = [coeff_fn(4, v) for v in (c, -c, p * c, -p * np.conj(c), c.real, 1j * c.imag,
                                          g, -p * g, even, -even, p * even)]
        funcs.append(funcs[0].antipodal_conjugate())
        requests = [(func, negate) for func in funcs for negate in (False, True)]
        col = self.column(4, True)
        values = col.sampler(SlicePlan(requests))
        assert rows == [8]
        n_t, ball = col.n_t, self.ball(4)
        pts, antipodes = (slice_nodes(ball, col.n_c, 0, n_t),
                          slice_nodes(ball, col.n_c, n_t, 2 * n_t))
        for (func, negate), v in zip(requests, values):
            # f(-p) is f on the slices of rows a >= n_t, at their own nodes
            expect = antipodal_order(col, func(antipodes)) if negate else func(pts)
            got = dense(node_values(v)).ravel()
            assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max()
        # every pair, at p or -p, in modes matches the node route
        for a in values:
            for b in values:
                whole = pair_profile(*(split(dense(node_values(v))) for v in (a, b)), col.radii)
                parts = pair_profile(a, b, col.radii)
                assert np.abs(parts - whole).max() <= 1e-13 * np.abs(whole).max()


class TestRowIdentity:
    """SlicePlan stores each real row once, in canonical sign."""

    @pytest.mark.parametrize("row", [
        [0.5, -1.25, 3.0, 0.0],     # trailing zeros
        [0.0, 0.0, -2.0, 7.5],      # leading zeros
        [2.0, 0.0, 0.0, -7.5],      # interior zeros
        [-0.0, -1.0, 0.0, 3.0],     # a leading -0.0
        [0.0, -0.0, 0.0, 0.0],      # zero
    ], ids=["trailing", "leading", "interior", "signed zero", "zero"])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_a_row_and_its_negation_at_any_padding_are_one_row(self, row, sign):
        c = sign * np.array(row)
        padded = np.concatenate([0.0 - c, np.zeros(5)])   # degree 2
        plan = SlicePlan([(coeff_fn(1, c), False), (coeff_fn(2, padded), False)])
        (stored,) = plan.rows
        nz = np.flatnonzero(stored)
        assert nz.size == 0 or stored[nz[0]] > 0.0
        assert not np.any(np.signbit(stored[stored == 0.0]))
        a, b = plan.values(list(plan.rows))
        assert a.keys == b.keys
        assert b.re_sign == (-a.re_sign if nz.size else a.re_sign)   # a zero row reads +
        assert np.array_equal(dense(a)[:4], c) and np.array_equal(dense(b), padded)

    def test_rows_are_stored_in_canonical_sign(self):
        # leading zeros, -0.0 at the degree-1 zero slot of the parity flips,
        # and the zero real row of 1j c.imag
        p = parity_signs(4)
        c = rand_fn(4, 148, complex_valued=True).coeffs.coeffs.copy()
        c[:2] = 0.0
        funcs = [coeff_fn(4, v) for v in (c, -c, p * c, 1j * c.imag)]
        requests = [(func, negate) for func in funcs for negate in (False, True)]
        plan = SlicePlan(requests)
        assert plan.rows.shape[0] == 5
        for row in plan.rows:
            nz = np.flatnonzero(row)
            assert nz.size == 0 or row[nz[0]] > 0.0
            assert not np.any(np.signbit(row[row == 0.0]))
        # the rows as their own values: each request reads its row back
        values = plan.values(list(plan.rows))
        for (func, negate), v in zip(requests, values):
            assert np.array_equal(dense(v), func.coeffs.coeffs * (p if negate else 1.0))
        # c and -c: one index per part, with opposite signs
        f, neg = values[0], values[2]
        assert f.keys == neg.keys
        assert (neg.re_sign, neg.im_sign) == (-f.re_sign, -f.im_sign)


    def test_a_sharp_source_is_split_once_per_sign(self, monkeypatch):
        # Q(f#, f#, f#, f#) asks for f# at p and -p four times each; the
        # plan splits f's coefficients once at p and once at -p
        fsh = rand_fn(4, 149, complex_valued=True).sharp_rearrangement()
        one = SlicePlan([(fsh, False)])
        flips = []
        monkeypatch.setattr(convolution, "parity_signs",
                            lambda L: flips.append(L) or parity_signs(L))
        plan = SlicePlan([(fsh, negate) for _ in range(4) for negate in (False, True)])
        assert flips == [4]
        assert np.array_equal(plan.rows, one.rows)
        assert plan.rows.shape == (4, 25)

    def test_fields_are_split_once_per_function_and_sign(self, monkeypatch):
        f = rand_fn(3, 150, complex_valued=True)
        fs = f.antipodal_conjugate()
        requests = [(g, negate) for g in (f, fs, f, fs) for negate in (False, True)]
        expect = SlicePlan(requests)
        flips = []
        monkeypatch.setattr(convolution, "parity_signs",
                            lambda L: flips.append(L) or parity_signs(L))
        plan = SlicePlan(requests)
        assert flips == [3, 3]   # f and fs at -p
        assert np.array_equal(plan.rows, expect.rows)
        assert plan.rows.shape == (4, 16)   # f_star's rows are f's at -p


class TestStarAndSharpInSliceFrames:
    """f, f_star and f# at n_c's slice nodes from f's rows taken to each
    slice's frame, each f on its own centres (convolution._star_and_sharp)."""

    @pytest.mark.parametrize("n_c", [1, 2, 3, 11, 17, 34, 35])
    @pytest.mark.parametrize("L", [0, 1, 4, 8])
    def test_matches_each_sample_at_the_slice_nodes(self, L, n_c):
        rng = np.random.default_rng(160 + L)
        cs = [random_band_limited(L, rng, complex_valued=True) for _ in range(3)]
        X = np.stack([ball_points(rng, 4, r_min=0.05) for _ in cs])
        values, r = convolution._star_and_sharp(np.array([c.coeffs for c in cs]), X, n_c)
        whole = [dense(v) for v in values]
        for i, c in enumerate(cs):
            f = SphereFunction.from_coeffs(c)
            pts, radii = slice_point_table(X[i], n_c)
            expect = plan_at(SlicePlan([(f, False), (f.antipodal_conjugate(), False),
                                        (f.sharp_rearrangement(), False)]), pts)
            assert np.array_equal(r[i], radii)
            for got, want in zip(whole, expect):
                assert got[i].shape == want.shape
                assert np.abs(got[i] - want).max() <= 1e-13 * np.abs(want).max()

    def test_real_coefficients_give_real_values(self):
        rng = np.random.default_rng(170)
        c = random_band_limited(5, rng)
        X = ball_points(rng, 6, r_min=0.05)[None]
        (f, f_star, f_sharp), _ = convolution._star_and_sharp(c.coeffs[None], X, 12)
        assert np.all(f.im == 0.0) and np.all(f_star.im == 0.0)
        g = SphereFunction.from_coeffs(c)
        pts, _ = slice_point_table(X[0], 12)
        assert np.abs(dense(f)[0] - g(pts.reshape(-1, 3)).reshape(6, 12)).max() <= 1e-13
        sharp = g.sharp_rearrangement()(pts.reshape(-1, 3)).reshape(6, 12)
        assert np.abs(dense(f_sharp)[0] - sharp).max() <= 1e-13 * sharp.max()


ZERO_SUM = gamma_samples(np.random.default_rng(19), 1)[0]
COMPLEX_CENTRE = np.array([[1j, 0.0, 1.0]])


class TestComplexGeometry:
    """Complex points raise ValueError naming them, where a cast to float
    would drop the imaginary part (numpy only warns)."""

    @pytest.mark.parametrize("call, name", [
        (lambda: circle_frames(COMPLEX_CENTRE), "slice centres"),
        (lambda: slice_point_table(COMPLEX_CENTRE, 8), "slice centres"),
        (lambda: convolve_many(ONE, ONE, COMPLEX_CENTRE, 8), "convolution centres"),
        (lambda: pair_slice_average(PairKernel.one(), COMPLEX_CENTRE, 8), "slice centres"),
        (lambda: GammaSample(ZERO_SUM * (1 + 1j)), "sample vectors"),
        (lambda: four_identity_many(ZERO_SUM * (1 + 1j)), "quadruples"),
        (lambda: conv_profile(ONE, ONE, np.array([0.5 + 1j])), "profile radii"),
        (lambda: extension_at(ONE, np.array([1j, 0.0, 0.0]), build_sphere_grid(4)),
         "extension point"),
        (lambda: SphereFunction.plane_wave([1j, 0.0, 0.0]), "plane-wave xi"),
        (lambda: harmonic_values(2, COMPLEX_CENTRE), "points"),
        (lambda: ONE(COMPLEX_CENTRE), "points"),
    ], ids=["circle_frames", "slice_point_table", "convolve_many", "pair_slice_average",
            "GammaSample", "four_identity_many", "conv_profile", "extension_at",
            "plane_wave", "harmonic_values", "SphereFunction"])
    def test_complex_input_rejected(self, call, name):
        with pytest.raises(ValueError, match=f"^{name} must be real, got dtype complex128$"):
            call()
