"""Surface-measure convolutions, the extension operator, and the L4 norm."""

import numpy as np
import pytest

from sharpsphere import (
    DegenerateSliceError,
    FormGrids,
    HarmonicCoeffs,
    PairKernel,
    SliceColumn,
    SlicePlan,
    SphereFunction,
    SplitValues,
    build_ball_grid,
    build_sphere_grid,
    conv_profile,
    convolve_many,
    exact_sizes,
    extension_at,
    harmonic_values,
    pair_profile,
    pair_slice_average,
    random_band_limited,
)
from sharpsphere import convolution
from sharpsphere.convolution import _row_keys, slice_point_table

from helpers import ball_points, rand_fn, unit_vectors

PI = np.pi
ONE = SphereFunction.constant(1.0)


class TestConvolveAt:
    """The literal one-point route: pair_slice_average of PairKernel.tensor(f, g)."""

    def test_closed_form_on_random_points(self):
        xs = ball_points(np.random.default_rng(0), 200)
        r = np.linalg.norm(xs, axis=1)
        vals = pair_slice_average(PairKernel.tensor(ONE, ONE), xs, 16)
        assert np.all(np.abs(vals - 2 * PI / r) <= 1e-12 * (2 * PI / r))

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

    def test_origin_rejected(self):
        with pytest.raises(DegenerateSliceError):
            pair_slice_average(PairKernel.tensor(ONE, ONE), np.zeros((1, 3)), 8)

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

    def test_odd_count_never_calls_pair_slice_average(self, monkeypatch):
        # the partners x - p_j are nodes of the table route at odd n_c too
        calls, average = [], convolution.pair_slice_average

        def spy(*args):
            calls.append(args)
            return average(*args)

        monkeypatch.setattr(convolution, "pair_slice_average", spy)
        f, g = _pair("complex")
        xs = ball_points(np.random.default_rng(12), 30)
        assert np.all(np.isfinite(convolve_many(f, g, xs, 35)))
        assert calls == []

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

    def test_mixed_batch_zeroes_outside_support(self):
        xs = np.array([[0.5, 0.0, 0.0], [2.5, 0.0, 0.0], [0.0, 0.0, 1.5]])
        vals = convolve_many(ONE, ONE, xs, 16)
        assert vals[1] == 0.0
        assert abs(vals[0] - 4 * PI) <= 1e-12 * 4 * PI
        assert abs(vals[2] - 4 * PI / 3) <= 1e-12 * 4 * PI / 3


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
        vals = col.sampler(plan)(0, col.n_az // 2)
        assert vals[0].re.shape[-1] == 2 * L + 1
        assert vals[6].re.shape[-1] == (2 if odd else 1) * col.n_c
        squares = [v.magnitude(2) for v in vals]
        for v, sq in zip(vals, squares):
            expect = np.abs(v.nodes().dense()) ** 2
            assert np.abs(sq.dense() - expect).max() <= 1e-15 * expect.max()
        for group in (vals, squares):
            for a in group:
                for b in group:
                    dense = pair_profile(a.nodes().dense(), b.nodes().dense(), col.radii)
                    split = pair_profile(a, b, col.radii)
                    assert split.dtype == dense.dtype
                    assert np.abs(split - dense).max() <= 1e-15 * np.abs(dense).max()

    def test_real_squares_are_one_square_of_the_values(self):
        v = np.random.default_rng(81).standard_normal((3, 40))
        v[0, :3] = (-0.0, 0.0, -1e-200)
        sq = SplitValues(v, None, -1.0).magnitude(2)
        assert sq.im is None
        assert sq.re.view(np.int64).tolist() == (np.abs(v) ** 2).view(np.int64).tolist()

    def test_odd_slice_count_is_rejected(self):
        with pytest.raises(ValueError, match="even"):
            pair_profile(np.ones((2, 5)), np.ones((2, 5)), np.ones(2))


class TestModePairing:
    """Band-limited slice values pair in slice-angle modes, by Parseval."""

    @staticmethod
    def profiles(L, n_c, complex_valued):
        # (modes, nodes, centres): f tensor g's profile on a column's first
        # n_t azimuth rows from its modes and from its n_c slice nodes, and
        # the slices' centres
        col = SliceColumn(build_ball_grid(4, build_sphere_grid(5)), n_c, L)
        f, g = rand_fn(L, 130, complex_valued=complex_valued), rand_fn(L, 131)
        n_t = col.n_az // 2
        a, b = col.sampler(SlicePlan([(f, False), (g, False)]))(0, n_t)
        assert a.expansion is col.expansion and a.re.shape[-1] == 2 * L + 1
        modes = pair_profile(a, b, col.radii)
        nodes = pair_profile(a.nodes(), b.nodes(), col.radii)
        return modes, nodes, col.centres(0, n_t), (f, g)

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
        assert np.abs(prof.values - 2 * PI / radii).max() <= 1e-12 * (2 * PI / radii).max()
        assert np.array_equal(prof.radii, radii)

    def test_direction_is_normalized(self):
        radii = np.array([0.5, 1.0, 1.5])
        f = rand_fn(3, 12)
        a = conv_profile(f, f, radii, direction=(0.0, 0.0, 1.0))
        b = conv_profile(f, f, radii, direction=(0.0, 0.0, 7.0))
        assert np.abs(a.values - b.values).max() <= 1e-14
        assert abs(np.linalg.norm(b.direction) - 1.0) <= 1e-15

    def test_out_of_range_radii_rejected(self):
        with pytest.raises(ValueError):
            conv_profile(ONE, ONE, np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            conv_profile(ONE, ONE, np.array([1.0, 2.2]))

    def test_non_finite_radii_rejected(self):
        with pytest.raises(ValueError, match="radii"):
            conv_profile(ONE, ONE, np.array([np.nan, 1.0]))

    @pytest.mark.parametrize("direction", [(0.0, 0.0, 0.0), (np.nan, 0.0, 1.0),
                                           (np.inf, 0.0, 1.0)])
    def test_degenerate_direction_rejected(self, direction):
        with pytest.raises(ValueError, match="direction"):
            conv_profile(ONE, ONE, np.array([0.5, 1.0]), direction=direction)


class TestConvL2Norm:
    def test_flat_norm_closed_form(self, ball_default):
        val = FormGrids(ball_default, 64).conv_l2_norm(ONE, ONE)
        assert abs(val - np.sqrt(32 * PI ** 3)) <= 1e-10 * np.sqrt(32 * PI ** 3)

    def test_modulation_invariance(self, ball_default):
        f = SphereFunction.plane_wave(np.array([0.3, 0.5, -0.2]))
        val = FormGrids(ball_default, 64).conv_l2_norm(f, f.antipodal_conjugate())
        assert abs(val - np.sqrt(32 * PI ** 3)) <= 1e-10 * np.sqrt(32 * PI ** 3)

    def test_literal_conjugate_pair_is_evaluated_for_two_functions(self):
        # conv_l2_norm(f, f_star) needs f_star's and f's conjugates: f_star and f
        xi, calls = np.array([0.3, 0.5, -0.2]), []

        def wave(p):
            calls.append(len(p))
            return np.exp(1j * (p @ xi))

        grids = FormGrids(build_ball_grid(6, build_sphere_grid(6)), 16)
        blocks = len(grids.slice_column(0).blocks())
        f = SphereFunction(wave)
        value = grids.conv_l2_norm(f, f.antipodal_conjugate())
        assert len(calls) == 4 * blocks   # f and f_star at +-p
        g = SphereFunction(wave)
        g_star = SphereFunction(lambda p: np.conj(wave(-p)))   # not linked to g
        calls.clear()
        assert grids.conv_l2_norm(g, g_star) == value
        assert len(calls) == 8 * blocks
        calls.clear()
        grids.l4_norm(SphereFunction(wave))
        assert len(calls) == 4 * blocks

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
    @pytest.fixture(scope="class")
    def column(self):
        return SliceColumn(build_ball_grid(5, build_sphere_grid(6)), 10, 5)

    def test_rotated_column_is_the_slice_geometry(self, column):
        # azimuth row a of the column holds the slices of the ball nodes at azimuth a
        ball = build_ball_grid(5, build_sphere_grid(6))
        X = ball.points().reshape(-1, column.n_az, 3).transpose(1, 0, 2)
        pts, _ = slice_point_table(X.reshape(-1, 3), column.n_c)
        literal = column.points(0, column.n_az).reshape(pts.shape)
        assert np.abs(literal - pts).max() <= 1e-15
        assert np.array_equal(column.weights, ball.weights()[::column.n_az])

    def test_centres_are_the_ball_nodes_of_each_azimuth_row(self, column):
        ball = build_ball_grid(5, build_sphere_grid(6))
        X = ball.points().reshape(-1, column.n_az, 3)
        for a in range(column.n_az):
            assert np.abs(column.centres(a, a + 1)[0] - X[:, a]).max() <= 1e-15

    @staticmethod
    def at_nodes(column, modes):
        # azimuth rows of slice-angle modes, taken to every slice node
        return modes.reshape(column.n_az, column.radii.size, -1) @ column.expansion

    def test_synthesis_matches_literal_evaluation(self, column):
        c = random_band_limited(5, np.random.default_rng(60)).coeffs
        fields = self.at_nodes(column, column.trig @ column.spectra(c[None])[0])
        pts = column.points(0, column.n_az).reshape(-1, 3)
        expect = c @ harmonic_values(5, pts)
        assert np.abs(fields.ravel() - expect).max() <= 1e-13 * np.abs(expect).max()

    def test_lower_degree_coefficients_use_leading_rows(self, column):
        c = random_band_limited(2, np.random.default_rng(61)).coeffs
        fields = self.at_nodes(column, column.trig @ column.spectra(c[None])[0])
        expect = c @ harmonic_values(2, column.points(0, column.n_az).reshape(-1, 3))
        assert np.abs(fields.ravel() - expect).max() <= 1e-13 * np.abs(expect).max()

    def test_pullback_is_adjoint_of_spectra(self, column):
        rng = np.random.default_rng(62)
        c = rng.standard_normal((2, 36))
        rows = rng.standard_normal((2, 11, column.table.shape[1]))
        lhs = np.sum(rows * column.spectra(c))
        rhs = np.sum(column.pullback(rows) * c)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_blocks_cover_the_first_n_t_azimuth_rows(self, column):
        # rows a >= n_t hold -x of rows a < n_t; the ball route reads them at -p
        edges = [a for block in column.blocks() for a in block]
        assert edges[0] == 0 and edges[-1] == column.n_az // 2
        assert all(a1 == b0 for a1, b0 in zip(edges[1::2], edges[2::2]))

    def test_sampler_shares_repeated_requests(self, column):
        f = rand_fn(3, 63, complex_valued=True)
        sharp = f.sharp_rearrangement()
        plan = SlicePlan([(f, False), (f, False), (sharp, False), (sharp, True)])
        a, b, c, d = column.sampler(plan)(0, 3)
        assert a is b and c is d
        modes, nodes = (3, column.radii.size, 2 * column.L + 1), (3, column.radii.size, column.n_c)
        assert a.re.shape == a.im.shape == modes and c.re.shape == nodes and c.im is None

    def test_sampler_covers_rows_below_n_t_only(self, column):
        # rows a >= n_t hold the antipodal slices, which the ball route reads at -p
        sample = column.sampler(SlicePlan([(rand_fn(3, 64), False)]))
        n_t = column.n_az // 2
        assert sample(n_t - 1, n_t)[0].re.shape[0] == 1
        for a0, a1 in ((n_t - 1, n_t + 1), (n_t, n_t + 1), (-1, 1), (2, 1)):
            with pytest.raises(ValueError, match=f"rows {a0}:{a1} .* 0:{n_t}"):
                sample(a0, a1)

    def test_a_sampler_whose_fields_were_replaced_gets_no_store(self, column):
        # the memo's store is keyed by row index: another call's rows reuse
        # the indices, so a stale sampler must not read or fill that store
        stale = column.sampler(SlicePlan([(rand_fn(3, 65), False)]))
        (held,) = stale(0, 1)
        assert held.products is column._memo[2][(0, 1)]
        column.sampler(SlicePlan([(rand_fn(3, 66), False)]))
        (v,) = stale(0, 1)
        assert v.products is None

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
        for (func, negate), v in zip(requests, plan.at(pts)):
            expect = func(-pts if negate else pts)
            assert np.abs(v - expect).max() <= 1e-14 * np.abs(expect).max()

    def test_real_function_and_its_conjugate_hold_one_row_per_sign(self):
        f = rand_fn(4, 69)
        fs = f.antipodal_conjugate()
        requests = [(f, False), (fs, False), (f, True), (fs, True)]
        plan = SlicePlan(requests)
        assert plan.rows.shape[0] == 2
        pts = unit_vectors(np.random.default_rng(70), 50)
        for (func, negate), v in zip(requests, plan.at(pts)):
            assert not np.iscomplexobj(v)
            expect = func(-pts if negate else pts)
            assert np.abs(v - expect).max() <= 1e-14 * np.abs(expect).max()

    @pytest.mark.parametrize("complex_valued", [False, True])
    def test_split_sharp_matches_its_literal_formula(self, complex_valued):
        f = rand_fn(5, 71, complex_valued=complex_valued)
        pts = unit_vectors(np.random.default_rng(72), 200)
        (v,) = SlicePlan([(f.sharp_rearrangement(), False)]).at(pts)
        expect = np.sqrt(0.5 * (np.abs(f(pts)) ** 2 + np.abs(f(-pts)) ** 2))
        assert not np.iscomplexobj(v)
        assert np.abs(v - expect).max() <= 1e-15 * np.abs(expect).max()

    @pytest.mark.parametrize("n_c", [10, 11], ids=["even", "odd"])
    def test_literal_nodes_are_built_on_first_use(self, n_c, monkeypatch):
        # the table build places only its 2L+1 rule nodes, no partners;
        # blocks() places none; points() is slice_point_table at centres(),
        # bit for bit, placed per call
        placed, inner = [], convolution._slice_nodes

        def spy(X, n, count=None):
            out = inner(X, n, count)
            placed.append(out[0].shape[1])
            return out

        monkeypatch.setattr(convolution, "_slice_nodes", spy)
        col = SliceColumn(build_ball_grid(5, build_sphere_grid(6)), n_c, 5)
        col.blocks()
        assert placed == [11]
        for a0, a1 in [(0, col.n_az), (1, 2)]:
            pts = col.points(a0, a1)
            x = col.centres(a0, a1).reshape(-1, 3)
            expect = slice_point_table(x, n_c)[0].reshape(pts.shape)
            assert pts.view(np.int64).tolist() == expect.view(np.int64).tolist()
        assert placed == [11] + [2 * n_c if n_c % 2 else n_c] * 4

    def test_rejects_non_product_directions(self):
        grid = build_sphere_grid(4)
        odd = type(grid)(grid.nodes[:-1].copy(), grid.weights[:-1].copy(),
                         grid.exactness_degree)
        with pytest.raises(ValueError):
            SliceColumn(build_ball_grid(3, odd), 8, 2)


class TestRowKeys:
    @pytest.mark.parametrize("row", [
        [0.5, -1.25, 3.0, 0.0, 0.0],     # trailing zeros
        [0.0, 2.0, 0.0, 0.0, -7.5],      # interior zeros, none trailing
        [0.0, 1.0, 0.0, -3.0, 0.0],      # both
        [0.0, 0.0, 0.0],                 # all zero
        [],
    ], ids=["trailing", "interior", "both", "zero", "empty"])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_keys_are_the_trimmed_row_bytes(self, row, sign):
        row = sign * np.array(row) + 0.0   # no -0.0 entries, as SlicePlan stores them
        expect = (np.trim_zeros(row, "b").tobytes(), np.trim_zeros(0.0 - row, "b").tobytes())
        assert _row_keys(row) == expect

    def test_negated_rows_swap_keys_at_any_padding(self):
        row = np.random.default_rng(74).standard_normal(9)
        row[[2, 6]] = 0.0
        key, negated = _row_keys(row)
        assert _row_keys(np.concatenate([0.0 - row, np.zeros(7)])) == (negated, key)
