"""Sphere, circle-slice, and ball quadrature geometry and exactness."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sharpsphere import (
    BallGrid,
    DegenerateSliceError,
    EmptyIntersectionError,
    PairKernel,
    SphereFunction,
    SphereGrid,
    build_ball_grid,
    build_sphere_grid,
    circle_frames,
    convolve_many,
    exact_sizes,
    integrate_ball,
    integrate_sphere,
    pair_slice_average,
)
from sharpsphere.convolution import slice_point_table
from sharpsphere.quadrature import _gauss_legendre, _norm3

from helpers import ball_points, leggauss_rule, unit_vectors

PI = np.pi
# rule sizes up to 160 whose weights, taken from u = 1 - x, differ from those
# taken at the longdouble node; every weight is within 0.51 ulp of mpmath's
WEIGHTS_MOVED = (11, 23, 37, 40, 51, 52, 54, 59, 62, 65, 68, 74, 80, 82, 84, 87, 88, 92, 93, 94,
                 95, 98, 99, 100, 101, 103, 106, 107, 108, 110, 111, 115, 119, 121, 122, 123,
                 126, 127, 130, 132, 133, 134, 136, 137, 139, 140, 141, 143, 144, 145, 147, 148,
                 149, 152, 153, 154, 155, 156, 157, 158, 159, 160)


def angle_weights(n: int, x: np.ndarray) -> np.ndarray:
    """Gauss-Legendre weights at nodes x >= 0 of the n-node rule, refined in
    the angle theta = arccos x: P_n(cos theta) = sum_k a_k a_(n-k)
    cos((n - 2k) theta), a_k = binom(2k, k) / 4^k, so that neither P_n nor
    1 - x^2 = sin^2 theta reads a rounded x (Hale and Townsend, SIAM J. Sci.
    Comput. 2013). Two Newton steps in theta from the double nodes, then
    w = 2 / (dP_n/dtheta)^2, in np.longdouble; within 0.27 ulp of mpmath's
    up to n = 200 on x86-64."""
    k = np.arange(n + 1)
    ratios = np.ones(n + 1, dtype=np.longdouble)
    ratios[1:] = (2 * k[1:] - 1) / np.longdouble(2 * k[1:])
    a = np.cumprod(ratios)
    coef, freq = a * a[::-1], (n - 2 * k).astype(np.longdouble)
    theta = np.arccos(x.astype(np.longdouble))
    for step in range(3):
        angle = np.multiply.outer(theta, freq)
        slope = (np.sin(angle) * freq) @ coef   # -dP_n/dtheta
        if step < 2:
            theta = theta + (np.cos(angle) @ coef) / slope
    return 2 / (slope * slope)


class TestGaussLegendre:
    @pytest.mark.parametrize("n", [25, 33, 49, 65])
    def test_even_moments_to_rounding(self, n):
        # sum w x^(2j) = 2 / (2j + 1) for every j < n, to 13 eps at these n
        # with an 80-bit longdouble and 26 eps where longdouble is double;
        # leggauss's own weights miss by 2.8e-14 to 1.4e-13 (130 to 630 eps)
        x, w = _gauss_legendre(n)
        j = np.arange(n)
        moments = np.array([np.sum(w * x ** (2 * k)) for k in j])
        assert np.abs(moments * (2 * j + 1) / 2.0 - 1.0).max() <= 32 * np.finfo(float).eps

    @pytest.mark.parametrize("n", [1, 2, 17, 48])
    def test_symmetric_bit_for_bit_and_read_only(self, n):
        x, w = _gauss_legendre(n)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        assert not x.flags.writeable and not w.flags.writeable
        assert _gauss_legendre(n)[0] is x

    def test_the_rules_of_leggauss_nodes_keep_their_bits(self):
        # Tricomi's estimate and Newton in double reach the nodes of
        # leggauss's rules, bit for bit, at every n up to 160; the weights,
        # taken from u = 1 - x, move at the sizes named (with an 80-bit
        # longdouble; where it is double, the moves differ)
        extended = np.finfo(np.longdouble).eps < np.finfo(float).eps
        for n in range(1, 161):
            x, w = _gauss_legendre(n)
            expect_x, expect_w = leggauss_rule(n)
            assert np.array_equal(x, expect_x), n
            if extended:
                assert np.array_equal(w, expect_w) == (n not in WEIGHTS_MOVED), n

    def test_weights_within_one_ulp_of_an_angle_reference(self):
        # up to n = 200, end weights included, where a longdouble node and
        # Bonnet's recursion at it put them up to 3.3 ulps off from n = 123
        if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
            pytest.skip("longdouble is double here: the reference is unavailable")
        for n in range(1, 201):
            x, w = _gauss_legendre(n)
            ref = angle_weights(n, x[n // 2:])
            assert np.all(np.abs(w[n // 2:] - ref) <= np.spacing(w[n // 2:])), n

    def test_odd_rules_hold_zero_exactly(self):
        for n in (1, 3, 17, 49):
            assert _gauss_legendre(n)[0][n // 2] == 0.0

    def test_a_cold_verify_imports_no_numpy_polynomial(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        code = ("import sys, contextlib, io\n"
                "from sharpsphere.cli import main\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    code = main(['verify', '--degree', '2'])\n"
                "print(code, 'numpy.polynomial' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, env=dict(os.environ, PYTHONPATH=src))
        assert proc.stdout.split() == ["0", "False"], proc.stderr


class TestSphereGrid:
    def test_nodes_are_unit_vectors(self):
        grid = build_sphere_grid(12)
        assert np.abs(np.linalg.norm(grid.nodes, axis=1) - 1.0).max() <= 1e-14

    def test_weights_positive_and_sum_to_sphere_area(self):
        grid = build_sphere_grid(9)
        assert np.all(grid.weights > 0)
        assert abs(grid.weights.sum() - 4 * PI) <= 1e-12 * 4 * PI

    def test_node_count_and_exactness_degree(self):
        grid = build_sphere_grid(7)
        assert grid.n_nodes == 7 * 14
        assert grid.exactness_degree == 13

    def test_default_grid_is_antipodally_closed(self):
        # negating t keeps a Gauss-Legendre node, and phi -> phi + pi shifts
        # the azimuth index by n_t mod 2 n_t; forms rely on this closure
        grid = build_sphere_grid(6)
        d = np.linalg.norm(grid.nodes[:, None, :] + grid.nodes[None, :, :], axis=2)
        assert d.min(axis=1).max() <= 1e-13

    def test_constant_integrates_to_sphere_area(self):
        grid = build_sphere_grid(4)
        assert abs(integrate_sphere(grid, lambda p: np.ones(len(p))) - 4 * PI) <= 1e-12 * 4 * PI

    def test_squared_coordinate_integral(self):
        grid = build_sphere_grid(4)
        val = integrate_sphere(grid, lambda p: p[:, 2] ** 2)
        assert abs(val - 4 * PI / 3) <= 1e-12 * 4 * PI / 3

    @pytest.mark.parametrize("j", range(8))
    def test_even_zonal_monomials_exact_within_stated_degree(self, j):
        # (omega . a)^(2j) integrates to 4 pi / (2j + 1); degree 2j <= 15
        grid = build_sphere_grid(8)
        a = np.array([1.0, -2.0, 0.5])
        a /= np.linalg.norm(a)
        val = integrate_sphere(grid, lambda p: (p @ a) ** (2 * j))
        expected = 4 * PI / (2 * j + 1)
        assert abs(val - expected) <= 1e-12 * expected

    def test_plane_wave_integrals(self):
        grid = build_sphere_grid(16)
        flat = integrate_sphere(grid, lambda p: np.exp(-1j * (p @ np.zeros(3))))
        assert abs(flat - 4 * PI) <= 1e-12 * 4 * PI
        x = np.array([0.0, 1.0, 0.0])
        osc = integrate_sphere(grid, lambda p: np.exp(-1j * (p @ x)))
        assert abs(osc - 4 * PI * np.sin(1.0)) <= 1e-12 * 4 * PI

    def test_array_valued_integrand_accepted(self):
        grid = build_sphere_grid(3)
        vals = grid.nodes[:, 0] ** 2 + grid.nodes[:, 1] ** 2 + grid.nodes[:, 2] ** 2
        assert abs(integrate_sphere(grid, vals) - 4 * PI) <= 1e-12 * 4 * PI

    def test_non_finite_integrand_rejected(self):
        grid = build_sphere_grid(3)
        with pytest.raises(ValueError):
            integrate_sphere(grid, lambda p: np.full(len(p), np.nan))

    def test_invalid_node_count_rejected(self):
        with pytest.raises(ValueError):
            build_sphere_grid(0)

    def test_nodes_read_only(self):
        grid = build_sphere_grid(3)
        with pytest.raises(ValueError):
            grid.nodes[0, 0] = 2.0


class TestNorm3:
    @pytest.mark.parametrize("scale", [1.0, 1e-160, 1e-300, 1e160, 1e300],
                             ids=["unit", "tiny", "subnormal squares", "huge", "overflowing"])
    def test_bit_equal_to_linalg_norm(self, scale):
        # sqrt(x^2 + y^2 + z^2) in that order is np.linalg.norm's sum over an
        # axis of three; squares that underflow or overflow do so alike
        v = scale * np.random.default_rng(40).standard_normal((10_000, 4, 3))
        v[0, 0] = (0.0, -0.0, 0.0)
        with np.errstate(over="ignore"):
            assert np.array_equal(_norm3(v), np.linalg.norm(v, axis=-1))
            assert np.array_equal(_norm3(v[0, 0]), np.linalg.norm(v[0, 0]))


class TestCircleSlice:
    def test_slice_at_unit_north_pole(self):
        x = np.array([[0.0, 0.0, 1.0]])
        centers, radii, _, _ = circle_frames(x)
        assert np.allclose(centers[0], [0.0, 0.0, 0.5], atol=1e-15)
        assert abs(radii[0] - np.sqrt(3.0) / 2.0) <= 1e-15
        pts, r = slice_point_table(x, 8)
        assert abs(r[0] - 1.0) <= 1e-15
        assert np.abs(np.linalg.norm(pts[0] - centers[0], axis=1) - radii[0]).max() <= 1e-15

    def test_slice_degenerates_to_point_at_radius_two(self):
        x = np.array([[0.0, 0.0, 2.0]])
        centers, radii, _, _ = circle_frames(x)
        assert abs(radii[0]) <= 1e-15
        assert np.allclose(centers[0], [0.0, 0.0, 1.0], atol=1e-15)
        pts, _ = slice_point_table(x, 8)
        assert np.abs(pts[0] - centers[0]).max() <= 1e-15

    def test_too_far_center_rejected(self):
        with pytest.raises(EmptyIntersectionError):
            slice_point_table(np.array([[0.0, 0.0, 2.5]]), 8)

    def test_origin_rejected(self):
        with pytest.raises(DegenerateSliceError):
            slice_point_table(np.zeros((1, 3)), 8)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_centre_rejected(self, bad):
        # a NaN centre passes the |x| = 0 and |x| > 2 checks; unchecked, its
        # frame and slice nodes would be NaN
        xs = np.array([[0.5, 0.0, 1.0], [bad, 0.0, 1.0]])
        message = re.escape(f"slice centres must be finite, got {[bad, 0.0, 1.0]}")
        with pytest.raises(ValueError, match=message):
            circle_frames(xs)
        with pytest.raises(ValueError, match=message):
            slice_point_table(xs, 8)
        # the callers that check their centres first keep their own messages
        with pytest.raises(ValueError, match="^convolution centres must be finite$"):
            convolve_many(SphereFunction.constant(), SphereFunction.constant(), xs, 8)
        with pytest.raises(ValueError, match="^slice centres must be finite$"):
            pair_slice_average(PairKernel.one(), xs, 8)

    def test_points_and_partners_are_unit_vectors(self):
        # omega(phi) in S^2 and |x - omega(phi)| = 1 define the slice
        rng = np.random.default_rng(42)
        xs = ball_points(rng, 10_000)
        centers, radii, e1, e2 = circle_frames(xs)
        phi = rng.uniform(0.0, 2 * PI, len(xs))
        pts = centers + radii[:, None] * (np.cos(phi)[:, None] * e1
                                          + np.sin(phi)[:, None] * e2)
        assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() <= 1e-13
        assert np.abs(np.linalg.norm(xs - pts, axis=1) - 1.0).max() <= 1e-13

    def test_radius_center_pythagoras(self):
        rng = np.random.default_rng(7)
        xs = ball_points(rng, 10_000)
        _, radii, _, _ = circle_frames(xs)
        r = np.linalg.norm(xs, axis=1)
        assert np.abs(radii ** 2 + 0.25 * r ** 2 - 1.0).max() <= 1e-14

    def test_frame_orthonormal_and_perpendicular_to_x(self):
        rng = np.random.default_rng(3)
        xs = ball_points(rng, 1000)
        _, _, e1, e2 = circle_frames(xs)
        assert np.abs(np.linalg.norm(e1, axis=1) - 1.0).max() <= 1e-13
        assert np.abs(np.linalg.norm(e2, axis=1) - 1.0).max() <= 1e-13
        assert np.abs(np.sum(e1 * e2, axis=1)).max() <= 1e-13
        assert np.abs(np.sum(xs * e1, axis=1)).max() <= 1e-12
        assert np.abs(np.sum(xs * e2, axis=1)).max() <= 1e-12

    def test_weight_factor_is_inverse_center_distance(self):
        # the slice table returns |x|, which carries the 1/|x| convolution weight
        x = np.array([[0.3, -0.4, 1.2], [0.0, 1.5, 0.0]])
        _, r = slice_point_table(x, 4)
        assert np.array_equal(r, np.linalg.norm(x, axis=1))

    def test_angle_node_count(self):
        pts, _ = slice_point_table(np.array([[1.0, 0.0, 0.0]]), 12)
        assert pts.shape == (1, 12, 3)
        # an odd count's rule nodes and their partners: the uniform 14-node rule
        pts, _ = slice_point_table(np.array([[1.0, 0.0, 0.0]]), 7)
        assert pts.shape == (1, 14, 3)
        even, _ = slice_point_table(np.array([[1.0, 0.0, 0.0]]), 14)
        assert np.abs(np.sort(pts[0], axis=0) - np.sort(even[0], axis=0)).max() <= 1e-15

    def test_invalid_angle_count_rejected(self):
        for n_c in (0, -2, 2.5):
            with pytest.raises(ValueError, match="n_c"):
                slice_point_table(np.array([[1.0, 0.0, 0.0]]), n_c)


class TestBallGrid:
    def test_volume(self):
        ball = build_ball_grid(12, build_sphere_grid(4))
        vol = integrate_ball(ball, lambda p: np.ones(len(p)))
        assert abs(vol - 32 * PI / 3) <= 1e-12 * 32 * PI / 3

    def test_inverse_radius_integral(self):
        # 1/|x| against the r^2 Jacobian is a polynomial in r: exactly 8 pi
        ball = build_ball_grid(8, build_sphere_grid(3))
        val = integrate_ball(ball, lambda p: 1.0 / np.linalg.norm(p, axis=1))
        assert abs(val - 8 * PI) <= 1e-12 * 8 * PI

    def test_squared_conv_closed_form_integral(self):
        ball = build_ball_grid(8, build_sphere_grid(3))
        val = integrate_ball(
            ball, lambda p: (2 * PI / np.linalg.norm(p, axis=1)) ** 2)
        assert abs(val - 32 * PI ** 3) <= 1e-12 * 32 * PI ** 3

    def test_radial_nodes_avoid_origin_and_boundary(self):
        ball = build_ball_grid(20, build_sphere_grid(2))
        assert ball.radial_nodes.min() > 0.0
        assert ball.radial_nodes.max() < 2.0

    def test_points_and_weights_shapes(self):
        directions = build_sphere_grid(3)
        ball = build_ball_grid(5, directions)
        assert ball.points().shape == (5 * directions.n_nodes, 3)
        assert ball.weights().shape == (5 * directions.n_nodes,)
        assert np.all(ball.weights() > 0)

    def test_refinement_leaves_smooth_integral_fixed(self):
        def f(p):
            return np.exp(-np.linalg.norm(p, axis=1) ** 2)

        coarse = integrate_ball(build_ball_grid(24, build_sphere_grid(8)), f)
        fine = integrate_ball(build_ball_grid(48, build_sphere_grid(16)), f)
        assert abs(coarse - fine) <= 1e-10 * abs(fine)

    def test_non_finite_integrand_rejected(self):
        ball = build_ball_grid(4, build_sphere_grid(2))
        with pytest.raises(ValueError):
            integrate_ball(ball, lambda p: np.full(len(p), np.inf))

    def test_invalid_radial_count_rejected(self):
        with pytest.raises(ValueError):
            build_ball_grid(0, build_sphere_grid(2))


class TestExactSizes:
    @pytest.mark.parametrize("L, sizes", [
        (0, (1, 2, 2)),
        (4, (9, 10, 18)),
        (8, (17, 18, 34)),
    ])
    def test_plan_values(self, L, sizes):
        assert exact_sizes(L) == sizes

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            exact_sizes(-1)


class TestSizesAreIntegers:
    # a size that is not a positive integer, or a degree that is not a
    # nonnegative integer, raises ValueError naming the value
    @pytest.mark.parametrize("n", [2.5, 0, -3, "4"])
    def test_sphere_grid(self, n):
        with pytest.raises(ValueError, match=f"n_t must be a positive integer, got {n!r}"):
            build_sphere_grid(n)

    @pytest.mark.parametrize("n", [2.5, 0, -3, None])
    def test_ball_grid(self, n):
        with pytest.raises(ValueError, match=f"n_r must be a positive integer, got {n!r}"):
            build_ball_grid(n, build_sphere_grid(2))

    @pytest.mark.parametrize("L", [2.5, 4.0])
    def test_exact_sizes(self, L):
        with pytest.raises(ValueError, match=f"L must be a nonnegative integer, got {L!r}"):
            exact_sizes(L)

    @pytest.mark.parametrize("value", [True, False])
    @pytest.mark.parametrize("call", ["n_coeffs", "build_sphere_grid", "exact_sizes", "Workspace"])
    def test_a_bool_is_not_an_integer(self, call, value):
        # bool subclasses int, so True would pass as 1 and False as 0
        from sharpsphere import Workspace, n_coeffs
        fn = {"n_coeffs": n_coeffs, "build_sphere_grid": build_sphere_grid,
              "exact_sizes": exact_sizes, "Workspace": Workspace}[call]
        with pytest.raises(ValueError,
                           match=f"must be a (positive|nonnegative) integer, got {value!r}"):
            fn(value)

    def test_numpy_integers_are_sizes(self):
        assert exact_sizes(np.int64(4)) == exact_sizes(4)
        assert build_sphere_grid(np.int32(3)).n_nodes == 18
