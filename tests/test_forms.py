"""Zero-sum pairing identity, the Q/B multilinear forms, and the chord form H."""

import functools
import tracemalloc
import weakref

import numpy as np
import pytest

from sharpsphere import (
    GammaSample,
    HarmonicCoeffs,
    PairKernel,
    SphereFunction,
    analyze,
    bilinear_b,
    build_ball_grid,
    build_basis,
    build_sphere_grid,
    conv_profile,
    convolve_many,
    default_form_grids,
    exact_sizes,
    four_identity_many,
    gamma_samples,
    h_direct_many,
    h_spectral,
    integrate_sphere,
    lambda_closed_form,
    n_coeffs,
    pair_slice_average,
    quadrilinear_q,
    random_band_limited,
    weighted_pair_kernel,
)
from sharpsphere import convolution, forms, legendre
from sharpsphere.harmonics import parity_signs
from sharpsphere.legendre import FunkHeckeSpectrum

from helpers import ball_points, rand_fn, unit_vectors

PI = np.pi
ONE = SphereFunction.constant(1.0)

TETRAHEDRON = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0],
                        [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]) / np.sqrt(3.0)


@functools.cache
def exact_form_grids(L):
    """FormGrids at exact_sizes(L): exact for squared pair kernels of band limit L."""
    n_t, n_r, n_c = exact_sizes(L)
    return default_form_grids(n_t=n_t, n_c=n_c, n_r=n_r)


class TestFourPointIdentity:
    def test_tetrahedron_vertices(self):
        assert abs(four_identity_many(GammaSample(TETRAHEDRON).omegas)[0] - 4.0) <= 1e-14

    def test_two_antipodal_pairs(self):
        # (e, -e, v, -v): one pairing vanishes, the other two give
        # |e + v|^2 + |e - v|^2 = 4 by the parallelogram law
        rng = np.random.default_rng(0)
        e, v = unit_vectors(rng, 2)
        sample = GammaSample(np.array([e, -e, v, -v]))
        assert abs(four_identity_many(sample.omegas)[0] - 4.0) <= 1e-13

    def test_random_samples_stay_on_four(self):
        rng = np.random.default_rng(1)
        omegas = gamma_samples(rng, 10_000)
        assert omegas.shape == (10_000, 4, 3)
        devs = np.abs(four_identity_many(omegas) - 4.0)
        assert devs.max() <= 1e-12

    def test_sampler_respects_constraints(self):
        rng = np.random.default_rng(2)
        omegas = gamma_samples(rng, 5000)
        norms = np.linalg.norm(omegas, axis=2)
        assert np.abs(norms - 1.0).max() <= 1e-13
        assert np.abs(omegas.sum(axis=1)).max() <= 1e-12

    def test_single_sample_constructor(self):
        sample = GammaSample(gamma_samples(np.random.default_rng(3), 1)[0])
        assert isinstance(sample, GammaSample)
        assert abs(four_identity_many(sample.omegas)[0] - 4.0) <= 1e-12

    def test_validation_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            GammaSample(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            GammaSample(2.0 * TETRAHEDRON)
        shifted = TETRAHEDRON.copy()
        shifted[0] = -shifted[0]
        with pytest.raises(ValueError):
            GammaSample(shifted)


class TestPairKernel:
    def test_constant_kernel(self):
        K = PairKernel.one()
        pts = unit_vectors(np.random.default_rng(4), 10)
        assert np.abs(K(pts, -pts) - 1.0).max() == 0.0

    def test_weighted_kernel_values(self):
        f = rand_fn(4, 5, complex_valued=True)
        K = weighted_pair_kernel(f)
        rng = np.random.default_rng(6)
        a, b = unit_vectors(rng, 20), unit_vectors(rng, 20)
        expect = f(a) * f(b) * np.linalg.norm(a + b, axis=1)
        assert np.abs(K(a, b) - expect).max() <= 1e-13 * np.abs(expect).max()

    def test_abs_squared_doubles_powers(self):
        f = rand_fn(3, 7, complex_valued=True)
        K2 = weighted_pair_kernel(f).abs_squared()
        rng = np.random.default_rng(8)
        a, b = unit_vectors(rng, 20), unit_vectors(rng, 20)
        expect = np.abs(f(a) * f(b)) ** 2 * np.linalg.norm(a + b, axis=1) ** 2
        assert np.abs(K2(a, b) - expect).max() <= 1e-13 * expect.max()

    def test_slice_average_of_constant_kernel(self):
        xs = ball_points(np.random.default_rng(9), 100)
        vals = pair_slice_average(PairKernel.one(), xs, 16)
        r = np.linalg.norm(xs, axis=1)
        assert np.abs(vals - 2 * PI / r).max() <= 1e-12 * (2 * PI / r).max()

    def test_slice_average_of_weighted_kernel_reduces_to_convolution(self):
        # the |omega + nu| weight equals |x| on the slice at x, cancelling
        # the 1/|x| convolution weight
        f = rand_fn(5, 10, complex_valued=True)
        xs = ball_points(np.random.default_rng(11), 60)
        avg = pair_slice_average(weighted_pair_kernel(f), xs, 24)
        conv = convolve_many(f, f, xs, 24)
        r = np.linalg.norm(xs, axis=1)
        scale = np.abs(avg).max()
        assert np.abs(avg - r * conv).max() <= 1e-12 * scale


class TestQuadrilinearForm:
    def test_flat_inputs_closed_form(self, exact_grids):
        q = quadrilinear_q(ONE, ONE, ONE, ONE, exact_grids)
        assert abs(q - 32 * PI ** 3) <= 1e-12 * 32 * PI ** 3

    def test_agrees_with_convolution_norm(self, exact_grids):
        # independent discretization: different circle count and radial rule
        f = rand_fn(8, 12, complex_valued=True)
        fs = f.antipodal_conjugate()
        q = quadrilinear_q(f, fs, f, fs, exact_grids).real
        norm = forms.FormGrids(build_ball_grid(20, build_sphere_grid(17)), 40).conv_l2_norm(f, fs)
        assert abs(q - norm ** 2) <= 1e-6 * norm ** 2

    def test_symmetric_under_all_argument_permutations(self, exact_grids):
        import itertools
        fns = [rand_fn(3, 13, complex_valued=True), rand_fn(4, 14),
               rand_fn(2, 15, complex_valued=True), rand_fn(5, 16)]
        vals = np.array([quadrilinear_q(*perm, exact_grids)
                         for perm in itertools.permutations(fns)])
        assert np.abs(vals - vals.mean()).max() <= 1e-8 * abs(vals.mean())

    def test_star_pairing_is_nonnegative(self, exact_grids):
        f = rand_fn(6, 17, complex_valued=True)
        q = quadrilinear_q(f, f.antipodal_conjugate(), f, f.antipodal_conjugate(),
                           exact_grids)
        assert abs(q.imag) <= 1e-12 * abs(q.real)
        assert q.real > 0.0

    def test_squares_dominate_in_slot_exchange(self, exact_grids, grid17):
        # moving both copies of f into the same pair can only raise the value
        basis = build_basis(2, grid17)
        f = SphereFunction.from_coeffs(analyze(lambda p: 1.0 + 0.1 * p[:, 2], basis))
        f2 = SphereFunction.from_coeffs(
            analyze(lambda p: (1.0 + 0.1 * p[:, 2]) ** 2, basis))
        lhs = quadrilinear_q(f, f, f, f, exact_grids).real
        rhs = quadrilinear_q(f2, f2, ONE, ONE, exact_grids).real
        assert lhs <= rhs * (1.0 + 1e-8)

    def test_symmetrization_raises_star_pairing(self, exact_grids):
        f = rand_fn(8, 18, complex_valued=True)
        fs = f.antipodal_conjugate()
        sharp = f.sharp_rearrangement()
        q = quadrilinear_q(f, fs, f, fs, exact_grids).real
        q_sharp = quadrilinear_q(sharp, sharp, sharp, sharp, exact_grids).real
        assert q <= q_sharp * (1.0 + 1e-8)

    def test_symmetrization_fixes_even_nonnegative_functions(self, exact_grids, grid17):
        # an antipodally even nonnegative function is its own rearrangement
        basis = build_basis(4, grid17)
        f = SphereFunction.from_coeffs(
            analyze(lambda p: 1.0 + 0.4 * (p[:, 2] ** 2 - 1.0 / 3.0), basis))
        fs = f.antipodal_conjugate()
        sharp = f.sharp_rearrangement()
        q = quadrilinear_q(f, fs, f, fs, exact_grids).real
        q_sharp = quadrilinear_q(sharp, sharp, sharp, sharp, exact_grids).real
        assert abs(q - q_sharp) <= 1e-8 * q_sharp

    @pytest.mark.parametrize("L", [0, 1, 2, 4])
    def test_outer_route_cross_checks_ball_route(self, L):
        grids = exact_form_grids(L)
        f = rand_fn(L, 19, complex_valued=True)
        fs = f.antipodal_conjugate()
        ball = quadrilinear_q(f, fs, f, fs, grids)
        outer = quadrilinear_q(f, fs, f, fs, grids, method="outer")
        assert abs(outer - ball) <= 1e-12 * abs(ball)

    def test_unknown_method_rejected(self, exact_grids):
        with pytest.raises(ValueError):
            quadrilinear_q(ONE, ONE, ONE, ONE, exact_grids, method="midpoint")


class TestBilinearForm:
    def test_constant_kernels_closed_form(self, exact_grids):
        b = bilinear_b(PairKernel.one(), PairKernel.one(), exact_grids)
        assert abs(b - 32 * PI ** 3) <= 1e-12 * 32 * PI ** 3

    def test_weighted_flat_kernel_closed_form(self, exact_grids):
        F = weighted_pair_kernel(ONE)
        b = bilinear_b(F, F, exact_grids).real
        assert abs(b - 128 * PI ** 3 / 3) <= 1e-12 * 128 * PI ** 3 / 3

    def test_three_quarters_bridge_to_q(self, exact_grids):
        for seed in (20, 21, 22):
            f = rand_fn(8, seed)
            F = weighted_pair_kernel(f)
            q = quadrilinear_q(f, f, f, f, exact_grids).real
            b = bilinear_b(F, F, exact_grids).real
            assert abs(q - 0.75 * b) <= 1e-6 * abs(q)

    def test_cauchy_schwarz_for_generic_kernels(self, exact_grids):
        # unstructured evaluators exercise the literal slice route; the
        # discrete measure is antipodally closed, so the inequality holds
        # without quadrature slack
        f, g = rand_fn(4, 23, complex_valued=True), rand_fn(3, 24)
        F = PairKernel(lambda a, b: f(a) * g(b) * (1.0 + np.sum(a * b, axis=-1)))
        G = PairKernel(lambda a, b: g(a) * f(b) * np.exp(np.sum(a * b, axis=-1)))
        Fsq = PairKernel(lambda a, b: np.abs(F(a, b)) ** 2)
        Gsq = PairKernel(lambda a, b: np.abs(G(a, b)) ** 2)
        lhs = abs(bilinear_b(F, G, exact_grids)) ** 2
        rhs = (bilinear_b(Fsq, PairKernel.one(), exact_grids).real
               * bilinear_b(Gsq, PairKernel.one(), exact_grids).real)
        assert lhs <= rhs * (1.0 + 1e-8)

    def test_diagonal_dominated_by_squared_kernel(self, exact_grids):
        for seed in (25, 26):
            F = weighted_pair_kernel(rand_fn(8, seed))
            b_diag = bilinear_b(F, F, exact_grids).real
            b_sq = bilinear_b(F.abs_squared(), PairKernel.one(), exact_grids).real
            assert b_diag <= b_sq * (1.0 + 1e-8)

    def test_squared_kernel_bound_is_tight_for_constants(self, exact_grids):
        F = weighted_pair_kernel(ONE)
        b_diag = bilinear_b(F, F, exact_grids).real
        b_sq = bilinear_b(F.abs_squared(), PairKernel.one(), exact_grids).real
        assert abs(b_diag - b_sq) <= 1e-8 * b_sq

    def test_squared_kernel_crude_bound(self, exact_grids, grid17):
        for seed in (27, 28):
            f = rand_fn(8, seed)
            b_sq = bilinear_b(weighted_pair_kernel(f).abs_squared(),
                              PairKernel.one(), exact_grids).real
            norm_sq = float(integrate_sphere(grid17, np.abs(f(grid17.nodes)) ** 2))
            assert b_sq <= 4 * PI * norm_sq ** 2 * (1.0 + 1e-8)

    def test_crude_bound_strict_for_flat_input(self, exact_grids):
        b_sq = bilinear_b(weighted_pair_kernel(ONE).abs_squared(),
                          PairKernel.one(), exact_grids).real
        bound = 4 * PI * (4 * PI) ** 2
        assert b_sq <= bound * (1.0 - 0.3)   # 128 pi^3 / 3 vs 64 pi^3

    def test_outer_route_cross_checks_ball_route(self, exact_grids):
        F = weighted_pair_kernel(rand_fn(8, 29)).abs_squared()
        ball = bilinear_b(F, PairKernel.one(), exact_grids)
        outer = bilinear_b(F, PairKernel.one(), exact_grids, method="outer")
        assert abs(outer - ball) <= 1e-12 * abs(ball)

    @pytest.mark.parametrize("L", [0, 1, 2, 4])
    @pytest.mark.parametrize("case", ["weighted", "squared", "polynomial",
                                      "unstructured-squared"])
    def test_outer_route_matches_ball_route_exactly(self, case, L):
        # |K|^2 of a literal K has no structure either; the ball route takes it
        # through pair_slice_average at the ball nodes
        grids = exact_form_grids(L)
        f, g = rand_fn(L, 57, complex_valued=True), rand_fn(L, 58)
        W = weighted_pair_kernel(f)
        F, G = {"weighted": (W, W),
                "squared": (W.abs_squared(), PairKernel.one()),
                "unstructured-squared": (PairKernel(W.evaluator).abs_squared(),
                                         PairKernel.one()),
                "polynomial": (PairKernel(lambda a, b: f(a) * g(b)
                                          * (1.0 + np.sum(a * b, axis=-1))), W)}[case]
        ball = bilinear_b(F, G, grids)
        outer = bilinear_b(F, G, grids, method="outer")
        assert abs(outer - ball) <= 1e-12 * abs(ball)

    def test_outer_route_is_independent_of_the_ball_route(self, monkeypatch):
        f = rand_fn(4, 59, complex_valued=True)
        Q = PairKernel.tensor(f, f.antipodal_conjugate())
        expect = bilinear_b(Q, Q, exact_form_grids(4))

        def unavailable(*args, **kwargs):
            raise AssertionError("the outer route must not use the ball route's tables")
        for name in ("SliceColumn", "SlicePlan", "pair_profile"):
            monkeypatch.setattr(forms, name, unavailable)
        n_t, n_r, n_c = exact_sizes(4)
        fresh = default_form_grids(n_t=n_t, n_c=n_c, n_r=n_r)   # no cached column
        with pytest.raises(AssertionError):
            bilinear_b(Q, Q, fresh)
        assert abs(bilinear_b(Q, Q, fresh, method="outer") - expect) <= 1e-12 * abs(expect)

    @pytest.mark.parametrize("route", ["even", "odd", "generic", "outer"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_values_are_rejected(self, route, bad):
        grids = default_form_grids(n_t=2, n_c=5 if route == "odd" else 4, n_r=2)
        f = lambda p: np.full(len(p), bad)
        F = (PairKernel(lambda a, b: f(a) * (1.0 + np.sum(a * b, axis=-1)))
             if route == "generic" else PairKernel.tensor(ONE, f))
        method = "outer" if route == "outer" else "ball"
        with pytest.raises(ValueError):
            bilinear_b(F, PairKernel.one(), grids, method)
        with pytest.raises(ValueError):
            quadrilinear_q(ONE, ONE, f, ONE, grids, method)

    def test_unknown_method_rejected(self, exact_grids):
        with pytest.raises(ValueError):
            bilinear_b(PairKernel.one(), PairKernel.one(), exact_grids,
                       method="midpoint")


def reference_q(f1, f2, f3, f4, grids):
    """Ball route over every ball node with literal partner points."""
    X, w = grids.ball.points(), grids.ball.weights()
    c12 = pair_slice_average(PairKernel(lambda a, b: f1(a) * f2(b)), X, grids.n_c)
    c34 = pair_slice_average(PairKernel(lambda a, b: f3(a) * f4(b)), -X, grids.n_c)
    return np.sum(w * c12 * c34)


def reference_b(F, G, grids):
    X, w = grids.ball.points(), grids.ball.weights()
    return np.sum(w * pair_slice_average(F, X, grids.n_c)
                  * pair_slice_average(G, -X, grids.n_c))


class ReferenceCases:
    """Q and B on grids4 against literal slice averages at every ball node."""

    @pytest.mark.parametrize("complex_valued", [False, True])
    def test_q_star_pairing(self, grids4, complex_valued):
        f = rand_fn(4, 50, complex_valued=complex_valued)
        fs = f.antipodal_conjugate()
        ref = reference_q(f, fs, f, fs, grids4)
        assert abs(quadrilinear_q(f, fs, f, fs, grids4) - ref) <= 1e-12 * abs(ref)

    def test_q_mixed_degrees_and_callable(self, grids4):
        fns = [rand_fn(4, 51, complex_valued=True), rand_fn(2, 52),
               SphereFunction.plane_wave((0.2, -0.4, 0.3)), rand_fn(3, 53)]
        ref = reference_q(*fns, grids4)
        assert abs(quadrilinear_q(*fns, grids4) - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("complex_valued", [False, True])
    def test_q_sharp_rearrangement(self, grids4, complex_valued):
        sharp = rand_fn(4, 54, complex_valued=complex_valued).sharp_rearrangement()
        ref = reference_q(sharp, sharp, sharp, sharp, grids4)
        q = quadrilinear_q(sharp, sharp, sharp, sharp, grids4)
        assert abs(q - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("complex_valued", [False, True])
    def test_b_structured_and_generic_kernels(self, grids4, complex_valued):
        f = rand_fn(4, 55, complex_valued=complex_valued)
        F = weighted_pair_kernel(f)
        generic = PairKernel(lambda a, b: f(a) * np.exp(np.sum(a * b, axis=-1)))
        for K, M in ((F, F), (F.abs_squared(), PairKernel.one()), (generic, F)):
            ref = reference_b(K, M, grids4)
            assert abs(bilinear_b(K, M, grids4) - ref) <= 1e-12 * abs(ref)


class TestBallRouteAgainstReference(ReferenceCases):
    """The column-table ball route (even n_c)."""

    @pytest.fixture(scope="class")
    def grids4(self):
        # exact for band limit 4: sphere degree 17, radial degree 21, trig degree 17
        return default_form_grids(n_t=9, n_c=18, n_r=10)

    def test_azimuth_blocks_agree_with_one_block(self, grids4, monkeypatch):
        f = rand_fn(4, 56, complex_valued=True)
        wave = SphereFunction.plane_wave((0.1, 0.3, -0.2))
        generic = PairKernel(lambda a, b: f(a) * wave(b))

        def values():
            return [quadrilinear_q(f, f.antipodal_conjugate(), f.sharp_rearrangement(),
                                   wave, grids4),
                    bilinear_b(generic, weighted_pair_kernel(f), grids4)]

        whole = values()
        monkeypatch.setattr(convolution, "_BLOCK_NODES", 5000)
        assert len(grids4.slice_column(4).blocks()) == 6
        for blocked, one in zip(values(), whole):
            assert abs(blocked - one) <= 1e-13 * abs(one)


class TestOddSliceCountAgainstReference(ReferenceCases):
    """Odd n_c: no rule node is another's partner, so the column adds the partners."""

    @pytest.fixture(scope="class")
    def grids4(self):
        return default_form_grids(n_t=9, n_c=19, n_r=10)


def node_valued_cases():
    """(kernel, factor pair) per node-valued case: an asymmetric literal f
    tensor g, f tensor f#, and |f tensor g| (odd magnitude power), whose
    factors for a convolution are the literal |f| and |g|."""
    f, g = rand_fn(4, 150, complex_valued=True), rand_fn(3, 151, complex_valued=True)
    fsh = f.sharp_rearrangement()
    absf, absg = (SphereFunction(lambda p, h=h: np.abs(h(p))) for h in (f, g))
    odd = PairKernel(lambda a, b: np.abs(f(a) * g(b)), factors=(f, g), magnitude_power=1)
    return [(PairKernel.tensor(literal(f), literal(g)), (literal(f), literal(g))),
            (PairKernel.tensor(f, fsh), (f, fsh)), (odd, (absf, absg))]


class TestOddSliceCountIsTheDoubledRule:
    """At odd n_c a slice's nodes are its n_c rule nodes and their partners,
    the uniform 2 n_c rule, on every node-valued route: each value is the
    one at 2 n_c, up to the order of the sums."""

    ball = build_ball_grid(4, build_sphere_grid(5))

    @pytest.mark.parametrize("n_c", [3, 7, 35])
    @pytest.mark.parametrize("route", ["ball", "outer", "convolve_many", "pair_slice_average",
                                       "conv_profile"])
    def test_equals_the_value_at_twice_the_count(self, route, n_c):
        xs = ball_points(np.random.default_rng(152), 20)

        def value(K, pair, n):
            if route in ("ball", "outer"):
                return bilinear_b(K, K, forms.FormGrids(self.ball, n), route)
            if route == "convolve_many":
                return convolve_many(*pair, xs, n)
            if route == "pair_slice_average":
                return pair_slice_average(K, xs, n)
            return conv_profile(*pair, np.linspace(0.1, 2.0, 7), n_c=n).values

        for K, pair in node_valued_cases():
            odd, doubled = value(K, pair, n_c), value(K, pair, 2 * n_c)
            assert np.abs(odd - doubled).max() <= 1e-14 * np.abs(doubled).max()


class TestSliceCount:
    """n_c governs only the kernels the ball route pairs at slice nodes."""

    @pytest.mark.parametrize("n_c", [0, -2, 2.0])
    def test_n_c_must_be_a_positive_integer(self, n_c):
        # checked at construction, before any Q reads a slice node
        ball = build_ball_grid(3, build_sphere_grid(3))
        with pytest.raises(ValueError, match="n_c"):
            forms.FormGrids(ball, n_c)
        with pytest.raises(ValueError, match="n_c"):
            default_form_grids(n_t=3, n_r=3, n_c=n_c)
        assert forms.FormGrids(ball, np.int64(3)).n_c == 3

    def test_band_limited_pairs_do_not_depend_on_n_c(self):
        # Q(f, f*, f, f*) pairs in slice-angle modes: exact at n_c <= 2L too
        f = rand_fn(4, 60, complex_valued=True)
        fs = f.antipodal_conjugate()
        ball = exact_form_grids(4).ball
        exact = quadrilinear_q(f, fs, f, fs, forms.FormGrids(ball, 18))
        for n_c in (3, 4, 7):
            q = quadrilinear_q(f, fs, f, fs, forms.FormGrids(ball, n_c))
            assert abs(q - exact) <= 1e-13 * abs(exact)
        ref = reference_q(f, fs, f, fs, forms.FormGrids(ball, 18))
        assert abs(exact - ref) <= 1e-12 * abs(ref)

    def test_node_valued_kernels_do(self):
        f = rand_fn(4, 61)
        sharp = f.sharp_rearrangement()
        ball = exact_form_grids(4).ball
        few, many = (quadrilinear_q(sharp, sharp, sharp, sharp, forms.FormGrids(ball, n_c))
                     for n_c in (4, 34))
        assert abs(few - many) > 1e-6 * abs(many)


def literal(f):
    """f as a closure: the ball route reads it at the n_c slice nodes."""
    return SphereFunction(lambda p: f(p))


def magnitude_kernels(f, g):
    """|F|^p kernels of band limit L, each with p: B(|F|^2, 1)'s (F the
    weighted square of f), |f tensor g|^2 with f != g, and |F|^4."""
    W = weighted_pair_kernel(f)
    return [(W.abs_squared(), 2), (PairKernel.tensor(f, g).abs_squared(), 2),
            (W.abs_squared().abs_squared(), 4)]


class TestHalfTurnRule:
    """|F|^p of even p on band-limited factors pairs on its band limit's own
    2(pL+1) nodes, half of them partners of the other half: exact at every
    n_c, with no n_c slice nodes.
    Exactness is per slice, so a small ball grid shows it at every L."""

    ball = build_ball_grid(4, build_sphere_grid(5))

    @pytest.mark.parametrize("odd", [False, True], ids=["even", "odd"])
    @pytest.mark.parametrize("complex_valued", [False, True])
    @pytest.mark.parametrize("L", [0, 1, 2, 4, 8])
    def test_matches_the_node_route_where_it_is_exact(self, L, complex_valued, odd):
        # the node route, on literal factors, is exact at n_c >= 2pL+1
        f = rand_fn(L, 140, complex_valued=complex_valued)
        g = rand_fn(L, 141, complex_valued=True)
        for (K, p), (N, _) in zip(magnitude_kernels(f, g),
                                  magnitude_kernels(literal(f), literal(g))):
            grids = forms.FormGrids(self.ball, 2 * p * L + 2 + odd)
            value = bilinear_b(K, PairKernel.one(), grids)
            nodes = bilinear_b(N, PairKernel.one(), grids)
            assert abs(value - nodes) <= 1e-14 * abs(nodes)

    @pytest.mark.parametrize("complex_valued", [False, True])
    @pytest.mark.parametrize("L", [0, 1, 2, 4, 8])
    def test_is_exact_where_the_slice_rule_is_not(self, L, complex_valued):
        # at small n_c B matches the literal route on an exact slice rule;
        # pair_slice_average at that n_c misses it where its N-point rule
        # (N = n_c, or 2 n_c at odd n_c) aliases a frequency of the degree-2pL
        # integrand: at N <= 2pL
        f = rand_fn(L, 142, complex_valued=complex_valued)
        g = rand_fn(L, 143, complex_valued=True)
        for K, p in magnitude_kernels(f, g):
            flat = PairKernel(K.evaluator)   # no structure: pair_slice_average
            exact = bilinear_b(flat, PairKernel.one(), forms.FormGrids(self.ball, 2 * p * L + 2))
            for n_c in (4, 6, 7, 12):
                grids = forms.FormGrids(self.ball, n_c)
                value = bilinear_b(K, PairKernel.one(), grids)
                assert abs(value - exact) <= 1e-13 * abs(exact)
                if (2 * n_c if n_c % 2 else n_c) <= 2 * p * L:
                    miss = bilinear_b(flat, PairKernel.one(), grids)
                    assert abs(miss - exact) > 1e-8 * abs(exact)

    @pytest.mark.parametrize("complex_valued", [False, True])
    def test_takes_no_slice_node(self, complex_valued, monkeypatch):
        # B(|F|^2, 1) expands nothing to the column's n_c nodes: its one
        # expansion is to the band limit's own 2(2L+1) nodes
        grids = forms.FormGrids(exact_form_grids(4).ball, 12)
        f = rand_fn(4, 144, complex_valued=complex_valued)
        F = weighted_pair_kernel(f)
        bilinear_b(F, F, grids)
        expanded, to_nodes = [], convolution._to_nodes

        def spy(a, expansion):
            expanded.append(expansion.shape)
            return to_nodes(a, expansion)

        monkeypatch.setattr(convolution, "_to_nodes", spy)
        monkeypatch.setattr(convolution.SplitValues, "nodes", None)   # any call raises
        bilinear_b(F.abs_squared(), PairKernel.one(), grids)
        parts = 2 if complex_valued else 1
        assert expanded == [(9, 18)] * parts * 2 * len(grids.slice_column(4).blocks())
        assert grids.slice_column(4).expansion.shape == (9, 12)


def unfolded_b(F, G, grids):
    """The ball route before the antipodal fold: F's profile at x times G's at
    -x, summed over every azimuth row of the ball grid. Rows a >= n_t, which
    the sampler does not cover, take the factors from a harmonic table at
    their literal slice nodes, independent of the column's rotation."""
    kernels = ((F, False), (G, True))
    plan = convolution.SlicePlan(
        [(f, negate) for K, negate in kernels if K.factors for f in K.factors])
    col = grids.slice_column(plan.degree)
    sample = col.sampler(plan)
    total = 0.0 + 0.0j
    for a in range(col.n_az):
        if a < col.n_az // 2:
            values = iter(sample(a, a + 1))
        else:
            values = iter([convolution.SplitValues(v.real, v.imag) if np.iscomplexobj(v)
                           else convolution.SplitValues(v)
                           for v in plan.at(col.points(a, a + 1))])
        pf, pg = [forms._kernel_profile(K, values, col, a, a + 1, negate)
                  for K, negate in kernels]
        total += np.sum(col.weights * pf * pg)
    return total


def odd_form_grids(L):
    """exact_form_grids(L) with one more slice node: an odd n_c, whose column adds
    each rule node's partner."""
    grids = exact_form_grids(L)
    return forms.FormGrids(grids.ball, grids.n_c + 1)


class TestAntipodalFold:
    """The ball route sums rows a < n_t for x and -x alike."""

    @pytest.mark.parametrize("L, odd", [(L, False) for L in (0, 1, 2, 4, 8)]
                             + [(L, True) for L in (0, 1, 2, 4, 8)],
                             ids=["0", "1", "2", "4", "8",
                                  "0-odd", "1-odd", "2-odd", "4-odd", "8-odd"])
    @pytest.mark.parametrize("case", ["star", "sharp", "weighted", "squared", "polynomial"])
    def test_matches_the_sum_over_every_azimuth_row(self, case, L, odd):
        grids = odd_form_grids(L) if odd else exact_form_grids(L)
        f, g = rand_fn(L, 64, complex_valued=True), rand_fn(L, 65)
        fs, sharp = f.antipodal_conjugate(), f.sharp_rearrangement()
        W = weighted_pair_kernel(f)
        F, G = {"star": (PairKernel.tensor(f, fs), PairKernel.tensor(f, fs)),
                "sharp": (PairKernel.tensor(sharp, sharp),) * 2,
                "weighted": (W, W),
                "squared": (W.abs_squared(), PairKernel.one()),
                "polynomial": (PairKernel(lambda a, b: f(a) * g(b)
                                          * (1.0 + np.sum(a * b, axis=-1))), W)}[case]
        ref = unfolded_b(F, G, grids)
        assert abs(bilinear_b(F, G, grids) - ref) <= 1e-14 * abs(ref)

    def test_never_reaches_a_row_past_n_t(self, monkeypatch):
        grids = default_form_grids(n_t=9, n_c=18, n_r=10)
        f = rand_fn(4, 66, complex_valued=True)
        generic = PairKernel(lambda a, b: f(a) * np.exp(np.sum(a * b, axis=-1)))
        rows = []
        column = convolution.SliceColumn
        sampler, points, centres = column.sampler, column.points, column.centres

        def spy_sampler(col, plan):
            sample = sampler(col, plan)
            def spied(a0, a1):
                rows.extend(range(a0, a1))
                return sample(a0, a1)
            return spied

        def spy(method):
            def spied(col, a0, a1):
                rows.extend(range(a0, a1))
                return method(col, a0, a1)
            return spied

        monkeypatch.setattr(column, "sampler", spy_sampler)
        monkeypatch.setattr(column, "points", spy(points))
        monkeypatch.setattr(column, "centres", spy(centres))
        monkeypatch.setattr(convolution, "_BLOCK_NODES", 5000)
        bilinear_b(generic, weighted_pair_kernel(f), grids)
        n_t = grids.slice_column(4).n_az // 2
        assert len(grids.slice_column(4).blocks()) > 1
        assert set(rows) == set(range(n_t))

    @pytest.mark.parametrize("case", ["odd", "unstructured"])
    def test_literal_kernels_go_through_pair_slice_average(self, case, monkeypatch):
        # only an unstructured kernel is literal: a structured one reads the
        # column table at odd n_c too, so its evaluator is never called
        f = rand_fn(4, 73, complex_valued=True)
        fs = f.antipodal_conjugate()
        grids = default_form_grids(n_t=9, n_c=19 if case == "odd" else 18, n_r=10)
        inside, calls, spectra_rows = [False], [], []

        def spied(evaluator):
            def ev(omega, nu):
                calls.append(inside[0])
                return evaluator(omega, nu)
            return ev

        average, spectra = forms.pair_slice_average, convolution.SliceColumn.spectra

        def spy_average(K, X, n_c):
            inside[0] = True
            try:
                return average(K, X, n_c)
            finally:
                inside[0] = False

        def spy_spectra(col, coeffs):
            spectra_rows.append(len(coeffs))
            return spectra(col, coeffs)

        if case == "odd":
            F = PairKernel(spied(lambda a, b: f(a) * fs(b)), factors=(f, fs))
            G = F
        else:
            F = PairKernel(spied(lambda a, b: f(a) * fs(b) * (1.0 + np.sum(a * b, axis=-1))))
            G = PairKernel.one()
        expect = reference_b(F, G, grids)
        calls.clear()
        monkeypatch.setattr(forms, "pair_slice_average", spy_average)
        monkeypatch.setattr(convolution.SliceColumn, "spectra", spy_spectra)
        value = bilinear_b(F, G, grids)
        if case == "odd":
            assert calls == [] and sum(spectra_rows) > 0
        else:
            assert calls and all(calls)
            assert sum(spectra_rows) == 0
        assert abs(value - expect) <= 1e-12 * abs(expect)


def chain_values(f, grids, fresh=False):
    """The paper's chain on f: Q(f, f*, f, f*), sharp Q, Q(f, f, f, f), B(F, F)
    and B(|F|^2, 1) with F the weighted kernel; fresh takes new grids per call."""
    fs, sharp = f.antipodal_conjugate(), f.sharp_rearrangement()
    F = weighted_pair_kernel(f)
    calls = [lambda g: quadrilinear_q(f, fs, f, fs, g),
             lambda g: quadrilinear_q(sharp, sharp, sharp, sharp, g),
             lambda g: quadrilinear_q(f, f, f, f, g),
             lambda g: bilinear_b(F, F, g),
             lambda g: bilinear_b(F.abs_squared(), PairKernel.one(), g)]
    return [call(forms.FormGrids(grids.ball, grids.n_c) if fresh else grids)
            for call in calls]


@pytest.fixture
def spectra_rows(monkeypatch):
    """Rows per SliceColumn.spectra call."""
    rows, spectra = [], convolution.SliceColumn.spectra

    def spy(col, coeffs):
        rows.append(len(coeffs))
        return spectra(col, coeffs)

    monkeypatch.setattr(convolution.SliceColumn, "spectra", spy)
    return rows


@pytest.fixture
def row_passes(monkeypatch):
    """Rows per SliceColumn.spectra call, and rows per synthesis from its
    output: the spectra come back as an array that records each ufunc, such
    as np.matmul, that reads them, with the row count of its result."""
    passes, spectra = {"spectra": [], "synthesis": []}, convolution.SliceColumn.spectra

    class Spectra(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            inputs = [x.view(np.ndarray) if isinstance(x, Spectra) else x for x in inputs]
            out = getattr(ufunc, method)(*inputs, **kwargs)
            passes["synthesis"].append((ufunc.__name__, int(np.prod(out.shape[:-2]))))
            return out

    def spy(col, coeffs):
        passes["spectra"].append(len(coeffs))
        return spectra(col, coeffs).view(Spectra)

    monkeypatch.setattr(convolution.SliceColumn, "spectra", spy)
    return passes


def held_fields(col) -> dict:
    """The field rows a SliceColumn holds, views of its one buffer, by id."""
    return {id(v): v for v in col._memo[1]}


class TestSpectraMemo:
    """A SliceColumn reuses the fields of its last sampler call's rows."""

    @pytest.mark.parametrize("odd", [False, True], ids=["even", "odd"])
    @pytest.mark.parametrize("complex_valued", [False, True])
    def test_chain_computes_the_rows_of_f_once(self, complex_valued, odd, spectra_rows):
        grids = odd_form_grids(4) if odd else exact_form_grids(4)
        grids = forms.FormGrids(grids.ball, grids.n_c)
        f = rand_fn(4, 94, complex_valued=complex_valued)
        values = chain_values(f, grids)
        # the real and imaginary rows of f at +-p
        assert spectra_rows == [4 if complex_valued else 2]
        assert values == chain_values(f, grids, fresh=True)

    @pytest.mark.parametrize("complex_valued", [False, True])
    def test_chain_synthesizes_each_row_once(self, complex_valued, row_passes):
        grids = forms.FormGrids(exact_form_grids(4).ball, exact_form_grids(4).n_c)
        f = rand_fn(4, 105, complex_valued=complex_valued)
        values = chain_values(f, grids)
        rows = 4 if complex_valued else 2
        assert row_passes == {"spectra": [rows], "synthesis": [("matmul", rows)]}
        assert values == chain_values(f, grids, fresh=True)

    def test_memo_holds_n_t_field_rows_per_coefficient_row(self):
        grids = forms.FormGrids(exact_form_grids(4).ball, exact_form_grids(4).n_c)
        f = rand_fn(4, 106, complex_valued=True)
        chain_values(f, grids)
        col = grids.slice_column(4)
        n_t, modes = col.n_az // 2, col.table.shape[1]
        held = held_fields(col)
        assert len(held) == 4
        assert all(v.shape == (n_t, col.radii.size, 2 * col.L + 1) for v in held.values())
        assert sum(v.nbytes for v in held.values()) == 4 * n_t * modes * 8
        assert len({id(v.base) for v in held.values()}) == 1   # one buffer

    def test_a_negated_hit_reads_the_held_field_with_sign_minus_one(self):
        grids = forms.FormGrids(exact_form_grids(4).ball, exact_form_grids(4).n_c)
        f = rand_fn(4, 107, complex_valued=True)
        neg = SphereFunction.from_coeffs(HarmonicCoeffs(4, -f.coeffs.coeffs))
        col = grids.slice_column(4)
        (pos,) = col.sampler(convolution.SlicePlan([(f, False)]))(0, col.n_az // 2)
        assert pos.re_sign == pos.im_sign == 1.0
        (v,) = col.sampler(convolution.SlicePlan([(neg, False)]))(0, col.n_az // 2)
        assert v.re_sign == v.im_sign == -1.0
        held = held_fields(col).values()
        assert any(np.shares_memory(v.re, h) for h in held)
        assert any(np.shares_memory(v.im, h) for h in held)
        fresh = forms.FormGrids(grids.ball, grids.n_c).slice_column(4)
        (expect,) = fresh.sampler(convolution.SlicePlan([(neg, False)]))(0, col.n_az // 2)
        assert np.array_equal(v.dense(), expect.dense())

    def test_sign_flipped_rows_are_hits(self, spectra_rows):
        grids = forms.FormGrids(exact_form_grids(4).ball, exact_form_grids(4).n_c)
        f = rand_fn(4, 95, complex_valued=True)
        fs = f.antipodal_conjugate()
        neg = SphereFunction.from_coeffs(HarmonicCoeffs(4, -f.coeffs.coeffs))
        quadrilinear_q(f, fs, f, fs, grids)
        # odd in neg, so a row read with the wrong sign would flip the value
        value = quadrilinear_q(neg, f, fs, fs, grids)
        assert spectra_rows == [4]
        fresh = forms.FormGrids(grids.ball, grids.n_c)
        assert value == quadrilinear_q(neg, f, fs, fs, fresh)

    def test_a_call_on_another_function_drops_the_rows(self, spectra_rows):
        grids = forms.FormGrids(exact_form_grids(4).ball, exact_form_grids(4).n_c)
        f, g = rand_fn(4, 96, complex_valued=True), rand_fn(4, 97, complex_valued=True)
        first = quadrilinear_q(f, f, f, f, grids)
        quadrilinear_q(g, g, g, g, grids)
        held = held_fields(grids.slice_column(4))
        assert len(held) == 4   # g's rows only
        assert quadrilinear_q(f, f, f, f, grids) == first
        assert spectra_rows == [4, 4, 4]

    def test_a_rebuilt_column_starts_empty(self, spectra_rows):
        grids = forms.FormGrids(exact_form_grids(4).ball, exact_form_grids(4).n_c)
        f, h = rand_fn(2, 98, complex_valued=True), rand_fn(4, 99, complex_valued=True)
        fs, hs = f.antipodal_conjugate(), h.antipodal_conjugate()
        quadrilinear_q(f, fs, f, fs, grids)
        low = grids.slice_column(2)
        value = quadrilinear_q(f, fs, h, hs, grids)
        assert grids.slice_column(4) is not low
        assert spectra_rows == [4, 8]   # f's rows again, on the new column
        assert value == quadrilinear_q(f, fs, h, hs, forms.FormGrids(grids.ball, grids.n_c))

    def test_a_partly_reused_batch_is_recomputed(self, spectra_rows):
        grids = forms.FormGrids(exact_form_grids(4).ball, exact_form_grids(4).n_c)
        f = rand_fn(4, 104, complex_valued=True)
        re = SphereFunction.from_coeffs(HarmonicCoeffs(4, f.coeffs.coeffs.real.copy()))
        quadrilinear_q(f, f, f, f, grids)
        value = quadrilinear_q(re, re, re, re, grids)   # 2 of f's 4 rows
        assert spectra_rows == [4, 2]
        assert len(held_fields(grids.slice_column(4))) == 2
        assert value == quadrilinear_q(re, re, re, re, forms.FormGrids(grids.ball, grids.n_c))

    @pytest.mark.parametrize("case", ["B(1, 1)", "literal"])
    def test_a_call_without_rows_keeps_the_memo(self, case, spectra_rows):
        grids = forms.FormGrids(exact_form_grids(4).ball, exact_form_grids(4).n_c)
        f = rand_fn(4, 108)
        fs = f.antipodal_conjugate()
        K = (PairKernel.one() if case == "B(1, 1)"
             else PairKernel(lambda a, b: f(a) * np.exp(np.sum(a * b, axis=-1))))
        first = quadrilinear_q(f, fs, f, fs, grids)
        bilinear_b(K, PairKernel.one(), grids)
        assert quadrilinear_q(f, fs, f, fs, grids) == first
        assert spectra_rows == [2]

    @pytest.mark.parametrize("complex_valued", [False, True])
    def test_each_row_is_keyed_once_per_call(self, complex_valued, monkeypatch):
        # recall keys each of the plan's rows, which are distinct, once
        keyed, row_keys = [], convolution._row_keys

        def spy(row):
            keyed.append(row.tobytes())
            return row_keys(row)

        monkeypatch.setattr(convolution, "_row_keys", spy)
        grids = forms.FormGrids(exact_form_grids(4).ball, exact_form_grids(4).n_c)
        f = rand_fn(4, 109, complex_valued=complex_valued)
        fs = f.antipodal_conjugate()
        rows = 4 if complex_valued else 2
        for _ in range(2):   # a fresh memo, then a hit
            keyed.clear()
            quadrilinear_q(f, fs, f, fs, grids)
            assert len(keyed) == len(set(keyed)) == rows

    def test_one_row_after_a_batch_matches_a_fresh_column(self):
        # BLAS rounds a row differently in batches of other sizes: a field
        # reused out of Q(e, f2, f3, f4)'s batch of rows would not match
        e = rand_fn(4, 203)
        e = SphereFunction.from_coeffs(
            HarmonicCoeffs(4, 0.5 * (e.coeffs.coeffs + parity_signs(4) * e.coeffs.coeffs)))
        grids = forms.FormGrids(exact_form_grids(4).ball, exact_form_grids(4).n_c)
        quadrilinear_q(e, rand_fn(4, 309), rand_fn(4, 310), rand_fn(4, 311), grids)
        value = quadrilinear_q(e, e, e, e, grids)   # an even-degree real e: one row
        assert value == quadrilinear_q(e, e, e, e, forms.FormGrids(grids.ball, grids.n_c))

    def test_a_reused_row_pins_no_second_call(self, exact_grids):
        # sharp Q after complex Q on the same f reads the rows that complex Q
        # left behind; it must peak no higher than on a column without them
        f = rand_fn(8, 100, complex_valued=True)
        fs, sharp = f.antipodal_conjugate(), f.sharp_rearrangement()

        def peak(warm: bool) -> int:
            grids = forms.FormGrids(exact_grids.ball, exact_grids.n_c)
            grids.slice_column(8)
            tracemalloc.start()
            try:
                if warm:
                    quadrilinear_q(f, fs, f, fs, grids)
                    tracemalloc.reset_peak()
                quadrilinear_q(sharp, sharp, sharp, sharp, grids)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(True) <= peak(False) + 64 * 1024


@pytest.fixture
def profile_calls(monkeypatch):
    """Counts of forms.pair_profile and forms.pair_slice_average calls."""
    counts = {"pair_profile": 0, "pair_slice_average": 0}
    for name in counts:
        def spy(*args, _name=name, _inner=getattr(forms, name)):
            counts[_name] += 1
            return _inner(*args)
        monkeypatch.setattr(forms, name, spy)
    return counts


class TestSameKernelFold:
    """B(F, G) with G's profiles those of F forms only F's products: G's
    profiles read them from the memo's store, or G is F and is not
    profiled again."""

    def test_conjugate_pairing_takes_two_profiles_per_block(self, half_pairs, spectra_rows):
        # F's two profiles per block form every product: f f* at x, read
        # swapped at -x; G's, on the same factors or on a twin's, read them
        grids = exact_form_grids(4)
        f = rand_fn(4, 101, complex_valued=True)
        twin = SphereFunction.from_coeffs(f.coeffs)   # equal values, another object
        fs = f.antipodal_conjugate()
        blocks = len(grids.slice_column(4).blocks())
        folded = quadrilinear_q(f, fs, f, fs, grids)
        assert half_pairs[0] == 4 * blocks
        assert spectra_rows == [4]
        whole = quadrilinear_q(f, fs, twin, twin.antipodal_conjugate(), grids)
        assert half_pairs[0] == 4 * blocks
        assert spectra_rows == [4]
        assert folded == whole

    @pytest.mark.parametrize("case", ["sum_weight_power", "magnitude_power"])
    def test_other_powers_are_not_folded(self, case, profile_calls):
        grids = exact_form_grids(4)
        f = rand_fn(4, 102, complex_valued=True)
        W = weighted_pair_kernel(f)
        if case == "sum_weight_power":
            F, G = W, PairKernel.tensor(f, f)
        else:
            F = W.abs_squared()
            G = PairKernel(lambda a, b: F(a, b) / np.linalg.norm(a + b, axis=-1) ** 2,
                           factors=W.factors, sum_weight_power=2)
        assert F.factors[0] is G.factors[0] and F.factors[1] is G.factors[1]
        value = bilinear_b(F, G, grids)
        assert profile_calls["pair_profile"] == 4 * len(grids.slice_column(4).blocks())
        ref = unfolded_b(F, G, grids)
        assert abs(value - ref) <= 1e-14 * abs(ref)

    def test_literal_kernel_is_averaged_once_per_sign(self, profile_calls):
        grids = exact_form_grids(2)
        f = rand_fn(2, 103, complex_valued=True)
        K = PairKernel(lambda a, b: f(a) * f(b) * np.exp(np.sum(a * b, axis=-1)))
        blocks = len(grids.slice_column(0).blocks())
        folded = bilinear_b(K, K, grids)
        assert profile_calls["pair_slice_average"] == 2 * blocks
        whole = bilinear_b(K, PairKernel(K.evaluator), grids)
        assert profile_calls["pair_slice_average"] == 6 * blocks
        assert folded == whole


@pytest.fixture
def half_pairs(monkeypatch):
    """Count of the real products of slice values: convolution._half_pair
    calls at the slice nodes and _mode_pair calls in slice-angle modes."""
    calls = [0]
    for name in ("_half_pair", "_mode_pair"):
        def spy(*args, _inner=getattr(convolution, name)):
            calls[0] += 1
            return _inner(*args)

        monkeypatch.setattr(convolution, name, spy)
    return calls


@pytest.fixture
def unshared(monkeypatch):
    """Run a call with every real product formed anew: forms.pair_profile sees
    the sampled values without their product stores."""
    def strip(v):
        return v if isinstance(v, np.ndarray) else v._replace(products=None)

    def run(call):
        with monkeypatch.context() as m:
            m.setattr(forms, "pair_profile",
                      lambda va, vb, *args, _inner=forms.pair_profile:
                      _inner(strip(va), strip(vb), *args))
            return call()
    return run


def held_products(col) -> list:
    """The real products a SliceColumn keeps next to its fields, over all blocks."""
    return [p for block in col._memo[2].values() for p in block.values()]


class TestHeldProducts:
    """Each real product of two held field rows is formed once per block."""

    @staticmethod
    def two_blocks(grids, L, monkeypatch):
        col = grids.slice_column(L)
        nodes = col.n_az * col.radii.size * col.expansion.shape[1]
        monkeypatch.setattr(convolution, "_BLOCK_NODES", -(-nodes // 2))
        assert len(col.blocks()) == 2

    def test_chain_sample_forms_twelve_products_on_two_blocks(self, half_pairs, monkeypatch):
        # per block: f f* once for both signs, the sharp field once, f f and
        # f(-.) f(-.) once for Q(f, f, f, f) and B(F, F), and B(|F|^2, 1)'s
        # |f|^2 pairs on the band limit's own nodes at x and -x
        grids = forms.FormGrids(exact_form_grids(4).ball, exact_form_grids(4).n_c)
        self.two_blocks(grids, 4, monkeypatch)
        chain_values(rand_fn(4, 120), grids)
        assert half_pairs[0] == 12

    @pytest.mark.parametrize("case, per_block", [("complex star", 4), ("sharp", 1),
                                                 ("B(F, F) after Q(f, f, f, f)", 0)])
    def test_products_per_block(self, case, per_block, half_pairs):
        grids = forms.FormGrids(exact_form_grids(4).ball, exact_form_grids(4).n_c)
        f = rand_fn(4, 121, complex_valued=case == "complex star")
        fs = f.antipodal_conjugate()
        blocks = len(grids.slice_column(4).blocks())
        if case == "complex star":
            quadrilinear_q(f, fs, f, fs, grids)
        elif case == "sharp":
            sharp = f.sharp_rearrangement()
            quadrilinear_q(sharp, sharp, sharp, sharp, grids)
        else:
            quadrilinear_q(f, f, f, f, grids)
            half_pairs[0] = 0
            F = weighted_pair_kernel(f)
            bilinear_b(F, F, grids)
        assert half_pairs[0] == per_block * blocks

    @pytest.mark.parametrize("odd", [False, True], ids=["even", "odd"])
    @pytest.mark.parametrize("complex_valued", [False, True])
    def test_values_match_products_formed_anew(self, complex_valued, odd, unshared):
        # the chain on one grids object reads products across calls; fresh
        # grids with the stores stripped form every product anew
        grids = odd_form_grids(4) if odd else exact_form_grids(4)
        grids = forms.FormGrids(grids.ball, grids.n_c)
        f = rand_fn(4, 122, complex_valued=complex_valued)
        g = rand_fn(4, 123, complex_valued=True)
        values = chain_values(f, grids) + [grids.conv_l2_norm(f, g), grids.l4_norm(f)]
        fresh = forms.FormGrids(grids.ball, grids.n_c)
        expect = unshared(lambda: chain_values(f, grids, fresh=True)
                          + [fresh.conv_l2_norm(f, g), fresh.l4_norm(f)])
        assert values == expect

    @pytest.mark.parametrize("n_c", [18, 20, 19], ids=["n_c/2 odd", "n_c/2 even", "n_c odd"])
    @pytest.mark.parametrize("layout", ["held", "contiguous"])
    def test_swapped_products_are_bitwise_equal_at_even_n_c(self, n_c, layout):
        # pair_profile keys the products of held modes, and of a column's
        # node values at every node count, unordered: an odd column's 2 n_c
        # nodes pair crosswise as an even one's do
        n_t, n_r, _ = exact_sizes(4)
        col = convolution.SliceColumn(build_ball_grid(n_r, build_sphere_grid(n_t)), n_c, 4)
        f = rand_fn(4, 124, complex_valued=True).coeffs.coeffs
        p = parity_signs(4)
        fields, _ = col.recall(np.stack([f.real, f.imag, p * f.real, p * f.imag]))
        a0, a1 = col.blocks()[0]
        modes = [v[a0:a1] for v in fields]
        nodes = [convolution.SplitValues(v, expansion=col.expansion).nodes().re for v in modes]
        if layout == "contiguous":
            modes, nodes = ([np.ascontiguousarray(v[:, ::-1]) for v in rows]
                            for rows in (modes, nodes))
        for pair, rows in ((convolution._mode_pair, modes),
                           (convolution._half_pair, nodes)):
            for a in rows:
                for b in rows:
                    assert pair(a, b).view(np.int64).tolist() == pair(
                        b, a).view(np.int64).tolist()

    def test_node_values_are_formed_per_use_and_not_held(self, monkeypatch):
        # Q(f, f*, f, f*) pairs in modes only; the sharp Q, the one kernel of
        # coefficient-backed f left on the n_c nodes, takes f's rows at +-p
        # to the nodes once per block, and the memo keeps none of them
        grids = forms.FormGrids(exact_form_grids(4).ball, exact_form_grids(4).n_c)
        self.two_blocks(grids, 4, monkeypatch)
        expanded, to_nodes = [], convolution._to_nodes

        def spy(a, expansion):
            expanded.append(a.shape)
            return to_nodes(a, expansion)

        monkeypatch.setattr(convolution, "_to_nodes", spy)
        f = rand_fn(4, 127)
        fs, sharp = f.antipodal_conjugate(), f.sharp_rearrangement()
        col = grids.slice_column(4)
        quadrilinear_q(f, fs, f, fs, grids)
        assert expanded == []
        quadrilinear_q(sharp, sharp, sharp, sharp, grids)
        assert len(expanded) == 2 * 2   # two rows on two blocks
        held = [(p.shape, (a1 - a0, col.radii.size))
                for (a0, a1), store in col._memo[2].items() for p in store.values()]
        assert held and all(shape == block for shape, block in held)

    def test_products_are_dropped_when_recall_replaces_the_fields(self):
        grids = forms.FormGrids(exact_form_grids(4).ball, exact_form_grids(4).n_c)
        f, g = rand_fn(4, 125), rand_fn(4, 126)
        col = grids.slice_column(4)
        first = quadrilinear_q(f, f, f, f, grids)
        kept = held_products(col)
        assert kept
        quadrilinear_q(f, f, f, f, grids)   # a memo hit keeps them and adds none
        assert [id(p) for p in held_products(col)] == [id(p) for p in kept]
        refs = [weakref.ref(p) for p in kept]
        del kept
        quadrilinear_q(g, g, g, g, grids)
        assert all(r() is None for r in refs)
        assert len(held_products(col)) == len(refs)   # g's own, as many as f's
        assert quadrilinear_q(f, f, f, f, grids) == first


class TestMeanValue:
    def test_examples(self, grid17):
        # the mean over the sphere: the integral over its area 4 pi
        assert abs(integrate_sphere(grid17, lambda p: np.ones(len(p))) / (4 * PI) - 1.0) <= 1e-14
        assert abs(integrate_sphere(grid17, lambda p: p[:, 2]) / (4 * PI)) <= 1e-14
        assert abs(integrate_sphere(grid17, lambda p: 2.0 + p[:, 0]) / (4 * PI) - 2.0) <= 1e-13


class TestChordForm:
    def test_flat_input_closed_form(self):
        h = h_direct_many([ONE], build_sphere_grid(1))[0]
        assert abs(h - 64 * PI ** 2 / 3) <= 1e-6 * 64 * PI ** 2 / 3

    def test_height_input_closed_form(self):
        # H picks up 2 pi Lambda_1 times the squared norm 4 pi / 3
        grid = build_sphere_grid(2)
        h = h_direct_many([lambda p: p[:, 2]], grid)[0]
        expect = 2 * PI * (-8.0 / 15.0) * (4 * PI / 3)
        assert abs(h - expect) <= 2e-6 * abs(expect)

    def test_quadratic_scaling(self):
        grid = build_sphere_grid(1)
        h1 = h_direct_many([ONE], grid)[0]
        h3 = h_direct_many([SphereFunction.constant(-3.0)], grid)[0]
        assert abs(h3 - 9.0 * h1) <= 1e-12 * abs(h3)

    def test_hermitian_form_is_real(self):
        g = rand_fn(6, 30, complex_valued=True)
        h = h_direct_many([g], build_sphere_grid(7))[0]
        assert abs(np.imag(h)) <= 1e-12 * abs(np.real(h))

    def test_many_matches_single(self):
        grid = build_sphere_grid(6)
        gs = [rand_fn(5, s, complex_valued=True) for s in (31, 32, 33)]
        batch = h_direct_many(gs, grid)
        for g, expect in zip(gs, batch):
            single = h_direct_many([g], grid)[0]
            assert abs(single - expect) <= 1e-12 * abs(expect)

    def test_many_of_no_functions_is_empty(self):
        out = h_direct_many([], build_sphere_grid(3))
        assert isinstance(out, np.ndarray) and out.shape == (0,)

    def test_spectral_route_constant(self, lam8):
        c = np.zeros(81)
        c[0] = np.sqrt(4 * PI) * 0.5   # constant 1/2
        h = h_spectral(HarmonicCoeffs(8, c), lam8)
        assert abs(h - 0.25 * 64 * PI ** 2 / 3) <= 1e-13 * 64 * PI ** 2 / 3

    def test_spectral_matches_direct(self, lam8):
        grid = build_sphere_grid(9)
        cs = [random_band_limited(8, np.random.default_rng(400 + i), complex_valued=True)
              for i in range(3)]
        direct = h_direct_many([SphereFunction.from_coeffs(c) for c in cs], grid)
        for c, d in zip(cs, direct):
            s = h_spectral(c, lam8)
            assert abs(s - d) <= 1e-6 * abs(s)

    def test_nan_is_rejected(self):
        with pytest.raises(ValueError):
            h_direct_many([lambda p: np.full(len(p), np.nan)], build_sphere_grid(3))

    def test_inf_between_outer_nodes_is_rejected(self):
        # finite on every outer node, infinite near the pole, which only the
        # polar nodes about the top ring reach
        grid = build_sphere_grid(3)
        assert np.max(grid.nodes[:, 2]) < 0.9
        with pytest.raises(ValueError):
            h_direct_many([lambda p: np.where(p[:, 2] > 0.9, np.inf, 1.0)], grid)

    def test_inf_at_an_outer_node_is_rejected(self):
        grid = build_sphere_grid(3)
        with pytest.raises(ValueError):
            h_direct_many([ONE, lambda p: np.full(len(p), np.inf)], grid)

    def test_spectral_zero(self, lam8):
        assert h_spectral(HarmonicCoeffs(8, np.zeros(81)), lam8) == 0.0

    def test_spectral_demands_chord_kernel(self):
        flat = FunkHeckeSpectrum(kernel_id="flat", multipliers=np.array([2.0]))
        with pytest.raises(ValueError):
            h_spectral(HarmonicCoeffs(0, np.ones(1)), flat)

    def test_spectral_demands_full_coverage(self):
        short = lambda_closed_form(4)
        with pytest.raises(ValueError):
            h_spectral(HarmonicCoeffs(8, np.zeros(81)), short)

    def test_mean_square_bound(self, grid32, lam8):
        # only the degree-0 multiplier is positive, so H(g) is at most the
        # value it takes on the constant with the same mean
        bound_const = 64 * PI ** 2 / 3
        for seed in (34, 35, 36):
            c = random_band_limited(8, np.random.default_rng(seed), complex_valued=True)
            h = h_spectral(c, lam8)
            mu = abs(c.mean_value())
            assert h <= mu ** 2 * bound_const * (1.0 + 1e-8)

    def test_mean_square_bound_tight_only_for_constants(self, lam8):
        c = np.zeros(n_coeffs(8))
        c[0] = 2.0
        h = h_spectral(HarmonicCoeffs(8, c), lam8)
        mu = abs(HarmonicCoeffs(8, c).mean_value())
        assert abs(h - mu ** 2 * 64 * PI ** 2 / 3) <= 1e-12 * h
        bumped = c.copy()
        bumped[5] = 1.0   # add non-constant energy: the bound opens a gap
        h2 = h_spectral(HarmonicCoeffs(8, bumped), lam8)
        mu2 = abs(HarmonicCoeffs(8, bumped).mean_value())
        assert h2 < mu2 ** 2 * 64 * PI ** 2 / 3 * (1.0 - 1e-6)

    def test_l1_lipschitz_bound(self, grid32):
        # |H(g1) - H(g2)| <= 2 (||g1||_1 + ||g2||_1) ||g1 - g2||_1 since the
        # chord kernel is bounded by 2
        exact = build_sphere_grid(7)
        for seed in (37, 38, 39):
            rng = np.random.default_rng(seed)
            g1 = SphereFunction.from_coeffs(random_band_limited(6, rng, complex_valued=True))
            g2 = SphereFunction.from_coeffs(random_band_limited(6, rng, complex_valued=True))
            lhs = abs(h_direct_many([g1], exact)[0] - h_direct_many([g2], exact)[0])
            l1 = integrate_sphere(grid32, np.abs(g1(grid32.nodes)))
            l2 = integrate_sphere(grid32, np.abs(g2(grid32.nodes)))
            ld = integrate_sphere(grid32, np.abs(g1(grid32.nodes) - g2(grid32.nodes)))
            assert lhs <= 2.0 * (l1 + l2) * ld * (1.0 + 1e-8)


class TestPolarChordRoute:
    """h_direct_many on build_sphere_grid(L + 1) is exact for degree-L input."""

    @pytest.mark.parametrize("L", range(9))
    def test_exact_for_band_limited_complex_input(self, L, lam8):
        c = random_band_limited(L, np.random.default_rng(500 + L), complex_valued=True)
        h = h_direct_many([SphereFunction.from_coeffs(c)], build_sphere_grid(L + 1))[0]
        s = h_spectral(c, lam8)
        assert abs(np.real(h) - s) <= 1e-12 * abs(s)
        assert abs(np.imag(h)) <= 1e-12 * abs(s)

    def test_constant_closed_form(self):
        expect = 64 * PI ** 2 / 3
        assert abs(h_direct_many([ONE], build_sphere_grid(1))[0] - expect) <= 1e-13 * expect

    def test_independent_of_the_chord_spectrum(self, monkeypatch, lam8):
        def unavailable(*args, **kwargs):
            raise AssertionError("the direct route must not use the chord spectrum")
        for name in ("lambda_closed_form", "funk_hecke_coefficient"):
            monkeypatch.setattr(legendre, name, unavailable)
            monkeypatch.setattr(forms, name, unavailable, raising=False)
        c = random_band_limited(8, np.random.default_rng(510), complex_valued=True)
        h = h_direct_many([SphereFunction.from_coeffs(c)], build_sphere_grid(9))[0]
        assert abs(h - h_spectral(c, lam8)) <= 1e-12 * abs(h)

    def test_blocks_match_one_block(self, monkeypatch):
        grid = build_sphere_grid(9)
        gs = [rand_fn(8, s, complex_valued=True) for s in (511, 512)] + [ONE]
        whole = h_direct_many(gs, grid)
        monkeypatch.setattr(forms, "_POLAR_NODES", 200)   # two outer nodes a block
        blocked = h_direct_many(gs, grid)
        assert np.max(np.abs(blocked - whole) / np.abs(whole)) <= 1e-14
