"""Zero-sum pairing identity, the Q/B multilinear forms, and the chord form H."""

import functools
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from sharpsphere import (
    GammaSample,
    HarmonicCoeffs,
    PairKernel,
    SphereFunction,
    SphereGrid,
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
    harmonic_values,
    integrate_sphere,
    lambda_closed_form,
    make_workspace,
    n_coeffs,
    pair_slice_average,
    quadrilinear_q,
    random_band_limited,
    weighted_pair_kernel,
)
from sharpsphere import convolution, forms, legendre
from sharpsphere.harmonics import parity_signs

from helpers import ball_points, ball_rows, gamma_reference, node_values, rand_fn, unit_vectors

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
        # NaN compares False, so the unit-length and zero-sum checks alone pass it
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match=rf"sample vectors must be finite, got \[\[{bad}"):
                GammaSample(np.full((4, 3), bad))

    @pytest.mark.parametrize("shape", [(3, 3), (4, 2), (3,), (2, 3, 3), (1, 1, 4, 3)])
    def test_identity_rejects_other_shapes(self, shape):
        with pytest.raises(ValueError, match=re.escape(
                f"expected shape (4, 3) or (n, 4, 3), got {shape}")):
            four_identity_many(np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_identity_rejects_non_finite_entries(self, bad):
        omegas = gamma_samples(np.random.default_rng(5), 3)
        omegas[1, 2, 0] = bad
        with pytest.raises(ValueError, match=rf"quadruples must be finite, got \[\[.*{bad}"):
            four_identity_many(omegas)
        with pytest.raises(ValueError, match=rf"quadruples must be finite, got \[\[.*{bad}"):
            four_identity_many(omegas[1])

    CHUNK = convolution._CHUNK_BYTES // forms._GAMMA_SAMPLE_BYTES   # samples a chunk

    @pytest.mark.parametrize("n", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 10_000])
    def test_chunks_are_one_batch_bit_for_bit(self, n):
        rng, ref = np.random.default_rng(7), np.random.default_rng(7)
        assert np.array_equal(gamma_samples(rng, n), gamma_reference(ref, n))
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_a_rejected_draw_is_redrawn_as_in_one_batch(self, monkeypatch):
        # omega_2 of sample 0 drawn as -omega_1, however the draws are split
        n, uniform = 3 * self.CHUNK, forms._uniform_sphere
        drawn, sizes = [], []

        def antipodal_first(rng, m):
            v = uniform(rng, m)
            i0 = sum(sizes)
            if i0 <= n < i0 + m:
                v[n - i0] = -drawn[0][0]
            drawn.append(v)
            sizes.append(m)
            return v

        monkeypatch.setattr(forms, "_uniform_sphere", antipodal_first)
        rng = np.random.default_rng(8)
        got = gamma_samples(rng, n)
        assert sum(sizes) == 2 * n + 1   # one redraw
        drawn.clear()
        sizes.clear()
        ref = np.random.default_rng(8)
        assert np.array_equal(got, gamma_reference(ref, n))
        assert sum(sizes) == 2 * n + 1
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_temporaries_stay_within_the_chunk_bound(self):
        # the docstring's bound beyond the output; one batch of 10,000
        # samples takes 8 _CHUNK_BYTES
        tracemalloc.start()
        try:
            out = gamma_samples(np.random.default_rng(9), 10_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes - len(out) <= 2 * convolution._CHUNK_BYTES

    @pytest.mark.parametrize("n", [2.5, -1, "3", True])
    def test_sample_count_is_a_nonnegative_integer(self, n):
        with pytest.raises(ValueError, match=re.escape(
                f"n must be a nonnegative integer, got {n!r}")):
            gamma_samples(np.random.default_rng(6), n)
        assert gamma_samples(np.random.default_rng(6), 0).shape == (0, 4, 3)


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

    @pytest.mark.parametrize("complex_valued", [False, True])
    def test_abs_squared_of_a_squared_kernel_is_its_square(self, complex_valued):
        # |F|^4 has no PairKernel form: abs_squared of a squared kernel is a
        # plain callable, |f(a) f(b)|^4 |a + b|^4 at every pair
        f = rand_fn(3, 9, complex_valued=complex_valued)
        K4 = weighted_pair_kernel(f).abs_squared().abs_squared()
        assert not isinstance(K4, PairKernel) and callable(K4)
        rng = np.random.default_rng(10)
        a, b = unit_vectors(rng, 20), unit_vectors(rng, 20)
        expect = np.abs(f(a) * f(b)) ** 4 * np.linalg.norm(a + b, axis=1) ** 4
        assert np.abs(K4(a, b) - expect).max() <= 1e-13 * expect.max()

    @pytest.mark.parametrize("factors", [ONE, (ONE,), (ONE, ONE, ONE), (ONE, 2.0)],
                             ids=["callable", "one", "three", "not-callable"])
    def test_factors_are_empty_or_two_functions(self, factors):
        # the ball route pairs exactly two sampled factors per PairKernel; a
        # general kernel, passed here by mistake, has no len() and would
        # raise TypeError unchecked
        with pytest.raises(ValueError, match="factors must be \\(\\) or two functions"):
            PairKernel(factors)
        f = rand_fn(2, 1)
        for ok in ((), (f, f)):
            assert PairKernel(ok).factors == ok

    @pytest.mark.parametrize("squared", [2, "yes", None])
    def test_squared_is_a_bool(self, squared):
        f = rand_fn(2, 1)
        with pytest.raises(ValueError, match="squared must be a bool"):
            PairKernel((f, f), squared=squared)
        for ok in (False, True):
            assert PairKernel((f, f), squared=ok).squared is ok

    @pytest.mark.parametrize("w", ["a", np.nan, np.inf, True, None])
    def test_sum_weight_power_is_a_finite_real_number(self, w):
        # unchecked, "a" fails inside np.power at the first call, and NaN
        # shows only as "B evaluated to nan"
        f = rand_fn(2, 1)
        with pytest.raises(ValueError, match=re.escape(
                f"sum_weight_power must be a finite real number, got {w!r}")):
            PairKernel((f, f), sum_weight_power=w)
        for ok in (0, 2, -1, 0.5, np.float64(-2.5), np.int64(3)):
            assert PairKernel((f, f), sum_weight_power=ok).sum_weight_power == ok

    def test_a_structured_kernel_is_evaluated_from_its_structure(self):
        f, g = rand_fn(3, 2, complex_valued=True), rand_fn(2, 3)
        rng = np.random.default_rng(4)
        a, b = unit_vectors(rng, 20), unit_vectors(rng, 20)
        s = np.linalg.norm(a + b, axis=1)
        K = PairKernel((f, g), sum_weight_power=3, squared=True)
        expect = np.abs(f(a) * g(b)) ** 2 * s ** 3
        assert np.abs(K(a, b) - expect).max() <= 1e-13 * expect.max()
        assert np.array_equal(PairKernel.tensor(f, g)(a, b), f(a) * g(b))
        assert np.array_equal(PairKernel((), sum_weight_power=2)(a, b), s ** 2)

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
        # plain callable kernels exercise the literal slice route; the
        # discrete measure is antipodally closed, so the inequality holds
        # without quadrature slack
        f, g = rand_fn(4, 23, complex_valued=True), rand_fn(3, 24)
        F = lambda a, b: f(a) * g(b) * (1.0 + np.sum(a * b, axis=-1))
        G = lambda a, b: g(a) * f(b) * np.exp(np.sum(a * b, axis=-1))
        Fsq = lambda a, b: np.abs(F(a, b)) ** 2
        Gsq = lambda a, b: np.abs(G(a, b)) ** 2
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
                "unstructured-squared": (lambda a, b: np.abs(W(a, b)) ** 2,
                                         PairKernel.one()),
                "polynomial": (lambda a, b: f(a) * g(b) * (1.0 + np.sum(a * b, axis=-1)),
                               W)}[case]
        ball = bilinear_b(F, G, grids)
        outer = bilinear_b(F, G, grids, method="outer")
        assert abs(outer - ball) <= 1e-12 * abs(ball)

    @pytest.mark.parametrize("case", ["callable", "PairKernel(factors)",
                                      "PairKernel(factors, powers)", "tensor", "one",
                                      "weighted_pair_kernel", "abs_squared",
                                      "abs_squared(squared)"])
    def test_each_constructor_gives_one_kernel_to_both_routes(self, case):
        # B(K, 1) and B(1, K): the outer route calls K at points, on the
        # omega side and in G's slice sums, and the ball route pairs K's
        # structure or averages K itself; a kernel is a structure or a
        # callable, never both, so the two agree on every constructor's
        # kernel. |F|^4 of f of degree 2 is |G|^2, G = f^2 tensor f^2
        # |omega + nu|^2 with factors of degree 5, on grids exact for that
        grids = exact_form_grids(5 if case == "abs_squared(squared)" else 2)
        f, g = rand_fn(2, 60, complex_valued=True), rand_fn(2, 61)
        K = {"callable": lambda: lambda a, b: 2.0 * f(a) * g(b),
             "PairKernel(factors)": lambda: PairKernel((f, g)),
             "PairKernel(factors, powers)": lambda: PairKernel(
                 (f, g), sum_weight_power=2, squared=True),
             "tensor": lambda: PairKernel.tensor(f, g),
             "one": PairKernel.one,
             "weighted_pair_kernel": lambda: weighted_pair_kernel(f),
             "abs_squared": lambda: weighted_pair_kernel(f).abs_squared(),
             "abs_squared(squared)": lambda: weighted_pair_kernel(f).abs_squared().abs_squared(),
             }[case]()
        for F, G in ((K, PairKernel.one()), (PairKernel.one(), K)):
            ball = bilinear_b(F, G, grids)
            outer = bilinear_b(F, G, grids, method="outer")
            assert abs(outer - ball) <= 1e-13 * abs(ball)

    @pytest.mark.parametrize("squared", [False, True], ids=["plain", "squared"])
    @pytest.mark.parametrize("w", [1, 3, -1, 0.5])
    def test_a_sum_weight_is_r_on_every_slice(self, w, squared):
        # the ball route multiplies the paired profile by r^w, as
        # |omega + nu| = |x| = r on the slice at x for any real w; the same
        # kernel as a plain callable averages |omega + nu|^w on each slice
        L = 2
        grids = exact_form_grids(L)
        f, g = rand_fn(L, 64, complex_valued=True), rand_fn(L, 65)
        K = PairKernel((f, g), sum_weight_power=w, squared=squared)
        structured = bilinear_b(K, PairKernel.one(), grids)
        literal_route = bilinear_b(lambda a, b: K(a, b), PairKernel.one(), grids)
        assert abs(structured - literal_route) <= 1e-13 * abs(literal_route)

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
        F = ((lambda a, b: f(a) * (1.0 + np.sum(a * b, axis=-1)))
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
    c12 = pair_slice_average(lambda a, b: f1(a) * f2(b), X, grids.n_c)
    c34 = pair_slice_average(lambda a, b: f3(a) * f4(b), -X, grids.n_c)
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
        generic = lambda a, b: f(a) * np.exp(np.sum(a * b, axis=-1))
        for K, M in ((F, F), (F.abs_squared(), PairKernel.one()), (generic, F)):
            ref = reference_b(K, M, grids4)
            assert abs(bilinear_b(K, M, grids4) - ref) <= 1e-12 * abs(ref)


class TestBallRouteAgainstReference(ReferenceCases):
    """The column-table ball route (even n_c)."""

    @pytest.fixture(scope="class")
    def grids4(self):
        # exact for band limit 4: sphere degree 17, radial degree 21, trig degree 17
        return default_form_grids(n_t=9, n_c=18, n_r=10)


class TestOddSliceCountAgainstReference(ReferenceCases):
    """Odd n_c: no rule node is another's partner, so the column adds the partners."""

    @pytest.fixture(scope="class")
    def grids4(self):
        return default_form_grids(n_t=9, n_c=19, n_r=10)


def node_valued_cases():
    """(kernel, factor pair) per node-valued case: an asymmetric literal f
    tensor g, and f tensor f#."""
    f, g = rand_fn(4, 150, complex_valued=True), rand_fn(3, 151, complex_valued=True)
    fsh = f.sharp_rearrangement()
    return [(PairKernel.tensor(literal(f), literal(g)), (literal(f), literal(g))),
            (PairKernel.tensor(f, fsh), (f, fsh))]


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
            return conv_profile(*pair, np.linspace(0.1, 2.0, 7), n_c=n)

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

    @pytest.mark.parametrize("L", [2, 4])
    def test_squared_sharp_kernels_do_not(self, L):
        # |f#|^2 = (|f|^2 + |f(-.)|^2) / 2 is band-limited to 2L though f# is
        # not, so B(|F#|^2, 1) pairs on its band limit's own rule and is the
        # chain's link 2 pi H(|f#|^2) at every n_c, few nodes and odd counts too
        sharp = rand_fn(L, 62, complex_valued=True).sharp_rearrangement()
        square = analyze(lambda p: sharp(p) ** 2, build_basis(2 * L, build_sphere_grid(2 * L + 1)))
        link = 2 * PI * h_spectral(square, lambda_closed_form(2 * L))
        ball = exact_form_grids(L).ball
        K = weighted_pair_kernel(sharp).abs_squared()
        for n_c in (3, 6, 12, 4 * L + 2):
            b = bilinear_b(K, PairKernel.one(), forms.FormGrids(ball, n_c))
            assert abs(b - link) <= 1e-13 * link


def literal(f):
    """f as a closure: the ball route reads it at the n_c slice nodes."""
    return SphereFunction(lambda p: f(p))


def magnitude_kernels(f, g):
    """|F|^2 kernels of band limit L: B(|F|^2, 1)'s (F the weighted square
    of f), and |f tensor g|^2 with f != g."""
    return [weighted_pair_kernel(f).abs_squared(), PairKernel.tensor(f, g).abs_squared()]


class TestHalfTurnRule:
    """|F|^2 on band-limited factors pairs on its band limit's own 2(2L+1)
    nodes, half of them partners of the other half: exact at every n_c,
    with no n_c slice nodes.
    Exactness is per slice, so a small ball grid shows it at every L."""

    ball = build_ball_grid(4, build_sphere_grid(5))

    @pytest.mark.parametrize("odd", [False, True], ids=["even", "odd"])
    @pytest.mark.parametrize("complex_valued", [False, True])
    @pytest.mark.parametrize("L", [0, 1, 2, 4, 8])
    def test_matches_the_node_route_where_it_is_exact(self, L, complex_valued, odd):
        # the node route, on literal factors, is exact at n_c >= 4L+1
        f = rand_fn(L, 140, complex_valued=complex_valued)
        g = rand_fn(L, 141, complex_valued=True)
        for K, N in zip(magnitude_kernels(f, g), magnitude_kernels(literal(f), literal(g))):
            grids = forms.FormGrids(self.ball, 4 * L + 2 + odd)
            value = bilinear_b(K, PairKernel.one(), grids)
            nodes = bilinear_b(N, PairKernel.one(), grids)
            assert abs(value - nodes) <= 1e-14 * abs(nodes)

    @pytest.mark.parametrize("complex_valued", [False, True])
    @pytest.mark.parametrize("L", [0, 1, 2, 4, 8])
    def test_is_exact_where_the_slice_rule_is_not(self, L, complex_valued):
        # at small n_c B matches the literal route on an exact slice rule;
        # pair_slice_average at that n_c misses it where its N-point rule
        # (N = n_c, or 2 n_c at odd n_c) aliases a frequency of the degree-4L
        # integrand: at N <= 4L
        f = rand_fn(L, 142, complex_valued=complex_valued)
        g = rand_fn(L, 143, complex_valued=True)
        for K in magnitude_kernels(f, g):
            flat = K.__call__   # no structure: pair_slice_average
            exact = bilinear_b(flat, PairKernel.one(), forms.FormGrids(self.ball, 4 * L + 2))
            for n_c in (4, 6, 7, 12):
                grids = forms.FormGrids(self.ball, n_c)
                value = bilinear_b(K, PairKernel.one(), grids)
                assert abs(value - exact) <= 1e-13 * abs(exact)
                if (2 * n_c if n_c % 2 else n_c) <= 4 * L:
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
            expanded.append((expansion.shape, len(a)))
            return to_nodes(a, expansion)

        monkeypatch.setattr(convolution, "_to_nodes", spy)
        bilinear_b(F.abs_squared(), PairKernel.one(), grids)
        parts = 2 if complex_valued else 1
        col = grids.slice_column(4)
        # each part at +-p is expanded once on every slice, chunk by chunk
        assert {shape for shape, _ in expanded} == {(9, 18)}
        assert sum(rows for _, rows in expanded) == parts * 2 * col.n_t * col.radii.size
        assert col.expansion.shape == (9, 12)


class _UpperRows:
    """A ball grid seen from azimuth rows [n_t, 2 n_t): forms._kernel_profile
    reads its rows [0, n_t) there."""

    def __init__(self, ball):
        self._ball = ball

    def points(self):
        n_az = self._ball.directions.exactness_degree + 1
        rows = self._ball.points().reshape(-1, n_az, 3)
        return np.roll(rows, -(n_az // 2), axis=1).reshape(-1, 3)


def unfolded_b(F, G, grids):
    """The ball route before the antipodal fold: F's profile at x times G's at
    -x, summed over every azimuth row of the ball grid. Rows a >= n_t, which
    the sampler does not cover, take the factors from a harmonic table at
    their literal slice nodes, slice_point_table at their centres,
    independent of the column's rotation."""
    kernels = ((F, False), (G, True))
    plan = convolution.SlicePlan(
        [(f, negate) for K, negate in kernels if forms._on_column(K) for f in K.factors])
    col = grids.slice_column(plan.degree)
    x = ball_rows(grids.ball, col.n_t, 2 * col.n_t)
    pts = convolution.slice_point_table(x.reshape(-1, 3), col.n_c)[0]
    upper = [convolution.SplitValues(v.real, v.imag) if np.iscomplexobj(v)
             else convolution.SplitValues(v)
             for v in plan.at(pts.reshape(x.shape[:-1] + (-1, 3)))]
    total = 0.0 + 0.0j
    for values, ball in ((col.sampler(plan), grids.ball), (upper, _UpperRows(grids.ball))):
        values = iter(values)
        pf, pg = [forms._kernel_profile(K, values, col, ball, negate) for K, negate in kernels]
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
                "polynomial": (lambda a, b: f(a) * g(b) * (1.0 + np.sum(a * b, axis=-1)),
                               W)}[case]
        ref = unfolded_b(F, G, grids)
        assert abs(bilinear_b(F, G, grids) - ref) <= 1e-14 * abs(ref)

    def test_never_reaches_a_row_past_n_t(self, monkeypatch):
        grids = default_form_grids(n_t=9, n_c=18, n_r=10)
        f = rand_fn(4, 66, complex_valued=True)
        generic = lambda a, b: f(a) * np.exp(np.sum(a * b, axis=-1))
        rows, centres = [], []
        sampler, average = convolution.SliceColumn.sampler, forms.pair_slice_average

        def spy_sampler(col, plan):
            values = sampler(col, plan)
            rows.extend(range(len(values[0].re)))
            return values

        def spy_average(K, X, n_c):
            centres.append(X)
            return average(K, X, n_c)

        monkeypatch.setattr(convolution.SliceColumn, "sampler", spy_sampler)
        monkeypatch.setattr(forms, "pair_slice_average", spy_average)
        bilinear_b(generic, weighted_pair_kernel(f), grids)
        n_t = grids.slice_column(4).n_t
        assert set(rows) == set(range(n_t))
        # the literal kernel's slices sit at the ball grid's own nodes of
        # rows [0, n_t), and at their negations
        x = ball_rows(grids.ball, 0, n_t).reshape(-1, 3)
        assert len(centres) == 2
        assert np.array_equal(centres[0], x) and np.array_equal(centres[1], -x)

    @pytest.mark.parametrize("case", ["odd", "unstructured"])
    def test_literal_kernels_go_through_pair_slice_average(self, case, monkeypatch):
        # only a plain callable kernel is literal: a PairKernel reads the
        # column table at odd n_c too, so its factors are never called
        f = rand_fn(4, 73, complex_valued=True)
        fs = f.antipodal_conjugate()
        grids = default_form_grids(n_t=9, n_c=19 if case == "odd" else 18, n_r=10)
        inside, calls, synthesized = [False], [], []

        def spied(kernel):
            def spy(omega, nu):
                calls.append(inside[0])
                return kernel(omega, nu)
            return spy

        class SpiedFactor:
            # h's coefficients, which a SlicePlan backs with rows, and a spy
            # on its point calls
            def __init__(self, h):
                self.coeffs, self._h = h.coeffs, h

            def __call__(self, p):
                calls.append(inside[0])
                return self._h(p)

        average, synthesize = forms.pair_slice_average, convolution.SliceColumn.synthesize

        def spy_average(K, X, n_c):
            inside[0] = True
            try:
                return average(K, X, n_c)
            finally:
                inside[0] = False

        def spy_synthesize(col, coeffs):
            synthesized.append(len(coeffs))
            return synthesize(col, coeffs)

        if case == "odd":
            F = PairKernel.tensor(SpiedFactor(f), SpiedFactor(fs))
            G = F
        else:
            F = spied(lambda a, b: f(a) * fs(b) * (1.0 + np.sum(a * b, axis=-1)))
            G = PairKernel.one()
        expect = reference_b(F, G, grids)
        calls.clear()
        monkeypatch.setattr(forms, "pair_slice_average", spy_average)
        monkeypatch.setattr(convolution.SliceColumn, "synthesize", spy_synthesize)
        value = bilinear_b(F, G, grids)
        if case == "odd":
            assert calls == [] and sum(synthesized) > 0
        else:
            assert calls and all(calls)
            assert sum(synthesized) == 0
        assert abs(value - expect) <= 1e-12 * abs(expect)


class TestLiteralFactors:
    """A kernel with a literal factor takes pair_slice_average at the ball
    nodes, as an unstructured one does: only factors backed by coefficient
    rows reach the column."""

    @pytest.mark.parametrize("case", ["f x wave", "wave x wave", "weighted wave"])
    def test_reach_pair_slice_average_and_not_the_column(self, case, monkeypatch):
        grids = exact_form_grids(5)
        f = rand_fn(4, 170, complex_valued=True)
        wave = SphereFunction.plane_wave((0.2, -0.4, 0.3))
        K = {"f x wave": PairKernel.tensor(f, wave),
             "wave x wave": PairKernel.tensor(wave, wave.antipodal_conjugate()),
             "weighted wave": weighted_pair_kernel(wave)}[case]
        W = weighted_pair_kernel(f)   # on the column
        averaged, plans = [], []
        average, sampler = forms.pair_slice_average, convolution.SliceColumn.sampler

        def spy_average(F, X, n_c):
            averaged.append(F)
            return average(F, X, n_c)

        def spy_sampler(col, plan):
            plans.append(plan)
            return sampler(col, plan)

        monkeypatch.setattr(forms, "pair_slice_average", spy_average)
        monkeypatch.setattr(convolution.SliceColumn, "sampler", spy_sampler)
        value = bilinear_b(K, W, grids)
        assert averaged == [K, K]   # at x and -x
        (plan,) = plans
        assert all(kind != "call" for kind, *_ in plan._entries)
        assert len(plan.rows) == 4   # f's real and imaginary rows at +-p
        outer = bilinear_b(K, W, grids, "outer")
        assert abs(value - outer) <= 1e-12 * abs(outer)


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
def synthesized_rows(monkeypatch):
    """Rows per SliceColumn.synthesize pass."""
    rows, synthesize = [], convolution.SliceColumn.synthesize

    def spy(col, coeffs):
        rows.append(len(coeffs))
        return synthesize(col, coeffs)

    monkeypatch.setattr(convolution.SliceColumn, "synthesize", spy)
    return rows


@pytest.fixture
def row_passes(monkeypatch):
    """Per SliceColumn.synthesize pass, its row count and the fields buffer
    it returned."""
    passes, synthesize = [], convolution.SliceColumn.synthesize

    def spy(col, coeffs):
        fields = synthesize(col, coeffs)
        passes.append((len(coeffs), fields))
        return fields

    monkeypatch.setattr(convolution.SliceColumn, "synthesize", spy)
    return passes


def held_fields(col) -> dict:
    """The field rows a SliceColumn holds, views of its one buffer, by id."""
    return {id(v): v for v in col._memo[1]}


class TestFieldsMemo:
    """A SliceColumn reuses the fields of its last sampler call's rows."""

    @pytest.mark.parametrize("odd", [False, True], ids=["even", "odd"])
    @pytest.mark.parametrize("complex_valued", [False, True])
    def test_chain_computes_the_rows_of_f_once(self, complex_valued, odd, synthesized_rows):
        grids = odd_form_grids(4) if odd else exact_form_grids(4)
        grids = forms.FormGrids(grids.ball, grids.n_c)
        f = rand_fn(4, 94, complex_valued=complex_valued)
        values = chain_values(f, grids)
        # the real and imaginary rows of f at +-p
        assert synthesized_rows == [4 if complex_valued else 2]
        assert values == chain_values(f, grids, fresh=True)

    @pytest.mark.parametrize("complex_valued", [False, True])
    def test_chain_synthesizes_each_row_once(self, complex_valued, row_passes):
        grids = forms.FormGrids(exact_form_grids(4).ball, exact_form_grids(4).n_c)
        f = rand_fn(4, 105, complex_valued=complex_valued)
        values = chain_values(f, grids)
        rows = 4 if complex_valued else 2
        # one pass of all rows, whose buffer the memo holds: every field
        # row of the chain was synthesized once, in that pass
        assert [n for n, _ in row_passes] == [rows]
        assert grids.slice_column(4)._memo[1] is row_passes[0][1]
        assert values == chain_values(f, grids, fresh=True)

    def test_memo_holds_n_t_field_rows_per_coefficient_row(self):
        grids = forms.FormGrids(exact_form_grids(4).ball, exact_form_grids(4).n_c)
        f = rand_fn(4, 106, complex_valued=True)
        chain_values(f, grids)
        col = grids.slice_column(4)
        n_t, modes = col.n_t, col.radii.size * (2 * col.L + 1)
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
        (pos,) = col.sampler(convolution.SlicePlan([(f, False)]))
        # f's rows are held in canonical sign: f's signs follow each row's
        # first nonzero entry, and the negated function's are their negatives
        c = f.coeffs.coeffs
        assert (pos.re_sign, pos.im_sign) == (np.sign(c.real[0]), np.sign(c.imag[0]))
        (v,) = col.sampler(convolution.SlicePlan([(neg, False)]))
        assert (v.re_sign, v.im_sign) == (-pos.re_sign, -pos.im_sign)
        held = held_fields(col).values()
        assert any(np.shares_memory(v.re, h) for h in held)
        assert any(np.shares_memory(v.im, h) for h in held)
        fresh = forms.FormGrids(grids.ball, grids.n_c).slice_column(4)
        (expect,) = fresh.sampler(convolution.SlicePlan([(neg, False)]))
        assert np.array_equal(v.dense(), expect.dense())

    def test_sign_flipped_rows_are_hits(self, synthesized_rows):
        grids = forms.FormGrids(exact_form_grids(4).ball, exact_form_grids(4).n_c)
        f = rand_fn(4, 95, complex_valued=True)
        fs = f.antipodal_conjugate()
        neg = SphereFunction.from_coeffs(HarmonicCoeffs(4, -f.coeffs.coeffs))
        quadrilinear_q(f, fs, f, fs, grids)
        # odd in neg, so a row read with the wrong sign would flip the value
        value = quadrilinear_q(neg, f, fs, fs, grids)
        assert synthesized_rows == [4]
        fresh = forms.FormGrids(grids.ball, grids.n_c)
        assert value == quadrilinear_q(neg, f, fs, fs, fresh)

    def test_a_call_on_another_function_drops_the_rows(self, synthesized_rows):
        grids = forms.FormGrids(exact_form_grids(4).ball, exact_form_grids(4).n_c)
        f, g = rand_fn(4, 96, complex_valued=True), rand_fn(4, 97, complex_valued=True)
        first = quadrilinear_q(f, f, f, f, grids)
        quadrilinear_q(g, g, g, g, grids)
        held = held_fields(grids.slice_column(4))
        assert len(held) == 4   # g's rows only
        assert quadrilinear_q(f, f, f, f, grids) == first
        assert synthesized_rows == [4, 4, 4]

    def test_a_rebuilt_column_starts_empty(self, synthesized_rows):
        grids = forms.FormGrids(exact_form_grids(4).ball, exact_form_grids(4).n_c)
        f, h = rand_fn(2, 98, complex_valued=True), rand_fn(4, 99, complex_valued=True)
        fs, hs = f.antipodal_conjugate(), h.antipodal_conjugate()
        quadrilinear_q(f, fs, f, fs, grids)
        low = grids.slice_column(2)
        value = quadrilinear_q(f, fs, h, hs, grids)
        assert grids.slice_column(4) is not low
        assert synthesized_rows == [4, 8]   # f's rows again, on the new column
        assert value == quadrilinear_q(f, fs, h, hs, forms.FormGrids(grids.ball, grids.n_c))

    def test_a_partly_reused_batch_is_recomputed(self, synthesized_rows):
        grids = forms.FormGrids(exact_form_grids(4).ball, exact_form_grids(4).n_c)
        f = rand_fn(4, 104, complex_valued=True)
        re = SphereFunction.from_coeffs(HarmonicCoeffs(4, f.coeffs.coeffs.real.copy()))
        quadrilinear_q(f, f, f, f, grids)
        value = quadrilinear_q(re, re, re, re, grids)   # 2 of f's 4 rows
        assert synthesized_rows == [4, 2]
        assert len(held_fields(grids.slice_column(4))) == 2
        assert value == quadrilinear_q(re, re, re, re, forms.FormGrids(grids.ball, grids.n_c))

    @pytest.mark.parametrize("case", ["B(1, 1)", "literal"])
    def test_a_call_without_rows_keeps_the_memo(self, case, synthesized_rows):
        grids = forms.FormGrids(exact_form_grids(4).ball, exact_form_grids(4).n_c)
        f = rand_fn(4, 108)
        fs = f.antipodal_conjugate()
        K = (PairKernel.one() if case == "B(1, 1)"
             else lambda a, b: f(a) * np.exp(np.sum(a * b, axis=-1)))
        first = quadrilinear_q(f, fs, f, fs, grids)
        bilinear_b(K, PairKernel.one(), grids)
        assert quadrilinear_q(f, fs, f, fs, grids) == first
        assert synthesized_rows == [2]

    @pytest.mark.parametrize("complex_valued", [False, True])
    def test_rows_zero_padded_to_the_column_degree_are_hits(self, complex_valued,
                                                            synthesized_rows):
        # recall pads rows to the table's columns: on a column built to L=4,
        # f of degree 2 and its coefficients zero-padded to degree 4 are the
        # same rows
        grids = forms.FormGrids(exact_form_grids(4).ball, exact_form_grids(4).n_c)
        grids.slice_column(4)
        f = rand_fn(2, 109, complex_valued=complex_valued)
        padded = np.zeros(n_coeffs(4), dtype=f.coeffs.coeffs.dtype)
        padded[:n_coeffs(2)] = f.coeffs.coeffs
        g = SphereFunction.from_coeffs(HarmonicCoeffs(4, padded))
        values = [quadrilinear_q(h, h.antipodal_conjugate(), h, h.antipodal_conjugate(), grids)
                  for h in (f, g)]
        assert synthesized_rows == [4 if complex_valued else 2]
        for h, value in zip((f, g), values):
            fresh = forms.FormGrids(grids.ball, grids.n_c)
            fresh.slice_column(4)
            hs = h.antipodal_conjugate()
            assert value == quadrilinear_q(h, hs, h, hs, fresh)

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

    def test_a_zero_slot_of_either_sign_is_one_key(self, synthesized_rows):
        # parity * coeffs holds -0.0 at a zero slot of odd degree, where
        # another row holds 0.0: both must read as one key
        grids = forms.FormGrids(exact_form_grids(4).ball, exact_form_grids(4).n_c)
        a = np.random.default_rng(14).standard_normal(n_coeffs(4))
        a[1] = 0.0   # degree 1
        signed = a.copy()
        signed[1] = -0.0
        f, g = (SphereFunction.from_coeffs(HarmonicCoeffs(4, c)) for c in (a, signed))
        quadrilinear_q(f, f.antipodal_conjugate(), f, f.antipodal_conjugate(), grids)
        value = quadrilinear_q(g, g.antipodal_conjugate(), g, g.antipodal_conjugate(), grids)
        assert synthesized_rows == [2]
        fresh = forms.FormGrids(grids.ball, grids.n_c)
        assert value == quadrilinear_q(g, g.antipodal_conjugate(), g, g.antipodal_conjugate(),
                                       fresh)

    def test_fields_of_f_and_f_star_are_the_held_rows(self):
        # f and f_star read the rows of f at +-p: a and parity * a
        grids = forms.FormGrids(exact_form_grids(4).ball, exact_form_grids(4).n_c)
        a, b = np.random.default_rng(10).standard_normal((2, n_coeffs(4)))
        f = SphereFunction.from_coeffs(HarmonicCoeffs(4, a))
        quadrilinear_q(f, f.antipodal_conjugate(), f, f.antipodal_conjugate(), grids)
        col = grids.slice_column(4)
        held = col._memo[1]
        # in canonical sign (SlicePlan): a[0], of degree 0, leads both rows
        fields = col.recall(np.sign(a[0]) * np.stack([a, parity_signs(4) * a]))
        assert fields is held
        assert fields.shape == (2, col.n_t, col.radii.size, 2 * col.L + 1)
        # a's fields outlive the memo here: b must not get a's profile
        g = SphereFunction.from_coeffs(HarmonicCoeffs(4, b))
        gs = g.antipodal_conjugate()
        assert (quadrilinear_q(g, gs, g, gs, grids)
                == quadrilinear_q(g, gs, g, gs, forms.FormGrids(grids.ball, grids.n_c)))

    def test_a_pure_parity_row_is_one_synthesized_row(self, synthesized_rows):
        # an odd f has f_star = -f: f's row read negated, and a second call hits
        grids = forms.FormGrids(exact_form_grids(4).ball, exact_form_grids(4).n_c)
        a = np.zeros(n_coeffs(4))
        a[2] = 1.0   # Y_{1,0}
        f = SphereFunction.from_coeffs(HarmonicCoeffs(4, a))
        fs = f.antipodal_conjugate()
        q = quadrilinear_q(f, fs, f, fs, grids)
        assert synthesized_rows == [1]
        assert quadrilinear_q(f, fs, f, fs, grids) == q
        assert synthesized_rows == [1]

    def test_a_column_rebuilt_past_its_band_limit_still_serves(self):
        grids = forms.FormGrids(exact_form_grids(2).ball, exact_form_grids(2).n_c)
        f = rand_fn(2, 11)
        fs = f.antipodal_conjugate()
        q_ref = quadrilinear_q(f, fs, f, fs, grids).real
        grids.slice_column(3)   # a form of degree 3 on these grids rebuilds the column
        q = quadrilinear_q(f, fs, f, fs, grids).real
        assert grids.slice_column(2).L == 3
        assert abs(q - q_ref) <= 1e-13 * q_ref

    def test_a_lower_band_limit_on_a_larger_column_is_within_an_ulp_bound(self, exact_grids):
        # a lower band limit reads the larger column, whose rotation blocks
        # were projected on a finer grid: 4 ulps off a fresh column here
        rng = np.random.default_rng(3)
        f = SphereFunction.from_coeffs(random_band_limited(2, rng, complex_valued=True))
        h = SphereFunction.from_coeffs(random_band_limited(8, rng, complex_valued=True))
        fs, hs = f.antipodal_conjugate(), h.antipodal_conjugate()
        grids = forms.FormGrids(exact_grids.ball, exact_grids.n_c)
        quadrilinear_q(h, hs, h, hs, grids)
        q = quadrilinear_q(f, fs, f, fs, grids).real
        assert grids.slice_column(2).L == 8
        q_fresh = quadrilinear_q(f, fs, f, fs, forms.FormGrids(grids.ball, grids.n_c)).real
        assert abs(q - q_fresh) <= 1e-15 * q_fresh

    def test_a_replaced_column_memo_frees_the_old_fields(self):
        grids = forms.FormGrids(exact_form_grids(4).ball, exact_form_grids(4).n_c)
        f = rand_fn(4, 12)
        quadrilinear_q(f, f.antipodal_conjugate(), f, f.antipodal_conjugate(), grids)
        col = grids.slice_column(4)
        old = weakref.ref(col._memo[1])
        col.recall(np.ones((1, n_coeffs(4))))   # another caller on the same grids
        assert old() is None

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
                top = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # whatever synthesize allocates, the memo pins after the sharp Q
            # exactly f#'s one product, one value per slice, and none of the
            # products of f's rows in modes: the sharp plan reads no such row
            col = grids.slice_column(8)
            (key,) = col._memo[2]
            assert [k[0] for k in key] == ["sharp"]
            assert [p.shape for p in held_products(col)] == [(col.n_t, col.radii.size)]
            return top

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
    profiles read them from the memo's store, G = F too."""

    def test_conjugate_pairing_takes_two_profiles(self, half_pairs, synthesized_rows):
        # F's two profiles form every product: f f* at x, read swapped at
        # -x; G's, on the same factors or on a twin's, read them
        grids = exact_form_grids(4)
        f = rand_fn(4, 101, complex_valued=True)
        twin = SphereFunction.from_coeffs(f.coeffs)   # equal values, another object
        fs = f.antipodal_conjugate()
        folded = quadrilinear_q(f, fs, f, fs, grids)
        assert half_pairs[0] == 4
        assert synthesized_rows == [4]
        whole = quadrilinear_q(f, fs, twin, twin.antipodal_conjugate(), grids)
        assert half_pairs[0] == 4
        assert synthesized_rows == [4]
        assert folded == whole

    @pytest.mark.parametrize("case", ["sum_weight_power", "squared"])
    def test_other_powers_are_not_folded(self, case, profile_calls):
        grids = exact_form_grids(4)
        f = rand_fn(4, 102, complex_valued=True)
        W = weighted_pair_kernel(f)
        if case == "sum_weight_power":
            F, G = W, PairKernel.tensor(f, f)
        else:
            F = W.abs_squared()
            G = PairKernel(W.factors, sum_weight_power=2)
        assert F.factors[0] is G.factors[0] and F.factors[1] is G.factors[1]
        value = bilinear_b(F, G, grids)
        assert profile_calls["pair_profile"] == 4
        ref = unfolded_b(F, G, grids)
        assert abs(value - ref) <= 1e-14 * abs(ref)

    def test_literal_kernel_is_averaged_once_per_sign(self, profile_calls):
        grids = exact_form_grids(2)
        f = rand_fn(2, 103, complex_valued=True)
        K = lambda a, b: f(a) * f(b) * np.exp(np.sum(a * b, axis=-1))
        folded = bilinear_b(K, K, grids)
        assert profile_calls["pair_slice_average"] == 4
        whole = bilinear_b(K, K.__call__, grids)
        assert profile_calls["pair_slice_average"] == 8
        assert folded == whole

    @pytest.mark.parametrize("complex_valued", [False, True])
    def test_b_of_f_and_f_forms_each_product_once(self, complex_valued, half_pairs,
                                                  monkeypatch):
        # on a fresh column, F's profiles at x and -x form the real products
        # of f's parts at p and at -p, each once; G's two profiles read them
        grids = exact_form_grids(4)
        F = weighted_pair_kernel(rand_fn(4, 104, complex_valued=complex_valued))
        formed, inner = [], forms.pair_profile

        def spy(*args):
            before = half_pairs[0]
            out = inner(*args)
            formed.append(half_pairs[0] - before)
            return out

        monkeypatch.setattr(forms, "pair_profile", spy)
        value = bilinear_b(F, F, grids)
        # per sign, {re re} for real f; {re re}, {re im}, {im im} for complex f
        per_sign = 3 if complex_valued else 1
        assert formed == [per_sign, per_sign, 0, 0]
        ref = unfolded_b(F, F, grids)
        assert abs(value - ref) <= 1e-14 * abs(ref)


@pytest.fixture
def half_pairs(monkeypatch):
    """Count of the real products of slice values: the product arrays that
    convolution._mode_pair (in slice-angle modes) and convolution._half_pair
    (at the slice nodes) fill, one chunk of slices per call (a call without
    an array to fill is one product)."""
    calls, filled = [0], []

    def spy(inner):
        def spied(a, b, *out):
            base = out[0].base if out else None
            if base is None or not any(base is f for f in filled):
                calls[0] += 1
                filled.append(base)
            return inner(a, b, *out)
        return spied

    for name in ("_half_pair", "_mode_pair"):
        monkeypatch.setattr(convolution, name, spy(getattr(convolution, name)))
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
    """The real products a SliceColumn keeps next to its fields."""
    return list(col._memo[2].values())


class TestHeldProducts:
    """Each real product of two held field rows is formed once."""

    def test_chain_sample_forms_six_products(self, half_pairs):
        # f f* once for both signs, the sharp field once, f f and
        # f(-.) f(-.) once for Q(f, f, f, f) and B(F, F), and B(|F|^2, 1)'s
        # |f|^2 pairs on the band limit's own nodes at x and -x
        grids = forms.FormGrids(exact_form_grids(4).ball, exact_form_grids(4).n_c)
        chain_values(rand_fn(4, 120), grids)
        assert half_pairs[0] == 6

    @pytest.mark.parametrize("case, products", [("complex star", 4), ("sharp", 1),
                                                ("B(F, F) after Q(f, f, f, f)", 0)])
    def test_products_per_call(self, case, products, half_pairs):
        grids = forms.FormGrids(exact_form_grids(4).ball, exact_form_grids(4).n_c)
        f = rand_fn(4, 121, complex_valued=case == "complex star")
        fs = f.antipodal_conjugate()
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
        assert half_pairs[0] == products

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
        modes = list(col.recall(np.stack([f.real, f.imag, p * f.real, p * f.imag])))
        nodes = [node_values(convolution.SplitValues(v, expansion=col.expansion)).re
                 for v in modes]
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
        # to the nodes once, and the memo keeps none of their node values,
        # only f#'s one product, which a second sharp Q reads
        grids = forms.FormGrids(exact_form_grids(4).ball, exact_form_grids(4).n_c)
        expanded, to_nodes = [], convolution._to_nodes

        def spy(a, expansion):
            expanded.append(len(a))
            return to_nodes(a, expansion)

        monkeypatch.setattr(convolution, "_to_nodes", spy)
        f = rand_fn(4, 127)
        fs, sharp = f.antipodal_conjugate(), f.sharp_rearrangement()
        col = grids.slice_column(4)
        quadrilinear_q(f, fs, f, fs, grids)
        assert expanded == []
        held = [p.shape for p in held_products(col)]
        assert held and all(shape == (col.n_t, col.radii.size) for shape in held)
        quadrilinear_q(sharp, sharp, sharp, sharp, grids)
        # two rows, each on every slice once, chunk by chunk
        assert sum(expanded) == 2 * col.n_t * col.radii.size
        # the sharp plan reads no row in modes: its sampler keeps none of f's
        # products, and f#'s product goes into the same store, one value a slice
        assert [p.shape for p in held_products(col)] == [(col.n_t, col.radii.size)]
        quadrilinear_q(sharp, sharp, sharp, sharp, grids)
        assert sum(expanded) == 2 * col.n_t * col.radii.size

    def test_b_of_sharp_kernels_after_sharp_q_reads_its_product(self, half_pairs):
        # Q(f#, f#, f#, f#) = 3/4 B(F#, F#): the column's one store keeps f#'s
        # product under its plan entry, so B(F#, F#) right after forms none
        grids = forms.FormGrids(exact_form_grids(4).ball, exact_form_grids(4).n_c)
        sharp = rand_fn(4, 128, complex_valued=True).sharp_rearrangement()
        F = weighted_pair_kernel(sharp)
        quadrilinear_q(sharp, sharp, sharp, sharp, grids)
        assert half_pairs[0] == 1
        b = bilinear_b(F, F, grids)
        assert half_pairs[0] == 1
        assert b == bilinear_b(F, F, forms.FormGrids(grids.ball, grids.n_c))

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


class TestNodeChunks:
    """Node values, and products of modes, are formed one chunk of slices at
    a time (convolution._CHUNK_BYTES), never for every slice at once."""

    def test_a_call_peaks_below_one_row_of_node_values_on_a_block(self):
        # the chain's grids: 24 x 576 slices; sharp Q pairs on the n_c = 48
        # slice nodes, B(|F|^2, 1) on the 34 of the band limit's own rule. On
        # a warm column (the rows of f held) no call may allocate as much as
        # one row of node values on a block of half the n_t azimuth rows,
        # 12 x 576 slices: 2.65 MB and 1.88 MB.
        L = 8
        grids = default_form_grids(n_t=24, n_c=48, n_r=24)
        col = grids.slice_column(L)
        assert col.n_t == 24
        slices = 12 * col.radii.size
        f = rand_fn(L, 160)
        sharp = f.sharp_rearrangement()
        F = weighted_pair_kernel(f)
        calls = [(lambda: quadrilinear_q(sharp, sharp, sharp, sharp, grids), col.n_c),
                 (lambda: bilinear_b(F.abs_squared(), PairKernel.one(), grids), 2 * (2 * L + 1))]
        for call, nodes in calls:
            call()
            tracemalloc.start()
            try:
                held = tracemalloc.get_traced_memory()[0]
                call()
                peak = tracemalloc.get_traced_memory()[1] - held
            finally:
                tracemalloc.stop()
            assert peak < slices * nodes * 8

    ball = build_ball_grid(4, build_sphere_grid(5))   # 5 x 20 slices

    @staticmethod
    def call(case, complex_valued):
        """(call on grids, the node or mode count it pairs on, or None where
        that is the grids' slice nodes)."""
        f = rand_fn(4, 161, complex_valued=complex_valued)
        fs, sharp = f.antipodal_conjugate(), f.sharp_rearrangement()
        F = weighted_pair_kernel(f)
        return {"sharp": (lambda g: quadrilinear_q(sharp, sharp, sharp, sharp, g), None),
                "B(|F|^2, 1)": (lambda g: bilinear_b(F.abs_squared(), PairKernel.one(), g),
                                2 * (2 * 4 + 1)),
                # a mode row meets node values
                "mixed": (lambda g: quadrilinear_q(f, sharp, fs, sharp, g), None),
                # modes pair with modes
                "star": (lambda g: quadrilinear_q(f, fs, f, fs, g), 2 * 4 + 1)}[case]

    @pytest.mark.parametrize("chunk", [1, 7, "block"])
    @pytest.mark.parametrize("n_c", [3, 8, 11])
    @pytest.mark.parametrize("complex_valued", [False, True])
    @pytest.mark.parametrize("case", ["sharp", "B(|F|^2, 1)", "mixed", "star"])
    def test_any_chunk_gives_the_default_chunk_s_value(self, case, complex_valued, n_c, chunk,
                                                       monkeypatch):
        call, nodes = self.call(case, complex_valued)
        expect = call(forms.FormGrids(self.ball, n_c))
        nodes = nodes or (2 * n_c if n_c % 2 else n_c)
        rows = []

        def spy(inner):
            def spied(a, b, *out):
                rows.append(len(a))
                return inner(a, b, *out)
            return spied

        # chunks of 1 and 7 slices, or all 100 in one; 7 does not divide 100
        monkeypatch.setattr(convolution, "_CHUNK_BYTES",
                            1 << 40 if chunk == "block" else chunk * 8 * nodes)
        for name in ("_half_pair", "_mode_pair"):
            monkeypatch.setattr(convolution, name, spy(getattr(convolution, name)))
        value = call(forms.FormGrids(self.ball, n_c))
        assert set(rows) == ({100} if chunk == "block" else {chunk, 100 % chunk} - {0})
        assert abs(value - expect) <= 4 * np.finfo(float).eps * abs(expect)


class TestChainAccuracy:
    """The paper's chain on the chain's grids, n_t = n_r = 24 and n_c = 48,
    from the column's factors: seeds 1..8, three draws of
    random_band_limited(8) each."""

    GRIDS = default_form_grids(n_t=24, n_c=48, n_r=24)

    @staticmethod
    def draws():
        for seed in range(1, 9):
            rng = np.random.default_rng(seed)
            for _ in range(3):
                yield random_band_limited(8, rng)

    def test_ball_q_matches_the_radial_route(self):
        workspace = make_workspace(8)
        for c in self.draws():
            f = SphereFunction.from_coeffs(c)
            fs = f.antipodal_conjugate()
            radial = workspace.q_value(c.coeffs)
            ball = quadrilinear_q(f, fs, f, fs, self.GRIDS)
            assert abs(ball - radial) <= 4e-16 * radial

    def test_q_is_three_quarters_of_b(self):
        for c in self.draws():
            f = SphereFunction.from_coeffs(c)
            F = weighted_pair_kernel(f)
            q = quadrilinear_q(f, f, f, f, self.GRIDS)
            assert abs(q - 0.75 * bilinear_b(F, F, self.GRIDS)) <= 1.5e-14 * abs(q)

    def test_fields_at_the_nodes_match_the_harmonics_there(self):
        # one azimuth row at a time: f at its slice nodes, from the fields
        # and from a harmonic table at the nodes themselves
        col = self.GRIDS.slice_column(8)
        rows = np.stack([c.coeffs for c in self.draws()])
        fields = col.recall(rows)
        for a in range(col.n_t):
            x = ball_rows(self.GRIDS.ball, a, a + 1).reshape(-1, 3)
            pts = convolution.slice_point_table(x, col.n_c)[0].reshape(-1, 3)
            expect = rows @ harmonic_values(8, pts)
            nodes = (fields[:, a] @ col.expansion).reshape(len(rows), -1)
            assert np.abs(nodes - expect).max() <= 1e-14 * np.abs(expect).max()


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
        for name in ("lambda_closed_form", "chord_spectrum_quadrature"):
            monkeypatch.setattr(legendre, name, unavailable)
            monkeypatch.setattr(forms, name, unavailable, raising=False)
        c = random_band_limited(8, np.random.default_rng(510), complex_valued=True)
        h = h_direct_many([SphereFunction.from_coeffs(c)], build_sphere_grid(9))[0]
        assert abs(h - h_spectral(c, lam8)) <= 1e-12 * abs(h)

    @pytest.mark.parametrize("wrap", [literal, lambda g: g], ids=["nodes", "column"])
    def test_blocks_match_one_block(self, monkeypatch, wrap):
        grid = build_sphere_grid(9)
        gs = [wrap(g) for g in [rand_fn(8, s, complex_valued=True) for s in (511, 512)] + [ONE]]
        whole = h_direct_many(gs, grid)
        monkeypatch.setattr(forms, "_POLAR_NODES", 200)   # two outer nodes a block
        blocked = h_direct_many(gs, grid)
        assert np.max(np.abs(blocked - whole) / np.abs(whole)) <= 1e-14


def literal(g: SphereFunction) -> SphereFunction:
    """g as a literal callable: the same values, no coefficients."""
    return SphereFunction(g)


def refuse(*args, **kwargs):
    raise AssertionError("this route must not run")


class TestChordColumn:
    """h_direct_many of coefficient-backed g on build_sphere_grid(n_t) tabulates
    the ring sums about azimuth 0's nodes only and turns g to the others."""

    @pytest.mark.parametrize("complex_valued", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("L", [*range(9), 16])
    def test_column_equals_node_path(self, monkeypatch, L, complex_valued):
        grid = build_sphere_grid(L + 1)
        gs = [rand_fn(L, 520 + s, complex_valued) for s in range(2)]
        nodes = h_direct_many([literal(g) for g in gs], grid)
        monkeypatch.setattr(forms, "SlicePlan", refuse)   # the column reads no function at nodes
        column = h_direct_many(gs, grid)
        assert np.max(np.abs(column - nodes) / np.abs(nodes)) <= 1e-14
        if not complex_valued:
            assert not np.iscomplexobj(column)

    def test_a_mixed_list_takes_the_node_path(self, monkeypatch):
        grid = build_sphere_grid(7)
        g, h = rand_fn(6, 530, complex_valued=True), rand_fn(5, 531)
        expect = h_direct_many([g, h], grid)
        monkeypatch.setattr(forms, "_turn", refuse)
        mixed = h_direct_many([g, literal(h)], grid)
        assert np.max(np.abs(mixed - expect) / np.abs(expect)) <= 1e-14

    def test_a_grid_without_the_product_layout_takes_the_node_path(self, monkeypatch):
        # build_sphere_grid(7)'s nodes in another order: the same rule
        grid = build_sphere_grid(7)
        order = np.random.default_rng(532).permutation(grid.n_nodes)
        shuffled = SphereGrid(grid.nodes[order], grid.weights[order], grid.exactness_degree)
        g = rand_fn(6, 533, complex_valued=True)
        expect = h_direct_many([g], grid)
        monkeypatch.setattr(forms, "_turn", refuse)
        got = h_direct_many([g], shuffled)
        assert np.max(np.abs(got - expect) / np.abs(expect)) <= 1e-14

    @pytest.mark.parametrize("L, n_t, complex_valued", [(3, 2, True), (6, 3, False), (9, 9, False)])
    def test_a_degree_above_the_grid_raises(self, L, n_t, complex_valued):
        # the route is exact to degree n_t - 1 only: unchecked, a degree-3
        # complex g on n_t = 2 gives 4.0496 - 1.0381j against h_spectral's 4.8044
        g = rand_fn(L, 534, complex_valued)
        for gs in ([g], [literal(g), g]):
            with pytest.raises(ValueError, match=rf"degree {L}\b.*<= {n_t - 1}\b"):
                h_direct_many(gs, build_sphere_grid(n_t))
