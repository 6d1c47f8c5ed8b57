"""Real-orthonormal spherical harmonic basis, transforms, zonal multipliers."""

import tracemalloc

import numpy as np
import pytest

from sharpsphere import (
    HarmonicCoeffs,
    SphereFunction,
    analyze,
    analyze_rings,
    build_basis,
    build_sphere_grid,
    circle_frames,
    harmonic_values,
    integrate_sphere,
    lambda_closed_form,
    n_coeffs,
    parity_signs,
    random_band_limited,
    synthesize_rings,
)
from sharpsphere import SphereGrid, harmonics
from sharpsphere.quadrature import _gauss_legendre
from helpers import (ball_points, eigenvalue_residual, legendre_factor_reference, tilt_reference,
                     unit_vectors)

PI = np.pi
UNIT_Z = np.array([[0.0, 0.0, 1.0]])


class TestIndexing:
    def test_layout_sizes(self):
        assert n_coeffs(0) == 1
        assert n_coeffs(8) == 81

    def test_flat_index_covers_each_slot_once(self):
        # slot k*k + k + m; a unit coefficient there is all degree k
        idx = [k * k + k + m for k in range(6) for m in range(-k, k + 1)]
        assert sorted(idx) == list(range(n_coeffs(5)))
        for k in range(6):
            for m in range(-k, k + 1):
                c = np.zeros(n_coeffs(5))
                c[k * k + k + m] = 1.0
                assert HarmonicCoeffs(5, c).degree_energies().tolist() == [
                    float(j == k) for j in range(6)]
                assert parity_signs(5)[k * k + k + m] == (-1.0) ** k

    def test_out_of_range_order_rejected(self):
        with pytest.raises(ValueError, match="order m=3 out of range for degree k=2"):
            eigenvalue_residual(2, 3)

    @pytest.mark.parametrize("m", [0.5, -1.0, "1", True])
    def test_order_must_be_an_integer(self, m):
        # a fractional m would make the flat index k*k + k + m fractional
        with pytest.raises(ValueError, match=f"m must be an integer >= -2, got {m!r}"):
            eigenvalue_residual(2, m)

    def test_parity_signs_follow_degree(self):
        signs = parity_signs(3)
        expected = np.repeat([1.0, -1.0, 1.0, -1.0], [1, 3, 5, 7])
        assert np.array_equal(signs, expected)

    def test_parity_signs_are_one_read_only_array_per_degree(self):
        signs = parity_signs(3)
        assert parity_signs(3) is signs
        assert not signs.flags.writeable


class TestHarmonicValues:
    def test_degree_zero_is_constant(self):
        pts = unit_vectors(np.random.default_rng(0), 40)
        vals = harmonic_values(0, pts)
        assert vals.shape == (1, 40)
        assert np.abs(vals[0] - 1.0 / np.sqrt(4 * PI)).max() <= 1e-15

    def test_antipodal_parity(self):
        pts = unit_vectors(np.random.default_rng(1), 200)
        vals = harmonic_values(6, pts)
        flipped = harmonic_values(6, -pts)
        assert np.abs(flipped - parity_signs(6)[:, None] * vals).max() <= 1e-13

    def test_degree_one_spans_coordinates(self):
        # every degree-1 basis function is a linear polynomial in omega
        pts = unit_vectors(np.random.default_rng(2), 500)
        rows = harmonic_values(1, pts)[1:4]
        coef, res, _, _ = np.linalg.lstsq(pts, rows.T, rcond=None)
        fit = pts @ coef
        assert np.abs(fit.T - rows).max() <= 1e-12

    def test_zonal_slot_is_scaled_height(self):
        pts = unit_vectors(np.random.default_rng(3), 100)
        vals = harmonic_values(2, pts)
        expected = np.sqrt(3.0 / (4 * PI)) * pts[:, 2]
        assert np.abs(vals[2] - expected).max() <= 1e-13

    @pytest.mark.parametrize("L", [0, 2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_points_rejected(self, L, bad):
        # at degree 0 the table's one row is finite at any point, so the
        # constant read 3.0 at a NaN point
        pts = np.array([[0.0, 0.0, 1.0], [bad, 0.0, 0.0]])
        f = SphereFunction.constant(3.0) if L == 0 else SphereFunction.from_coeffs(
            random_band_limited(2, np.random.default_rng(4)))
        with pytest.raises(ValueError, match="^points must be finite$"):
            harmonic_values(L, pts)
        with pytest.raises(ValueError, match="^points must be finite$"):
            f(pts)


class TestSliceFrameRoute:
    """Coefficients taken to rotated frames: turned about z (_turn), tilted
    by the quarter turn about x (_tilt), and to each slice frame (_framed)."""

    # q @ QUARTER is R_x(pi/2) q, which takes z to -y
    QUARTER = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]])

    @pytest.mark.parametrize("L", [0, 1, 4, 8, 16])
    def test_the_tilt_is_the_quarter_turn_about_x(self, L):
        tilt = harmonics._tilt(L)
        assert harmonics._tilt(L) is tilt and len(tilt) == L + 1
        rng = np.random.default_rng(90 + L)
        c = random_band_limited(L, rng).coeffs
        pts = unit_vectors(rng, 60)
        tilted = np.concatenate([c[k * k:(k + 1) ** 2] @ x for k, x in enumerate(tilt)])
        expect = c @ harmonic_values(L, pts @ self.QUARTER)
        assert np.abs(tilted @ harmonic_values(L, pts) - expect).max() <= 1e-14 * np.abs(expect).max()
        for k, x in enumerate(tilt):
            assert x.shape == (2 * k + 1, 2 * k + 1) and not x.flags.writeable
            assert np.abs(x.T @ x - np.eye(2 * k + 1)).max() <= 1e-15

    @pytest.mark.parametrize("L", list(range(9)) + [16, 24])
    def test_the_tilt_matches_the_dense_projection(self, L):
        # the blocks projected on the rings against two full harmonic tables
        # (tilt_reference); against a long double projection the dense
        # route sits within 1.0e-15 and the ring route within 2.4e-15, whose
        # error is the harmonic table's at the turned nodes
        for x, ref in zip(harmonics._tilt(L), tilt_reference(L)):
            assert np.abs(x - ref).max() <= 3e-15
            assert np.abs(x.T @ x - np.eye(len(x))).max() <= 1e-15

    def test_the_tilt_holds_one_harmonic_table(self):
        # the table at the quarter-turned nodes, 19.0 MB at L=32, and one
        # degree's projection at a time; two full tables traced at 2.05 times
        L = 32
        table = 8 * (L + 1) ** 2 * 2 * (L + 1) ** 2
        tracemalloc.start()
        try:
            harmonics._tilt.__wrapped__(L)   # uncached
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.8 * table

    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble], ids=["double", "longdouble"])
    @pytest.mark.parametrize("L", [0, 1, 2, 5, 8, 16])
    def test_framed_rows_read_f_at_the_rotated_points(self, L, dtype):
        # f(R q), R = (e1, e2, x/|x|) of circle_frames, from the framed rows
        # at q; centres on both poles and 1e-9 off the axis, where theta
        # from arccos(z/|x|) reads f to only about 1e-9
        rng = np.random.default_rng(100 + L)
        rows = np.stack([random_band_limited(L, rng).coeffs for _ in range(2)])
        X = np.concatenate([ball_points(rng, 6, r_min=0.05),
                            [[0.0, 0.0, 0.7], [0.0, 0.0, -1.3], [1e-9, 0.0, 0.9],
                             [0.0, -1e-9, -0.4], [-1e-9, 1e-9, 1.5]]])
        framed = harmonics._framed(rows[:, None], X.astype(dtype))
        assert framed.shape == (2, len(X), (L + 1) ** 2) and framed.dtype == np.float64
        _, _, e1, e2 = circle_frames(X)
        frames = np.stack([e1, e2, X / np.linalg.norm(X, axis=1, keepdims=True)], axis=1)
        pts = unit_vectors(rng, 40)
        for i, frame in enumerate(frames):
            expect = rows @ harmonic_values(L, pts @ frame)
            got = framed[:, i] @ harmonic_values(L, pts)
            assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max(), i


class TestBasisAndTransforms:
    def test_gram_identity(self):
        unit = np.eye(n_coeffs(2))
        gram = analyze_rings(synthesize_rings(unit, 8), 8, 2)
        assert np.abs(gram - unit).max() <= 1e-12

    def test_insufficient_exactness_rejected(self):
        grid = build_sphere_grid(4)   # exactness 7 < 2 * 4
        with pytest.raises(ValueError):
            build_basis(4, grid)

    def test_analyze_constant(self):
        basis = build_basis(3, build_sphere_grid(8))
        c = analyze(lambda p: np.full(len(p), 2.5), basis)
        assert abs(c.coeffs[0] - 2.5 * np.sqrt(4 * PI)) <= 1e-12
        assert np.abs(c.coeffs[1:]).max() <= 1e-12

    def test_analyze_height_hits_single_slot(self):
        basis = build_basis(3, build_sphere_grid(8))
        c = analyze(lambda p: p[:, 2], basis)
        i = 2   # (k, m) = (1, 0) at k*k + k + m
        assert abs(c.coeffs[i] - np.sqrt(4 * PI / 3)) <= 1e-12
        assert np.abs(np.delete(c.coeffs, i)).max() <= 1e-12

    def test_synthesize_constant(self):
        c = np.zeros(n_coeffs(2))
        c[0] = np.sqrt(4 * PI)
        vals = synthesize_rings(c, 8)
        assert np.abs(vals - 1.0).max() <= 1e-12

    def test_unit_coefficient_has_unit_norm(self):
        grid = build_sphere_grid(8)
        c = np.zeros(n_coeffs(3))
        c[14] = 1.0   # (k, m) = (3, 2)
        vals = synthesize_rings(c, 8)
        norm_sq = integrate_sphere(grid, np.abs(vals) ** 2)
        assert abs(norm_sq - 1.0) <= 1e-10

    def test_value_round_trip(self, grid17):
        basis = build_basis(8, grid17)
        c = random_band_limited(8, np.random.default_rng(4), complex_valued=True)
        vals = synthesize_rings(c.coeffs, 17)
        back = synthesize_rings(analyze(vals, basis).coeffs, 17)
        assert np.abs(back - vals).max() <= 1e-10

    def test_coefficient_round_trip(self, grid17):
        basis = build_basis(8, grid17)
        c = random_band_limited(8, np.random.default_rng(5), complex_valued=True)
        back = analyze(synthesize_rings(c.coeffs, 17), basis)
        assert np.abs(back.coeffs - c.coeffs).max() <= 1e-12

    def test_parseval(self, grid17):
        c = random_band_limited(8, np.random.default_rng(6), complex_valued=True)
        vals = synthesize_rings(c.coeffs, 17)
        quad = integrate_sphere(grid17, np.abs(vals) ** 2)
        assert abs(quad - c.norm_sq()) <= 1e-10 * c.norm_sq()

    def test_analyze_rejects_off_grid_values(self, grid17):
        basis = build_basis(8, grid17)
        with pytest.raises(ValueError):
            analyze(np.ones(7), basis)


class TestRingTransform:
    @pytest.mark.parametrize("L", [0, 1, 2, 8, 16, 32])
    @pytest.mark.parametrize("complex_valued", [False, True], ids=["real", "complex"])
    def test_matches_the_dense_oracle(self, L, complex_valued):
        # against the table of every harmonic at every node, on the grid
        # exact for degree 2L and on a finer one
        rng = np.random.default_rng(540 + L)
        for n_t in (L + 1, 2 * L + 3):
            grid = build_sphere_grid(n_t)
            table = harmonic_values(L, grid.nodes)
            c = np.stack([random_band_limited(L, rng, complex_valued).coeffs for _ in range(3)])
            vals = synthesize_rings(c, n_t)
            expect = c @ table
            assert vals.shape == expect.shape and np.iscomplexobj(vals) == complex_valued
            assert np.abs(vals - expect).max() <= 1e-13 * np.abs(expect).max()
            f = rng.standard_normal((2, grid.n_nodes))
            if complex_valued:
                f = f + 1j * rng.standard_normal(f.shape)
            got, expect = analyze_rings(f, n_t, L), (f * grid.weights) @ table.T
            assert got.shape == expect.shape and np.iscomplexobj(got) == complex_valued
            assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max()

    @pytest.mark.parametrize("L", [8, 16, 32])
    def test_projects_the_squared_sharp_rearrangement_as_the_dense_sum(self, L):
        # |f#|^2 of band limit L/2 is not band-limited; its projection is the
        # same quadrature sum either way, regrouped: 4.8e-16 apart at L=32
        sharp = SphereFunction.from_coeffs(
            random_band_limited(L // 2, np.random.default_rng(550 + L))).sharp_rearrangement()
        grid = build_sphere_grid(L + 1)
        vals = np.abs(sharp(grid.nodes)) ** 2
        got = analyze(vals, build_basis(L, grid)).coeffs
        expect = harmonic_values(L, grid.nodes) @ (grid.weights * vals)
        assert np.abs(got - expect).max() <= 4e-15 * np.abs(expect).max()

    def test_a_degree_64_round_trip_holds_no_table_of_every_node(self):
        # the table of every harmonic at the 8,450 nodes would take 285 MB;
        # the factors, built here in np.longdouble, and the transform peak at
        # 4.8 MB traced
        L, n_t = 64, 65
        c = random_band_limited(L, np.random.default_rng(560), complex_valued=True).coeffs
        harmonics._ring_factors.cache_clear()
        tracemalloc.start()
        try:
            back = analyze_rings(synthesize_rings(c, n_t), n_t, L)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16e6, peak
        assert np.abs(back - c).max() <= 1e-14 * np.abs(c).max()

    @pytest.mark.parametrize("L, n_t", [(0, 1), (1, 2), (2, 5), (8, 9), (8, 17), (16, 33),
                                        (64, 65)])
    def test_legendre_factors_keep_their_bits(self, L, n_t):
        # the m >= 0 rows alone, built order-major, against every row of the
        # full flat table indexed to slot (k, |m|), at the rule's nodes in
        # np.longdouble for the ring factors and in both dtypes for the flat
        # factor; the ring factors hold slot (k, m >= 0) at (m, k)
        t = _gauss_legendre(n_t)[0]
        flat = legendre_factor_reference(L, t.astype(np.longdouble))
        deg, order = harmonics._degree_index(L), harmonics._slot_orders(L)
        expect = np.zeros((L + 1, L + 1, n_t))
        expect[order[order >= 0], deg[order >= 0]] = flat[order >= 0]
        assert np.array_equal(harmonics._ring_factors(L, n_t)[0], expect)
        for x in (t, t.astype(np.longdouble)):
            assert np.array_equal(harmonics._legendre_factor(L, x),
                                  legendre_factor_reference(L, x))

    def test_building_the_factors_peaks_below_three_times_their_bytes(self):
        # at (64, 65) the factors keep 2.4 MB and their build peaks at 4.1 MB
        # traced; the full longdouble table, its fancy-index copy and a
        # mask's temporary took 8.9 MB
        _gauss_legendre(65)   # the rule, cached, outside the count
        harmonics._ring_factors.cache_clear()
        tracemalloc.start()
        try:
            factors = harmonics._ring_factors(64, 65)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sum(a.nbytes for a in factors[:3] + factors[3])
        assert peak < 3 * kept, (peak, kept)

    def test_a_grid_without_the_product_layout_raises(self):
        # build_sphere_grid(7)'s nodes in another order: the same rule, but
        # not the rings the transform reads
        grid = build_sphere_grid(7)
        order = np.random.default_rng(561).permutation(grid.n_nodes)
        shuffled = SphereGrid(grid.nodes[order], grid.weights[order], grid.exactness_degree)
        with pytest.raises(ValueError, match="product layout"):
            build_basis(3, shuffled)

    def test_shapes_are_checked(self):
        with pytest.raises(ValueError, match=r"\(L\+1\)\^2 entries, got 5"):
            synthesize_rings(np.ones(5), 3)
        with pytest.raises(ValueError, match="18 nodes of build_sphere_grid"):
            analyze_rings(np.ones(17), 3, 2)


class TestChordMultipliers:
    def test_matches_rotated_pole_quadrature_at_nodes(self):
        # independent route: rotate each node to the pole, average in azimuth,
        # and integrate chord(t) p(t) dt with t = 1 - 2 u^2 so the sqrt
        # endpoint becomes polynomial; Gauss-Legendre in u then resolves
        # degree L exactly
        L = 6
        grid = build_sphere_grid(10)
        nu, wu = np.polynomial.legendre.leggauss(L + 4)
        u = 0.5 * (nu + 1.0)
        w = 0.5 * wu * 8.0 * u ** 2
        t = 1.0 - 2.0 * u ** 2
        n_phi = 2 * L + 2
        phis = 2 * PI * np.arange(n_phi) / n_phi
        nodes = grid.nodes
        pick = np.zeros_like(nodes)
        pick[np.arange(len(nodes)), np.argmin(np.abs(nodes), axis=1)] = 1.0
        e1 = np.cross(nodes, pick)
        e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
        e2 = np.cross(nodes, e1)
        s = np.sqrt(np.clip(1.0 - t ** 2, 0.0, None))
        pts = (s[None, :, None, None]
               * (np.cos(phis)[None, None, :, None] * e1[:, None, None, :]
                  + np.sin(phis)[None, None, :, None] * e2[:, None, None, :])
               + t[None, :, None, None] * nodes[:, None, None, :])
        vals = harmonic_values(L, pts.reshape(-1, 3))
        vals = vals.reshape(n_coeffs(L), len(nodes), len(t), n_phi)
        applied = 2 * PI * np.einsum("q,cnq->cn", w, vals.mean(axis=3))
        lam = lambda_closed_form(L)
        degree = np.repeat(np.arange(L + 1), 2 * np.arange(L + 1) + 1)
        expected = 2 * PI * lam[degree][:, None] * harmonic_values(L, nodes)
        scale = np.abs(expected).max()
        assert np.abs(applied - expected).max() <= 1e-8 * scale


class TestHarmonicCoeffs:
    def test_norm_and_degree_energies(self):
        c = random_band_limited(5, np.random.default_rng(8), complex_valued=True)
        energies = c.degree_energies()
        assert energies.shape == (6,)
        assert abs(energies.sum() - c.norm_sq()) <= 1e-13 * c.norm_sq()
        block = np.abs(c.coeffs[9:16]) ** 2   # degree 3: flat indices 9..15
        assert abs(energies[3] - block.sum()) <= 1e-13 * c.norm_sq()

    def test_mean_value(self):
        c = np.zeros(n_coeffs(2))
        c[0] = np.sqrt(4 * PI) * 1.75
        assert abs(HarmonicCoeffs(2, c).mean_value() - 1.75) <= 1e-14

    def test_antipodal_conjugate_coefficients(self):
        c = random_band_limited(4, np.random.default_rng(9), complex_valued=True)
        flipped = c.antipodal_conjugate()
        expect = parity_signs(4) * np.conj(c.coeffs)
        assert np.array_equal(flipped.coeffs, expect)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            HarmonicCoeffs(3, np.zeros(15))

    @pytest.mark.parametrize("degree", [-1, 2.5, 2.0])
    def test_degree_that_is_not_a_nonnegative_integer_rejected(self, degree):
        with pytest.raises(ValueError, match=f"max_degree must be a nonnegative integer, "
                                             f"got {degree!r}"):
            HarmonicCoeffs(degree, np.zeros(9))

    @pytest.mark.parametrize("L", [-1, 2.5])
    def test_random_band_limited_rejects_a_degree_that_is_not_a_nonnegative_integer(self, L):
        with pytest.raises(ValueError, match=f"L must be a nonnegative integer, got {L!r}"):
            random_band_limited(L, np.random.default_rng(11))

    @pytest.mark.parametrize("call,message", [
        (lambda: harmonic_values(-1, UNIT_Z), "L must be a nonnegative integer, got -1"),
        (lambda: harmonic_values(2.5, UNIT_Z), "L must be a nonnegative integer, got 2.5"),
        (lambda: n_coeffs(-3), "L must be a nonnegative integer, got -3"),
        (lambda: parity_signs(-1), "L must be a nonnegative integer, got -1"),
        (lambda: eigenvalue_residual(1.5, 0), "k must be a nonnegative integer, got 1.5"),
        *[(lambda n=n: eigenvalue_residual(1, 0, mesh_size=n),
           f"mesh_size must be an integer >= 5, got {n}") for n in range(5)],
    ])
    def test_degrees_and_sizes_must_be_integers_in_range(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    def test_smallest_eigenvalue_mesh_keeps_one_row(self):
        assert eigenvalue_residual(1, 0, mesh_size=5) >= 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1.0, np.nan)])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            HarmonicCoeffs(1, [1.0, bad, 1.0, 1.0])

    def test_random_band_limited_shapes(self):
        real = random_band_limited(6, np.random.default_rng(10))
        cplx = random_band_limited(6, np.random.default_rng(10), complex_valued=True)
        assert real.coeffs.shape == (n_coeffs(6),)
        assert not np.iscomplexobj(real.coeffs)
        assert np.iscomplexobj(cplx.coeffs)


class TestSphereFunction:
    def test_constant_and_plane_wave_values(self):
        pts = unit_vectors(np.random.default_rng(11), 20)
        assert np.abs(SphereFunction.constant(3.0)(pts) - 3.0).max() == 0.0
        xi = np.array([0.2, -1.0, 0.4])
        pw = SphereFunction.plane_wave(xi)
        assert np.abs(pw(pts) - np.exp(1j * pts @ xi)).max() <= 1e-15

    def test_coefficient_backed_evaluation(self):
        c = random_band_limited(5, np.random.default_rng(12), complex_valued=True)
        f = SphereFunction.from_coeffs(c)
        pts = unit_vectors(np.random.default_rng(13), 50)
        direct = c.coeffs @ harmonic_values(5, pts)
        assert np.abs(f(pts) - direct).max() <= 1e-13

    def test_antipodal_conjugate_values(self):
        f = SphereFunction.from_coeffs(
            random_band_limited(5, np.random.default_rng(14), complex_valued=True))
        g = f.antipodal_conjugate()
        pts = unit_vectors(np.random.default_rng(15), 50)
        assert np.abs(g(pts) - np.conj(f(-pts))).max() <= 1e-13

    def test_antipodal_conjugate_involution(self):
        f = SphereFunction.from_coeffs(
            random_band_limited(4, np.random.default_rng(16), complex_valued=True))
        back = f.antipodal_conjugate().antipodal_conjugate()
        pts = unit_vectors(np.random.default_rng(17), 30)
        assert np.abs(back(pts) - f(pts)).max() <= 1e-14

    def test_closure_conjugate_returns_its_source(self):
        xi = np.array([0.3, 0.5, -0.2])
        f = SphereFunction.plane_wave(xi)
        g = f.antipodal_conjugate()
        pts = unit_vectors(np.random.default_rng(23), 30)
        assert np.array_equal(g(pts), np.conj(f(-pts)))
        # conj(conj(f(-(-p)))) is f(p) bit for bit
        assert np.array_equal(g.antipodal_conjugate()(pts), f(pts))

    def test_sharp_pointwise_formula(self):
        f = SphereFunction.from_coeffs(
            random_band_limited(5, np.random.default_rng(18), complex_valued=True))
        sharp = f.sharp_rearrangement()
        pts = unit_vectors(np.random.default_rng(19), 60)
        expect = np.sqrt(0.5 * (np.abs(f(pts)) ** 2 + np.abs(f(-pts)) ** 2))
        vals = sharp(pts)
        assert np.abs(vals.imag).max() == 0.0
        assert np.abs(vals.real - expect).max() <= 1e-13

    @pytest.mark.parametrize("complex_valued", [False, True])
    def test_sharp_of_coefficients_reads_one_table(self, complex_valued, monkeypatch):
        # f(-p) is the parity-flipped row on p's table: one harmonic_values
        # call per evaluation, the values of the two-call route
        from sharpsphere import harmonics
        f = SphereFunction.from_coeffs(
            random_band_limited(8, np.random.default_rng(24), complex_valued=complex_valued))
        pts = unit_vectors(np.random.default_rng(25), 500)
        expect = np.sqrt(0.5 * (np.abs(f(pts)) ** 2 + np.abs(f(-pts)) ** 2))
        calls, inner = [], harmonics.harmonic_values

        def spy(L, points):
            calls.append(len(points))
            return inner(L, points)

        monkeypatch.setattr(harmonics, "harmonic_values", spy)
        vals = f.sharp_rearrangement()(pts)
        assert calls == [len(pts)]
        assert np.abs(vals - expect).max() <= 1e-15 * np.abs(expect).max()

    def test_sharp_of_a_closure_calls_it_at_both_points(self):
        xi = np.array([0.4, -0.1, 0.7])
        f = SphereFunction.plane_wave(xi)
        seen = []
        g = SphereFunction(lambda p: (seen.append(p.copy()), f(p))[1])
        pts = unit_vectors(np.random.default_rng(26), 40)
        vals = g.sharp_rearrangement()(pts)
        assert len(seen) == 2 and np.array_equal(seen[1], -pts)
        assert np.array_equal(vals, np.sqrt(0.5 * (np.abs(f(pts)) ** 2 + np.abs(f(-pts)) ** 2)))

    def test_sharp_is_nonnegative_and_antipodally_even(self):
        f = SphereFunction.from_coeffs(
            random_band_limited(6, np.random.default_rng(20), complex_valued=True))
        sharp = f.sharp_rearrangement()
        pts = unit_vectors(np.random.default_rng(21), 60)
        assert np.all(sharp(pts).real >= 0.0)
        assert np.abs(sharp(pts) - sharp(-pts)).max() <= 1e-13

    def test_sharp_preserves_l2_mass(self, grid17):
        f = SphereFunction.from_coeffs(
            random_band_limited(8, np.random.default_rng(22), complex_valued=True))
        sharp = f.sharp_rearrangement()
        n_f = integrate_sphere(grid17, np.abs(f(grid17.nodes)) ** 2)
        n_s = integrate_sphere(grid17, sharp(grid17.nodes).real ** 2)
        assert abs(n_f - n_s) <= 1e-12 * abs(n_f)

    def test_complex_coefficients_take_no_complex_table(self):
        # numpy casts a real table to complex for a product with complex
        # coefficients, 2.6x a real f's peak at L=8; synthesized by parts, a
        # complex f and its f# peak as a real f does
        pts = unit_vectors(np.random.default_rng(27), 3000)

        def peak(f) -> int:
            f(pts[:10])   # caches outside the count
            tracemalloc.start()
            try:
                f(pts)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        rng = np.random.default_rng(28)
        real = peak(SphereFunction.from_coeffs(random_band_limited(8, rng)))
        f = SphereFunction.from_coeffs(random_band_limited(8, rng, complex_valued=True))
        assert peak(f) <= 1.1 * real
        assert peak(f.sharp_rearrangement()) <= 1.1 * real


class TestEigenvalueResidual:
    def test_constant_is_exact(self):
        assert eigenvalue_residual(0, 0) == 0.0

    @pytest.mark.parametrize("k,m,budget", [(1, 0, 1e-3), (4, 2, 5e-2)])
    def test_finite_difference_laplacian_scale(self, k, m, budget):
        assert eigenvalue_residual(k, m, mesh_size=96) <= budget

    def test_residual_shrinks_quadratically(self):
        coarse = eigenvalue_residual(4, 2, mesh_size=96)
        fine = eigenvalue_residual(4, 2, mesh_size=192)
        assert 3.2 <= coarse / fine <= 4.8

    def test_out_of_range_indices_rejected(self):
        with pytest.raises(ValueError):
            eigenvalue_residual(2, 3)
