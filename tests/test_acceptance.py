"""Acceptance gate: one test per headline claim, at the stated tolerances.

Each test prints one pass/fail line under `pytest -v`. Runtime-limited
criteria carry explicit wall-clock guards.
"""

import time

import numpy as np

from sharpsphere import (
    SHARP_CONSTANT,
    FormGrids,
    HarmonicCoeffs,
    PairKernel,
    SphereFunction,
    analyze,
    bilinear_b,
    build_sphere_grid,
    convolve_many,
    four_identity_many,
    gamma_samples,
    gradient,
    h_direct_many,
    h_spectral,
    initial_coeffs,
    lambda_closed_form,
    legendre_values,
    objective_phi,
    pair_slice_average,
    quadrilinear_q,
    random_band_limited,
    recurrence_residuals,
    search,
    weighted_pair_kernel,
)
from sharpsphere.legendre import chord_spectrum_quadrature

from helpers import ball_points

PI = np.pi
ONE = SphereFunction.constant(1.0)


def test_criterion_01_sigma_convolution_closed_form():
    t0 = time.perf_counter()
    x = ball_points(np.random.default_rng(1), 1000, r_min=1e-6, r_max=2.0)
    vals = pair_slice_average(PairKernel.tensor(ONE, ONE), x, 16)
    closed = 2 * PI / np.linalg.norm(x, axis=1)
    assert np.all(np.abs(vals - closed) <= 1e-12 * closed)
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_sigma_convolution_norm(ball_default):
    t0 = time.perf_counter()
    norm_sq = FormGrids(ball_default, 64).conv_l2_norm(ONE, ONE) ** 2
    assert abs(norm_sq - 32 * PI**3) <= 1e-8 * 32 * PI**3
    assert time.perf_counter() - t0 < 10.0


def test_criterion_03_sharp_ratio_and_modulation(ball_default):
    grids = FormGrids(ball_default, 64)
    phi_const = grids.l4_norm(ONE) / np.sqrt(4 * PI)
    assert abs(phi_const - 2 * PI) <= 1e-8 * 2 * PI
    wave = SphereFunction.plane_wave([0.0, 0.0, 1.0])
    phi_wave = grids.l4_norm(wave) / np.sqrt(4 * PI)
    assert abs(phi_wave - 2 * PI) <= 1e-8 * 2 * PI
    assert abs(phi_wave - phi_const) <= 1e-8 * 2 * PI


def test_criterion_04_chord_multipliers():
    closed = lambda_closed_form(50)
    quad = chord_spectrum_quadrature(50)
    assert np.max(np.abs(closed - quad)) <= 1e-10
    assert np.all(closed[1:] < 0.0)


def test_criterion_05_chord_form_routes():
    h1 = float(np.real(h_direct_many([ONE], build_sphere_grid(1))[0]))
    expected = 64 * PI**2 / 3
    assert abs(h1 - expected) <= 1e-6 * expected

    fine = build_sphere_grid(9)
    lam8 = lambda_closed_form(8)
    rng = np.random.default_rng(2024)
    gs = [random_band_limited(8, rng) for _ in range(50)]
    direct = h_direct_many([SphereFunction.from_coeffs(g) for g in gs], fine)
    for g, d in zip(gs, direct):
        spectral = h_spectral(g, lam8)
        assert abs(np.real(d) - spectral) <= 1e-6 * abs(spectral)


def test_criterion_06_zero_sum_pairing_identity():
    t0 = time.perf_counter()
    omegas = gamma_samples(np.random.default_rng(1234), 10_000)
    dev = np.max(np.abs(four_identity_many(omegas) - 4.0))
    assert dev <= 1e-12
    assert time.perf_counter() - t0 < 1.0


def test_criterion_07_inequality_chain(exact_grids, basis16_17):
    lam16 = lambda_closed_form(16)
    h_of_one = 64 * PI**2 / 3
    rng = np.random.default_rng(1234)
    for _ in range(100):
        cf = random_band_limited(8, rng)
        f = SphereFunction.from_coeffs(cf)
        fstar = f.antipodal_conjugate()
        fsharp = f.sharp_rearrangement()

        q_star = quadrilinear_q(f, fstar, f, fstar, exact_grids).real
        q_sharp = quadrilinear_q(fsharp, fsharp, fsharp, fsharp, exact_grids).real
        assert q_star <= q_sharp * (1 + 1e-8)

        q4 = quadrilinear_q(f, f, f, f, exact_grids).real
        F = weighted_pair_kernel(f)
        bff = bilinear_b(F, F, exact_grids).real
        assert abs(q4 - 0.75 * bff) <= 1e-6 * abs(q4)

        bf2 = bilinear_b(F.abs_squared(), PairKernel.one(), exact_grids).real
        assert bff <= bf2 * (1 + 1e-8)
        assert bf2 <= 4 * PI * cf.norm_sq() ** 2 * (1 + 1e-8)

        sharp_sq = analyze(lambda pts: np.abs(fsharp(pts)) ** 2, basis16_17)
        h = h_spectral(sharp_sq, lam16)
        assert h <= sharp_sq.mean_value() ** 2 * h_of_one * (1 + 1e-8)


def test_criterion_08_pointwise_symmetrization():
    for i in range(20):
        f = SphereFunction.from_coeffs(random_band_limited(
            8, np.random.default_rng(100 + i), complex_valued=True))
        fstar, fsharp = f.antipodal_conjugate(), f.sharp_rearrangement()
        x = ball_points(np.random.default_rng(200 + i), 50, r_min=0.05, r_max=2.0)
        lhs = np.abs(convolve_many(f, fstar, x, 34))
        rhs = convolve_many(fsharp, fsharp, x, 34).real
        assert np.max(lhs - rhs) <= 1e-10


def test_criterion_09_ascent_finds_sharp_constant():
    t0 = time.perf_counter()
    for seed in range(20):
        init = initial_coeffs("random", 8, np.random.default_rng(seed))
        result = search(init)
        final = result.final
        assert abs(final.objective - SHARP_CONSTANT) <= 1e-4
        assert final.constancy_defect < 1e-3
        assert max(s.objective for s in result.states) <= SHARP_CONSTANT * (1 + 1e-6)

    # gradient oracle at a generic point, where it is O(1)
    init = initial_coeffs("random", 8, np.random.default_rng(0))
    arr = init.coeffs / np.linalg.norm(init.coeffs)
    g = gradient(HarmonicCoeffs(8, arr))
    h = 1e-5
    fd = np.empty_like(arr)
    for i in range(arr.size):
        up, down = arr.copy(), arr.copy()
        up[i] += h
        down[i] -= h
        fd[i] = (4 * np.log(objective_phi(HarmonicCoeffs(8, up)))
                 - 4 * np.log(objective_phi(HarmonicCoeffs(8, down)))) / (2 * h)
    assert np.linalg.norm(fd - g) <= 1e-5 * np.linalg.norm(g)
    assert time.perf_counter() - t0 < 600.0


def test_criterion_09b_ascent_finds_sharp_constant_at_band_limit_12():
    # Criterion 09's bounds past L=8, on the L=12 exact-quadrature workspace.
    t0 = time.perf_counter()
    for seed in range(5):
        init = initial_coeffs("random", 12, np.random.default_rng(seed))
        result = search(init)
        final = result.final
        assert abs(final.objective - SHARP_CONSTANT) <= 1e-4
        assert final.constancy_defect < 1e-3
        assert max(s.objective for s in result.states) <= SHARP_CONSTANT * (1 + 1e-6)
    assert time.perf_counter() - t0 < 600.0


def test_criterion_10_legendre_infrastructure():
    t, w = np.polynomial.legendre.leggauss(52)
    p = legendre_values(50, t)
    norms = np.sum(w * p * p, axis=1)
    target = 2.0 / (2.0 * np.arange(51) + 1.0)
    assert np.max(np.abs(norms - target) / target) <= 1e-12

    for t_val in np.linspace(-0.99, 0.99, 41):
        assert max(recurrence_residuals(50, float(t_val))) <= 1e-9

    r = 0.5
    for t_val in (-0.8, -0.3, 0.2, 0.7, 0.95):
        closed = 1.0 / np.sqrt(1.0 - 2.0 * r * t_val + r * r)
        errs = []
        for K in (5, 10, 20, 30):
            rows = legendre_values(K, np.array([t_val]))[:, 0]
            partial = np.sum(rows * r ** np.arange(K + 1))
            err = abs(partial - closed)
            assert err <= r ** (K + 1) / (1.0 - r)
            errs.append(err)
        assert errs[0] > errs[1] > errs[2] > errs[3]
