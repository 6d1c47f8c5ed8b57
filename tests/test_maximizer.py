"""Objective, gradient, and ascent search for the restriction ratio."""

import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from sharpsphere import (
    SHARP_CONSTANT,
    HarmonicCoeffs,
    SphereFunction,
    build_sphere_grid,
    constancy_metric,
    default_form_grids,
    exact_sizes,
    gradient,
    initial_coeffs,
    make_workspace,
    n_coeffs,
    objective_phi,
    quadrilinear_q,
    random_band_limited,
    search,
)
from sharpsphere import maximizer
from sharpsphere.convolution import slice_point_table
from sharpsphere.harmonics import harmonic_values, parity_signs
from sharpsphere.maximizer import INITIAL_STEP, Workspace

PI = np.pi

# Strict local maximum of pure odd parity inside the odd invariant subspace;
# the zonal start omega_z ascends to it and stalls there.
ODD_PLATEAU = 6.016434493903391
PHI_ZONAL = 6.015194709883384


def constant_coeffs(L=8, value=1.0):
    c = np.zeros(n_coeffs(L))
    c[0] = value * np.sqrt(4 * PI)
    return HarmonicCoeffs(L, c)


class TestObjective:
    def test_constant_attains_sharp_value(self):
        phi = objective_phi(constant_coeffs())
        assert abs(phi - SHARP_CONSTANT) <= 1e-12 * SHARP_CONSTANT

    def test_sharp_constant_is_two_pi(self):
        assert SHARP_CONSTANT == 2 * PI

    def test_zonal_anchor(self):
        z = initial_coeffs("zonal", 8, np.random.default_rng(0))
        phi = objective_phi(z)
        assert abs(phi - PHI_ZONAL) <= 1e-6
        assert SHARP_CONSTANT - phi > 0.26

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        c = rng.standard_normal(n_coeffs(8))
        a = objective_phi(HarmonicCoeffs(8, c))
        b = objective_phi(HarmonicCoeffs(8, 7.5 * c))
        assert abs(a - b) <= 1e-12 * a
        # Phi, gradient and search scale c by a power of two first: a power
        # of two moves no bit, and no size overflows or underflows
        g = gradient(HarmonicCoeffs(8, c))
        run = search(HarmonicCoeffs(8, c))
        for e in (600, -600):
            scaled = HarmonicCoeffs(8, np.ldexp(c, e))
            assert objective_phi(scaled) == a
            assert np.array_equal(gradient(scaled), np.ldexp(g, -e))
            other = search(scaled)
            assert [s.objective for s in other.states] == [s.objective for s in run.states]
        for factor in (1e200, 1e-200):
            scaled = HarmonicCoeffs(8, factor * c)
            assert abs(objective_phi(scaled) - a) <= 1e-15 * a
            # the log-form gradient is dq/q - 4c/|c|^2, two terms of size
            # 1/|c| that cancel to about a third of it, so the rounding of
            # factor * c reads about 1.6e-15 of its largest entry
            g_scaled = factor * gradient(scaled)
            assert np.all(np.isfinite(g_scaled))
            assert np.abs(g_scaled - g).max() <= 1e-14 * np.abs(g).max()
            final = search(scaled).final.objective
            assert abs(final - run.final.objective) <= 1e-15 * run.final.objective

    def test_q_value_of_overflowing_coeffs_rejected(self, ws8):
        c = 1e200 * np.random.default_rng(3).standard_normal(n_coeffs(8))
        for method in (ws8.q_value, ws8.q_gradient):
            with pytest.raises(ValueError, match="Q evaluated to the non-finite value"):
                method(c)
        with pytest.raises(ValueError, match="Q evaluated to the non-finite value"):
            ws8.q_value(1e80 * c.astype(complex))

    def test_random_draws_never_exceed_sharp_constant(self):
        # The workspace rules are exact at band limit 8, so the discrete
        # objective inherits the global bound.
        rng = np.random.default_rng(99)
        for _ in range(300):
            c = HarmonicCoeffs(8, rng.standard_normal(n_coeffs(8)))
            assert objective_phi(c) <= SHARP_CONSTANT * (1 + 1e-6)

    def test_constant_is_strict_local_max(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            d = rng.standard_normal(n_coeffs(8))
            d[0] = 0.0
            d /= np.linalg.norm(d)
            c = np.zeros(n_coeffs(8))
            c[0] = 1.0
            phi = objective_phi(HarmonicCoeffs(8, c + 1e-2 * d))
            assert phi < SHARP_CONSTANT - 1e-4

    def test_matches_quadrilinear_form(self, ws8, exact_grids):
        rng = np.random.default_rng(17)
        arr = rng.standard_normal(n_coeffs(8))
        f = SphereFunction.from_coeffs(HarmonicCoeffs(8, arr))
        fs = f.antipodal_conjugate()
        q = quadrilinear_q(f, fs, f, fs, exact_grids)
        assert abs(ws8.q_value(arr) - q.real) <= 1e-10 * abs(q.real)

    def test_zero_coeffs_rejected(self):
        zero = HarmonicCoeffs(8, np.zeros(n_coeffs(8)))
        with pytest.raises(ValueError):
            objective_phi(zero)

    def test_complex_coeffs_rejected(self):
        c = np.zeros(n_coeffs(8), dtype=complex)
        c[0] = 1.0
        c[3] = 0.2j
        with pytest.raises(ValueError):
            objective_phi(HarmonicCoeffs(8, c))

    def test_complex_typed_real_coeffs_are_the_real_array(self):
        # complex dtype with zero imaginary parts is read as the real array
        real = random_band_limited(8, np.random.default_rng(62))
        typed = HarmonicCoeffs(8, real.coeffs.astype(complex))
        assert objective_phi(typed) == objective_phi(real)
        assert np.array_equal(gradient(typed), gradient(real))


class TestGradient:
    def test_vanishes_at_constant(self):
        g = gradient(constant_coeffs())
        assert np.linalg.norm(g) <= 1e-10

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(23)
        c = rng.standard_normal(n_coeffs(3))
        g = gradient(HarmonicCoeffs(3, c))
        h = 1e-5
        for i in range(c.size):
            cp, cm = c.copy(), c.copy()
            cp[i] += h
            cm[i] -= h
            fd = (4 * np.log(objective_phi(HarmonicCoeffs(3, cp)))
                  - 4 * np.log(objective_phi(HarmonicCoeffs(3, cm)))) / (2 * h)
            assert abs(fd - g[i]) <= 1e-7

    def test_orthogonal_to_coefficients(self):
        # log Phi^4 is scale-free, so its gradient is orthogonal to the
        # radial direction (Euler's identity for the quartic form).
        rng = np.random.default_rng(11)
        for _ in range(5):
            c = rng.standard_normal(n_coeffs(8))
            g = gradient(HarmonicCoeffs(8, c))
            assert abs(g @ c) <= 1e-12

    def test_degree_minus_one_homogeneous(self):
        rng = np.random.default_rng(12)
        c = rng.standard_normal(n_coeffs(8))
        g1 = gradient(HarmonicCoeffs(8, c))
        g2 = gradient(HarmonicCoeffs(8, 2.0 * c))
        assert np.max(np.abs(g2 - 0.5 * g1)) <= 1e-14

    def test_zero_coeffs_rejected(self):
        with pytest.raises(ValueError):
            gradient(HarmonicCoeffs(8, np.zeros(n_coeffs(8))))


    def test_overflowing_gradient_rejected(self):
        # at subnormal coefficients the gradient, of size 1/|c|, is past
        # the largest float; Phi there is still finite
        c = HarmonicCoeffs(8, 1e-310 * np.random.default_rng(3).standard_normal(n_coeffs(8)))
        assert np.isfinite(objective_phi(c))
        with pytest.raises(ValueError, match="gradient overflows"):
            gradient(c)


class TestCurvature:
    def test_degree_curvatures_certify_a_strict_local_maximum(self, ws8):
        # Central differences of the gradient at the unit constant give the
        # Hessian of log Phi^4 there: diagonal, lambda_k on every slot of
        # degree k >= 1, all negative, so the constant is a strict local max.
        n = n_coeffs(8)
        const = np.zeros(n)
        const[0] = 1.0
        h = 1e-5
        hess = np.empty((n, n))
        for j in range(n):
            up, down = const.copy(), const.copy()
            up[j] += h
            down[j] -= h
            hess[:, j] = (gradient(HarmonicCoeffs(8, up))
                          - gradient(HarmonicCoeffs(8, down))) / (2 * h)
        diag = np.diag(hess)
        lam = ws8.curvature
        assert np.all(np.abs(diag[1:] - lam[1:]) <= 1e-7 * np.abs(lam[1:]))
        assert np.abs(hess - np.diag(diag)).max() <= 1e-8
        assert np.all(lam[1:] < 0.0)
        assert lam[1:].max() == pytest.approx(-8 / 5, rel=1e-15)
        degree2 = slice(4, 9)
        assert np.all(lam[degree2] == lam[1:].max())
        assert lam[0] == 8.0   # the mean slot takes the same formula


class TestConstancyMetric:
    def test_constant_gives_zero(self):
        assert constancy_metric(constant_coeffs(L=4)) == 0.0

    def test_pure_zonal_gives_one(self):
        z = initial_coeffs("zonal", 8, np.random.default_rng(0))
        assert constancy_metric(z) == 1.0

    def test_energy_fraction(self):
        # f = 1 + eps * omega_z splits energy 1 : eps^2/3 between degrees.
        eps = 0.37
        c = np.zeros(n_coeffs(2))
        c[0] = np.sqrt(4 * PI)
        c[2] = eps * np.sqrt(4 * PI / 3)
        expect = (eps**2 / 3) / (1 + eps**2 / 3)
        got = constancy_metric(HarmonicCoeffs(2, c))
        assert abs(got - expect) <= 1e-12 * expect

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            constancy_metric(HarmonicCoeffs(2, np.zeros(n_coeffs(2))))


class TestInitialCoeffs:
    def test_random_balances_mean(self):
        c = initial_coeffs("random", 8, np.random.default_rng(5)).coeffs
        assert abs(c[0]) == pytest.approx(np.linalg.norm(c[1:]), rel=1e-12)

    def test_perturbed_constant_shape(self):
        c = initial_coeffs("perturbed-constant", 8, np.random.default_rng(5)).coeffs
        assert c[0] == 1.0
        assert np.linalg.norm(c[1:]) == pytest.approx(0.1, rel=1e-12)

    def test_zonal_is_single_slot(self):
        c = initial_coeffs("zonal", 6, np.random.default_rng(5)).coeffs
        assert c[2] == 1.0
        mask = np.ones(c.size, dtype=bool)
        mask[2] = False
        assert not np.any(c[mask])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            initial_coeffs("antipodal", 8, np.random.default_rng(5))

    def test_zonal_needs_degree_one(self):
        with pytest.raises(ValueError):
            initial_coeffs("zonal", 0, np.random.default_rng(5))

    @pytest.mark.parametrize("kind, L", [("perturbed-constant", -1), ("random", 2.5),
                                         ("zonal", 2.5)])
    def test_band_limit_must_be_a_nonnegative_integer(self, kind, L):
        with pytest.raises(ValueError, match=f"L must be a nonnegative integer, got {L!r}"):
            initial_coeffs(kind, L, np.random.default_rng(5))


class TestSearch:
    def test_constant_converges_immediately(self):
        result = search(constant_coeffs())
        assert result.converged
        assert result.reason == "gradient norm below tolerance"
        assert result.final.iteration == 0
        assert abs(result.final.objective - SHARP_CONSTANT) <= 1e-10

    def test_perturbed_constant_reaches_sharp_value(self):
        init = initial_coeffs("perturbed-constant", 8, np.random.default_rng(42))
        result = search(init)
        assert abs(result.final.objective - SHARP_CONSTANT) <= 1e-4
        assert result.final.constancy_defect < 1e-3
        assert result.converged or result.reason == "line search stalled"

    def test_zonal_start_stalls_on_odd_plateau(self):
        init = initial_coeffs("zonal", 8, np.random.default_rng(0))
        result = search(init)
        assert not result.converged
        assert result.reason == "line search stalled"
        # Odd coefficients span an invariant subspace: no constant component
        # ever appears, and the run tops out strictly below the sharp value.
        assert result.final.constancy_defect > 0.999
        assert abs(result.final.objective - ODD_PLATEAU) <= 1e-3
        objectives = [s.objective for s in result.states]
        assert all(b > a for a, b in zip(objectives, objectives[1:]))
        assert max(objectives) <= SHARP_CONSTANT * (1 + 1e-6)

    def test_zonal_start_keeps_even_degrees_at_zero(self):
        # The curvature scaling is diagonal by degree, so it leaves the odd
        # invariant subspace invariant exactly, not just up to rounding.
        init = initial_coeffs("zonal", 8, np.random.default_rng(0))
        result = search(init)
        even = parity_signs(8) > 0
        for state in result.states:
            assert np.all(state.coeffs.coeffs[even] == 0.0)

    def test_zonal_stall_stops_at_rounding_level(self, monkeypatch):
        # The stop rule ends the line search once its predicted gain is below
        # the rounding level of log Phi^4, not after halving down to a floor:
        # at most two trials follow the last accepted state.
        ws = make_workspace(8)   # the cached workspace search reads
        evaluated, q_gradient = [], ws.q_gradient

        def recorded_q_gradient(coeffs):
            evaluated.append(np.array(coeffs))
            return q_gradient(coeffs)

        monkeypatch.setattr(ws, "q_gradient", recorded_q_gradient)
        init = initial_coeffs("zonal", 8, np.random.default_rng(0))
        result = search(init)
        assert result.reason == "line search stalled"
        last = [np.array_equal(c, result.final.coeffs.coeffs) for c in evaluated]
        assert last.count(True) == 1
        assert len(evaluated) - 1 - last.index(True) <= 2

    def test_random_starts_reach_sharp_value(self):
        for seed in range(3):
            init = initial_coeffs("random", 8, np.random.default_rng(seed))
            result = search(init)
            assert abs(result.final.objective - SHARP_CONSTANT) <= 1e-4
            assert result.final.constancy_defect < 1e-3

    def test_trace_invariants(self):
        init = initial_coeffs("perturbed-constant", 8, np.random.default_rng(9))
        result = search(init)
        for i, state in enumerate(result.states):
            assert state.iteration == i
            assert abs(state.coeffs.norm_sq() - 1.0) <= 1e-12
            assert 0.0 < state.step_size <= INITIAL_STEP
            assert state.gradient_norm >= 0.0

    def test_iteration_limit(self):
        init = initial_coeffs("zonal", 8, np.random.default_rng(0))
        result = search(init, max_iter=5)
        assert not result.converged
        assert result.reason == "iteration limit reached"
        assert len(result.states) == 6

    def test_zero_init_rejected(self):
        with pytest.raises(ValueError):
            search(HarmonicCoeffs(8, np.zeros(n_coeffs(8))))

    def test_complex_init_rejected(self):
        c = np.zeros(n_coeffs(8), dtype=complex)
        c[0] = 1.0 + 0.5j
        with pytest.raises(ValueError):
            search(HarmonicCoeffs(8, c))


    @pytest.mark.parametrize("kwargs, message", [
        ({"tol": float("nan")}, "tol must be a finite number >= 0, got nan"),
        ({"tol": -1.0}, "tol must be a finite number >= 0, got -1.0"),
        ({"tol": float("inf")}, "tol must be a finite number >= 0, got inf"),
        ({"tol": "1e-8"}, "tol must be a finite number >= 0, got '1e-8'"),
        ({"tol": None}, "tol must be a finite number >= 0, got None"),
        ({"tol": True}, "tol must be a finite number >= 0, got True"),
        ({"max_iter": 2.5}, "max_iter must be a nonnegative integer, got 2.5"),
        ({"max_iter": -1}, "max_iter must be a nonnegative integer, got -1"),
    ])
    def test_invalid_settings_rejected(self, kwargs, message, passes):
        init = initial_coeffs("random", 2, np.random.default_rng(0))
        with pytest.raises(ValueError, match=message):
            search(init, **kwargs)
        assert passes[0] == 0   # before any forward pass


@pytest.fixture
def passes(monkeypatch):
    """Count of the forward passes the radial route runs (Workspace._evaluate calls)."""
    count, evaluate = [0], Workspace._evaluate

    def counted(ws, c):
        count[0] += 1
        return evaluate(ws, c)

    monkeypatch.setattr(Workspace, "_evaluate", counted)
    return count


def exact_form_grids(L):
    n_t, n_r, n_c = exact_sizes(L)
    return default_form_grids(n_t=n_t, n_c=n_c, n_r=n_r)


def star_q(L, arr, grids):
    """Q(f, f*, f, f*) on the forms ball route."""
    f = SphereFunction.from_coeffs(HarmonicCoeffs(L, arr))
    fs = f.antipodal_conjugate()
    return quadrilinear_q(f, fs, f, fs, grids).real


class TestWorkspace:
    def test_cached_by_band_limit(self):
        assert make_workspace(4) is make_workspace(4)

    def test_negative_band_limit_rejected(self):
        with pytest.raises(ValueError):
            Workspace(-1)

    def test_non_integer_band_limit_rejected(self):
        with pytest.raises(ValueError, match="L must be a nonnegative integer, got 2.5"):
            Workspace(2.5)

    def test_each_line_search_trial_is_one_gradient_pass(self, passes, monkeypatch):
        # search evaluates every trial once, with q_gradient, and an accepted
        # trial's Q and gradient become the next state's: one forward pass
        # per trial plus the start's, and no q_value call
        ws = Workspace(4)
        monkeypatch.setattr(maximizer, "make_workspace", lambda L: ws)
        evaluated, q_value, q_gradient = [], [0], ws.q_gradient

        def counted_q_value(coeffs):
            q_value[0] += 1

        def recorded_q_gradient(coeffs):
            evaluated.append(np.array(coeffs))
            return q_gradient(coeffs)

        ws.q_value, ws.q_gradient = counted_q_value, recorded_q_gradient
        init = initial_coeffs("zonal", 4, np.random.default_rng(3))
        result = search(init)
        trials = len(evaluated) - 1
        assert len(result.states) > 10
        assert trials > len(result.states) - 1   # some trials were rejected
        assert passes[0] == trials + 1
        assert q_value[0] == 0
        for state in result.states:
            assert sum(np.array_equal(c, state.coeffs.coeffs) for c in evaluated) == 1

    def test_q_is_even_and_its_gradient_odd_under_negation(self):
        # q_value and q_gradient give the same Q, bit for bit, and under
        # negation Q is even and its gradient odd, bit for bit
        ws = Workspace(4)
        a = np.random.default_rng(9).standard_normal(n_coeffs(4))
        q = ws.q_value(a)
        q_grad, dq = ws.q_gradient(a)
        assert q_grad == q
        q_neg, dq_neg = ws.q_gradient(-a)
        assert q_neg == q and np.array_equal(dq_neg, -dq)

    def test_calls_leave_the_workspace_as_built(self):
        # a Workspace holds its tables only: no call adds, replaces or
        # writes to any of its attributes
        ws = Workspace(4)
        built = dict(vars(ws))
        copies = {k: np.copy(v) for k, v in built.items() if isinstance(v, np.ndarray)}
        a = np.random.default_rng(10).standard_normal(n_coeffs(4))
        ws.q_value(a)
        ws.q_value(a + 1j * a)
        ws.q_gradient(a)
        assert vars(ws).keys() == built.keys()
        assert all(vars(ws)[k] is v for k, v in built.items())
        assert all(np.array_equal(getattr(ws, k), v) for k, v in copies.items())

    @pytest.mark.parametrize("L", [0, 1, 2, 3, 4, 5, 6, 7, 8, 16])
    def test_value_and_gradient_agree_with_forms_q(self, L):
        ws, grids = Workspace(L), exact_form_grids(L)
        rng = np.random.default_rng(400 + L)
        arr = rng.standard_normal(n_coeffs(L))
        q = ws.q_value(arr)
        q_forms = star_q(L, arr, grids)
        q_grad, _ = ws.q_gradient(arr)
        assert abs(q_forms - q) <= 1e-14 * q
        assert q_grad == q
        cplx = arr + 1j * rng.standard_normal(n_coeffs(L))
        q_forms = star_q(L, cplx, grids)
        assert abs(q_forms - ws.q_value(cplx)) <= 1e-14 * q_forms

    @pytest.mark.parametrize("L", [0, 1, 2, 3, 4, 5, 6, 7, 8, 16])
    def test_gradient_is_four_forms_q_per_slot(self, L):
        # dQ(f, f*, f, f*)/dc_i = 4 Q(Y_i, f*, f, f*) for real f; every slot
        # up to L=8, five at L=16
        ws, grids = Workspace(L), exact_form_grids(L)
        arr = np.random.default_rng(500 + L).standard_normal(n_coeffs(L))
        _, dq = ws.q_gradient(arr)
        f = SphereFunction.from_coeffs(HarmonicCoeffs(L, arr))
        fs = f.antipodal_conjugate()
        n = n_coeffs(L)
        slots = range(n) if L <= 8 else (0, 1, 5, n // 2, n - 1)
        for i in slots:
            y = SphereFunction.from_coeffs(HarmonicCoeffs(L, np.eye(n)[i]))
            expect = 4.0 * quadrilinear_q(y, fs, f, fs, grids).real
            assert abs(dq[i] - expect) <= (1e-14 if L <= 8 else 1e-13) * np.abs(dq).max()

    def test_an_array_changed_in_place_is_read_afresh(self):
        # the caller's array stays writable, and a changed one gives the
        # values of a fresh Workspace
        ws = Workspace(4)
        rng = np.random.default_rng(8)
        a = rng.standard_normal(n_coeffs(4))
        ws.q_value(a)
        a[5] += 0.25
        q, dq = ws.q_gradient(a)
        q_ref, dq_ref = Workspace(4).q_gradient(a)
        assert q == q_ref
        assert np.array_equal(dq, dq_ref)

    def test_a_complex_array_with_zero_imaginary_part_gives_the_real_q(self):
        # the complex route of a real vector agrees with the real one, and
        # leaves nothing that changes the real call after it
        ws = Workspace(4)
        a = np.random.default_rng(16).standard_normal(n_coeffs(4))
        q_complex = ws.q_value(a.astype(complex))
        q, dq = ws.q_gradient(a)
        q_ref, dq_ref = Workspace(4).q_gradient(a)
        assert q == q_ref and np.array_equal(dq, dq_ref)
        assert abs(q_complex - q) <= 1e-15 * q

    @pytest.mark.parametrize("L", [4, 8, 12])
    @pytest.mark.parametrize("parity", [1.0, -1.0], ids=["even", "odd"])
    def test_a_pure_parity_gradient_is_zero_on_the_other_parity(self, L, parity):
        # the even pairs never mix a parity's pieces with the other's
        arr = np.random.default_rng(17 + L).standard_normal(n_coeffs(L))
        other = parity_signs(L) != parity
        arr[other] = 0.0
        _, dq = Workspace(L).q_gradient(arr)
        assert np.all(dq[other] == 0.0)
        assert np.all(dq[~other] != 0.0)

    def test_q_gradient_rejects_complex_coefficients(self):
        c = np.zeros(n_coeffs(4), dtype=complex)
        c[0] = 1.0
        with pytest.raises(ValueError, match="real coefficients"):
            Workspace(4).q_gradient(c)

    @pytest.mark.parametrize("method", ["q_value", "q_gradient"])
    def test_non_finite_and_wrong_length_coefficients_are_rejected(self, method):
        ws = Workspace(4)
        a = np.random.default_rng(15).standard_normal(n_coeffs(4))
        a[7] = np.nan
        with pytest.raises(ValueError, match="finite"):
            getattr(ws, method)(a)
        with pytest.raises(ValueError, match="expected 25 coefficients"):
            getattr(ws, method)(np.ones(9))


def full_table_q_gradient(L, arr):
    """Q and its gradient from a harmonic table over every slice node of the
    ball, on the forms grids at exact_sizes(L): the literal ball route."""
    grids = exact_form_grids(L)
    ball, n_c = grids.ball, grids.n_c
    X = ball.points()
    w, r = ball.weights(), np.linalg.norm(X, axis=1)
    pts, _ = slice_point_table(X, n_c)
    table = harmonic_values(L, pts.reshape(-1, 3))
    half, angle_weight = n_c // 2, 2 * PI / n_c
    parity = parity_signs(L)
    va = (arr @ table).reshape(-1, n_c)
    vb = ((parity * arr) @ table).reshape(-1, n_c)
    prof = angle_weight * np.sum(va * np.roll(vb, -half, axis=1), axis=1) / r
    g = 2 * angle_weight * w * prof / r
    w1 = (g[:, None] * np.roll(vb, -half, axis=1)).ravel()
    w2 = (g[:, None] * np.roll(va, -half, axis=1)).ravel()
    return np.sum(w * prof * prof), table @ w1 + parity * (table @ w2)


def kept_nodes(L):
    """Indices of Workspace's nodes in build_sphere_grid(2L+1): the L rings
    above the equator and the equator's first 2L+1 azimuths."""
    n = 2 * L + 1
    return np.r_[L * 2 * n:L * 2 * n + n, (L + 1) * 2 * n:2 * n * n]


def full_grid_q(L, coeffs):
    """Q, and for real coefficients its gradient, from the radial sum over
    all 2(2L+1)^2 nodes of build_sphere_grid(2L+1), every pair (a, b)
    summed: A_u = sum over a, b of (-1)^a H'_ab(u) f_a conj(f_b)."""
    grid = build_sphere_grid(2 * L + 1)
    Y = harmonic_values(L, grid.nodes)
    w_u, h = maximizer._radial_table(L)
    slots = [slice(k * k, (k + 1) ** 2) for k in range(L + 1)]
    F = np.stack([coeffs[s] @ Y[s] for s in slots])              # (a, node)
    kernel = (-1.0) ** np.arange(L + 1)[:, None, None] * h        # (a, b, u)
    A = np.einsum("abu,an,bn->un", kernel, F, F.conj())
    W = 4 * PI ** 2 * np.outer(w_u, grid.weights)
    q = float(np.sum(W * np.abs(A) ** 2))
    if np.iscomplexobj(coeffs):
        return q
    dA = np.einsum("abu,bn->aun", kernel + kernel.transpose(1, 0, 2), F)
    dF = np.einsum("un,un,aun->an", 2 * W, A.real, dA)
    return q, np.concatenate([Y[s] @ dF[k] for k, s in enumerate(slots)])


def exact_radial_integrals(L):
    """I(a, b, c, d) / pi, exact, for a <= b <= c <= d <= L of even sum.

    I = -(pi/16) i^-(a+b+c+d) G''(0), G''(0) the integral over [-2, 2] of
    H'_ab(u) H'_cd(-u), H_ab = (P_a 1_[-1,1]) * (P_b 1_[-1,1]) a polynomial
    on each of [-2, 0] and [0, 2], found here in rationals by expanding
    P_a(t) P_b(u - t) and integrating over t: on [0, 2] from u-1 to 1, on
    [-2, 0] from -1 to u+1. I is symmetric in its four degrees, so sorted
    tuples cover every one.
    """
    def add(p, q):
        return [x + y for x, y in itertools.zip_longest(p, q, fillvalue=0)]

    def mul(p, q):
        out = [Fraction(0)] * (len(p) + len(q) - 1)
        for i, x in enumerate(p):
            for j, y in enumerate(q):
                out[i + j] += x * y
        return out

    def power(p, n):
        return functools.reduce(mul, [p] * n, [Fraction(1)])

    legendre = [[Fraction(1)], [Fraction(0), Fraction(1)]]
    for k in range(1, L):
        legendre.append([((2 * k + 1) * x - k * y) / (k + 1) for x, y in itertools.zip_longest(
            [Fraction(0)] + legendre[k], legendre[k - 1] + [0, 0], fillvalue=0)])

    def h_prime(a, b):
        # (H'_ab on [0, 2], H'_ab on [-2, 0]), as coefficient lists in u
        terms = {}   # (power of u, power of t): coefficient of P_a(t) P_b(u - t)
        for k, pk in enumerate(legendre[b]):
            for j in range(k + 1):
                for m, am in enumerate(legendre[a]):
                    key = (k - j, j + m)
                    terms[key] = terms.get(key, 0) + pk * math.comb(k, j) * (-1) ** j * am
        pos, neg = [Fraction(0)], [Fraction(0)]
        for (i, j), x in terms.items():
            u_i = [Fraction(0)] * i + [x / (j + 1)]
            pos = add(pos, mul(u_i, add([1], [-y for y in power([-1, 1], j + 1)])))
            neg = add(neg, mul(u_i, add(power([1, 1], j + 1), [-(-1) ** (j + 1)])))
        return [[k * x for k, x in enumerate(p)][1:] for p in (pos, neg)]

    def integral(p, lo, hi):
        return sum(x * (Fraction(hi) ** (k + 1) - Fraction(lo) ** (k + 1)) / (k + 1)
                   for k, x in enumerate(p))

    def reflect(p):   # p(-u)
        return [x * (-1) ** k for k, x in enumerate(p)]

    h = {(a, b): h_prime(a, b) for a in range(L + 1) for b in range(a, L + 1)}
    out = {}
    for q in itertools.combinations_with_replacement(range(L + 1), 4):
        if sum(q) % 2 == 0:
            (pab, nab), (pcd, ncd) = h[q[:2]], h[q[2:]]
            g2 = integral(mul(pab, reflect(ncd)), 0, 2) + integral(mul(nab, reflect(pcd)), -2, 0)
            out[q] = Fraction(-1, 16) * (-1) ** (sum(q) // 2) * g2
    return out


class TestRadialRoute:
    @pytest.mark.parametrize("L", [0, 1, 2, 3, 4, 6, 8])
    def test_matches_full_slice_table(self, L):
        ws = Workspace(L)
        rng = np.random.default_rng(100 + L)
        for _ in range(3):
            arr = rng.standard_normal(n_coeffs(L))
            q_ref, dq_ref = full_table_q_gradient(L, arr)
            q, dq = ws.q_gradient(arr)
            assert abs(ws.q_value(arr) - q_ref) <= 1e-13 * q_ref
            assert abs(q - q_ref) <= 1e-13 * q_ref
            assert np.abs(dq - dq_ref).max() <= 1e-13 * np.abs(dq_ref).max()

    @pytest.mark.parametrize("L", [0, 1, 2, 3, 4, 5, 6, 7, 8, 12])
    def test_fold_matches_the_full_grid(self, L):
        # one node of each antipodal pair at twice the weight: Q, complex Q
        # and the gradient equal the sum over every node of the grid
        ws = Workspace(L)
        rng = np.random.default_rng(4100 + L)
        for _ in range(3):
            arr = rng.standard_normal(n_coeffs(L))
            z = arr + 1j * rng.standard_normal(n_coeffs(L))
            q_ref, dq_ref = full_grid_q(L, arr)
            q, dq = ws.q_gradient(arr)
            assert abs(q - q_ref) <= 1e-14 * q_ref
            assert np.abs(dq - dq_ref).max() <= 1e-14 * np.abs(dq_ref).max()
            qz_ref = full_grid_q(L, z)
            assert abs(ws.q_value(z) - qz_ref) <= 1e-14 * qz_ref

    @pytest.mark.parametrize("L", [0, 1, 2, 8, 12])
    def test_kept_nodes_are_one_of_each_antipodal_pair(self, L):
        # every other node is the negation of exactly one kept node, to
        # rounding: the polar rule is symmetric bit for bit, and azimuth
        # j + 2L+1 is rounded apart from azimuth j plus pi, so the gap is at
        # most an ulp of 2 pi (3.3e-16 at L=8, 6.7e-16 at L=12)
        grid, keep = build_sphere_grid(2 * L + 1), kept_nodes(L)
        assert len(keep) == (2 * L + 1) ** 2
        kept = grid.nodes[keep]
        for i, node in enumerate(grid.nodes):
            gap = np.abs(kept + node).max(axis=1)
            if i in keep:
                assert gap.min() > 0.1
            else:
                assert np.count_nonzero(gap <= np.spacing(2 * PI)) == 1
        ws = Workspace(L)
        w_u = maximizer._radial_table(L)[0]
        weights = 2 * grid.weights[keep]
        assert np.array_equal(ws._weights, np.outer(4 * PI ** 2 * w_u, weights))
        assert abs(weights.sum() - 4 * PI) <= 4 * np.spacing(4 * PI)

    @pytest.mark.parametrize("L", [4, 8])
    def test_basis_is_the_harmonics_on_the_exact_sphere_grid(self, L):
        # |A_u|^2 has degree 4L on the sphere: 2L+1 polar nodes integrate it
        # exactly; basis holds one node of each antipodal pair
        grid = build_sphere_grid(2 * L + 1)
        assert grid.exactness_degree >= 4 * L
        ws = make_workspace(L)
        assert np.array_equal(ws.basis, harmonic_values(L, grid.nodes[kept_nodes(L)]))
        assert ws.basis.shape == (n_coeffs(L), (2 * L + 1) ** 2)

    def test_table_is_small(self, ws8):
        assert ws8.basis.shape == (81, 289)
        assert ws8.basis.nbytes < 0.2e6

    def test_band_limit_sixteen(self):
        assert make_workspace(16).basis.nbytes < 100e6
        phi = objective_phi(constant_coeffs(16))
        assert abs(phi - SHARP_CONSTANT) <= 1e-12 * SHARP_CONSTANT

    def test_radial_table_matches_the_exact_integrals(self):
        # I(a, b, c, d) = (pi/8) i^-(a+b+c+d) (-1)^(a+b) sum_u w_u H'_ab H'_cd
        # at even a+b+c+d, from the u > 0 half; every ordering of each tuple
        L = 8
        exact = exact_radial_integrals(L)
        assert exact[0, 0, 0, 0] == Fraction(1, 4)
        for k in range(1, L + 1):
            assert exact[0, 0, k, k] == Fraction(1, 4 * (2 * k + 1))
        w_u, h = maximizer._radial_table(L)
        scale = PI * max(abs(float(v)) for v in exact.values())
        worst = 0.0
        for q, value in exact.items():
            for a, b, c, d in set(itertools.permutations(q)):
                sign = (-1) ** ((a + b + c + d) // 2 + a + b)
                got = PI / 8 * sign * float(np.sum(w_u * h[a, b] * h[c, d]))
                worst = max(worst, abs(got - PI * float(value)))
        assert worst <= 1e-15 * scale

    @pytest.mark.parametrize("L", [4, 8])
    def test_phi_never_exceeds_two_pi_near_the_constant(self, L):
        # exactness: 1,500 near-constant unit vectors, perturbed by 1e-9 to
        # 1e-3, read Phi no more than 2 ulps above 2 pi
        rng = np.random.default_rng(2026 + L)
        ulp = np.spacing(SHARP_CONSTANT)
        worst = -np.inf
        for _ in range(1500):
            d = rng.standard_normal(n_coeffs(L))
            d[0] = 0.0
            c = np.zeros(n_coeffs(L))
            c[0] = rng.choice([-1.0, 1.0])
            c += 10.0 ** rng.uniform(-9, -3) * d / np.linalg.norm(d)
            c /= np.linalg.norm(c)
            worst = max(worst, objective_phi(HarmonicCoeffs(L, c)) - SHARP_CONSTANT)
        assert worst <= 2 * ulp
