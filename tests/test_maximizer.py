"""Objective, gradient, and ascent search for the restriction ratio."""

import weakref

import numpy as np
import pytest

from sharpsphere import (
    SHARP_CONSTANT,
    HarmonicCoeffs,
    SphereFunction,
    VerifyConfig,
    constancy_metric,
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
from sharpsphere import convolution, maximizer
from sharpsphere.convolution import SliceColumn, slice_point_table
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
    def test_constant_attains_sharp_value(self, ws8):
        phi = objective_phi(constant_coeffs(), ws8)
        assert abs(phi - SHARP_CONSTANT) <= 1e-12 * SHARP_CONSTANT

    def test_sharp_constant_is_two_pi(self):
        assert SHARP_CONSTANT == 2 * PI

    def test_zonal_anchor(self, ws8):
        z = initial_coeffs("zonal", 8, np.random.default_rng(0))
        phi = objective_phi(z, ws8)
        assert abs(phi - PHI_ZONAL) <= 1e-6
        assert SHARP_CONSTANT - phi > 0.26

    def test_scale_invariance(self, ws8):
        rng = np.random.default_rng(3)
        c = rng.standard_normal(n_coeffs(8))
        a = objective_phi(HarmonicCoeffs(8, c), ws8)
        b = objective_phi(HarmonicCoeffs(8, 7.5 * c), ws8)
        assert abs(a - b) <= 1e-12 * a

    def test_random_draws_never_exceed_sharp_constant(self, ws8):
        # The workspace rules are exact at band limit 8, so the discrete
        # objective inherits the global bound.
        rng = np.random.default_rng(99)
        for _ in range(300):
            c = HarmonicCoeffs(8, rng.standard_normal(n_coeffs(8)))
            assert objective_phi(c, ws8) <= SHARP_CONSTANT * (1 + 1e-6)

    def test_constant_is_strict_local_max(self, ws8):
        rng = np.random.default_rng(7)
        for _ in range(100):
            d = rng.standard_normal(n_coeffs(8))
            d[0] = 0.0
            d /= np.linalg.norm(d)
            c = np.zeros(n_coeffs(8))
            c[0] = 1.0
            phi = objective_phi(HarmonicCoeffs(8, c + 1e-2 * d), ws8)
            assert phi < SHARP_CONSTANT - 1e-4

    def test_matches_quadrilinear_form(self, ws8, exact_grids):
        rng = np.random.default_rng(17)
        arr = rng.standard_normal(n_coeffs(8))
        f = SphereFunction.from_coeffs(HarmonicCoeffs(8, arr))
        fs = f.antipodal_conjugate()
        q = quadrilinear_q(f, fs, f, fs, exact_grids)
        assert abs(ws8.q_value(arr) - q.real) <= 1e-10 * abs(q.real)

    def test_zero_coeffs_rejected(self, ws8):
        zero = HarmonicCoeffs(8, np.zeros(n_coeffs(8)))
        with pytest.raises(ValueError):
            objective_phi(zero, ws8)

    def test_complex_coeffs_rejected(self, ws8):
        c = np.zeros(n_coeffs(8), dtype=complex)
        c[0] = 1.0
        c[3] = 0.2j
        with pytest.raises(ValueError):
            objective_phi(HarmonicCoeffs(8, c), ws8)

    def test_complex_typed_real_coeffs_are_the_real_array(self, ws8):
        # complex dtype with zero imaginary parts is read as the real array
        real = random_band_limited(8, np.random.default_rng(62))
        typed = HarmonicCoeffs(8, real.coeffs.astype(complex))
        assert objective_phi(typed, ws8) == objective_phi(real, ws8)
        assert np.array_equal(gradient(typed, ws8), gradient(real, ws8))

    def test_band_limit_mismatch_rejected(self, ws8):
        with pytest.raises(ValueError, match="band limit 8 .* band limit 4"):
            objective_phi(constant_coeffs(L=4), ws8)


class TestGradient:
    def test_vanishes_at_constant(self, ws8):
        g = gradient(constant_coeffs(), ws8)
        assert np.linalg.norm(g) <= 1e-10

    def test_matches_finite_differences(self):
        ws3 = make_workspace(3)
        rng = np.random.default_rng(23)
        c = rng.standard_normal(n_coeffs(3))
        g = gradient(HarmonicCoeffs(3, c), ws3)
        h = 1e-5
        for i in range(c.size):
            cp, cm = c.copy(), c.copy()
            cp[i] += h
            cm[i] -= h
            fd = (4 * np.log(objective_phi(HarmonicCoeffs(3, cp), ws3))
                  - 4 * np.log(objective_phi(HarmonicCoeffs(3, cm), ws3))) / (2 * h)
            assert abs(fd - g[i]) <= 1e-7

    def test_orthogonal_to_coefficients(self, ws8):
        # log Phi^4 is scale-free, so its gradient is orthogonal to the
        # radial direction (Euler's identity for the quartic form).
        rng = np.random.default_rng(11)
        for _ in range(5):
            c = rng.standard_normal(n_coeffs(8))
            g = gradient(HarmonicCoeffs(8, c), ws8)
            assert abs(g @ c) <= 1e-12

    def test_degree_minus_one_homogeneous(self, ws8):
        rng = np.random.default_rng(12)
        c = rng.standard_normal(n_coeffs(8))
        g1 = gradient(HarmonicCoeffs(8, c), ws8)
        g2 = gradient(HarmonicCoeffs(8, 2.0 * c), ws8)
        assert np.max(np.abs(g2 - 0.5 * g1)) <= 1e-14

    def test_zero_coeffs_rejected(self, ws8):
        with pytest.raises(ValueError):
            gradient(HarmonicCoeffs(8, np.zeros(n_coeffs(8))), ws8)

    def test_band_limit_mismatch_rejected(self, ws8):
        with pytest.raises(ValueError, match="band limit 8 .* band limit 4"):
            gradient(constant_coeffs(L=4), ws8)


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
            hess[:, j] = (gradient(HarmonicCoeffs(8, up), ws8)
                          - gradient(HarmonicCoeffs(8, down), ws8)) / (2 * h)
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
    def test_constant_converges_immediately(self, ws8):
        result = search(constant_coeffs(), workspace=ws8)
        assert result.converged
        assert result.reason == "gradient norm below tolerance"
        assert result.final.iteration == 0
        assert abs(result.final.objective - SHARP_CONSTANT) <= 1e-10

    def test_perturbed_constant_reaches_sharp_value(self, ws8):
        init = initial_coeffs("perturbed-constant", 8, np.random.default_rng(42))
        result = search(init, workspace=ws8)
        assert abs(result.final.objective - SHARP_CONSTANT) <= 1e-4
        assert result.final.constancy_defect < 1e-3
        assert result.converged or result.reason == "line search stalled"

    def test_zonal_start_stalls_on_odd_plateau(self, ws8):
        init = initial_coeffs("zonal", 8, np.random.default_rng(0))
        result = search(init, workspace=ws8)
        assert not result.converged
        assert result.reason == "line search stalled"
        # Odd coefficients span an invariant subspace: no constant component
        # ever appears, and the run tops out strictly below the sharp value.
        assert result.final.constancy_defect > 0.999
        assert abs(result.final.objective - ODD_PLATEAU) <= 1e-3
        objectives = [s.objective for s in result.states]
        assert all(b > a for a, b in zip(objectives, objectives[1:]))
        assert max(objectives) <= SHARP_CONSTANT * (1 + 1e-6)

    def test_zonal_start_keeps_even_degrees_at_zero(self, ws8):
        # The curvature scaling is diagonal by degree, so it leaves the odd
        # invariant subspace invariant exactly, not just up to rounding.
        init = initial_coeffs("zonal", 8, np.random.default_rng(0))
        result = search(init, workspace=ws8)
        even = parity_signs(8) > 0
        for state in result.states:
            assert np.all(state.coeffs.coeffs[even] == 0.0)

    def test_zonal_stall_stops_at_rounding_level(self, ws8, monkeypatch):
        # The stop rule ends the line search once its predicted gain is below
        # the rounding level of log Phi^4, not after halving down to a floor.
        calls = {"q_value": 0, "at_last_state": 0}
        q_value, q_gradient = ws8.q_value, ws8.q_gradient

        def counted_q_value(coeffs):
            calls["q_value"] += 1
            return q_value(coeffs)

        def counted_q_gradient(coeffs):
            calls["at_last_state"] = calls["q_value"]
            return q_gradient(coeffs)

        monkeypatch.setattr(ws8, "q_value", counted_q_value)
        monkeypatch.setattr(ws8, "q_gradient", counted_q_gradient)
        init = initial_coeffs("zonal", 8, np.random.default_rng(0))
        result = search(init, workspace=ws8)
        assert result.reason == "line search stalled"
        assert calls["q_value"] - calls["at_last_state"] <= 2

    def test_random_starts_reach_sharp_value(self, ws8):
        for seed in range(3):
            init = initial_coeffs("random", 8, np.random.default_rng(seed))
            result = search(init, workspace=ws8)
            assert abs(result.final.objective - SHARP_CONSTANT) <= 1e-4
            assert result.final.constancy_defect < 1e-3

    def test_trace_invariants(self, ws8):
        init = initial_coeffs("perturbed-constant", 8, np.random.default_rng(9))
        result = search(init, workspace=ws8)
        for i, state in enumerate(result.states):
            assert state.iteration == i
            assert abs(state.coeffs.norm_sq() - 1.0) <= 1e-12
            assert 0.0 < state.step_size <= INITIAL_STEP
            assert state.gradient_norm >= 0.0

    def test_iteration_limit(self, ws8):
        init = initial_coeffs("zonal", 8, np.random.default_rng(0))
        result = search(init, max_iter=5, workspace=ws8)
        assert not result.converged
        assert result.reason == "iteration limit reached"
        assert len(result.states) == 6

    def test_zero_init_rejected(self, ws8):
        with pytest.raises(ValueError):
            search(HarmonicCoeffs(8, np.zeros(n_coeffs(8))), workspace=ws8)

    def test_complex_init_rejected(self, ws8):
        c = np.zeros(n_coeffs(8), dtype=complex)
        c[0] = 1.0 + 0.5j
        with pytest.raises(ValueError):
            search(HarmonicCoeffs(8, c), workspace=ws8)

    def test_band_limit_mismatch_rejected(self, ws8):
        init = initial_coeffs("random", 4, np.random.default_rng(0))
        with pytest.raises(ValueError, match="band limit 8 .* band limit 4"):
            search(init, workspace=ws8)


@pytest.fixture
def forward_calls(monkeypatch):
    """Counts of SliceColumn.spectra calls and of the real products of slice
    values formed (convolution._mode_pair and _half_pair calls)."""
    calls = {"spectra": 0, "products": 0}
    spectra = SliceColumn.spectra

    def counted_spectra(col, coeffs):
        calls["spectra"] += 1
        return spectra(col, coeffs)

    monkeypatch.setattr(SliceColumn, "spectra", counted_spectra)
    for name in ("_mode_pair", "_half_pair"):
        def counted(*args, _inner=getattr(convolution, name)):
            calls["products"] += 1
            return _inner(*args)

        monkeypatch.setattr(convolution, name, counted)
    return calls


class TestWorkspace:
    def test_cached_by_band_limit(self):
        assert make_workspace(4) is make_workspace(4)

    def test_negative_band_limit_rejected(self):
        with pytest.raises(ValueError):
            Workspace(-1)

    def test_non_integer_band_limit_rejected(self):
        with pytest.raises(ValueError, match="L must be a nonnegative integer, got 2.5"):
            Workspace(2.5)

    @pytest.mark.parametrize("L", [4, 8])
    def test_sizes_follow_the_exact_plan(self, L):
        # the grid sizes verify defaults to at the same band limit
        ws = make_workspace(L)
        n_t, n_r, n_c = exact_sizes(L)
        assert ws.grids.ball.directions.exactness_degree == 2 * n_t - 1
        assert ws.grids.ball.radial_nodes.size == n_r
        assert ws.grids.n_c == n_c
        cfg = VerifyConfig(degree=L)
        assert (cfg.n_t, cfg.n_r, cfg.n_c) == (n_t, n_r, n_c)

    def test_accepted_steps_reuse_the_line_search_forward_pass(self, forward_calls):
        ws = Workspace(4)
        trials, q_value = [0], ws.q_value

        def counted_q_value(coeffs):
            trials[0] += 1
            return q_value(coeffs)

        ws.q_value = counted_q_value
        init = initial_coeffs("zonal", 4, np.random.default_rng(3))
        result = search(init, workspace=ws)
        assert len(result.states) > 10
        assert trials[0] > len(result.states) - 1
        # one forward pass per trial, plus the starting point's gradient
        assert forward_calls == {"spectra": trials[0] + 1, "products": trials[0] + 1}

    def test_gradient_after_value_runs_no_forward_pass(self, forward_calls):
        ws = Workspace(4)
        a = np.random.default_rng(9).standard_normal(n_coeffs(4))
        q = ws.q_value(a)
        before = dict(forward_calls)
        q_grad, dq = ws.q_gradient(a)
        assert forward_calls == before
        assert q_grad == q
        q_neg, dq_neg = ws.q_gradient(-a)   # a negated hit: Q is even, its gradient odd
        assert forward_calls == before
        assert q_neg == q and np.array_equal(dq_neg, -dq)

    def test_gradient_after_forms_q_runs_no_forward_pass(self, forward_calls):
        # forms Q(f, f*, f, f*) on ws.grids leaves f's fields and the product
        # of f and f* in the column's memo, where q_gradient reads them
        ws = Workspace(4)
        a = np.random.default_rng(13).standard_normal(n_coeffs(4))
        f = SphereFunction.from_coeffs(HarmonicCoeffs(4, a))
        fs = f.antipodal_conjugate()
        q_forms = quadrilinear_q(f, fs, f, fs, ws.grids).real
        before = dict(forward_calls)
        q, dq = ws.q_gradient(a)
        assert forward_calls == before
        q_ref, dq_ref = Workspace(4).q_gradient(a)
        assert q == q_ref and np.array_equal(dq, dq_ref)
        assert abs(q_forms - q) <= 1e-14 * q

    def test_a_zero_odd_degree_slot_hits_the_forms_memo(self, forward_calls):
        # parity * coeffs holds -0.0 at a zero slot of odd degree, where the
        # forms plan's row holds 0.0: both must read as one key
        ws = Workspace(4)
        a = np.random.default_rng(14).standard_normal(n_coeffs(4))
        a[1] = 0.0   # degree 1
        f = SphereFunction.from_coeffs(HarmonicCoeffs(4, a))
        fs = f.antipodal_conjugate()
        quadrilinear_q(f, fs, f, fs, ws.grids)
        assert forward_calls["spectra"] == 1
        q = ws.q_value(a)
        assert forward_calls["spectra"] == 1
        assert q == Workspace(4).q_value(a)

    @pytest.mark.parametrize("L", [0, 1, 2, 3, 4, 5, 6, 7, 8, 16])
    def test_value_gradient_and_forms_agree_on_one_grid(self, L):
        # the forms call sits between q_value and q_gradient on the same
        # array, so a value held past the column's fields would show
        ws = Workspace(L)
        arr = np.random.default_rng(400 + L).standard_normal(n_coeffs(L))
        f = SphereFunction.from_coeffs(HarmonicCoeffs(L, arr))
        q = ws.q_value(arr)
        q_forms = quadrilinear_q(f, f.antipodal_conjugate(), f, f.antipodal_conjugate(),
                                 ws.grids).real
        q_grad, _ = ws.q_gradient(arr)
        assert abs(q_forms - q) <= 1e-14 * q
        assert abs(q_grad - q) <= 1e-14 * q

    def test_a_column_rebuilt_past_its_band_limit_still_serves(self):
        ws = Workspace(2)
        a = np.random.default_rng(11).standard_normal(n_coeffs(2))
        q_ref, dq_ref = Workspace(2).q_gradient(a)
        ws.grids.slice_column(3)   # a form of degree 3 on ws.grids rebuilds the column
        q, dq = ws.q_gradient(a)
        assert ws.basis.shape[0] == n_coeffs(3)
        assert abs(q - q_ref) <= 1e-13 * q_ref
        assert dq.shape == dq_ref.shape
        assert np.abs(dq - dq_ref).max() <= 1e-13 * np.abs(dq_ref).max()

    def test_a_replaced_column_memo_frees_the_old_fields(self):
        ws = Workspace(4)
        ws.q_value(np.random.default_rng(12).standard_normal(n_coeffs(4)))
        col = ws.grids.slice_column(4)
        old = weakref.ref(col._memo[1])
        col.recall(np.ones((1, n_coeffs(4))))   # another caller on the same grids
        assert old() is None

    def test_fields_come_from_the_grids_column_memo(self):
        ws = Workspace(4)
        a, b = np.random.default_rng(10).standard_normal((2, n_coeffs(4)))
        ws.q_value(a)
        col = ws.grids.slice_column(4)
        fields, signs = col.recall(np.stack([a, parity_signs(4) * a]))
        assert signs == [1.0, 1.0]
        assert fields.shape == (2, col.n_az // 2, col.radii.size, 2 * col.L + 1)
        assert ws.basis is col.table
        # a's fields outlive the memo here: b must not get a's profile
        assert ws.q_value(b) == Workspace(4).q_value(b)

    def test_memo_ignores_an_array_mutated_in_place(self):
        ws = Workspace(4)
        rng = np.random.default_rng(8)
        a = rng.standard_normal(n_coeffs(4))
        ws.q_value(a)
        a[5] += 0.25
        q, dq = ws.q_gradient(a)
        q_ref, dq_ref = Workspace(4).q_gradient(a)
        assert q == q_ref
        assert np.array_equal(dq, dq_ref)

    def test_gradient_follows_each_rows_memo_sign(self):
        # g = c - i parity c leaves the rows [c, -parity c] in the memo, so
        # c's f_star row comes back negated while its f row does not
        ws = Workspace(4)
        c = np.random.default_rng(3).standard_normal(n_coeffs(4))
        g = SphereFunction.from_coeffs(HarmonicCoeffs(4, c - 1j * parity_signs(4) * c))
        gs = g.antipodal_conjugate()
        quadrilinear_q(g, gs, g, gs, ws.grids)
        col = ws.grids.slice_column(4)
        assert col.recall(np.stack([c, parity_signs(4) * c]))[1] == [1.0, -1.0]
        q, dq = ws.q_gradient(c)
        q_ref, dq_ref = Workspace(4).q_gradient(c)
        assert q == q_ref and np.array_equal(dq, dq_ref)
        assert np.array_equal(gradient(HarmonicCoeffs(4, c), ws),
                              gradient(HarmonicCoeffs(4, c), Workspace(4)))

    def test_a_pure_parity_vector_is_one_row(self, monkeypatch):
        # the zonal start is odd: f_star = -f is f's row read negated
        rows, spectra = [], SliceColumn.spectra

        def spy(col, coeffs):
            rows.append(len(coeffs))
            return spectra(col, coeffs)

        monkeypatch.setattr(SliceColumn, "spectra", spy)
        a = initial_coeffs("zonal", 4, np.random.default_rng(0)).coeffs
        ws = Workspace(4)
        q = ws.q_value(a)
        assert rows == [1]
        ws = Workspace(4)
        f = SphereFunction.from_coeffs(HarmonicCoeffs(4, a))
        fs = f.antipodal_conjugate()
        quadrilinear_q(f, fs, f, fs, ws.grids)
        rows.clear()
        assert ws.q_value(a) == q
        assert rows == []

    @pytest.mark.parametrize("method", ["q_value", "q_gradient"])
    def test_non_finite_and_wrong_length_coefficients_are_rejected(self, method):
        ws = Workspace(4)
        a = np.random.default_rng(15).standard_normal(n_coeffs(4))
        a[7] = np.nan
        with pytest.raises(ValueError, match="finite"):
            getattr(ws, method)(a)
        with pytest.raises(ValueError, match="expected 25 coefficients"):
            getattr(ws, method)(np.ones(9))


def full_table_q_gradient(ws, arr):
    """Q and its gradient from a harmonic table over every slice node of the ball."""
    ball, n_c = ws.grids.ball, ws.grids.n_c
    X = ball.points()
    w, r = ball.weights(), np.linalg.norm(X, axis=1)
    pts, _ = slice_point_table(X, n_c)
    table = harmonic_values(ws.L, pts.reshape(-1, 3))
    half, angle_weight = n_c // 2, 2 * PI / n_c
    parity = parity_signs(ws.L)
    va = (arr @ table).reshape(-1, n_c)
    vb = ((parity * arr) @ table).reshape(-1, n_c)
    prof = angle_weight * np.sum(va * np.roll(vb, -half, axis=1), axis=1) / r
    g = 2 * angle_weight * w * prof / r
    w1 = (g[:, None] * np.roll(vb, -half, axis=1)).ravel()
    w2 = (g[:, None] * np.roll(va, -half, axis=1)).ravel()
    return np.sum(w * prof * prof), table @ w1 + parity * (table @ w2)


class TestColumnTable:
    @pytest.mark.parametrize("L", [0, 1, 2, 3, 4, 6, 8])
    def test_matches_full_slice_table(self, L):
        ws = Workspace(L)
        rng = np.random.default_rng(100 + L)
        for _ in range(3):
            arr = rng.standard_normal(n_coeffs(L))
            q_ref, dq_ref = full_table_q_gradient(ws, arr)
            q, dq = ws.q_gradient(arr)
            assert abs(ws.q_value(arr) - q_ref) <= 1e-13 * q_ref
            assert abs(q - q_ref) <= 1e-13 * q_ref
            assert np.abs(dq - dq_ref).max() <= 1e-13 * np.abs(dq_ref).max()

    def test_table_is_one_azimuth_column(self, ws8):
        # (L+1)^2 harmonics in 2L+1 slice-angle modes at n_r n_t = 18 * 17 centres
        assert ws8.basis.shape == (81, 18 * 17 * 17)
        assert ws8.basis.nbytes < 4e6

    def test_band_limit_sixteen(self):
        ws = Workspace(16)
        assert ws.basis.nbytes < 100e6
        phi = objective_phi(constant_coeffs(16), ws)
        assert abs(phi - SHARP_CONSTANT) <= 1e-12 * SHARP_CONSTANT
