"""Structure and outcome of the bundled verification suite."""

import math
import time
import tracemalloc

import numpy as np
import pytest

from sharpsphere import convolution, forms
from sharpsphere import (CheckResult, HarmonicCoeffs, SphereFunction, VerificationReport,
                         VerifyConfig, build_ball_grid, build_sphere_grid, exact_sizes,
                         random_band_limited, run_verification)
from sharpsphere.verification import _passes, _pointwise_symmetrization_gap

from helpers import plan_at, split

EXPECTED_CHECK_ORDER = [
    "sphere_gram_identity_max_dev",
    "ball_volume",
    "sigma_conv_profile_max_rel_dev",
    "sigma_conv_norm_sq",
    "legendre_norm_identity_max_rel_dev",
    "funk_hecke_quadrature_max_abs_diff",
    "funk_hecke_negativity_violation",
    "gamma_identity_max_abs_dev",
    "pointwise_symmetrization_violation",
    "q_symmetrization_violation_rel",
    "q_equals_three_quarters_b_max_rel_dev",
    "b_cauchy_schwarz_violation_rel",
    "b_crude_bound_violation_rel",
    "q_radial_vs_ball_max_rel_dev",
    "H_of_one",
    "h_bound_violation_rel",
    "h_spectral_vs_direct_max_rel_dev",
    "sharp_ratio_constant",
]

SMALL = VerifyConfig(n_t=24, n_c=18, n_r=12, degree=4)


@pytest.fixture(scope="module")
def small_report():
    return run_verification(SMALL)


class TestRunVerification:
    def test_overall_pass(self, small_report):
        failing = [c.name for c in small_report.checks if not c.passed]
        assert small_report.overall_pass, f"failing checks: {failing}"

    def test_check_order_is_fixed(self, small_report):
        assert [c.name for c in small_report.checks] == EXPECTED_CHECK_ORDER

    def test_every_check_is_timed(self, small_report):
        for c in small_report.checks:
            assert c.wall_time > 0.0

    def test_form_checks_are_timed_separately(self, small_report):
        # the four Q/B checks each report the time of their own computations
        times = [c.wall_time for c in small_report.checks
                 if c.name in EXPECTED_CHECK_ORDER[9:13]]
        assert len(times) == 4
        assert min(times) > 0.0
        assert len(set(times)) > 1

    def test_chord_checks_are_exact(self, small_report):
        checks = {c.name: c for c in small_report.checks}
        one = checks["H_of_one"]
        assert abs(one.computed - one.expected) <= 1e-12 * one.expected
        assert checks["h_spectral_vs_direct_max_rel_dev"].computed <= 1e-12

    def test_radial_and_ball_routes_agree_to_rounding(self, small_report):
        # the ascent's slice-free Q on the suite's six complex f
        check = {c.name: c for c in small_report.checks}["q_radial_vs_ball_max_rel_dev"]
        assert check.computed <= 1e-14
        assert check.wall_time > 0.0

    @pytest.mark.parametrize("sizes", [dict(n_t=9), dict(n_r=2), dict(n_t=9, n_r=2)])
    def test_radial_check_reads_exact_grids_below_the_plan(self, sizes):
        # at L=8 these grids are below exact_sizes(8) = (17, 18, 34), so the
        # ball route on them misses Q (q_equals_three_quarters_b fails); the
        # radial check's reference still sits on exact grids
        report = run_verification(VerifyConfig(**sizes))
        check = {c.name: c for c in report.checks}["q_radial_vs_ball_max_rel_dev"]
        assert check.passed and check.computed <= 1e-14

    def test_h_of_one_has_its_own_time(self, monkeypatch):
        # a slow batch must show in the spectral-vs-direct check only
        batch = forms.h_direct_many

        def slow_batch(gs, grid):
            if len(gs) > 1:
                time.sleep(0.2)
            return batch(gs, grid)

        monkeypatch.setattr(forms, "h_direct_many", slow_batch)
        report = run_verification(VerifyConfig(degree=2))
        times = {c.name: c.wall_time for c in report.checks}
        assert times["H_of_one"] < 0.2 <= times["h_spectral_vs_direct_max_rel_dev"]

    def test_values_are_finite_floats(self, small_report):
        for c in small_report.checks:
            assert isinstance(c.computed, float)
            assert isinstance(c.expected, float)
            assert np.isfinite(c.computed)
            assert np.isfinite(c.expected)

    def test_suite_name_and_config(self, small_report):
        assert small_report.suite_name == "sharpsphere-verify"
        assert small_report.config == {"n_t": 24, "n_c": 18, "n_r": 12,
                                       "L": 4, "seed": 1234}


    def test_default_run_sums_no_convolution_over_the_ball(self, monkeypatch):
        # both norm checks are Q on the suite's FormGrids, not |convolve_many|^2
        # at every ball node
        convolve_many, centres = convolution.convolve_many, []

        def spy(f, g, X, n_c):
            centres.extend(row.tobytes() for row in np.atleast_2d(X))
            return convolve_many(f, g, X, n_c)

        monkeypatch.setattr(convolution, "convolve_many", spy)
        cfg = VerifyConfig()
        assert run_verification(cfg).overall_pass
        ball = build_ball_grid(cfg.n_r, build_sphere_grid(cfg.n_t))
        assert centres
        assert not set(centres) & {row.tobytes() for row in ball.points()}

    def test_peak_at_the_defaults_is_the_form_loops(self):
        # the docstring's peak: the Q/B loop's fields (2.8 MB at L = 8) and
        # one synthesis pass, with no earlier check's tables alive
        run_verification(VerifyConfig())   # the caches a first run fills, outside the count
        tracemalloc.start()
        try:
            assert run_verification(VerifyConfig()).overall_pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 22 * convolution._CHUNK_BYTES

    def test_odd_slice_count_passes(self):
        report = run_verification(VerifyConfig(degree=2, n_c=11))
        assert report.overall_pass, [c.name for c in report.checks if not c.passed]

    @pytest.mark.parametrize("n_c", range(1, 18))
    def test_passes_at_every_slice_count(self, n_c):
        # every slice node pairs with its partner at odd n_c too, so the
        # pointwise symmetrization slack stays nonnegative node by node
        report = run_verification(VerifyConfig(n_c=n_c))
        assert report.overall_pass, [c.name for c in report.checks if not c.passed]


class TestReportSerialization:
    def test_report_dict_keys(self, small_report):
        d = small_report.as_dict()
        assert set(d) == {"suite_name", "config", "overall_pass", "checks"}
        assert d["overall_pass"] is True
        assert len(d["checks"]) == len(EXPECTED_CHECK_ORDER)

    def test_check_dict_keys(self, small_report):
        for c in small_report.as_dict()["checks"]:
            assert list(c) == ["name", "expected", "computed", "tolerance",
                               "abs_or_rel", "pass"]
            assert c["abs_or_rel"] in ("abs", "rel")

    def test_config_dict_spells_out_band_limit(self):
        assert VerifyConfig(degree=6).as_dict()["L"] == 6

    def test_default_config(self):
        cfg = VerifyConfig()
        assert (cfg.n_t, cfg.n_c, cfg.n_r, cfg.degree, cfg.seed) == (17, 34, 18, 8, 1234)

    @pytest.mark.parametrize("L", [0, 4, 8])
    def test_grid_sizes_follow_the_exact_plan(self, L):
        cfg = VerifyConfig(degree=L)
        n_t, n_r, n_c = exact_sizes(L)
        assert (cfg.n_t, cfg.n_c, cfg.n_r) == (n_t, n_c, n_r)

    def test_explicit_sizes_override_the_plan(self):
        cfg = VerifyConfig(degree=4, n_c=20)
        assert (cfg.n_t, cfg.n_c, cfg.n_r) == (9, 20, 10)


def symmetrization_samples(L: int, n: int, seed: int):
    """n complex f of band limit L, each with 20 centres of its own, drawn as
    the suite draws them: coefficients (n, (L+1)^2) and centres (n, 20, 3)."""
    rng = np.random.default_rng(seed)
    coeffs, xs = [], []
    for _ in range(n):
        coeffs.append(random_band_limited(L, rng, complex_valued=True).coeffs)
        x = rng.standard_normal((20, 3))
        xs.append(x / np.linalg.norm(x, axis=1, keepdims=True) * rng.uniform(0.05, 2.0, (20, 1)))
    return np.array(coeffs), np.array(xs)


def per_sample_gap(coeffs, X, n_c) -> float:
    # one SlicePlan and one harmonic table per sample at every slice node
    worst = -np.inf
    for c, x in zip(coeffs, X):
        f = SphereFunction.from_coeffs(HarmonicCoeffs(math.isqrt(len(c)) - 1, c))
        pts, r = convolution.slice_point_table(x, n_c)
        a, b, d = map(split, plan_at(convolution.SlicePlan(
            [(f, False), (f.antipodal_conjugate(), False), (f.sharp_rearrangement(), False)]), pts))
        gap = np.abs(convolution.pair_profile(a, b, r)) - convolution.pair_profile(d, d, r)
        worst = max(worst, float(np.max(gap)))
    return worst


class TestPointwiseSymmetrization:
    """The suite's pointwise check: every sample's f, f_star and f# at the
    slice nodes from 2L+1 nodes a slice, in chunks of samples."""

    @pytest.mark.parametrize("L, n_c", [(0, 2), (1, 3), (4, 1), (4, 18), (8, 34), (8, 35)])
    def test_matches_a_table_per_sample(self, L, n_c):
        coeffs, X = symmetrization_samples(L, 12, 300 + L)
        got = _pointwise_symmetrization_gap(coeffs, X, n_c)
        expect = per_sample_gap(coeffs, X, n_c)
        # the gap is a difference of profiles of size about one
        assert abs(got - expect) <= 1e-14

    def test_chunks_do_not_change_the_gap(self, monkeypatch):
        coeffs, X = symmetrization_samples(8, 50, 310)
        whole = _pointwise_symmetrization_gap(coeffs, X, 34)
        monkeypatch.setattr(convolution, "_CHUNK_BYTES", 1)   # a sample a chunk
        assert abs(_pointwise_symmetrization_gap(coeffs, X, 34) - whole) <= 1e-15

    def test_a_shrunken_sharp_side_reads_positive(self, monkeypatch):
        # negative control: with f# scaled by 0.99 the check must see a violation
        coeffs, X = symmetrization_samples(8, 50, 311)
        assert _pointwise_symmetrization_gap(coeffs, X, 34) < 0.0
        star_and_sharp = convolution._star_and_sharp

        def shrunken(*args):
            (f, f_star, f_sharp), r = star_and_sharp(*args)
            formed = f_sharp.re._replace(scale=f_sharp.re.scale * 0.99 ** 2)
            return (f, f_star, f_sharp._replace(re=formed)), r

        monkeypatch.setattr(convolution, "_star_and_sharp", shrunken)
        assert _pointwise_symmetrization_gap(coeffs, X, 34) > 0.0

    @pytest.mark.parametrize("L, n_c", [(0, 2), (1, 3), (4, 18), (8, 34), (8, 35)])
    def test_five_hundred_samples_stay_within_the_chunk_bound(self, L, n_c):
        # the docstring's bound: a traced peak under 8 _CHUNK_BYTES, where
        # 500 samples in one table would take 114 MB at L = 8
        coeffs, X = symmetrization_samples(L, 500, 320 + L)
        tracemalloc.start()
        try:
            _pointwise_symmetrization_gap(coeffs, X, n_c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * convolution._CHUNK_BYTES


class TestPassLogic:
    def test_relative_tolerance(self):
        assert _passes(100.0, 100.0 + 1e-7, 1e-8, "rel")
        assert not _passes(100.0, 100.0 + 1e-5, 1e-8, "rel")

    def test_absolute_tolerance(self):
        assert _passes(0.0, 5e-13, 1e-12, "abs")
        assert not _passes(0.0, 5e-12, 1e-12, "abs")

    def test_failing_check_flips_overall(self):
        report = VerificationReport(suite_name="toy", config={})
        report.checks.append(CheckResult(
            name="good", expected=1.0, computed=1.0, tolerance=1e-12,
            kind="rel", passed=True, wall_time=0.1))
        assert report.overall_pass
        report.checks.append(CheckResult(
            name="bad", expected=1.0, computed=2.0, tolerance=1e-12,
            kind="rel", passed=False, wall_time=0.1))
        assert not report.overall_pass


@pytest.mark.parametrize("seed", [4, 8, 10, 29])
def test_seeds_that_failed_the_chord_gate_pass(seed):
    # the former n_t=96 chord matrix missed the 1e-6 gate at these seeds
    report = run_verification(VerifyConfig(seed=seed))
    failing = [c.name for c in report.checks if not c.passed]
    assert report.overall_pass, f"failing checks: {failing}"
