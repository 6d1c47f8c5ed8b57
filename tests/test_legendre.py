"""Legendre tables, recurrence residuals, and chord-kernel multipliers."""

import numpy as np
import pytest

from sharpsphere import (
    a_coefficient,
    chord_kernel,
    chord_spectrum_quadrature,
    funk_hecke_coefficient,
    lambda_closed_form,
    legendre_values,
    recurrence_residuals,
)

PI = np.pi


class TestLegendreValues:
    def test_first_two_polynomials(self):
        t = np.linspace(-1.0, 1.0, 11)
        vals = legendre_values(1, t)
        assert np.abs(vals[0] - 1.0).max() == 0.0
        assert np.abs(vals[1] - t).max() == 0.0

    def test_degree_two_at_half(self):
        assert abs(legendre_values(2, 0.5)[2] - (-0.125)) <= 1e-15

    def test_bounded_by_one_on_interval(self):
        t = np.linspace(-1.0, 1.0, 2001)
        vals = legendre_values(60, t)
        assert np.abs(vals).max() <= 1.0 + 1e-12

    def test_endpoint_values(self):
        vals = legendre_values(25, np.array([1.0, -1.0]))
        k = np.arange(26)
        assert np.abs(vals[:, 0] - 1.0).max() <= 1e-13
        assert np.abs(vals[:, 1] - (-1.0) ** k).max() <= 1e-13

    def test_three_term_recurrence_residual(self):
        t = np.linspace(-1.0, 1.0, 101)
        vals = legendre_values(50, t)
        for k in range(1, 50):
            res = (k + 1) * vals[k + 1] - (2 * k + 1) * t * vals[k] + k * vals[k - 1]
            assert np.abs(res).max() <= 1e-13

    def test_norm_identity_against_gauss_legendre(self):
        # integral of P_k^2 over (-1, 1) equals 2 / (2k + 1); 52 nodes
        # integrate degree-100 products exactly
        t, w = np.polynomial.legendre.leggauss(52)
        vals = legendre_values(50, t)
        norms = (w * vals * vals).sum(axis=1)
        expected = 2.0 / (2 * np.arange(51) + 1)
        assert np.abs(norms / expected - 1.0).max() <= 1e-12

    def test_orthogonality(self):
        t, w = np.polynomial.legendre.leggauss(52)
        vals = legendre_values(50, t)
        gram = (vals * w) @ vals.T
        off = gram - np.diag(np.diag(gram))
        assert np.abs(off).max() <= 1e-12

    def test_out_of_range_argument_rejected(self):
        with pytest.raises(ValueError, match="t must lie in"):
            recurrence_residuals(3, 1.5)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            legendre_values(-1, 0.5)


class TestRecurrenceResiduals:
    def test_small_degree_at_origin(self):
        assert max(recurrence_residuals(10, 0.0)) <= 1e-12

    def test_high_degree_near_endpoint(self):
        assert max(recurrence_residuals(50, 0.99)) <= 1e-9

    def test_sweep_stays_below_budget(self):
        worst = max(max(recurrence_residuals(50, float(t)))
                    for t in np.linspace(-0.99, 0.99, 41))
        assert worst <= 1e-9

    def test_lowest_degree_identity(self):
        # at k = 1: 3 P_1 = P'_2 - P'_0 = 3t exactly
        assert max(recurrence_residuals(1, 0.37)) <= 1e-15


class TestChordSpectrum:
    def test_a_coefficient_values(self):
        assert a_coefficient(0) == 2.0
        assert abs(a_coefficient(1) - 2.0 / 3.0) <= 1e-16
        assert abs(a_coefficient(10) - 2.0 / 21.0) <= 1e-16

    def test_multiplier_closed_forms(self):
        lam = lambda_closed_form(5).multipliers
        assert abs(lam[0] - 8.0 / 3.0) <= 1e-15
        assert abs(lam[1] - (-8.0 / 15.0)) <= 1e-15
        assert abs(lam[5] - (-8.0 / (9 * 11 * 13))) <= 1e-18

    def test_degree_zero_is_full_chord_integral(self):
        # Lambda_0 = integral of sqrt(2 - 2t) dt over (-1, 1) = 8/3
        t, w = np.polynomial.legendre.leggauss(400)
        oracle = float(np.sum(w * np.sqrt(2.0 - 2.0 * t)))
        lam0 = lambda_closed_form(0).multipliers[0]
        assert abs(lam0 - 8.0 / 3.0) <= 1e-15
        assert abs(oracle - lam0) <= 1e-6   # raw rule fights the sqrt endpoint

    def test_consecutive_a_difference_form(self):
        # (2k+1) Lambda_k = A_{k+1} - A_{k-1} for k >= 1
        lam = lambda_closed_form(12).multipliers
        for k in range(1, 13):
            lhs = (2 * k + 1) * lam[k]
            rhs = a_coefficient(k + 1) - a_coefficient(k - 1)
            assert abs(lhs - rhs) <= 1e-15

    def test_quadrature_matches_closed_form(self):
        closed = lambda_closed_form(50).multipliers
        quad = chord_spectrum_quadrature(50).multipliers
        assert np.abs(closed - quad).max() <= 1e-10

    def test_negative_beyond_degree_zero(self):
        lam = lambda_closed_form(50).multipliers
        assert lam[0] > 0
        assert np.all(lam[1:] < 0)

    def test_magnitudes_strictly_decreasing(self):
        lam = np.abs(lambda_closed_form(50).multipliers)
        assert np.all(np.diff(lam) < 0)

    def test_one_table_gives_each_coefficient_bit_for_bit(self):
        quad = chord_spectrum_quadrature(50).multipliers
        for k in range(51):
            one = funk_hecke_coefficient(chord_kernel, k, 58, sqrt_singular_at_one=True)
            assert quad[k].hex() == one.hex()

    def test_kernel_id_tags_chord(self):
        assert lambda_closed_form(3).kernel_id == "chord"
        assert chord_spectrum_quadrature(3).kernel_id == "chord"

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            lambda_closed_form(-1)


class TestFunkHeckeCoefficient:
    def test_flat_kernel_isolates_degree_zero(self):
        lam0 = funk_hecke_coefficient(lambda t: np.ones_like(t), 0, 16)
        assert abs(lam0 - 2.0) <= 1e-14
        for k in range(1, 6):
            assert abs(funk_hecke_coefficient(lambda t: np.ones_like(t), k, 16)) <= 1e-14

    def test_legendre_kernel_projects_onto_itself(self):
        kernel = lambda t: legendre_values(3, t)[3]
        assert abs(funk_hecke_coefficient(kernel, 3, 16) - 2.0 / 7.0) <= 1e-14

    def test_chord_kernel_with_endpoint_substitution(self):
        val = funk_hecke_coefficient(chord_kernel, 0, 32, sqrt_singular_at_one=True)
        assert abs(val - 8.0 / 3.0) <= 1e-12

    def test_underresolved_quadrature_rejected(self):
        with pytest.raises(ValueError):
            funk_hecke_coefficient(lambda t: np.ones_like(t), 5, 4)

    def test_non_finite_kernel_rejected(self):
        with pytest.raises(ValueError):
            funk_hecke_coefficient(lambda t: np.full(np.shape(t), np.nan), 0, 16)


class TestIntegerArguments:
    """Degrees are nonnegative integers and node counts positive ones."""

    CALLS = {
        "legendre_values": lambda n: legendre_values(n, 0.3),
        "recurrence_residuals": lambda n: recurrence_residuals(n, 0.3),
        "a_coefficient": a_coefficient,
        "lambda_closed_form": lambda_closed_form,
        "chord_spectrum_quadrature K": chord_spectrum_quadrature,
        "chord_spectrum_quadrature n_quad": lambda n: chord_spectrum_quadrature(4, n),
        "funk_hecke_coefficient k": lambda n: funk_hecke_coefficient(chord_kernel, n, 16),
        "funk_hecke_coefficient n_quad": lambda n: funk_hecke_coefficient(chord_kernel, 0, n),
    }

    @pytest.mark.parametrize("bad", [2.5, -1])
    @pytest.mark.parametrize("name", list(CALLS))
    def test_rejected_with_value_error(self, name, bad):
        with pytest.raises(ValueError, match=f"must be a (positive|nonnegative) integer, "
                                             f"got {bad!r}"):
            self.CALLS[name](bad)


class TestGeneratingFunction:
    @staticmethod
    def closed(r, t):
        return 1.0 / np.sqrt(1.0 - 2.0 * r * t + r * r)

    @staticmethod
    def partial(K, r, t):
        return float(legendre_values(K, np.array(t)) @ r ** np.arange(K + 1))

    def test_partial_sum_error_bound(self):
        K, r, t = 20, 0.5, 0.3
        # tail is bounded by the geometric series r^(K+1) / (1 - r)
        assert abs(self.partial(K, r, t) - self.closed(r, t)) <= r ** (K + 1) / (1.0 - r)

    @pytest.mark.parametrize("r", [0.3, 0.6, 0.9])
    def test_tail_decays_geometrically(self, r):
        t = -0.44
        errs = [abs(self.partial(K, r, t) - self.closed(r, t)) for K in (10, 20, 30)]
        # ten more terms shrink the tail by about r^10, until the error
        # bottoms out at rounding level
        for a, b in zip(errs, errs[1:]):
            assert b <= max(a * r ** 10 * 5.0, 1e-15)
