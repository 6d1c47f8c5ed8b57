"""Legendre polynomials and the chord kernel's zonal (Funk-Hecke) multipliers.

The kernel sqrt(2 - 2t) is the chord length |omega - nu| between unit vectors
with omega . nu = t. Its Legendre coefficients Lambda_k drive the spectral form
of the quadratic functional H; the closed form

    Lambda_k = -8 / ((2k-1)(2k+1)(2k+3))

is validated here against brute-force quadrature before anything downstream
trusts it. (At k = 0 the same expression yields +8/3; all higher multipliers
are negative.)
"""

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .quadrature import _require_int

__all__ = [
    "FunkHeckeSpectrum",
    "legendre_values",
    "recurrence_residuals",
    "a_coefficient",
    "lambda_closed_form",
    "funk_hecke_coefficient",
    "chord_kernel",
    "chord_spectrum_quadrature",
]

CHORD_KERNEL_ID = "chord"


@dataclass(frozen=True)
class FunkHeckeSpectrum:
    """Per-degree multipliers lambda_k of a zonal kernel phi(omega . nu).

    The zonal operator g -> integral of phi(omega . nu) g(nu) dsigma(nu) acts
    on degree-k spherical harmonics as multiplication by 2*pi*lambda_k, with
    lambda_k = integral of phi(t) P_k(t) dt over (-1, 1).
    """

    kernel_id: str
    multipliers: np.ndarray

    @property
    def max_degree(self) -> int:
        return len(self.multipliers) - 1


def legendre_values(K: int, t: np.ndarray) -> np.ndarray:
    """Bonnet recursion, vectorized: values[k, ...] = P_k(t) for k = 0..K.

    Upward recursion is stable on [-1, 1] because |P_k| <= 1 there.
    """
    _require_int(K, "K", 0)
    t = np.asarray(t, dtype=float)
    values = np.empty((K + 1,) + t.shape)
    values[0] = 1.0
    if K >= 1:
        values[1] = t
    for k in range(1, K):
        values[k + 1] = ((2 * k + 1) * t * values[k] - k * values[k - 1]) / (k + 1)
    return values


def _derivative_values(K: int, t: np.ndarray, p: np.ndarray) -> np.ndarray:
    # P'_{k+1} = t P'_k + (k+1) P_k. Deliberately not the difference identity
    # (2k+1) P_k = P'_{k+1} - P'_{k-1}: that one is a downstream correctness
    # check and must not hold by construction.
    t = np.asarray(t, dtype=float)
    d = np.zeros((K + 1,) + t.shape)
    for k in range(K):
        d[k + 1] = t * d[k] + (k + 1) * p[k]
    return d


def recurrence_residuals(K: int, t: float) -> tuple[float, float, float]:
    """Max residuals over k = 1..K of three derivative recurrences.

    Checked identities:
      (2k+1) P_k = P'_{k+1} - P'_{k-1}
      (2k+1) P_k = (k+1) P'_{k+1} - (2k+1) t P'_k + k P'_{k-1}
            P_k = P'_{k+1} - 2t P'_k + P'_{k-1}

    The table is extended internally to degree K+1 so that all three are
    evaluable at k = K. K is a positive integer and t lies in [-1, 1].
    """
    _require_int(K, "K")
    t = float(t)
    if not -1.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [-1, 1], got {t}")
    p = legendre_values(K + 1, t)
    d = _derivative_values(K + 1, t, p)
    k = np.arange(1, K + 1)
    r0 = (2 * k + 1) * p[k] - (d[k + 1] - d[k - 1])
    r1 = (2 * k + 1) * p[k] - ((k + 1) * d[k + 1] - (2 * k + 1) * t * d[k] + k * d[k - 1])
    r2 = p[k] - (d[k + 1] - 2 * t * d[k] + d[k - 1])
    return (
        float(np.abs(r0).max()),
        float(np.abs(r1).max()),
        float(np.abs(r2).max()),
    )


def a_coefficient(k: int) -> float:
    """A_k = 2/(2k+1), the Legendre coefficient of 1/|omega - nu| = (2-2t)^(-1/2)."""
    _require_int(k, "k", 0)
    return 2.0 / (2 * k + 1)


def lambda_closed_form(K: int) -> FunkHeckeSpectrum:
    """Closed-form chord-kernel multipliers Lambda_0..Lambda_K.

    Consolidates (2k+1) Lambda_k = A_{k+1} - A_{k-1} with A_k = 2/(2k+1) into
    Lambda_k = -8/((2k-1)(2k+1)(2k+3)); Lambda_0 = 8/3 and Lambda_k < 0 for
    k >= 1.
    """
    _require_int(K, "K", 0)
    k = np.arange(K + 1, dtype=float)
    lam = -8.0 / ((2 * k - 1) * (2 * k + 1) * (2 * k + 3))
    return FunkHeckeSpectrum(kernel_id=CHORD_KERNEL_ID, multipliers=lam)


def chord_kernel(t):
    """The chord-length kernel sqrt(2 - 2t) = |omega - nu| at omega . nu = t."""
    return np.sqrt(np.maximum(0.0, 2.0 - 2.0 * np.asarray(t, dtype=float)))


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-node Gauss-Legendre rule on (-1, 1), built once per n; read-only.

    leggauss needs an n x n companion matrix. That matrix is asked for first,
    so a rule too large for memory raises MemoryError at once, before
    leggauss spends time and memory on its n-term series.
    """
    np.empty((n, n))
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _weighted_kernel(kernel: Callable, K: int, n_quad: int,
                     sqrt_singular_at_one: bool) -> tuple[np.ndarray, np.ndarray]:
    """Nodes t and weights w * kernel(t) of the rule for degrees 0..K."""
    _require_int(K, "degree", 0)
    _require_int(n_quad, "n_quad")
    if n_quad < K + 1:
        raise ValueError(f"n_quad must be at least k+1 = {K + 1}, got {n_quad}")
    t, w = _gauss_legendre(n_quad)
    if sqrt_singular_at_one:
        u = 0.5 * (t + 1.0)   # map to (0, 1), then dt = -4u du
        t, w = 1.0 - 2.0 * u * u, 2.0 * w * u
    kv = np.asarray(kernel(t), dtype=float)
    if not np.all(np.isfinite(kv)):
        raise ValueError("kernel produced non-finite values on the quadrature nodes")
    return t, w * kv


def funk_hecke_coefficient(
    kernel: Callable,
    k: int,
    n_quad: int,
    sqrt_singular_at_one: bool = False,
) -> float:
    """Gauss-Legendre quadrature of integral kernel(t) P_k(t) dt over (-1, 1).

    With sqrt_singular_at_one set, the substitution t = 1 - 2u^2 (dt = -4u du)
    is applied first. For kernels of the form smooth(t)*sqrt(1-t) this removes
    the endpoint singularity entirely -- for the chord kernel the transformed
    integrand 4u * kernel(1-2u^2) * P_k(1-2u^2) is a polynomial in u, so the
    quadrature is exact once n_quad exceeds k + 1.
    """
    t, wk = _weighted_kernel(kernel, k, n_quad, sqrt_singular_at_one)
    return float(np.sum(wk * legendre_values(k, t)[k]))


def chord_spectrum_quadrature(K: int, n_quad: Optional[int] = None) -> FunkHeckeSpectrum:
    """Chord-kernel multipliers by quadrature, the oracle for lambda_closed_form.

    Each Lambda_k is funk_hecke_coefficient's sum, bit for bit, taken over
    one table of P_0..P_K at the nodes rather than K + 1 recursions.
    """
    if n_quad is None:
        n_quad = K + 8
    t, wk = _weighted_kernel(chord_kernel, K, n_quad, sqrt_singular_at_one=True)
    lam = np.array([np.sum(wk * p) for p in legendre_values(K, t)])
    return FunkHeckeSpectrum(kernel_id=CHORD_KERNEL_ID, multipliers=lam)
