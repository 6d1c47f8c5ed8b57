"""Legendre polynomials and the chord kernel's zonal (Funk-Hecke) multipliers.

The kernel sqrt(2 - 2t) is the chord length |omega - nu| between unit vectors
with omega . nu = t. Its Legendre coefficients Lambda_k drive the spectral form
of the quadratic functional H; the closed form

    Lambda_k = -8 / ((2k-1)(2k+1)(2k+3))

is validated here against brute-force quadrature before anything downstream
trusts it. (At k = 0 the same expression yields +8/3; all higher multipliers
are negative.)
"""

import numpy as np

from .quadrature import _gauss_legendre, _require_int

__all__ = [
    "legendre_values",
    "recurrence_residuals",
    "lambda_closed_form",
    "chord_kernel",
    "chord_spectrum_quadrature",
]

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


def lambda_closed_form(K: int) -> np.ndarray:
    """Closed-form chord-kernel multipliers Lambda_0..Lambda_K, a read-only
    array of K + 1 floats.

    The zonal operator g -> integral of |omega - nu| g(nu) dsigma(nu) acts
    on degree-k harmonics as multiplication by 2*pi*Lambda_k, Lambda_k the
    integral of sqrt(2 - 2t) P_k(t) dt over (-1, 1). Consolidates
    (2k+1) Lambda_k = A_{k+1} - A_{k-1} with A_k = 2/(2k+1) into
    Lambda_k = -8/((2k-1)(2k+1)(2k+3)); Lambda_0 = 8/3 and Lambda_k < 0 for
    k >= 1.
    """
    _require_int(K, "K", 0)
    k = np.arange(K + 1, dtype=float)
    lam = -8.0 / ((2 * k - 1) * (2 * k + 1) * (2 * k + 3))
    lam.flags.writeable = False
    return lam


def chord_kernel(t):
    """The chord-length kernel sqrt(2 - 2t) = |omega - nu| at omega . nu = t."""
    return np.sqrt(np.maximum(0.0, 2.0 - 2.0 * np.asarray(t, dtype=float)))


def chord_spectrum_quadrature(K: int) -> np.ndarray:
    """Chord-kernel multipliers by quadrature, the oracle for lambda_closed_form,
    a read-only array of K + 1 floats.

    Gauss-Legendre on K + 8 nodes after the substitution t = 1 - 2u^2
    (dt = -4u du), which removes the kernel's sqrt endpoint: the integrand
    4u * chord_kernel(1 - 2u^2) * P_k(1 - 2u^2) is a polynomial in u, so the
    rule is exact for every k <= K. One table of P_0..P_K at the nodes gives
    every Lambda_k.
    """
    _require_int(K, "K", 0)
    t, w = _gauss_legendre(K + 8)
    u = 0.5 * (t + 1.0)   # map to (0, 1), then dt = -4u du
    t, w = 1.0 - 2.0 * u * u, 2.0 * w * u
    wk = w * chord_kernel(t)
    lam = np.array([np.sum(wk * p) for p in legendre_values(K, t)])
    lam.flags.writeable = False
    return lam
