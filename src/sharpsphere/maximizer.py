"""Curvature-scaled ascent on the restriction ratio over band-limited sphere functions.

The objective is Phi(f) = ||ext f||_4 / ||f||_2, parametrized by real harmonic
coefficients. Phi^4 is (2 pi)^3 Q(f, f_star, f, f_star) / ||f||_2^4 with Q the
zero-sum quadrilinear form, and for a band limit L both quadrature rules of
the radial evaluation of Q (Workspace), one on the sphere and one on the
radial variable, are sized so the discrete value is the continuous one up to
rounding. That matters beyond accuracy: the computed
objective then provably never exceeds the sharp constant 2*pi, so an ascent
run that plateaus at 2*pi with vanishing non-constant energy is genuine
evidence, not a quadrature artifact.

Optimization is restricted to real coefficients. The complex symmetry group
(modulations omega -> exp(i xi . omega) f) makes maximizers non-isolated, and
ascent would wander along that manifold instead of settling.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .harmonics import HarmonicCoeffs, _degree_index, harmonic_values, n_coeffs, parity_signs
from .legendre import _derivative_values, legendre_values
from .quadrature import _gauss_legendre, _require_int, build_sphere_grid

__all__ = [
    "OptimizerState",
    "SearchResult",
    "Workspace",
    "SHARP_CONSTANT",
    "make_workspace",
    "objective_phi",
    "gradient",
    "constancy_metric",
    "initial_coeffs",
    "search",
]

SHARP_CONSTANT = 2.0 * np.pi

INITIAL_STEP = 1.0
STEP_SHRINK = 0.5
# One ulp of Phi is a relative change of at most eps, so a change of at most
# 4 eps in log Phi^4: a step whose first-order gain in log Phi^4 is below this
# cannot show a strict increase of Phi.
ROUNDING_GAIN = 4.0 * np.finfo(float).eps


class Workspace:
    """Q and its gradient at band limit L, exact, on the radial route: no slices.

    ext f(x) = 4 pi sum_k i^k j_k(|x|) f_k(x/|x|), f_k the degree-k part of
    f, so ||ext f||_4^4 is a sum over degrees (a, b, c, d) of a radial
    integral I(a, b, c, d) of r^2 j_a j_b j_c j_d times the sphere integral
    of f_a conj(f_b) f_c conj(f_d). With j_k(r) = (i^-k / 2) times the
    Fourier transform of P_k on [-1, 1], I = -(pi/16) i^-(a+b+c+d) G''(0),
    G the convolution of the four P_k 1_[-1,1], and G''(0) is the integral
    over [-2, 2] of H'_ab(u) H'_cd(-u), H_ab = (P_a 1_[-1,1]) * (P_b 1_[-1,1]).
    H_ab has parity (-1)^(a+b), and only a+b+c+d even survives the sphere
    integral, so the u < 0 half folds onto u > 0 and

        Q(f, f_star, f, f_star) = 4 pi^2 sum_u w_u integral over S^2 of |A_u|^2,
        A_u = sum over a, b of (-1)^a H'_ab(u) f_a conj(f_b),

    u at 2L+1 Gauss nodes on (0, 2), where H'_ab H'_cd, a polynomial of
    degree <= 4L there, integrates exactly. |A_u|^2 has degree 4L on the
    sphere, integrated exactly by build_sphere_grid(2L+1), which holds -n
    at equal weight for each node n. The fold to one node of each pair, at
    twice the weight, is exact: f_a(-n) = (-1)^a f_a(n), so A_u (and for
    complex f the square of its odd imaginary part) is even, as is the
    gradient's integrand. The kept nodes are the L rings above the equator
    and the equator's first 2L+1 azimuths, (2L+1)^2 nodes, 289 at L=8.
    basis holds the harmonics at those nodes, (L+1)^2 rows: 0.19 MB at
    L=8, growing like L^4. The 1-D table holds
    (-1)^a H'_ab(u) per degree pair a <= b, the pair (b, a) folded in:
    H'_ba = H'_ab, so for real f a pair of odd a+b cancels its swap and
    only the pairs of even a+b are read, and for complex f those carry
    Re(f_a conj(f_b)) and the odd ones i Im. So Q is two small GEMMs past
    the degree pieces f_a, and nonnegative by construction; the gradient is
    one more GEMM, a contraction with the pieces and a pullback by basis^T.
    A vector of pure parity has zero pieces of the other parity, which the
    even pairs never mix with its own, so its gradient is exactly 0 on the
    slots of the other parity and the ascent keeps to its parity subspace.

    q_value takes real or complex coefficients, (L+1)^2 finite entries in
    the flat layout (HarmonicCoeffs rejects any other length or a NaN or
    infinite entry with ValueError); q_gradient takes real ones. Both raise
    ValueError when Q, which grows like |c|^4, is not finite; objective_phi,
    gradient and search first scale c by a power of two. Each call runs its
    own forward pass; the Workspace holds its tables only.

    Curvature: the Hessian of log Phi^4 at the unit constant is diagonal by
    degree, lambda_k = -4 + 4 (2 + (-1)^k) / (2k + 1) on every slot of degree
    k (negative for k >= 1, weakest lambda_2 = -8/5); curvature holds it per
    flat slot, with the same formula (lambda_0 = 8) on the mean slot. search
    scales its steps by 1 / |curvature|.
    """

    def __init__(self, L: int):
        _require_int(L, "L", 0)
        self.L = L
        n = 2 * L + 1
        sphere = build_sphere_grid(n)
        # one node of each antipodal pair, at twice its weight: the rings
        # above the equator and the equator's first n azimuths
        keep = np.r_[L * 2 * n:L * 2 * n + n, (L + 1) * 2 * n:2 * n * n]
        self.basis = harmonic_values(L, sphere.nodes[keep])
        self._slots = [slice(k * k, (k + 1) ** 2) for k in range(L + 1)]   # per degree
        w_u, h = _radial_table(L)
        a, b = np.triu_indices(L + 1)
        even = (a + b) % 2 == 0
        # the swap (b, a) folded in: twice the entry off the diagonal
        table = np.where(a == b, 1.0, 2.0)[:, None] * (1.0 - 2.0 * (a % 2))[:, None] * h[a, b]
        self._pairs = [(a[sel], b[sel], table[sel]) for sel in (even, ~even)]
        self._weights = np.outer(4.0 * np.pi ** 2 * w_u, 2.0 * sphere.weights[keep])
        # row k marks the even pairs whose a (then b) is k: the gradient's
        # scatter of per-pair terms onto the degrees, as two GEMMs
        self._incidence = [np.equal.outer(np.arange(L + 1), ends).astype(float)
                           for ends in self._pairs[0][:2]]
        self.curvature = -4.0 + 4.0 * (2.0 + parity_signs(L)) / (2 * _degree_index(L) + 1)

    def _forward(self, coeffs: np.ndarray):
        # (F, A, q) of a validated copy of the coefficients (HarmonicCoeffs
        # freezes the array it holds); a Q that overflows raises ValueError
        dtype = complex if np.iscomplexobj(coeffs) else float
        c = HarmonicCoeffs(self.L, np.array(coeffs, dtype=dtype)).coeffs
        with np.errstate(over="ignore", invalid="ignore"):
            F, A, q = self._evaluate(c)
        if not np.isfinite(q):
            raise ValueError(f"Q evaluated to the non-finite value {q}")
        return F, A, q

    def _evaluate(self, c: np.ndarray):
        # F, the degree pieces f_a at the sphere nodes, of c's real rows (its
        # real and imaginary parts if complex); A_u there, Re A_u if complex;
        # and Q
        rows = np.stack([c.real, c.imag]) if np.iscomplexobj(c) else c[None]
        F = np.empty((len(rows), self.L + 1, self.basis.shape[1]))
        for k, slots in enumerate(self._slots):
            np.matmul(rows[:, slots], self.basis[slots], out=F[:, k])
        (a, b, even), (a_odd, b_odd, odd) = self._pairs
        if len(F) == 1:
            A = even.T @ (F[0, a] * F[0, b])
            return F[0], A, self._integral(A * A)
        re, im = F
        A = even.T @ (re[a] * re[b] + im[a] * im[b])
        A_im = odd.T @ (im[a_odd] * re[b_odd] - re[a_odd] * im[b_odd])
        return F, A, self._integral(A * A + A_im * A_im)

    def _integral(self, values: np.ndarray) -> float:
        # 4 pi^2 sum_u w_u sum_n w_n values[u, n], the node sums pairwise
        # (np.add.reduce along a row), so Q of a constant is 2 pi to a few ulps
        return float(np.add.reduce(values * self._weights, axis=1).sum())

    def q_value(self, coeffs: np.ndarray) -> float:
        """Q(f, f_star, f, f_star) for real or complex coefficients; nonnegative."""
        return self._forward(coeffs)[2]

    def q_gradient(self, coeffs: np.ndarray):
        """Q and its coefficient gradient for real coefficients, sharing the forward pass."""
        if np.iscomplexobj(coeffs):
            raise ValueError("q_gradient takes real coefficients")
        F, A, q = self._forward(coeffs)
        # dQ/dA_u = 2 W A_u, W the u-by-node weights; back through the
        # pairs, dQ/df_a collects each pair's value times its other piece
        a, b, even = self._pairs[0]
        back = even @ (2.0 * self._weights * A)
        dF = self._incidence[0] @ (back * F[b]) + self._incidence[1] @ (back * F[a])
        g = np.empty(self.basis.shape[0])
        for k, slots in enumerate(self._slots):
            np.matmul(self.basis[slots], dF[k], out=g[slots])
        return q, g


def _radial_table(L: int):
    """w_u, the weights of the 2L+1 Gauss nodes u on (0, 2), and H'_ab(u),
    shape (L+1, L+1, 2L+1), H_ab = (P_a 1_[-1,1]) * (P_b 1_[-1,1]).

    On (0, 2), H_ab(u) is the integral of P_a(t) P_b(u - t) over t in
    [u-1, 1], so H'_ab(u) = -P_a(u-1) P_b(1) plus that integral with P_b'
    in place of P_b: a polynomial of degree a+b-1 in t, exact at L+1 Gauss
    nodes, vectorized over (a, b, u, node). The rule is symmetric about the
    interval's midpoint u/2, so u - t runs over the same nodes reversed.
    H'_ab = H'_ba, and the entry is taken with the derivative on the lower
    degree, the smaller factor: a few ulps where the other reads tens. u is
    x + 1 for the Gauss nodes x on (-1, 1), and u - 1 is read as x, bit
    for bit.
    """
    x, w_u = _gauss_legendre(2 * L + 1)
    s, w_s = _gauss_legendre(L + 1)
    t = 0.5 * ((1.0 - x)[:, None] * s + (1.0 + x)[:, None])   # (u, node), on [u-1, 1]
    p = legendre_values(L, t)
    d = _derivative_values(L, t, p)[..., ::-1]   # P_b' at u - t
    h = np.einsum("aij,bij,j->abi", p, d, w_s) * (0.5 * (1.0 - x))
    h -= legendre_values(L, x)[:, None]
    low = np.tril_indices(L + 1, -1)
    h[low[::-1]] = h[low]
    return w_u, h


@lru_cache(maxsize=4)
def make_workspace(L: int) -> Workspace:
    """The Workspace of band limit L that objective_phi, gradient and search read."""
    return Workspace(L)


def _as_real_coeffs(c: HarmonicCoeffs) -> tuple[np.ndarray, int]:
    """c's real coefficients over 2^e, e the binary exponent of their largest
    magnitude (0 for the zero vector), and e.

    Phi is scale-free, so the scaled vector has the same Phi and 2^e times
    the log-form gradient, and its norms and Q neither overflow nor
    underflow. A power of two scales exactly: for coefficients of ordinary
    size every value is the same, bit for bit.
    """
    arr = np.asarray(c.coeffs)
    if np.iscomplexobj(arr):
        if np.max(np.abs(arr.imag)) != 0.0:
            raise ValueError("optimizer works on real coefficient vectors")
        arr = arr.real
    e = int(np.frexp(np.max(np.abs(arr)))[1])
    return np.ldexp(arr.astype(float), -e), e


def objective_phi(c: HarmonicCoeffs) -> float:
    """Phi(f) = ((2 pi)^3 Q)^(1/4) / ||f||_2 for the synthesized f, Q on
    make_workspace(c.max_degree)."""
    arr = _as_real_coeffs(c)[0]
    nrm2 = float(arr @ arr)
    if nrm2 == 0.0:
        raise ValueError("Phi is undefined for the zero function")
    q = make_workspace(c.max_degree).q_value(arr)
    return float(((2.0 * np.pi) ** 3 * q) ** 0.25 / np.sqrt(nrm2))


def gradient(c: HarmonicCoeffs) -> np.ndarray:
    """Gradient of log Phi^4 = log((2 pi)^3 Q) - 2 log ||f||_2^2 in coefficient space.

    The log form is scale-free: constants (of either sign) are critical
    points, and the finite-difference oracle needs no renormalization. It
    grows like 1/|c|, so coefficients of subnormal size, where it is past
    the largest float, raise ValueError.
    """
    arr, e = _as_real_coeffs(c)
    nrm2 = float(arr @ arr)
    if nrm2 == 0.0:
        raise ValueError("gradient is undefined for the zero function")
    q, dq = make_workspace(c.max_degree).q_gradient(arr)
    with np.errstate(over="ignore"):
        g = np.ldexp(dq / q - 4.0 * arr / nrm2, -e)
    if not np.all(np.isfinite(g)):
        raise ValueError("gradient overflows: it grows like 1/|c|")
    return g


def constancy_metric(c: HarmonicCoeffs) -> float:
    """Fraction of L2 energy in degrees >= 1; zero exactly for constants."""
    total = c.norm_sq()
    if total == 0.0:
        raise ValueError("constancy metric is undefined for the zero function")
    return float((total - np.abs(c.coeffs[0]) ** 2) / total)


@dataclass(frozen=True)
class OptimizerState:
    coeffs: HarmonicCoeffs
    objective: float
    gradient_norm: float
    step_size: float
    iteration: int
    constancy_defect: float


@dataclass(frozen=True)
class SearchResult:
    states: list
    converged: bool
    reason: str

    @property
    def final(self) -> OptimizerState:
        return self.states[-1]


def initial_coeffs(kind: str, L: int, rng: np.random.Generator) -> HarmonicCoeffs:
    """Named starting points: random, perturbed-constant, or zonal (pure omega_z).

    "random" draws a standard normal vector and then rescales the constant
    slot to the L2 norm of the remaining slots, keeping its sign, so half the
    starting energy sits in the mean. The balance matters: odd-degree
    coefficients span an invariant subspace of the ascent field (Q of three
    odd factors and one even one vanishes by the simultaneous-negation
    symmetry), and inside it sits a strict local maximum of pure odd parity
    at Phi = 2 pi - 0.2667508 that captures roughly half of mean-starved
    normal draws. With the balanced mean, 40/40 seeded sweeps reached the
    constant; with the constant slot shrunk to a quarter of the remainder,
    13/40 were trapped. L is a nonnegative integer.
    """
    _require_int(L, "L", 0)
    c = np.zeros(n_coeffs(L))
    if kind == "random":
        c = rng.standard_normal(n_coeffs(L))
        rest = np.linalg.norm(c[1:])
        if rest > 0.0:
            c[0] = np.copysign(rest, c[0])
    elif kind == "perturbed-constant":
        c[0] = 1.0
        rest = rng.standard_normal(n_coeffs(L) - 1)
        c[1:] = 0.1 * rest / np.linalg.norm(rest)
    elif kind == "zonal":
        if L < 1:
            raise ValueError("zonal init needs band limit >= 1")
        c[2] = 1.0   # flat index of (k, m) = (1, 0); Y_{1,0} is proportional to omega_z
    else:
        raise ValueError(f"unknown init kind {kind!r}")
    return HarmonicCoeffs(L, c)


def search(init: HarmonicCoeffs, max_iter: int = 500, tol: float = 1e-8) -> SearchResult:
    """Curvature-scaled ascent on log Phi^4 over the unit coefficient sphere.

    Each step moves along grad / |lambda| per coefficient slot, lambda the
    per-degree Hessian of log Phi^4 at the constant (Workspace.curvature),
    and renormalizes. A unit step is then a Newton step near the constant and
    every degree contracts at a comparable rate, where plain gradient ascent
    crawls along the weakest degree (lambda_2 = -8/5). The scaling is
    diagonal by degree, so the odd-degree invariant subspace stays invariant.
    Every Q and gradient runs on make_workspace(init.max_degree), the one
    cached Workspace of that band limit, in one q_gradient call per trial.

    Line search: the step starts at INITIAL_STEP = 1, halves on a trial that
    does not strictly increase Phi, and after an accepted step doubles back
    up, capped at INITIAL_STEP; the trace is therefore strictly increasing.
    The run stops with "line search stalled" when a rejected trial halves the
    step to where its first-order gain in log Phi^4, step * (grad . grad /
    |lambda|), is below ROUNDING_GAIN, the rounding level of log Phi^4: no
    shorter trial can show an increase. Convergence means gradient_norm < tol.
    The trace holds the initial state and every accepted state. max_iter is
    a nonnegative integer and tol a finite number >= 0; anything else raises
    ValueError naming the value.
    """
    _require_int(max_iter, "max_iter", 0)
    if (not isinstance(tol, (int, float, np.integer, np.floating)) or isinstance(tol, bool)
            or not (np.isfinite(tol) and tol >= 0.0)):
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")
    arr = _as_real_coeffs(init)[0]
    if not np.any(arr):
        raise ValueError("initial coefficients must be nonzero")
    L = init.max_degree
    ws = make_workspace(L)
    scale = 1.0 / np.abs(ws.curvature)

    def make_state(arr, step, iteration):
        c = HarmonicCoeffs(L, arr)
        q, dq = ws.q_gradient(arr)
        grad = dq / q - 4.0 * arr
        phi = float(((2.0 * np.pi) ** 3 * q) ** 0.25)
        return OptimizerState(
            coeffs=c, objective=phi, gradient_norm=float(np.linalg.norm(grad)),
            step_size=step, iteration=iteration,
            constancy_defect=constancy_metric(c)), grad

    arr = arr / np.linalg.norm(arr)
    step = INITIAL_STEP
    state, grad = make_state(arr, step, 0)
    trace = [state]
    for iteration in range(1, max_iter + 1):
        if state.gradient_norm < tol:
            return SearchResult(trace, True, "gradient norm below tolerance")
        direction = scale * grad
        slope = float(grad @ direction)
        while True:
            trial = state.coeffs.coeffs + step * direction
            new, new_grad = make_state(trial / np.linalg.norm(trial), step, iteration)
            if new.objective > state.objective:
                break
            step *= STEP_SHRINK
            if step * slope < ROUNDING_GAIN:
                return SearchResult(trace, False, "line search stalled")
        state, grad = new, new_grad
        trace.append(state)
        step = min(step * 2.0, INITIAL_STEP)
    if state.gradient_norm < tol:
        return SearchResult(trace, True, "gradient norm below tolerance")
    return SearchResult(trace, False, "iteration limit reached")
