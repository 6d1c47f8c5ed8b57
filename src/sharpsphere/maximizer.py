"""Curvature-scaled ascent on the restriction ratio over band-limited sphere functions.

The objective is Phi(f) = ||ext f||_4 / ||f||_2, parametrized by real harmonic
coefficients. Phi^4 is (2 pi)^3 Q(f, f_star, f, f_star) / ||f||_2^4 with Q the
zero-sum quadrilinear form, and for a band limit L every quadrature rule in
the ball-factorized evaluation of Q can be sized so the discrete value is the
continuous one up to rounding. That matters beyond accuracy: the computed
objective then provably never exceeds the sharp constant 2*pi, so an ascent
run that plateaus at 2*pi with vanishing non-constant energy is genuine
evidence, not a quadrature artifact.

Optimization is restricted to real coefficients. The complex symmetry group
(modulations omega -> exp(i xi . omega) f) makes maximizers non-isolated, and
ascent would wander along that manifold instead of settling.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .convolution import SliceColumn, pair_profile
from .harmonics import HarmonicCoeffs, _degree_index, n_coeffs, parity_signs
from .quadrature import build_ball_grid, build_sphere_grid, exact_sizes

__all__ = [
    "OptimizerState",
    "SearchResult",
    "Workspace",
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
    """Quadrature tables for exact evaluation of Q at band limit L.

    Sizing: exact_sizes(L, 2L), since on each slice f(p) f_star(x - p) is a
    trigonometric polynomial of degree 2L; 17, 18, 18 at L=8. n_c is even so
    each slice node's opposite is a node, built by explicit negation; the
    partner point x - omega(phi_j) is then omega(phi_{j + n_c/2}) itself, and
    profiles pair two fields on the same nodes (pair_profile).

    Tables: every slice is a z-rotation of a slice in the first azimuth column
    of the ball grid, so the harmonics are tabulated at the n_r n_t n_c nodes
    of that column only (slices, a SliceColumn) and every other column comes
    from per-order cos/sin combinations. basis is that table: 3.6 MB at L=8,
    about 88 MB at L=16, growing like L^5.

    Antipodal fold: the ball grid maps x at (radius, polar ring i, azimuth
    row a) to -x at (radius, ring n_t-1-i, row a+n_t) with equal weight, and
    circle_frames gives -x the frame (-e1, e2), so the slice at -x is the
    negation of x's slice with node j going to node -j. For real coefficients
    f_star = f(-.), so the pair profile at -x sums the same products as at x:
    prof(-x) = prof(x) up to rounding, for every coefficient vector. Q is
    therefore twice the sum over azimuth rows a < n_t, and the fields are
    synthesized on those rows only; being an identity in the coefficients,
    the fold carries over to the gradient.

    Forward memo: the last forward pass (fields and profile) is kept under a
    copy of the exact coefficient bytes it was computed from, so q_gradient
    on the array q_value was just given (the line search's accepted trial)
    costs only the backward pass. Reuse requires bitwise-equal input, so a
    hit returns exactly what a fresh evaluation would.

    Curvature: the Hessian of log Phi^4 at the unit constant is diagonal by
    degree, lambda_k = -4 + 4 (2 + (-1)^k) / (2k + 1) on every slot of degree
    k (negative for k >= 1, weakest lambda_2 = -8/5); curvature holds it per
    flat slot, with the same formula (lambda_0 = 8) on the mean slot. search
    scales its steps by 1 / |curvature|.
    """

    def __init__(self, L: int):
        if L < 0:
            raise ValueError(f"band limit must be nonnegative, got {L}")
        self.L = L
        n_t, n_r, n_c = exact_sizes(L, 2 * L)
        self.ball = build_ball_grid(n_r, build_sphere_grid(n_t))
        self.n_c = n_c
        self.slices = SliceColumn(self.ball, n_c, L)
        self.basis = self.slices.table
        self.parity = parity_signs(L)
        self.curvature = -4.0 + 4.0 * (2.0 + self.parity) / (2 * _degree_index(L) + 1)
        self._trig = self.slices.trig[:n_t]
        self._memo = (None, None)

    def _forward(self, coeffs: np.ndarray):
        # (q, fields, prof): f and f_star = f(-.) at the slice nodes of the
        # first n_t azimuth rows, fields of shape (2, n_t, column centres,
        # n_c), and their pair profile.
        coeffs = np.asarray(coeffs, dtype=float)
        key = coeffs.tobytes()
        memo_key, memo = self._memo   # one read, so key and value always match
        if memo_key == key:
            return memo
        col = self.slices
        spec = col.spectra(np.stack([coeffs, self.parity * coeffs]))
        fields = (self._trig @ spec).reshape(2, len(self._trig), -1, self.n_c)
        prof = pair_profile(*fields, col.radii)
        q = 2.0 * float(col.weights @ np.sum(prof * prof, axis=0))
        self._memo = (key, (q, fields, prof))
        return q, fields, prof

    def q_value(self, coeffs: np.ndarray) -> float:
        """Q(f, f_star, f, f_star) for real coefficients; nonnegative."""
        return self._forward(coeffs)[0]

    def q_gradient(self, coeffs: np.ndarray):
        """Q and its coefficient gradient, sharing the forward pass."""
        col = self.slices
        q, fields, prof = self._forward(coeffs)
        # dQ/d(field value at node p) is g_n times the partner field at the
        # opposite node, with g_n = 2 w_n prof_n * angle_weight / r_n, doubled
        # by the fold. trig^T folds the azimuth rows into Fourier rows before
        # the slice halves swap to reach the opposite nodes, and pullback
        # routes the rows to the coefficients (through parity for f_star).
        g = (8.0 * np.pi / self.n_c) * col.weights * prof / col.radii
        rows = self._trig.T @ (g[..., None] * fields[::-1]).reshape(2, len(self._trig), -1)
        rows = rows.reshape(2, -1, 2, self.n_c // 2)[:, :, ::-1].reshape(rows.shape)
        d = col.pullback(rows)
        return q, d[0] + self.parity * d[1]


@lru_cache(maxsize=4)
def make_workspace(L: int) -> Workspace:
    return Workspace(L)


def _workspace_for(c: HarmonicCoeffs, workspace: Workspace | None) -> Workspace:
    if workspace is None:
        return make_workspace(c.max_degree)
    if workspace.L != c.max_degree:
        raise ValueError(f"workspace band limit {workspace.L} does not match the "
                         f"coefficients' band limit {c.max_degree}")
    return workspace


def _as_real_coeffs(c: HarmonicCoeffs) -> np.ndarray:
    arr = np.asarray(c.coeffs)
    if np.iscomplexobj(arr):
        if np.max(np.abs(arr.imag)) != 0.0:
            raise ValueError("optimizer works on real coefficient vectors")
        arr = arr.real
    return arr.astype(float)


def objective_phi(c: HarmonicCoeffs, workspace: Workspace | None = None) -> float:
    """Phi(f) = ((2 pi)^3 Q)^(1/4) / ||f||_2 for the synthesized f."""
    arr = _as_real_coeffs(c)
    nrm2 = float(arr @ arr)
    if nrm2 == 0.0:
        raise ValueError("Phi is undefined for the zero function")
    ws = _workspace_for(c, workspace)
    q = ws.q_value(arr)
    return float(((2.0 * np.pi) ** 3 * q) ** 0.25 / np.sqrt(nrm2))


def gradient(c: HarmonicCoeffs, workspace: Workspace | None = None) -> np.ndarray:
    """Gradient of log Phi^4 = log((2 pi)^3 Q) - 2 log ||f||_2^2 in coefficient space.

    The log form is scale-free: constants (of either sign) are critical
    points, and the finite-difference oracle needs no renormalization.
    """
    arr = _as_real_coeffs(c)
    nrm2 = float(arr @ arr)
    if nrm2 == 0.0:
        raise ValueError("gradient is undefined for the zero function")
    ws = _workspace_for(c, workspace)
    q, dq = ws.q_gradient(arr)
    return dq / q - 4.0 * arr / nrm2


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
    13/40 were trapped.
    """
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


def search(init: HarmonicCoeffs, max_iter: int = 500, tol: float = 1e-8,
           workspace: Workspace | None = None) -> SearchResult:
    """Curvature-scaled ascent on log Phi^4 over the unit coefficient sphere.

    Each step moves along grad / |lambda| per coefficient slot, lambda the
    per-degree Hessian of log Phi^4 at the constant (Workspace.curvature),
    and renormalizes. A unit step is then a Newton step near the constant and
    every degree contracts at a comparable rate, where plain gradient ascent
    crawls along the weakest degree (lambda_2 = -8/5). The scaling is
    diagonal by degree, so the odd-degree invariant subspace stays invariant.

    Line search: the step starts at INITIAL_STEP = 1, halves on a trial that
    does not strictly increase Phi, and after an accepted step doubles back
    up, capped at INITIAL_STEP; the trace is therefore strictly increasing.
    The run stops with "line search stalled" when a rejected trial halves the
    step to where its first-order gain in log Phi^4, step * (grad . grad /
    |lambda|), is below ROUNDING_GAIN, the rounding level of log Phi^4: no
    shorter trial can show an increase. Convergence means gradient_norm < tol.
    The trace holds the initial state and every accepted state.
    """
    arr = _as_real_coeffs(init)
    if not np.any(arr):
        raise ValueError("initial coefficients must be nonzero")
    ws = _workspace_for(init, workspace)
    L = init.max_degree
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
            trial = arr + step * direction
            trial = trial / np.linalg.norm(trial)
            q_trial = ws.q_value(trial)
            phi_trial = float(((2.0 * np.pi) ** 3 * q_trial) ** 0.25)
            if phi_trial > state.objective:
                break
            step *= STEP_SHRINK
            if step * slope < ROUNDING_GAIN:
                return SearchResult(trace, False, "line search stalled")
        arr = trial
        state, grad = make_state(arr, step, iteration)
        trace.append(state)
        step = min(step * 2.0, INITIAL_STEP)
    if state.gradient_norm < tol:
        return SearchResult(trace, True, "gradient norm below tolerance")
    return SearchResult(trace, False, "iteration limit reached")
