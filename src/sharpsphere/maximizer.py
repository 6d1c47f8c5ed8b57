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

from .convolution import SlicePlan, _mode_weights, pair_profile
from .forms import default_form_grids
from .harmonics import HarmonicCoeffs, SphereFunction, _degree_index, n_coeffs, parity_signs
from .quadrature import _require_int, exact_sizes

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
    """Q and its gradient at band limit L, exact, on the forms ball route's grids.

    grids is default_form_grids at exact_sizes(L), the sizes that
    VerifyConfig(degree=L) defaults to: 17, 18, 34 at L=8.
    f and f_star = f(-.) are read as the forms route reads them: one SlicePlan
    of (f, +p) and (f, -p), sampled by the column grids.slice_column(L)
    (SliceColumn.sampler) as slice-angle modes from its one memo, which
    pair_profile pairs by Parseval, exactly at any n_c: n_c sizes only
    node-valued kernels, which Q and its gradient do not use. The column's
    table, basis, holds the modes of the harmonics on one azimuth column of
    slices: 3.4 MB at L=8, about 86 MB at L=16, growing like L^5. f is one
    row, synthesized on all 2 n_t azimuth rows, and f(-p) is that row on
    the mirrored rows (SplitValues.mirrored); a vector of pure parity
    (f_star = +-f) reads f(-p) at p with its sign instead. Coefficients equal,
    bit for bit, to the last call's reuse its plan.

    Coefficients are (L+1)^2 finite reals in the flat layout; any other
    length, or a NaN or infinite entry, raises ValueError (HarmonicCoeffs).

    Antipodal fold: the slices at -x are x's negated (see SliceColumn), and
    for real coefficients f_star = f(-.), so prof(-x) = prof(x) up to
    rounding for every coefficient vector. Q is therefore twice the sum over
    the azimuth rows a < n_t that the column synthesizes, and so is its
    gradient. The product of f and f_star is kept in the memo's product
    store, so q_gradient on the array q_value was just given (the line
    search's accepted trial) costs a read and the reverse pass: one reverse
    field on all 2 n_t azimuth rows, folded by trig^T, and one pullback row.
    So does q_gradient after a forms Q(f, f_star, f, f_star) on grids, but only
    while the column is one azimuth block (SliceColumn.blocks(), up to L=10
    at exact sizes): the store is keyed per row range, the Workspace samples
    rows [0, n_t) as one range and forms samples each block, so past one
    block the gradient forms its product again.

    Curvature: the Hessian of log Phi^4 at the unit constant is diagonal by
    degree, lambda_k = -4 + 4 (2 + (-1)^k) / (2k + 1) on every slot of degree
    k (negative for k >= 1, weakest lambda_2 = -8/5); curvature holds it per
    flat slot, with the same formula (lambda_0 = 8) on the mean slot. search
    scales its steps by 1 / |curvature|.
    """

    def __init__(self, L: int):
        n_t, n_r, n_c = exact_sizes(L)   # rejects L that is not a nonnegative integer
        self.L = L
        self.grids = default_form_grids(n_t=n_t, n_c=n_c, n_r=n_r)
        self.grids.slice_column(L)   # the table is built here, not in the first Q
        self.parity = parity_signs(L)
        self.curvature = -4.0 + 4.0 * (2.0 + self.parity) / (2 * _degree_index(L) + 1)
        self._plan = (None, None)   # the last coefficients, as (shape, bytes), and their plan

    @property
    def basis(self) -> np.ndarray:
        """The column's harmonic table, SliceColumn.table."""
        return self.grids.slice_column(self.L).table

    def _forward(self, coeffs: np.ndarray):
        # (col, q, values, prof): values are the SplitValues of f and f_star
        # on azimuth rows [0, n_t). Coefficients equal, bit for bit, to the
        # last call's reuse its plan, as q_gradient after q_value does; any
        # others are validated first, and the copy keeps the caller's array
        # writable
        col = self.grids.slice_column(self.L)
        arr = np.asarray(coeffs, dtype=float)
        key = (arr.shape, arr.tobytes())
        if key != self._plan[0]:
            f = SphereFunction.from_coeffs(HarmonicCoeffs(self.L, arr.copy()))
            self._plan = (key, SlicePlan([(f, False), (f, True)]))
        values = col.sampler(self._plan[1])(0, col.n_az // 2)
        prof = pair_profile(*values, col.radii)
        q = 2.0 * float(col.weights @ np.add.reduce(prof * prof, axis=0))
        return col, q, values, prof

    def q_value(self, coeffs: np.ndarray) -> float:
        """Q(f, f_star, f, f_star) for real coefficients; nonnegative."""
        return self._forward(coeffs)[1]

    def q_gradient(self, coeffs: np.ndarray):
        """Q and its coefficient gradient, sharing the forward pass."""
        col, q, (f, f_neg), prof = self._forward(coeffs)
        # dQ/d(mode k of f at p) is h_n sigma_k times mode k of f(-p), and
        # the reverse, with h_n = 2 w_n prof_n / r_n doubled by the fold and
        # sigma the pair's mode weights (_mode_weights); f and f(-p) read one
        # row with one sign, which goes on h. trig^T folds the azimuth rows
        # into Fourier rows, and pullback routes them to the coefficients.
        n_t = col.n_az // 2
        mirrored = f_neg.mirrored[0]
        h = (4.0 * f.re_sign) * col.weights * prof / col.radii
        g = np.empty((col.n_az if mirrored else n_t,) + f.re.shape[1:])
        # h times sigma per mode, from h repeated and sigma tiled: both runs
        # are long, where a broadcast along the short mode axis is not
        sigma = np.tile(_mode_weights(g.shape[-1], mirrored), h.shape[-1])
        hs = np.multiply(np.repeat(h, g.shape[-1], axis=-1), sigma,
                         out=g[:n_t].reshape(n_t, -1)).reshape(g[:n_t].shape)
        if not mirrored:
            # pure parity, f(-p) = e f(p) read at p: the two reverse fields
            # are one, routed to the coefficients as (e + parity) times it,
            # which is exactly 0 on the slots of the other parity
            np.multiply(hs, f.re, out=hs)
            d = col.pullback((col.trig[:n_t].T @ g.reshape(n_t, -1))[None])[0]
            return q, (f.re_sign * f_neg.re_sign + self.parity) * d[:self.parity.size]
        # rows [n_t, 2 n_t) take f's reverse field, written mirrored, and
        # rows [0, n_t) f(-p)'s, read off the mirrored rows
        split = f_neg.re.shape   # (n_t, rings, radii, modes)
        np.multiply(hs.reshape(split), f.re.reshape(split), out=col.mirrored(g[n_t:]))
        np.multiply(hs.reshape(split), f_neg.re, out=hs.reshape(split))
        d = col.pullback((col.trig.T @ g.reshape(col.n_az, -1))[None])[0]
        return q, d[:self.parity.size]   # the column may reach past L


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
