"""Multilinear forms over sphere quadruples with zero sum, and the chord functional.

Everything here orbits one geometric fact: four unit vectors summing to zero
split into two pairs whose sums are opposite points of the ball |x| <= 2, so
integrals over the zero-sum manifold factor through convolution profiles on
that ball. The quadrilinear form Q and bilinear form B are evaluated by that
factorization; an independent outer route, a double sphere integral,
cross-checks it, since the factorized route is the one every headline number
depends on. The Plancherel norms are Q too: ||f sigma * g sigma||_2^2 is
Q(f, g, f_star, g_star) (FormGrids.conv_l2_norm, FormGrids.l4_norm).

H(g), the chord-kernel quadratic functional, gets the same dual treatment:
a direct double quadrature (h_direct_many) versus the diagonal form
2*pi*sum_k Lambda_k * (degree-k energy) in harmonic coefficients
(h_spectral). Both double integrals run on one polar ring about each outer
node, with t = 1 - 2u^2, where the chord is 2u (see _polar_ring): exact for
band-limited input, and free of Lambda_k.
"""

from dataclasses import dataclass

import numpy as np

from .convolution import SliceColumn, SlicePlan, pair_profile, pair_slice_average
from .harmonics import HarmonicCoeffs, SphereFunction
from .legendre import CHORD_KERNEL_ID, FunkHeckeSpectrum
from .quadrature import (BallGrid, SphereGrid, _require_int, build_ball_grid,
                         build_sphere_grid, circle_frames)

__all__ = [
    "GammaSample",
    "PairKernel",
    "FormGrids",
    "weighted_pair_kernel",
    "default_form_grids",
    "quadrilinear_q",
    "bilinear_b",
    "gamma_samples",
    "four_identity_many",
    "h_direct_many",
    "h_spectral",
]

# Polar ring nodes per block of outer nodes; bounds the harmonic table and
# values of one block (H at L=8 on n_t=9 has 162 x 90 = 14580 polar nodes,
# four blocks of at most 45 x 90, each a 2.6 MB degree-8 harmonic table).
_POLAR_NODES = 1 << 12


@dataclass(frozen=True)
class GammaSample:
    """Four unit vectors with zero sum."""

    omegas: np.ndarray

    def __post_init__(self):
        om = np.asarray(self.omegas, dtype=float)
        if om.shape != (4, 3):
            raise ValueError(f"expected four 3-vectors, got shape {om.shape}")
        object.__setattr__(self, "omegas", om)
        norms = np.linalg.norm(om, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-13:
            raise ValueError("sample vectors must be unit length")
        if np.linalg.norm(om.sum(axis=0)) > 1e-12:
            raise ValueError("sample vectors must sum to zero")


def _uniform_sphere(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def gamma_samples(rng: np.random.Generator, n: int) -> np.ndarray:
    """n zero-sum quadruples, shape (n, 4, 3).

    omega_1, omega_2 uniform on the sphere (rejecting near-antipodal draws
    with |omega_1 + omega_2| < 1e-8), omega_3 uniform on the circle the
    constraint leaves for it, omega_4 the forced remainder. No claim is made
    that this is any particular measure on the manifold; it only needs to
    cover it, since the identities being fuzzed hold pointwise.
    """
    w1 = _uniform_sphere(rng, n)
    w2 = _uniform_sphere(rng, n)
    while True:
        bad = np.linalg.norm(w1 + w2, axis=1) < 1e-8
        if not np.any(bad):
            break
        w2[bad] = _uniform_sphere(rng, int(bad.sum()))
    y = -(w1 + w2)
    centers, rho, e1, e2 = circle_frames(y)
    psi = rng.uniform(0.0, 2.0 * np.pi, n)
    w3 = centers + rho[:, None] * (np.cos(psi)[:, None] * e1 + np.sin(psi)[:, None] * e2)
    w4 = y - w3
    return np.stack([w1, w2, w3, w4], axis=1)


def four_identity_many(omegas: np.ndarray) -> np.ndarray:
    """|w1+w2||w3+w4| + |w1+w3||w2+w4| + |w1+w4||w2+w3| per quadruple, batched.

    Equals 4 on zero-sum quadruples (GammaSample.omegas, gamma_samples); a
    single (4, 3) quadruple gives an array of one value.
    """
    om = np.asarray(omegas, dtype=float)
    if om.ndim == 2:
        om = om[None]
    def pn(i, j):
        return np.linalg.norm(om[:, i] + om[:, j], axis=1)
    return pn(0, 1) * pn(2, 3) + pn(0, 2) * pn(1, 3) + pn(0, 3) * pn(1, 2)


class PairKernel:
    """A kernel F(omega, nu) on pairs of unit vectors.

    Always carries a point evaluator. Kernels of the special shape
    mag(f(omega) g(nu)) * |omega + nu|^p additionally record that structure
    (factors, sum_weight_power, magnitude_power); the slice-average routines
    then evaluate the factors through a shared harmonic table and replace
    |omega + nu| on a slice at x by |x| itself, which is what the analytic
    slice nodes satisfy exactly. factors = () means the constant kernel 1;
    factors = None means no structure is known.
    """

    def __init__(self, evaluator, *, factors=None, sum_weight_power: int = 0,
                 magnitude_power: int | None = None):
        self.evaluator = evaluator
        self.factors = factors
        self.sum_weight_power = sum_weight_power
        self.magnitude_power = magnitude_power

    def __call__(self, omega, nu):
        return self.evaluator(omega, nu)

    @classmethod
    def tensor(cls, f, g) -> "PairKernel":
        """f tensor g: (omega, nu) -> f(omega) g(nu), with no pair-sum weight."""
        return cls(lambda omega, nu: f(omega) * g(nu), factors=(f, g))

    @classmethod
    def one(cls) -> "PairKernel":
        return cls(lambda omega, nu: np.ones(np.shape(omega)[:-1]), factors=())

    def abs_squared(self) -> "PairKernel":
        ev = self.evaluator
        def squared(omega, nu):
            return np.abs(ev(omega, nu)) ** 2
        if self.factors is None:
            return PairKernel(squared)
        return PairKernel(
            squared, factors=self.factors, sum_weight_power=2 * self.sum_weight_power,
            magnitude_power=2 * (self.magnitude_power or 1))


def weighted_pair_kernel(f: SphereFunction) -> PairKernel:
    """F(omega, nu) = f(omega) f(nu) |omega + nu|, the tensor square with pair-sum weight."""
    def ev(omega, nu):
        return f(omega) * f(nu) * np.linalg.norm(np.asarray(omega) + np.asarray(nu), axis=-1)
    return PairKernel(ev, factors=(f, f), sum_weight_power=1)


@dataclass(frozen=True)
class FormGrids:
    """Quadrature bundle for Q and B: a ball grid and the slice node count n_c,
    a positive integer. The outer route takes its polar rings about the
    nodes of ball.directions.

    The ball route memoizes a SliceColumn on this object, through the largest
    band limit asked for so far: the slice-angle modes of the harmonics on
    one azimuth column of slices, (L+1)^2 n_r n_t (2L+1) entries at every
    n_c, 6.3 MB at L=8 on n_t=24, n_r=24, so repeated Q/B evaluations pay for
    geometry and basis once. Its one memo (SliceColumn.recall), which every
    caller reads through SliceColumn.sampler, keeps the last call's
    coefficient rows synthesized as modes on azimuth rows [0, n_t) (1.9 MB a
    row above), so a chain of Q/B calls on one f, such as the
    paper's Q(f, f*, f, f*) <= Q(f#, f#, f#, f#), Q(f, f, f, f) =
    3/4 B(F, F) and B(F, F) <= B(|F|^2, 1), runs one spectra pass and one
    synthesis for f's rows. Next to the fields the memo keeps, per azimuth
    block, their real products, so B(F, F) reads the products Q(f, f, f, f)
    formed, and G's profiles in Q(f, f*, f, f*) read F's. |F|^2 of
    band-limited f pairs on its band limit's own rule (see _kernel_profile),
    exactly at every n_c, so only f# and literal factors read values at the
    slice nodes, which they expand per call and keep none of (2.7 MB a
    row and block of n_c=48 nodes above); n_c sizes only them and the
    literal routes. The Plancherel norms (conv_l2_norm, l4_norm) are Q on
    this route and share the column, and so does the ascent:
    maximizer.Workspace is these grids at exact_sizes(L).
    """

    ball: BallGrid
    n_c: int

    def __post_init__(self):
        _require_int(self.n_c, "n_c")
        object.__setattr__(self, "_slice_cache", None)

    def slice_column(self, L: int) -> SliceColumn:
        """The memoized SliceColumn, rebuilt when its table stops short of degree L."""
        col = self._slice_cache
        if col is None or col.L < L:
            col = SliceColumn(self.ball, self.n_c, L)
            object.__setattr__(self, "_slice_cache", col)
        return col

    def conv_l2_norm(self, f, g) -> float:
        """L2(R^3) norm of f sigma * g sigma, sqrt(Re Q(f, g, f_star, g_star)).

        The pair profile of f_star tensor g_star at -x is the conjugate of
        f tensor g's at x, so Q(f, g, f_star, g_star) is the ball integral
        of |f sigma * g sigma|^2, on the ball route over these grids.
        """
        q = quadrilinear_q(f, g, f.antipodal_conjugate(), g.antipodal_conjugate(), self)
        return float(np.sqrt(max(q.real, 0.0)))   # Re Q >= 0 up to rounding

    def l4_norm(self, f) -> float:
        """L4(R^3) norm of the extension of f.

        Plancherel turns the quartic integral into the L2 norm of the
        convolution of f sigma with its antipodal conjugate:
        ||ext f||_4^2 = (2 pi)^{3/2} ||f sigma * f_star sigma||_2. The
        conjugate of f_star is f itself (SphereFunction.antipodal_conjugate),
        so a literal callable is evaluated at two functions' nodes, not three.
        """
        return float(np.sqrt((2.0 * np.pi) ** 1.5
                             * self.conv_l2_norm(f, f.antipodal_conjugate())))


def default_form_grids(*, n_t: int, n_c: int, n_r: int) -> FormGrids:
    """The FormGrids of given sizes; exact_sizes(L) makes them exact at band limit L."""
    return FormGrids(ball=build_ball_grid(n_r, build_sphere_grid(n_t)), n_c=n_c)


def _polar_ring(grid: SphereGrid, n_phi: int):
    """Polar nodes nu about every node omega of grid, in blocks of outer nodes.

    nu = t omega + s (cos phi e1 + sin phi e2) with t = 1 - 2u^2,
    s = 2u sqrt(1 - u^2) and the circle_frames frame of omega, so
    |omega - nu| = 2u and d sigma(nu) = 4u du dphi. u takes n_t + 1
    Gauss-Legendre nodes on (0, 1), n_t the grid's polar node count; phi takes
    n_phi uniform nodes. Returns u and its weight w_u per ring node, and blocks
    of (sel, nu), nu of shape (outer nodes in sel * ring nodes, 3), outer-major.
    """
    n_t = (grid.exactness_degree + 1) // 2
    u, w_u = np.polynomial.legendre.leggauss(n_t + 1)
    u, w_u = 0.5 * (u + 1.0), 0.5 * w_u
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    s = 2.0 * u * np.sqrt(1.0 - u * u)
    # ring nodes in the frame (omega, e1, e2) of an outer node
    ring = np.column_stack([np.repeat(1.0 - 2.0 * u * u, n_phi),
                            np.outer(s, np.cos(phi)).ravel(),
                            np.outer(s, np.sin(phi)).ravel()])
    _, _, e1, e2 = circle_frames(grid.nodes)
    frames = np.stack([grid.nodes, e1, e2], axis=1)
    block = max(1, _POLAR_NODES // len(ring))
    sels = [slice(i0, i0 + block) for i0 in range(0, grid.n_nodes, block)]
    return (np.repeat(u, n_phi), np.repeat(w_u, n_phi),
            ((sel, (ring @ frames[sel]).reshape(-1, 3)) for sel in sels))


def _kernel_profile(K: PairKernel, values, col: SliceColumn, a0: int, a1: int,
                    negate: bool) -> np.ndarray:
    """K's pair profile at the ball nodes x (-x if negate) of azimuth rows a0:a1.

    A structured K, at any n_c, pairs its factors, which values yields on
    the column's slices as SplitValues, in pair_profile, as
    |ab|^p = |a|^p |b|^p and |omega + nu| = |x| = r at the analytic nodes:
    band-limited factors in slice-angle modes, exactly. |.|^p of even p of
    them is a trig polynomial of degree pL on each slice, so its pairing, of
    degree 2pL, is exact on the band limit's own 2(pL+1) uniform nodes, half
    of them partners of the other half; |.|^p of sharp or literal factors,
    and of odd p, is at the slice nodes, n_c or, at odd n_c, 2 n_c, each
    paired with its partner. The constant kernel gives 2 pi / r. An
    unstructured kernel takes the literal pair_slice_average at the ball nodes.
    """
    r = col.radii
    if K.factors is None:
        x = -col.centres(a0, a1) if negate else col.centres(a0, a1)
        return pair_slice_average(K, x.reshape(-1, 3), col.n_c).reshape(x.shape[:-1])
    if K.factors:
        va, vb = next(values), next(values)
        p, n_c = K.magnitude_power, None
        if p:
            if p % 2 == 0 and va.expansion is not None and vb.expansion is not None:
                n_c = 2 * (p * col.L + 1)   # the band limit's own rule, exact (see above)
            ma = va.magnitude(p, n_c)
            va, vb = ma, (ma if vb is va else vb.magnitude(p, n_c))
        prof = pair_profile(va, vb, r)
    else:
        prof = np.broadcast_to(2.0 * np.pi / r, (a1 - a0, r.size))
    return prof * r ** K.sum_weight_power if K.sum_weight_power else prof


def _b_ball(F: PairKernel, G: PairKernel, grids: FormGrids) -> complex:
    # Ball rows a >= n_t hold -x of rows a < n_t with equal weight, so B sums
    # w (PF(x) PG(-x) + PF(-x) PG(x)) over rows a < n_t. When G is F, its
    # profiles are F's and are not computed again; the sum keeps its form, so
    # the result is the same bit for bit.
    # Structured kernels' factors are sampled at p and -p from parity-flipped
    # coefficients; one column table serves both kernels, and shared rows are
    # synthesized once (or not at all, if the column's last call had them:
    # see SliceColumn.sampler). Every profile sums real products of the
    # sampled parts, each formed once per block (pair_profile): F's profile
    # at -x for F = f tensor f_star, and G's in Q(f, g, f_star, g_star), read
    # the products of F's at x, the same held rows swapped, and so do G's on
    # F's factors, which get F's sampled values and stores. A held row's node
    # values, for a kernel that needs them, are formed once per block too.
    kernels = [(F, False), (F, True)]
    if G is not F:
        kernels += [(G, True), (G, False)]
    plan = SlicePlan([(f, negate) for K, negate in kernels if K.factors for f in K.factors])
    col = grids.slice_column(plan.degree)
    sample = col.sampler(plan)
    total = 0.0 + 0.0j
    for a0, a1 in col.blocks():
        values = iter(sample(a0, a1))
        prof = [_kernel_profile(K, values, col, a0, a1, negate) for K, negate in kernels]
        fx, fnx, gnx, gx = prof if len(prof) == 4 else prof + prof[::-1]
        total += np.sum(col.weights * (fx * gnx + fnx * gx))
    return complex(total)


def _b_outer(F: PairKernel, G: PairKernel, grids: FormGrids) -> complex:
    # omega_2 = -nu, so G's slice sum at nu - omega_1 divides by 2u, which the
    # ring weight 4u du dphi multiplies back
    dirs = grids.ball.directions
    n_phi = dirs.exactness_degree + 1   # 2 n_t
    u, w_u, blocks = _polar_ring(dirs, n_phi)
    w = 4.0 * u * w_u * (2.0 * np.pi / n_phi)
    total = 0.0 + 0.0j
    for sel, nu in blocks:
        omega = np.repeat(dirs.nodes[sel], w.size, axis=0)
        vals = F.evaluator(omega, -nu) * pair_slice_average(G, nu - omega, grids.n_c)
        total += np.sum(dirs.weights[sel] * (vals.reshape(-1, w.size) @ w))
    return complex(total)


def quadrilinear_q(f1, f2, f3, f4, grids: FormGrids, method: str = "ball"):
    """Q(f1, f2, f3, f4): integral of the product over zero-sum quadruples.

    Q is B(f1 tensor f2, f3 tensor f4): the constraint factors through
    x = omega_1 + omega_2 = -(omega_3 + omega_4). See bilinear_b for routes.
    """
    return bilinear_b(PairKernel.tensor(f1, f2), PairKernel.tensor(f3, f4), grids, method)


def bilinear_b(F: PairKernel, G: PairKernel, grids: FormGrids, method: str = "ball"):
    """B(F, G): pair kernels integrated against the zero-sum pairing measure.

    method="ball" integrates F's pair profile at x times G's at -x over the
    ball, exact to rounding for band-limited ingredients on exact_sizes
    grids. It folds over the antipodal symmetry of the ball grid, summing
    PF(x) PG(-x) + PF(-x) PG(x) over the first n_t azimuth rows, and when G
    is F it computes F's two profiles only, with the same result bit for
    bit. Structured kernels pair their
    factors sampled on the column table at p and at -p: band-limited factors
    in slice-angle modes, |.|^p of even p among them, exactly at every n_c,
    and sharp and literal factors (and |.|^p of odd p) at the slice nodes,
    n_c or, at odd n_c, 2 n_c; an unstructured kernel takes the literal
    pair_slice_average at the ball nodes. method="outer", the
    cross-check, integrates F(omega_1, omega_2) times G's literal slice
    profile at -(omega_1 + omega_2) over omega_2 on the polar ring about
    -omega_1 (2 n_t azimuths), whose Jacobian cancels the profile's
    1/|omega_1 + omega_2|; it is exact to rounding on exact_sizes(L) grids
    too. A non-finite result raises ValueError.
    """
    if method not in ("ball", "outer"):
        raise ValueError(f"unknown method {method!r}")
    total = (_b_ball if method == "ball" else _b_outer)(F, G, grids)
    if not np.isfinite(total):
        raise ValueError(f"B evaluated to the non-finite value {total}")
    return total


def h_direct_many(gs, grid: SphereGrid):
    """H(g) for each g in gs, the double integral of conj(g(omega)) g(nu)
    |omega - nu|, by polar quadrature about each outer node.

    On the polar ring about omega (see _polar_ring) the chord is
    |omega - nu| = 2u and d sigma(nu) = 4u du dphi, so the inner integrand is
    8u^2 g(nu). With n_t the grid's polar node count and L = n_t - 1, a
    uniform phi-rule with n_t nodes averages g exactly to a polynomial of
    degree L in t, Gauss-Legendre with n_t + 1 nodes in u integrates the
    resulting degree 2L + 2 polynomial, and the outer grid integrates the
    degree-2L product with conj(g). So H is exact to rounding for g of
    degree <= n_t - 1, and real up to rounding for any g (Hermitian kernel).
    Non-finite values raise ValueError (SlicePlan.at). No functions give an
    empty array.
    """
    if not len(gs):
        return np.zeros(0)
    n_t = (grid.exactness_degree + 1) // 2
    u, w_u, blocks = _polar_ring(grid, n_t)
    ring_w = 8.0 * u * u * w_u * (2.0 * np.pi / n_t)
    plan = SlicePlan([(g, False) for g in gs])
    outer = np.conj(np.stack(plan.at(grid.nodes))) * grid.weights
    inner = np.concatenate(
        [np.stack(plan.at(nu)).reshape(len(gs), -1, ring_w.size) @ ring_w
         for _, nu in blocks], axis=1)
    acc = np.sum(outer * inner, axis=1)
    if np.all(acc.imag == 0.0):
        return acc.real
    return acc


def h_spectral(c: HarmonicCoeffs, spectrum: FunkHeckeSpectrum) -> float:
    """H(g) in coefficient space: 2*pi * sum_k Lambda_k * (degree-k energy)."""
    if spectrum.kernel_id != CHORD_KERNEL_ID:
        raise ValueError(
            f"spectrum is for kernel {spectrum.kernel_id!r}; H needs the chord kernel")
    if spectrum.max_degree < c.max_degree:
        raise ValueError(
            f"spectrum covers degrees <= {spectrum.max_degree}, "
            f"coefficients reach {c.max_degree}")
    energies = c.degree_energies()
    return float(2.0 * np.pi * np.sum(spectrum.multipliers[:len(energies)] * energies))
