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

from .convolution import (SliceColumn, SlicePlan, _backed, _chunks, pair_profile,
                          pair_slice_average)
from .harmonics import HarmonicCoeffs, SphereFunction, _turn, harmonic_values
from .quadrature import (BallGrid, SphereGrid, _gauss_legendre, _is_product_grid, _norm3, _real,
                         _require_int, build_ball_grid, build_sphere_grid, circle_frames)

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
# Bytes a sample counted for a chunk of gamma_samples: its y, frames, psi and
# omega_3 terms, with the temporaries that form them, trace at about 270 B
_GAMMA_SAMPLE_BYTES = 256


@dataclass(frozen=True)
class GammaSample:
    """Four unit vectors with zero sum."""

    omegas: np.ndarray

    def __post_init__(self):
        om = _real(self.omegas, "sample vectors")
        if om.shape != (4, 3):
            raise ValueError(f"expected four 3-vectors, got shape {om.shape}")
        if not np.isfinite(om).all():
            raise ValueError(f"sample vectors must be finite, got {om.tolist()}")
        object.__setattr__(self, "omegas", om)
        norms = np.linalg.norm(om, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-13:
            raise ValueError("sample vectors must be unit length")
        if np.linalg.norm(om.sum(axis=0)) > 1e-12:
            raise ValueError("sample vectors must sum to zero")


def _uniform_sphere(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal((n, 3))
    return v / _norm3(v)[:, None]


def gamma_samples(rng: np.random.Generator, n: int) -> np.ndarray:
    """n zero-sum quadruples, shape (n, 4, 3).

    omega_1, omega_2 uniform on the sphere (rejecting near-antipodal draws
    with |omega_1 + omega_2| < 1e-8), omega_3 uniform on the circle the
    constraint leaves for it, omega_4 the forced remainder. No claim is made
    that this is any particular measure on the manifold; it only needs to
    cover it, since the identities being fuzzed hold pointwise. n is a
    nonnegative integer.

    Every value is written into the output, 96 B a sample, one chunk of
    samples at a time (_chunks at _GAMMA_SAMPLE_BYTES a sample), so beyond
    the output and a rejection mask of 1 B a sample its temporaries stay
    within 2 _CHUNK_BYTES (512 KiB). The draws keep the order of one draw of
    all n: omega_1, omega_2, the redraws of rejected omega_2, then psi per
    chunk, while omega_3 and omega_4 are formed sample by sample.
    """
    _require_int(n, "n", 0)
    out = np.empty((n, 4, 3))
    w1, w2, w3, w4 = out.transpose(1, 0, 2)
    chunks = [slice(i0, i1) for i0, i1 in _chunks(n, _GAMMA_SAMPLE_BYTES)]
    for w in (w1, w2):
        for s in chunks:
            w[s] = _uniform_sphere(rng, s.stop - s.start)
    bad = np.empty(n, dtype=bool)
    while True:
        for s in chunks:
            bad[s] = _norm3(w1[s] + w2[s]) < 1e-8
        if not np.any(bad):
            break
        w2[bad] = _uniform_sphere(rng, int(bad.sum()))
    for s in chunks:
        y = -(w1[s] + w2[s])
        centers, rho, e1, e2 = circle_frames(y)
        psi = rng.uniform(0.0, 2.0 * np.pi, len(y))
        w3[s] = centers + rho[:, None] * (np.cos(psi)[:, None] * e1 + np.sin(psi)[:, None] * e2)
        w4[s] = y - w3[s]
    return out


def four_identity_many(omegas: np.ndarray) -> np.ndarray:
    """|w1+w2||w3+w4| + |w1+w3||w2+w4| + |w1+w4||w2+w3| per quadruple, batched.

    Equals 4 on zero-sum quadruples (GammaSample.omegas, gamma_samples); a
    single (4, 3) quadruple gives an array of one value. Any other shape, or
    a non-finite entry, raises ValueError.
    """
    om = _real(omegas, "quadruples")
    if om.ndim == 2:
        om = om[None]
    if om.ndim != 3 or om.shape[1:] != (4, 3):
        raise ValueError(f"expected shape (4, 3) or (n, 4, 3), got {np.shape(omegas)}")
    bad = ~np.isfinite(om).all(axis=(1, 2))
    if bad.any():
        raise ValueError(f"quadruples must be finite, got {om[bad][0].tolist()}")
    def pn(i, j):
        return _norm3(om[:, i] + om[:, j])
    return pn(0, 1) * pn(2, 3) + pn(0, 2) * pn(1, 3) + pn(0, 3) * pn(1, 2)


class PairKernel:
    """A pair kernel of the paper's proof, f(omega) g(nu) |omega + nu|^w or,
    squared, |f(omega) g(nu)|^2 |omega + nu|^w: f tensor g for Q, F = f
    tensor f |omega + nu|, |F|^2 and 1, on f or on f#.

    factors are two functions f and g, or () for 1; w is sum_weight_power.
    A call evaluates the structure, and the ball route pairs it (see
    bilinear_b). Any other kernel is a plain callable F(omega, nu). factors
    other than a tuple of none or two functions, a sum_weight_power that is
    not a finite real number (a bool neither), or a squared that is not a
    bool, raise ValueError.
    """

    def __init__(self, factors=(), *, sum_weight_power: float = 0, squared: bool = False):
        if not (isinstance(factors, tuple) and len(factors) in (0, 2)
                and all(callable(f) for f in factors)):
            raise ValueError(f"factors must be () or two functions, got {factors!r}")
        w = sum_weight_power
        if (not isinstance(w, (int, float, np.integer, np.floating)) or isinstance(w, bool)
                or not np.isfinite(w)):
            raise ValueError(f"sum_weight_power must be a finite real number, got {w!r}")
        if not isinstance(squared, bool):
            raise ValueError(f"squared must be a bool, got {squared!r}")
        self.factors = factors
        self.sum_weight_power = sum_weight_power
        self.squared = squared

    def __call__(self, omega, nu):
        vals = (self.factors[0](omega) * self.factors[1](nu) if self.factors
                else np.ones(np.shape(omega)[:-1]))
        if self.squared:
            vals = np.abs(vals) ** 2
        if self.sum_weight_power:
            vals = vals * np.linalg.norm(omega + nu, axis=-1) ** self.sum_weight_power
        return vals

    @classmethod
    def tensor(cls, f, g) -> "PairKernel":
        """f tensor g: (omega, nu) -> f(omega) g(nu), with no pair-sum weight."""
        return cls((f, g))

    @classmethod
    def one(cls) -> "PairKernel":
        return cls()

    def abs_squared(self):
        """|F|^2: a squared PairKernel, or, of a squared one, a plain callable."""
        if self.squared:
            return lambda omega, nu: np.abs(self(omega, nu)) ** 2
        return PairKernel(self.factors, sum_weight_power=2 * self.sum_weight_power,
                          squared=True)


def weighted_pair_kernel(f: SphereFunction) -> PairKernel:
    """F(omega, nu) = f(omega) f(nu) |omega + nu|, the tensor square with pair-sum weight."""
    return PairKernel((f, f), sum_weight_power=1)


@dataclass(frozen=True)
class FormGrids:
    """Quadrature bundle for Q and B: a ball grid and the slice node count n_c,
    a positive integer. The outer route takes its polar rings about the
    nodes of ball.directions.

    The ball route memoizes a SliceColumn on this object, through the largest
    band limit asked for so far: the factors of the harmonics' slice-angle
    modes on one azimuth column of slices, a rotation block per polar ring
    and degree and the Legendre values per radius, at every n_c: 0.25 MB at
    L=8 on n_t=24, n_r=24, so repeated Q/B evaluations pay for geometry and
    basis once. The column's memo of the last call's rows and their
    products (SliceColumn.recall; 1.9 MB a row above), with rows identified
    as SlicePlan states, lets a chain of Q/B calls on one f, such as the
    paper's Q(f, f*, f, f*) <= Q(f#, f#, f#, f#), Q(f, f, f, f) = 3/4 B(F, F)
    and B(F, F) <= B(|F|^2, 1), run one synthesis pass (SliceColumn.synthesize)
    for f's rows at +-p: two, or four for complex f, and keeps f#'s
    products in the same store. |F|^2 pairs on its band limit's own rule
    (pair_profile), exactly at every n_c, f# included. n_c sizes only
    unsquared f#, read at the slice nodes one chunk of slices at a time and
    kept nowhere, and plain callables and kernels with a literal factor,
    which take pair_slice_average at the ball grid's nodes.
    The Plancherel norms (conv_l2_norm, l4_norm) are Q on this route and
    share the column. The ascent (maximizer.Workspace) takes the slice-free
    radial route instead, which verify checks against this one
    (q_radial_vs_ball_max_rel_dev).
    """

    ball: BallGrid
    n_c: int

    def __post_init__(self):
        _require_int(self.n_c, "n_c")
        object.__setattr__(self, "_slice_cache", None)

    def slice_column(self, L: int) -> SliceColumn:
        """The memoized SliceColumn, rebuilt when its table stops short of degree L.
        A lower L reads the larger column, whose rotation blocks were projected on
        a finer grid, so its values may move by ulps: 4 for a degree-2 Q after a
        degree-8 Q on exact_sizes(8) grids, against fresh grids."""
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
        ||ext f||_4^2 = (2 pi)^{3/2} ||f sigma * f_star sigma||_2.
        """
        return float(np.sqrt((2.0 * np.pi) ** 1.5
                             * self.conv_l2_norm(f, f.antipodal_conjugate())))


def default_form_grids(*, n_t: int, n_c: int, n_r: int) -> FormGrids:
    """The FormGrids of given sizes; exact_sizes(L) makes them exact at band limit L."""
    return FormGrids(ball=build_ball_grid(n_r, build_sphere_grid(n_t)), n_c=n_c)


def _polar_ring(nodes: np.ndarray, n_t: int, n_phi: int):
    """Polar nodes nu about each outer node omega, a row of nodes, in blocks of them.

    nu = t omega + s (cos phi e1 + sin phi e2) with t = 1 - 2u^2,
    s = 2u sqrt(1 - u^2) and the circle_frames frame of omega, so
    |omega - nu| = 2u and d sigma(nu) = 4u du dphi. u takes n_t + 1
    Gauss-Legendre nodes on (0, 1), n_t the grid's polar node count; phi takes
    n_phi uniform nodes. Returns u and its weight w_u per ring node, and blocks
    of (sel, nu), nu of shape (outer nodes in sel * ring nodes, 3), outer-major.
    """
    u, w_u = _gauss_legendre(n_t + 1)
    u, w_u = 0.5 * (u + 1.0), 0.5 * w_u
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    s = 2.0 * u * np.sqrt(1.0 - u * u)
    # ring nodes in the frame (omega, e1, e2) of an outer node
    ring = np.column_stack([np.repeat(1.0 - 2.0 * u * u, n_phi),
                            np.outer(s, np.cos(phi)).ravel(),
                            np.outer(s, np.sin(phi)).ravel()])
    _, _, e1, e2 = circle_frames(nodes)
    frames = np.stack([nodes, e1, e2], axis=1)
    block = max(1, _POLAR_NODES // len(ring))
    sels = [slice(i0, i0 + block) for i0 in range(0, len(nodes), block)]
    return (np.repeat(u, n_phi), np.repeat(w_u, n_phi),
            ((sel, (ring @ frames[sel]).reshape(-1, 3)) for sel in sels))


def _on_column(K) -> bool:
    # K is a PairKernel whose factors are all backed by coefficient rows (SlicePlan)
    return isinstance(K, PairKernel) and all(_backed(f) for f in K.factors)


def _kernel_profile(K, values, col: SliceColumn, ball: BallGrid, negate: bool) -> np.ndarray:
    """K's pair profile at the nodes x (-x if negate) of ball's azimuth rows [0, n_t).

    A PairKernel whose factors are backed by coefficient rows pairs them,
    which values yields on the column's slices as SplitValues, in
    pair_profile, as |ab|^2 = |a|^2 |b|^2 when squared, and |omega + nu| =
    |x| = r; pair_profile picks the nodes |.|^2 is paired on. The constant
    kernel gives 2 pi / r. Any other kernel, a plain callable or one with a
    literal factor, takes the literal pair_slice_average at x.
    """
    r, n_t = col.radii, col.n_t
    if not _on_column(K):
        x = ball.points().reshape(r.size, 2 * n_t, 3)[:, :n_t].swapaxes(0, 1)
        x = -x if negate else x
        return pair_slice_average(K, x.reshape(-1, 3), col.n_c).reshape(x.shape[:-1])
    if K.factors:
        prof = pair_profile(next(values), next(values), r, K.squared)
    else:
        prof = np.broadcast_to(2.0 * np.pi / r, (n_t, r.size))
    return prof * r ** K.sum_weight_power


def _b_ball(F, G, grids: FormGrids) -> complex:
    # Ball rows a >= n_t hold -x of rows a < n_t with equal weight, so B sums
    # w (PF(x) PG(-x) + PF(-x) PG(x)) over rows a < n_t.
    # Factors backed by coefficient rows are sampled at p, and at -p from
    # parity-flipped coefficient rows on the same azimuth rows, through one
    # plan and one column (row identity: SlicePlan; the memo of rows
    # and products across calls: SliceColumn.recall). Every profile sums
    # real products of the sampled parts, each formed once (pair_profile):
    # F's profile at -x for F = f tensor f_star, and G's in
    # Q(f, g, f_star, g_star), read the products of F's at x, the same held
    # rows swapped, and so do G's on F's factors, which get F's sampled
    # values and stores; for G = F they are all reads. Other kernels take
    # pair_slice_average.
    kernels = [(F, False), (F, True), (G, True), (G, False)]
    plan = SlicePlan([(f, negate) for K, negate in kernels if _on_column(K) for f in K.factors])
    col = grids.slice_column(plan.degree)
    values = iter(col.sampler(plan))
    fx, fnx, gnx, gx = (_kernel_profile(K, values, col, grids.ball, n) for K, n in kernels)
    return complex(np.sum(col.weights * (fx * gnx + fnx * gx)))


def _b_outer(F, G, grids: FormGrids) -> complex:
    # omega_2 = -nu, so G's slice sum at nu - omega_1 divides by 2u, which the
    # ring weight 4u du dphi multiplies back
    dirs = grids.ball.directions
    n_phi = dirs.exactness_degree + 1   # 2 n_t
    u, w_u, blocks = _polar_ring(dirs.nodes, n_phi // 2, n_phi)
    w = 4.0 * u * w_u * (2.0 * np.pi / n_phi)
    total = 0.0 + 0.0j
    for sel, nu in blocks:
        omega = np.repeat(dirs.nodes[sel], w.size, axis=0)
        vals = F(omega, -nu) * pair_slice_average(G, nu - omega, grids.n_c)
        total += np.sum(dirs.weights[sel] * (vals.reshape(-1, w.size) @ w))
    return complex(total)


def quadrilinear_q(f1, f2, f3, f4, grids: FormGrids, method: str = "ball"):
    """Q(f1, f2, f3, f4): integral of the product over zero-sum quadruples.

    Q is B(f1 tensor f2, f3 tensor f4): the constraint factors through
    x = omega_1 + omega_2 = -(omega_3 + omega_4). See bilinear_b for routes.
    """
    return bilinear_b(PairKernel.tensor(f1, f2), PairKernel.tensor(f3, f4), grids, method)


def bilinear_b(F, G, grids: FormGrids, method: str = "ball"):
    """B(F, G): pair kernels integrated against the zero-sum pairing measure.

    F and G are PairKernels or plain callables F(omega, nu). method="ball"
    integrates F's pair profile at x times G's at -x over the ball, exact
    to rounding for band-limited ingredients on exact_sizes grids. It folds
    over the antipodal symmetry of the ball grid, summing PF(x) PG(-x) +
    PF(-x) PG(x) over the first n_t azimuth rows; G = F takes the same four
    profiles, G's read from the products of F's. A PairKernel whose factors
    are coefficient-backed, or sharp rearrangements of such, pairs them
    sampled on the column at p and at -p (pair_profile): in slice-angle
    modes, and squared on the band limit's own rule, exactly at every n_c;
    unsquared sharp factors at the slice nodes, n_c or, at odd n_c, 2 n_c.
    Any other kernel, a plain callable or one with a literal factor, takes
    the literal pair_slice_average at the ball grid's nodes, four times.
    method="outer", the cross-check, integrates F(omega_1, omega_2) times
    G's literal slice profile at -(omega_1 + omega_2) over omega_2 on the
    polar ring about -omega_1 (2 n_t azimuths), whose Jacobian cancels the
    profile's 1/|omega_1 + omega_2|; it is exact to rounding on
    exact_sizes(L) grids too. A non-finite result raises ValueError.
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
    degree-2L product with conj(g). So H is exact to rounding, and real up
    to rounding (Hermitian kernel), for g of degree <= n_t - 1; a
    coefficient-backed g of higher degree raises ValueError.

    When every g is coefficient-backed and grid is build_sphere_grid(n_t),
    whose 2 n_t uniform azimuths make the ring about the node at (polar
    ring i, azimuth a) that about (i, 0) turned about z by a pi / n_t
    (circle_frames is z-equivariant), the ring-weighted harmonic sums are
    tabulated about the n_t nodes of azimuth 0 alone, and each g reaches
    the other azimuths turned (_turn), its coefficients mixed order by
    order: the same sums regrouped, free of Lambda_k. Otherwise, a literal
    callable among gs or another grid, every g is evaluated at every ring
    node (SlicePlan.at), where non-finite values raise ValueError. No
    functions give an empty array.
    """
    if not len(gs):
        return np.zeros(0)
    n_t = (grid.exactness_degree + 1) // 2
    coeffs = [getattr(g, "coeffs", None) for g in gs]
    for c in coeffs:
        if c is not None and c.max_degree > n_t - 1:
            raise ValueError(f"g has degree {c.max_degree}; the direct route on a grid with "
                             f"n_t = {n_t} is exact for degree <= {n_t - 1} only")
    on_column = all(c is not None for c in coeffs) and _is_product_grid(grid)
    if on_column:   # the harmonics themselves, at and about azimuth 0's nodes
        L = max(c.max_degree for c in coeffs)
        rows = np.zeros((len(gs), (L + 1) ** 2),
                        dtype=np.result_type(*(c.coeffs for c in coeffs)))
        for row, c in zip(rows, coeffs):
            row[:len(c.coeffs)] = c.coeffs
        nodes = grid.nodes[::2 * n_t]

        def values(p):
            return harmonic_values(L, p)
    else:
        plan = SlicePlan([(g, False) for g in gs])
        nodes = grid.nodes

        def values(p):
            return np.stack(plan.at(p))
    u, w_u, blocks = _polar_ring(nodes, n_t, n_t)
    ring_w = 8.0 * u * u * w_u * (2.0 * np.pi / n_t)
    outer = values(nodes)
    inner = np.concatenate([values(nu).reshape(len(outer), -1, ring_w.size) @ ring_w
                            for _, nu in blocks], axis=1)
    if on_column:
        # per g, azimuth a and polar ring i: g turned by a pi / n_t, at and
        # about the node at (i, 0)
        turned = (_turn(rows[:, None], np.arange(2 * n_t) * (np.pi / n_t))
                  @ np.concatenate([outer, inner], axis=1))
        outer, inner = np.split(turned, 2, axis=-1)
        acc = np.sum(np.conj(outer) * grid.weights.reshape(n_t, 2 * n_t).T * inner, axis=(1, 2))
    else:
        acc = np.sum(np.conj(outer) * grid.weights * inner, axis=1)
    if np.all(acc.imag == 0.0):
        return acc.real
    return acc


def h_spectral(c: HarmonicCoeffs, multipliers: np.ndarray) -> float:
    """H(g) in coefficient space: 2*pi * sum_k Lambda_k * (degree-k energy).

    multipliers are the chord multipliers Lambda_0..Lambda_K
    (lambda_closed_form or chord_spectrum_quadrature); K below the
    coefficients' degree raises ValueError.
    """
    if len(multipliers) <= c.max_degree:
        raise ValueError(
            f"multipliers cover degrees <= {len(multipliers) - 1}, "
            f"coefficients reach {c.max_degree}")
    energies = c.degree_energies()
    return float(2.0 * np.pi * np.sum(multipliers[:len(energies)] * energies))
