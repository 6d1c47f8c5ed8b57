"""Shared random-geometry helpers and diagnostics for the test suite."""

import math

import numpy as np

from sharpsphere import (SphereFunction, build_sphere_grid, forms, harmonic_values, harmonics,
                         random_band_limited)
from sharpsphere.convolution import SplitValues
from sharpsphere.quadrature import _norm3, _require_int, circle_frames


def unit_vectors(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def ball_points(rng: np.random.Generator, n: int, r_min: float = 1e-3,
                r_max: float = 2.0) -> np.ndarray:
    """Random points with 0 < r_min <= |x| <= r_max, radius uniform."""
    r = rng.uniform(r_min, r_max, (n, 1))
    return unit_vectors(rng, n) * r


def rand_fn(L: int, seed: int, complex_valued: bool = False) -> SphereFunction:
    rng = np.random.default_rng(seed)
    return SphereFunction.from_coeffs(
        random_band_limited(L, rng, complex_valued=complex_valued))


def gamma_reference(rng: np.random.Generator, n: int) -> np.ndarray:
    """forms.gamma_samples as one batch of all n samples: the same draws
    through forms._uniform_sphere, and every value formed at once."""
    w1 = forms._uniform_sphere(rng, n)
    w2 = forms._uniform_sphere(rng, n)
    while True:
        bad = _norm3(w1 + w2) < 1e-8
        if not np.any(bad):
            break
        w2[bad] = forms._uniform_sphere(rng, int(bad.sum()))
    y = -(w1 + w2)
    centers, rho, e1, e2 = circle_frames(y)
    psi = rng.uniform(0.0, 2.0 * np.pi, n)
    w3 = centers + rho[:, None] * (np.cos(psi)[:, None] * e1 + np.sin(psi)[:, None] * e2)
    w4 = y - w3
    return np.stack([w1, w2, w3, w4], axis=1)


def ball_rows(ball, a0: int, a1: int) -> np.ndarray:
    """The nodes of a product ball grid's azimuth rows a0:a1, from
    ball.points(), shape (a1 - a0, n_r * n_t, 3): row a holds the node at
    azimuth a of every radius and polar ring, radial-major, in a
    SliceColumn's centre order."""
    n_az = ball.directions.exactness_degree + 1   # 2 n_t
    return ball.points().reshape(-1, n_az, 3)[:, a0:a1].swapaxes(0, 1)


def node_values(v: SplitValues) -> SplitValues:
    """v's values at the slice nodes of every slice, in the slice axes'
    shape: v itself if they are arrays there already, else each part
    expanded or formed into a new array (SplitValues.chunk)."""
    if v.expansion is None and isinstance(v.re, np.ndarray):
        return v
    lead = v.re.shape[:-1]
    re, *im = (part.reshape(lead + (-1,)) for part in v.chunk(0, math.prod(lead)))
    return SplitValues(re, im[0] if im else None, v.re_sign, v.im_sign)


def dense(v: SplitValues) -> np.ndarray:
    """v's values as one real or complex array, in their own domain: slice
    nodes or slice-angle modes; a formula (a sharp value) at the slice nodes."""
    if not isinstance(v.re, np.ndarray):
        return v.re.form(0, math.prod(v.re.shape[:-1])).reshape(v.re.shape)
    if v.im is None:
        return v.re if v.re_sign > 0 else -v.re
    out = np.empty(v.re.shape, dtype=complex)
    np.multiply(v.re, v.re_sign, out=out.real)
    np.multiply(v.im, v.im_sign, out=out.imag)
    return out


def split(x: np.ndarray) -> SplitValues:
    """A real or complex array at the slice nodes as SplitValues: its real
    part, and its imaginary part for a complex array."""
    return SplitValues(x.real, x.imag if np.iscomplexobj(x) else None)


def plan_at(plan, points: np.ndarray) -> list:
    """Per request of a SlicePlan, its values as dense arrays at points of
    any shape (last axis 3): the plan's rows synthesized from one harmonic
    table at the points, read with their signs as SlicePlan.values reads
    them. The dense oracle of a plan's row identity."""
    table = harmonic_values(plan.degree, points.reshape(-1, 3))
    fields = (plan.rows @ table).reshape((-1,) + points.shape[:-1])
    return [dense(v) for v in plan.values(fields)]


def legendre_factor_reference(L: int, t: np.ndarray) -> np.ndarray:
    """harmonics._legendre_factor as it was built on the full flat table:
    Pbar_k^|m|(t) per flat slot (k, m), times sqrt(2) for m != 0, from
    every row of _assoc_legendre_rows' ((L+1)^2, t.size) table in t's dtype,
    indexed to slot (k, |m|) and rounded to double once."""
    values = np.empty(((L + 1) ** 2, t.size), dtype=t.dtype)
    harmonics._assoc_legendre_rows(L, t, np.sqrt((1 - t) * (1 + t)), values)
    order = harmonics._slot_orders(L)
    values = values[np.arange(order.size) - order + np.abs(order)]
    values[order != 0] *= np.sqrt(t.dtype.type(2))
    return values.astype(float, copy=False)


def tilt_reference(L: int) -> list:
    """harmonics._tilt by the dense projection: per degree k, the harmonics
    at the quarter-turned nodes of build_sphere_grid(L + 1) against the
    weighted harmonics at the nodes, both full ((L+1)^2, nodes) tables, then
    the same Newton-Schulz step."""
    grid = build_sphere_grid(L + 1)
    weighted = harmonic_values(L, grid.nodes) * grid.weights
    turned = harmonic_values(L, grid.nodes[:, [0, 2, 1]] * (1.0, -1.0, 1.0))   # R_x q
    blocks = [turned[k * k:(k + 1) ** 2] @ weighted[k * k:(k + 1) ** 2].T for k in range(L + 1)]
    return [1.5 * x - 0.5 * (x @ (x.T @ x)) for x in blocks]


def eigenvalue_residual(k: int, m: int, mesh_size: int = 96) -> float:
    """Laplace-Beltrami check of harmonic_values: residual of the discrete
    Delta Y = -k(k+1) Y.

    A theta-phi mesh (mesh_size x 2*mesh_size) carries Y_{k,m} from
    harmonic_values and second-order finite differences: conservative flux
    form in theta, periodic central differences in phi. The two rows nearest
    each pole are excluded from the reported max; the chart is singular there
    while the harmonic itself is not, so mesh_size must be at least 5. k is a
    nonnegative integer and m an integer in -k..k.
    """
    _require_int(k, "k", 0)
    _require_int(m, "m", -k)
    if m > k:
        raise ValueError(f"order m={m} out of range for degree k={k}")
    _require_int(mesh_size, "mesh_size", 5)
    M = mesh_size
    h = np.pi / M
    theta = (np.arange(M) + 0.5) * h
    phi = np.arange(2 * M) * (2.0 * np.pi / (2 * M))
    T, P = np.meshgrid(theta, phi, indexing="ij")
    pts = np.column_stack([
        (np.sin(T) * np.cos(P)).ravel(),
        (np.sin(T) * np.sin(P)).ravel(),
        np.cos(T).ravel(),
    ])
    Y = harmonic_values(k, pts)[k * k + k + m].reshape(M, 2 * M)

    sin_t = np.sin(theta)
    sin_half = np.sin(theta[:-1] + 0.5 * h)   # flux faces between rows
    flux = sin_half[:, None] * (Y[1:] - Y[:-1]) / h
    lap_t = np.empty_like(Y)
    lap_t[1:-1] = (flux[1:] - flux[:-1]) / (h * sin_t[1:-1, None])
    lap_t[0] = lap_t[-1] = 0.0   # excluded below anyway

    h_p = 2.0 * np.pi / (2 * M)
    lap_p = (np.roll(Y, -1, axis=1) - 2.0 * Y + np.roll(Y, 1, axis=1)) / h_p**2
    lap = lap_t + lap_p / (sin_t**2)[:, None]

    resid = np.abs(lap + k * (k + 1) * Y)
    return float(resid[2:-2].max())


def leggauss_rule(n: int) -> tuple:
    """The n-node Gauss-Legendre rule as quadrature._gauss_legendre once
    built it: numpy.polynomial's leggauss nodes, one Newton step and the
    weights in np.longdouble, rounded."""
    t = np.polynomial.legendre.leggauss(n)[0].astype(np.longdouble)
    for step in (True, False):
        prev, p = np.ones_like(t), t.copy()
        for k in range(1, n):
            prev, p = p, ((2 * k + 1) * t * p - k * prev) / (k + 1)
        d = n * (prev - t * p) / ((1 - t) * (1 + t))   # P_n'
        if step:
            t = t - p / d
    return t.astype(float), (2 / ((1 - t) * (1 + t) * d * d)).astype(float)


def projected_ring_blocks(L: int, rings: np.ndarray) -> list:
    """Per degree k, every ring's block D_j^k in the layout of
    SliceColumn.rotations, by projection: Y_{k,m}(R_j q) against Y_{k,m'}(q)
    on build_sphere_grid(L + 1), exact for degree 2L, R_j = (e1, e2, u_j) of
    circle_frames, then one Newton-Schulz step."""
    grid = build_sphere_grid(L + 1)
    weighted = harmonic_values(L, grid.nodes) * grid.weights
    _, _, e1, e2 = circle_frames(rings)
    blocks = [np.empty((2 * k + 1, 2 * k + 1, len(rings))) for k in range(L + 1)]
    for j, frame in enumerate(np.stack([e1, e2, rings], axis=1)):   # q @ frame is R_j q
        turned = harmonic_values(L, grid.nodes @ frame)
        for k, block in enumerate(blocks):
            modes = [k] + [k + s * i for i in range(1, k + 1) for s in (1, -1)]
            d = (turned[k * k:(k + 1) ** 2] @ weighted[k * k:(k + 1) ** 2].T)[:, modes]
            block[..., j] = 1.5 * d - 0.5 * (d @ (d.T @ d))
    return blocks
