"""Quadrature rules for the unit sphere, intersection circles, and the ball |x| <= 2.

Three measures appear throughout the library: the surface measure sigma on S^2
(total mass 4*pi), the weighted arc measure on circles S^2 n {omega : x.omega =
|x|^2/2} that realizes the convolution of two copies of sigma, and the volume
measure on the ball of radius 2 where such convolutions live.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SphereGrid",
    "BallGrid",
    "DegenerateSliceError",
    "EmptyIntersectionError",
    "build_sphere_grid",
    "integrate_sphere",
    "circle_frames",
    "build_ball_grid",
    "integrate_ball",
    "exact_sizes",
]


def _require_int(value, name: str, low: int = 1):
    # ValueError naming value unless it is an integer >= low (1: a size, 0: a degree)
    if not isinstance(value, (int, np.integer)) or value < low:
        kind = "positive" if low == 1 else "nonnegative"
        raise ValueError(f"{name} must be a {kind} integer, got {value!r}")


class DegenerateSliceError(ValueError):
    """Raised when a circle slice is requested at x = 0."""


class EmptyIntersectionError(ValueError):
    """Raised when a circle slice is requested at |x| > 2 (spheres do not meet)."""


@dataclass(frozen=True)
class SphereGrid:
    """Product quadrature on S^2: Gauss-Legendre in t = cos(theta), uniform azimuth.

    Attributes
    ----------
    nodes : (N, 3) array
        Unit vectors.
    weights : (N,) array
        Positive weights summing to 4*pi.
    exactness_degree : int
        Spherical polynomials up to this degree integrate exactly.
    """

    nodes: np.ndarray
    weights: np.ndarray
    exactness_degree: int

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def n_nodes(self) -> int:
        return len(self.weights)


def build_sphere_grid(n_t: int) -> SphereGrid:
    """Build a sphere grid with n_t polar nodes and 2*n_t azimuthal nodes.

    The azimuth nodes sit at the half steps (j + 1/2)*pi/n_t, away from phi = 0.
    """
    _require_int(n_t, "n_t")
    t, w_t = np.polynomial.legendre.leggauss(n_t)
    step = np.pi / n_t
    phi = (np.arange(2 * n_t) + 0.5) * step
    tt = np.repeat(t, 2 * n_t)
    pp = np.tile(phi, n_t)
    ss = np.sqrt(1.0 - tt * tt)
    nodes = np.column_stack([ss * np.cos(pp), ss * np.sin(pp), tt])
    weights = np.repeat(w_t, 2 * n_t) * step
    return SphereGrid(nodes, weights, exactness_degree=2 * n_t - 1)


def integrate_sphere(grid: SphereGrid, f):
    """Integrate f over S^2 against the grid.

    f may be a callable taking an (N, 3) array of unit vectors, or an array of
    values at the grid nodes. Non-finite values are rejected.
    """
    vals = f(grid.nodes) if callable(f) else np.asarray(f)
    vals = np.broadcast_to(vals, (grid.n_nodes,))
    if not np.all(np.isfinite(vals)):
        raise ValueError("integrand produced non-finite values on the grid")
    return np.sum(grid.weights * vals)


def circle_frames(xs: np.ndarray):
    """Deterministic slice geometry for a batch of centers xs, shape (M, 3).

    Returns (centers, radii, e1, e2). e1 is the azimuthal unit vector
    (-sin phi, cos phi, 0) of x, or (0, 1, 0) on the z axis; e2 completes the
    right-handed frame x_hat, e1, e2. The frame is equivariant under rotations
    about the z axis: the slice at R x is R applied to the slice at x, node by
    node, which lets product grids with uniform azimuth tabulate one column.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    r = np.linalg.norm(xs, axis=1)
    if np.any(r == 0.0):
        raise DegenerateSliceError("circle slice undefined at x = 0")
    if np.any(r > 2.0):
        raise EmptyIntersectionError("spheres at 0 and x do not intersect for |x| > 2")
    rho = np.hypot(xs[:, 0], xs[:, 1])
    on_axis = rho == 0.0
    rho[on_axis] = 1.0
    e1 = np.column_stack([-xs[:, 1] / rho, xs[:, 0] / rho, np.zeros(len(xs))])
    e1[on_axis] = (0.0, 1.0, 0.0)
    xhat = xs / r[:, None]
    e2 = np.cross(xhat, e1)
    radii = np.sqrt(np.maximum(0.0, 1.0 - 0.25 * r * r))
    return 0.5 * xs, radii, e1, e2


@dataclass(frozen=True)
class BallGrid:
    """Product quadrature on the ball |x| <= 2: radial Gauss-Legendre x SphereGrid.

    radial_weights include the r^2 Jacobian, so a plain double sum against
    integrand values at r*u approximates the volume integral.
    """

    radial_nodes: np.ndarray
    radial_weights: np.ndarray
    directions: SphereGrid

    def __post_init__(self):
        self.radial_nodes.setflags(write=False)
        self.radial_weights.setflags(write=False)

    def points(self) -> np.ndarray:
        """All quadrature points r*u, radial-major, shape (n_r * N_dir, 3)."""
        return (self.radial_nodes[:, None, None] * self.directions.nodes).reshape(-1, 3)

    def weights(self) -> np.ndarray:
        return (self.radial_weights[:, None] * self.directions.weights).ravel()


def build_ball_grid(n_r: int, directions: SphereGrid) -> BallGrid:
    """Radial Gauss-Legendre nodes mapped affinely from (-1,1) to (0,2).

    Endpoints are excluded automatically, so the 1/r blow-up of surface-measure
    convolutions at the origin is never sampled; the integrands of interest,
    r^2 |conv|^2, stay bounded.
    """
    _require_int(n_r, "n_r")
    u, w = np.polynomial.legendre.leggauss(n_r)
    r = u + 1.0
    return BallGrid(radial_nodes=r, radial_weights=w * r * r, directions=directions)


def exact_sizes(L: int) -> tuple[int, int, int]:
    """Grid sizes (n_t, n_r, n_c) = (2L+1, 2L+2, 4L+2), exact at band limit L.

    The ball integrand has degree <= 4L in the direction and <= 4L+2 in the
    radius (r^2 Jacobian): n_t = 2L+1, n_r = 2L+2. The ball route pairs
    band-limited factors exactly at every n_c: f(p) g(x - p) in slice-angle
    modes, |f(p) g(x - p)|^2 on its band limit's own 2(2L+1) nodes
    (convolution.SliceColumn, forms._kernel_profile). n_c sizes the rest:
    a squared pair kernel of band limit L is a trig polynomial of degree 4L
    on each slice, so n_c = 4L+2, the smallest even count above it, makes
    the literal routes exact (pair_slice_average, the outer route); sharp
    rearrangements and literal factors take those nodes too. Any n_c above
    4L is exact as well, and so is an odd n_c above 2L, which adds its n_c
    nodes' partners x - p: the 2 n_c nodes are the uniform 2 n_c rule.
    """
    _require_int(L, "L", 0)
    return 2 * L + 1, 2 * L + 2, 4 * L + 2


def integrate_ball(ball: BallGrid, f):
    """Integrate f over the ball |x| <= 2; f takes an (M, 3) array of points."""
    vals = f(ball.points()) if callable(f) else np.asarray(f)
    vals = np.broadcast_to(vals, (len(ball.radial_nodes) * ball.directions.n_nodes,))
    if not np.all(np.isfinite(vals)):
        raise ValueError("integrand produced non-finite values on the ball grid")
    return np.sum(ball.weights() * vals)
