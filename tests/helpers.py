"""Shared random-geometry helpers for the test suite."""

import numpy as np

from sharpsphere import SphereFunction, random_band_limited


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


def ball_rows(ball, a0: int, a1: int) -> np.ndarray:
    """The nodes of a product ball grid's azimuth rows a0:a1, from
    ball.points(), shape (a1 - a0, n_r * n_t, 3): row a holds the node at
    azimuth a of every radius and polar ring, radial-major, in a
    SliceColumn's centre order."""
    n_az = ball.directions.exactness_degree + 1   # 2 n_t
    return ball.points().reshape(-1, n_az, 3)[:, a0:a1].swapaxes(0, 1)
