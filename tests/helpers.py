"""Shared random-geometry helpers for the test suite."""

import math

import numpy as np

from sharpsphere import SphereFunction, SplitValues, random_band_limited


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


def node_values(v: SplitValues) -> SplitValues:
    """v's values at the slice nodes of every slice, in the slice axes'
    shape: v itself if they are arrays there already, else each part
    expanded or formed into a new array (SplitValues.chunk), with no store."""
    if v.expansion is None and isinstance(v.re, np.ndarray):
        return v
    lead = v.re.shape[:-1]
    re, *im = (part.reshape(lead + (-1,)) for part in v.chunk(0, math.prod(lead)))
    return SplitValues(re, im[0] if im else None, v.re_sign, v.im_sign)
