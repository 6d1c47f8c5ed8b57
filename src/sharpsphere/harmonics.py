"""Real spherical harmonics: values at points, and the ring transform.

The basis is orthonormal with respect to the raw surface measure (L2(sigma)
norm 1, not 4*pi-normalized), so Parseval needs no extra constants and a zonal
kernel with Funk-Hecke multipliers lambda_k acts on coefficients as plain
multiplication by 2*pi*lambda_k. The Condon-Shortley phase is omitted; every
quantity this library computes is quadratic in the basis, so the sign
convention is unobservable, but it matters for comparing raw coefficient
tables against other software.

Flat coefficient layout: index(k, m) = k*k + k + m, degrees contiguous,
m = -k..k within a degree. Negative m holds the sin(m*phi) branch.

On build_sphere_grid(n_t), Gauss-Legendre rings t_j times 2 n_t azimuths at
half steps, a harmonic factors as Pbar_k^|m|(t_j) times cos(m phi) or
sin(|m| phi), so synthesis and analysis (synthesize_rings, analyze_rings,
and analyze on a BasisTable) are two small GEMMs each: the Legendre rows
per order against the rings, and one azimuth factor matrix (Driscoll and
Healy, Adv. Appl. Math. 1994). The transform forms no table of every
harmonic at every node; harmonic_values gives such a table at any points,
the dense route the transform is tested against. analyze_rings is the one
analysis route: _tilt projects on it too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .quadrature import (SphereGrid, _gauss_legendre, _is_product_grid, _real, _require_int,
                         build_sphere_grid)

__all__ = [
    "HarmonicCoeffs",
    "BasisTable",
    "SphereFunction",
    "n_coeffs",
    "parity_signs",
    "harmonic_values",
    "random_band_limited",
    "build_basis",
    "analyze",
    "synthesize_rings",
    "analyze_rings",
]


def n_coeffs(L: int) -> int:
    _require_int(L, "L", 0)
    return (L + 1) * (L + 1)


def _degree_index(L: int) -> np.ndarray:
    """Degree of each flat coefficient slot: [0, 1,1,1, 2,2,2,2,2, ...]."""
    return np.repeat(np.arange(L + 1), 2 * np.arange(L + 1) + 1)


@lru_cache(maxsize=None)
def parity_signs(L: int) -> np.ndarray:
    """(-1)^k per flat slot; the antipodal map acts as Y_{k,m}(-w) = (-1)^k Y_{k,m}(w).
    One read-only array per L."""
    _require_int(L, "L", 0)
    signs = 1.0 - 2.0 * (_degree_index(L) % 2)
    signs.flags.writeable = False
    return signs


def _assoc_legendre_rows(L: int, t: np.ndarray, s: np.ndarray, out):
    """Fully normalized associated Legendre values Pbar_k^m(t) for m >= 0.

    Written into the m >= 0 slots of the flat-layout table out (row k*k+k+m),
    or of any sequence whose item k*k+k+m is a writable row for each m >= 0;
    the azimuth factors are applied by the caller in a second pass.

    t = cos(theta), s = sin(theta) passed separately: callers obtain s from
    hypot(x, y), which is more accurate near the poles than sqrt(1 - t^2).
    Normalization absorbs the azimuth-free part of the harmonic, so that
    Y_{k,0} = Pbar_k^0 and Y_{k,+-m} = sqrt(2) * Pbar_k^m * {cos,sin}(m phi)
    are orthonormal in L2(sigma). Recursion is along increasing k at fixed m,
    seeded by the diagonal march; all multipliers are O(1), so the scheme is
    stable for the moderate degrees used here. The multipliers are rounded
    to t's dtype, so np.longdouble t gets longdouble values; for float64
    they are Python floats, the faster scalars.
    """
    one = 1.0 if t.dtype == np.float64 else t.dtype.type(1)
    scratch = np.empty_like(t)
    pmm = np.full_like(t, one / np.sqrt(4 * np.arccos(-one)))
    for m in range(L + 1):
        out[m * m + 2 * m][...] = pmm
        if m == L:
            break
        row = out[(m + 1) * (m + 2) + m]
        np.multiply(t, out[m * m + 2 * m], out=row)
        row *= np.sqrt((2 * m + 3) * one)
        for k in range(m + 2, L + 1):
            a = np.sqrt((4 * k * k - 1) * one / (k * k - m * m))
            b = np.sqrt(((k - 1) ** 2 - m * m) * one / (4 * (k - 1) ** 2 - 1))
            row = out[k * k + k + m]
            np.multiply(t, out[k * k - k + m], out=row)
            np.multiply(out[(k - 1) * (k - 2) + m], b, out=scratch)
            row -= scratch
            row *= a
        np.multiply(pmm, s, out=scratch)
        scratch *= np.sqrt((2 * m + 3) * one / (2 * m + 2))
        pmm, scratch = scratch, pmm


def harmonic_values(L: int, points: np.ndarray) -> np.ndarray:
    """Evaluate all real harmonics through degree L at unit vectors.

    Returns a ((L+1)^2, n) matrix in the flat layout; row i holds one basis
    function sampled at every point. Because the layout is degree-contiguous,
    the leading (L'+1)^2 rows of a degree-L table are exactly the degree-L'
    table, so one table can serve every band limit up to L. Complex or
    non-finite points raise ValueError. Points off the sphere are taken as
    given, not normalized, so the values there are not those at p / |p|.
    """
    _require_int(L, "L", 0)
    points = np.atleast_2d(_real(points, "points"))
    if not np.isfinite(points).all():
        raise ValueError("points must be finite")
    x, y, z = points[:, 0], points[:, 1], points[:, 2]
    s = np.hypot(x, y)
    vals = np.empty(((L + 1) ** 2, len(points)))
    _assoc_legendre_rows(L, z, s, vals)
    if L == 0:
        return vals
    phi = np.arctan2(y, x)
    c1, s1 = np.cos(phi), np.sin(phi)
    cm, sm = c1, s1
    root2 = np.sqrt(2.0)
    for m in range(1, L + 1):
        if m > 1:
            # angle-addition update of (cos(m phi), sin(m phi)); refreshed from
            # libm every 8 steps so rounding drift stays at a few ulp
            if m % 8 == 0:
                cm, sm = np.cos(m * phi), np.sin(m * phi)
            else:
                cm, sm = cm * c1 - sm * s1, sm * c1 + cm * s1
        cs, ss = root2 * cm, root2 * sm
        for k in range(m, L + 1):
            pos = vals[k * k + k + m]
            np.multiply(pos, ss, out=vals[k * k + k - m])
            pos *= cs
    return vals


@lru_cache(maxsize=None)
def _slot_orders(L: int) -> np.ndarray:
    """Order m of each flat slot: [0, -1,0,1, -2,-1,0,1,2, ...]. Read-only."""
    deg = _degree_index(L)
    order = np.arange((L + 1) ** 2) - deg * deg - deg
    order.flags.writeable = False
    return order


def _legendre_orders(L: int, t: np.ndarray) -> list:
    """Per order m <= L, Pbar_k^m(t) for k = m..L at each t of a 1-D array,
    times sqrt(2) for m > 0: (L+1-m, t.size) row blocks of one array, taken
    in t's dtype and rounded to double once. Only these m >= 0 rows are
    built, order-major, about half a flat table's."""
    start = np.cumsum([0] + [L + 1 - m for m in range(L + 1)])
    values = np.empty((start[-1], t.size), dtype=t.dtype)
    rows = [values[start[m] + k - m] if m >= 0 else None
            for k, m in zip(_degree_index(L), _slot_orders(L))]
    _assoc_legendre_rows(L, t, np.sqrt((1 - t) * (1 + t)), rows)
    values[start[1]:] *= np.sqrt(t.dtype.type(2))
    values = values.astype(float, copy=False)
    return [values[a:b] for a, b in zip(start[:-1], start[1:])]


def _legendre_factor(L: int, t: np.ndarray) -> np.ndarray:
    """Per flat slot (k, m), Pbar_k^|m|(t) at each t of a 1-D array, times
    sqrt(2) for m != 0: ((L+1)^2, t.size), the row of (k, |m|) in
    _legendre_orders."""
    deg, m = _degree_index(L), np.abs(_slot_orders(L))
    return np.concatenate(_legendre_orders(L, t))[m * (2 * L + 3 - m) // 2 + deg - m]


def _turn(coeffs: np.ndarray, angles) -> np.ndarray:
    """Coefficient rows (..., (L+1)^2) of f turned by angles about z, which
    broadcast against the rows' leading axes: those of f(R_z(alpha) p). Slot
    (k, m) takes cos(m alpha) of f's slot and sin(m alpha) of its partner
    (k, -m), factors taken once per |m| in the angles' dtype (m alpha in
    double loses about m ulps) and rounded to double."""
    L = math.isqrt(coeffs.shape[-1]) - 1
    order = _slot_orders(L)
    m_alpha = np.asarray(angles)[..., None] * np.arange(L + 1)
    cos, sin = (f(m_alpha).astype(float, copy=False)[..., abs(order)] for f in (np.cos, np.sin))
    turned = np.multiply(coeffs, cos, order="C")
    turned += coeffs[..., np.arange(order.size) - 2 * order] * (np.sign(order) * sin)
    return turned


@lru_cache(maxsize=None)
def _tilt(L: int) -> tuple:
    """Per degree k <= L, the block X_k of the quarter turn R_x(pi/2), which
    takes z to -y: Y_{k,m}(R_x q) = sum_m' X_k[m, m'] Y_{k,m'}(q). The
    harmonics at the quarter-turned nodes of build_sphere_grid(L + 1), one
    table, are projected on its rings (analyze_rings, exact for degree 2L)
    a degree at a time, then one Newton-Schulz step, X <- X (3I - X^T X) / 2.
    Read-only."""
    grid = build_sphere_grid(L + 1)
    turned = harmonic_values(L, grid.nodes[:, [0, 2, 1]] * (1.0, -1.0, 1.0))   # R_x q
    blocks = []
    for k in range(L + 1):
        x = analyze_rings(turned[k * k:(k + 1) ** 2], L + 1, L)[:, k * k:(k + 1) ** 2]
        x = 1.5 * x - 0.5 * (x @ (x.T @ x))
        x.flags.writeable = False
        blocks.append(x)
    return tuple(blocks)


def _framed(coeffs: np.ndarray, centres: np.ndarray) -> np.ndarray:
    """Coefficient rows (..., (L+1)^2) of f taken to the frame R = (e1, e2,
    x/|x|) of circle_frames at each centre x (..., 3), broadcast against the
    rows' leading axes: those of f(R q). R = R_z(phi) R_y(theta) R_z(pi/2)
    and R_y(theta) = R_x(-pi/2) R_z(theta) R_x(pi/2), so the rows are turned
    by phi (_turn), tilted back (_tilt), turned by theta, tilted and turned
    by pi/2, all angles in the centres' dtype. theta = arctan2(|(x, y)|, z)
    holds near the axis, where phi is 0 (e1 = (0, 1, 0))."""
    x, y, z = centres[..., 0], centres[..., 1], centres[..., 2]
    rho = np.hypot(x, y)
    tilt = _tilt(math.isqrt(coeffs.shape[-1]) - 1)
    c = _turn(coeffs, np.where(rho > 0.0, np.arctan2(y, x), 0.0))
    for angle, back in ((np.arctan2(rho, z), True), (np.arctan2(rho.dtype.type(1), 0), False)):
        rows = c.reshape(-1, c.shape[-1])   # one matmul a degree
        for k, block in enumerate(tilt):
            deg = slice(k * k, (k + 1) ** 2)
            rows[:, deg] = rows[:, deg] @ (block.T if back else block)
        c = _turn(rows.reshape(c.shape), angle)
    return c


def _synthesize(coeffs: np.ndarray, table: np.ndarray) -> np.ndarray:
    # coeffs @ table, complex coefficients by parts: no complex copy of the table
    return (coeffs.real @ table + 1j * (coeffs.imag @ table) if np.iscomplexobj(coeffs)
            else coeffs @ table)


@dataclass(frozen=True)
class HarmonicCoeffs:
    """Expansion coefficients c_{k,m} through degree max_degree, flat layout."""

    max_degree: int
    coeffs: np.ndarray

    def __post_init__(self):
        _require_int(self.max_degree, "max_degree", 0)
        c = np.asarray(self.coeffs)
        if c.shape != (n_coeffs(self.max_degree),):
            raise ValueError(
                f"expected {n_coeffs(self.max_degree)} coefficients for degree "
                f"{self.max_degree}, got shape {c.shape}")
        if not np.isfinite(c).all():
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coeffs", c)
        c.setflags(write=False)

    def norm_sq(self) -> float:
        """Squared L2(sigma) norm of the synthesized function (Parseval)."""
        return float(np.sum(np.abs(self.coeffs) ** 2))

    def degree_energies(self) -> np.ndarray:
        """Sum over m of |c_{k,m}|^2, one entry per degree k."""
        e = np.abs(self.coeffs) ** 2
        edges = np.cumsum(2 * np.arange(self.max_degree + 1) + 1)
        return np.array([seg.sum() for seg in np.split(e, edges[:-1])])

    def mean_value(self):
        """Mean over the sphere; c_{0,0} = sqrt(4 pi) * mean."""
        return self.coeffs[0] / np.sqrt(4.0 * np.pi)

    def antipodal_conjugate(self) -> "HarmonicCoeffs":
        # conj(f(-omega)) has coefficients (-1)^k conj(c_{k,m})
        return HarmonicCoeffs(self.max_degree,
                              parity_signs(self.max_degree) * np.conj(self.coeffs))


@lru_cache(maxsize=None)
def _ring_factors(L: int, n_t: int) -> tuple:
    """The ring transform's factors through degree L on build_sphere_grid(n_t),
    read-only, L^3 numbers where a table of every harmonic at every node
    takes 2 (L+1)^2 n_t^2:

    legendre (L+1 orders |m|, L+1 degrees k, n_t rings), Pbar_k^|m|(t_j)
    times sqrt(2) for m > 0 (_legendre_orders at the rule's nodes in
    np.longdouble), 0 for k < |m|;
    azimuth (2 (L+1), 2 n_t), rows cos(m phi_a) and sin(m phi_a) per order
    m (m = 0's sin row is 0), phi_a = (2a + 1) pi / (2 n_t) with the angle
    reduced mod 2 pi in integers and taken in np.longdouble;
    weights (n_t,), each ring's node weight, those of build_sphere_grid;
    slots, per flat slot its (|m|, sin row?, k) in those factors.
    """
    t, w_t = _gauss_legendre(n_t)
    orders = _legendre_orders(L, t.astype(np.longdouble))
    legendre = np.zeros((L + 1, L + 1, n_t))
    for m, rows in enumerate(orders):
        legendre[m, m:] = rows
    del orders   # before the azimuth factor's temporaries
    deg, order = _degree_index(L), _slot_orders(L)
    # m phi_a in steps of pi / (2 n_t), reduced mod 2 pi
    steps = np.outer(np.arange(L + 1), 2 * np.arange(2 * n_t) + 1) % (4 * n_t)
    angle = steps * (np.arccos(np.longdouble(-1)) / (2 * n_t))
    azimuth = np.stack([np.cos(angle), np.sin(angle)], axis=1).reshape(2 * L + 2, 2 * n_t)
    factors = (legendre, azimuth.astype(float), w_t * (np.pi / n_t),
               (np.abs(order), (order < 0).astype(int), deg))
    for a in factors[:3] + factors[3]:
        a.flags.writeable = False
    return factors


def synthesize_rings(c, n_t: int) -> np.ndarray:
    """Values at the nodes of build_sphere_grid(n_t), in its order, of each
    coefficient row of c, shape (..., (L+1)^2): shape (..., 2 n_t^2). Per
    order, the rows' coefficients against the Legendre rows give each ring's
    azimuth modes, and the azimuth factor matrix takes the modes to the
    ring's nodes (_ring_factors): two GEMMs. Complex c by parts."""
    _require_int(n_t, "n_t")
    c = np.asarray(c)
    L = math.isqrt(c.shape[-1]) - 1
    if L < 0 or (L + 1) ** 2 != c.shape[-1]:
        raise ValueError(f"a coefficient row has (L+1)^2 entries, got {c.shape[-1]}")
    if np.iscomplexobj(c):
        re, im = synthesize_rings(np.stack([c.real, c.imag]), n_t)
        return re + 1j * im
    legendre, azimuth, _, slots = _ring_factors(L, n_t)
    rows = c.reshape(-1, c.shape[-1])
    per_order = np.zeros((L + 1, 2, len(rows), L + 1))   # |m|, cos or sin, row, k
    per_order[slots[0], slots[1], :, slots[2]] = rows.T
    # |m|, (cos or sin, row), ring
    modes = np.matmul(per_order.reshape(L + 1, -1, L + 1), legendre)
    modes = modes.reshape(2 * L + 2, len(rows) * n_t).T
    return (modes @ azimuth).reshape(c.shape[:-1] + (2 * n_t * n_t,))


def analyze_rings(values, n_t: int, L: int) -> np.ndarray:
    """The quadrature sums c_{k,m} = sum_n w_n f_n Y_{k,m}(node_n) through
    degree L over build_sphere_grid(n_t), for each row f of values, shape
    (..., 2 n_t^2) in the grid's node order: shape (..., (L+1)^2). The sums
    are regrouped, the azimuth factor matrix first, then each ring's weight
    and the Legendre rows per order (_ring_factors): two GEMMs. The
    projection of f of degree at most L is exact when 2L <= 2 n_t - 1;
    complex values by parts."""
    _require_int(n_t, "n_t")
    _require_int(L, "L", 0)
    values = np.asarray(values)
    if values.shape[-1:] != (2 * n_t * n_t,):
        raise ValueError(f"expected values on the {2 * n_t * n_t} nodes of "
                         f"build_sphere_grid({n_t}), got shape {values.shape}")
    if np.iscomplexobj(values):
        re, im = analyze_rings(np.stack([values.real, values.imag]), n_t, L)
        return re + 1j * im
    legendre, azimuth, weights, slots = _ring_factors(L, n_t)
    rows = values.reshape(-1, n_t, 2 * n_t)
    modes = rows @ azimuth.T   # row, ring, (|m|, cos or sin)
    modes *= weights[:, None]
    modes = modes.reshape(-1, 2 * L + 2).T.reshape(L + 1, -1, n_t)
    per_order = np.matmul(modes, legendre.transpose(0, 2, 1)).reshape(L + 1, 2, len(rows), L + 1)
    return per_order[slots[0], slots[1], :, slots[2]].T.reshape(values.shape[:-1] + (-1,))


@dataclass(frozen=True)
class BasisTable:
    """The basis through max_degree on a SphereGrid with build_sphere_grid's
    layout, which analyze reads through the ring transform's factors
    (_ring_factors, cached per band limit and ring count). The grid must
    integrate degree 2L exactly, so that the weighted Gram matrix of the
    basis is the identity; a grid of too low an exactness, or without the
    product layout, raises ValueError."""

    grid: SphereGrid
    max_degree: int

    def __post_init__(self):
        _require_int(self.max_degree, "max degree", 0)
        if self.grid.exactness_degree < 2 * self.max_degree:
            raise ValueError(
                f"grid exactness {self.grid.exactness_degree} < 2L = {2 * self.max_degree}; "
                "products of two basis functions would not integrate exactly")
        if not _is_product_grid(self.grid):
            raise ValueError("the grid does not have build_sphere_grid's product layout, "
                             "which the ring transform reads")

    @property
    def n_t(self) -> int:
        return (self.grid.exactness_degree + 1) // 2


def build_basis(L: int, grid: SphereGrid) -> BasisTable:
    """The basis on a product grid (BasisTable), its ring factors built."""
    basis = BasisTable(grid=grid, max_degree=L)
    _ring_factors(L, basis.n_t)
    return basis


def analyze(f, basis: BasisTable) -> HarmonicCoeffs:
    """Project grid values onto the basis: c_{k,m} = sum_n w_n f_n Y_{k,m}(node_n),
    on the rings (analyze_rings).

    f may be an array of values at the basis grid nodes or a callable on unit
    vectors (evaluated at the nodes). Exact for band-limited f within the
    basis degree.
    """
    vals = f(basis.grid.nodes) if callable(f) else np.asarray(f)
    if vals.shape != (basis.grid.n_nodes,):
        raise ValueError(
            f"expected values on the {basis.grid.n_nodes}-node basis grid, "
            f"got shape {vals.shape}")
    return HarmonicCoeffs(basis.max_degree, analyze_rings(vals, basis.n_t, basis.max_degree))


def random_band_limited(L: int, rng: np.random.Generator,
                        complex_valued: bool = False) -> HarmonicCoeffs:
    """Random coefficients with the fixed per-degree amplitude (1 + k)^-2.

    The decay keeps low degrees dominant, which mirrors smooth test functions
    and keeps sign-indefinite quadratic functionals of the sample bounded away
    from zero (flat spectra make them nearly cancel in expectation).
    """
    _require_int(L, "L", 0)
    amp = (1.0 + _degree_index(L)) ** -2.0
    c = rng.standard_normal(n_coeffs(L))
    if complex_valued:
        c = c + 1j * rng.standard_normal(n_coeffs(L))
    return HarmonicCoeffs(L, amp * c)


class SphereFunction:
    """A function on the unit sphere, evaluable at arbitrary unit vectors.

    Wraps either a closure or a coefficient table (evaluated by synthesis);
    the coefficient-backed form remembers that it is band-limited, which the
    quadrature-exactness reasoning elsewhere relies on. A sharp rearrangement
    of a coefficient-backed function records its source in sharp_source, so
    bulk evaluators can obtain both |f(w)|^2 and |f(-w)|^2 from one basis
    table instead of calling the closure at w and -w.
    """

    __slots__ = ("_fn", "coeffs", "sharp_source")

    def __init__(self, fn, coeffs: HarmonicCoeffs | None = None,
                 sharp_source: "SphereFunction | None" = None):
        self._fn = fn
        self.coeffs = coeffs
        self.sharp_source = sharp_source

    def __call__(self, points):
        pts = _real(points, "points")
        single = pts.ndim == 1
        vals = self._fn(np.atleast_2d(pts))
        return vals[0] if single else vals

    @classmethod
    def from_coeffs(cls, c: HarmonicCoeffs) -> "SphereFunction":
        def fn(pts):
            return _synthesize(c.coeffs, harmonic_values(c.max_degree, pts))
        return cls(fn, coeffs=c)

    @classmethod
    def constant(cls, value=1.0) -> "SphereFunction":
        c = np.zeros(1, dtype=complex if isinstance(value, complex) else float)
        c[0] = value * np.sqrt(4.0 * np.pi)
        return cls.from_coeffs(HarmonicCoeffs(0, c))

    @classmethod
    def plane_wave(cls, xi) -> "SphereFunction":
        """omega -> exp(i xi . omega); not band-limited."""
        xi = _real(xi, "plane-wave xi").reshape(3)
        return cls(lambda pts: np.exp(1j * (pts @ xi)))

    def antipodal_conjugate(self) -> "SphereFunction":
        if self.coeffs is not None:
            return SphereFunction.from_coeffs(self.coeffs.antipodal_conjugate())
        fn = self._fn
        return SphereFunction(lambda pts: np.conj(fn(-pts)))

    def sharp_rearrangement(self) -> "SphereFunction":
        """p -> sqrt((|f(p)|^2 + |f(-p)|^2) / 2); for coefficient-backed f,
        f(-p) is the parity-flipped row on p's one harmonic table."""
        fn, c = self._fn, self.coeffs
        rows = None if c is None else np.stack([c.coeffs, parity_signs(c.max_degree) * c.coeffs])

        def sharp(pts):
            plus, minus = ((fn(pts), fn(-pts)) if rows is None
                           else _synthesize(rows, harmonic_values(c.max_degree, pts)))
            return np.sqrt(0.5 * (np.abs(plus) ** 2 + np.abs(minus) ** 2))
        return SphereFunction(sharp, sharp_source=self)
