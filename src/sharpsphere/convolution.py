"""Convolution of sphere-carried measures, its slice tables, and the extension operator.

The convolution of two measures f*sigma and g*sigma is a function on the ball
|x| <= 2: at x it is the integral of f(omega) g(x - omega) over the circle
where the unit spheres centered at 0 and at x intersect, times 1/|x|. All
L4-norm computations route through this fact (Plancherel) instead of sampling
the oscillatory extension on a 3D grid; the norms themselves are forms.Q on
the ball route (forms.FormGrids.conv_l2_norm and .l4_norm).

On the slice at x a band-limited f of degree L is a trigonometric polynomial
of degree L in the slice angle psi, and the partner x - p of the node at psi
sits at psi + pi. SliceColumn holds such f as its 2L+1 slice-angle modes,
which pair_profile pairs by Parseval, and |f tensor g|^p of even p on the
band limit's own 2(pL+1) nodes (SplitValues.magnitude), both exactly at
every n_c. Node values, at each slice's nodes p_j and their partners (n_c
nodes, or at odd n_c the uniform 2 n_c: see _half_turn), are for what has
no band limit: sharp rearrangements, |.|^p of odd p and literal callables.
Pointwise values of f sigma * g sigma come two ways: convolve_many reads f
and g at those nodes through one SlicePlan, and pair_slice_average of the
kernel f tensor g is the literal route it is checked against.
"""

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .harmonics import HarmonicCoeffs, SphereFunction, harmonic_values, parity_signs
from .quadrature import BallGrid, SphereGrid, _require_int, circle_frames

__all__ = [
    "ConvProfile",
    "SliceColumn",
    "SlicePlan",
    "SplitValues",
    "convolve_many",
    "pair_profile",
    "pair_slice_average",
    "conv_profile",
    "extension_at",
]

# Centers per vectorized batch; bounds peak memory of the slice-point tables.
_CHUNK = 2048

# Slice nodes per azimuth block of a SliceColumn; bounds the ball route's
# per-block profile, sharp and literal arrays, not the column table or the
# synthesized fields it holds.
_BLOCK_NODES = 1 << 20


def _half_turn(n_c: int) -> np.ndarray:
    # The first N/2 slice angles of n_c's rule: n_c/2 of the n_c uniform
    # angles, all n_c at odd n_c. Node j + N/2 of a slice's N nodes is node
    # j's partner x - p_j, half a turn on, and node j is its partner's: N is
    # n_c, or 2 n_c at odd n_c, the uniform 2 n_c rule.
    _require_int(n_c, "n_c")
    return np.arange(n_c if n_c % 2 else n_c // 2) * (2.0 * np.pi / n_c)


def _mode_signs(L: int) -> np.ndarray:
    # (-1)^m per slice-angle mode 1, cos, sin, ..., cos L psi, sin L psi
    return np.repeat(1.0 - 2.0 * (np.arange(L + 1) % 2), 2)[1:]


@lru_cache(maxsize=None)
def _expansion(L: int, n_c: int) -> np.ndarray:
    """(2L+1, N) matrix taking slice-angle modes to the N slice nodes (_half_turn).

    Row 0 is 1, rows 2m-1 and 2m are cos(m psi) and sin(m psi) at each node
    angle psi. A partner node sits at psi + pi, so its column is (-1)^m times
    its rule node's. Read-only.
    """
    m_psi = np.arange(1, L + 1)[:, None] * _half_turn(n_c)
    rule = np.ones((2 * L + 1, m_psi.shape[1]))
    rule[1::2], rule[2::2] = np.cos(m_psi), np.sin(m_psi)
    out = np.concatenate([rule, _mode_signs(L)[:, None] * rule], axis=1)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def _mode_weights(modes: int) -> np.ndarray:
    """Parseval weights of a pair profile over modes = 2L+1 slice-angle modes.

    For a and b in modes, the integral over psi of a(psi) b(psi + pi) is
    2 pi a_0 b_0 + pi sum_m (-1)^m (a_cm b_cm + a_sm b_sm), the dot product
    of a * b with these weights. Read-only.
    """
    w = np.pi * _mode_signs(modes // 2)
    w[0] = 2.0 * np.pi
    w.flags.writeable = False
    return w


def _to_nodes(a: np.ndarray, expansion: np.ndarray) -> np.ndarray:
    # slice-angle modes (last axis) to the slice nodes, in one matmul
    return (a.reshape(-1, a.shape[-1]) @ expansion).reshape(a.shape[:-1] + (-1,))


def _square_sum(rows, expansion: np.ndarray | None) -> np.ndarray:
    # the sum of the squares of real rows in one new array, each row taken
    # from slice-angle modes to the nodes of expansion first, if given; one
    # row's square is formed next to the sum at a time
    acc = None
    for row in rows:
        if expansion is None:
            sq = np.square(row)
        else:
            sq = _to_nodes(row, expansion)
            np.square(sq, out=sq)
        acc = sq if acc is None else np.add(acc, sq, out=acc)
        del sq   # before the next row's array is made
    return acc


def _slice_nodes(X: np.ndarray, n_c: int, count: int | None = None):
    # slice_point_table's body: the first count (default all) of the N nodes
    # on the slices at X, and |X|. The _half_turn angles, then their
    # displacements negated, each partner the opposite of its node about the
    # centre bitwise, so pairing inequalities degrade only at rounding level.
    # SliceColumn's table build takes only the 2L+1 rule nodes, no partners.
    ang = _half_turn(n_c)
    c, s = (np.concatenate([v, -v]) for v in (np.cos(ang), np.sin(ang)))
    centers, rad, e1, e2 = circle_frames(X)
    disp = c[None, :count, None] * e1[:, None, :] + s[None, :count, None] * e2[:, None, :]
    return centers[:, None, :] + rad[:, None, None] * disp, np.linalg.norm(X, axis=-1)


def slice_point_table(X: np.ndarray, n_c: int):
    """Circle-slice nodes for a batch of centers X, shape (M, 3).

    Returns (pts, radii) with pts of shape (M, N, 3); row i holds the N
    nodes of the slice at X[i], each node's partner x - p among them: N = n_c,
    or at odd n_c the uniform 2 n_c rule (see _half_turn).
    """
    return _slice_nodes(X, n_c)


def _finite(x, what: str) -> np.ndarray:
    # x as a float array; a non-finite entry raises ValueError naming what
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{what} must be finite")
    return x


def _row_keys(row: np.ndarray) -> tuple:
    # bytes of a real row and of its negation, -0.0 read as 0.0 and trailing
    # zeros trimmed: rows equal up to sign share keys at any padding
    nz = np.flatnonzero(row)
    head = row[:nz[-1] + 1 if nz.size else 0] + 0.0
    return head.tobytes(), (0.0 - head).tobytes()


class SplitValues(NamedTuple):
    """Values re_sign re + 1j im_sign im, held as real arrays with signs.

    re and im are usually rows of a SliceColumn's held fields, read in place;
    im is None for real values. The signs are +-1.

    expansion marks the domain. None: the last axis runs over slice nodes.
    Otherwise the last axis holds the 2L+1 slice-angle modes of a
    band-limited function (see SliceColumn), and expansion is the
    (2L+1, nodes) matrix that takes them to the slice nodes (nodes()).

    products, when set, is a store that pair_profile keeps the real products
    of these parts in, shared with every SplitValues that holds the same
    store; keys then names each part in it (re's key, im's), and equal keys
    name equal arrays (see SlicePlan.values).
    """

    re: np.ndarray
    im: np.ndarray | None = None
    re_sign: float = 1.0
    im_sign: float = 1.0
    keys: tuple = (None, None)
    products: dict | None = None
    expansion: np.ndarray | None = None

    def parts(self) -> list:
        """(array, sign, unit, key) per part: unit 1.0 for re, 1j for im."""
        re = (self.re, self.re_sign, 1.0, self.keys[0])
        return [re] if self.im is None else [re, (self.im, self.im_sign, 1j, self.keys[1])]

    def dense(self) -> np.ndarray:
        """The values as one real or complex array, in their own domain."""
        if self.im is None:
            return self.re if self.re_sign > 0 else -self.re
        v = np.empty(self.re.shape, dtype=complex)
        np.multiply(self.re, self.re_sign, out=v.real)
        np.multiply(self.im, self.im_sign, out=v.imag)
        return v

    def nodes(self) -> "SplitValues":
        """The values at the slice nodes: self if they are there already,
        else each part expanded into a new array, with no store."""
        if self.expansion is None:
            return self
        im = None if self.im is None else _to_nodes(self.im, self.expansion)
        return SplitValues(_to_nodes(self.re, self.expansion), im, self.re_sign, self.im_sign)

    def magnitude(self, p: int, n_c: int | None = None) -> "SplitValues":
        """|v|^p, real, in one new buffer at the nodes of expansion, or of
        _expansion(L, n_c) if n_c is given, or at the nodes the values are
        at; real |x|^2 is np.square(x) bit for bit."""
        expansion = self.expansion
        if expansion is not None and n_c is not None:
            expansion = _expansion(expansion.shape[0] // 2, n_c)
        m = _square_sum([part for part, *_ in self.parts()], expansion)
        if p != 2:
            m **= p / 2
        return SplitValues(m)


class SlicePlan:
    """How to evaluate several functions on slices from one basis table, at
    points (at) or, for a SliceColumn, as slice-angle modes (values).

    requests holds (func, negate) pairs, each asking for func at the nodes p,
    or at -p when negate. A coefficient-backed function becomes its real and
    imaginary coefficient rows, parity-flipped for f(-p); a sharp
    rearrangement of one becomes its source's rows for +p and -p, combined as
    sqrt((re+^2 + im+^2 + re-^2 + im-^2) / 2), which is antipodally symmetric
    and stays real; any other callable is called at the literal nodes.

    Rows are shared by content: a real row equal to another, or to its
    negation, bit for bit, is stored once and read with its sign. Since
    f_star = conj(f(-.)) has the real row of f(-p) and the negated imaginary
    one, f, f_star and both at -p cost the rows of f at +p and -p. Requests
    whose rows (or, for callables, object and sign) agree share one entry.

    rows stacks the distinct real rows, padded to (degree + 1)^2 columns of
    the flat layout; degree is the band limit of the basis table they need.
    Without coefficient-backed requests rows is None and degree is 0.
    """

    def __init__(self, requests):
        sources = [(getattr(func, "coeffs", None),
                    getattr(getattr(func, "sharp_source", None), "coeffs", None))
                   for func, _ in requests]
        width = max((len(c.coeffs) for pair in sources for c in pair if c is not None),
                    default=0)
        rows, where = [], {}

        def row(part: np.ndarray) -> tuple:
            # (index, sign) of a real row, stored once up to its sign; rows of
            # one plan share a width, so their untrimmed bytes tell them apart
            p = np.zeros(width)
            p[:len(part)] = part
            p += 0.0   # maps -0.0 to 0.0
            key = p.tobytes()
            if key not in where:
                where[(0.0 - p).tobytes()] = (len(rows), -1.0)
                where[key] = (len(rows), 1.0)   # after the negation: a zero row reads +
                rows.append(p)
            return where[key]

        def split(c: HarmonicCoeffs, negate: bool) -> tuple:
            # the real row and the imaginary one (None for real coefficients)
            v = c.coeffs * parity_signs(c.max_degree) if negate else c.coeffs
            return row(v.real), (row(v.imag) if np.iscomplexobj(v) else None)

        self._entries, self._index, seen = [], [], {}
        for (func, negate), (c, src) in zip(requests, sources):
            if c is not None:
                entry = ("field",) + split(c, negate)
            elif src is not None:
                entry = ("sharp",) + split(src, False) + split(src, True)
            else:
                entry = ("call", func, negate)
            key = ("call", id(func), negate) if entry[0] == "call" else entry
            if key not in seen:
                seen[key] = len(self._entries)
                self._entries.append(entry)
            self._index.append(seen[key])
        self.rows = np.array(rows) if rows else None
        self.degree = math.isqrt(width) - 1 if rows else 0

    def values(self, fields, nodes, products=None, expansion=None) -> list:
        """Per request, its values on a set of slices, as SplitValues.

        fields holds one (array, sign) pair per distinct row, in the order of
        rows (empty or None without rows): the row on the slices is sign *
        array, so a caller can hand over a held field of the negated row
        without negating it. The arrays hold values at the slice nodes, or,
        given expansion (see SplitValues), slice-angle modes. nodes() returns
        the literal nodes with the node axes plus a last axis of 3, and is
        called only for literal calls. A coefficient-backed request reads its
        arrays in place, with its signs times theirs, in their domain; a sharp
        rearrangement is built at the nodes in one new buffer; a literal call
        is split into views of its real and imaginary parts. Requests that
        share an entry get the same object.

        products is the store (SplitValues.products) of the fields' real
        products, or None: coefficient-backed values carry it, keyed by row
        index, so a product of two rows is formed once for as long as the
        store lives. Sharp and literal values carry a store of this call's
        own, keyed by entry and part, so they share products only with each
        other and only among the values returned here.
        """
        pts, out, own = None, [], {}
        for e, (kind, *args) in enumerate(self._entries):
            if kind == "field":
                (i, si), im = args
                re, sr = fields[i]
                if im is None:
                    v = SplitValues(re, None, si * sr, 1.0, (i, None), products, expansion)
                else:
                    vi, sv = fields[im[0]]
                    v = SplitValues(re, vi, si * sr, im[1] * sv, (i, im[0]), products,
                                    expansion)
            elif kind == "sharp":
                acc = _square_sum([fields[r[0]][0] for r in args if r is not None], expansion)
                acc *= 0.5
                v = SplitValues(np.sqrt(acc, out=acc), keys=((e, 0), None), products=own)
            else:
                func, negate = args
                if pts is None:
                    pts = nodes()
                flat = pts.reshape(-1, 3)
                dense = np.asarray(func(-flat if negate else flat)).reshape(pts.shape[:-1])
                v = (SplitValues(dense.real, dense.imag) if np.iscomplexobj(dense)
                     else SplitValues(dense))._replace(keys=((e, 0), (e, 1)), products=own)
            out.append(v)
        return [out[i] for i in self._index]

    def at(self, points: np.ndarray) -> list:
        """Per request, its values as dense arrays at points of any shape (last
        axis 3), with the coefficient rows synthesized from one harmonic table.
        Non-finite values raise ValueError."""
        fields = None
        if self.rows is not None:
            table = harmonic_values(self.degree, points.reshape(-1, 3))
            fields = [(v, 1.0) for v in (self.rows @ table).reshape((-1,) + points.shape[:-1])]
        split = self.values(fields, lambda: points)
        dense = {id(v): v.dense() for v in split}
        if not all(np.all(np.isfinite(v)) for v in dense.values()):
            raise ValueError("function produced non-finite values at the nodes")
        return [dense[id(v)] for v in split]


class SliceColumn:
    """The circle slices of a product ball grid, tabulated on one azimuth column.

    Ball grid directions carry 2 n_t uniform azimuths, and circle_frames takes
    each slice frame from the azimuthal unit vector of its centre, so the
    slice at azimuth row a is the first column's slice rotated about the z
    axis by alpha_a = a pi / n_t, node by node. Real harmonics rotate order by
    order,

        Y_{k,m}(R p)  = cos(m alpha) Y_{k,m}(p) - sin(m alpha) Y_{k,-m}(p),
        Y_{k,-m}(R p) = sin(m alpha) Y_{k,m}(p) + cos(m alpha) Y_{k,-m}(p),

    so a band-limited f on every slice is trig @ spectra(c): spectra mixes
    the coefficients with the column table into the 2L+1 azimuth Fourier rows
    A_0, A_1, B_1, ..., A_L, B_L, and row a of trig holds 1, cos(m alpha_a),
    sin(m alpha_a).

    On each slice, degree-L harmonics are trigonometric polynomials of degree
    L in the slice angle psi, so the table holds their 2L+1 psi-modes
    1, cos psi, sin psi, ..., cos L psi, sin L psi per column centre: shape
    ((L+1)^2, column centres * (2L+1)), centre-major, built from harmonic
    values at 2L+1 uniform slice angles by one exact real DFT. The table rows
    are grouped by order: degrees 0..L of order 0, then for each m >= 1 the
    +m rows of degrees m..L followed by the -m rows, so every order is one
    contiguous block. Nothing in it depends on n_c: pair_profile pairs modes
    exactly (_mode_weights), and the slice nodes enter only through
    expansion, the (2L+1, N) matrix to each slice's N nodes, n_c or, at odd
    n_c, 2 n_c: the rule nodes, then their partners x - p_j (see _half_turn).
    Those node values serve only what has no band limit: sharp
    rearrangements, |.|^p of odd p and literal calls; |.|^p of even p pairs
    on its band limit's own rule (SplitValues.magnitude). Literal calls read
    points(), slice_point_table at the rotated centres.

    Values on slices come in blocks of shape (azimuth rows, column centres,
    modes or slice nodes), the centres radial-major as in BallGrid.points();
    radii and weights belong to the column centres and hold for every
    azimuth row.

    Antipodal rows: the ball node x at (radius, polar ring i, azimuth row a)
    has -x at (radius, ring n_t-1-i, row a+n_t), of equal weight, and
    circle_frames gives -x the frame (-e1, e2): -x's slice is x's negated,
    slice angle negated. So the ball routes read rows [0, n_t), at p and -p.

    recall is the column's one memo, of its last call's coefficient rows and
    only those, as modes on azimuth rows [0, n_t); a later call on the same
    rows, each equal up to sign, reads them in place. The forms route and
    the ascent (maximizer.Workspace) both read it through sampler. Next to
    the fields the memo keeps, per azimuth block, their real products in
    modes, which pair_profile forms at most once while recall holds those
    fields. Node values are formed per use and not kept: a row at the nodes
    takes N / (2L+1) times the memory of its modes.
    """

    def __init__(self, ball: BallGrid, n_c: int, L: int):
        dirs = ball.directions
        n_t = (dirs.exactness_degree + 1) // 2
        n_az = 2 * n_t
        if dirs.n_nodes != n_t * n_az:
            raise ValueError("ball directions are not a product grid with 2 n_t azimuths")
        self._centres = (ball.radial_nodes[:, None, None] * dirs.nodes[::n_az]).reshape(-1, 3)
        self.weights = ball.weights()[::n_az]
        self.n_c, self.n_az, self.L = n_c, n_az, L
        alpha = np.arange(n_az) * (np.pi / n_t)
        self._cos, self._sin = np.cos(alpha), np.sin(alpha)
        m_alpha = alpha[:, None] * np.arange(1, L + 1)
        self.trig = np.ones((n_az, 2 * L + 1))
        self.trig[:, 1::2] = np.cos(m_alpha)
        self.trig[:, 2::2] = np.sin(m_alpha)
        order, mix, sign = [k * k + k for k in range(L + 1)], [], []
        for m in range(1, L + 1):
            plus, minus = ([k * k + k + s for k in range(m, L + 1)] for s in (m, -m))
            order += plus + minus
            mix += plus + minus + minus + plus   # spectra's [[plus, minus], [minus, -plus]]
            sign += [1.0] * (3 * len(plus)) + [-1.0] * len(plus)
        self._order = np.array(order)
        self._mix = np.array(order[:L + 1] + mix), np.array([1.0] * (L + 1) + sign)
        self.expansion = _expansion(L, n_c)
        # harmonics at 2L+1 uniform slice angles; the DFT takes each row's
        # values to its modes, written straight into the row's ordered slot
        modes = 2 * L + 1
        uniform, self.radii = _slice_nodes(self._centres, modes, modes)
        values = harmonic_values(L, uniform.reshape(-1, 3)).reshape(len(order), -1, modes)
        dft = _expansion(L, modes)[:, :modes].T * (np.where(np.arange(modes), 2.0, 1.0) / modes)
        self.table = np.empty((len(order), values.shape[1] * modes))
        for row, k in zip(self.table, self._order):
            np.matmul(values[k], dft, out=row.reshape(-1, modes))
        # the last recall's _row_keys, its fields buffer and, per block, the
        # fields' real products
        self._memo = ([], (), {})

    def blocks(self):
        """Azimuth row ranges (a0, a1) covering rows [0, n_t) only.

        Row a + n_t holds the slices of -x for the ball nodes x of row a (see
        antipodal rows, above), so the ball route reads them off row a at -p.
        Each block spans about _BLOCK_NODES slice nodes of x and -x together;
        the blocks bound the profile, sharp and literal arrays of one block,
        since the memo's coefficient fields are held whole.
        """
        n_t = self.n_az // 2
        n = min(n_t, -(-self.n_az * self.radii.size * self.expansion.shape[1] // _BLOCK_NODES))
        edges = np.arange(n + 1) * n_t // n
        return list(zip(edges[:-1], edges[1:]))

    def centres(self, a0: int, a1: int) -> np.ndarray:
        """The slices' centres x at azimuth rows a0:a1, shape (a1 - a0, centres, 3):
        the column's centres turned about z by alpha_a per row a."""
        c, s = self._cos[a0:a1, None], self._sin[a0:a1, None]
        x, y, z = self._centres.T
        return np.stack([c * x - s * y, s * x + c * y, np.broadcast_to(z, (a1 - a0,) + z.shape)],
                        axis=-1)

    def points(self, a0: int, a1: int) -> np.ndarray:
        """Literal slice nodes of azimuth rows a0:a1, shape (a1 - a0, centres, nodes, 3):
        slice_point_table at centres(a0, a1), placed per call."""
        x = self.centres(a0, a1)
        return slice_point_table(x.reshape(-1, 3), self.n_c)[0].reshape(x.shape[:-1] + (-1, 3))

    def spectra(self, coeffs: np.ndarray) -> np.ndarray:
        """Azimuth Fourier rows, shape (n, 2L+1, table columns), of real coefficient rows.

        coeffs has shape (n, (L'+1)^2) with L' <= L, in the flat layout.
        """
        L, nv = self.L, len(coeffs)
        c = np.zeros((nv, (L + 1) ** 2))
        c[:, :coeffs.shape[1]] = coeffs
        c = c[:, self._mix[0]] * self._mix[1]   # order 0, then each order's mixing matrix
        out = np.empty((nv, 2 * L + 1, self.table.shape[1]))
        out[:, 0] = c[:, :L + 1] @ self.table[:L + 1]
        lo = L + 1
        for m in range(1, L + 1):
            n = L + 1 - m
            mix = c[:, 2 * lo - L - 1:2 * lo - L - 1 + 4 * n].reshape(2 * nv, 2 * n)
            out[:, 2 * m - 1:2 * m + 1] = (mix @ self.table[lo:lo + 2 * n]).reshape(nv, 2, -1)
            lo += 2 * n
        return out

    def pullback(self, rows: np.ndarray) -> np.ndarray:
        """Adjoint of spectra: the coefficient gradients, shape (n, (L+1)^2),
        of sum(rows * spectra(c)) for rows of shape (n, 2L+1, table columns)."""
        L = self.L
        g = np.empty((len(rows), (L + 1) ** 2))
        g[:, :L + 1] = rows[:, 0] @ self.table[:L + 1].T
        lo = L + 1
        for m in range(1, L + 1):
            n = L + 1 - m
            e = rows[:, 2 * m - 1:2 * m + 1] @ self.table[lo:lo + 2 * n].T
            g[:, lo:lo + n] = e[:, 0, :n] - e[:, 1, n:]
            g[:, lo + n:lo + 2 * n] = e[:, 0, n:] + e[:, 1, :n]
            lo += 2 * n
        out = np.empty_like(g)
        out[:, self._order] = g
        return out

    def recall(self, rows) -> tuple:
        """(fields, signs) of real coefficient rows, shape (n, (L'+1)^2) or
        None: row i on the slices of azimuth rows [0, n_t) is signs[i] *
        fields[i], fields a read-only buffer (n, n_t, column centres, 2L+1)
        of slice-angle modes. Each row is keyed once (_row_keys).

        Rows equal, up to sign (by content, as in SlicePlan), to the last
        call's, in their order, get its buffer back. Any other rows replace
        it: all take one spectra pass and one synthesis trig[:n_t] @ spectra
        into one buffer, since BLAS may round a row differently in a batch of
        another size; the spectra are dropped, and so are the products kept
        with the fields replaced. A call without rows needs no fields: it
        gets an empty buffer and leaves the memo as it is.
        """
        if rows is None or not len(rows):
            return (), []
        keys = [_row_keys(r) for r in rows]
        signs = [1.0 if key == k else -1.0 if key == neg else None   # a zero row reads +
                 for (key, _), (k, neg) in zip(keys, self._memo[0])]
        if len(keys) == len(self._memo[0]) and None not in signs:
            return self._memo[1], signs
        self._memo = ([], (), {})   # frees the last call's buffer before this call's
        n_t = self.n_az // 2
        fields = np.empty((len(rows), n_t, self.radii.size, 2 * self.L + 1))
        np.matmul(self.trig[:n_t], self.spectra(rows), out=fields.reshape(len(rows), n_t, -1))
        fields.flags.writeable = False
        self._memo = (keys, fields, {})
        return fields, [1.0] * len(keys)

    def sampler(self, plan: SlicePlan):
        """Evaluator of plan's requests on the slices of any azimuth block.

        The returned sample(a0, a1) gives, per request, its SplitValues (see
        SlicePlan.values) at azimuth rows a0:a1 inside [0, n_t), the rows
        blocks() covers; other ranges raise ValueError. Coefficient-backed
        values are slice-angle modes, parts of shape (a1 - a0, column centres,
        2L+1), with this column's expansion; sharp and literal values are at
        the slice nodes. The table must reach plan.degree. The coefficient
        rows' fields come from recall, the column's one memo, so every value
        is bit for bit that of a fresh column; sample reads views of those
        fields, and a negated field with the opposite sign.

        Coefficient-backed values carry the memo's store (SplitValues.products)
        of the held fields' real products on block a0:a1, keyed by row index
        (plan.rows is the order of recall's rows), so pair_profile forms the
        product of two held rows on a block once across every sampler of
        those fields, the forms route and Workspace alike. recall drops the
        store with the fields, and a sampler whose fields were replaced gets
        none. Keys are row indices, never array identities.
        """
        fields, signs = self.recall(plan.rows)
        n_t = self.n_az // 2

        def sample(a0: int, a1: int) -> list:
            if not 0 <= a0 <= a1 <= n_t:
                raise ValueError(f"azimuth rows {a0}:{a1} lie outside the sampled range 0:{n_t}")
            held = len(fields) and fields is self._memo[1]
            return plan.values([(v[a0:a1], sign) for v, sign in zip(fields, signs)],
                               lambda: self.points(a0, a1),
                               self._memo[2].setdefault((a0, a1), {}) if held else None,
                               self.expansion)

        return sample


def _half_pair(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # sum over each slice of a at node j times b at its partner, node j + N/2
    # of N (halves crosswise); einsum sums each half over j and adds the two
    # sums once, so a and b swapped give the same bits (pair_profile keys
    # such products unordered)
    half = a.shape[-1] // 2
    a = a.reshape(a.shape[:-1] + (2, half))
    b = b.reshape(b.shape[:-1] + (2, half))[..., ::-1, :]
    return np.einsum("...ij,...ij->...", a, b)


def _mode_pair(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # the integral over psi of a(psi) b(psi + pi) on each slice, of a and b in
    # slice-angle modes; a * b is b * a bit for bit, so a swap gives the same bits
    return (a * b) @ _mode_weights(a.shape[-1])


def pair_profile(va, vb, radii: np.ndarray) -> np.ndarray:
    """(f sigma * g sigma)(x) from f and g on x's slice (last axis).

    Leading axes run over centres x of norm radii. va and vb are dense
    arrays at the slice nodes, or SplitValues, whose signed real parts are
    paired in place: Re = sum(a_r b_r - a_i b_i), Im = sum(a_r b_i + a_i b_r);
    the result is real when both are.

    Two SplitValues in slice-angle modes pair by Parseval (_mode_weights):
    exact for band-limited factors at every n_c. Otherwise both are taken to
    the slice nodes (SplitValues.nodes) and paired by the trapezoid rule on
    the N nodes of the last axis, N even and read from the values: the
    partner x - p_j of node j is node j + N/2 and back (see _half_turn),
    so the two halves of each slice pair crosswise.

    When va and vb carry one product store (SplitValues.products), each real
    product of two parts is read from it, or formed and kept there, under
    the parts' keys as an unordered pair: a pair and its swap give the same
    bits.
    """
    dense = isinstance(va, np.ndarray)
    if not dense and (va.expansion is None) != (vb.expansion is None):
        va, vb = va.nodes(), vb.nodes()
    if not dense and va.expansion is not None:
        pair, scale = _mode_pair, 1.0
    else:
        nodes = (va if dense else va.re).shape[-1]
        if nodes % 2:
            raise ValueError(f"pair_profile needs an even node count, got {nodes}")
        pair, scale = _half_pair, 2.0 * np.pi / nodes
    if dense:
        s = pair(va, vb)
    else:
        store = va.products if va.products is vb.products else None

        def product(a, ka, b, kb):
            if store is None:
                return pair(a, b)
            key = (kb, ka) if kb < ka else (ka, kb)
            if key not in store:
                store[key] = pair(a, b)
            return store[key]

        s = sum(ua * ub * (sa * sb) * product(a, ka, b, kb)
                for a, sa, ua, ka in va.parts() for b, sb, ub, kb in vb.parts())
    return scale * s / radii


def pair_slice_average(F, X: np.ndarray, n_c: int) -> np.ndarray:
    """(1/|x|) * integral of F(omega(phi), x - omega(phi)) dphi for each row x of X.

    The pair-measure profile of a kernel F(omega, nu): for F = f tensor g
    this is the convolution of f sigma and g sigma at x. This is the literal
    route (partner points x - p, generic evaluator) that the table routes are
    cross-checked against, on slice_point_table's nodes. Exact (up to
    rounding) whenever F(omega(phi), x - omega(phi)) is a trigonometric
    polynomial of degree < N in the slice angle, N = n_c or, at odd n_c,
    2 n_c, which holds with degree 2L for f tensor g of band-limited f, g of
    degree L. The result is real when F's values are. A centre at 0 raises
    DegenerateSliceError, one beyond |x| = 2 EmptyIntersectionError, and
    non-finite centres or values ValueError.
    """
    X = np.atleast_2d(_finite(X, "slice centres"))
    parts = [np.zeros(0)]
    for i0 in range(0, len(X), _CHUNK):
        pts, r = slice_point_table(X[i0:i0 + _CHUNK], n_c)
        partner = X[i0:i0 + _CHUNK, None, :] - pts
        vals = np.asarray(F(pts.reshape(-1, 3), partner.reshape(-1, 3))).reshape(pts.shape[:2])
        if not np.all(np.isfinite(vals)):
            raise ValueError("kernel produced non-finite values on the slices")
        parts.append((2.0 * np.pi / vals.shape[1]) * vals.sum(axis=1) / r)
    return np.concatenate(parts)


def convolve_many(f, g, X: np.ndarray, n_c: int) -> np.ndarray:
    """(f sigma * g sigma)(x) for every row x of X, all finite; zero where |x| > 2.

    The slice nodes hold each node's partner x - p_j (see _half_turn), so
    g is read off the same nodes as f, both through one SlicePlan, and the
    two meet in pair_profile.
    """
    X = np.atleast_2d(_finite(X, "convolution centres"))
    out = np.zeros(len(X), dtype=complex)
    idx = np.flatnonzero(np.linalg.norm(X, axis=-1) <= 2.0)
    plan = SlicePlan([(f, False), (g, False)])
    for i0 in range(0, len(idx), _CHUNK):
        sel = idx[i0:i0 + _CHUNK]
        pts, rr = slice_point_table(X[sel], n_c)
        a, b = plan.at(pts)
        out[sel] = pair_profile(a, b, rr)
    return out


class ConvProfile:
    """Radial profile of (f sigma * g sigma)(r * direction)."""

    def __init__(self, radii: np.ndarray, values: np.ndarray, direction: np.ndarray):
        self.radii = np.asarray(radii, dtype=float)
        self.values = np.asarray(values)
        self.direction = np.asarray(direction, dtype=float)


def conv_profile(f, g, radii, direction=(0.0, 0.0, 1.0), n_c: int = 64) -> ConvProfile:
    """Sample the convolution at radii in (0, 2] along a finite nonzero direction."""
    radii = np.asarray(radii, dtype=float)
    if not np.all((radii > 0.0) & (radii <= 2.0)):
        raise ValueError("profile radii must lie in (0, 2]")
    u = np.asarray(direction, dtype=float).reshape(3)
    norm = np.linalg.norm(u)
    if not 0.0 < norm < np.inf:
        raise ValueError(f"profile direction must be finite and nonzero, got {u}")
    u = u / norm
    vals = convolve_many(f, g, radii[:, None] * u, n_c)
    return ConvProfile(radii, vals, u)


def extension_at(f: SphereFunction, x, grid: SphereGrid):
    """The extension (Fourier transform of f dsigma) at a finite point x in R^3."""
    x = _finite(x, "extension point").reshape(3)
    vals = np.asarray(f(grid.nodes)) * np.exp(-1j * (grid.nodes @ x))
    return np.sum(grid.weights * vals)
