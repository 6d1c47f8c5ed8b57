"""Convolution of sphere-carried measures, its slice tables, and the extension operator.

The convolution of two measures f*sigma and g*sigma is a function on the ball
|x| <= 2: at x it is the integral of f(omega) g(x - omega) over the circle
where the unit spheres centered at 0 and at x intersect, times 1/|x|. All
L4-norm computations route through this fact (Plancherel) instead of sampling
the oscillatory extension on a 3D grid; the norms themselves are forms.Q on
the ball route (forms.FormGrids.conv_l2_norm and .l4_norm).

On the slice at x a band-limited f of degree L is a trigonometric polynomial
of degree L in the slice angle psi, and the partner x - p of the node at psi
sits at psi + pi. SliceColumn gives such f as its 2L+1 slice-angle modes,
synthesized from two factors, a rotation block per polar ring and degree
and the Legendre values per radius, never held as one table of every
centre's modes. pair_profile pairs the modes by Parseval, and |f tensor
g|^2, f# included, on the band limit's own 2(2L+1) nodes, both exactly at
every n_c. Only unsquared sharp rearrangements take node values, at each
slice's nodes p_j and their partners (n_c nodes, or at odd n_c the uniform
2 n_c: see _half_turn), formed one chunk of slices at a time (_CHUNK_BYTES)
as pair_profile pairs them. Literal callables, plain-callable kernels
included, have no place on the column; pair_slice_average takes them at
slice_point_table's nodes. Pointwise values of f sigma * g sigma come two
ways: convolve_many reads f and g at those nodes through one SlicePlan,
and pair_slice_average of the kernel f tensor g is the literal route it
is checked against, each in batches of centres sized by bytes. For many
band-limited f, each on centres of its own, _star_and_sharp takes f's rows
to each slice's frame (harmonics._framed) and reads f, f_star and f# there.
"""

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .harmonics import (HarmonicCoeffs, SphereFunction, _framed, _legendre_factor,
                        _slot_orders, _turn, harmonic_values, parity_signs)
from .quadrature import (BallGrid, SphereGrid, _is_product_grid, _norm3, _real, _require_int,
                         circle_frames)

__all__ = [
    "SliceColumn",
    "SlicePlan",
    "SplitValues",
    "convolve_many",
    "pair_profile",
    "pair_slice_average",
    "conv_profile",
    "extension_at",
]

# Bytes per chunk of one array that is formed in pieces (_chunks): a part's
# modes or node values on a chunk of slices, a synthesis pass's fields on a
# chunk of (row, azimuth) pairs, the unit rows in a chunk of rings' frames.
# A chunk and the few arrays formed next to it sit in L2.
_CHUNK_BYTES = 1 << 18
_CALLABLE_NODES = 1 << 12   # slice nodes in a batch of pair_slice_average's plain callables


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


def _chunks(n: int, item_bytes: int) -> list:
    # ranges (i0, i1) covering range(n) in order, each of at most
    # _CHUNK_BYTES for items of item_bytes, and at least one item
    step = max(1, _CHUNK_BYTES // item_bytes)
    return [(i0, min(i0 + step, n)) for i0 in range(0, n, step)]


def _to_nodes(a: np.ndarray, expansion: np.ndarray) -> np.ndarray:
    # slice-angle modes (last axis) to the slice nodes, in one matmul
    return (a.reshape(-1, a.shape[-1]) @ expansion).reshape(a.shape[:-1] + (-1,))


def _rows(part, s0: int, s1: int, expansion: np.ndarray | None = None) -> np.ndarray:
    # part's values at the slice nodes on slices s0:s1 of its flattened slice
    # axes: formed (_Formed) or taken there from slice-angle modes by
    # expansion, in a new array; else a view of the values already there
    if isinstance(part, _Formed):
        return part.form(s0, s1)
    rows = part.reshape(-1, part.shape[-1])[s0:s1]
    return rows if expansion is None else _to_nodes(rows, expansion)


class _Formed(NamedTuple):
    # (scale * the sum of the squares of real parts)^power at the slice
    # nodes, formed per use: each part, an array of the same shape, is taken
    # there by expansion first (None: it is there already); shape is the
    # slice axes, then the node count
    parts: tuple
    expansion: np.ndarray | None
    scale: float = 1.0
    power: float = 1.0

    @property
    def shape(self) -> tuple:
        first = self.parts[0]
        nodes = first.shape[-1] if self.expansion is None else self.expansion.shape[1]
        return first.shape[:-1] + (nodes,)

    def form(self, s0: int, s1: int) -> np.ndarray:
        # slices s0:s1 of the flattened slice axes, shape (s1 - s0, nodes),
        # in a new array; one part's square is formed next to the sum at a
        # time, and the rest is done in place (numpy takes ** 0.5 as np.sqrt)
        acc = None
        for part in self.parts:
            sq = _rows(part, s0, s1, self.expansion)
            sq = np.square(sq, out=None if self.expansion is None else sq)
            acc = sq if acc is None else np.add(acc, sq, out=acc)
            del sq   # before the next part's array is made
        if self.scale != 1.0:
            acc *= self.scale
        if self.power != 1.0:
            acc **= self.power
        return acc


def _sharp(rows: tuple, expansion: np.ndarray | None = None) -> _Formed:
    # f# = sqrt((|f(p)|^2 + |f(-p)|^2) / 2) from the real rows of f at p and -p
    return _Formed(rows, expansion, 0.5, 0.5)


def slice_point_table(X: np.ndarray, n_c: int):
    """Circle-slice nodes for a batch of centers X, shape (M, 3).

    Returns (pts, radii) with pts of shape (M, N, 3); row i holds the N
    nodes of the slice at X[i], each node's partner x - p among them: N = n_c,
    or at odd n_c the uniform 2 n_c rule (see _half_turn). The _half_turn
    angles come first, then their displacements negated, each partner the
    opposite of its node about the centre bitwise, so pairing inequalities
    degrade only at rounding level.
    """
    ang = _half_turn(n_c)
    c, s = (np.concatenate([v, -v]) for v in (np.cos(ang), np.sin(ang)))
    centers, rad, e1, e2 = circle_frames(X)
    disp = c[None, :, None] * e1[:, None, :] + s[None, :, None] * e2[:, None, :]
    return centers[:, None, :] + rad[:, None, None] * disp, np.linalg.norm(X, axis=-1)


def _sources(func) -> tuple:
    # (func's coefficients, its sharp source's), each None where it has none
    return (getattr(func, "coeffs", None),
            getattr(getattr(func, "sharp_source", None), "coeffs", None))


def _backed(func) -> bool:
    # whether a SlicePlan backs func with coefficient rows: func is
    # coefficient-backed, or the sharp rearrangement of such a function
    return any(c is not None for c in _sources(func))


def _finite(x, what: str) -> np.ndarray:
    # x as a float array; a complex or non-finite entry raises ValueError naming what
    x = _real(x, what)
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{what} must be finite")
    return x


class SplitValues(NamedTuple):
    """Values re_sign re + 1j im_sign im, held as real arrays with signs.

    re and im are usually rows of a SliceColumn's held fields, read in place;
    im is None for real values. The signs are +-1. re may instead be a
    formula (_Formed) of real rows, formed per use (sharp rearrangements,
    and |.|^2 in pair_profile): real values at the slice nodes, made one
    chunk of slices at a time (chunk), never kept.

    expansion marks the domain. None: the last axis runs over slice nodes.
    Otherwise the last axis holds the 2L+1 slice-angle modes of a
    band-limited function (see SliceColumn), and expansion is the
    (2L+1, nodes) matrix that takes them to the slice nodes (chunk, nodes).

    products, when set, is a store that pair_profile keeps the real products
    of these parts in, shared with every SplitValues that holds the same
    store; keys then names each part in it (re's key, im's), and equal keys
    name equal arrays (see SlicePlan.values).
    """

    re: np.ndarray | _Formed
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
        """The values as one real or complex array, in their own domain;
        formed values at the slice nodes."""
        if isinstance(self.re, _Formed):
            return self.re.form(0, math.prod(self.re.shape[:-1])).reshape(self.re.shape)
        if self.im is None:
            return self.re if self.re_sign > 0 else -self.re
        v = np.empty(self.re.shape, dtype=complex)
        np.multiply(self.re, self.re_sign, out=v.real)
        np.multiply(self.im, self.im_sign, out=v.imag)
        return v

    def chunk(self, s0: int, s1: int) -> list:
        """Each part's values at the slice nodes on slices s0:s1 of the
        flattened slice axes, shape (s1 - s0, N), unsigned: a view of
        values already there, else a new array, expanded or formed."""
        return [_rows(part, s0, s1, self.expansion) for part, *_ in self.parts()]


class SlicePlan:
    """How to evaluate several functions on slices from one basis table, at
    points (at) or, for a SliceColumn, as slice-angle modes (values).

    requests holds (func, negate) pairs, each asking for func at the nodes p,
    or at -p when negate. A coefficient-backed function becomes its real and
    imaginary coefficient rows, times parity_signs for f(-p); a sharp
    rearrangement of one becomes its source's rows for +p and -p, combined as
    sqrt((re+^2 + im+^2 + re-^2 + im-^2) / 2), which is antipodally symmetric
    and stays real. These are the functions the plan backs with coefficient
    rows (_backed). Any other callable is a literal call, evaluated at points
    only (at).

    Row identity is decided here, once: each real row is stored in canonical
    sign, the sign that makes its first nonzero entry positive (a zero row
    stays zero), with -0.0 read as 0.0, and read with the sign that gives it
    back. So rows equal up to sign are one stored row, bit for bit, whichever
    plan stores them, and a SliceColumn recognizes them across calls by
    content alone (SliceColumn.recall). Since f_star = conj(f(-.)) has the
    real row of f(-p) and the negated imaginary one, f, f_star and both at
    -p cost the rows of f at +p and -p; a row of pure parity is its own
    parity flip up to sign, so it is one row at +-p. Requests whose rows (or,
    for literal calls, object and sign) agree share one entry.

    rows stacks the distinct real rows, padded to (degree + 1)^2 columns of
    the flat layout; degree is the band limit of the basis table they need.
    Without coefficient-backed requests rows is None and degree is 0. keys
    names the parts its values read, row indices and sharp entries; a held
    product of any other part is one its values cannot read.
    """

    def __init__(self, requests):
        sources = [_sources(func) for func, _ in requests]
        width = max((len(c.coeffs) for pair in sources for c in pair if c is not None),
                    default=0)
        rows, where = [], {}

        def row(part: np.ndarray) -> tuple:
            # (index, sign) of a real row, stored once in canonical sign; rows
            # of one plan share a width, so their bytes tell them apart
            p = np.zeros(width)
            p[:len(part)] = part
            nz = np.flatnonzero(p)
            sign = -1.0 if nz.size and p[nz[0]] < 0.0 else 1.0
            p = sign * p + 0.0   # + 0.0 maps -0.0 to 0.0
            i = where.setdefault(p.tobytes(), len(rows))
            if i == len(rows):
                rows.append(p)
            return i, sign

        splits = {}

        def split(c: HarmonicCoeffs, negate: bool) -> tuple:
            # the real row and the imaginary one (None for real coefficients),
            # made once per coefficients and sign (the requests keep c alive)
            key = id(c), negate
            if key not in splits:
                v = c.coeffs * parity_signs(c.max_degree) if negate else c.coeffs
                splits[key] = row(v.real), (row(v.imag) if np.iscomplexobj(v) else None)
            return splits[key]

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
        self.keys = frozenset([i for e in self._entries if e[0] == "field"
                               for i, _ in filter(None, e[1:])]
                              + [e for e in self._entries if e[0] == "sharp"])

    def _split(self, fields, products=None, expansion=None) -> list:
        # per entry, its SplitValues on the fields (see values); None for a
        # literal call
        out = []
        for kind, *args in self._entries:
            if kind == "field":
                (i, si), im = args
                j, sj = im or (None, 1.0)
                out.append(SplitValues(fields[i], None if j is None else fields[j], si, sj,
                                       (i, j), products, expansion))
            elif kind == "sharp":
                rows = tuple(fields[r[0]] for r in args if r is not None)
                out.append(SplitValues(_sharp(rows, expansion),
                                       keys=((kind, *args), None), products=products))
            else:
                out.append(None)
        return out

    def values(self, fields, products=None, expansion=None) -> list:
        """Per request, its values on a set of slices, as SplitValues.

        fields holds one array per row, in the order of rows (empty or None
        without rows): each row's values at the slice nodes, or, given
        expansion (see SplitValues), its slice-angle modes. A
        coefficient-backed request reads its arrays in place, with its rows'
        signs, in their domain; a sharp rearrangement is the formula
        sqrt((the sum of its source rows' squares) / 2), formed at the nodes
        per use, one chunk of slices at a time (SplitValues.chunk). Requests
        that share an entry get the same object. A literal call has no
        values here and raises ValueError: only at evaluates it.

        products is the one store (SplitValues.products) of the values' real
        products, or None; every value carries it (a SliceColumn's is
        described at SliceColumn.recall), a coefficient-backed part keyed by
        its row index, a sharp one by its entry, its source rows and signs.
        """
        out = self._split(fields, products, expansion)
        if any(v is None for v in out):
            raise ValueError("a literal call has no values on slices; SlicePlan.at evaluates it")
        return [out[i] for i in self._index]

    def at(self, points: np.ndarray) -> list:
        """Per request, its values as dense arrays at points of any shape (last
        axis 3), with the coefficient rows synthesized from one harmonic table
        and literal calls called at points. Non-finite values raise ValueError."""
        fields = None
        if self.rows is not None:
            table = harmonic_values(self.degree, points.reshape(-1, 3))
            fields = (self.rows @ table).reshape((-1,) + points.shape[:-1])
        dense, flat = [], points.reshape(-1, 3)
        for v, entry in zip(self._split(fields), self._entries):
            if v is None:
                _, func, negate = entry
                v = np.asarray(func(-flat if negate else flat)).reshape(points.shape[:-1])
            else:
                v = v.dense()
            if not np.all(np.isfinite(v)):
                raise ValueError("function produced non-finite values at the nodes")
            dense.append(v)
        return [dense[i] for i in self._index]


def _ring_blocks(L: int, rings: np.ndarray) -> list:
    # per degree k, every ring's block D_j^k, shape (2k+1 orders m, 2k+1
    # modes, rings): Y_{k,m}(R_j q) = sum_m' D_j^k[m, m'] Y_{k,m'}(q), R_j =
    # (e1, e2, u_j) of circle_frames, columns m' in mode order 0, 1, -1, ...,
    # k, -k. Row m is slot (k, m)'s unit row framed (_framed, np.longdouble
    # angles), one row of order m for every degree, _CHUNK_BYTES at a time;
    # then one Newton-Schulz step, D <- (3I - D D^T) D / 2
    unit = np.equal.outer(np.arange(-L, L + 1), _slot_orders(L)).astype(float)
    blocks = [np.empty((2 * k + 1, 2 * k + 1, len(rings))) for k in range(L + 1)]
    for j0, j1 in _chunks(len(rings), 8 * unit.size):
        framed = _framed(unit, rings[j0:j1, None].astype(np.longdouble))
        for k, block in enumerate(blocks):
            modes = [k] + [k + s * i for i in range(1, k + 1) for s in (1, -1)]
            d = framed[:, L - k:L + k + 1, k * k:(k + 1) ** 2][..., modes]
            d = 1.5 * d - 0.5 * ((d @ d.transpose(0, 2, 1)) @ d)
            block[..., j0:j1] = d.transpose(1, 2, 0)
    return blocks


class SliceColumn:
    """The circle slices of a product ball grid, tabulated on one azimuth column.

    Ball grid directions carry 2 n_t uniform azimuths and circle_frames is
    z-equivariant, so the slices at azimuth row a are the first column's
    turned about z by alpha_a = a pi / n_t, and f there is f turned
    (harmonics._turn) on the first column's. There the slice at radius r on
    polar ring j is the latitude circle t = r/2 in the ring's frame R_j =
    (e1, e2, u_j) of circle_frames: its node at slice angle psi is
    R_j (rho cos psi, rho sin psi, r/2), rho = sqrt(1 - r^2/4). So
    Y_{k,m}(R_j q) = sum_m' D_j^k[m, m'] Y_{k,m'}(q), and Y_{k,m'} on that
    circle is Pbar_k^|m'|(r/2) times 1, sqrt(2) cos(m' psi) or sqrt(2)
    sin(|m'| psi): slice-angle modes 0, 2m'-1 and 2|m'| of the 2L+1 modes
    1, cos psi, sin psi, ..., cos L psi, sin L psi. The column holds these
    two factors, no table of every centre's modes: rotations, per degree
    every ring's block (_ring_blocks, on harmonics' frame route), and
    legendre, the Pbar factors per radius and order (_legendre_factor);
    synthesize forms fields from them. Nothing here depends on n_c:
    pair_profile pairs modes exactly (_mode_weights), and the slice nodes
    enter only through expansion, the (2L+1, N) matrix to each slice's N
    nodes (n_c, or 2 n_c at odd n_c: the rule nodes, then their partners,
    see _half_turn), for unsquared sharp rearrangements only; pair_profile
    pairs |.|^2 on the band limit's own rule, f# included. The build
    places no slice node.

    Values on slices have shape (n_t azimuth rows, column centres, modes or
    slice nodes), the centres radial-major as in BallGrid.points(); radii
    and weights belong to the column centres and hold for every azimuth row.

    Antipodal rows: the ball node x at (radius, polar ring i, azimuth row a)
    has -x at (radius, ring n_t-1-i, row a+n_t), of equal weight, and
    circle_frames gives -x the frame (-e1, e2): -x's slice is x's negated,
    slice angle negated. So the ball routes read rows [0, n_t) only, at p
    and at -p, the latter as the parity-flipped coefficient row (SlicePlan);
    the column turns rows to those azimuths alone. The column keeps no point
    and no literal call (SlicePlan.values refuses one).

    The column's one memo, of its last call's rows and their products, is
    described at recall; the forms route reads it through sampler.
    """

    def __init__(self, ball: BallGrid, n_c: int, L: int):
        dirs = ball.directions
        n_t = (dirs.exactness_degree + 1) // 2
        if not _is_product_grid(dirs):
            raise ValueError("ball directions are not a product grid with 2 n_t azimuths")
        rings = dirs.nodes[::2 * n_t]
        self.rotations = _ring_blocks(L, rings)
        self.weights = (ball.radial_weights[:, None] * dirs.weights[::2 * n_t]).ravel()
        self.radii = np.linalg.norm(
            (ball.radial_nodes[:, None, None] * rings).reshape(-1, 3), axis=-1)
        self.n_c, self.n_t, self.L = n_c, n_t, L
        self.expansion = _expansion(L, n_c)
        # all fields' Legendre factor, at t = r/2
        legendre = _legendre_factor(L, 0.5 * ball.radial_nodes.astype(np.longdouble))
        self.legendre = [legendre[_slot_orders(L) == m].T for m in range(L + 1)]
        # synthesize's buffer rows, order-major: order m's degrees m..L, each
        # with its modes, 0 or 2m-1 and 2m; per degree k, the rows of its
        # modes 0..2k in mode order
        width = [L + 1] + [2 * (L + 1 - m) for m in range(1, L + 1)]
        start = np.cumsum([0] + width)
        self._orders = [slice(a, b) for a, b in zip(start[:-1], start[1:])]
        self._degrees = [[k] + [start[(d + 1) // 2] + 2 * (k - (d + 1) // 2) + (d + 1) % 2
                               for d in range(1, 2 * k + 1)] for k in range(L + 1)]
        # the last recall's padded rows, its fields buffer and the fields'
        # real products
        self._memo = (None, (), {})

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """The fields of real coefficient rows, shape (n, (L+1)^2), in a new
        buffer (n, n_t, column centres, 2L+1): row i's slice-angle modes on
        the slices of azimuth rows [0, n_t). One pass turns each row to the
        n_t azimuths (harmonics._turn). Per group of chunks of (row, azimuth)
        pairs whose rings, 8 (L+1)^2 n_t bytes a pair, take 16 _CHUNK_BYTES
        (or one chunk's), one matmul a degree k takes every ring's block on
        the turned rows into a ring buffer of modes d <= 2k; per chunk, 4
        _CHUNK_BYTES of fields, one matmul an order m takes the Legendre
        factors on the buffer rows of m's modes, and the chunk is copied
        into the fields, transposed. Beyond the fields it holds the turned
        rows, 8 (L+1)^2 bytes a pair, the ring buffer, one degree's matmul,
        8 (2L+1) n_t bytes a pair of a group, and the chunk: 19 _CHUNK_BYTES
        traced at exact_sizes(16) with 4 rows, within 24, where rings of
        every pair would take 38.
        """
        L, n_t, nv = self.L, self.n_t, len(coeffs)
        n_r, modes = len(self.radii) // n_t, 2 * L + 1
        turned = _turn(coeffs[:, None], np.arange(n_t) * (np.pi / n_t)).reshape(nv * n_t, -1)
        # n chunks of step pairs, in groups of g chunks; zero rows pad the last group
        n = -(-len(turned) // max(1, 4 * _CHUNK_BYTES // (8 * n_r * modes * n_t)))
        step = -(-len(turned) // n)
        groups = -(-n // max(1, 16 * _CHUNK_BYTES // (8 * step * (L + 1) ** 2 * n_t)))
        g = -(-n // groups)
        pad = np.zeros((groups * g * step - len(turned), turned.shape[1]))
        turned = np.concatenate([turned, pad])
        rings = np.empty((g, (L + 1) ** 2, step, n_t))   # per chunk, buffer row, pair, ring
        turns = np.empty((g * step, modes * n_t))          # one degree's matmul
        fields = np.empty((nv * n_t, n_r, n_t, modes))
        chunk = np.empty((n_r, modes, step, n_t))
        for c0 in range(0, n, g):
            group = turned[c0 * step:(c0 + g) * step]
            for k, (block, at) in enumerate(zip(self.rotations, self._degrees)):
                out = np.matmul(group[:, k * k:(k + 1) * (k + 1)], block.reshape(2 * k + 1, -1),
                                out=turns[:, :(2 * k + 1) * n_t])
                rings[:, at] = out.reshape(g, step, 2 * k + 1, n_t).transpose(0, 2, 1, 3)
            for c in range(c0, min(c0 + g, n)):
                for m, (legendre, held) in enumerate(zip(self.legendre, self._orders)):
                    np.matmul(legendre, rings[c - c0, held].reshape(L + 1 - m, -1),
                              out=chunk[:, max(0, 2 * m - 1):2 * m + 1].reshape(n_r, -1))
                pairs = fields[c * step:(c + 1) * step]
                pairs[...] = chunk[:, :, :len(pairs)].transpose(2, 0, 3, 1)
        return fields.reshape(nv, n_t, n_r * n_t, modes)

    def recall(self, rows):
        """The fields of real coefficient rows, shape (n, (L'+1)^2) or None: a
        read-only buffer (n, n_t, column centres, 2L+1), row i's slice-angle
        modes on the slices of azimuth rows [0, n_t) (synthesize). Rows
        above the column's band limit, L' > L, raise ValueError.

        This is the column's one memo. It holds the last call's rows, padded
        to the column's (L+1)^2 columns, their fields, and the one store of
        the real products of values read from them, modes or f#'s node
        values, which pair_profile forms at most once while the fields are
        held (see sampler). A call whose padded rows equal the held ones
        (np.array_equal) gets the held buffer back; rows equal up to sign are
        equal here, as SlicePlan stores them. Any other rows replace the
        memo: all take one synthesize pass, and since BLAS may round a row
        differently in a batch of another size, every field is bit for bit
        that of a fresh column of the same band limit. The products kept
        with the fields replaced are dropped. A call without rows gets an
        empty buffer and leaves the memo as it is. Node values are not kept:
        a row at the nodes takes N / (2L+1) times the memory of its modes, so
        pair_profile forms them per chunk of slices.
        """
        if rows is None or not len(rows):
            return ()
        width = (self.L + 1) ** 2
        if rows.shape[1] > width:
            raise ValueError(f"rows of degree {math.isqrt(rows.shape[1]) - 1} need a column "
                             f"of band limit at least that; this one has L = {self.L}")
        padded = np.zeros((len(rows), width))
        padded[:, :rows.shape[1]] = rows
        if np.array_equal(padded, self._memo[0]):
            return self._memo[1]
        self._memo = (None, (), {})   # frees the last call's buffer before this call's
        fields = self.synthesize(padded)
        fields.flags.writeable = False
        self._memo = (padded, fields, {})
        return fields

    def sampler(self, plan: SlicePlan) -> list:
        """Per request of plan, its SplitValues (see SlicePlan.values) on the
        slices of azimuth rows [0, n_t), the rows the ball route reads.

        Coefficient-backed values are recall's fields of plan.rows, in
        slice-angle modes, parts of shape (n_t, column centres, 2L+1), with
        this column's expansion; a part at -p is the field of its
        parity-flipped row on the same azimuth rows. Sharp values are formed
        at the slice nodes per use, from those fields. The column must reach
        plan.degree (recall), and plan must hold no literal call (_backed):
        either raises ValueError.

        Every value carries the memo's product store, keyed by index into
        plan.rows or, for sharp values, by plan entry (SlicePlan.values).
        The sampler keeps there only the products of parts its plan's values
        read (plan.keys). Values whose fields recall later replaces write
        into that store, detached from the memo with its fields.
        """
        fields, store = self.recall(plan.rows), self._memo[2]
        if len(fields):
            for key in [k for k in store if not plan.keys.issuperset(k)]:
                del store[key]
        return plan.values(fields, store, self.expansion)


def _half_pair(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # sum over each slice of a at node j times b at its partner, node j + N/2
    # of N (halves crosswise); einsum sums each half over j and adds the two
    # sums once, so a and b swapped give the same bits (pair_profile keys
    # such products unordered)
    half = a.shape[-1] // 2
    a = a.reshape(a.shape[:-1] + (2, half))
    b = b.reshape(b.shape[:-1] + (2, half))[..., ::-1, :]
    return np.einsum("...ij,...ij->...", a, b, out=out)


def _mode_pair(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # the integral over psi of a(psi) b(psi + pi) on each slice, of a and b in
    # slice-angle modes; a * b is b * a bit for bit, so a swap gives the same bits
    return np.matmul(a * b, _mode_weights(a.shape[-1]), out=out)


def pair_profile(va, vb, radii: np.ndarray, squared: bool = False) -> np.ndarray:
    """(f sigma * g sigma)(x) from f and g on x's slice (last axis), or,
    squared, that of |f|^2 and |g|^2.

    Leading axes run over centres x of norm radii. va and vb are SplitValues,
    whose signed real parts are paired: Re = sum(a_r b_r - a_i b_i), Im =
    sum(a_r b_i + a_i b_r); the result is real when both are. A dense array
    is the SplitValues of its real and imaginary parts, at the slice nodes.

    Two SplitValues in slice-angle modes pair by Parseval (_mode_weights):
    exact for band-limited factors at every n_c. Otherwise they pair by the
    trapezoid rule on the N slice nodes, N even: the partner x - p_j of node
    j is node j + N/2 and back (see _half_turn), so the two halves of each
    slice pair crosswise. Either runs one chunk of slices at a time
    (_CHUNK_BYTES for one part's modes or node values): per chunk, each part
    is read, taken from modes or formed at the nodes (SplitValues.chunk),
    and paired, and no product of modes and no part's node values exist for
    more slices than a chunk's.

    squared pairs |v|^2, formed per use as scale * the sum of the squares of
    v's own real rows: its parts at scale 1, or f#'s source rows at scale
    1/2 (_Formed). Of two column values, modes of degree L, it pairs on the
    band limit's own 2(2L+1) uniform nodes, exactly at every n_c, f#
    included; of any other values, at their slice nodes. Real |x|^2 is
    np.square(x) bit for bit.

    When va and vb carry one product store (SplitValues.products), each real
    product of two parts is read from it, or formed and kept there, under
    the set of the parts' keys: a pair and its swap give the same bits.
    """
    va, vb = (v if isinstance(v, SplitValues)
              else SplitValues(v.real, v.imag if np.iscomplexobj(v) else None) for v in (va, vb))
    if squared:
        # each value's |v|^2 as a formula: its own rows', or its parts'
        fa, fb = (v.re._replace(power=1.0) if isinstance(v.re, _Formed)
                  else _Formed(tuple(part for part, *_ in v.parts()), v.expansion)
                  for v in (va, vb))
        if fa.expansion is not None and fb.expansion is not None:   # the band limit's own rule
            rule = _expansion(fa.expansion.shape[0] // 2, 2 * fa.expansion.shape[0])
            fa, fb = fa._replace(expansion=rule), fb._replace(expansion=rule)
        va, vb = [SplitValues(fa)] * 2 if vb is va else (SplitValues(fa), SplitValues(fb))
    modes = va.expansion is not None and vb.expansion is not None
    store = va.products if va.products is vb.products else None
    held = {} if store is None else store
    pa, pb = va.parts(), vb.parts()
    keys = {(i, j): (i, j) if store is None else frozenset((pa[i][3], pb[j][3]))
            for i in range(len(pa)) for j in range(len(pb))}
    todo = {}
    for ij, key in keys.items():
        if key not in held:
            todo.setdefault(key, ij)
    lead, same = va.re.shape[:-1], vb is va
    if modes:   # the modes themselves are read and paired, chunk by chunk
        va, vb = va._replace(expansion=None), vb._replace(expansion=None)
        width, pair = va.re.shape[-1], _mode_pair
    else:
        width, pair = (vb if va.expansion is not None else va).re.shape[-1], _half_pair
        if width % 2:
            raise ValueError(f"pair_profile needs an even node count, got {width}")
    n = math.prod(lead)
    flat = {key: np.empty(n) for key in todo}
    for s0, s1 in _chunks(n, 8 * width) if todo else ():
        a = va.chunk(s0, s1)
        b = a if same else vb.chunk(s0, s1)
        for key, (i, j) in todo.items():
            pair(a[i], b[j], flat[key][s0:s1])
    for key, prod in flat.items():
        held[key] = prod.reshape(lead)
    s = None
    for (i, j), key in keys.items():
        term = pa[i][2] * pb[j][2] * (pa[i][1] * pb[j][1]) * held[key]
        s = term if s is None else s + term
    return (s if modes else (2.0 * np.pi / width) * s) / radii


def pair_slice_average(F, X: np.ndarray, n_c: int) -> np.ndarray:
    """(1/|x|) * integral of F(omega(phi), x - omega(phi)) dphi for each row x of X.

    The pair-measure profile of a kernel F(omega, nu), a PairKernel or a
    plain callable: for F = f tensor g this is the convolution of f sigma
    and g sigma at x. This is the literal route (partner points x - p, F
    called there) that the table routes are cross-checked against, on
    slice_point_table's nodes. Exact (up to rounding) whenever
    F(omega(phi), x - omega(phi)) is a trigonometric polynomial of degree
    < N in the slice angle, N = n_c or, at odd n_c, 2 n_c, which holds with
    degree 2L for f tensor g of band-limited f, g of degree L. The result
    is real when F's values are. A PairKernel's batch of centres holds at
    most 16 _CHUNK_BYTES of slice nodes at 128 B a node (point, partner,
    F's complex values and temporaries, as traced for plane waves) plus 8 B
    per row of the harmonic tables that F's coefficient-backed or sharp
    factors build there, (L+1)^2 rows a factor. A plain callable, whose
    tables no count sees, gets batches of at most _CALLABLE_NODES = 4,096
    slice nodes (or one centre's). A centre at 0 raises DegenerateSliceError,
    one beyond |x| = 2 EmptyIntersectionError, and non-finite centres or
    values ValueError.
    """
    X = np.atleast_2d(_finite(X, "slice centres"))
    parts, nodes = [np.zeros(0)], 2 * _half_turn(n_c).size
    factors = getattr(F, "factors", None)   # None for a plain callable
    rows = sum(len(c.coeffs) for func in factors or () for c in _sources(func) if c is not None)
    node_bytes = 16 * _CHUNK_BYTES // _CALLABLE_NODES if factors is None else 128 + 8 * rows
    for i0, i1 in _chunks(len(X), node_bytes * nodes // 16):
        pts, r = slice_point_table(X[i0:i1], n_c)
        partner = X[i0:i1, None, :] - pts
        vals = np.asarray(F(pts.reshape(-1, 3), partner.reshape(-1, 3))).reshape(pts.shape[:2])
        if not np.all(np.isfinite(vals)):
            raise ValueError("kernel produced non-finite values on the slices")
        parts.append((2.0 * np.pi / vals.shape[1]) * vals.sum(axis=1) / r)
    return np.concatenate(parts)


def convolve_many(f, g, X: np.ndarray, n_c: int) -> np.ndarray:
    """(f sigma * g sigma)(x) for every row x of X, all finite; zero where |x| > 2.

    The slice nodes hold each node's partner x - p_j (see _half_turn), so
    g is read off the same nodes as f, both through one SlicePlan, and the
    two meet in pair_profile. Centres are taken in batches whose harmonic
    table and points, 8 N ((degree+1)^2 + 3) bytes a centre for N slice
    nodes, stay within 64 _CHUNK_BYTES. A centre at 0, or one whose norm
    underflows to 0, raises DegenerateSliceError, and non-finite centres
    ValueError.
    """
    X = np.atleast_2d(_finite(X, "convolution centres"))
    out = np.zeros(len(X), dtype=complex)
    idx = np.flatnonzero(np.linalg.norm(X, axis=-1) <= 2.0)
    plan = SlicePlan([(f, False), (g, False)])
    nodes = 2 * _half_turn(n_c).size
    step = max(1, 64 * _CHUNK_BYTES // (8 * nodes * ((plan.degree + 1) ** 2 + 3)))
    for i0 in range(0, len(idx), step):
        sel = idx[i0:i0 + step]
        pts, rr = slice_point_table(X[sel], n_c)
        a, b = plan.at(pts)
        out[sel] = pair_profile(a, b, rr)
    return out


def _star_and_sharp(coeffs: np.ndarray, X: np.ndarray, n_c: int):
    """f, f_star and f_sharp, as SplitValues at n_c's N slice nodes (last
    axis), about each f's own C centres, X (S, C, 3), for one band-limited
    f a row of coeffs (S, (L+1)^2); and the centres' norms. The values are
    those SlicePlan.at gives. In x's slice frame (harmonics._framed) the
    slice is the circle t = |x|/2, where Y_{k,m} is Pbar_k^|m|(t) times 1,
    sqrt(2) cos(m psi) or sqrt(2) sin(|m| psi): f's framed real and
    imaginary rows, times that factor, sum to the slice-angle modes 0,
    2m-1 (m > 0) or 2|m| (m < 0) of f(p), and with parity_signs of f(-p).
    """
    S, C = X.shape[:2]
    L = math.isqrt(coeffs.shape[-1]) - 1
    r, order = _norm3(X), _slot_orders(L)
    rows = _framed(np.stack([coeffs.real, coeffs.imag], axis=1)[:, None], X[:, :, None])
    rows *= _legendre_factor(L, 0.5 * r.ravel()).T.reshape(S, C, 1, -1)
    to_mode = np.equal.outer(np.where(order > 0, 2 * order - 1, -2 * order), np.arange(2 * L + 1))
    to_mode = np.concatenate([to_mode, parity_signs(L)[:, None] * to_mode], axis=1)
    modes = (rows @ to_mode).reshape(S, C, 2, 2, -1)   # part, sign (p, -p), mode
    del rows   # before the node values are made
    (re_p, re_m), (im_p, im_m) = _to_nodes(modes, _expansion(L, n_c)).transpose(2, 3, 0, 1, 4)
    f_sharp = SplitValues(_sharp((re_p, im_p, re_m, im_m)))
    return (SplitValues(re_p, im_p), SplitValues(re_m, im_m, 1.0, -1.0), f_sharp), r


def conv_profile(f, g, radii, n_c: int = 64) -> np.ndarray:
    """The convolution along z, at (0, 0, r) for each radius r in (0, 2], one
    value per radius. Complex radii, or radii outside (0, 2], raise ValueError."""
    radii = _real(radii, "profile radii")
    if not np.all((radii > 0.0) & (radii <= 2.0)):
        raise ValueError("profile radii must lie in (0, 2]")
    return convolve_many(f, g, radii[:, None] * (0.0, 0.0, 1.0), n_c)


def extension_at(f: SphereFunction, x, grid: SphereGrid):
    """The extension (Fourier transform of f dsigma) at a finite point x in R^3.
    Non-finite values of f at the grid nodes raise ValueError."""
    x = _finite(x, "extension point").reshape(3)
    vals = np.asarray(f(grid.nodes))
    if not np.all(np.isfinite(vals)):
        raise ValueError("f produced non-finite values on the grid")
    return np.sum(grid.weights * (vals * np.exp(-1j * (grid.nodes @ x))))
