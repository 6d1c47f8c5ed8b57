"""Walk one random function through the chain that pins the sharp constant.

For band-limited f the fourth power of the restriction ratio is controlled
link by link:

    Q(f, f*, f, f*)  <=  Q(f#, f#, f#, f#)        pointwise symmetrization
    Q(f, f, f, f)     =  (3/4) B(F, F)            pairing identity, F = f(a)f(b)|a+b|
    B(F, F)          <=  B(F^2, 1)                Cauchy-Schwarz on each slice
    B(F^2, 1)        <=  4 pi ||f||_2^4           crude kernel bound
    H(f#^2)          <=  mean(f#^2)^2 H(1)        negative chord multipliers

with equality in the symmetrization, pairing, Cauchy-Schwarz, and chord links
exactly for constants. The crude kernel bound (|a+b|^2 <= 4) stays strict even
at f = 1 -- its average against constants is 8/3, not 4 -- which is why the
chord functional H, whose bound does close at constants, is the link that
produces the sharp constant rather than a lossy one. Every quadrature rule
below is sized so degree-8 inputs are integrated exactly (exact_sizes), so
every slack between band-limited quantities is genuine, not discretization
noise. The one exception is Q(f#, f#, f#, f#): the sharp rearrangement f# is
not band-limited, so that value carries quadrature error, largest where f#
nears 0. For the random f below (seed 7, min f# below 3e-4) it is 1.2e-6
relative against n_t=68, n_r=72, n_c=272, and more slice nodes alone do not
shrink it; for an f# that stays near 0.39 or above (seed 3) it is 3e-11.
The symmetrization inequality itself holds node by node, so the discrete
slack it prints can never turn negative.
"""

import numpy as np

from sharpsphere import (
    HarmonicCoeffs,
    PairKernel,
    SphereFunction,
    analyze,
    bilinear_b,
    build_basis,
    default_form_grids,
    exact_sizes,
    h_spectral,
    lambda_closed_form,
    quadrilinear_q,
    random_band_limited,
    weighted_pair_kernel,
)

PI = np.pi
L = 8


def walk(cf, grids, basis, lam, label):
    f = SphereFunction.from_coeffs(cf)
    fstar, fsharp = f.antipodal_conjugate(), f.sharp_rearrangement()

    q_star = quadrilinear_q(f, fstar, f, fstar, grids).real
    q_sharp = quadrilinear_q(fsharp, fsharp, fsharp, fsharp, grids).real
    q4 = quadrilinear_q(f, f, f, f, grids).real
    F = weighted_pair_kernel(f)
    bff = bilinear_b(F, F, grids).real
    bf2 = bilinear_b(F.abs_squared(), PairKernel.one(), grids).real
    crude = 4 * PI * cf.norm_sq() ** 2

    sharp_sq = analyze(lambda pts: np.abs(fsharp(pts)) ** 2, basis)
    h = h_spectral(sharp_sq, lam)
    h_bound = sharp_sq.mean_value() ** 2 * 64 * PI**2 / 3

    print(f"--- {label} ---")
    print(f"Q(f, f*, f, f*)      = {q_star:18.12f}")
    print(f"Q(f#, f#, f#, f#)    = {q_sharp:18.12f}   slack {q_sharp - q_star:11.4e}")
    print(f"Q(f, f, f, f)        = {q4:18.12f}")
    print(f"(3/4) B(F, F)        = {0.75 * bff:18.12f}   rel dev "
          f"{abs(q4 - 0.75 * bff) / abs(q4):.2e}")
    print(f"B(F, F)              = {bff:18.12f}")
    print(f"B(F^2, 1)            = {bf2:18.12f}   slack {bf2 - bff:11.4e}")
    print(f"4 pi ||f||_2^4       = {crude:18.12f}   slack {crude - bf2:11.4e}")
    print(f"H(f#^2)              = {h:18.12f}")
    print(f"mean^2 H(1)          = {h_bound:18.12f}   slack {h_bound - h:11.4e}")
    print()


def main():
    n_t, n_r, n_c = exact_sizes(L)
    grids = default_form_grids(n_t=n_t, n_c=n_c, n_r=n_r)
    basis = build_basis(2 * L, grids.ball.directions)   # holds |f#|^2 exactly for band limit 8
    lam = lambda_closed_form(16)

    walk(random_band_limited(L, np.random.default_rng(7)), grids, basis, lam,
         "random real f, band limit 8")

    const = np.zeros(81)
    const[0] = np.sqrt(4 * PI)
    walk(HarmonicCoeffs(L, const), grids, basis, lam,
         "f = 1 (all links close except the crude kernel bound)")


if __name__ == "__main__":
    main()
