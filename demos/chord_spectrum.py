"""Multipliers of the chord-length kernel |omega - nu| on spherical harmonics.

A kernel that depends only on omega . nu acts diagonally in the harmonic
basis; for the chord kernel the multipliers come out in closed form,

    Lambda_k = -8 / ((2k-1)(2k+1)(2k+3)),   Lambda_0 = 8/3,

via the telescoping identity (2k+1) Lambda_k = A_{k+1} - A_{k-1} with
A_k = 2/(2k+1). Everything below k = 0 is strictly negative, which is the
engine of the whole verification: subtracting the mean can only lower the
chord form H. The quadrature route integrates the kernel against each
Legendre polynomial directly after the substitution t = 1 - 2u^2 that
removes the sqrt singularity at t = 1, and reproduces the closed form to
near machine precision. Both routes return plain read-only arrays of
Lambda_0..Lambda_K.
"""

import numpy as np

from sharpsphere import lambda_closed_form
from sharpsphere.legendre import chord_spectrum_quadrature

K = 12


def main():
    closed = lambda_closed_form(K)
    quad = chord_spectrum_quadrature(K)

    print(f"{'k':>3}  {'closed form':>16}  {'quadrature':>16}  {'abs diff':>9}")
    for k in range(K + 1):
        print(f"{k:3d}  {closed[k]:16.12f}  {quad[k]:16.12f}  "
              f"{abs(closed[k] - quad[k]):9.2e}")

    print(f"\nlargest |Lambda_k| for k >= 1: {np.max(np.abs(closed[1:])):.6f}"
          f"  (k = 1: -8/15 = {-8 / 15:.6f})")
    print(f"all k >= 1 negative: {bool(np.all(closed[1:] < 0))}")

    # telescoping consistency: (2k+1) Lambda_k = A_(k+1) - A_(k-1)
    a = lambda k: 2.0 / (2 * k + 1)
    worst = max(abs((2 * k + 1) * closed[k] - (a(k + 1) - a(k - 1)))
                for k in range(1, K + 1))
    print(f"telescoping identity residual (k = 1..{K}): {worst:.2e}")


if __name__ == "__main__":
    main()
