"""Radial profile of the self-convolution of the sphere's surface measure.

The convolution sigma * sigma is supported on the ball |x| <= 2 and equals
2*pi/|x| there: the two unit spheres centered at 0 and x intersect in a
circle whose 1/|x|-weighted length is independent of where inside the
support x sits. This script sweeps the radius, compares against the closed
form, and shows the two identities that hang off it: the L2 norm
||sigma * sigma||_2^2 = 32 pi^3 and the extension of the constant function,
(1 sigma)^(x) = 4 pi sin|x| / |x|.
"""

import numpy as np

from sharpsphere import (
    FormGrids,
    SphereFunction,
    build_ball_grid,
    build_sphere_grid,
    conv_profile,
    convolve_many,
    extension_at,
)

PI = np.pi


def main():
    one = SphereFunction.constant(1.0)

    radii = np.linspace(0.05, 2.0, 14)
    values = conv_profile(one, one, radii, n_c=64)
    print("sigma * sigma along a ray (any ray; the profile is radial)")
    print(f"{'r':>6}  {'computed':>18}  {'2 pi / r':>18}  {'rel err':>9}")
    for r, v in zip(radii, values):
        closed = 2 * PI / r
        print(f"{r:6.3f}  {v.real:18.12f}  {closed:18.12f}  "
              f"{abs(v - closed) / closed:9.2e}")

    print("\nbeyond the support the convolution vanishes identically:")
    outside = convolve_many(one, one, (0, 0, 2.3), 16)[0]
    print(f"  value at |x| = 2.3: {outside.real}")

    ball = build_ball_grid(48, build_sphere_grid(32))
    norm_sq = FormGrids(ball, 64).conv_l2_norm(one, one) ** 2
    print(f"\n||sigma * sigma||_2^2 = {norm_sq:.10f}")
    print(f"32 pi^3               = {32 * PI**3:.10f}")
    print(f"relative error        = {abs(norm_sq - 32 * PI**3) / (32 * PI**3):.2e}")

    print("\nextension of the constant, against 4 pi sin|x|/|x|:")
    grid = build_sphere_grid(32)
    for r in (0.5, 1.0, 2.0, PI, 5.0):
        val = extension_at(one, (0.0, 0.0, r), grid)
        closed = 4 * PI * np.sin(r) / r
        print(f"  |x| = {r:5.3f}: {val.real:15.10f}   closed {closed:15.10f}   "
              f"abs err {abs(val - closed):.2e}")


if __name__ == "__main__":
    main()
