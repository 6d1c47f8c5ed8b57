"""Gradient ascent on the restriction ratio, and the trap it can fall into.

Phi(f) = ||ext f||_4 / ||f||_2 is maximized exactly by nonzero constants,
where it equals 2 pi. The ascent normally finds them: from a perturbed
constant or a mean-balanced random start the run climbs to 2 pi and the
energy outside degree 0 (the constancy defect) collapses to rounding level.

The zonal start f = omega_z shows the failure mode. Coefficients of odd
degree span an invariant subspace of the ascent field, and inside it sits a
strict local maximum at Phi = 2 pi - 0.2667 with pure odd parity. A run
started there climbs monotonically, stalls below the sharp value, and its
defect never moves off 1.0 -- an honest certificate that it found a critical
point which is not the global maximizer.

Every search evaluates Phi on make_workspace(L), the cached exact-quadrature
workspace for band limit L, so the three runs below share one table.
"""

import numpy as np

from sharpsphere import (
    SHARP_CONSTANT,
    initial_coeffs,
    search,
)

L = 8


def report(result, label):
    final = result.final
    print(f"--- {label} ---")
    print(f"iterations        : {final.iteration}")
    print(f"converged         : {result.converged}  ({result.reason})")
    print(f"final Phi         : {final.objective:.12f}")
    print(f"2 pi - Phi        : {SHARP_CONSTANT - final.objective:.3e}")
    print(f"constancy defect  : {final.constancy_defect:.3e}")
    marks = [0, 1, 2, 5, 10, 20, 50, 100]
    print("trace             :")
    for i in marks:
        if i < len(result.states):
            s = result.states[i]
            print(f"  iter {s.iteration:3d}  Phi {s.objective:.9f}  "
                  f"defect {s.constancy_defect:.3e}")
    print()


def main():
    init = initial_coeffs("perturbed-constant", L, np.random.default_rng(42))
    report(search(init), "perturbed constant")

    init = initial_coeffs("random", L, np.random.default_rng(3))
    report(search(init), "random start (mean-balanced)")

    init = initial_coeffs("zonal", L, np.random.default_rng(0))
    report(search(init), "zonal start: trapped at the odd local max")


if __name__ == "__main__":
    main()
