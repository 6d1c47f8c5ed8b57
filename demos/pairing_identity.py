"""The zero-sum four-point identity on the sphere.

For unit vectors with omega_1 + omega_2 + omega_3 + omega_4 = 0, the three
pairings of chord products always add to the same number:

    |w1+w2||w3+w4| + |w1+w3||w2+w4| + |w1+w4||w2+w3| = 4.

Each term is symmetric under the exchange of its two pairs, and squaring the
zero-sum constraint turns the mixed inner products into the three pair norms.
The identity is what lets the quadrilinear form over the zero-sum manifold be
rewritten through binary convolutions. The script checks structured corners
(a tetrahedron, two antipodal pairs) and then fuzzes random quadruples.
"""

import numpy as np

from sharpsphere import GammaSample, four_identity_many, gamma_samples

TETRAHEDRON = np.array([
    [1.0, 1.0, 1.0],
    [1.0, -1.0, -1.0],
    [-1.0, 1.0, -1.0],
    [-1.0, -1.0, 1.0],
]) / np.sqrt(3.0)


def main():
    print("regular tetrahedron:", four_identity_many(GammaSample(TETRAHEDRON).omegas)[0])

    e, v = np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])
    pairs = np.stack([e, -e, v, -v])
    print("two antipodal pairs:", four_identity_many(GammaSample(pairs).omegas)[0])

    rng = np.random.default_rng(2718)
    for n in (100, 10_000, 1_000_000):
        omegas = gamma_samples(rng, n)
        dev = np.max(np.abs(four_identity_many(omegas) - 4.0))
        print(f"{n:>9} random zero-sum quadruples: max |sum - 4| = {dev:.2e}")

    # the constraint is essential: free quadruples land anywhere but 4
    free = rng.standard_normal((5, 4, 3))
    free /= np.linalg.norm(free, axis=2, keepdims=True)
    vals = four_identity_many(free)
    print("unconstrained quadruples:", np.array2string(vals, precision=4))


if __name__ == "__main__":
    main()
