"""The full verification suite behind the `verify` subcommand.

Each check reduces to one number compared against one expectation. Closed-form
values (the convolution norm, H(1), the sharp ratio) are value checks;
identities and inequalities are deviation checks, where the computed number is
the worst deviation or violation observed over a seeded sample and the
expectation is zero. Tolerances are part of the suite definition, not of the
caller's config, so a passing report means the same thing everywhere.
"""

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import convolution, forms, legendre
from .harmonics import SphereFunction, build_basis, random_band_limited
from .quadrature import build_sphere_grid, exact_sizes, integrate_ball, integrate_sphere

__all__ = ["CheckResult", "VerificationReport", "VerifyConfig", "run_verification"]


@dataclass(frozen=True)
class VerifyConfig:
    """Suite settings; unset grid sizes follow exact_sizes(degree). This is
    the one place verify fills them in."""

    n_t: int | None = None
    n_c: int | None = None
    n_r: int | None = None
    degree: int = 8
    seed: int = 1234

    def __post_init__(self):
        n_t, n_r, n_c = exact_sizes(self.degree)
        for name, planned in (("n_t", n_t), ("n_c", n_c), ("n_r", n_r)):
            if getattr(self, name) is None:
                object.__setattr__(self, name, planned)

    def as_dict(self) -> dict:
        return {"n_t": self.n_t, "n_c": self.n_c, "n_r": self.n_r,
                "L": self.degree, "seed": self.seed}


@dataclass
class CheckResult:
    name: str
    expected: float
    computed: float
    tolerance: float
    kind: str              # "abs" or "rel"
    passed: bool
    wall_time: float

    def as_dict(self) -> dict:
        return {"name": self.name, "expected": self.expected,
                "computed": self.computed, "tolerance": self.tolerance,
                "abs_or_rel": self.kind, "pass": self.passed}


@dataclass
class VerificationReport:
    suite_name: str
    config: dict
    checks: list = field(default_factory=list)

    @property
    def overall_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {"suite_name": self.suite_name, "config": self.config,
                "overall_pass": self.overall_pass,
                "checks": [c.as_dict() for c in self.checks]}


def _passes(expected, computed, tol, kind) -> bool:
    if kind == "rel":
        return abs(computed - expected) <= tol * abs(expected)
    return abs(computed - expected) <= tol


class _Suite:
    """Collects checks; a check's wall_time runs from the previous check (or
    start()) unless the caller measured it."""

    def __init__(self, report: VerificationReport):
        self.report = report
        self._t0 = time.perf_counter()

    def start(self):
        self._t0 = time.perf_counter()

    def check(self, name, expected, computed, tol, kind, wall_time=None):
        if wall_time is None:
            wall_time = time.perf_counter() - self._t0
        self.report.checks.append(CheckResult(
            name=name, expected=float(expected), computed=float(computed),
            tolerance=float(tol), kind=kind,
            passed=bool(_passes(expected, computed, tol, kind)),
            wall_time=float(wall_time)))
        self._t0 = time.perf_counter()


def run_verification(config: VerifyConfig = VerifyConfig()) -> VerificationReport:
    """Run every suite check in fixed order at the configured grid sizes."""
    report = VerificationReport(suite_name="sharpsphere-verify",
                                config=config.as_dict())
    suite = _Suite(report)
    rng = np.random.default_rng(config.seed)
    L = config.degree

    grids = forms.default_form_grids(n_t=config.n_t, n_c=config.n_c, n_r=config.n_r)
    grid, ball, n_c = grids.ball.directions, grids.ball, grids.n_c
    one = SphereFunction.constant(1.0)

    # quadrature exactness
    suite.start()
    basis = build_basis(L, grid)
    gram = (basis.values * grid.weights) @ basis.values.T
    dev = float(np.max(np.abs(gram - np.eye(len(gram)))))
    suite.check("sphere_gram_identity_max_dev", 0.0, dev, 1e-10, "abs")

    vol = integrate_ball(ball, np.ones(len(ball.weights())))
    suite.check("ball_volume", 32.0 * np.pi / 3.0, vol, 1e-12, "rel")

    # convolution of the surface measure with itself: profile and norm
    xs = rng.standard_normal((200, 3))
    xs = xs / np.linalg.norm(xs, axis=1, keepdims=True) * rng.uniform(0.05, 2.0, (200, 1))
    vals = convolution.convolve_many(one, one, xs, n_c)
    closed = 2.0 * np.pi / np.linalg.norm(xs, axis=1)
    suite.check("sigma_conv_profile_max_rel_dev", 0.0,
                float(np.max(np.abs(vals - closed) / closed)), 1e-12, "abs")

    norm_sq = grids.conv_l2_norm(one, one) ** 2
    suite.check("sigma_conv_norm_sq", 32.0 * np.pi ** 3, norm_sq, 1e-8, "rel")

    # Legendre / Funk-Hecke infrastructure
    x_gl, w_gl = np.polynomial.legendre.leggauss(52)
    p = legendre.legendre_values(50, x_gl)
    norms = np.sum(w_gl * p * p, axis=1)
    target = 2.0 / (2.0 * np.arange(51) + 1.0)
    suite.check("legendre_norm_identity_max_rel_dev", 0.0,
                float(np.max(np.abs(norms - target) / target)), 1e-12, "abs")

    closed_spec = legendre.lambda_closed_form(50)
    quad_spec = legendre.chord_spectrum_quadrature(50)
    suite.check("funk_hecke_quadrature_max_abs_diff", 0.0,
                float(np.max(np.abs(closed_spec.multipliers - quad_spec.multipliers))),
                1e-10, "abs")

    suite.check("funk_hecke_negativity_violation", 0.0,
                max(0.0, float(np.max(closed_spec.multipliers[1:]))), 1e-15, "abs")

    # zero-sum quadruple identity
    omegas = forms.gamma_samples(rng, 10_000)
    suite.check("gamma_identity_max_abs_dev", 0.0,
                float(np.max(np.abs(forms.four_identity_many(omegas) - 4.0))),
                1e-12, "abs")

    # pointwise symmetrization of the pair convolution
    worst = 0.0
    for _ in range(50):
        f = SphereFunction.from_coeffs(random_band_limited(L, rng, complex_valued=True))
        fs, fsh = f.antipodal_conjugate(), f.sharp_rearrangement()
        x = rng.standard_normal((20, 3))
        x = x / np.linalg.norm(x, axis=1, keepdims=True) * rng.uniform(0.05, 2.0, (20, 1))
        # f, f_star and f_sharp on x's slices from one harmonic table
        pts, r = convolution.slice_point_table(x, n_c)
        a, b, c = convolution.SlicePlan([(f, False), (fs, False), (fsh, False)]).at(pts)
        lhs = np.abs(convolution.pair_profile(a, b, r))
        rhs = convolution.pair_profile(c, c, r)
        worst = max(worst, float(np.max(lhs - rhs)))
    suite.check("pointwise_symmetrization_violation", 0.0, max(0.0, worst),
                1e-10, "abs")

    # quadrilinear/bilinear inequality chain
    q_sym_viol = q_vs_b_dev = cs_viol = crude_viol = 0.0
    spent = dict.fromkeys(("sym", "q_vs_b", "cs", "crude"), 0.0)

    @contextmanager
    def clock(name):
        t0 = time.perf_counter()
        yield
        spent[name] += time.perf_counter() - t0

    for _ in range(6):
        with clock("sym"):
            cf = random_band_limited(L, rng, complex_valued=True)
            f = SphereFunction.from_coeffs(cf)
            fs, fsh = f.antipodal_conjugate(), f.sharp_rearrangement()
            q = forms.quadrilinear_q(f, fs, f, fs, grids).real
            q_sharp = forms.quadrilinear_q(fsh, fsh, fsh, fsh, grids).real
            q_sym_viol = max(q_sym_viol, (q - q_sharp) / abs(q_sharp))
        with clock("q_vs_b"):
            cr = random_band_limited(L, rng)
            fr = SphereFunction.from_coeffs(cr)
            q4 = forms.quadrilinear_q(fr, fr, fr, fr, grids).real
            F = forms.weighted_pair_kernel(fr)
            bff = forms.bilinear_b(F, F, grids).real
            q_vs_b_dev = max(q_vs_b_dev, abs(q4 - 0.75 * bff) / abs(q4))
        with clock("cs"):
            bf2 = forms.bilinear_b(F.abs_squared(), forms.PairKernel.one(), grids).real
            cs_viol = max(cs_viol, (bff - bf2) / abs(bf2))
        with clock("crude"):
            crude = 4.0 * np.pi * cr.norm_sq() ** 2
            crude_viol = max(crude_viol, (bf2 - crude) / crude)
    suite.check("q_symmetrization_violation_rel", 0.0, max(0.0, q_sym_viol),
                1e-8, "abs", wall_time=spent["sym"])
    suite.check("q_equals_three_quarters_b_max_rel_dev", 0.0, q_vs_b_dev,
                1e-6, "abs", wall_time=spent["q_vs_b"])
    suite.check("b_cauchy_schwarz_violation_rel", 0.0, max(0.0, cs_viol),
                1e-8, "abs", wall_time=spent["cs"])
    suite.check("b_crude_bound_violation_rel", 0.0, max(0.0, crude_viol),
                1e-8, "abs", wall_time=spent["crude"])

    # the chord functional H; the direct route is exact for degree L on h_grid
    bounded = [random_band_limited(L, rng) for _ in range(20)]
    gs = [random_band_limited(L, rng) for _ in range(10)]
    h_grid = build_sphere_grid(L + 1)
    suite.start()
    suite.check("H_of_one", 64.0 * np.pi ** 2 / 3.0,
                np.real(forms.h_direct_many([one], h_grid)[0]), 1e-6, "rel")

    viol = 0.0
    for g in bounded:
        hg = forms.h_spectral(g, closed_spec)
        bound = abs(g.mean_value()) ** 2 * 64.0 * np.pi ** 2 / 3.0
        viol = max(viol, (hg - bound) / bound)
    suite.check("h_bound_violation_rel", 0.0, max(0.0, viol), 1e-8, "abs")

    direct = np.real(forms.h_direct_many([SphereFunction.from_coeffs(g) for g in gs], h_grid))
    spectral = np.array([forms.h_spectral(g, closed_spec) for g in gs])
    suite.check("h_spectral_vs_direct_max_rel_dev", 0.0,
                float(np.max(np.abs(direct - spectral) / np.abs(spectral))),
                1e-6, "abs")

    # the sharp ratio at the maximizer
    phi_1 = grids.l4_norm(one) / np.sqrt(integrate_sphere(grid, np.ones(grid.n_nodes)))
    suite.check("sharp_ratio_constant", 2.0 * np.pi, phi_1, 1e-8, "rel")

    return report
