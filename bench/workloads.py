"""The three benchmark workloads: what each one sets up, runs and checks.

A workload turns the benchmark seed into a list of inputs, one per operation,
before anything is timed. run(input) performs one operation and returns
(values, failure): values are the computed numbers the traced and untraced
runs must agree on bit for bit, failure is None or the reason the operation
failed its check.

Each workload drives a different layer:
- ascent-L8: Workspace.q_value / q_gradient table matvecs (maximizer);
- verify-L8-exact: the cached FormGrids slice table, complex-input Q, the
  chord route and convolutions (forms, convolution, legendre);
- chain-L8-streamed: forms on grids whose slice table exceeds the cache
  limit, so every Q/B call rebuilds slice geometry and harmonic tables.
"""

import contextlib
import io
import json
import math

import numpy as np

TWO_PI = 2.0 * math.pi


def _run_cli(argv):
    """cli.main(argv) with stdout and stderr captured; (exit code, stdout text)."""
    from sharpsphere import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


def _report(text: str):
    """The CLI's JSON report without its timestamp, or None if unparsable."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        return None
    payload.pop("timestamp", None)
    return payload


class AscentL8:
    """Seeded random starts at L=8 through `sharpsphere search --init random`.

    All starts share one pre-built make_workspace(8), as acceptance criterion
    09 does, so the timed loop is the ascent itself: Workspace.q_value and
    q_gradient matvecs against the 121 MB basis table.
    """

    name = "ascent-L8"
    workspace = None
    nominal_op_s = 7.2      # one start, one BLAS thread, 2-core x86 VM
    L = 8

    def setup(self):
        from sharpsphere import maximizer
        self.workspace = None          # never hold two 121 MB tables at once
        maximizer.make_workspace.cache_clear()
        self.workspace = maximizer.make_workspace(self.L)

    def inputs(self, seed: int, n: int):
        rng = np.random.default_rng(seed)
        return [int(s) for s in rng.integers(0, 2**31 - 1, size=n)]

    def run(self, start_seed: int):
        code, text = _run_cli(["search", "--init", "random", "--degree", str(self.L),
                               "--seed", str(start_seed)])
        report = _report(text)
        if code != 0 or report is None:
            return report, f"search exited {code}"
        verdict = report["verdict"]
        peak = max(t["phi"] for t in report["trace"])
        if abs(verdict["final_phi"] - TWO_PI) > 1e-4:
            return report, f"final phi {verdict['final_phi']!r} is not 2 pi"
        if verdict["final_constancy_defect"] >= 1e-3:
            return report, f"constancy defect {verdict['final_constancy_defect']!r}"
        if peak > TWO_PI * (1 + 1e-6):
            return report, f"trace phi {peak!r} exceeds 2 pi"
        return report, None


class VerifyL8Exact:
    """`sharpsphere verify` at grids exact for L=8.

    The suite builds its own FormGrids table inside the timed call (229 MB,
    under the 400 MiB cache limit, so built once and reused), feeds complex
    inputs to quadrilinear_q and runs h_direct_many at n_t=96.

    The suite runs at its own default seed: the benchmark seed cannot vary
    its draws, because the h_spectral_vs_direct check fails its 1e-6 gate
    for 4 of the suite seeds 1..32 (see NOTES.md).
    """

    name = "verify-L8-exact"
    nominal_op_s = 21.0
    argv = ["verify", "--degree", "8", "--n-t", "17", "--n-r", "18", "--n-c", "34"]
    workspace = None

    def setup(self):
        pass

    def inputs(self, seed: int, n: int):
        return [None] * n

    def run(self, _):
        code, text = _run_cli(self.argv)
        report = _report(text)
        if report is None:
            return None, f"verify exited {code} without a report"
        values = [(c["name"], c["computed"], c["pass"]) for c in report["checks"]]
        failing = [name for name, _, ok in values if not ok]
        if code != 0 or failing or not values:
            return values, f"verify exited {code}, failing checks {failing}"
        return values, None


class ChainL8Streamed:
    """Acceptance criterion 07's real-input inequality chain on n_t=24, n_r=24, n_c=48.

    At these grids the FormGrids slice table would be 860 MB, over the
    400 MiB cache limit, so every Q/B call streams its chunks and rebuilds
    slice geometry and harmonic tables.
    """

    name = "chain-L8-streamed"
    workspace = None
    nominal_op_s = 6.0
    L = 8

    def setup(self):
        from sharpsphere import build_basis, build_sphere_grid, forms
        self.grids = forms.default_form_grids(n_t=24, n_c=48, n_r=24)
        # degree 16 holds |f_sharp|^2 exactly for band limit 8; exactness 33 >= 32
        self.basis16 = build_basis(16, build_sphere_grid(17))

    def inputs(self, seed: int, n: int):
        from sharpsphere import random_band_limited
        rng = np.random.default_rng(seed)
        return [random_band_limited(self.L, rng) for _ in range(n)]

    def run(self, cf):
        from sharpsphere import SphereFunction, analyze, forms, h_spectral, lambda_closed_form
        grids = self.grids
        f = SphereFunction.from_coeffs(cf)
        fstar, fsharp = f.antipodal_conjugate(), f.sharp_rearrangement()
        q_star = forms.quadrilinear_q(f, fstar, f, fstar, grids).real
        q_sharp = forms.quadrilinear_q(fsharp, fsharp, fsharp, fsharp, grids).real
        q4 = forms.quadrilinear_q(f, f, f, f, grids).real
        F = forms.weighted_pair_kernel(f)
        bff = forms.bilinear_b(F, F, grids).real
        bf2 = forms.bilinear_b(F.abs_squared(), forms.PairKernel.one(), grids).real
        crude = 4 * math.pi * cf.norm_sq() ** 2
        sharp_sq = analyze(lambda pts: np.abs(fsharp(pts)) ** 2, self.basis16)
        h = h_spectral(sharp_sq, lambda_closed_form(16))
        h_bound = abs(sharp_sq.mean_value()) ** 2 * 64 * math.pi ** 2 / 3
        values = (q_star, q_sharp, q4, bff, bf2, h)
        violated = [name for name, ok in (
            ("q_star <= q_sharp", q_star <= q_sharp * (1 + 1e-8)),
            ("q4 == 3/4 B(F,F)", abs(q4 - 0.75 * bff) <= 1e-6 * abs(q4)),
            ("B(F,F) <= B(|F|^2,1)", bff <= bf2 * (1 + 1e-8)),
            ("B(|F|^2,1) <= 4 pi |f|^4", bf2 <= crude * (1 + 1e-8)),
            ("H(|f_sharp|^2) <= mean^2 H(1)", h <= h_bound * (1 + 1e-8)),
        ) if not ok]
        return values, (f"violated {violated}" if violated else None)


WORKLOADS = {w.name: w for w in (AscentL8, VerifyL8Exact, ChainL8Streamed)}
