"""Command-line front end: verification suites, spectra, fuzzing, search.

Config precedence is flags > SEL_-prefixed environment variables > built-in
defaults. All numbers in reports are serialized with 17 significant digits, so
double-precision values survive a round trip through the files; given the same
config and seed, outputs are byte-identical except for the one timestamp key
in JSON reports (CSV outputs carry no timestamp at all). Timings, such as
verify's per-check wall time, go to stderr only.

Exit codes: 0 success, 1 a numerical check failed, 2 usage error, 3 I/O error.
A run that asks for more memory than the machine grants (MemoryError, such
as `spectrum --degree 100000000`, whose quadrature rule would need a 71 PiB
matrix) is a usage error: one `error:` line on stderr and exit 2.
"""

import argparse
import datetime
import functools
import io
import math
import os
import sys

import numpy as np

from . import convolution, forms, legendre, maximizer
from .harmonics import SphereFunction
from .verification import CheckResult, VerifyConfig, run_verification

DEFAULTS = {
    "degree": 8,
    "seed": 1234,
    "max_iter": 500,
    "tol": 1e-8,
    "samples": 10_000,
    "points": 50,
}

ENV_PREFIX = "SEL_"


def _at_least(cast, low):
    """Argument type: a finite cast value >= low, else a usage error."""
    kind = "an integer" if cast is int else "a number"

    def parse(text):
        try:
            value = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {kind}, got {text!r}") from None
        if not (math.isfinite(value) and value >= low):
            raise argparse.ArgumentTypeError(f"expected {kind} >= {low}, got {text!r}")
        return value
    return parse


# name: (flag, type, help); the types also validate SEL_* environment values
OPTIONS = {
    "n_t": ("--n-t", _at_least(int, 1), "polar quadrature nodes"),
    "n_c": ("--n-c", _at_least(int, 1),
            "circle-slice angle nodes; an odd count is paired with its partners, 2 n_c nodes"),
    "n_r": ("--n-r", _at_least(int, 1), "radial ball nodes"),
    "degree": ("--degree", _at_least(int, 0), "band limit / max degree"),
    "seed": ("--seed", _at_least(int, 0), "RNG seed"),
    "max_iter": ("--max-iter", _at_least(int, 0), "iteration cap"),
    "tol": ("--tol", _at_least(float, 0.0), "convergence tolerance"),
    "samples": ("--samples", _at_least(int, 1), "number of random samples"),
    "points": ("--points", _at_least(int, 1), "number of profile radii"),
}


def _usage_error(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _resolve(name: str, flag_value, default=None):
    """flags > environment (SEL_<NAME>) > default > DEFAULTS; None if none applies."""
    if flag_value is not None:
        return flag_value
    env = os.environ.get(ENV_PREFIX + name.upper())
    if env is not None:
        try:
            return OPTIONS[name][1](env)
        except argparse.ArgumentTypeError as exc:
            _usage_error(f"invalid value for {ENV_PREFIX}{name.upper()}: {exc}")
    return DEFAULTS.get(name) if default is None else default


def _fmt(x) -> str:
    """17-significant-digit decimal text; exact round trip for doubles."""
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"cannot serialize non-finite number {x}")
        return format(x, ".17g")
    return str(x)


def _json_text(obj, indent: int = 0) -> str:
    pad, pad_in = " " * indent, " " * (indent + 2)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad_in}"{k}": {_json_text(v, indent + 2)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [pad_in + _json_text(v, indent + 2) for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(float(obj))
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n")
    return buf.getvalue()


def _emit(text: str, out_path):
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {out_path}: {exc}", file=sys.stderr)
        raise SystemExit(3) from exc


def _report(args, payload: dict, header, rows) -> None:
    """Write a command's report to --out or stdout: CSV is header over rows,
    JSON is payload with the timestamp added last."""
    if args.format == "csv":
        text = _csv_text(header, rows)
    else:
        payload["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
        text = _json_text(payload) + "\n"
    _emit(text, args.out)


def cmd_verify(args) -> int:
    # unset grid sizes stay None: VerifyConfig sizes them exactly for the degree
    config = VerifyConfig(
        n_t=_resolve("n_t", args.n_t), n_c=_resolve("n_c", args.n_c),
        n_r=_resolve("n_r", args.n_r), degree=_resolve("degree", args.degree),
        seed=_resolve("seed", args.seed))
    if 2 * config.n_t - 1 < 2 * config.degree:
        _usage_error(f"--n-t {config.n_t} integrates degree {2 * config.n_t - 1}, "
                     f"below 2 x degree = {2 * config.degree}")
    report = run_verification(config)
    _report(args, report.as_dict(), CheckResult.COLUMNS,
            [c.as_row() for c in report.checks])
    for c in report.checks:
        status = "pass" if c.passed else "FAIL"
        print(f"{status}  {c.name}: computed {_fmt(c.computed)} (expected "
              f"{_fmt(c.expected)}, {c.kind} tol {_fmt(c.tolerance)}) in {c.wall_time:.3f} s",
              file=sys.stderr)
    return 0 if report.overall_pass else 1


def cmd_spectrum(args) -> int:
    K = _resolve("degree", args.degree, default=50)
    # the quadrature first: a degree too large for memory fails there at once
    quad = legendre.chord_spectrum_quadrature(K)
    closed = legendre.lambda_closed_form(K)
    header = ("k", "lambda_closed", "lambda_quadrature", "abs_diff")
    rows = [(k, float(closed[k]), float(quad[k]), float(abs(closed[k] - quad[k])))
            for k in range(K + 1)]
    payload = {"max_degree": K, "rows": [dict(zip(header, r)) for r in rows]}
    _report(args, payload, header, rows)
    return 0


def cmd_identity(args) -> int:
    samples = _resolve("samples", args.samples)
    seed = _resolve("seed", args.seed)
    rng = np.random.default_rng(seed)
    dev = float(np.max(np.abs(
        forms.four_identity_many(forms.gamma_samples(rng, samples)) - 4.0)))
    header, row = ("samples", "max_abs_deviation_from_4", "seed"), (samples, dev, seed)
    _report(args, dict(zip(header, row)), header, [row])
    return 0 if dev <= 1e-12 else 1


def cmd_search(args) -> int:
    """Run one ascent and report the trace plus a verdict.

    Exit 0 when the run ended at the known maximizer family (objective
    within 1e-4 of 2*pi with constancy defect below 1e-3), else 1, whether
    or not the gradient tolerance was met. A zonal start of degree 1 or 2
    converges at once on the odd critical point, 2*pi - 0.268, and exits 1;
    a run at the maximizer whose gradient norm stops just above a tight tol,
    because the next step's gain in log Phi^4 fell below rounding, exits 0.
    """
    L = _resolve("degree", args.degree)
    seed = _resolve("seed", args.seed)
    max_iter = _resolve("max_iter", args.max_iter)
    tol = _resolve("tol", args.tol)
    rng = np.random.default_rng(seed)
    if args.init == "zonal" and L < 1:
        _usage_error("--init zonal needs --degree >= 1")
    init = maximizer.initial_coeffs(args.init, L, rng)
    result = maximizer.search(init, max_iter=max_iter, tol=tol)
    header = ("iter", "phi", "grad_norm", "constancy_defect")
    rows = [(s.iteration, s.objective, s.gradient_norm, s.constancy_defect)
            for s in result.states]
    final = result.final
    at_maximizer = (abs(final.objective - 2.0 * math.pi) <= 1e-4
                    and final.constancy_defect < 1e-3)
    payload = {
        "config": {"L": L, "seed": seed, "init": args.init,
                   "max_iter": max_iter, "tol": tol},
        "trace": [dict(zip(header, r)) for r in rows],
        "verdict": {
            "converged": result.converged,
            "reason": result.reason,
            "at_known_maximizer": at_maximizer,
            "final_phi": final.objective,
            "final_constancy_defect": final.constancy_defect,
            "iterations": final.iteration,
            "sharp_constant": 2.0 * math.pi,
        },
    }
    _report(args, payload, header, rows)
    return 0 if at_maximizer else 1


def cmd_convolution(args) -> int:
    n_c = _resolve("n_c", args.n_c, default=64)
    n_pts = _resolve("points", args.points)
    one = SphereFunction.constant(1.0)
    radii = 2.0 * (np.arange(n_pts) + 1.0) / n_pts
    values = convolution.conv_profile(one, one, radii, n_c=n_c)
    closed = 2.0 * np.pi / radii
    header = ("r", "conv_value_real", "conv_value_imag", "closed_form", "abs_diff")
    rows = [(float(r), float(v.real), float(v.imag), float(cf), float(abs(v - cf)))
            for r, v, cf in zip(radii, values, closed)]
    _report(args, {"rows": [dict(zip(header, r)) for r in rows]}, header, rows)
    return 0


def _add_common(p: argparse.ArgumentParser, *names, default_format="json"):
    for name in names:
        flag, typ, help_text = OPTIONS[name]
        p.add_argument(flag, dest=name, type=typ, default=None, help=help_text)
    p.add_argument("--out", default=None, help="output file (default: stdout)")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="format", action="store_const", const="json")
    fmt.add_argument("--csv", dest="format", action="store_const", const="csv")
    p.set_defaults(format=default_format)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sharpsphere",
        description="Numerical verification of the sharp sphere restriction "
                    "inequality and search for its extremizers.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the full verification suite")
    _add_common(p, "n_t", "n_c", "n_r", "degree", "seed")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("spectrum", help="chord-kernel multipliers, closed form vs quadrature")
    _add_common(p, "degree", default_format="csv")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("identity", help="fuzz the zero-sum pairing identity")
    _add_common(p, "samples", "seed")
    p.set_defaults(func=cmd_identity)

    p = sub.add_parser("search", help="curvature-scaled ascent on the restriction ratio")
    _add_common(p, "degree", "seed", "max_iter", "tol")
    p.add_argument("--init", choices=("random", "perturbed-constant", "zonal"),
                   default="perturbed-constant", help="starting point family")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("convolution", help="radial profile of sigma * sigma")
    _add_common(p, "n_c", "points", default_format="csv")
    p.set_defaults(func=cmd_convolution)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built once per process; SEL_* values are still
    read per call (_resolve)."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
