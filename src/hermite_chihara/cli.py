"""Command-line front end.

Subcommands build systems from family parameters (or a JSON seed file), run the
verification suites, and emit deterministic CSV/JSON tables: identical configs
produce identical bytes.  Rationals cross the boundary as "p/q" strings; reals
are printed with 17 significant digits.

Exit codes: 0 all requested checks pass, 1 some check failed (a JSON failure
report is printed), 2 input error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys as _sys
from fractions import Fraction

from . import measure as measure_mod
from . import oscillator as osc_mod
from .derivation import epsilons_from_sequence
from .governing import (
    GoverningSequence,
    seq_classical,
    seq_family,
    seq_hermite,
    seq_order2,
    seq_order3,
    validate,
)
from .systems import PolynomialSystem, UnsupportedSystemError

log = logging.getLogger("hermite_chihara.cli")

FAMILIES = ("hermite", "classical", "family", "order2", "order3", "custom-file")
MARGIN = 4  # the operator checks cover the interior rows n < dim - MARGIN


def _fmt_real(x: float) -> str:
    return f"{float(x):.17g}"


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational 'p/q': {text!r}") from exc


class InputError(Exception):
    """Bad parameters; maps to exit code 2."""


def build_sequence(args, length: int) -> GoverningSequence:
    fam = args.family
    if fam == "hermite":
        b0sq = args.b0_squared if args.b0_squared is not None else Fraction(1, 2)
        return seq_hermite(length, b0_squared=b0sq)
    if fam == "classical":
        if args.gamma is None:
            raise InputError("--family classical requires --gamma")
        seq = seq_classical(args.gamma, length)
        if args.alpha is not None and args.alpha != 1:
            # alpha rescales the weight; the sequence is unchanged, b0 is not
            b0sq = (args.gamma + 1) / (2 * args.alpha)
            seq = GoverningSequence(seq.values, b0sq)
        return seq
    if fam == "family":
        if args.v2 is None:
            raise InputError("--family family requires --v2")
        v1 = args.v1 if args.v1 is not None else args.v2 - 1
        b0sq = args.b0_squared if args.b0_squared is not None else Fraction(1)
        return seq_family(v1, args.v2, b0_squared=b0sq, N=length)
    if fam == "order2":
        if args.v1 is None:
            raise InputError("--family order2 requires --v1")
        b0sq = args.b0_squared if args.b0_squared is not None else Fraction(1, 2)
        return seq_order2(args.v1, N=length, b0_squared=b0sq)
    if fam == "order3":
        if args.v1 is None or args.v2 is None:
            raise InputError("--family order3 requires --v1 and --v2")
        b0sq = args.b0_squared if args.b0_squared is not None else Fraction(1, 2)
        return seq_order3(args.v1, args.v2, N=length, b0_squared=b0sq)
    if fam == "custom-file":
        if args.seed_file is None:
            raise InputError("--family custom-file requires --seed-file")
        with open(args.seed_file) as fh:
            seq = GoverningSequence.from_json(fh.read())
        if seq.n_max < length:
            raise InputError(
                f"seed file stores {seq.n_max + 1} values; need at least {length + 1}"
            )
        return seq
    raise InputError(f"unknown family {fam!r}")


def _emit(args, text: str) -> None:
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        _sys.stdout.write(text)


def cmd_epsilons(args) -> int:
    K = args.K if args.K is not None else args.n_max
    seq = build_sequence(args, max(K, args.n_max, 2))
    op = epsilons_from_sequence(seq, K=K)
    lines = [str(e) for e in op.epsilons]
    lines.append(f"order: {op.order()}")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_build(args) -> int:
    seq = build_sequence(args, args.n_max)
    sys_ = PolynomialSystem(seq, args.n_max)
    rep = validate(seq)
    payload = {
        "family": args.family,
        "n_max": sys_.n_max,
        "governing_sequence": seq.to_json_dict(),
        "validation": {
            "ok": rep.ok,
            "monotone": rep.monotone,
            "compatible": rep.compatible,
            "first_violation": rep.first_violation,
        },
        "b_squared": [str(x) for x in sys_.b2[: sys_.n_max]],
        "gamma_squared": [str(x) for x in sys_.g2[: sys_.n_max + 1]],
        "special_family": sys_.is_family,
    }
    if sys_.is_family:
        g, a = sys_.weight_parameters()
        payload["weight"] = {"gamma": str(g), "alpha": str(a)}
    _emit(args, json.dumps(payload, indent=2) + "\n")
    return 0


def cmd_table(args) -> int:
    seq = build_sequence(args, args.n_max)
    sys_ = PolynomialSystem(seq, args.n_max)
    rows = []
    for n in range(sys_.n_max + 1):
        rows.append({
            "n": n,
            "b_squared": str(sys_.b2[n - 1] if n >= 1 else Fraction(0)),
            "gamma_squared": str(sys_.g2[n]),
            "norm_squared": str(sys_.norm2[n]),
            "monic_coeffs": [str(sys_.monic[n].coeff(k)) for k in range(n + 1)],
        })
    if args.format == "json":
        _emit(args, json.dumps({"rows": rows}, indent=2) + "\n")
        return 0
    lines = ["n,b_squared,gamma_squared,norm_squared,monic_coeffs"]
    for r in rows:
        lines.append(
            f"{r['n']},{r['b_squared']},{r['gamma_squared']},{r['norm_squared']},"
            + ";".join(r["monic_coeffs"])
        )
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_classify(args) -> int:
    seq = build_sequence(args, max(args.n_max, 3))
    sys_ = PolynomialSystem(seq)
    reduced = sys_.classify_reduced(args.n_max)
    fam = sys_.is_family
    lines = [f"reduced: {str(reduced).lower()}", f"special_family: {str(fam).lower()}"]
    if fam:
        v1, v2 = sys_.family_params
        lines.append(f"v1: {v1}")
        lines.append(f"v2: {v2}")
    _emit(args, "\n".join(lines) + "\n")
    if reduced != fam:
        _sys.stderr.write(
            json.dumps({"failed": ["classify_reduced disagrees with is_special_family"]}) + "\n"
        )
        return 1
    return 0


def cmd_spectrum(args) -> int:
    length = max(args.n_max, args.dim)
    seq = build_sequence(args, length)
    sys_ = PolynomialSystem(seq)
    ops = osc_mod.build_operators(sys_, dim=args.dim)
    rep = osc_mod.spectrum_report(ops, sys_, interior_margin=MARGIN)
    lines = ["n,lambda_matrix,lambda_formula,deviation"]
    for n, lam_m, lam_f, dev in rep.rows:
        lines.append(f"{n},{_fmt_real(lam_m)},{_fmt_real(lam_f)},{_fmt_real(dev)}")
    _emit(args, "\n".join(lines) + "\n")
    if rep.max_deviation > 1e-10 or rep.off_diagonal > 1e-10:
        _sys.stderr.write(json.dumps({"failed": ["spectrum deviation exceeds 1e-10"]}) + "\n")
        return 1
    return 0


def cmd_ode(args) -> int:
    seq = build_sequence(args, max(args.n_max, 3))
    sys_ = PolynomialSystem(seq)
    if not sys_.is_family:
        raise InputError("ode requires a special-family system")
    g, a = sys_.weight_parameters()
    grid = _ode_grid()
    rows = []
    worst = 0.0
    for n in range(min(args.n_max, sys_.n_max) + 1):
        r = max(abs(sys_.ode_residual(n, x)) for x in grid)
        worst = max(worst, r)
        rows.append({"n": n, "max_abs_residual": _fmt_real(r)})
    payload = {
        "family": args.family,
        "gamma": str(g),
        "alpha": str(a),
        "grid_points": len(grid),
        "tolerance": 1e-9,
        "residuals": rows,
        "max_abs_residual": _fmt_real(worst),
        "passed": worst < 1e-9,
    }
    _emit(args, json.dumps(payload, indent=2) + "\n")
    if worst >= 1e-9:
        _sys.stderr.write(json.dumps({"failed": ["ode residual exceeds 1e-9"]}) + "\n")
        return 1
    return 0


def _ode_grid() -> list[float]:
    half = [0.1 + 4.9 * k / 24 for k in range(25)]
    return [-x for x in half] + half


def cmd_verify(args) -> int:
    length = max(args.n_max, args.dim)
    seq = build_sequence(args, length)
    sys_ = PolynomialSystem(seq)
    n_max = args.n_max
    gram_n = min(n_max, 12)
    interior = args.dim - MARGIN

    if args.orthonormality:
        if not sys_.is_family:
            raise InputError("orthonormality verification requires a special-family system")
        spec = measure_mod.spec_for_system(sys_)
        rep = measure_mod.orthonormality_check(sys_, spec, gram_n)
        lines = []
        for row in rep.deviation:
            lines.append(",".join(_fmt_real(v) for v in row))
        _emit(args, "\n".join(lines) + "\n")
        failed = []
        if rep.max_deviation >= 1e-8:
            failed.append("orthonormality deviation >= 1e-8")
        if not rep.converged:
            failed.append(_unconverged(rep))
        if failed:
            _sys.stderr.write(json.dumps({"failed": failed}) + "\n")
            return 1
        return 0

    checks = []

    def record(name: str, passed: bool, detail: str, status: str | None = None) -> None:
        # a skipped check is not passed (the exit code counts it as a failure)
        # but its status says it did not run
        if status is None:
            status = "pass" if passed else "fail"
        log.info("check %s: %s (%s)", name, "FAIL" if status == "fail" else status, detail)
        checks.append({"name": name, "status": status, "passed": bool(passed), "detail": detail})

    rep = validate(seq)
    record("validate", rep.ok, f"monotone={rep.monotone} first_violation={rep.first_violation}")

    if rep.ok:
        worst = max(sys_.lowering_residual(n) for n in range(1, n_max + 1))
        record("lowering", worst == 0, f"max residual {worst} (exact)")
        routes = all(
            sys_.psi_coeffs(n).core == sys_.psi_coeffs_via_alpha(n).core
            for n in range(0, n_max + 1)
        )
        record("route_equivalence", routes, "recurrence vs explicit coefficients, exact")
    else:
        record("lowering", False, "skipped: sequence not compatible", "skipped")
        record("route_equivalence", False, "skipped: sequence not compatible", "skipped")

    ops = osc_mod.build_operators(sys_, dim=args.dim)
    crep = osc_mod.commutator_report(ops, sys_, interior_margin=MARGIN)
    record("commutator", crep.max_deviation < 1e-10,
           f"max deviation {crep.max_deviation:.3e} on rows n < {interior}")
    srep = osc_mod.spectrum_report(ops, sys_, interior_margin=MARGIN)
    record(
        "spectrum",
        srep.max_deviation < 1e-10 and srep.off_diagonal < 1e-10,
        f"max deviation {srep.max_deviation:.3e} on rows n < {interior}",
    )

    if sys_.is_family:
        first_bad = next((n for n in range(n_max + 1) if not sys_.ode_bracket(n).is_zero()), None)
        if first_bad is None:
            record("ode", True, f"exact polynomial identity for every n <= {n_max}")
        else:
            record("ode", False, f"exact polynomial identity fails first at n = {first_bad}")
        spec = measure_mod.spec_for_system(sys_)
        orep = measure_mod.orthonormality_check(sys_, spec, gram_n)
        detail = f"max deviation {orep.max_deviation:.3e} for i, j <= {gram_n}"
        if not orep.converged:
            detail += f"; {_unconverged(orep)}"
        record("orthonormality", orep.max_deviation < 1e-8 and orep.converged, detail)
        sq = osc_mod.square_lowering_report(ops, sys_, interior_margin=MARGIN)
        record("square_lowering", sq < 1e-10,
               f"max deviation {sq:.3e}, exact on columns 2 <= n < {interior}")
    else:
        log.info("non-family system: ode/orthonormality/square-lowering not applicable")

    all_pass = all(c["passed"] for c in checks)
    payload = {"family": args.family, "n_max": n_max, "dim": args.dim,
               "checks": checks, "all_passed": all_pass}
    _emit(args, json.dumps(payload, indent=2) + "\n")
    if not all_pass:
        _sys.stderr.write(
            json.dumps({"failed": [c["name"] for c in checks if not c["passed"]]}) + "\n"
        )
        return 1
    return 0


def _unconverged(rep: measure_mod.OrthonormalityReport) -> str:
    return (f"quadrature error {rep.quadrature_error:.3e} exceeds its tolerance "
            f"{rep.tolerance:.0e}; the Gram matrix is not converged")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hcpoly",
        description="Generalized Hermite (Hermite-Chihara) polynomial systems: "
        "build, tabulate, and verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, fn) -> argparse.ArgumentParser:
        p = sub.add_parser(name)
        p.add_argument("--family", choices=FAMILIES, default="hermite")
        p.add_argument("--gamma", type=_rational, default=None, help="weight exponent (rational)")
        p.add_argument("--alpha", type=_rational, default=None, help="Gaussian rate (rational)")
        p.add_argument("--v1", type=_rational, default=None)
        p.add_argument("--v2", type=_rational, default=None)
        p.add_argument("--b0-squared", dest="b0_squared", type=_rational, default=None)
        p.add_argument("--n-max", dest="n_max", type=int, default=12)
        p.add_argument("--output", default=None, help="write to file instead of stdout")
        p.add_argument("--seed-file", dest="seed_file", default=None,
                       help="JSON governing sequence for --family custom-file")
        p.set_defaults(func=fn)
        return p

    # flags read by only some commands are registered on those alone
    def add_dim(p: argparse.ArgumentParser) -> None:
        p.add_argument("--dim", type=int, default=40,
                       help=f"truncated operator dimension (>= {MARGIN + 1})")

    command("build", cmd_build)
    table = command("table", cmd_table)
    table.add_argument("--format", choices=("csv", "json"), default="csv")
    verify = command("verify", cmd_verify)
    add_dim(verify)
    verify.add_argument("--orthonormality", action="store_true",
                        help="print the Gram deviation matrix as CSV")
    command("ode", cmd_ode)
    add_dim(command("spectrum", cmd_spectrum))
    command("classify", cmd_classify)
    epsilons = command("epsilons", cmd_epsilons)
    epsilons.add_argument("-K", dest="K", type=int, default=None, help="epsilon horizon")
    return parser


def main(argv=None) -> int:
    level = os.environ.get("HC_LOG", "error").upper()
    logging.basicConfig(level=getattr(logging, level, logging.ERROR),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return int(exc.code) if exc.code else 0
    if args.n_max < 2:
        _sys.stderr.write("error: --n-max must be >= 2\n")
        return 2
    if getattr(args, "dim", MARGIN + 1) <= MARGIN:  # no interior row n < dim - MARGIN
        _sys.stderr.write(f"error: --dim must be >= {MARGIN + 1}\n")
        return 2
    try:
        return args.func(args)
    except (InputError, ValueError, UnsupportedSystemError, OSError) as exc:
        _sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
