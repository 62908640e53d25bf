"""Command-line front end.

Subcommands build systems from family parameters (or a JSON seed file), run the
verification suites, and emit deterministic CSV/JSON tables: identical configs
produce identical bytes.  Rationals cross the boundary as "p/q" strings; reals
are printed with 17 significant digits.

Exit codes: 0 all requested checks pass, 1 some check failed or was skipped (a
JSON failure report is printed; a float check fails so where a value it reads
has no float in the float range, its detail naming the first such value, and
verify still runs and prints its exact checks), 2 input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import re
import sys as _sys
from fractions import Fraction
from math import gcd

from . import measure as measure_mod
from . import oscillator as osc_mod
from .derivation import epsilons_from_sequence
from .governing import (
    GoverningSequence,
    b_squares,
    bracket_table,
    family_weight,
    gamma_squares,
    is_special_family,
    seq_classical,
    seq_family,
    seq_hermite,
    seq_order2,
    seq_order3,
    validate,
)
from .systems import FloatRangeError, PolynomialSystem, _parities

log = logging.getLogger("hermite_chihara.cli")

# each family's flags (by argparse dest): those it reads, and those of them it
# requires; it rejects the others
FAMILY_FLAGS = {
    "hermite": (("b0_squared",), ()),
    "classical": (("gamma", "alpha"), ("gamma",)),
    "family": (("v1", "v2", "b0_squared"), ("v2",)),
    "order2": (("v1", "b0_squared"), ("v1",)),
    "order3": (("v1", "v2", "b0_squared"), ("v1", "v2")),
    "custom-file": (("seed_file",), ("seed_file",)),
}
_ROUNDING = f"{osc_mod.ROUNDING_BOUND:g} eps |lambda_n|"  # their per-row bound, in words
_GRAM_BOUND = "1e-8"  # the orthonormality check's bound on the Gram deviation, as printed


def _fmt_real(x: float) -> str:
    return f"{float(x):.17g}"


def _ratio_str(p: int, q: int) -> str:
    """str(Fraction(p, q)) for q > 0, by one gcd and without a Fraction."""
    if not p:
        return "0"
    g = gcd(p, q)
    return str(p // g) if g == q else f"{p // g}/{q // g}"


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational 'p/q': {text!r}") from exc


class InputError(Exception):
    """Bad parameters; maps to exit code 2."""


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def build_sequence(args, length: int) -> GoverningSequence:
    """v_0..v_length of the chosen family, and its b0^2.  This is all of the
    sequence a command reads: a seed file may store more values, and the rest
    is neither read nor judged."""
    fam = args.family
    reads, requires = FAMILY_FLAGS[fam]
    for dest in ("gamma", "alpha", "v1", "v2", "b0_squared", "seed_file"):
        if getattr(args, dest) is not None and dest not in reads:
            raise InputError(f"--family {fam} does not read {_flag(dest)}")
    if any(getattr(args, dest) is None for dest in requires):
        raise InputError(f"--family {fam} requires {' and '.join(map(_flag, requires))}")
    # b0^2 is passed only when given; each constructor holds its own default
    b0 = {} if args.b0_squared is None else {"b0_squared": args.b0_squared}
    if fam == "hermite":
        return seq_hermite(length, **b0)
    if fam == "classical":
        if args.alpha is not None and args.alpha <= 0:
            raise InputError(f"--alpha must be positive, got {args.alpha}")
        seq = seq_classical(args.gamma, length)
        if args.alpha is not None and args.alpha != 1:
            # alpha rescales the weight; the sequence is unchanged, b0 is not
            b0sq = (args.gamma + 1) / (2 * args.alpha)
            seq = GoverningSequence(seq.values, b0sq)
        return seq
    if fam == "family":
        v1 = args.v1 if args.v1 is not None else args.v2 - 1
        return seq_family(v1, args.v2, N=length, **b0)
    if fam == "order2":
        return seq_order2(args.v1, N=length, **b0)
    if fam == "order3":
        return seq_order3(args.v1, args.v2, N=length, **b0)
    # custom-file: the file's v_0..v_length
    with open(args.seed_file) as fh:
        seq = GoverningSequence.from_json(fh.read())
    if seq.n_max < length:
        raise InputError(f"seed file stores {seq.n_max + 1} values; need at least {length + 1}")
    return GoverningSequence(seq.values[: length + 1], seq.b0_squared)


def _emit(args, text: str) -> None:
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        _sys.stdout.write(text)


def _exit_code(failed: list[str]) -> int:
    """0 when nothing failed; otherwise the JSON failure report on stderr, and 1."""
    if not failed:
        return 0
    _sys.stderr.write(json.dumps({"failed": failed}) + "\n")
    return 1


def cmd_epsilons(args) -> int:
    # eps_k reads v_0..v_{k-1}, so eps_1..eps_{n_max} read v_0..v_{n_max-1}
    seq = build_sequence(args, args.n_max - 1)
    op = epsilons_from_sequence(seq, K=args.n_max)
    lines = [str(e) for e in op.epsilons]
    lines.append(f"order: {op.order()}")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_build(args) -> int:
    seq = build_sequence(args, args.n_max)
    b2 = b_squares(seq, bracket_table(seq))
    rep = validate(seq)
    weight = family_weight(seq)
    payload = {
        "family": args.family,
        "n_max": args.n_max,
        "governing_sequence": seq.to_json_dict(),
        "validation": {
            "ok": rep.ok,
            "monotone": rep.monotone,
            "compatible": rep.compatible,
            "first_violation": rep.first_violation,
        },
        "b_squared": [str(x) for x in b2],
        "gamma_squared": [str(x) for x in gamma_squares(seq, b2)],
        "special_family": weight is not None,
    }
    if weight is not None:
        payload["weight"] = {"gamma": str(weight[0]), "alpha": str(weight[1])}
    _emit(args, json.dumps(payload, indent=2) + "\n")
    return 0


# table layouts (head, row, coefficient separator, row separator, tail); the JSON
# one prints json.dumps({"rows": rows}, indent=2) + "\n", whose values need no escapes
_TABLE_LAYOUTS = {
    "csv": ("n,b_squared,gamma_squared,norm_squared,monic_coeffs\n", "{},{},{},{},{}", ";",
            "\n", "\n"),
    "json": ('{\n  "rows": [\n', '    {{\n      "n": {},\n      "b_squared": "{}",\n      '
             '"gamma_squared": "{}",\n      "norm_squared": "{}",\n      "monic_coeffs": [\n'
             '        "{}"\n      ]\n    }}', '",\n        "', ",\n", "\n  ]\n}\n"),
}


def cmd_table(args) -> int:
    sys_ = PolynomialSystem(build_sequence(args, args.n_max))
    head, row, sep, row_sep, tail = _TABLE_LAYOUTS[args.format]
    parts = [head]  # each row's text, formed as soon as its values exist
    for n, core in enumerate(sys_.monic):
        coeffs = ["0"] * len(core.nums)  # the slots _parities skips are zero
        for t in _parities(n % 2, core.nums):
            coeffs[t::2] = [_ratio_str(a, core.den) for a in core.nums[t::2]]
        b2 = sys_.b2[n - 1] if n else 0
        text = row.format(n, str(b2), str(sys_.g2[n]), str(sys_.norm2[n]), sep.join(coeffs))
        parts += (text, row_sep)
    parts[-1] = tail  # in place of the separator after the last row
    _emit(args, "".join(parts))
    return 0


def cmd_classify(args) -> int:
    seq = build_sequence(args, max(args.n_max, 3))
    reduced = PolynomialSystem(seq).first_reduced_failure(args.n_max) is None
    # the reduced relation at n <= n_max reads v_0..v_{n_max-1}, so membership
    # is judged on that prefix (at least the 3 entries the family shape needs)
    prefix = GoverningSequence(seq.values[: max(args.n_max, 3)], seq.b0_squared)
    fam, params = is_special_family(prefix)
    lines = [f"reduced: {str(reduced).lower()}", f"special_family: {str(fam).lower()}"]
    if fam:
        v1, v2 = params
        lines.append(f"v1: {v1}")
        lines.append(f"v2: {v2}")
    _emit(args, "\n".join(lines) + "\n")
    # cross-checks the paper's theorem that a system is reduced iff it is in the family
    failed = [] if reduced == fam else ["the reduced relation disagrees with is_special_family"]
    return _exit_code(failed)


def cmd_spectrum(args) -> int:
    sys_ = PolynomialSystem(build_sequence(args, args.dim))
    ops = osc_mod.build_operators(sys_, dim=args.dim)
    rep = osc_mod.spectrum_report(ops, sys_)
    lines = ["n,lambda_matrix,lambda_formula,deviation"]
    for n, lam_m, lam_f, dev in rep.rows:
        lines.append(f"{n},{_fmt_real(lam_m)},{_fmt_real(lam_f)},{_fmt_real(dev)}")
    _emit(args, "\n".join(lines) + "\n")
    failed = [] if rep.within_rounding else [f"spectrum deviation exceeds {_ROUNDING} on a row"]
    return _exit_code(failed)


def _ode_detail(first_failure: int | None, n_max: int) -> str:
    if first_failure is None:
        return f"exact polynomial identity for every n <= {n_max}"
    return f"exact polynomial identity fails first at n = {first_failure}"


def cmd_ode(args) -> int:
    sys_ = PolynomialSystem(build_sequence(args, max(args.n_max, 3)))
    if not sys_.is_family:
        raise InputError("ode requires a special-family system")
    g, a = sys_.weight_parameters()
    first = sys_.first_ode_failure(args.n_max)
    payload = {"family": args.family, "gamma": str(g), "alpha": str(a), "n_max": args.n_max,
               "first_failure": first, "passed": first is None}
    _emit(args, json.dumps(payload, indent=2) + "\n")
    return _exit_code([] if first is None else [_ode_detail(first, args.n_max)])


def cmd_gram(args) -> int:
    # the Gram of psi_0..psi_{n_max} reads v_0..v_{n_max} and no operator
    sys_ = PolynomialSystem(build_sequence(args, args.n_max))
    if not sys_.is_family:
        raise InputError("orthonormality verification requires a special-family system")
    rep = measure_mod.orthonormality_check(sys_, args.n_max)
    _emit(args, "".join(",".join(_fmt_real(v) for v in row) + "\n" for row in rep.deviation))
    return _exit_code(_gram_failures(rep))


def cmd_verify(args) -> int:
    n_max = args.n_max
    gram_n = min(n_max, 12)
    seq = build_sequence(args, max(n_max, args.dim))
    sys_ = PolynomialSystem(seq)
    interior = args.dim - osc_mod.MARGIN
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
        bad = sys_.first_lowering_failure(n_max)
        record("lowering", bad is None, "max residual 0 (exact)" if bad is None
               else f"nonzero residual first at n = {bad} (exact)")
        bad = sys_.first_route_mismatch(n_max)
        record("route_equivalence", bad is None, "recurrence vs explicit coefficients, exact"
               + ("" if bad is None else f", fails first at n = {bad}"))
    else:
        record("lowering", False, "skipped: sequence not compatible", "skipped")
        record("route_equivalence", False, "skipped: sequence not compatible", "skipped")

    def float_check(name: str, run) -> None:
        # run() gives (passed, detail); where a value the check reads has no
        # float in the float range, the check fails and its detail names the
        # first such value and the range
        try:
            passed, detail = run()
        except FloatRangeError as exc:
            passed, detail = False, str(exc)
        record(name, passed, detail)

    def band(report) -> tuple[bool, str]:
        rep = report(osc_mod.build_operators(sys_, dim=args.dim), sys_)
        return rep.within_rounding, (f"max deviation {rep.max_deviation:.3e} on rows n < "
                                     f"{interior}, bound {_ROUNDING} per row")

    def gram() -> tuple[bool, str]:
        orep = measure_mod.orthonormality_check(sys_, gram_n)
        detail = f"max deviation {orep.max_deviation:.3e} for i, j <= {gram_n}"
        if not orep.converged:
            detail += f"; {_unconverged(orep)}"
        return not _gram_failures(orep), detail

    def square_lowering() -> tuple[bool, str]:
        # exact on the cores; only a nonzero residual's figure crosses to float
        sq = sys_.square_lowering_deviation(interior - 1)
        return sq == 0.0, f"max deviation {sq:.3e}, exact on columns 2 <= n < {interior}"

    float_check("commutator", lambda: band(osc_mod.commutator_report))
    float_check("spectrum", lambda: band(osc_mod.spectrum_report))
    if sys_.is_family:
        first = sys_.first_ode_failure(n_max)
        record("ode", first is None, _ode_detail(first, n_max))
        float_check("orthonormality", gram)
        if interior > 2:
            float_check("square_lowering", square_lowering)
        else:
            record("square_lowering", False, f"skipped: no column 2 <= n < {interior}; "
                   f"--dim {osc_mod.MARGIN + 3} reads the first", "skipped")
    else:
        log.info("non-family system: ode/orthonormality/square-lowering not applicable")

    all_pass = all(c["passed"] for c in checks)
    payload = {"family": args.family, "n_max": n_max, "dim": args.dim,
               "checks": checks, "all_passed": all_pass}
    _emit(args, json.dumps(payload, indent=2) + "\n")
    return _exit_code([c["name"] for c in checks if not c["passed"]])


def _gram_failures(rep: measure_mod.OrthonormalityReport) -> list[str]:
    """What fails the orthonormality check: a deviation not below the bound
    (a NaN included), or a quadrature that stopped short of its tolerance."""
    failed = []
    if not rep.max_deviation < float(_GRAM_BOUND):
        failed.append(f"orthonormality deviation >= {_GRAM_BOUND}")
    if not rep.converged:
        failed.append(_unconverged(rep))
    return failed


def _unconverged(rep: measure_mod.OrthonormalityReport) -> str:
    return (f"quadrature error {rep.quadrature_error:.3e} exceeds its tolerance "
            f"{rep.tolerance:.0e}; the Gram matrix is not converged")


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The hcpoly parser, built on the first call and shared after it:
    parse_args returns a fresh Namespace and prints (usage, errors, help)
    to the sys.stdout and sys.stderr of the moment, so reuse changes no output."""
    parser = argparse.ArgumentParser(
        prog="hcpoly",
        description="Generalized Hermite (Hermite-Chihara) polynomial systems: "
        "build, tabulate, and verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, fn, n_max: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name)
        # argparse's own pattern (3.10, 3.11) would take -1/2, -1. or -1e-1 for an option
        p._negative_number_matcher = re.compile(r"^-(\d+/\d+|(\d+\.?\d*|\.\d+)(e[-+]?\d+)?)$", re.I)
        p.add_argument("--family", choices=tuple(FAMILY_FLAGS), default="hermite")
        p.add_argument("--gamma", type=_rational, default=None, help="weight exponent (rational)")
        p.add_argument("--alpha", type=_rational, default=None, help="Gaussian rate (rational)")
        p.add_argument("--v1", type=_rational, default=None)
        p.add_argument("--v2", type=_rational, default=None)
        p.add_argument("--b0-squared", dest="b0_squared", type=_rational, default=None)
        if n_max:  # spectrum's rows depend on --dim alone
            p.add_argument("--n-max", dest="n_max", type=int, default=12)
        p.add_argument("--output", default=None, help="write to file instead of stdout")
        p.add_argument("--seed-file", dest="seed_file", default=None,
                       help="JSON governing sequence for --family custom-file")
        p.set_defaults(func=fn)
        return p

    # flags read by only some commands are registered on those alone
    def add_dim(p: argparse.ArgumentParser) -> None:
        p.add_argument("--dim", type=int, default=40,
                       help=f"truncated operator dimension (>= {osc_mod.MARGIN + 1})")

    command("build", cmd_build)
    table = command("table", cmd_table)
    table.add_argument("--format", choices=("csv", "json"), default="csv")
    add_dim(command("verify", cmd_verify))
    command("gram", cmd_gram)
    command("ode", cmd_ode)
    add_dim(command("spectrum", cmd_spectrum, n_max=False))
    command("classify", cmd_classify)
    command("epsilons", cmd_epsilons)
    return parser


def main(argv=None) -> int:
    """Run one hcpoly command with the interpreter's int-string limit (3.10.7 and
    later) lifted, and restored after: exact values print at any length."""
    if not hasattr(_sys, "set_int_max_str_digits"):
        return _main(argv)
    limit = _sys.get_int_max_str_digits()
    _sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    finally:
        _sys.set_int_max_str_digits(limit)


def _main(argv) -> int:
    # a level name gives its int; any other value (BASIC_FORMAT too) a string
    level = logging.getLevelName(os.environ.get("HC_LOG", "error").upper())
    logging.basicConfig(level=level if isinstance(level, int) else logging.ERROR,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return int(exc.code) if exc.code else 0
    if getattr(args, "n_max", 2) < 2:
        _sys.stderr.write("error: --n-max must be >= 2\n")
        return 2
    # --dim leaves at least one interior row n < dim - MARGIN
    if getattr(args, "dim", osc_mod.MARGIN + 1) <= osc_mod.MARGIN:
        _sys.stderr.write(f"error: --dim must be >= {osc_mod.MARGIN + 1}\n")
        return 2
    try:
        return args.func(args)
    except (InputError, ValueError, OSError) as exc:
        _sys.stderr.write(f"error: {exc}\n")
        return 2
    except FloatRangeError as exc:
        # a float check cannot run on this valid system: it fails
        return _exit_code([str(exc)])


if __name__ == "__main__":
    raise SystemExit(main())
