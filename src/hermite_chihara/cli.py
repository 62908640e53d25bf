"""Command-line front end.

Subcommands build systems from family parameters (or a JSON seed file), run the
verification suites, and emit deterministic CSV/JSON tables: identical configs
produce identical bytes.  Rationals cross the boundary as "p/q" strings; reals
are printed with 17 significant digits.

Exit codes: 0 all requested checks pass, 1 some check failed (a JSON failure
report is printed; a float check fails so where a value it reads has no float
in the float range, its detail naming the first such value, and verify still
runs and prints its exact checks), 2 input error.
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
from .derivation import epsilons_from_sequence
from .governing import (
    GoverningSequence,
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
_GRAM_BOUND = "1e-8"  # the orthonormality check's bound on the Gram deviation, as printed
# verify's commutator and spectrum identities, on the family and off it, as printed
_WEIGHT_IDENTITY = "b^2_{n-1} = (n + gamma [n odd])/(2 alpha)"
_DEFORMATION_IDENTITY = "b^2_{n+1} - (r + r^2) b^2_{n-1} + r^3 b^2_{n-3} = 0, r = (v_3 - v_1)/v_1,"


def _ratio_str(p: int, q: int) -> str:
    """str(Fraction(p, q)) for q > 0, by one gcd and without a Fraction: the one
    route from an exact table's integers to its text."""
    if not p:
        return "0"
    g = gcd(p, q)
    return str(p // g) if g == q else f"{p // g}/{q // g}"


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational 'p/q': {text!r}") from exc


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def build_sequence(args, length: int) -> GoverningSequence:
    """v_0..v_length of the chosen family, and its b0^2, formed by one
    constructor call.  This is all of the sequence a command reads: a seed file
    may store more values, and the rest is neither converted nor judged."""
    fam = args.family
    reads, requires = FAMILY_FLAGS[fam]
    for dest in ("gamma", "alpha", "v1", "v2", "b0_squared", "seed_file"):
        if getattr(args, dest) is not None and dest not in reads:
            raise ValueError(f"--family {fam} does not read {_flag(dest)}")
    if any(getattr(args, dest) is None for dest in requires):
        raise ValueError(f"--family {fam} requires {' and '.join(map(_flag, requires))}")
    # b0^2 is passed only when given; each constructor holds its own default
    b0 = {} if args.b0_squared is None else {"b0_squared": args.b0_squared}
    if fam == "hermite":
        return seq_hermite(length, **b0)
    if fam == "classical":
        return seq_classical(args.gamma, length, 1 if args.alpha is None else args.alpha)
    if fam == "family":
        v1 = args.v1 if args.v1 is not None else args.v2 - 1
        return seq_family(v1, args.v2, N=length, **b0)
    if fam == "order2":
        return seq_order2(args.v1, N=length, **b0)
    if fam == "order3":
        return seq_order3(args.v1, args.v2, N=length, **b0)
    with open(args.seed_file) as fh:  # custom-file
        return GoverningSequence.from_json(fh.read(), length)


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
    # every eps past a finite order is 0
    verdict = op.order()
    r = verdict.order if verdict.finite else args.n_max
    lines = [*map(str, op.epsilons[:r]), *["0"] * (args.n_max - r), f"order: {verdict}"]
    _emit(args, "\n".join(lines) + "\n")
    return 0


# build's layout: json.dumps(payload, indent=2) + "\n", whose values need no
# escapes; first_violation is null or an [n, p] list, and weight is printed for
# a family system alone
_BUILD_LAYOUT = """\
{{
  "family": "{family}",
  "n_max": {n_max},
  "governing_sequence": {{
    "values": [
      "{values}"
    ],
    "b0_squared": "{b0_squared}"
  }},
  "validation": {{
    "ok": {ok},
    "monotone": {monotone},
    "compatible": {compatible},
    "first_violation": {violation}
  }},
  "b_squared": [
    "{b_squared}"
  ],
  "gamma_squared": [
    "{gamma_squared}"
  ],
  "special_family": {special}{weight}
}}
"""
_VIOLATION = "[\n      {},\n      {}\n    ]"
_WEIGHT = ',\n  "weight": {{\n    "gamma": "{}",\n    "alpha": "{}"\n  }}'


def cmd_build(args) -> int:
    seq = build_sequence(args, args.n_max)
    sys_ = PolynomialSystem(seq)  # its b^2 and gamma^2 integers; no core is built
    rep = validate(seq)
    b2, den = sys_.b2_row
    _emit(args, _BUILD_LAYOUT.format(
        family=args.family, n_max=args.n_max,
        values='",\n      "'.join([_ratio_str(a, seq.den) for a in seq.nums]),
        b0_squared=seq.b0_squared, ok=str(rep.ok).lower(), monotone=str(rep.monotone).lower(),
        compatible=str(rep.compatible).lower(),
        violation="null" if rep.first_violation is None else _VIOLATION.format(*rep.first_violation),
        b_squared='",\n    "'.join([_ratio_str(a, den) for a in b2]),
        gamma_squared='",\n    "'.join([_ratio_str(a, b) for a, b in sys_.g2_pairs]),
        special=str(sys_.is_family).lower(),
        weight=_WEIGHT.format(*sys_.weight_parameters()) if sys_.is_family else ""))
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
    (b2, den), g2 = sys_.b2_row, sys_.g2_pairs
    parts = [head]  # each row's text, formed as soon as its values exist
    for n, core in enumerate(sys_.monic):
        coeffs = ["0"] * len(core.nums)  # the slots _parities skips are zero
        for t in _parities(n % 2, core.nums):
            coeffs[t::2] = [_ratio_str(a, core.den) for a in core.nums[t::2]]
        text = row.format(n, _ratio_str(b2[n - 1], den) if n else "0", _ratio_str(*g2[n]),
                          str(sys_.norm2[n]), sep.join(coeffs))
        parts += (text, row_sep)
    parts[-1] = tail  # in place of the separator after the last row
    _emit(args, "".join(parts))
    return 0


def cmd_classify(args) -> int:
    seq = build_sequence(args, max(args.n_max, 3))
    reduced = PolynomialSystem(seq).first_reduced_failure(args.n_max) is None
    # the reduced relation at n <= n_max reads v_0..v_{n_max-1}, so membership
    # is judged on that prefix (at least the 3 entries the family shape needs)
    fam, params = is_special_family(GoverningSequence._of_numerators(
        seq.nums[: max(args.n_max, 3)], seq.den, seq.b0_squared))
    lines = [f"reduced: {str(reduced).lower()}", f"special_family: {str(fam).lower()}"]
    if fam:
        v1, v2 = params
        lines.append(f"v1: {v1}")
        lines.append(f"v2: {v2}")
    _emit(args, "\n".join(lines) + "\n")
    # cross-checks the paper's theorem that a system is reduced iff it is in the family
    failed = [] if reduced == fam else ["the reduced relation disagrees with is_special_family"]
    return _exit_code(failed)


# one verdict function per kind of check, each (passed, detail): verify's check
# list and the single-check commands share its wording, and each detail names
# the range it covered and its bound
def _exact(first_failure: int | None, n_max: int,
           identity: str = "polynomial identity") -> tuple[bool, str]:
    """A first-failure scan of an exact identity, named in the detail, over n <= n_max."""
    if first_failure is None:
        return True, f"exact {identity} for every n <= {n_max}"
    return False, f"exact {identity} fails first at n = {first_failure}"


def _gram(report: measure_mod.OrthonormalityReport, n: int) -> tuple[bool, str]:
    """The Gram of psi_0..psi_n: it fails on a deviation not below the bound (a
    NaN included), or on a quadrature that stopped short of its tolerance."""
    detail = f"max deviation {report.max_deviation:.3e} for i, j <= {n}, bound {_GRAM_BOUND}"
    if not report.converged:
        detail += (f"; quadrature error {report.quadrature_error:.3e} exceeds its tolerance "
                   f"{report.tolerance:.0e}; the Gram matrix is not converged")
    return report.max_deviation < float(_GRAM_BOUND) and report.converged, detail


def _oscillator(sys_: PolynomialSystem) -> tuple[bool, str]:
    """The commutator and the levels by one exact scan of b^2 over n <= N = sys_.n_max:
    against the weight on the family, else the deformed oscillator relation (n <= N - 2)."""
    N = sys_.n_max
    if sys_.is_family:
        return _exact(sys_.first_weight_mismatch(N), N, _WEIGHT_IDENTITY)
    return _exact(sys_.first_deformation_mismatch(N), N - 2, _DEFORMATION_IDENTITY)


def cmd_spectrum(args) -> int:
    # lambda_n = 2(b_{n-1}^2 + b_n^2), b_{-1}^2 = 0, exact for every n < dim from b2_row
    sys_ = PolynomialSystem(build_sequence(args, args.dim))
    B, M = sys_.b2_row
    rows = [f"{n},{_ratio_str(2 * (a + b), M)}" for n, (a, b) in enumerate(zip([0, *B], B))]
    _emit(args, "\n".join(["n,lambda", *rows]) + "\n")
    passed, detail = _oscillator(sys_)  # verify's spectrum verdict, with N = dim
    return _exit_code([] if passed else [detail])


def cmd_ode(args) -> int:
    sys_ = PolynomialSystem(build_sequence(args, max(args.n_max, 3)))
    g, a = sys_.weight_parameters()
    first = sys_.first_ode_failure(args.n_max)
    payload = {"family": args.family, "gamma": str(g), "alpha": str(a), "n_max": args.n_max,
               "first_failure": first, "passed": first is None}
    _emit(args, json.dumps(payload, indent=2) + "\n")
    passed, detail = _exact(first, args.n_max)
    return _exit_code([] if passed else [detail])


def cmd_gram(args) -> int:
    # the Gram of psi_0..psi_{n_max} reads v_0..v_{n_max} and no operator
    sys_ = PolynomialSystem(build_sequence(args, args.n_max))
    rep = measure_mod.gram_deviation(sys_, measure_mod.spec_for_system(sys_), args.n_max)
    rows = rep.deviation.tolist()
    _emit(args, "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in rows))
    passed, detail = _gram(rep, args.n_max)
    return _exit_code([] if passed else [detail])


# verify's layout: json.dumps(payload, indent=2) + "\n", each string formed by
# json.dumps; the payload holds family, n_max, dim, the checks (never empty: validate
# always runs) and all_passed
_VERIFY_LAYOUT = """\
{{
  "family": {},
  "n_max": {},
  "dim": {},
  "checks": [
{}
  ],
  "all_passed": {}
}}
"""
_CHECK = """\
    {{
      "name": {},
      "status": {},
      "passed": {},
      "detail": {}
    }}"""


def _verify_text(family: str, n_max: int, dim: int, checks) -> str:
    """verify's report on its (name, status, detail) checks, in json.dumps's bytes at indent 2."""
    dumps = json.dumps
    rows = [_CHECK.format(dumps(name), dumps(status), str(status == "pass").lower(), dumps(detail))
            for name, status, detail in checks]
    return _VERIFY_LAYOUT.format(dumps(family), n_max, dim, ",\n".join(rows),
                                 str(all(status == "pass" for _, status, _ in checks)).lower())


def cmd_verify(args) -> int:
    n_max = args.n_max
    gram_n = min(n_max, 12)
    seq = build_sequence(args, max(n_max, args.dim))
    sys_ = PolynomialSystem(seq)
    checks = []

    def check(name: str, run) -> None:
        # run() gives (passed, detail); a value read with no float fails it, named in the detail
        try:
            passed, detail = run()
        except FloatRangeError as exc:
            passed, detail = False, str(exc)
        status = "pass" if passed else "fail"
        log.info("check %s: %s (%s)", name, status if passed else "FAIL", detail)
        checks.append((name, status, detail))

    # one exact scan of b^2: the commutator, the levels and, on the family, orthonormality's
    oscillator = _oscillator(sys_)

    def orthonormality() -> tuple[bool, str]:
        # the weight scan proves orthonormality at every n <= N; the float Gram checks n <= 12
        try:
            gram = _gram(measure_mod.gram_deviation(sys_, measure_mod.spec_for_system(sys_),
                                                    gram_n), gram_n)
        except FloatRangeError as exc:
            gram = False, str(exc)
        return oscillator[0] and gram[0], f"{oscillator[1]}; float Gram: {gram[1]}"

    def square_lowering() -> tuple[bool, str]:
        # exact on the cores; only a nonzero residual's figure crosses to float
        sq = sys_.square_lowering_deviation(n_max)
        return sq == 0.0, f"max deviation {sq:.3e}, exact on columns 2 <= n <= {n_max}"

    rep = validate(seq)
    check("validate", lambda: (rep.ok, f"monotone={rep.monotone} first_violation="
                                       f"{rep.first_violation} on v_0..v_{seq.n_max}"))
    check("lowering", lambda: _exact(sys_.first_lowering_failure(n_max), n_max))
    check("route_equivalence", lambda: _exact(sys_.first_route_mismatch(n_max), n_max))
    check("commutator", lambda: oscillator)
    check("spectrum", lambda: oscillator)
    if sys_.is_family:
        check("ode", lambda: _exact(sys_.first_ode_failure(n_max), n_max))
        check("orthonormality", orthonormality)
        check("square_lowering", square_lowering)
    else:
        log.info("non-family system: ode/orthonormality/square-lowering not applicable")

    _emit(args, _verify_text(args.family, n_max, args.dim, checks))
    return _exit_code([name for name, status, _ in checks if status != "pass"])


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
                       help="range of the exact b^2 scan: spectrum prints the levels n < dim, "
                       "verify's commutator, spectrum and orthonormality scan "
                       "n <= max(n-max, dim) (>= 5)")

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
    try:
        if getattr(args, "n_max", 2) < 2:
            raise ValueError("--n-max must be >= 2")
        # off the family the b^2 scan's first row reads b^2_4: its N (verify's max(n_max, dim)) >= 5
        if args.command == "verify" and (args.dim < 1 or max(args.n_max, args.dim) < 5):
            raise ValueError("verify needs --dim >= 1 and max(--n-max, --dim) >= 5")
        if args.command == "spectrum" and args.dim < 5:
            raise ValueError("--dim must be >= 5")
        return args.func(args)
    except (ValueError, OSError) as exc:
        _sys.stderr.write(f"error: {exc}\n")
        return 2
    except FloatRangeError as exc:
        # a float check cannot run on this valid system: it fails
        return _exit_code([str(exc)])


if __name__ == "__main__":
    raise SystemExit(main())
