"""Independent output oracle: every job's output is checked here.

The exact tables are recomputed from the family parameters with the paper's
formulas in plain ``Fraction`` arithmetic, sharing no code with the package:

    sequence   closed forms of the five generator families
    brackets   [1] = 1,  [n] = v_{n-1} (v_n - v_{n-2}) / v_1
    b^2        b_{n-1}^2 = b0^2 [n],  norm_n^2 = b_0^2 ... b_{n-1}^2
    gamma^2    gamma_n^2 = v_{n-1}^2 / b_{n-1}^2
    cores      P_0 = 1,  P_1 = x,  P_{n+1} = x P_n - b_{n-1}^2 P_{n-1}
    epsilons   k! eps_k = sum_j (-1)^{k-j} C(k, j) v_{j-1}   (v_{-1} = 0)

and compared exactly.  Float-boundary results are held to the library's own
bounds.  ``check(job, output)`` returns None when the output is right and a
one-line description of the first mismatch otherwise.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from math import comb, factorial

from workload import GRAM_BOUND, GRAM_TOL, ODE_BOUND, OPERATOR_BOUND, CliResult, Family, Job

VERIFY_CHECKS = (
    "validate", "lowering", "route_equivalence", "commutator", "spectrum",
    "ode", "orthonormality", "square_lowering",
)


def sequence(family: Family, N: int) -> list[Fraction]:
    """v_0 .. v_N of the family."""
    F = Fraction
    if family.name == "hermite":
        return [F(n + 1) for n in range(N + 1)]
    if family.name == "classical":
        g = family.gamma
        return [(g + n + 1) / (g + 1) if n % 2 == 0 else F(n + 1) / (g + 1) for n in range(N + 1)]
    if family.name == "family":
        v1, v2 = family.v1, family.v2
        return [(n + 1) // 2 * v1 if n % 2 else n // 2 * v2 - (n // 2 - 1) for n in range(N + 1)]
    if family.name == "order2":
        return [F(1)] + [comb(n + 1, 2) * family.v1 - n * n + 1 for n in range(1, N + 1)]
    if family.name == "order3":
        v1, v2 = family.v1, family.v2
        return [F(1), v1] + [
            comb(n + 1, 3) * v2 - F((n + 1) * n * (n - 2), 2) * v1 + F((n + 1) * (n - 1) * (n - 2), 2)
            for n in range(2, N + 1)
        ]
    raise ValueError(f"unknown family {family.name!r}")


def b0_squared(family: Family) -> Fraction:
    if family.name == "classical":
        return (family.gamma + 1) / (2 * (family.alpha or 1))
    return family.b0_squared


class Tables:
    """Exact data of a system built to N from the family parameters."""

    def __init__(self, family: Family, N: int, cores: bool = True):
        v = sequence(family, N)
        self.values = v
        self.b0_squared = b0_squared(family)
        brackets = [Fraction(1)] + [v[n - 1] * (v[n] - v[n - 2]) / v[1] for n in range(2, N + 1)]
        self.b2 = [self.b0_squared * br for br in brackets]  # b2[i] = b_i^2
        self.g2 = [Fraction(0)] + [v[n - 1] ** 2 / self.b2[n - 1] for n in range(1, N + 1)]
        self.norm2 = [Fraction(1)]
        for b2 in self.b2:
            self.norm2.append(self.norm2[-1] * b2)
        if cores:
            monic = [[Fraction(1)], [Fraction(0), Fraction(1)]]
            for n in range(1, N):
                prev, cur, b2 = monic[n - 1], monic[n], self.b2[n - 1]
                nxt = [Fraction(0)] + cur
                # P_n has the parity of n, so every other coefficient is zero
                for k in range(n - 1, -1, -2):
                    nxt[k] -= b2 * prev[k]
                monic.append(nxt)
            self.monic = monic[: N + 1]


def epsilons(values: list[Fraction], K: int) -> list[Fraction]:
    """eps_1 .. eps_K by the binomial inverse transform, over a common denominator."""
    den = math.lcm(*(v.denominator for v in values[:K]))
    a = [0] + [v.numerator * (den // v.denominator) for v in values[:K]]  # a[j] = den * v_{j-1}
    out = []
    for k in range(1, K + 1):
        s = sum((-1) ** (k - j) * comb(k, j) * a[j] for j in range(k + 1))
        out.append(Fraction(s, den * factorial(k)))
    return out


def order_line(eps: list[Fraction]) -> str:
    K = len(eps)
    last = max((k for k in range(1, K + 1) if eps[k - 1] != 0), default=0)
    if last == K and K > 1:
        return f"order: infinite within horizon K={K}"
    return f"order: {max(last, 1)}"


def _first_mismatch(label: str, got: list[str], want: list[Fraction]) -> str | None:
    if len(got) != len(want):
        return f"{label}: {len(got)} entries, expected {len(want)}"
    for i, (g, w) in enumerate(zip(got, want)):
        if g != str(w):
            return f"{label}[{i}] = {g}, expected {w}"
    return None


def _exit_ok(res: CliResult) -> str | None:
    if res.code != 0:
        return f"exit {res.code}: {res.stderr.strip()[:200]}"
    return None


def check_table(family: Family, N: int, fmt: str, res: CliResult) -> str | None:
    if (err := _exit_ok(res)) is not None:
        return err
    if fmt == "json":
        rows = json.loads(res.stdout)["rows"]
    else:
        lines = res.stdout.splitlines()
        if lines[0] != "n,b_squared,gamma_squared,norm_squared,monic_coeffs":
            return f"unexpected CSV header {lines[0]!r}"
        rows = []
        for line in lines[1:]:
            n, b2, g2, norm2, coeffs = line.split(",")
            rows.append({"n": int(n), "b_squared": b2, "gamma_squared": g2,
                         "norm_squared": norm2, "monic_coeffs": coeffs.split(";")})
    want = Tables(family, N)
    if [r["n"] for r in rows] != list(range(N + 1)):
        return "rows are not n = 0..N"
    for label, key, column in (
        ("b_squared", "b_squared", [Fraction(0)] + want.b2[:N]),
        ("gamma_squared", "gamma_squared", want.g2),
        ("norm_squared", "norm_squared", want.norm2),
    ):
        if (err := _first_mismatch(label, [r[key] for r in rows], column)) is not None:
            return err
    for n, row in enumerate(rows):
        if (err := _first_mismatch(f"P_{n}", row["monic_coeffs"], want.monic[n])) is not None:
            return err
    return None


def check_build(family: Family, N: int, res: CliResult) -> str | None:
    if (err := _exit_ok(res)) is not None:
        return err
    got = json.loads(res.stdout)
    want = Tables(family, N, cores=False)
    v = want.values
    for err in (
        _first_mismatch("values", got["governing_sequence"]["values"], v),
        _first_mismatch("b0_squared", [got["governing_sequence"]["b0_squared"]], [want.b0_squared]),
        _first_mismatch("b_squared", got["b_squared"], want.b2),
        _first_mismatch("gamma_squared", got["gamma_squared"], want.g2),
    ):
        if err is not None:
            return err
    if got["n_max"] != N:
        return f"n_max {got['n_max']}, expected {N}"
    valid = got["validation"]
    if valid["monotone"] != all(v[i] <= v[i + 1] for i in range(N)):
        return f"monotone = {valid['monotone']} is wrong"
    if valid["ok"] != valid["compatible"] or (family.is_special and not valid["compatible"]):
        return f"validation {valid} is wrong for a special-family sequence"
    if got["special_family"] != family.is_special:
        return f"special_family = {got['special_family']}, expected {family.is_special}"
    if family.is_special:
        gamma = (3 - v[2]) / (v[2] - 1)
        alpha = 1 / (want.b0_squared * (v[2] - 1))
        if got.get("weight") != {"gamma": str(gamma), "alpha": str(alpha)}:
            return f"weight {got.get('weight')}, expected gamma={gamma} alpha={alpha}"
    return None


def check_epsilons(family: Family, N: int, res: CliResult) -> str | None:
    if (err := _exit_ok(res)) is not None:
        return err
    lines = res.stdout.splitlines()
    eps = epsilons(sequence(family, N), N)
    if (err := _first_mismatch("eps", lines[:-1], eps)) is not None:
        return err
    if lines[-1] != order_line(eps):
        return f"{lines[-1]!r}, expected {order_line(eps)!r}"
    return None


def check_verify(job: Job, res: CliResult) -> str | None:
    if (err := _exit_ok(res)) is not None:
        return err
    got = json.loads(res.stdout)
    names = tuple(c["name"] for c in got["checks"])
    if names != VERIFY_CHECKS:
        return f"checks {names}, expected {VERIFY_CHECKS}"
    failed = [c["name"] for c in got["checks"] if c["passed"] is not True]
    if failed or got["all_passed"] is not True:
        return f"checks failed: {failed}"
    if (got["n_max"], got["dim"]) != (job.size, job.dim):
        return f"n_max/dim {got['n_max']}/{got['dim']}, expected {job.size}/{job.dim}"
    return None


def check_classify(family: Family, N: int, res: CliResult) -> str | None:
    if (err := _exit_ok(res)) is not None:
        return err
    member = str(family.is_special).lower()
    want = [f"reduced: {member}", f"special_family: {member}"]
    if family.is_special:
        v = sequence(family, 2)
        want += [f"v1: {v[1]}", f"v2: {v[2]}"]
    if res.stdout.splitlines() != want:
        return f"output {res.stdout.splitlines()}, expected {want}"
    return None


def _below(label: str, value, bound: float) -> str | None:
    # written so that NaN fails
    if value is not None and not value < bound:
        return f"{label} = {value!r} is not below {bound}"
    return None


def check(job: Job, output) -> str | None:
    kind = job.kind
    if kind == "verify":
        return check_verify(job, output)
    if kind == "classify":
        return check_classify(job.family, job.size, output)
    if kind == "table":
        return check_table(job.family, job.size, job.fmt, output)
    if kind == "build":
        return check_build(job.family, job.size, output)
    if kind == "epsilons":
        return check_epsilons(job.family, job.size, output)
    if kind == "gram":
        if not output.quadrature_error <= GRAM_TOL:
            return f"quadrature_error {output.quadrature_error!r} exceeds tol {GRAM_TOL}"
        return _below("gram deviation", output.max_deviation, GRAM_BOUND)
    if kind == "ode":
        return _below("ode residual", output, ODE_BOUND)
    if kind == "square_lowering":
        return _below("square-lowering deviation", output, OPERATOR_BOUND)
    if kind == "operators":
        comm, spec = output
        for label, value in (
            ("commutator", comm.max_deviation),
            ("classical commutator", comm.classical_deviation),
            ("spectrum", spec.max_deviation),
            ("spectrum off-diagonal", spec.off_diagonal),
            ("classical spectrum", spec.classical_deviation),
        ):
            if (err := _below(label, value, OPERATOR_BOUND)) is not None:
                return err
        return None
    raise ValueError(f"unknown job kind {kind!r}")
