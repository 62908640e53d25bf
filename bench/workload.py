"""Workloads of the benchmark: seeded job lists and the code that runs one job.

Every job's parameters come from the seed.  Sizes are drawn from contiguous
integer ranges, stratified on a log scale: for each job kind, a run's job list
splits the kind's size range into log-equal strata, one per job, and deals
each block of neighbouring strata to the families or systems the kind runs on,
one stratum each.  Exact-arithmetic cost grows like a power of the size, so
log strata spread a run's time over the whole range, and every family spans
it.  Parameter denominators and special cases are dealt in fixed shares too
(``_Deal``, ``_with_families``).  With these rules the mix of job costs stays
nearly the same from seed to seed, and so do the latency quantiles.  A job
list of scale k has k times the jobs of scale 1.

The job code calls the package through module attributes
(``measure.gram_deviation``, ``cli.main``, ...), never through names bound at
import time, so the tracer in ``tracer.py`` sees every call.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import signal
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("exact-checks", "exact-tables", "float-boundary")

# Library acceptance bounds, as cmd_verify / cmd_ode / cmd_spectrum apply them.
GRAM_TOL = 1e-11  # quadrature tolerance passed to gram_deviation
GRAM_BOUND = 1e-8
ODE_BOUND = 1e-9
OPERATOR_BOUND = 1e-10

# The CLI's ODE grid (cli._ode_grid): 50 points in [-5, 5] without 0.
_HALF_GRID = [0.1 + 4.9 * k / 24 for k in range(25)]
ODE_GRID = tuple([-x for x in _HALF_GRID] + _HALF_GRID)


@dataclass(frozen=True)
class Family:
    """A generator family with its parameters, as the hcpoly CLI takes them."""

    name: str  # hermite | classical | family | order2 | order3
    gamma: Fraction | None = None
    alpha: Fraction | None = None
    v1: Fraction | None = None
    v2: Fraction | None = None
    b0_squared: Fraction | None = None

    def cli_args(self) -> list[str]:
        args = ["--family", self.name]
        for flag, value in (
            ("--gamma", self.gamma),
            ("--alpha", self.alpha),
            ("--v1", self.v1),
            ("--v2", self.v2),
            ("--b0-squared", self.b0_squared),
        ):
            if value is not None:
                args.append(f"{flag}={value}")  # "=" keeps a negative value off the flag list
        return args

    @property
    def is_special(self) -> bool:
        """Membership in the two-parameter special family, known by construction:
        order2 at v1 = 2 and order3 at (v1, v2) = (2, 3) are the Hermite sequence."""
        if self.name == "order2":
            return self.v1 == 2
        if self.name == "order3":
            return (self.v1, self.v2) == (2, 3)
        return True


@dataclass(frozen=True)
class Job:
    kind: str  # verify classify table build epsilons gram ode square_lowering operators
    size: int  # --n-max for CLI jobs; n or dim for library jobs
    family: Family | None = None  # CLI jobs
    dim: int | None = None  # verify --dim
    fmt: str | None = None  # table --format
    system: str | None = None  # float-boundary: key into the set-up pool

    def argv(self) -> list[str]:
        argv = [self.kind, *self.family.cli_args(), "--n-max", str(self.size)]
        if self.dim is not None:
            argv += ["--dim", str(self.dim)]
        if self.fmt is not None:
            argv += ["--format", self.fmt]
        return argv

    def label(self) -> str:
        where = self.family.name if self.family is not None else self.system
        return f"{self.kind}:{where}:{self.size}"


# -- parameter draws ---------------------------------------------------------


class _Deal:
    """Deals a value for a named slot from its options, each in a fresh random
    order and all of them before any repeats, so that every run of draws holds
    the same mix.  The denominators of the parameters set the bit-length of
    every coefficient, and so the cost of a job."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.hands: dict[str, list] = {}

    def __call__(self, slot: str, options: tuple):
        hand = self.hands.setdefault(slot, [])
        if not hand:
            hand.extend(self.rng.sample(options, len(options)))
        return hand.pop()


def _rational(rng: random.Random, lo: Fraction, hi: Fraction, q: int) -> Fraction:
    """A rational p/q, p uniform among those with p/q in [lo, hi]."""
    p_lo, p_hi = math.ceil(lo * q), math.floor(hi * q)
    return Fraction(rng.randint(p_lo, p_hi), q)


def _draw_family(rng: random.Random, deal: _Deal, name: str, special: bool = False) -> Family:
    """Parameters for family ``name``, each with a denominator of at most 4
    dealt by ``deal``; ``special`` picks the order2 or order3 parameters that
    give the Hermite sequence, and is ignored otherwise."""
    F = Fraction

    def rational(slot: str, lo: Fraction, hi: Fraction) -> Fraction:
        return _rational(rng, lo, hi, deal(f"{name}.{slot}", (1, 2, 3, 4)))

    b0sq = rational("b0sq", F(1, 3), F(3))
    if name == "hermite":
        return Family("hermite", b0_squared=b0sq)
    if name == "classical":
        alpha = deal("classical.alpha", (None, None, F(1, 2), F(3, 2), F(2)))
        return Family("classical", gamma=rational("gamma", F(-1, 2), F(4)), alpha=alpha)
    if name == "family":
        v2 = rational("v2", F(3, 2), F(5))
        return Family("family", v1=rational("v1", F(1, 4), v2), v2=v2, b0_squared=b0sq)
    if name == "order2":
        # v_n - v_{n-1} = n v1 - (2n - 1): nondecreasing for all n iff v1 >= 2
        v1 = F(2)
        while v1 == 2 and not special:
            v1 = rational("v1", F(2), F(5))
        return Family("order2", v1=v1, b0_squared=b0sq)
    if name == "order3":
        if special:
            return Family("order3", v1=F(2), v2=F(3), b0_squared=b0sq)
        # the cubic term is (v2 - 3 v1 + 3) C(n+1, 3); keep it positive and v1 <= v2
        v1 = rational("v1", F(1), F(3))
        v2 = max(v1, 3 * v1 - 3) + rational("v2", F(1, 4), F(3))
        return Family("order3", v1=v1, v2=v2, b0_squared=b0sq)
    raise ValueError(f"unknown family {name!r}")


def _log_strata(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """One integer from each of ``count`` log-equal strata of [lo, hi]."""
    a, b = math.log(lo), math.log(hi + 1)
    out = []
    for i in range(count):
        x = math.exp(rng.uniform(a + (b - a) * i / count, a + (b - a) * (i + 1) / count))
        out.append(min(hi, max(lo, int(x))))
    return out


def _sizes(rng: random.Random, variants, lo: int, hi: int, per_variant: int) -> list[tuple[str, int]]:
    """(variant, size) pairs over len(variants) * per_variant log-equal strata
    of [lo, hi], taken in blocks of len(variants) neighbouring strata: each
    variant gets one stratum of every block, so each spans the whole range."""
    variants = list(variants)
    sizes = _log_strata(rng, lo, hi, len(variants) * per_variant)
    pairs = []
    for start in range(0, len(sizes), len(variants)):
        pairs += zip(rng.sample(variants, len(variants)), sizes[start:])
    return pairs


def _with_families(rng: random.Random, pairs) -> list[tuple[str, int, Family]]:
    """(name, size, family) for the (name, size) pairs of ``_sizes``, which
    come in rising size for each name.  Of every four draws of one name in a
    row, exactly one, at a random place, is special: classify runs to n_max
    on a special system and stops early on the others, so the share of special
    ones along the size range must not change from seed to seed."""
    deal = _Deal(rng)
    seen: dict[str, int] = {}
    special_at: dict[str, int] = {}
    out = []
    for name, n in pairs:
        i = seen[name] = seen.get(name, -1) + 1
        if i % 4 == 0:
            special_at[name] = i + rng.randrange(4)
        out.append((name, n, _draw_family(rng, deal, name, special=i == special_at[name])))
    return out


# -- job lists ---------------------------------------------------------------

# Float-boundary systems, built once in set-up.  Fixed, so that set-up time does
# not depend on the seed; every one is a special-family system with an integer
# weight exponent (gamma = 2, 1, 0).  Only the classical one reaches dim 400.
POOL = {
    "family": (Family("family", v1=Fraction(2, 3), v2=Fraction(5, 3), b0_squared=Fraction(3, 7)), 130),
    "classical": (Family("classical", gamma=Fraction(1)), 400),
    "hermite": (Family("hermite", b0_squared=Fraction(1, 2)), 130),
}


def _jobs_exact_checks(rng: random.Random, k: int) -> list[Job]:
    verify = _with_families(rng, _sizes(rng, ("hermite", "classical", "family"), 12, 36, 4 * k))
    # verify builds its system to max(n_max, dim), so dim rises with n_max,
    # stratum by stratum, for every family: a dim drawn apart from n_max would
    # change the mix of system lengths from seed to seed
    dims = {name: iter(_log_strata(rng, 16, 40, 4 * k)) for name in ("hermite", "classical", "family")}
    jobs = [Job("verify", n, family, dim=next(dims[name])) for name, n, family in verify]
    # classify stops at the first n that is not reduced, so most classify jobs
    # take a tenth of a verify job: with half as many of them the median job is
    # a verify job, not one from the gap between the two kinds
    classify = _with_families(rng, _sizes(rng, ("order2", "order3", "family"), 10, 40, 2 * k))
    jobs += [Job("classify", n, family) for _, n, family in classify]
    return jobs


def _jobs_exact_tables(rng: random.Random, k: int) -> list[Job]:
    families = ("hermite", "classical", "family", "order2", "order3")
    jobs = []
    for kind in ("table", "build", "epsilons"):
        for _, n, family in _with_families(rng, _sizes(rng, families, 64, 256, 2 * k)):
            fmt = rng.choice(("csv", "json")) if kind == "table" else None
            jobs.append(Job(kind, n, family, fmt=fmt))
    return jobs


def _jobs_float_boundary(rng: random.Random, k: int) -> list[Job]:
    jobs = []
    for kind, lo, hi in (("gram", 20, 100), ("ode", 16, 100), ("square_lowering", 40, 80)):
        jobs += [Job(kind, n, system=name) for name, n in _sizes(rng, POOL, lo, hi, 4 * k)]
    jobs += [Job("operators", dim, system="classical") for _, dim in _sizes(rng, ["classical"], 100, 400, 12 * k)]
    return jobs


# One untimed job per workload, run before the timed loop: among the heaviest
# the workload can draw (top of the size range, large parameter heights), so
# that lazy set-up is done before timing and the peak memory of a run does not
# hang on whether its draws came near the top of the range.
WARMUP = {
    "exact-checks": Job(
        "verify", 36, Family("family", v1=Fraction(7, 3), v2=Fraction(11, 3), b0_squared=Fraction(8, 3)), dim=40
    ),
    "exact-tables": Job(
        "table", 256, Family("order3", v1=Fraction(7, 3), v2=Fraction(17, 3), b0_squared=Fraction(8, 3)), fmt="csv"
    ),
    "float-boundary": Job("operators", 400, system="classical"),
}

_JOBS = {
    "exact-checks": _jobs_exact_checks,
    "exact-tables": _jobs_exact_tables,
    "float-boundary": _jobs_float_boundary,
}

# Wall seconds the job list of scale 1 takes, with its calibration loops, on
# one core of a 2-vCPU x86-64 VM shared with other tenants (Python 3.11): a
# run's scale is the one that fills its time at this rate.
SCALE_SECONDS = {"exact-checks": 5.0, "exact-tables": 6.0, "float-boundary": 4.2}


def scale_for(workload: str, seconds: float) -> int:
    """The scale whose job list takes about ``seconds`` to run, at least 1."""
    return max(1, round(seconds / SCALE_SECONDS[workload]))


def job_list(workload: str, seed: int, scale: int) -> list[Job]:
    """The workload's jobs for ``seed`` at ``scale``, in the order they run."""
    rng = random.Random(f"{workload}/{seed}/{scale}")
    jobs = _JOBS[workload](rng, scale)
    rng.shuffle(jobs)
    return jobs


# -- running jobs ------------------------------------------------------------

# Times at reference speed.  On a shared host the speed of the machine wanders
# by a quarter, within seconds and over whole runs, and it slows the package
# and any other exact-arithmetic loop alike.  So a short fixed loop of Fraction
# additions that shares no code with the package (calibrate) is timed
# END_LOOPS times before and after the timed code and, from a SIGALRM handler,
# every SAMPLE_S seconds while it runs.  The code's time, less the time of the
# loops inside it, is scaled by CAL_REF_S over the median time of its loops.
CAL_TERMS = 150  # terms of the calibration loop
CAL_REF_S = 0.30e-3  # least time of calibrate() on a 2-vCPU x86-64 VM, Python 3.11
END_LOOPS = 3
SAMPLE_S = 0.02


def calibrate() -> float:
    """Seconds the calibration loop takes now: 1/1 + ... + 1/(CAL_TERMS-1)."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, CAL_TERMS):
        total += Fraction(1, i)
    return time.perf_counter() - start


class Meter:
    """Times code at reference speed, between ``start`` and ``stop``."""

    def __init__(self):
        self.loops: list[float] = []
        signal.signal(signal.SIGALRM, lambda signum, frame: self.loops.append(calibrate()))

    def start(self) -> None:
        self.loops = [calibrate() for _ in range(END_LOOPS)]
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        self.started = time.perf_counter()

    def stop(self) -> float:
        """Seconds since ``start``, less the loops inside them, at reference speed."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - self.started - sum(self.loops[END_LOOPS:])
        self.loops += [calibrate() for _ in range(END_LOOPS)]
        return elapsed * self.speed

    @property
    def speed(self) -> float:
        """Reference seconds per second of this machine, over the last start-stop."""
        return CAL_REF_S / statistics.median(self.loops)


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    stderr: str


def run_cli(hc, argv: list[str]) -> CliResult:
    """hcpoly in-process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = hc.cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def sequence_for(hc, family: Family, N: int):
    """The library's governing sequence for a pool system or an edge probe."""
    if family.name == "hermite":
        return hc.governing.seq_hermite(N, b0_squared=family.b0_squared)
    if family.name == "classical":
        return hc.governing.seq_classical(family.gamma, N)
    if family.name == "family":
        return hc.governing.seq_family(family.v1, family.v2, family.b0_squared, N)
    raise ValueError(f"no pool sequence for {family.name!r}")


def build_pool(hc, workload: str) -> dict:
    """Systems the workload's jobs share; only float-boundary has any."""
    if workload != "float-boundary":
        return {}
    return {
        key: hc.systems.PolynomialSystem(sequence_for(hc, family, N))
        for key, (family, N) in POOL.items()
    }


def run_job(hc, job: Job, pool: dict):
    """Run one job and return what the oracle checks."""
    if job.family is not None:
        return run_cli(hc, job.argv())
    sys_ = pool[job.system]
    if job.kind == "gram":
        spec = hc.measure.spec_for_system(sys_)
        return hc.measure.gram_deviation(sys_, spec, job.size, tol=GRAM_TOL)
    if job.kind == "ode":
        return max(abs(sys_.ode_residual(job.size, x)) for x in ODE_GRID)
    if job.kind == "square_lowering":
        ops = hc.oscillator.build_operators(sys_, dim=job.size)
        return hc.oscillator.square_lowering_report(ops, sys_)
    if job.kind == "operators":
        ops = hc.oscillator.build_operators(sys_, dim=job.size)
        return (
            hc.oscillator.commutator_report(ops, sys_),
            hc.oscillator.spectrum_report(ops, sys_),
        )
    raise ValueError(f"unknown job kind {job.kind!r}")


# -- edge probes -------------------------------------------------------------

# Known-defect probes (ROADMAP 0b, 0c), run by ``probes.py`` and never inside
# a workload, whose operations must all succeed.  Their sizes are part of the
# benchmark: never shrink them.
PROBES = (
    ("ode_n200_hermite", "ode", Family("hermite", b0_squared=Fraction(1, 2)), 200),
    ("ode_n200_classical", "ode", Family("classical", gamma=Fraction(1, 2)), 200),
    ("gram_n100_classical", "gram", Family("classical", gamma=Fraction(-1, 2)), 100),
)


def run_probes(hc, check, probes=PROBES) -> list[tuple[str, str | None]]:
    """(name, failure or None) for every probe; ``check`` is the job oracle."""
    results = []
    for name, kind, family, n in probes:
        try:
            sys_ = hc.systems.PolynomialSystem(sequence_for(hc, family, n))
            job = Job(kind, n, system=name)
            error = check(job, run_job(hc, job, {name: sys_}))
        except Exception as exc:  # a probe reports any failure and the run goes on
            error = f"{type(exc).__name__}: {exc}"
        results.append((name, error))
    return results
