"""Per-layer tracing from outside the package.

``Tracer.install`` replaces each traced function with a wrapper that records a
span (name, start, end, parent span, job id).  Module-level functions are
replaced in every ``hermite_chihara`` module that binds them, since ``cli`` and
``systems`` import ``validate``, ``epsilons_from_sequence`` and
``gamma_squares`` by name and ``measure`` imports ``integrate_split_at_zero``
by name; methods and the ``PolynomialSystem`` constructor are replaced on
their class.  ``uninstall`` puts the originals back.

Spans stay in memory until ``write_spans``.  A span's self time is its
duration minus the part its child spans cover; a function's busy time is the
total duration of its spans that have no span of the same function above them.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from dataclasses import dataclass

PACKAGE = "hermite_chihara"

# metric prefix -> (module, class or None, attribute)
TARGETS = {
    "derivation.apply": ("derivation", "DerivationOperator", "apply"),
    "derivation.apply_upper_part": ("derivation", "DerivationOperator", "apply_upper_part"),
    "derivation.epsilons_from_sequence": ("derivation", None, "epsilons_from_sequence"),
    "governing.validate": ("governing", None, "validate"),
    "governing.gamma_squares": ("governing", None, "gamma_squares"),
    "systems.PolynomialSystem": ("systems", "PolynomialSystem", "__init__"),
    "systems.decompose_b1bar": ("systems", "PolynomialSystem", "decompose_b1bar"),
    "systems.psi_coeffs_via_alpha": ("systems", "PolynomialSystem", "psi_coeffs_via_alpha"),
    "systems.ode_residual": ("systems", "PolynomialSystem", "ode_residual"),
    "systems.derivative_in_basis": ("systems", "PolynomialSystem", "derivative_in_basis"),
    "systems.psi_eval_table": ("systems", "PolynomialSystem", "psi_eval_table"),
    "measure.gram_deviation": ("measure", None, "gram_deviation"),
    "quadrature.integrate_split_at_zero": ("quadrature", None, "integrate_split_at_zero"),
    "oscillator.build_operators": ("oscillator", None, "build_operators"),
    "oscillator.commutator_report": ("oscillator", None, "commutator_report"),
    "oscillator.spectrum_report": ("oscillator", None, "spectrum_report"),
    "oscillator.square_lowering_report": ("oscillator", None, "square_lowering_report"),
    "cli.main": ("cli", None, "main"),
}

@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 at the top
    job: str


def max_coeff_bits(system) -> int:
    """Largest numerator or denominator bit-length among the monic cores."""
    return max(
        max(c.numerator.bit_length(), c.denominator.bit_length())
        for core in system.monic
        for c in core.coeffs
    )


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self.job = "setup"
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object, object]] | None = None
        self._new_systems: list = []  # built since the last end_job()
        self.max_coeff_bits = 0
        self.output_bytes = 0
        self.panels = 0
        self.gram_calls = 0
        self.gram_converged = 0

    # -- spans ---------------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self.job)

        return traced

    # -- counters, each wrapped inside its span --------------------------------

    def _count_systems(self, init):
        def counted(system, *args, **kwargs):
            init(system, *args, **kwargs)
            self._new_systems.append(system)

        return counted

    def _count_panels(self, integrate):
        def counted(f, *args, **kwargs):
            def integrand(x):
                self.panels += 1
                return f(x)

            return integrate(integrand, *args, **kwargs)

        return counted

    def _count_converged(self, gram):
        signature = inspect.signature(gram)

        def counted(*args, **kwargs):
            report = gram(*args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            self.gram_calls += 1
            self.gram_converged += report.quadrature_error <= bound.arguments["tol"]
            return report

        return counted

    def _wrapper(self, name: str, fn):
        counter = {
            "systems.PolynomialSystem": self._count_systems,
            "quadrature.integrate_split_at_zero": self._count_panels,
            "measure.gram_deviation": self._count_converged,
        }.get(name)
        return self._span(name, counter(fn) if counter else fn)

    # -- patching ------------------------------------------------------------

    def _find_bindings(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every binding to patch."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        bindings = []
        for name, (module, cls, attr) in TARGETS.items():
            home = sys.modules[f"{PACKAGE}.{module}"]
            if cls is not None:
                owner = getattr(home, cls)
                original = owner.__dict__[attr]
                bindings.append((owner, attr, original, self._wrapper(name, original)))
                continue
            original = getattr(home, attr)
            wrapped = self._wrapper(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        bindings.append((m, key, original, wrapped))
        return bindings

    def install(self) -> None:
        if self._bindings is None:
            self._bindings = self._find_bindings()
        for owner, attr, _, wrapped in self._bindings:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._bindings or ():
            setattr(owner, attr, original)

    def end_job(self, output_bytes: int = 0) -> None:
        """Fold in the counts of the job that just ended, outside its timing."""
        for system in self._new_systems:
            self.max_coeff_bits = max(self.max_coeff_bits, max_coeff_bits(system))
        self._new_systems = []
        self.output_bytes += output_bytes

    # -- results -------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.job]) + "\n")


def layer_times(spans: list[Span]) -> dict[str, dict[str, float]]:
    """{name: {"calls", "busy_s", "self_s"}} from a span list."""
    covered = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            covered[s.parent].append((s.start, s.end))
    out: dict[str, dict[str, float]] = {}
    for i, s in enumerate(spans):
        row = out.setdefault(s.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += (s.end - s.start) - _union_length(covered[i], s.start, s.end)
        parent = s.parent
        while parent >= 0 and spans[parent].name != s.name:
            parent = spans[parent].parent
        if parent < 0:
            row["busy_s"] += s.end - s.start
    return out


def _union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total
