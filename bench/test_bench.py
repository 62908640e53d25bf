"""Tests of the benchmark's own code: job lists, oracle, tracer and probes.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import hermite_chihara as hc  # noqa: E402
import hermite_chihara.cli  # noqa: E402,F401
import pytest  # noqa: E402

import oracle  # noqa: E402
import tracer  # noqa: E402
import workload as wl  # noqa: E402


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_same_job_list(workload):
    assert wl.job_list(workload, 7, 2) == wl.job_list(workload, 7, 2)
    assert wl.job_list(workload, 7, 2) != wl.job_list(workload, 8, 2)


def test_every_family_and_system_spans_the_whole_size_range():
    jobs = wl.job_list("exact-tables", 3, 4)
    for kind in ("table", "build", "epsilons"):
        for name in ("hermite", "classical", "family", "order2", "order3"):
            sizes = sorted(j.size for j in jobs if j.kind == kind and j.family.name == name)
            assert len(sizes) == 8 and sizes[0] <= 76 and sizes[-1] >= 216


def test_generator_draws_only_constructor_valid_parameters():
    constructors = {
        "order2": lambda f, N: hc.seq_order2(f.v1, N=N, b0_squared=f.b0_squared),
        "order3": lambda f, N: hc.seq_order3(f.v1, f.v2, N=N, b0_squared=f.b0_squared),
    }
    for workload in ("exact-checks", "exact-tables"):
        for seed in range(40):
            for job in wl.job_list(workload, seed, 1):
                f = job.family
                assert not (job.kind == "verify" and f.name in ("order2", "order3"))
                if f.name in constructors:
                    seq = constructors[f.name](f, 256)  # raises ConstructionError if invalid
                    assert list(seq.values) == oracle.sequence(f, 256)
                    assert hc.is_special_family(seq)[0] == f.is_special


def _table_job(fmt):
    family = wl.Family("order3", v1=hc.governing.as_fraction("3/2"), v2=hc.governing.as_fraction(3),
                       b0_squared=hc.governing.as_fraction("2/5"))
    return wl.Job("table", 12, family, fmt=fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_oracle_flags_one_corrupted_core_coefficient(fmt):
    job = _table_job(fmt)
    res = wl.run_job(hc, job, {})
    assert oracle.check(job, res) is None
    if fmt == "csv":
        lines = res.stdout.splitlines()
        n, b2, g2, norm2, coeffs = lines[9].split(",")
        coeffs = coeffs.split(";")
        coeffs[3] = str(hc.governing.as_fraction(coeffs[3]) + 1)
        lines[9] = ",".join([n, b2, g2, norm2, ";".join(coeffs)])
        text = "\n".join(lines) + "\n"
    else:
        data = json.loads(res.stdout)
        data["rows"][8]["monic_coeffs"][2] += "1"
        text = json.dumps(data)
    error = oracle.check(job, wl.CliResult(0, text, ""))
    assert error is not None and error.startswith("P_8")


def test_oracle_accepts_every_command():
    F = hc.governing.as_fraction
    family = wl.Family("family", v1=F("1/2"), v2=F(3), b0_squared=F("3/4"))
    jobs = [
        wl.Job("build", 14, family),
        wl.Job("epsilons", 14, family),
        wl.Job("verify", 10, family, dim=12),
        wl.Job("classify", 10, family),
        wl.Job("classify", 10, wl.Family("order2", v1=F(3), b0_squared=F("1/2"))),
    ]
    for job in jobs:
        assert oracle.check(job, wl.run_job(hc, job, {})) is None, job.label()


def test_epsilons_by_binomial_transform_match_the_library():
    family = wl.Family("classical", gamma=hc.governing.as_fraction("1/3"))
    values = oracle.sequence(family, 20)
    op = hc.epsilons_from_sequence(hc.seq_classical(family.gamma, 20), K=20)
    assert oracle.epsilons(values, 20) == list(op.epsilons)


def _span(name, start, end, parent):
    return tracer.Span(name, start, end, parent, "job")


def test_self_time_of_a_synthetic_span_nest():
    spans = [
        _span("a", 0.0, 10.0, -1),  # 0: children 1 and 3 cover 2 + 3
        _span("b", 1.0, 3.0, 0),  # 1: child 2 covers 0.5
        _span("c", 1.5, 2.0, 1),  # 2
        _span("b", 5.0, 8.0, 0),  # 3: nested b (4) covers 1
        _span("b", 6.0, 7.0, 3),  # 4
        _span("a", 20.0, 21.0, -1),  # 5
    ]
    times = tracer.layer_times(spans)
    assert times["a"] == {"calls": 2, "busy_s": 11.0, "self_s": 6.0}
    # the nested b counts once in busy time (inside the outer b), fully in self time
    assert times["b"] == {"calls": 3, "busy_s": 5.0, "self_s": 1.5 + 2.0 + 1.0}
    assert times["c"] == {"calls": 1, "busy_s": 0.5, "self_s": 0.5}


def test_union_of_overlapping_children_is_counted_once():
    assert tracer._union_length([(1.0, 3.0), (2.0, 4.0), (9.0, 12.0)], 0.0, 10.0) == 4.0


def test_tracer_patches_every_binding_and_restores_them():
    trace = tracer.Tracer()
    originals = (hc.cli.validate, hc.systems.gamma_squares, hc.measure.integrate_split_at_zero)
    trace.install()
    try:
        assert hc.cli.validate is not originals[0] and hc.governing.validate is hc.cli.validate
        assert hc.systems.gamma_squares is hc.governing.gamma_squares is not originals[1]
        assert hc.measure.integrate_split_at_zero is hc.quadrature.integrate_split_at_zero
        job = wl.Job("verify", 10, wl.Family("hermite", b0_squared=hc.governing.as_fraction("1/2")), dim=12)
        trace.job = "j"
        assert oracle.check(job, wl.run_job(hc, job, {})) is None
    finally:
        trace.uninstall()
    assert (hc.cli.validate, hc.systems.gamma_squares, hc.measure.integrate_split_at_zero) == originals
    trace.end_job()
    times = tracer.layer_times(trace.spans)
    assert times["cli.main"]["calls"] == 1
    assert times["governing.validate"]["calls"] == 1
    assert times["measure.gram_deviation"]["calls"] == 1
    assert trace.gram_calls == trace.gram_converged == 1
    assert trace.panels == times["systems.psi_eval_table"]["calls"] > 0
    assert trace.max_coeff_bits > 0
    assert all(s.job == "j" for s in trace.spans)


def test_failing_probe_is_reported():
    """The n = 200 ODE probe fails exactly when the library cannot evaluate the
    residual there (ROADMAP 0b: OverflowError today)."""
    name, kind, family, n = wl.PROBES[0]
    ((probe, error),) = wl.run_probes(hc, oracle.check, [wl.PROBES[0]])
    assert probe == name
    system = hc.PolynomialSystem(wl.sequence_for(hc, family, n))
    try:
        worst = max(abs(system.ode_residual(n, x)) for x in wl.ODE_GRID)
    except OverflowError:
        assert error is not None and error.startswith("OverflowError")
    else:
        assert (error is None) == (worst < wl.ODE_BOUND)


def test_oracle_rejects_nan():
    job = wl.Job("ode", 10, system="hermite")
    assert oracle.check(job, float("nan")) is not None
    assert oracle.check(job, 0.0) is None
