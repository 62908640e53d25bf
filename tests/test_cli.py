import argparse
import copy
import hashlib
import importlib.util
import json
import logging
import math
import os
import re
import shlex
import subprocess
import sys
import time
import warnings
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import fraction_reference as ref
import hermite_chihara
import hermite_chihara.cli as cli
import hermite_chihara.governing as governing
from conftest import corrupt_core, fraction_lists_of_b2, propagated_compatible_sequence
from hermite_chihara import DerivationOperator, Poly, PolynomialSystem, epsilons_from_sequence
from hermite_chihara.cli import FAMILY_FLAGS, _ratio_str, build_sequence, main, make_parser
from hermite_chihara.governing import GoverningSequence, common_denominator


def seed_text(values, b0_squared="1/2") -> str:
    """A seed file holding the sequence values and b0^2 (1/2 unless given)."""
    return json.dumps({"values": [str(F(v)) for v in values], "b0_squared": b0_squared})


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# the detail of commutator and spectrum on a family system: the exact scan of b^2
# against the weight; off the family, the exact scan of the deformed oscillator
# relation of the compatible class
WEIGHT = "exact b^2_{n-1} = (n + gamma [n odd])/(2 alpha)"
DEFORMATION = "exact b^2_{n+1} - (r + r^2) b^2_{n-1} + r^3 b^2_{n-3} = 0, r = (v_3 - v_1)/v_1,"


class TestEpsilons:
    def test_classical_gamma1(self, capsys):
        code, out, _ = run_cli(
            capsys, "epsilons", "--family", "classical", "--gamma", "1", "--n-max", "6"
        )
        assert code == 0
        assert out.splitlines() == [
            "1",
            "-1/2",
            "1/3",
            "-1/6",
            "1/15",
            "-1/45",
            "order: infinite within horizon K=6",
        ]

    def test_hermite_order(self, capsys):
        code, out, _ = run_cli(capsys, "epsilons", "--family", "hermite", "--n-max", "5")
        assert code == 0
        assert out.splitlines()[-1] == "order: 1"

    @pytest.mark.parametrize("K", [2, 3, 64, 256])
    @pytest.mark.parametrize("family", ["hermite", "classical_1_3", "family", "order2", "order3"])
    def test_prints_the_binomial_sums(self, capsys, family, K):
        # str of each eps by the binomial sums, the zeros past a finite order
        # included, and the order: the last k with eps_k != 0, or infinite where
        # that is K (K >= 2 here)
        argv = ("epsilons", *TABLE_FAMILIES[family], "--n-max", str(K))
        seq = build_sequence(make_parser().parse_args(argv), K - 1)
        eps = ref.epsilons(seq.values, K)
        r = max(k for k, e in enumerate(eps, 1) if e)
        order = f"infinite within horizon K={K}" if r == K else str(r)
        assert run_cli(capsys, *argv) == (0, "".join(f"{e}\n" for e in eps) + f"order: {order}\n", "")


class TestClassify:
    def test_order2_not_reduced(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--family", "order2", "--v1", "3", "--n-max", "10"
        )
        assert code == 0
        lines = out.splitlines()
        assert "reduced: false" in lines
        assert "special_family: false" in lines

    def test_family_reduced_with_params(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--family", "family", "--v2", "5", "--v1", "4", "--n-max", "10"
        )
        assert code == 0
        lines = out.splitlines()
        assert "reduced: true" in lines
        assert "special_family: true" in lines
        assert "v1: 4" in lines and "v2: 5" in lines

    def test_a_disagreement_of_the_two_routes_exits_1(self, capsys, monkeypatch):
        # the reduced relation and the family shape agree by the paper's theorem;
        # a scan that fails at n = 4 on a family system reaches the cross-check
        argv = ("classify", "--family", "family", "--v2", "5", "--n-max", "10")
        monkeypatch.setattr(PolynomialSystem, "first_reduced_failure", lambda self, n_hi: 4)
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out.splitlines() == ["reduced: false", "special_family: true", "v1: 4", "v2: 5"]
        assert json.loads(err) == {"failed": ["the reduced relation disagrees with is_special_family"]}


    @pytest.mark.parametrize("argv", [
        ("--family", "order2", "--v1", "3", "--n-max", "3"),
        ("--family", "order3", "--v1", "3/2", "--v2", "3", "--n-max", "2"),
    ], ids=["order2", "order3"])
    def test_membership_judged_on_the_prefix_that_is_decomposed(self, capsys, argv):
        # both sequences leave the family shape at v_3, which no decomposition
        # at n <= n_max reads
        code, out, err = run_cli(capsys, "classify", *argv)
        assert (code, err) == (0, "")
        lines = dict(line.split(": ") for line in out.splitlines())
        assert lines["reduced"] == lines["special_family"] == "true"

    def test_membership_converts_no_value(self, capsys, monkeypatch):
        # the family shape is read on the sequence's own integers: only the
        # parameters pass through as_fraction (v1, v2 and b0^2, and b0^2 again
        # for the prefix), whatever n_max
        counts = []
        for n_max in ("10", "40"):
            calls = []
            monkeypatch.setattr(governing, "as_fraction",
                                lambda x, real=governing.as_fraction: calls.append(x) or real(x))
            code, _, _ = run_cli(capsys, "classify", "--family", "family", "--v2", "5",
                                 "--n-max", n_max)
            monkeypatch.undo()
            assert code == 0
            counts.append(len(calls))
        assert counts == [4, 4]

    def test_a_seed_file_longer_than_n_max(self, capsys, tmp_path):
        # Hermite through v_9, then v_10 = 12 (Hermite has 11)
        values = [F(n + 1) for n in range(10)] + [F(12)]
        seed = tmp_path / "seed.json"
        seed.write_text(seed_text(values))
        code, out, err = run_cli(capsys, "classify", "--family", "custom-file",
                                 "--seed-file", str(seed), "--n-max", "9")
        assert (code, err) == (0, "")
        lines = dict(line.split(": ") for line in out.splitlines())
        assert lines["reduced"] == lines["special_family"] == "true"


class TestReadmeExactCommands:
    """Every README line of an exact command prints the bytes recorded here,
    and every README verify line the exact part of its verdict.  The float
    figures (gram, spectrum, and the Gram part of verify's orthonormality
    detail) are left out: their digits depend on the platform's libm and BLAS."""

    DIGESTS = {
        "hcpoly epsilons --family classical --gamma 1 --n-max 6":
            "b710fd84cee421b592ee0bdead7d617b214369e61c119e0ea08440986bab08aa",
        "hcpoly epsilons --family classical --gamma 1/3 --n-max 256":
            "8475f35182a656842a7140c8d031bf7c4cad7a6356a971a38892ba9f1b023264",
        "hcpoly epsilons --family order3 --v1 7/3 --v2 17/3 --n-max 256":
            "7c284aa3012abc9807aed92588fcc1abe6e35f7056562649fe2a835c2a9397b8",
        "hcpoly table --family hermite --n-max 4":
            "22102961c80873a2700365c06a4d1fb8b4658039e7b2521de64d26cdb312ac94",
        "hcpoly table --family order3 --v1 7/3 --v2 17/3 --b0-squared 8/3 --n-max 100":
            "41e1d9c891e59a6ca8618321d0b1b678227b2a8cda3a3b1a176a45fb1ba8f031",
        "hcpoly table --family family --v1 2/3 --v2 5/3 --b0-squared 3/7 --n-max 40 --format json":
            "be804f4ea9e81365dc2ff7d2e293b741bceecad75a9a6b8cd788c40c20d0a6ff",
        "hcpoly ode --family family --v2 5 --b0-squared 1 --n-max 15":
            "04c06af61797ea123750c0ab69b63802a2df6e7bbb341ae92e1d170c92e0d4b5",
        "hcpoly classify --family order2 --v1 3 --n-max 10":
            "34a19e69a35c39b90c7f3db12db87fb11be48dfb021a8b6b7a4c54172e193164",
        "hcpoly classify --family family --v2 5 --n-max 40":
            "0c1f26f51ebc77edf4ec100e15f30137986c454cd9f6ae9926dbdab19c943d01",
        "hcpoly build --family classical --gamma 1 --n-max 8":
            "54bdec29a4a0773872283beb3068193e702089bce75d126919b71cd31f61e094",
        "hcpoly build --family order2 --v1 3 --n-max 8":
            "56abdd1f8a8ec8de59c778c59b78b225bb563f516dbbd2b48991fc9fc485bb2a",
        "hcpoly build --family order3 --v1 7/3 --v2 17/3 --b0-squared 8/3 --n-max 256":
            "020bd41c2df4ade41aefb8e78434a1ad991136f0854bc49b2dd99504c1323cd5",
        "hcpoly build --family family --v1 2/3 --v2 5/3 --b0-squared 3/7 --n-max 64":
            "ed6305cf683e9174af121a628ae422a93a6eabee2a68d41fb38677d97844d9ce",
    }
    README = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
    LINES = [line for line in README if re.match(r"hcpoly (epsilons|table|ode|classify|build) ", line)]

    def test_every_line_is_known(self):
        assert len(self.LINES) == len(set(self.LINES)) == 13
        assert set(self.LINES) == set(self.DIGESTS)

    @pytest.mark.parametrize("line", LINES)
    def test_line_prints_its_bytes(self, capsys, line):
        code, out, _ = run_cli(capsys, *shlex.split(line)[1:])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS[line]

    # each verify line's checks in order: name, status, and the detail of each
    # exact check; on these family systems commutator and spectrum read the
    # exact scan of b^2 against the weight on every n <= max(n-max, dim), and so
    # does orthonormality, whose detail goes on with the float Gram's figure
    EVERY_N = "exact polynomial identity for every n <= {}"
    VERIFY = {
        "hcpoly verify --family classical --gamma 1 --n-max 12": [
            ("validate", "pass", "monotone=True first_violation=None on v_0..v_40"),
            ("lowering", "pass", EVERY_N.format(12)),
            ("route_equivalence", "pass", EVERY_N.format(12)),
            ("commutator", "pass", f"{WEIGHT} for every n <= 40"),
            ("spectrum", "pass", f"{WEIGHT} for every n <= 40"),
            ("ode", "pass", EVERY_N.format(12)),
            ("orthonormality", "pass", f"{WEIGHT} for every n <= 40"),
            ("square_lowering", "pass", "max deviation 0.000e+00, exact on columns 2 <= n < 36"),
        ],
        "hcpoly verify --family family --v1 2/3 --v2 5/3 --b0-squared 3/7 --n-max 512 --dim 80": [
            ("validate", "pass", "monotone=False first_violation=None on v_0..v_512"),
            ("lowering", "pass", EVERY_N.format(512)),
            ("route_equivalence", "pass", EVERY_N.format(512)),
            ("commutator", "pass", f"{WEIGHT} for every n <= 512"),
            ("spectrum", "pass", f"{WEIGHT} for every n <= 512"),
            ("ode", "pass", EVERY_N.format(512)),
            ("orthonormality", "pass", f"{WEIGHT} for every n <= 512"),
            ("square_lowering", "pass", "max deviation 0.000e+00, exact on columns 2 <= n < 76"),
        ],
        "hcpoly verify --family classical --gamma -1/4 --n-max 12": [
            ("validate", "pass", "monotone=True first_violation=None on v_0..v_40"),
            ("lowering", "pass", EVERY_N.format(12)),
            ("route_equivalence", "pass", EVERY_N.format(12)),
            ("commutator", "pass", f"{WEIGHT} for every n <= 40"),
            ("spectrum", "pass", f"{WEIGHT} for every n <= 40"),
            ("ode", "pass", EVERY_N.format(12)),
            ("orthonormality", "pass", f"{WEIGHT} for every n <= 40"),
            ("square_lowering", "pass", "max deviation 0.000e+00, exact on columns 2 <= n < 36"),
        ],
    }
    VERIFY_LINES = [line for line in README if line.startswith("hcpoly verify ")]

    def test_every_verify_line_is_known(self):
        assert sorted(self.VERIFY_LINES) == sorted(self.VERIFY)

    @pytest.mark.parametrize("line", VERIFY_LINES)
    def test_verify_line_prints_its_exact_verdicts(self, capsys, line):
        code, out, err = run_cli(capsys, *shlex.split(line)[1:])
        assert (code, err) == (0, "")
        payload, want = json.loads(out), self.VERIFY[line]
        assert payload["all_passed"] is True
        assert [(c["name"], c["status"], c["passed"]) for c in payload["checks"]] == \
            [(name, status, status == "pass") for name, status, _ in want]
        for check, (_, _, detail) in zip(payload["checks"], want):
            assert check["detail"].partition("; float Gram: ")[0] == detail


class TestTable:
    def test_hermite_b3_squared(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--family", "hermite", "--n-max", "4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,b_squared,gamma_squared,norm_squared,monic_coeffs"
        assert lines[-1].startswith("4,2,")

    def test_classical_gamma1_row3(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--family", "classical", "--gamma", "1", "--n-max", "3")
        assert code == 0
        row3 = out.splitlines()[4]
        assert row3.startswith("3,2,")  # b_2^2 = (3+1)/2 = 2

    def test_json_round_trip(self, capsys):
        code, out_json, _ = run_cli(
            capsys, "table", "--family", "hermite", "--n-max", "4", "--format", "json"
        )
        assert code == 0
        code, out_csv, _ = run_cli(capsys, "table", "--family", "hermite", "--n-max", "4")
        rows = json.loads(out_json)["rows"]
        rebuilt = ["n,b_squared,gamma_squared,norm_squared,monic_coeffs"] + [
            f"{r['n']},{r['b_squared']},{r['gamma_squared']},{r['norm_squared']},"
            + ";".join(r["monic_coeffs"])
            for r in rows
        ]
        assert "\n".join(rebuilt) + "\n" == out_csv

    def test_deterministic_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code = main(
                ["table", "--family", "classical", "--gamma", "2/3", "--n-max", "8",
                 "--output", str(path)]
            )
            assert code == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()


# the five families whose table strings are compared with str(Fraction)
TABLE_FAMILIES = {
    "hermite": ["--family", "hermite"],
    "classical_1_3": ["--family", "classical", "--gamma", "1/3"],
    "family": ["--family", "family", "--v1", "2/3", "--v2", "5/3", "--b0-squared", "3/7"],
    "order2": ["--family", "order2", "--v1", "7/3", "--b0-squared", "8/3"],
    "order3": ["--family", "order3", "--v1", "7/3", "--v2", "17/3", "--b0-squared", "8/3"],
}


class TestTableStrings:
    """Table coefficients print from the integer numerators, as str(Fraction)
    prints them (tests/fraction_reference.py)."""

    def test_hermite_table_bytes(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--family", "hermite", "--n-max", "4")
        assert code == 0
        assert out == (
            "n,b_squared,gamma_squared,norm_squared,monic_coeffs\n"
            "0,0,0,1,1\n"
            "1,1/2,2,1/2,0;1\n"
            "2,1,4,1/2,-1/2;0;1\n"
            "3,3/2,6,3/4,0;-3/2;0;1\n"
            "4,2,8,3/2,3/4;0;-3;0;1\n"
        )

    # each family at n_max 256 (the case named after the family) and at n_max 2
    @pytest.mark.parametrize("name, n_max", [
        *(pytest.param(name, 256, id=name) for name in TABLE_FAMILIES),
        *(pytest.param(name, 2, id=f"{name}-n2") for name in TABLE_FAMILIES),
    ])
    def test_every_coefficient_to_n_256(self, capsys, name, n_max):
        argv = ["table", *TABLE_FAMILIES[name], "--n-max", str(n_max)]
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        # json.dumps's layout at indent 2, and the CSV holds the same rows
        assert out == json.dumps({"rows": rows}, indent=2) + "\n"
        code, out_csv, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out_csv == "n,b_squared,gamma_squared,norm_squared,monic_coeffs\n" + "".join(
            f"{r['n']},{r['b_squared']},{r['gamma_squared']},{r['norm_squared']},"
            + ";".join(r["monic_coeffs"]) + "\n"
            for r in rows
        )
        got = [row["monic_coeffs"] for row in rows]
        system = PolynomialSystem(build_sequence(make_parser().parse_args(argv), n_max))
        assert got == [ref.coeff_strings(core) for core in system.monic]
        if n_max == 2:
            return
        # zero, negative, integer and non-integer coefficients all occur
        flat = [c for row in got for c in row]
        assert "0" in flat and any(c.startswith("-") for c in flat)
        assert any("/" in c for c in flat)
        assert any(c not in ("0", "1") and "/" not in c for c in flat)

    @pytest.mark.parametrize("n", [0, 7])
    def test_a_core_off_its_parity_prints_every_slot(self, capsys, monkeypatch, n):
        # the table formats only P_n's parity slots where the others are zero,
        # as they are on every system the constructor builds; a nonzero slot
        # of the other parity still prints
        init, cores = PolynomialSystem.__init__, []

        def corrupted_init(self, seq):
            init(self, seq)
            self.monic[n] = corrupt_core(self.monic[n], n, "odd")
            cores[:] = self.monic

        monkeypatch.setattr(PolynomialSystem, "__init__", corrupted_init)
        code, out, _ = run_cli(capsys, "table", *TABLE_FAMILIES["family"], "--n-max", "9",
                               "--format", "json")
        assert code == 0
        got = [row["monic_coeffs"] for row in json.loads(out)["rows"]]
        assert got == [ref.coeff_strings(core) for core in cores]

    @pytest.mark.parametrize(
        "p, q", [(0, 1), (0, 9), (5, 1), (-5, 1), (12, 4), (-12, 4), (6, 4), (-6, 4), (1, 3)]
    )
    def test_zero_integer_negative_and_reduced(self, p, q):
        assert _ratio_str(p, q) == ref.fraction_str(p, q)

    @given(st.integers(-(10**40), 10**40), st.integers(1, 10**40))
    def test_any_numerator_over_any_denominator(self, p, q):
        assert _ratio_str(p, q) == ref.fraction_str(p, q)


def off_family_values(N: int) -> list[F]:
    """v_0..v_N off every family, with unequal steps d_n > 0 over several
    denominators, so every bracket is positive."""
    v = [F(1), F(3, 2)]
    for n in range(2, N + 1):
        v.append(v[n - 2] + F(n % 5 + 1, n % 7 + 2))
    return v


class TestTablesFromIntegers:
    """build prints v, b^2 and gamma^2, and table each row's b^2 and gamma^2,
    from the sequence's integers, as str() prints the Fraction routes' tables
    (tests/fraction_reference.py)."""

    @pytest.mark.parametrize("n_max", [2, 3, 64, 256])
    @pytest.mark.parametrize("name", [*TABLE_FAMILIES, "seed-file"])
    def test_build_and_table_strings(self, capsys, tmp_path, name, n_max):
        flags = TABLE_FAMILIES.get(name)
        if flags is None:
            seed = tmp_path / "seed.json"
            seed.write_text(seed_text(off_family_values(256), "5/11"))
            flags = ["--family", "custom-file", "--seed-file", str(seed)]
        flags = [*flags, "--n-max", str(n_max)]
        seq = build_sequence(make_parser().parse_args(["build", *flags]), n_max)
        b2 = ref.b_squares(seq, ref.bracket_table(seq))
        g2 = ref.gamma_squares(seq, b2)
        code, out, _ = run_cli(capsys, "build", *flags)
        assert code == 0
        payload = json.loads(out)
        assert payload["governing_sequence"] == {"values": [str(v) for v in seq.values],
                                                 "b0_squared": str(seq.b0_squared)}
        assert payload["b_squared"] == [str(x) for x in b2]
        assert payload["gamma_squared"] == [str(x) for x in g2]
        code, out, _ = run_cli(capsys, "table", *flags)
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [row[1] for row in rows] == ["0"] + [str(x) for x in b2]
        assert [row[2] for row in rows] == [str(x) for x in g2]

    @pytest.mark.parametrize("values, message", [
        (["1", "3/2", "1/2", "5", "6", "7", "8", "9", "10"], "bracket [2] = -1/2"),
        (["1", "2", "3", "4", "5", "7/2", "8", "3", "10"], "bracket [5] = -5/4"),
    ], ids=["n2", "n5"])
    @pytest.mark.parametrize("command", ["build", "table", "classify"])
    def test_a_nonpositive_bracket_keeps_its_message(self, capsys, tmp_path, values, message,
                                                     command):
        # the first n whose bracket is not positive, in the Fraction route's words
        seed = tmp_path / "seed.json"
        seed.write_text(json.dumps({"values": values, "b0_squared": "1/2"}))
        with pytest.raises(ValueError) as want:
            ref.bracket_table(GoverningSequence(values, F(1, 2)))
        assert str(want.value) == f"{message} is not positive; no orthonormal system"
        code, out, err = run_cli(capsys, command, "--family", "custom-file",
                                 "--seed-file", str(seed), "--n-max", "8")
        assert (code, out, err) == (2, "", f"error: {want.value}\n")

    def test_build_forms_no_fraction_view(self, capsys, monkeypatch):
        # build prints b^2 and gamma^2 from their integer rows, and the sequence's
        # values from its integer table: it forms no Fraction list of b^2, nor nu^2,
        # nor the values' Fraction view
        systems, init = [], PolynomialSystem.__init__

        def recorded(self, seq):
            init(self, seq)
            systems.append(self)

        monkeypatch.setattr(PolynomialSystem, "__init__", recorded)
        code, _, _ = run_cli(capsys, "build", *TABLE_FAMILIES["family"], "--n-max", "64")
        assert code == 0
        (system,) = systems
        assert not fraction_lists_of_b2(system) and "norm2" not in vars(system)
        assert "values" not in vars(system.seq)


FAMILY_ARGS = TABLE_FAMILIES["family"] + ["--n-max", "40"]


class TestLazyOperator:
    """Only epsilons, which prints it, builds the derivation operator; every
    other command reads v alone, classify included."""

    @pytest.mark.parametrize("argv", [
        ["table", "--format", "csv"], ["table", "--format", "json"], ["build"], ["verify"], ["ode"],
        ["classify"], ["gram"], ["spectrum"],
    ])
    def test_table_and_build_never_build_it(self, capsys, monkeypatch, argv):
        # spectrum takes no --n-max
        args = [*argv, *(TABLE_FAMILIES["family"] if argv == ["spectrum"] else FAMILY_ARGS)]
        want = run_cli(capsys, *args)

        def unreachable(op):
            raise RuntimeError("a derivation operator was built")

        monkeypatch.setattr(DerivationOperator, "__post_init__", unreachable)
        assert want[0] == 0
        assert run_cli(capsys, *args) == want
        with pytest.raises(RuntimeError, match="operator was built"):
            run_cli(capsys, "epsilons", *FAMILY_ARGS)

    def test_epsilons_forms_no_value_fraction(self, capsys, monkeypatch):
        # the transform and the forward check read the sequence's integers, and
        # the operator keeps them as its value row
        want = run_cli(capsys, "epsilons", *FAMILY_ARGS)

        def unformed(self):
            raise AssertionError("a value Fraction was formed")

        monkeypatch.setattr(GoverningSequence, "values", property(unformed))
        monkeypatch.setattr(DerivationOperator, "values", property(unformed))
        assert want[0] == 0
        assert run_cli(capsys, "epsilons", *FAMILY_ARGS) == want

    def test_a_bad_epsilon_is_an_input_error_in_epsilons(self, capsys, monkeypatch):
        def off_by_one_at_k(seq, K=None):
            eps = epsilons_from_sequence(seq, K).epsilons
            return DerivationOperator(eps[:-1] + (eps[-1] + 1,), seq.values)

        monkeypatch.setattr(hermite_chihara.cli, "epsilons_from_sequence", off_by_one_at_k)
        code, out, err = run_cli(capsys, "epsilons", *FAMILY_ARGS)
        assert (code, out) == (2, "")
        assert err.startswith("error: epsilons give D x^40 = ")


class TestBuildAndSeedFile:
    def test_round_trip(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "build", "--family", "classical", "--gamma", "1", "--n-max", "6")
        assert code == 0
        payload = json.loads(out)
        assert payload["validation"]["ok"] is True
        assert payload["special_family"] is True
        assert payload["weight"] == {"gamma": "1", "alpha": "1"}

        seed = tmp_path / "seed.json"
        seed.write_text(json.dumps(payload["governing_sequence"]))
        code, table_seeded, _ = run_cli(
            capsys, "table", "--family", "custom-file", "--seed-file", str(seed), "--n-max", "6"
        )
        assert code == 0
        code, table_direct, _ = run_cli(
            capsys, "table", "--family", "classical", "--gamma", "1", "--n-max", "6"
        )
        assert code == 0
        assert table_seeded == table_direct

    # flags, or a seed file's sequence: one incompatible, so that first_violation
    # is printed as [n, 2], and one family-shaped, so that the weight is printed
    BUILDS = {
        "hermite": ("--family", "hermite"),
        "classical": ("--family", "classical", "--gamma", "-1/2", "--alpha", "3"),
        "family": ("--family", "family", "--v1", "2/3", "--v2", "5/3", "--b0-squared", "3/7"),
        "order2": ("--family", "order2", "--v1", "3"),
        "order3": ("--family", "order3", "--v1", "7/3", "--v2", "17/3", "--b0-squared", "8/3"),
        "incompatible seed": ref.seq_order2(3, 256).values,
        "family seed": ref.seq_family(F(2, 3), F(5, 3), F(3, 7), 256).values,
    }

    @pytest.mark.parametrize("n_max", [2, 3, 40, 256])
    @pytest.mark.parametrize("name", BUILDS)
    def test_builds_no_core(self, capsys, monkeypatch, tmp_path, name, n_max):
        # build prints a system's b^2, gamma^2 and weight, tables formed from
        # the sequence alone: the recurrence builds no core past P_1.  Its
        # layout is json.dumps's at indent 2, byte for byte
        flags = self.BUILDS[name]
        if name.endswith("seed"):
            seed = tmp_path / "seed.json"
            seed.write_text(seed_text(flags, "3/7"))
            flags = ("--family", "custom-file", "--seed-file", str(seed))
        argv = ("build", *flags, "--n-max", str(n_max))
        seq = build_sequence(make_parser().parse_args(argv), n_max)
        system, rep = PolynomialSystem(seq), hermite_chihara.validate(seq)
        b2 = ref.b_squares(seq, ref.bracket_table(seq))
        want = {"family": flags[1], "n_max": n_max,
                "governing_sequence": {"values": [str(v) for v in seq.values],
                                       "b0_squared": str(seq.b0_squared)},
                "validation": {"ok": rep.ok, "monotone": rep.monotone,
                               "compatible": rep.compatible,
                               "first_violation": rep.first_violation},
                "b_squared": [str(x) for x in b2],
                "gamma_squared": [str(x) for x in ref.gamma_squares(seq, b2)],
                "special_family": system.is_family}
        if system.is_family:
            g, a = system.weight_parameters()
            want["weight"] = {"gamma": str(g), "alpha": str(a)}
        if name == "incompatible seed" and n_max >= 4:
            assert rep.first_violation == (4, 2)
        if name == "family seed":
            assert want["weight"] == {"gamma": "2", "alpha": "7/2"}

        def no_core(cur, prev, b2):
            raise AssertionError("build built a core")

        monkeypatch.setattr(hermite_chihara.systems, "_next_monic", no_core)
        assert run_cli(capsys, *argv) == (0, json.dumps(want, indent=2) + "\n", "")

    def test_seed_file_parses_rationals(self, tmp_path, capsys):
        seed = tmp_path / "seed.json"
        seed.write_text(json.dumps({"values": ["1", "3/2", "2"], "b0_squared": "1/2"}))
        code, out, _ = run_cli(
            capsys, "build", "--family", "custom-file", "--seed-file", str(seed), "--n-max", "2"
        )
        assert code == 0
        assert json.loads(out)["governing_sequence"]["values"] == ["1", "3/2", "2"]

    def test_a_json_float_in_a_seed_file_is_an_input_error(self, capsys, tmp_path):
        # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10
        seed = tmp_path / "seed.json"
        seed.write_text('{"values": ["1", 0.1, "3"], "b0_squared": "1/2"}')
        code, out, err = run_cli(
            capsys, "build", "--family", "custom-file", "--seed-file", str(seed), "--n-max", "2"
        )
        assert (code, out) == (2, "")
        assert err == "error: seed-file entry 0.1 is not an integer or a 'p/q' string with q > 0\n"

    @pytest.mark.parametrize(
        "text", ['{"b0_squared": "1/2"}', '["1", "2", "3"]'], ids=["no-values", "array"]
    )
    def test_a_malformed_seed_file_is_an_input_error(self, capsys, tmp_path, text):
        seed = tmp_path / "seed.json"
        seed.write_text(text)
        code, out, err = run_cli(
            capsys, "build", "--family", "custom-file", "--seed-file", str(seed), "--n-max", "2"
        )
        assert (code, out) == (2, "")
        assert err == 'error: a seed file holds one JSON object {"values": [...], "b0_squared": ...}\n'

    def test_seed_file_longer_than_n_max(self, capsys, tmp_path):
        # build and table read v_0..v_{n-max} whatever the file stores
        seed = tmp_path / "seed.json"
        seed.write_text(seed_text(F(n + 1) for n in range(21)))
        custom = ("--family", "custom-file", "--seed-file", str(seed), "--n-max", "6")
        code, table_seeded, _ = run_cli(capsys, "table", *custom)
        assert code == 0
        assert table_seeded == run_cli(capsys, "table", "--family", "hermite", "--n-max", "6")[1]
        code, out, _ = run_cli(capsys, "build", *custom)
        assert code == 0
        payload = json.loads(out)
        assert payload["governing_sequence"]["values"] == [str(n + 1) for n in range(7)]
        assert payload["n_max"] == 6
        assert (len(payload["b_squared"]), len(payload["gamma_squared"])) == (6, 7)

    @pytest.mark.parametrize("argv", [
        ("build", "--n-max", "9"),
        ("table", "--n-max", "9"),
        ("verify", "--n-max", "9", "--dim", "9"),
        ("gram", "--n-max", "9"),
        ("ode", "--n-max", "9"),
        ("classify", "--n-max", "9"),
        ("epsilons", "--n-max", "9"),
        ("spectrum", "--dim", "9"),
    ], ids=lambda argv: argv[0])
    def test_every_command_reads_only_the_prefix(self, capsys, tmp_path, argv):
        # Hermite through v_9, then a v_10 that none of these commands reads: 12
        # (Hermite has 11), or one no sequence may hold, which is neither converted
        # nor judged.  Each prints the bytes of --family hermite
        want = run_cli(capsys, *argv, "--family", "hermite")[1]
        seed = tmp_path / "seed.json"
        for late in ("12", "-5", "0", "x"):
            seed.write_text(json.dumps({"values": [str(n + 1) for n in range(10)] + [late],
                                        "b0_squared": "1/2"}))
            code, out, err = run_cli(capsys, *argv, "--family", "custom-file",
                                     "--seed-file", str(seed))
            assert (code, err) == (0, "")
            assert out.replace('"family": "custom-file"', '"family": "hermite"') == want

    def test_epsilons_reads_one_value_less_than_n_max(self, capsys, tmp_path):
        # eps_1..eps_6 read v_0..v_5, the six values this file stores
        seed = tmp_path / "seed.json"
        seed.write_text(seed_text(F(n + 1) for n in range(6)))
        argv = ("epsilons", "--n-max", "6")
        code, out, err = run_cli(capsys, *argv, "--family", "custom-file", "--seed-file", str(seed))
        assert (code, err) == (0, "")
        assert out == run_cli(capsys, *argv, "--family", "hermite")[1]
        # table at the same --n-max reads v_6, which the file does not store
        assert run_cli(capsys, "table", "--n-max", "6", "--family", "custom-file", "--seed-file",
                       str(seed)) == (2, "", "error: seed file stores 6 values; need at least 7\n")

    @pytest.mark.parametrize(
        "flags, b0_squared",
        [
            (("--family", "hermite"), "1/2"),
            (("--family", "family", "--v2", "5"), "1"),
            (("--family", "order2", "--v1", "3"), "1/2"),
            (("--family", "order3", "--v1", "7/3", "--v2", "17/3"), "1/2"),
        ],
        ids=["hermite", "family", "order2", "order3"],
    )
    def test_default_b0_squared(self, capsys, flags, b0_squared):
        # without --b0-squared each family takes its constructor's default
        code, out, _ = run_cli(capsys, "build", *flags, "--n-max", "6")
        assert code == 0
        payload = json.loads(out)
        assert payload["governing_sequence"]["b0_squared"] == b0_squared
        assert payload["b_squared"][0] == b0_squared  # b_0^2 = b0^2 [1]


class TestVerify:
    @pytest.mark.parametrize("checks", [
        [("validate", "pass", 'monotone=True on "v" \\ v_0..v_40, \u03b3 = \u22121/4')],
        [("validate", "pass", "a\tb\n"), ("ode", "fail", "\u00e9 \"\\\""),
         ("square_lowering", "skipped", "skipped: no column")],
    ], ids=["passed", "failed"])
    def test_the_report_is_json_dumps_at_indent_2(self, checks):
        # the report is laid out by hand, each string through json.dumps: a quote,
        # a backslash, a control and a non-ASCII character print escaped as
        # json.dumps(payload, indent=2) prints them
        payload = {"family": "classical", "n_max": 12, "dim": 40,
                   "checks": [{"name": name, "status": status, "passed": status == "pass",
                               "detail": detail} for name, status, detail in checks],
                   "all_passed": all(status == "pass" for _, status, _ in checks)}
        assert cli._verify_text("classical", 12, 40, checks) == json.dumps(payload, indent=2) + "\n"

    def test_classical_all_pass(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--family", "classical", "--gamma", "1", "--n-max", "12"
        )
        assert code == 0
        payload = json.loads(out)
        names = {c["name"] for c in payload["checks"]}
        assert {"validate", "lowering", "route_equivalence", "commutator", "spectrum",
                "ode", "orthonormality", "square_lowering"} <= names
        assert payload["all_passed"] is True

    def test_non_family_runs_partial_suite(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--family", "order2", "--v1", "3", "--n-max", "8", "--dim", "12"
        )
        # the order-2 sequence is not compatible: lowering fails, exit 1
        assert code == 1
        payload = json.loads(out)
        assert payload["all_passed"] is False

    @pytest.mark.parametrize("argv, code, detail", [
        (("--family", "family", "--v2", "5"), 0, f"{WEIGHT} for every n <= 12"),
        (("--family", "order2", "--v1", "3"), 1, f"{DEFORMATION} fails first at n = 3"),
        (("--family", "order3", "--v1", "7/3", "--v2", "17/3"), 1,
         f"{DEFORMATION} fails first at n = 3"),
        (("--family", "custom-file", "--seed-file", "r2.json"), 0,
         f"{DEFORMATION} for every n <= 10"),
    ], ids=["family", "order2", "order3", "compatible-r2"])
    def test_no_system_builds_a_band(self, capsys, monkeypatch, tmp_path, argv, code, detail):
        # commutator and spectrum read one exact scan of b^2 on every n it covers,
        # and no float: against the weight on the family (n <= max(n_max, dim)),
        # else the deformed oscillator relation (n <= max(n_max, dim) - 2, which
        # reads every b^2); here a compatible sequence of ratio r = 2 passes it
        from hermite_chihara import oscillator

        for name in ("build_operators", "commutator_report", "spectrum_report"):
            monkeypatch.setattr(oscillator, name,
                                lambda *a, name=name, **k: pytest.fail(f"{name} was called"))
        monkeypatch.chdir(tmp_path)
        (tmp_path / "r2.json").write_text(
            seed_text(propagated_compatible_sequence(2, 3, 6, 12).values))
        got, out, _ = run_cli(capsys, "verify", *argv, "--n-max", "8", "--dim", "12")
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert got == code
        for name in ("commutator", "spectrum"):
            assert (checks[name]["passed"], checks[name]["detail"]) == (code == 0, detail)

    def test_a_weight_off_b2_fails_commutator_and_spectrum_at_n_1(self, capsys, monkeypatch):
        # alpha times 1 + 1e-6 in the weight's integers: the scan fails at n = 1,
        # and so does orthonormality, which reads it; the ODE and square lowering
        # fail too, reading the same pair.  The Gram reads the weight's Fractions
        init = PolynomialSystem.__init__

        def off_alpha(self, seq):
            init(self, seq)
            gamma, alpha = self.weight_parameters()
            self._weight_nums = common_denominator((gamma, alpha * (1 + F(1, 10**6))))

        monkeypatch.setattr(PolynomialSystem, "__init__", off_alpha)
        code, out, err = run_cli(capsys, "verify", "--family", "classical", "--gamma", "1/3",
                                 "--n-max", "8", "--dim", "12")
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert code == 1
        for name in ("commutator", "spectrum"):
            assert (checks[name]["status"], checks[name]["detail"]) == (
                "fail", f"{WEIGHT} fails first at n = 1")
        assert checks["orthonormality"]["detail"].startswith(
            f"{WEIGHT} fails first at n = 1; float Gram: max deviation ")
        assert json.loads(err)["failed"] == ["commutator", "spectrum", "ode", "orthonormality",
                                             "square_lowering"]

    def test_a_b2_off_past_the_gram_fails_orthonormality_at_its_n(self, capsys, monkeypatch):
        # b_19^2 one unit off in b2_row's numerators: the weight scan fails at
        # n = 20, past the float Gram's psi_0..psi_12, whose part of the detail
        # is the unperturbed system's; orthonormality fails with both parts named
        argv = ("verify", "--family", "classical", "--gamma", "1/3", "--n-max", "12", "--dim", "24")

        def orthonormality(out):
            return {c["name"]: c for c in json.loads(out)["checks"]}["orthonormality"]

        code, out, _ = run_cli(capsys, *argv)
        exact, gram = orthonormality(out)["detail"].split("; ")
        assert (code, exact) == (0, f"{WEIGHT} for every n <= 24")
        assert gram.startswith("float Gram: max deviation ") and gram.endswith("bound 1e-8")
        init = PolynomialSystem.__init__

        def off_at_20(self, seq):
            init(self, seq)
            B, M = self.b2_row
            self.b2_row = ([b + (i == 19) for i, b in enumerate(B)], M)

        monkeypatch.setattr(PolynomialSystem, "__init__", off_at_20)
        code, out, err = run_cli(capsys, *argv)
        check = orthonormality(out)
        assert (code, check["status"]) == (1, "fail")
        assert check["detail"] == f"{WEIGHT} fails first at n = 20; {gram}"
        assert json.loads(err)["failed"] == ["commutator", "spectrum", "orthonormality"]

    def test_incompatible_seed_fails(self, capsys, tmp_path):
        values = [F(n + 1) for n in range(13)]
        values[6] += 1  # breaks the compatibility identity
        seed = tmp_path / "bad.json"
        seed.write_text(seed_text(values))
        code, out, err = run_cli(
            capsys, "verify", "--family", "custom-file", "--seed-file", str(seed),
            "--n-max", "8", "--dim", "12",
        )
        assert code == 1
        assert json.loads(err.splitlines()[-1])["failed"]


class TestGram:
    def test_matrix_output(self, capsys):
        code, out, _ = run_cli(capsys, "gram", "--family", "hermite", "--n-max", "8")
        assert code == 0
        rows = out.splitlines()
        assert len(rows) == 9
        assert all(len(r.split(",")) == 9 for r in rows)
        assert max(abs(float(v)) for r in rows for v in r.split(",")) < 1e-8

    def test_n_max_is_read_past_12(self, capsys):
        code, out, err = run_cli(capsys, "gram", "--family", "family", "--v2", "5", "--n-max", "20")
        assert (code, err) == (0, "")
        assert [len(r.split(",")) for r in out.splitlines()] == [21] * 21

    def test_verify_reports_the_largest_entry_up_to_12(self, capsys):
        # verify's orthonormality check reads the Gram that gram prints at n_max 12
        argv = ("--family", "classical", "--gamma", "1/3")
        _, out, _ = run_cli(capsys, "gram", *argv, "--n-max", "12")
        largest = max(abs(float(v)) for r in out.splitlines() for v in r.split(","))
        _, out, _ = run_cli(capsys, "verify", *argv, "--n-max", "16")
        check = {c["name"]: c for c in json.loads(out)["checks"]}["orthonormality"]
        assert check["detail"] == (f"{WEIGHT} for every n <= 40; float Gram: "
                                   f"max deviation {largest:.3e} for i, j <= 12, bound 1e-8")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("b0_squared", ["1/1000000", "1/1000000000000"])
    @pytest.mark.parametrize("command", ["gram", "verify"])
    def test_a_narrow_weight_passes(self, capsys, command, b0_squared):
        # the weight's width is about b0, so the Gram integrates on that scale
        code, _, err = run_cli(capsys, command, "--family", "hermite",
                               "--b0-squared", b0_squared, "--n-max", "12")
        assert (code, err) == (0, "")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("factor", [1.5, math.nan], ids=["scaled", "nan"])
    @pytest.mark.parametrize("command", ["gram", "verify"])
    def test_a_deviation_past_the_bound_fails(self, capsys, monkeypatch, command, factor):
        # psi_2 scaled by 1.5 on the quadrature's nodes: <psi_2, psi_2> = 2.25;
        # a NaN deviation fails too
        table = PolynomialSystem.psi_eval_table

        def scaled(self, x, n_hi, row0=1.0):
            out = table(self, x, n_hi, row0)
            out[:, 2] *= factor
            return out

        monkeypatch.setattr(PolynomialSystem, "psi_eval_table", scaled)
        code, out, err = run_cli(capsys, command, "--family", "hermite", "--n-max", "4")
        failed = json.loads(err.splitlines()[-1])["failed"]
        # a NaN deviation leaves a NaN quadrature error too, which the detail names
        detail = ("max deviation nan for i, j <= 4, bound 1e-8; quadrature error nan exceeds its "
                  "tolerance 1e-11; the Gram matrix is not converged" if math.isnan(factor) else
                  "max deviation 1.250e+00 for i, j <= 4, bound 1e-8")
        assert code == 1
        if command == "gram":
            assert failed == [detail]
            assert out.splitlines()[2].split(",")[2] == ("nan" if math.isnan(factor) else
                                                         "1.2499999999999973")
            return
        check = {c["name"]: c for c in json.loads(out)["checks"]}["orthonormality"]
        assert (check["status"], failed) == ("fail", ["orthonormality"])
        assert check["detail"] == f"{WEIGHT} for every n <= 40; float Gram: {detail}"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("gamma, n_max", [("200", "8"), ("212", "50"), ("215", "20")])
    def test_a_large_gamma_passes(self, capsys, gamma, n_max):
        # at gamma = 200 the weight's mass sits near |x| = sqrt((gamma + 1)/2), past
        # the radius max(10, 3 sqrt(n) + 5) at n = 8; the radius reads gamma, and
        # the Gram is within the bound (a radius of 13.5 gave 9.7e-6, converged).
        # At gamma = 212, n = 50 and gamma = 215, n = 20 |x|^gamma would pass
        # 2^1020 inside the radius, but the weight root is formed in logs
        code, out, err = run_cli(capsys, "gram", "--family", "classical", "--gamma", gamma,
                                 "--n-max", n_max)
        assert (code, err) == (0, "")
        assert max(abs(float(v)) for r in out.splitlines() for v in r.split(",")) < 1e-8

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["gram", "verify"])
    def test_next_to_the_pole_of_gamma_passes(self, capsys, command):
        # at gamma = -99/100 the mass variable takes the nodes next to u = 0 to
        # x = |u|^100 = 0, the weight's pole, where the weight times dx/du is
        # bounded: the Gram converges within the bound
        code, out, err = run_cli(capsys, command, "--family", "classical", "--gamma", "-99/100",
                                 "--n-max", "12")
        assert (code, err) == (0, "")
        if command == "gram":
            assert max(abs(float(v)) for r in out.splitlines() for v in r.split(",")) < 1e-8

    def test_a_non_family_system_is_an_input_error(self, capsys):
        code, out, err = run_cli(capsys, "gram", "--family", "order2", "--v1", "3")
        assert (code, out) == (2, "")
        assert err == "error: orthonormality verification requires a special-family system\n"


class TestCheckStatus:
    def test_skipped_checks_say_so(self, capsys):
        # order2 is not compatible: validate fails, lowering and
        # route_equivalence do not run, and the exit code still counts them;
        # commutator and spectrum run their exact scan, which fails
        code, out, err = run_cli(
            capsys, "verify", "--family", "order2", "--v1", "3", "--n-max", "8", "--dim", "12"
        )
        assert code == 1
        checks = json.loads(out)["checks"]
        assert [(c["name"], c["status"], c["passed"]) for c in checks] == [
            ("validate", "fail", False),
            ("lowering", "skipped", False),
            ("route_equivalence", "skipped", False),
            ("commutator", "fail", False),
            ("spectrum", "fail", False),
        ]
        assert json.loads(err.splitlines()[-1])["failed"] == [
            "validate", "lowering", "route_equivalence", "commutator", "spectrum"
        ]

    def test_ode_is_an_exact_identity_to_n_max(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--family", "family", "--v2", "5", "--n-max", "20", "--dim", "24"
        )
        assert code == 0
        checks = json.loads(out)["checks"]
        assert {c["status"] for c in checks} == {"pass"}
        ode = {c["name"]: c for c in checks}["ode"]
        assert ode["detail"] == "exact polynomial identity for every n <= 20"

    @pytest.mark.parametrize("command", ["verify", "ode"])
    def test_nonzero_ode_bracket_fails_verify(self, capsys, monkeypatch, command):
        bracket = PolynomialSystem.ode_bracket

        def off_from_3(self, n):
            p = bracket(self, n)
            return Poly([p(0) + F(1, 10**30), *p.coeffs[1:]]) if n >= 3 else p

        monkeypatch.setattr(PolynomialSystem, "ode_bracket", off_from_3)
        extra = ("--dim", "12") if command == "verify" else ()
        code, out, err = run_cli(
            capsys, command, "--family", "classical", "--gamma", "1", "--n-max", "6", *extra
        )
        assert code == 1
        detail = "exact polynomial identity fails first at n = 3"
        failed = json.loads(err.splitlines()[-1])["failed"]
        if command == "ode":
            payload = json.loads(out)
            assert (payload["first_failure"], payload["passed"]) == (3, False)
            assert failed == [detail]
            return
        ode = {c["name"]: c for c in json.loads(out)["checks"]}["ode"]
        assert (ode["status"], ode["passed"], ode["detail"]) == ("fail", False, detail)
        assert failed == ["ode"]

    def test_lowering_names_the_first_failing_n(self, capsys, monkeypatch):
        argv = ("verify", "--family", "classical", "--gamma", "1", "--n-max", "20", "--dim", "24")

        def lowering(out):
            return {c["name"]: c for c in json.loads(out)["checks"]}["lowering"]

        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and lowering(out)["detail"] == "exact polynomial identity for every n <= 20"
        init = PolynomialSystem.__init__

        def scaled_at_17(self, seq):
            init(self, seq)
            self.monic[17] = corrupt_core(self.monic[17], 17, "scaled")

        monkeypatch.setattr(PolynomialSystem, "__init__", scaled_at_17)
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        low = lowering(out)
        assert (low["status"], low["detail"]) == (
            "fail", "exact polynomial identity fails first at n = 17")
        assert "lowering" in json.loads(err.splitlines()[-1])["failed"]

    def test_square_lowering_fails_on_any_residual(self, capsys, monkeypatch):
        # the report is exact, 0.0 when every column holds: a core off by a
        # relative 1e-15 leaves a residual of ~2e-11 psi units, and fails
        init = PolynomialSystem.__init__

        def perturbed_init(self, seq):
            init(self, seq)
            self.monic[20] = Poly([c * (1 + F(1, 10**15)) for c in self.monic[20].coeffs])

        monkeypatch.setattr(PolynomialSystem, "__init__", perturbed_init)
        # n_max = 12 keeps core 20 out of every other check
        code, out, err = run_cli(
            capsys, "verify", "--family", "family", "--v1", "2/3", "--v2", "5/3",
            "--b0-squared", "3/7", "--n-max", "12", "--dim", "40",
        )
        assert code == 1
        square = {c["name"]: c for c in json.loads(out)["checks"]}["square_lowering"]
        assert (square["status"], square["passed"]) == ("fail", False)
        assert 0.0 < float(square["detail"].split()[2].rstrip(",")) < 1e-10
        assert json.loads(err.splitlines()[-1])["failed"] == ["square_lowering"]


class TestRouteEquivalence:
    """verify's route check fails on a defect of one recurrence core, or of the
    explicit formula alone."""

    ARGV = ("verify", "--family", "family", "--v1", "2/3", "--v2", "5/3",
            "--b0-squared", "3/7", "--n-max", "12", "--dim", "16")

    def route(self, capsys):
        """The route check's detail and the failed check names."""
        code, out, err = run_cli(capsys, *self.ARGV)
        assert code == 1
        route = {c["name"]: c for c in json.loads(out)["checks"]}["route_equivalence"]
        assert (route["status"], route["passed"]) == ("fail", False)
        return route["detail"], json.loads(err.splitlines()[-1])["failed"]

    def test_the_passing_detail(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGV)
        route = {c["name"]: c for c in json.loads(out)["checks"]}["route_equivalence"]
        assert (code, route["detail"]) == (0, "exact polynomial identity for every n <= 12")

    @pytest.mark.parametrize("kind", ["even", "odd", "degree"])
    def test_a_corrupt_core_fails(self, capsys, monkeypatch, kind):
        init = PolynomialSystem.__init__

        def corrupted(self, seq):
            init(self, seq)
            self.monic[6] = corrupt_core(self.monic[6], 6, kind)

        monkeypatch.setattr(PolynomialSystem, "__init__", corrupted)
        detail, failed = self.route(capsys)
        assert detail == "exact polynomial identity fails first at n = 6"
        # orthonormality reads b^2 and the weight, no core: its verdict stays a pass
        assert failed == ["lowering", "route_equivalence", "ode", "square_lowering"]

    def test_b0_squared_changed_in_the_explicit_formula_only(self, capsys, monkeypatch):
        # the scan runs on a shallow copy: the recurrence cores are the system's,
        # and only the formula's ratios read the perturbed b0^2
        scan = PolynomialSystem.first_route_mismatch

        def off_b0(self, n_hi):
            shadow = copy.copy(self)
            shadow.seq = GoverningSequence(self.seq.values, self.seq.b0_squared * (1 + F(1, 10**9)))
            return scan(shadow, n_hi)

        monkeypatch.setattr(PolynomialSystem, "first_route_mismatch", off_b0)
        assert self.route(capsys)[1] == ["route_equivalence"]


class TestUnconvergedQuadrature:
    """A Gram quadrature that stops short of its tolerance fails the
    orthonormality check, whatever the deviation it reached."""

    @pytest.fixture
    def short_quadrature(self, monkeypatch):
        from hermite_chihara import measure

        integrate = measure.integrate_split_at_zero

        def stops_short(f, radius, tol):
            vals, _ = integrate(f, radius, tol=tol)
            return vals, 1.0  # as if MAX_PANELS ran out with this error left

        monkeypatch.setattr(measure, "integrate_split_at_zero", stops_short)

    def test_verify_check_fails(self, capsys, short_quadrature):
        code, out, err = run_cli(
            capsys, "verify", "--family", "classical", "--gamma", "1", "--n-max", "6", "--dim", "12"
        )
        assert code == 1
        check = {c["name"]: c for c in json.loads(out)["checks"]}["orthonormality"]
        assert check["passed"] is False
        assert "not converged" in check["detail"]
        assert json.loads(err.splitlines()[-1])["failed"] == ["orthonormality"]

    def test_orthonormality_matrix_fails(self, capsys, short_quadrature):
        code, out, err = run_cli(capsys, "gram", "--family", "hermite", "--n-max", "4")
        assert code == 1
        assert len(out.splitlines()) == 5  # the matrix is still printed
        (reason,) = json.loads(err.splitlines()[-1])["failed"]
        assert "not converged" in reason


class TestSpectrumCommand:
    def test_csv_shape(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--family", "hermite", "--dim", "20")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,lambda_matrix,lambda_formula,deviation"
        assert len(lines) == 1 + 16  # dim - margin rows
        n, lam_m, lam_f, dev = lines[1].split(",")
        assert n == "0"
        assert float(lam_m) == pytest.approx(1.0, abs=1e-12)
        assert float(lam_f) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("argv, rows", [
        (("--family", "order2", "--v1", "3", "--dim", "20"), 16),
        (("--family", "order2", "--v1", "3", "--b0-squared", "1000000000000", "--dim", "20"), 16),
        (("--family", "order3", "--v1", "7/3", "--v2", "17/3", "--dim", "400"), 396),
    ])
    def test_a_passing_band_prints_a_figure_within_its_bound(self, capsys, argv, rows):
        # spectrum reads the band on any system.  Its rows' figure is in the unit of
        # the per-row bound, so a pass reads at most 8 whatever the levels' size (at
        # b0^2 = 1e12 a row deviates by up to 1.0).  The exit code also reads verify's
        # spectrum verdict, the exact scan of b^2 with N = dim, which fails off the
        # compatible class
        code, out, err = run_cli(capsys, "spectrum", *argv)
        lines = out.splitlines()[1:]
        figure = max(float(dev) / float(lam) for _, lam, _, dev in
                     (line.split(",") for line in lines)) / 2.0**-52
        assert (code, len(lines)) == (1, rows) and 0.0 <= figure <= 8.0
        assert json.loads(err) == {"failed": [f"{DEFORMATION} fails first at n = 3"]}

    @pytest.mark.parametrize("argv, detail", [
        (("--family", "hermite"), f"{WEIGHT} for every n <= 20"),
        (("--family", "custom-file", "--seed-file", "r2.json"), f"{DEFORMATION} for every n <= 18"),
        (("--family", "order2", "--v1", "3"), f"{DEFORMATION} fails first at n = 3"),
    ], ids=["family", "compatible-r2", "order2"])
    def test_the_exit_code_reads_verify_s_spectrum_verdict(self, capsys, monkeypatch, tmp_path,
                                                           argv, detail):
        # spectrum and verify's spectrum check agree: the same exact scan, with
        # N = dim, on the family and off it
        monkeypatch.chdir(tmp_path)
        (tmp_path / "r2.json").write_text(
            seed_text(propagated_compatible_sequence(2, 3, 6, 20).values))
        code, _, err = run_cli(capsys, "spectrum", *argv, "--dim", "20")
        _, out, _ = run_cli(capsys, "verify", *argv, "--n-max", "8", "--dim", "20")
        check = {c["name"]: c for c in json.loads(out)["checks"]}["spectrum"]
        assert check["detail"] == detail
        assert (code, err) == ((0, "") if check["passed"] else (1, json.dumps(
            {"failed": [detail]}) + "\n"))

    def test_a_failed_band_reports_its_figure_and_bound(self, capsys, monkeypatch, tmp_path):
        # a row past its rounding bound fails the command, and its failure report
        # names the rows, the largest row deviation and the bound
        from hermite_chihara import oscillator

        # the verdict reads max_ratio <= ROUNDING_BOUND; the rows of a compatible
        # sequence of ratio r = 2, which passes the exact scan, read 2 eps at dim
        # 20, so a bound of 1 fails the band
        monkeypatch.setattr(oscillator, "ROUNDING_BOUND", 1.0)
        seed = tmp_path / "r2.json"
        seed.write_text(seed_text(propagated_compatible_sequence(2, 3, 6, 20).values))
        code, out, err = run_cli(capsys, "spectrum", "--family", "custom-file", "--seed-file",
                                 str(seed), "--dim", "20")
        # the figure is the largest row deviation in units of eps lambda_n
        largest = max(float(dev) / float(lam) for _, lam, _, dev in
                      (line.split(",") for line in out.splitlines()[1:])) / 2.0**-52
        detail = (f"max deviation {largest:.3g} eps |lambda_n| on rows n < 16, "
                  "bound 1 eps |lambda_n| per row")
        assert (code, json.loads(err)) == (1, {"failed": [detail]})


class TestOdeCommand:
    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "ode", "--family", "classical", "--gamma", "1", "--n-max", "10")
        assert code == 0
        assert json.loads(out) == {"family": "classical", "gamma": "1", "alpha": "1",
                                   "n_max": 10, "first_failure": None, "passed": True}

    def test_non_family_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "ode", "--family", "order2", "--v1", "3", "--n-max", "6")
        assert code == 2
        assert "family" in err


class TestExitCodes:
    def test_missing_parameter(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--family", "classical", "--n-max", "6")
        assert code == 2
        assert "gamma" in err

    def test_malformed_rational(self, capsys):
        code, _, _ = run_cli(capsys, "epsilons", "--family", "classical", "--gamma", "one")
        assert code == 2

    def test_unknown_family(self, capsys):
        code, _, _ = run_cli(capsys, "build", "--family", "laguerre")
        assert code == 2

    def test_n_max_too_small(self, capsys):
        code, _, _ = run_cli(capsys, "table", "--family", "hermite", "--n-max", "1")
        assert code == 2

    def test_bad_order2_parameters(self, capsys):
        code, _, err = run_cli(capsys, "build", "--family", "order2", "--v1", "3/2", "--n-max", "12")
        assert code == 2
        assert "nondecreasing" in err


_E400 = str(10**400)
_NEXT_TO_THE_POLE = f"{1 - 10**20}/{10**20}"  # gamma = -1 + 10^-20
_LIMIT = 640  # a low int-string limit, set for the test's duration


class TestExactValuesOfAnyLength:
    """The exact commands read no float, so they run at a b0^2 outside the
    float range, and they print exact values of any length, whatever the
    interpreter's int-string limit; main restores that limit when it returns.
    The family is Hermite unless a case names another."""

    @pytest.mark.parametrize("argv", [
        *(pytest.param((cmd, "--b0-squared", b0), id=f"{cmd}-{name}")
          for cmd in ("build", "table", "classify", "ode", "epsilons")
          for name, b0 in (("1e400", _E400), ("1e-400", "1/" + _E400))),
        pytest.param(("table", "--family", "order3", "--v1", "7/3", "--v2", "17/3",
                      "--b0-squared", "8/3", "--n-max", "385"), id="table-order3-385"),
        pytest.param(("table", "--b0-squared", "1/" + _E400, "--n-max", "11"),
                     id="table-1e-400-11"),
        pytest.param(("build", "--b0-squared", "1" * 5000 + "/7", "--n-max", "2"),
                     id="build-long-flag"),
    ])
    def test_exits_0_and_restores_the_limit(self, capsys, tmp_path, argv):
        has_limit = hasattr(sys, "set_int_max_str_digits")  # 3.10.7 and later
        if has_limit:
            before = sys.get_int_max_str_digits()
            sys.set_int_max_str_digits(_LIMIT)
        try:
            code, out, err = run_cli(capsys, *argv, "--output", str(tmp_path / "out"))
            if has_limit:
                assert sys.get_int_max_str_digits() == _LIMIT
        finally:
            if has_limit:
                sys.set_int_max_str_digits(before)
        assert (code, out, err) == (0, "", "")
        assert (tmp_path / "out").stat().st_size > 0


class TestFloatRange:
    """A float check on a valid system whose b^2 or alpha has no float in
    systems.FLOAT_RANGE, or whose gamma has no float, cannot run, so it fails:
    exit 1 with the JSON failure report, which names the float range, and
    nothing on stdout.  verify still runs its exact checks and prints its
    check list."""

    GAMMA_1E400 = ("--family", "classical", "--gamma", "1e400", "--alpha", "1e300")

    @pytest.mark.parametrize("argv", [
        pytest.param(("spectrum", "--family", "classical", "--gamma", "1", "--alpha",
                      "1/" + _E400), id="spectrum-alpha-1e-400"),
        pytest.param(("gram", "--b0-squared", _E400), id="gram-1e400"),
        pytest.param(("gram", "--b0-squared", "1/" + _E400), id="gram-1e-400"),
        # gamma = -1 + 10^-20, whose float is -1: (gamma + 1)/2 has no float
        pytest.param(("gram", "--family", "classical", "--gamma", _NEXT_TO_THE_POLE),
                     id="gram-gamma-pole"),
        pytest.param(("spectrum", *GAMMA_1E400), id="spectrum-gamma-1e400"),
        pytest.param(("gram", *GAMMA_1E400), id="gram-gamma-1e400"),
        # the weight root at psi_1000's turning point radius, e^{-1000}, is not a
        # normal float (Hermite from n = 538)
        pytest.param(("gram", "--n-max", "1000"), id="gram-weight-n-1000"),
    ])
    def test_exits_1_with_a_report_naming_the_float_range(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        (failed,) = json.loads(err)["failed"]
        assert re.fullmatch(r"(b\^2|alpha|gamma|Gamma\(\(gamma\+1\)/2\)|psi value|weight value) "
                            r"outside the float range \[2\^-1022, 2\^1020\]", failed)

    @pytest.mark.parametrize("b0", [_E400, "1/" + _E400], ids=["verify-1e400", "verify-1e-400"])
    def test_verify_prints_its_check_list(self, capsys, b0):
        # the exact checks run and pass: on this family system commutator and
        # spectrum by the scan of b^2 against the weight, square lowering on the
        # cores; orthonormality passes that scan, and fails by the Gram, which
        # names the first value it reads and the range
        code, out, err = run_cli(capsys, "verify", "--b0-squared", b0)
        report = json.loads(out)
        assert code == 1 and report["all_passed"] is False
        assert [c["name"] for c in report["checks"]] == [
            "validate", "lowering", "route_equivalence", "commutator", "spectrum", "ode",
            "orthonormality", "square_lowering"]
        for c in report["checks"]:
            if c["name"] == "orthonormality":
                assert (c["status"], c["passed"]) == ("fail", False)
                assert c["detail"] == f"{WEIGHT} for every n <= 40; float Gram: " + \
                    _NO_FLOAT.format("alpha")
            else:
                assert (c["status"], c["passed"]) == ("pass", True)
        checks = {c["name"]: c for c in report["checks"]}
        assert checks["commutator"]["detail"] == checks["spectrum"]["detail"] == (
            f"{WEIGHT} for every n <= 40")
        assert checks["square_lowering"]["detail"] == (
            "max deviation 0.000e+00, exact on columns 2 <= n < 36")
        assert json.loads(err) == {"failed": ["orthonormality"]}

    @pytest.mark.parametrize("b0", [_E400, "1/" + _E400], ids=["verify-1e400", "verify-1e-400"])
    def test_verify_passes_the_oscillator_checks_off_the_family(self, capsys, tmp_path, b0):
        # off the family commutator and spectrum read the exact scan of the
        # deformed oscillator relation, which reads no float of b^2: on a
        # compatible sequence of ratio r = 2 every check passes at any b0^2, and
        # order2 fails the scan as at b0^2 = 1/2
        seed = tmp_path / "r2.json"
        seed.write_text(seed_text(propagated_compatible_sequence(2, 3, 6, 12).values, b0))
        code, out, err = run_cli(capsys, "verify", "--family", "custom-file", "--seed-file",
                                 str(seed), "--n-max", "8", "--dim", "12")
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert (code, err) == (0, "") and all(c["passed"] for c in checks.values())
        for name in ("commutator", "spectrum"):
            assert checks[name]["detail"] == f"{DEFORMATION} for every n <= 10"
        code, out, err = run_cli(capsys, "verify", "--family", "order2", "--v1", "3",
                                 "--b0-squared", b0, "--n-max", "8", "--dim", "12")
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert code == 1
        for name in ("commutator", "spectrum"):
            assert (checks[name]["status"], checks[name]["detail"]) == (
                "fail", f"{DEFORMATION} fails first at n = 3")
        assert json.loads(err) == {"failed": ["validate", "lowering", "route_equivalence",
                                              "commutator", "spectrum"]}

    def test_square_lowering_residual_without_a_float(self, capsys, monkeypatch):
        # a core off by 1e-9 at b0^2 = 10^-400: the exact check fails, and its
        # figure in psi units (x^k scales as b0^-k) has no float, which the
        # check's detail names; verify still prints its check list
        init = PolynomialSystem.__init__

        def scaled_at_20(self, seq):
            init(self, seq)
            self.monic[20] = corrupt_core(self.monic[20], 20, "scaled")

        monkeypatch.setattr(PolynomialSystem, "__init__", scaled_at_20)
        code, out, err = run_cli(capsys, "verify", "--family", "family", "--v1", "2/3", "--v2",
                                 "5/3", "--b0-squared", "1/" + _E400, "--n-max", "12")
        square = {c["name"]: c for c in json.loads(out)["checks"]}["square_lowering"]
        assert code == 1 and (square["status"], square["detail"]) == (
            "fail", "psi-scaled value outside the float range [2^-1022, 2^1020]")
        assert json.loads(err) == {"failed": ["orthonormality", "square_lowering"]}

    def test_verify_fails_only_the_gram_where_gamma_has_no_float(self, capsys):
        # (gamma + 1)/2 has no float at gamma = -1 + 10^-20, whose float is -1; the
        # exact checks pass, and so does orthonormality's exact part
        code, out, err = run_cli(capsys, "verify", "--family", "classical", "--gamma",
                                 _NEXT_TO_THE_POLE, "--n-max", "8")
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert code == 1 and json.loads(err) == {"failed": ["orthonormality"]}
        assert checks["orthonormality"]["detail"] == (
            f"{WEIGHT} for every n <= 40; float Gram: "
            "Gamma((gamma+1)/2) outside the float range [2^-1022, 2^1020]")
        assert all(c["passed"] for name, c in checks.items() if name != "orthonormality")

    def test_verify_fails_the_float_checks_where_gamma_has_no_float(self, capsys):
        # every b^2 has a float; the weight's gamma has none, and the one float
        # check that reads it, the Gram, fails, naming it; the exact checks pass,
        # commutator, spectrum and orthonormality's exact part among them (the
        # scan reads gamma exactly)
        code, out, err = run_cli(capsys, "verify", *self.GAMMA_1E400, "--n-max", "8")
        floats = ["orthonormality"]
        checks = json.loads(out)["checks"]
        assert code == 1 and json.loads(err) == {"failed": floats}
        for c in checks:
            if c["name"] in floats:
                assert (c["status"], c["detail"]) == (
                    "fail", f"{WEIGHT} for every n <= 40; float Gram: " + _NO_FLOAT.format("gamma"))
            else:
                assert c["status"] == "pass", c
        assert len(checks) == 8


_INCOMPATIBLE = "skipped: sequence not compatible"
_NO_FLOAT = "{} outside the float range [2^-1022, 2^1020]"


class TestCheckLog:
    """verify writes one INFO line "check <name>: <status> (<detail>)" per
    check, in the order of its check list; a failing check's status reads
    FAIL.  A detail given as None is a measured figure, read from the list."""

    @pytest.mark.parametrize("argv,expected,after", [
        (("--family", "order2", "--v1", "3", "--n-max", "8", "--dim", "12"),
         [("validate", "FAIL", "monotone=True first_violation=(4, 2) on v_0..v_12"),
          ("lowering", "skipped", _INCOMPATIBLE), ("route_equivalence", "skipped", _INCOMPATIBLE),
          ("commutator", "FAIL", f"{DEFORMATION} fails first at n = 3"),
          ("spectrum", "FAIL", f"{DEFORMATION} fails first at n = 3")],
         ["non-family system: ode/orthonormality/square-lowering not applicable"]),
        (("--n-max", "2", "--dim", "5"),
         [("validate", "pass", "monotone=True first_violation=None on v_0..v_5"),
          ("lowering", "pass", "exact polynomial identity for every n <= 2"),
          ("route_equivalence", "pass", "exact polynomial identity for every n <= 2"),
          ("commutator", "pass", None), ("spectrum", "pass", None),
          ("ode", "pass", "exact polynomial identity for every n <= 2"),
          ("orthonormality", "pass", None),
          ("square_lowering", "skipped",
           "skipped: no column 2 <= n < 1; --dim 7 reads the first")], []),
        (("--b0-squared", _E400),
         [("validate", "pass", "monotone=True first_violation=None on v_0..v_40"),
          ("lowering", "pass", "exact polynomial identity for every n <= 12"),
          ("route_equivalence", "pass", "exact polynomial identity for every n <= 12"),
          ("commutator", "pass", f"{WEIGHT} for every n <= 40"),
          ("spectrum", "pass", f"{WEIGHT} for every n <= 40"),
          ("ode", "pass", "exact polynomial identity for every n <= 12"),
          ("orthonormality", "FAIL",
           f"{WEIGHT} for every n <= 40; float Gram: " + _NO_FLOAT.format("alpha")),
          ("square_lowering", "pass", "max deviation 0.000e+00, exact on columns 2 <= n < 36")],
         []),
    ], ids=["order2-incompatible", "no-square-lowering-column", "b0-squared-1e400"])
    def test_one_line_per_check(self, capsys, caplog, argv, expected, after):
        caplog.set_level(logging.INFO, logger="hermite_chihara.cli")
        code, out, _ = run_cli(capsys, "verify", *argv)
        assert code == 1
        checks = json.loads(out)["checks"]
        assert [c["name"] for c in checks] == [name for name, _, _ in expected]
        want = [f"check {name}: {status} ({c['detail'] if detail is None else detail})"
                for (name, status, detail), c in zip(expected, checks)]
        lines = [r.getMessage() for r in caplog.records if r.name == "hermite_chihara.cli"]
        assert lines == want + after


def bench_workload():
    """bench/workload.py, the module that defines the benchmark's jobs."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workload.py"
    spec = importlib.util.spec_from_file_location("bench_workload", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


class TestNoPackagePathFormsB2:
    """The package reads b^2 from the integer row b2_row: no hcpoly subcommand
    and no kind of benchmark job forms a Fraction list of b^2 on any system it
    builds or reads."""

    @pytest.fixture
    def systems(self, monkeypatch):
        """Every PolynomialSystem built from here on."""
        built, init = [], PolynomialSystem.__init__

        def recorded(self, seq):
            init(self, seq)
            built.append(self)

        monkeypatch.setattr(PolynomialSystem, "__init__", recorded)
        return built

    @pytest.mark.parametrize("argv", [
        "build --family classical --gamma 1/3 --n-max 30",
        "table --family family --v1 2/3 --v2 5/3 --b0-squared 3/7 --n-max 30",
        "verify --family classical --gamma 1/3 --n-max 12 --dim 30",
        "gram --family hermite --n-max 8",
        "ode --family family --v2 5 --n-max 15",
        "spectrum --family classical --gamma 2 --dim 40",
        "classify --family order3 --v1 7/3 --v2 17/3 --n-max 20",
        "epsilons --family classical --gamma 1/3 --n-max 30",
    ], ids=lambda argv: argv.split()[0])
    def test_no_subcommand_forms_b2(self, systems, capsys, argv):
        code, _, _ = run_cli(capsys, *argv.split())
        assert code == 0 and len(systems) == (0 if argv.startswith("epsilons") else 1)
        assert not [s for s in systems if fraction_lists_of_b2(s)]

    KINDS = ["verify", "classify", "table", "build", "epsilons",
             "gram", "ode", "square_lowering", "operators"]

    def test_every_job_kind_is_listed(self):
        wl = bench_workload()
        assert {job.kind for w in wl.WORKLOADS for job in wl.job_list(w, 1, 1)} == set(self.KINDS)

    @pytest.mark.parametrize("kind", KINDS)
    def test_no_bench_job_kind_forms_b2(self, systems, kind):
        # the smallest job of the kind at seed 1, run as the benchmark runs it,
        # on its workload's pool of systems (built in set-up) where it has one
        wl = bench_workload()
        workload, job = min(((w, job) for w in wl.WORKLOADS for job in wl.job_list(w, 1, 1)
                             if job.kind == kind), key=lambda pair: pair[1].size)
        pool = wl.build_pool(hermite_chihara, workload)
        result = wl.run_job(hermite_chihara, job, pool)
        assert getattr(result, "code", 0) == 0 and bool(systems) == (kind != "epsilons")
        assert not [s for s in systems if fraction_lists_of_b2(s)]


# the family flags each family reads, the flags each one needs, how its
# "requires" message names them, and one value for every family flag
FAMILY_READS = {
    "hermite": {"--b0-squared"},
    "classical": {"--gamma", "--alpha"},
    "family": {"--v1", "--v2", "--b0-squared"},
    "order2": {"--v1", "--b0-squared"},
    "order3": {"--v1", "--v2", "--b0-squared"},
    "custom-file": {"--seed-file"},
}
FAMILY_NEEDS = {
    "hermite": (),
    "classical": ("--gamma", "1"),
    "family": ("--v2", "5"),
    "order2": ("--v1", "3"),
    "order3": ("--v1", "2", "--v2", "3"),
    "custom-file": ("--seed-file", "seed.json"),
}
FAMILY_REQUIRES = {"classical": "--gamma", "family": "--v2", "order2": "--v1",
                   "order3": "--v1 and --v2", "custom-file": "--seed-file"}
FLAG_VALUE = {"--gamma": "1", "--alpha": "2", "--v1": "3", "--v2": "5", "--b0-squared": "5",
              "--seed-file": "seed.json"}


class TestFamilyFlags:
    """A family accepts only the family flags it reads."""

    @pytest.mark.parametrize("family,flag", [
        (family, flag) for family, reads in FAMILY_READS.items() for flag in FLAG_VALUE
        if flag not in reads
    ])
    def test_unread_flag_is_an_input_error(self, capsys, family, flag):
        code, out, err = run_cli(
            capsys, "build", "--family", family, *FAMILY_NEEDS[family], flag, FLAG_VALUE[flag]
        )
        assert code == 2 and out == ""
        assert f"--family {family} does not read {flag}" in err

    @pytest.mark.parametrize("family", FAMILY_FLAGS)
    def test_a_missing_required_flag_is_an_input_error(self, capsys, family):
        # with none of the flags the family needs, and order3 with one of its two
        needs = FAMILY_NEEDS[family]
        for given in ((), *(needs[i : i + 2] for i in range(0, len(needs), 2) if len(needs) > 2)):
            code, out, err = run_cli(capsys, "build", "--family", family, *given)
            if family == "hermite":
                assert (code, err) == (0, "")
                continue
            assert (code, out) == (2, "")
            assert err == f"error: --family {family} requires {FAMILY_REQUIRES[family]}\n"

    @pytest.mark.parametrize("alpha", ["0", "-2"])
    def test_non_positive_alpha_is_an_input_error(self, capsys, alpha):
        code, out, err = run_cli(
            capsys, "build", "--family", "classical", "--gamma", "1", f"--alpha={alpha}"
        )
        assert code == 2 and out == ""
        assert err == f"error: --alpha must be positive, got {alpha}\n"

    def test_classical_alpha_forms_one_sequence(self, capsys, monkeypatch):
        # seq_classical sets b0^2 = (gamma + 1)/(2 alpha) itself: no second sequence
        made = []
        post_init = GoverningSequence.__post_init__
        monkeypatch.setattr(GoverningSequence, "__post_init__",
                            lambda seq: made.append(seq) or post_init(seq))
        code, out, _ = run_cli(capsys, "build", "--family", "classical", "--gamma", "1",
                               "--alpha", "2", "--n-max", "8")
        payload = json.loads(out)
        assert (code, len(made)) == (0, 1)
        assert payload["governing_sequence"]["b0_squared"] == "1/2"
        assert payload["weight"] == {"gamma": "1", "alpha": "2"}

    @pytest.mark.parametrize("alpha", ["-2", "-2/3"])
    def test_a_negative_value_after_a_space_is_a_value(self, capsys, alpha):
        code, out, err = run_cli(
            capsys, "build", "--family", "classical", "--gamma", "1", "--alpha", alpha
        )
        assert code == 2 and out == ""
        assert err == f"error: --alpha must be positive, got {alpha}\n"

    def test_a_negative_ratio_parses_as_with_an_equals_sign(self, capsys):
        # every negative form that Fraction reads: p/q, decimals and exponents;
        # gamma <= -1 is refused by the family, in the same bytes either way
        argv = ("table", "--family", "classical", "--n-max", "3")
        for gamma in ("-1/2", "-1e-1", "-5E-1", "-1.", "-1.5", "-.5", "-2"):
            spaced = run_cli(capsys, *argv, "--gamma", gamma)
            assert "expected one argument" not in spaced[2]
            if F(gamma) > -1:
                assert spaced[0] == 0 and spaced[2] == ""
            assert spaced == run_cli(capsys, *argv, f"--gamma={gamma}")

    def test_every_flag_set_of_the_benchmark_is_accepted(self):
        wl = bench_workload()
        jobs = [job for w in wl.WORKLOADS for seed in (1, 2, 3) for job in wl.job_list(w, seed, 1)]
        jobs = [job for job in [*jobs, *wl.WARMUP.values()] if job.family is not None]
        assert {job.family.name for job in jobs} == set(FAMILY_READS) - {"custom-file"}
        for job in jobs:
            build_sequence(make_parser().parse_args(job.argv()), max(job.size, 3))


def child_env(**overrides):
    """The parent's environment, with the imported package first on PYTHONPATH.

    The child then runs the same ``hermite_chihara`` that this test imported,
    whether it came from ``PYTHONPATH=src``, an editable install, or another
    working directory, and never a stale installed copy.
    """
    package_root = str(Path(hermite_chihara.__file__).resolve().parent.parent)
    search_path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return {**os.environ, **overrides, "PYTHONPATH": search_path}


class TestBlasThreads:
    def test_gram_bytes_do_not_depend_on_the_blas_thread_count(self):
        # the Gram is one BLAS product per panel; each must round alike on one
        # thread and on two (the quadrature's factor layout decides the kernel:
        # psi_eval_table's table must stay row-major, which this test pins)
        argv = [sys.executable, "-m", "hermite_chihara.cli", "gram", "--family", "classical",
                "--gamma", "-1/2", "--n-max", "100"]
        outs = [subprocess.run(argv, env=child_env(OPENBLAS_NUM_THREADS=threads),
                               capture_output=True, text=True, timeout=120, check=True).stdout
                for threads in ("1", "2")]
        assert outs[0] == outs[1] and outs[0].count("\n") == 101


class TestFlagScope:
    """A subcommand accepts only the flags it reads."""

    COMMANDS = tuple(next(action for action in make_parser()._actions
                          if isinstance(action, argparse._SubParsersAction)).choices)
    SCOPED = {"--format": {"table"}, "--dim": {"verify", "spectrum"},
              "--n-max": set(COMMANDS) - {"spectrum"}, "-K": set(), "--orthonormality": set()}

    @pytest.mark.parametrize("argv", [
        ("build", "--format", "json"),
        ("classify", "-K", "5"),
        ("table", "--dim", "5"),
        ("epsilons", "-K", "5"),
        ("spectrum", "--n-max", "8"),
        ("verify", "--orthonormality"),
        ("gram", "--dim", "5"),
    ])
    def test_ignored_flag_is_a_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in err

    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_lists_scoped_flags_only_where_read(self, capsys, command):
        code, out, _ = run_cli(capsys, command, "--help")
        assert code == 0
        listed = set(re.findall(rf"(?<![\w-])({'|'.join(self.SCOPED)})\b", out))
        assert listed == {flag for flag, owners in self.SCOPED.items() if command in owners}

    def test_every_command_has_a_readme_example(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        examples = {line.split()[1] for line in readme.read_text().splitlines()
                    if line.startswith("hcpoly ")}
        assert set(self.COMMANDS) <= examples

    # how a check's detail names its range: the n it covered, or the first failing
    # n, the Gram's entries, square lowering's columns, or the sequence prefix
    # that validate judged
    RANGES = ("n <=", "fails first at n =", "i, j <=", "columns", "v_0..v_")

    def test_every_readme_line_exits_0_in_process(self, capsys):
        # each README line that starts with "hcpoly ", in order in this process
        # (the parser is shared), exits 0 with a RuntimeWarning raised as an error
        readme = Path(__file__).resolve().parents[1] / "README.md"
        lines = [line for line in readme.read_text().splitlines() if line.startswith("hcpoly ")]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for line in lines:
                code, out, err = run_cli(capsys, *shlex.split(line)[1:])
                assert (code, err) == (0, ""), line
                assert out, line
                # each check verify runs names the range it covered in its detail
                for c in json.loads(out)["checks"] if line.startswith("hcpoly verify ") else ():
                    assert any(r in c["detail"] for r in self.RANGES), (line, c)


# the edge settings of the weight family: b0^2, alpha and gamma with no float,
# a weight 1e-80 wide, and gamma near -1 and far above 1
EDGE_SETTINGS = {
    "b0-squared-1e400": ("--b0-squared", _E400),
    "b0-squared-1e-400": ("--b0-squared", "1/" + _E400),
    "alpha-1e-400": ("--family", "classical", "--gamma", "1", "--alpha", "1/" + _E400),
    "alpha-1e160": ("--family", "classical", "--gamma", "3", "--alpha", "1e160"),
    "family-b0-squared-1e-160": ("--family", "family", "--v2", "3/2", "--b0-squared", "1e-160"),
    "gamma-99/100": ("--family", "classical", "--gamma", "-99/100"),
    "gamma-400": ("--family", "classical", "--gamma", "400"),
    "gamma-1000": ("--family", "classical", "--gamma", "1000"),
    "gamma-1e400": TestFloatRange.GAMMA_1E400,
}


class TestEdgeMatrix:
    """Every subcommand at every edge setting exits 0, exits 1 with the JSON
    failure report as the last line of stderr, or exits 2 with an error
    message; none ends in a traceback, and none raises a RuntimeWarning
    (PYTHONWARNINGS=error::RuntimeWarning)."""

    @pytest.mark.parametrize("command", TestFlagScope.COMMANDS)
    @pytest.mark.parametrize("setting", list(EDGE_SETTINGS.values()), ids=list(EDGE_SETTINGS))
    def test_exits_0_1_or_2_without_a_traceback(self, command, setting):
        proc = subprocess.run([sys.executable, "-m", "hermite_chihara.cli", command, *setting],
                              capture_output=True, text=True, timeout=120,
                              env=child_env(PYTHONWARNINGS="error::RuntimeWarning"))
        assert "Traceback" not in proc.stderr, proc.stderr
        last = proc.stderr.rstrip("\n").rpartition("\n")[2]
        if proc.returncode == 1:
            assert json.loads(last)["failed"], proc.stderr
        else:
            assert proc.returncode in (0, 2), proc.stderr
            assert proc.returncode == 0 or last.startswith("error: "), proc.stderr

    @pytest.mark.parametrize("setting", [
        ("--family", "hermite", "--n-max", "400"),
        ("--family", "classical", "--gamma", "200", "--n-max", "100"),
        ("--family", "classical", "--gamma", "400", "--n-max", "8"),
        ("--family", "classical", "--gamma", "1000", "--n-max", "60"),
    ], ids=["hermite-n-400", "gamma-200-n-100", "gamma-400-n-8", "gamma-1000-n-60"])
    def test_the_gram_exits_0_past_the_old_float_range(self, setting):
        # psi_400 overflowed at the old radius, the weight's |x|^200 inside it, and
        # Gamma((gamma+1)/2) at gamma = 400 and 1000; the weighted functions are
        # bounded, and every Gram is below 1e-13
        proc = subprocess.run([sys.executable, "-m", "hermite_chihara.cli", "gram", *setting],
                              capture_output=True, text=True, timeout=120,
                              env=child_env(PYTHONWARNINGS="error::RuntimeWarning"))
        assert (proc.returncode, proc.stderr) == (0, "")
        assert max(abs(float(v)) for r in proc.stdout.splitlines() for v in r.split(",")) < 1e-13

    def test_the_gram_fails_fast_past_the_weighted_range(self):
        # at Hermite n = 1000 the weight root at the radius is not a normal float: the
        # Gram raises before its first table, where it took 27 tables and 2.6 s to
        # 4e-10 at n = 700, and held 4 GB of panels at n = 1000
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "hermite_chihara.cli", "gram", "--family",
                               "hermite", "--n-max", "1000"], capture_output=True, text=True,
                              timeout=120, env=child_env(PYTHONWARNINGS="error::RuntimeWarning"))
        assert time.perf_counter() - start < 2.0
        assert (proc.returncode, proc.stdout) == (1, "")
        assert json.loads(proc.stderr) == {"failed": [_NO_FLOAT.format("weight value")]}


class TestSubprocessEntry:
    def test_module_entry_and_logging(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hermite_chihara.cli", "verify", "--family", "hermite",
             "--n-max", "6", "--dim", "12"],
            capture_output=True, text=True, env=child_env(HC_LOG="info"),
        )
        assert proc.returncode == 0, proc.stderr
        assert '"all_passed": true' in proc.stdout, proc.stderr
        assert "check lowering: pass" in proc.stderr  # HC_LOG=info emits check logs

    @pytest.mark.parametrize("value", ["basic_format", "no_such_level"])
    def test_a_log_value_that_names_no_level_keeps_the_error_level(self, value):
        # logging.BASIC_FORMAT is a module attribute, but a format string and no level
        argv = [sys.executable, "-m", "hermite_chihara.cli", "classify", "--n-max", "6"]
        unset = child_env()
        unset.pop("HC_LOG", None)
        base, proc = [subprocess.run(argv, capture_output=True, env=env)
                      for env in (unset, child_env(HC_LOG=value))]
        assert (base.returncode, proc.returncode) == (0, 0), proc.stderr
        assert proc.stdout == base.stdout and proc.stderr == b""

    def test_classify_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hermite_chihara.cli", "classify", "--family", "hermite",
             "--n-max", "6"],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert "reduced: true" in proc.stdout, proc.stderr

    def test_console_script_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hermite_chihara.cli", "--help"], capture_output=True, text=True,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert "epsilons" in proc.stdout, proc.stderr


class TestNumpyAtTheFloatBoundary:
    """numpy loads where a command first evaluates a float, never at import:
    the exact commands, a usage error and verify off the family (whose checks
    are all exact) run without it, and verify on a family system loads it for
    the Gram.  In a fresh interpreter, as this test run has already imported
    numpy."""

    EXACT = [  # (argv, exit code)
        (["build"], 0),
        (["table", "--format", "csv"], 0),
        (["table", "--format", "json"], 0),
        (["epsilons"], 0),
        (["classify"], 0),
        (["ode"], 0),
        (["verify", "--n-max", "x"], 2),
    ]
    SCRIPT = """
import contextlib, io, json, sys
import hermite_chihara
from hermite_chihara.cli import main
print(json.dumps(["import", None, "numpy" in sys.modules]))
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    print(json.dumps([argv[0], code, "numpy" in sys.modules]))
"""

    def test_exact_commands_load_no_numpy(self, tmp_path):
        seed = tmp_path / "r2.json"
        seed.write_text(seed_text(propagated_compatible_sequence(2, 3, 6, 12).values))
        exact = self.EXACT + [
            (["verify", "--family", "order2", "--v1", "3", "--n-max", "8", "--dim", "12"], 1),
            (["verify", "--family", "custom-file", "--seed-file", str(seed), "--n-max", "8",
              "--dim", "12"], 0),
        ]
        argvs = [argv for argv, _ in exact] + [["verify", "--n-max", "8", "--dim", "12"]]
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT, json.dumps(argvs)],
                              capture_output=True, text=True, timeout=120, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert [json.loads(line) for line in proc.stdout.splitlines()] == [
            ["import", None, False],
            *([argv[0], code, False] for argv, code in exact),
            ["verify", 0, True],
        ]


class TestPackageSurface:
    """The package re-exports its five modules' __all__: each public name is
    listed once, in its own module, and the package holds no other name but
    its submodules and __version__."""

    MODULES = ("governing", "derivation", "systems", "oscillator", "measure")

    def test_the_namespace_is_the_union_of_the_modules_all(self):
        lists = [sys.modules[f"hermite_chihara.{m}"].__all__ for m in self.MODULES]
        names = [name for names in lists for name in names]
        assert len(names) == len(set(names))
        public = {k: v for k, v in vars(hermite_chihara).items() if not k.startswith("_")}
        submodules = {k for k, v in public.items() if v is sys.modules.get(f"hermite_chihara.{k}")}
        assert set(public) - submodules == set(names)
        assert set(self.MODULES) <= submodules
        for m, names in zip(self.MODULES, lists):
            assert all(public[k] is getattr(sys.modules[f"hermite_chihara.{m}"], k) for k in names)
        assert hermite_chihara.__version__ == "0.1.0"


class TestParserReuse:
    """main builds its parser on the first call and reuses it; each command of
    a run in one process gives the stdout, stderr and exit code of a fresh
    process."""

    RUNS = {
        "table_json_then_csv": [("table", "--format", "json"), ("table",)],
        "gram_then_checks": [("gram",), ("verify",)],
        "usage_error_then_valid": [("verify", "--n-max", "x"), ("classify", "--n-max", "6")],
        "help_then_valid": [("--help",), ("verify", "--help"), ("build", "--n-max", "4")],
    }

    @pytest.mark.parametrize("run", list(RUNS.values()), ids=list(RUNS))
    def test_each_command_as_in_a_fresh_process(self, capsys, monkeypatch, run):
        monkeypatch.setenv("COLUMNS", "80")  # help and usage wrap at one width in both
        monkeypatch.delenv("HC_LOG", raising=False)
        for argv in run:
            proc = subprocess.run([sys.executable, "-m", "hermite_chihara.cli", *argv],
                                  capture_output=True, text=True, env=child_env())
            assert run_cli(capsys, *argv) == (proc.returncode, proc.stdout, proc.stderr), argv

    def test_built_on_the_first_call_not_at_import(self):
        script = ("import hermite_chihara.cli as cli; print(cli.make_parser.cache_info().currsize); "
                  "cli.main(['build']); print(cli.make_parser() is cli.make_parser())")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[0] == "0" and proc.stdout.splitlines()[-1] == "True"
