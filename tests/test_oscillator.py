import json
import math
from fractions import Fraction as F

import numpy as np
import pytest

from hermite_chihara import (
    CommutatorReport,
    OperatorSet,
    PolynomialSystem,
    SpectrumReport,
    UnsupportedSystemError,
    build_operators,
    commutator_report,
    seq_classical,
    seq_family,
    seq_hermite,
    seq_order2,
    spectrum_report,
    square_lowering_report,
)
from hermite_chihara.cli import main
from hermite_chihara.oscillator import MARGIN, ROUNDING_BOUND

from conftest import corrupt_core, propagated_compatible_sequence
from fraction_reference import v_of

DIM = 40
SQRT2 = math.sqrt(2.0)


@pytest.fixture(scope="module")
def hermite_ops():
    sys = PolynomialSystem(seq_hermite(64))
    return sys, build_operators(sys, DIM)


@pytest.fixture(scope="module")
def classical2_ops():
    sys = PolynomialSystem(seq_classical(2, 64))
    return sys, build_operators(sys, DIM)


# -- a dense reference ---------------------------------------------------------


def dense_operators(sys, dim):
    """X, a-, a+ and the real matrix of -iP as dense dim x dim matrices, each
    built from its definition on the basis: a- psi_n = sqrt2 b_{n-1} psi_{n-1},
    X psi_n = b_{n-1} psi_{n-1} + b_n psi_{n+1}, a+ = sqrt2 X - a-, and
    -iP = sqrt2 a- - X."""
    X = np.zeros((dim, dim))
    a_minus = np.zeros((dim, dim))
    for n in range(1, dim):
        X[n - 1, n] = X[n, n - 1] = sys.b_float[n - 1]
        a_minus[n - 1, n] = SQRT2 * sys.b_float[n - 1]
    return X, a_minus, SQRT2 * X - a_minus, SQRT2 * a_minus - X


def dense_b(sys, dim):
    """B(N) = diag(b_{n-1}^2) and B(N+I) = diag(b_n^2), b_{-1} = 0."""
    b2 = [0.0] + [float(x) for x in sys.b2[:dim]]
    return np.diag(b2[:dim]), np.diag(b2[1:])


def dense_reports(sys, dim):
    """The commutator and spectrum reports by dense matrix products on the
    interior block, a family system's commutator also against Wigner's
    (I + gamma R)/alpha, R = diag((-1)^n) the parity; a row is within rounding
    when its deviation is at most ROUNDING_BOUND eps times H's diagonal, and its
    ratio is its deviation over eps times that diagonal."""
    _, a_minus, a_plus, _ = dense_operators(sys, dim)
    B, B_shift = dense_b(sys, dim)
    k = dim - MARGIN

    def interior_max(mat):
        return float(np.max(np.abs(mat[:k, :k])))

    comm = a_minus @ a_plus - a_plus @ a_minus
    H = a_minus @ a_plus + a_plus @ a_minus
    lam = np.diag(H)[:k]
    lam_formula = 2.0 * np.diag(B)[:k] + 2.0 * np.diag(B_shift)[:k]
    comm_classical = spec_classical = None
    if sys.is_family:
        gamma, alpha = sys.weight_parameters()
        parity = np.diag((-1.0) ** np.arange(dim))
        comm_classical = interior_max(comm - (np.eye(dim) + float(gamma) * parity) / float(alpha))
        lam_cl = np.array([(2.0 * n + float(gamma) + 1.0) / float(alpha) for n in range(k)])
        spec_classical = float(np.max(np.abs(lam - lam_cl)))

    def within_rounding(rows):
        return bool(np.all(np.abs(rows) <= ROUNDING_BOUND * np.finfo(float).eps * lam))

    def max_ratio(rows):
        return max(abs(r) / v for r, v in zip(rows.tolist(), lam.tolist())) / np.finfo(float).eps

    comm_rows = np.diag(comm - 2.0 * (B_shift - B))[:k]
    commutator = CommutatorReport(
        interior_max(comm - 2.0 * (B_shift - B)), comm_classical,
        within_rounding(comm_rows), max_ratio(comm_rows),
    )
    spectrum = SpectrumReport(
        rows=[(n, float(lam[n]), float(lam_formula[n]), float(abs(lam[n] - lam_formula[n])))
              for n in range(k)],
        max_deviation=float(np.max(np.abs(lam - lam_formula))),
        off_diagonal=interior_max(H - np.diag(np.diag(H))),
        classical_deviation=spec_classical,
        within_rounding=within_rounding(lam - lam_formula),
        max_ratio=max_ratio(lam - lam_formula),
    )
    return commutator, spectrum


class TestDenseReference:
    """The band reports equal the dense matrix products they replace."""

    @pytest.fixture(scope="class")
    def systems(self):
        return {
            "classical gamma=1": PolynomialSystem(seq_classical(1, 400)),
            "family (2/3, 5/3, 3/7)": PolynomialSystem(seq_family(F(2, 3), F(5, 3), F(3, 7), 130)),
            "order2 v1=3": PolynomialSystem(seq_order2(3, 64)),
        }

    @pytest.mark.parametrize(
        "name, dim",
        [("classical gamma=1", 400), ("classical gamma=1", 40),
         ("family (2/3, 5/3, 3/7)", 130), ("order2 v1=3", 40)],
    )
    def test_band_equals_dense(self, systems, name, dim):
        sys = systems[name]
        ops = build_operators(sys, dim)
        commutator, spectrum = dense_reports(sys, dim)
        assert commutator_report(ops, sys) == commutator
        assert spectrum_report(ops, sys) == spectrum


# -- structure -------------------------------------------------------------------


class TestStructure:
    def test_annihilator_entries(self, classical2_ops):
        # the band is b_0..b_{dim-2}; a- carries sqrt2 b_{n-1} into psi_{n-1}
        sys, ops = classical2_ops
        assert ops.b.shape == (DIM - 1,)
        assert list(ops.b) == sys.b_float[: DIM - 1]

    def test_b_diagonal_starts_at_zero(self, classical2_ops):
        # B(N) = diag(b_{n-1}^2) with b_{-1} = 0: the level formula of row 0
        # has only b_0^2 in it
        sys, ops = classical2_ops
        rows = spectrum_report(ops, sys).rows
        assert rows[0][2] == 2.0 * float(sys.b2[0])
        assert rows[1][2] == 2.0 * float(sys.b2[0]) + 2.0 * float(sys.b2[1])

    def test_f_diagonal(self, classical2_ops):
        # the band entry sqrt2 b_{n-1} of a- is gamma_n f_n, with f_1 = sqrt2 b0^2
        # and f_n = sqrt2 b0^2 (v_n - v_{n-2}) / v_1
        sys, ops = classical2_ops
        v, b0sq = v_of(sys.seq), float(sys.seq.b0_squared)
        assert ops.b[0] / math.sqrt(float(sys.g2[1])) == pytest.approx(b0sq, rel=1e-15)
        for n in range(2, DIM):
            f = SQRT2 * b0sq * float((v(n) - v(n - 2)) / v(1))
            gamma_n = math.sqrt(float(sys.g2[n]))
            assert SQRT2 * ops.b[n - 1] == pytest.approx(gamma_n * f, rel=1e-14)

    def test_a_minus_factors_through_f(self):
        # a- = (gamma-lowering) f(N): gamma_n^2 f_n^2 = 2 b_{n-1}^2, exactly, with
        # f_n = sqrt2 b0^2 (v_n - v_{n-2}) / v_1 and v_{-1} = 0
        for seq in (seq_classical(2, 64), seq_hermite(64),
                    seq_family(F(2, 3), F(5, 3), F(3, 7), 64), seq_order2(3, 64)):
            sys = PolynomialSystem(seq)
            v, b0sq = v_of(seq), seq.b0_squared
            for n in range(1, 65):
                f_squared = 2 * b0sq**2 * (v(n) - v(n - 2)) ** 2 / v(1) ** 2
                assert sys.g2[n] * f_squared == 2 * sys.b2[n - 1], (seq, n)

    def test_theta_classical_pattern(self):
        # Theta = 2 B(N) - N is 0 on even n and gamma = 2 on odd n
        sys = PolynomialSystem(seq_classical(2, 64))
        for n in range(0, 65):
            theta = 2 * (sys.b2[n - 1] if n >= 1 else 0) - n
            assert theta == (2 if n % 2 == 1 else 0), n

    def test_delta_family_pattern(self):
        # Delta = 2 B(N) / c1 - N is 0 on even n and gamma~ on odd n
        sys = PolynomialSystem(seq_family(4, 5, F(1), 64))
        gamma_tilde = sys.weight_parameters()[0]
        c1 = sys.seq.b0_squared * (sys.seq.values[2] - 1)
        for n in range(0, 65):
            delta = 2 * (sys.b2[n - 1] if n >= 1 else 0) / c1 - n
            assert delta == (gamma_tilde if n % 2 == 1 else 0), n

    def test_dim_guards(self):
        sys = PolynomialSystem(seq_hermite(10))
        with pytest.raises(ValueError):
            build_operators(sys, 2)
        with pytest.raises(ValueError):
            build_operators(sys, 20)


class TestMarginGuard:
    """An operator set needs dim > MARGIN, one interior row n < dim - MARGIN;
    the CLI needs --dim >= MARGIN + 1.  Square lowering reads the columns
    2 <= n < dim - MARGIN, so below dim MARGIN + 3 it raises, and verify skips
    it, and fails."""

    @pytest.mark.parametrize("dim", [1, MARGIN])
    def test_operator_set_rejects_dim(self, dim):
        with pytest.raises(ValueError, match=f"dim must be >= {MARGIN + 1}"):
            OperatorSet(dim=dim, b=np.ones(dim - 1))

    def test_one_interior_row_is_checked(self):
        sys = PolynomialSystem(seq_family(1, 2, F(1), 10))
        ops = build_operators(sys, MARGIN + 1)
        assert [row[0] for row in spectrum_report(ops, sys).rows] == [0]
        assert commutator_report(ops, sys).within_rounding
        with pytest.raises(ValueError, match=f"dim must be >= {MARGIN + 3}"):
            square_lowering_report(ops, sys)
        with pytest.raises(ValueError, match="n_hi = 1"):
            sys.square_lowering_deviation(1)
        assert square_lowering_report(build_operators(sys, MARGIN + 3), sys) == 0.0

    @pytest.mark.parametrize("dim", [MARGIN + 1, MARGIN + 2])
    def test_verify_skips_square_lowering_without_a_column(self, capsys, dim):
        code = main(["verify", "--family", "family", "--v1", "2/3", "--v2", "5/3",
                     "--dim", str(dim)])
        captured = capsys.readouterr()
        checks = {c["name"]: c for c in json.loads(captured.out)["checks"]}
        assert code == 1
        assert json.loads(captured.err.splitlines()[-1]) == {"failed": ["square_lowering"]}
        assert (checks["square_lowering"]["status"], checks["square_lowering"]["passed"]) == (
            "skipped", False)
        assert checks["square_lowering"]["detail"] == (
            f"skipped: no column 2 <= n < {dim - MARGIN}; --dim {MARGIN + 3} reads the first")

    def test_verify_reads_one_square_lowering_column(self, capsys):
        code = main(["verify", "--family", "family", "--v1", "2/3", "--v2", "5/3",
                     "--dim", str(MARGIN + 3)])
        checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        assert code == 0
        assert (checks["square_lowering"]["status"], checks["square_lowering"]["detail"]) == (
            "pass", "max deviation 0.000e+00, exact on columns 2 <= n < 3")

    @pytest.mark.parametrize("command", ["spectrum", "verify"])
    @pytest.mark.parametrize("dim", ["3", "4"])
    def test_cli_rejects_small_dim(self, capsys, command, dim):
        code = main([command, "--family", "hermite", "--dim", dim])
        assert code == 2
        assert "--dim" in capsys.readouterr().err


class TestCommutator:
    def test_hermite_canonical(self, hermite_ops):
        sys, ops = hermite_ops
        rep = commutator_report(ops, sys)
        assert rep.max_deviation < 1e-12
        # 2(b_n^2 - b_{n-1}^2) = 1: the canonical [a, a+] = 1 pattern
        for n in range(64):
            assert 2 * (sys.b2[n] - (sys.b2[n - 1] if n >= 1 else 0)) == 1, n

    def test_classical_gamma2_pattern(self, classical2_ops):
        sys, ops = classical2_ops
        rep = commutator_report(ops, sys)
        assert rep.max_deviation < 1e-12
        assert rep.classical_deviation is not None and rep.classical_deviation < 1e-12
        for n in range(64):
            comm = 2 * (sys.b2[n] - (sys.b2[n - 1] if n >= 1 else 0))
            assert comm == (3 if n % 2 == 0 else -1), n

    @pytest.mark.parametrize("seq", [
        seq_family(F(2, 3), F(5, 3), F(3, 7), 64), seq_family(4, 5, F(1), 64),
        seq_classical(F(1, 3), 64), seq_hermite(64, F(3)),
    ], ids=["family (2/3, 5/3, 3/7)", "family (4, 5, 1)", "classical gamma=1/3", "hermite 3"])
    def test_wigner_relation(self, seq):
        # [a-, a+] = (I + gamma R)/alpha, R = (-1)^N: exact on the b^2, and the
        # band's figure on every family system, alpha = 1 or not
        sys = PolynomialSystem(seq)
        gamma, alpha = sys.weight_parameters()
        for n in range(64):
            comm = 2 * (sys.b2[n] - (sys.b2[n - 1] if n >= 1 else 0))
            assert comm == (1 + gamma * (-1) ** n) / alpha, n
        assert commutator_report(build_operators(sys, DIM), sys).classical_deviation < 1e-12

    def test_off_diagonal_interior_zero(self, classical2_ops):
        # [a-, a+] is diagonal, which is what lets the reports read its band
        sys, _ = classical2_ops
        _, a_minus, a_plus, _ = dense_operators(sys, DIM)
        comm = a_minus @ a_plus - a_plus @ a_minus
        k = DIM - MARGIN
        off = comm[:k, :k] - np.diag(np.diag(comm)[:k])
        assert np.max(np.abs(off)) < 1e-12


class TestSpectrum:
    def test_hermite_levels(self, hermite_ops):
        sys, ops = hermite_ops
        rep = spectrum_report(ops, sys)
        assert rep.max_deviation < 1e-10
        assert rep.off_diagonal < 1e-10
        for n, lam, _, _ in rep.rows[:20]:
            assert lam == pytest.approx(2 * n + 1, abs=1e-12)

    def test_classical_levels(self):
        sys = PolynomialSystem(seq_classical(1, 64))
        ops = build_operators(sys, DIM)
        rep = spectrum_report(ops, sys)
        assert rep.classical_deviation is not None and rep.classical_deviation < 1e-10
        for n, lam, _, _ in rep.rows[:20]:
            assert lam == pytest.approx(2 * n + 2, abs=1e-12)

    def test_lambda0_is_2b0sq(self, classical2_ops):
        sys, ops = classical2_ops
        lam0 = spectrum_report(ops, sys).rows[0][1]
        assert lam0 == pytest.approx(2 * float(sys.seq.b0_squared), rel=1e-14)

    def test_family_two_routes(self):
        sys = PolynomialSystem(seq_family(4, 5, F(1), 64))
        ops = build_operators(sys, DIM)
        rep = spectrum_report(ops, sys)
        assert rep.max_deviation < 1e-10
        # v-form of the levels, with v_{-1} = 0
        v = v_of(sys.seq)
        b0sq = sys.seq.b0_squared
        for n in range(1, DIM - MARGIN):
            vm2 = v(n - 2) if n >= 2 else F(0)
            expect = float(2 * b0sq / v(1) * (v(n) * v(n + 1) - v(n - 1) * vm2))
            assert rep.rows[n][1] == pytest.approx(expect, rel=1e-12)


class TestSquareLowering:
    def test_classical_cases(self):
        for gamma in (0, 1, 2):
            sys = PolynomialSystem(seq_classical(gamma, 64))
            c1 = sys.seq.b0_squared * (sys.seq.values[2] - 1)
            assert c1 == 1
            ops = build_operators(sys, DIM)
            assert square_lowering_report(ops, sys) == 0.0

    def test_family_v2_2(self):
        sys = PolynomialSystem(seq_family(1, 2, F(1), 64))
        ops = build_operators(sys, DIM)
        assert square_lowering_report(ops, sys) == 0.0

    def test_hermite_structure(self):
        # X d/dx psi_n - n psi_n = 2 b_{n-1} b_{n-2} psi_{n-2} (c1 = 1), here by
        # the float expansion of psi_n' over the basis and X's two bands: the
        # psi_{n-2} component of X psi_n' takes b_{n-3} from psi_{n-3} and
        # b_{n-2} from psi_{n-1}
        sys = PolynomialSystem(seq_hermite(64))
        assert sys.seq.b0_squared * (sys.seq.values[2] - 1) == 1
        b = sys.b_float
        for n in range(2, DIM - MARGIN):
            d = dict(sys.derivative_in_basis(n))
            component = b[n - 2] * d[n - 1] + (b[n - 3] * d.get(n - 3, 0.0) if n >= 3 else 0.0)
            assert component == pytest.approx(2 * b[n - 1] * b[n - 2], rel=1e-12)
        assert square_lowering_report(build_operators(sys, DIM), sys) == 0.0

    def test_non_family_rejected(self):
        sys = PolynomialSystem(seq_order2(3, 50))
        ops = build_operators(sys, 44)
        with pytest.raises(UnsupportedSystemError):
            square_lowering_report(ops, sys)


def perturb_core(sys, n=20):
    """Scale the monic core P_n of a built system by 1 + 1e-9, in place."""
    sys.monic[n] = corrupt_core(sys.monic[n], n, "scaled")


class TestPerturbedCore:
    """A monic core off by a relative 1e-9 breaks square lowering at n and n + 2."""

    def test_report_exceeds_bound(self):
        sys = PolynomialSystem(seq_classical(1, 64))
        perturb_core(sys)
        assert square_lowering_report(build_operators(sys, DIM), sys) > 1e-10

    def test_core_beyond_range_is_not_checked(self):
        # the columns stop below dim - MARGIN = 36
        sys = PolynomialSystem(seq_classical(1, 64))
        perturb_core(sys, n=38)
        assert square_lowering_report(build_operators(sys, DIM), sys) == 0.0

    def test_verify_fails_square_lowering_only(self, capsys, monkeypatch):
        # n_max = 12 keeps core 20 out of every other check
        init = PolynomialSystem.__init__

        def perturbed_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            perturb_core(self)

        monkeypatch.setattr(PolynomialSystem, "__init__", perturbed_init)
        code = main(["verify", "--family", "classical", "--gamma", "1",
                     "--n-max", "12", "--dim", str(DIM)])
        captured = capsys.readouterr()
        assert code == 1
        assert json.loads(captured.err.splitlines()[-1]) == {"failed": ["square_lowering"]}
        square = {c["name"]: c for c in json.loads(captured.out)["checks"]}["square_lowering"]
        assert (square["status"], square["passed"]) == ("fail", False)


class TestRoundingBound:
    """The commutator and spectrum rows are judged against their own rounding,
    ROUNDING_BOUND eps lambda_n, not against an absolute bound."""

    @staticmethod
    def compatible_seed(tmp_path, b0_squared):
        """--family custom-file flags for a compatible non-family sequence of
        ratio r = 2, whose checks in verify read the band."""
        seq = propagated_compatible_sequence(2, 3, 6, DIM)
        seed = tmp_path / "r2.json"
        seed.write_text(json.dumps({"values": [str(v) for v in seq.values],
                                    "b0_squared": b0_squared}))
        return ["--family", "custom-file", "--seed-file", str(seed)]

    @pytest.mark.parametrize("command", ["verify", "spectrum"])
    def test_large_levels_pass(self, capsys, tmp_path, command):
        # spectrum on Hermite, levels up to 1.4e7: the rows round to ~2e-9, above an
        # absolute 1e-10.  verify reads the band off the family: on the r = 2
        # sequence its levels reach ~1e29, and its rows round (a figure above
        # zero) within the relative bound
        family = (self.compatible_seed(tmp_path, "100000") if command == "verify" else
                  ["--family", "hermite", "--b0-squared", "100000"])
        code = main([command, *family, "--dim", str(DIM)]
                    + (["--n-max", "12"] if command == "verify" else []))
        captured = capsys.readouterr()
        assert code == 0, captured.err
        if command == "verify":
            checks = {c["name"]: c for c in json.loads(captured.out)["checks"]}
            assert checks["commutator"]["status"] == checks["spectrum"]["status"] == "pass"
            assert float(checks["commutator"]["detail"].split()[2]) > 1e-10

    def perturbed(self, ops):
        # one band entry off by 1e3 eps relative: rows 10 and 11 of the
        # ladder diagonals move by ~2e3 eps of their level
        b = ops.b.copy()
        b[10] *= 1 + 1e3 * np.finfo(float).eps
        return OperatorSet(dim=ops.dim, b=b)

    def test_perturbed_band_fails(self, hermite_ops):
        sys, ops = hermite_ops
        assert commutator_report(ops, sys).within_rounding
        assert spectrum_report(ops, sys).within_rounding
        bad = self.perturbed(ops)
        rep = commutator_report(bad, sys)
        assert rep.max_deviation < 1e-10 and not rep.within_rounding
        assert not spectrum_report(bad, sys).within_rounding

    def test_verify_fails_commutator_on_a_perturbed_band(self, capsys, monkeypatch, tmp_path):
        # off the family, where verify reads the band
        from hermite_chihara import oscillator

        build = oscillator.build_operators
        monkeypatch.setattr(oscillator, "build_operators",
                            lambda *a, **kw: self.perturbed(build(*a, **kw)))
        code = main(["verify", *self.compatible_seed(tmp_path, "1/2"), "--n-max", "12",
                     "--dim", str(DIM)])
        captured = capsys.readouterr()
        assert code == 1
        assert json.loads(captured.err.splitlines()[-1]) == {"failed": ["commutator", "spectrum"]}


class TestHamiltonian:
    def test_ladder_products(self, classical2_ops):
        # a+ a- = 2 B(N) and a- a+ = 2 B(N+I)
        sys, _ = classical2_ops
        _, a_minus, a_plus, _ = dense_operators(sys, DIM)
        B, B_shift = dense_b(sys, DIM)
        k = DIM - MARGIN
        assert np.max(np.abs((a_plus @ a_minus - 2.0 * B)[:k, :k])) < 1e-10
        assert np.max(np.abs((a_minus @ a_plus - 2.0 * B_shift)[:k, :k])) < 1e-10

    def test_h_diagonal_interior(self, classical2_ops):
        sys, ops = classical2_ops
        rep = spectrum_report(ops, sys)
        assert rep.off_diagonal < 1e-10

    def test_position_momentum_form(self, classical2_ops):
        # -iP is real and skew-symmetric, so P is Hermitian
        sys, _ = classical2_ops
        p_skew = dense_operators(sys, DIM)[3]
        assert np.allclose(p_skew, -p_skew.T, atol=1e-15)

    def test_doubling_dim_keeps_noise_scale(self):
        sys = PolynomialSystem(seq_classical(1, 100))
        dev40 = commutator_report(build_operators(sys, 40), sys).max_deviation
        dev80 = commutator_report(build_operators(sys, 80), sys).max_deviation
        assert dev80 <= max(2 * dev40, 1e-12)
