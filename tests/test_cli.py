import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from udham import cli, dioph


def run(args):
    return cli.main(args)


def _src_env():
    """The environment with this checkout's src first on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}


class TestWeights:
    def test_gevrey_table(self, tmp_path):
        out = tmp_path / "w"
        code = run(["weights", "--family", "gevrey", "--alpha", "2",
                    "--sigma-grid", "1e-3:0.5", "--l-max", "512",
                    "--outdir", str(out)])
        assert code == 0
        lines = (out / "cauchy.csv").read_text().splitlines()
        assert lines[0] == "sigma,C,argmax,certified"
        assert len(lines) > 10
        assert (out / "weights.csv").exists()
        assert (out / "omega.csv").exists()
        man = (out / "manifest.txt").read_text()
        assert "H1_pass = True" in man

    def test_bad_family_is_config_error(self, tmp_path):
        code = run(["weights", "--family", "nope", "--outdir", str(tmp_path / "x")])
        assert code == 2


class TestDioph:
    def test_golden_psi_table(self, tmp_path):
        out = tmp_path / "d"
        code = run(["dioph", "--omega", "golden", "--q-max", "50",
                    "--outdir", str(out)])
        assert code == 0
        lines = (out / "psi.csv").read_text().splitlines()
        assert lines[0] == "Q,psi,k1,k2"
        assert len(lines) == 51


    def test_three_component_omega_takes_brute_profile(self, tmp_path):
        omega = [1.0, 0.7548776662466927, 0.5698402909980532]  # 1, rho^-1, rho^-2
        out = tmp_path / "d3"
        code = run(["dioph", "--omega", ",".join(map(repr, omega)),
                    "--q-max", "20", "--outdir", str(out)])
        assert code == 0
        lines = (out / "psi.csv").read_text().splitlines()
        assert lines[0] == "Q,psi,k1,k2,k3" and len(lines) == 21
        for line in lines[1:]:
            Q, psi, *k = line.split(",")
            value, k_brute = dioph.psi_brute(omega, int(Q))
            # the staircase stores ln psi, so psi comes back through exp(ln)
            assert float(psi) == pytest.approx(value, rel=1e-15)
            assert tuple(map(int, k)) == k_brute
        assert cli.parse_omega({"omega": "1,0.3"}).label == "cf"

    def test_resonant_omega_is_config_error(self, tmp_path):
        # 5 * 0.2 - 1 = 0: an exact resonance within |k|_1 <= 20
        code = run(["dioph", "--omega", "1,0.3,0.2", "--q-max", "20",
                    "--outdir", str(tmp_path / "r")])
        assert code == 2


class TestBRTest:
    def test_golden_gevrey2_converges(self, tmp_path):
        out = tmp_path / "br"
        code = run(["brtest", "--family", "gevrey", "--alpha", "2",
                    "--omega", "golden", "--i-max", "20",
                    "--outdir", str(out)])
        assert code == 0
        man = (out / "manifest.txt").read_text()
        assert "verdict = ConvergedWithinBudget" in man

    def test_expsqrt_diverges_exit3(self, tmp_path):
        out = tmp_path / "br2"
        code = run(["brtest", "--family", "exp-sqrt", "--omega", "golden",
                    "--i-max", "30", "--outdir", str(out)])
        assert code == 3
        man = (out / "manifest.txt").read_text()
        assert "verdict = DivergenceDiagnosed" in man
        # partial artifacts still written
        assert (out / "brtest.csv").exists()


class TestNF:
    def test_toy_run(self, tmp_path):
        out = tmp_path / "nf"
        code = run(["nf", "--family", "gevrey", "--alpha", "2",
                    "--k-max", "16", "--eps", "1e-4", "--eta", "1e-5",
                    "--outdir", str(out)])
        assert code == 0
        assert (out / "stages.csv").exists()
        assert (out / "resonant.fts").exists()
        man = (out / "manifest.txt").read_text()
        assert "commutation_defect" in man


class TestMS:
    def test_exact_drift_ends_at_one(self, tmp_path):
        out = tmp_path / "ms"
        code = run(["ms", "--mode", "exact", "--q", "40", "--outdir", str(out)])
        assert code == 0
        rows = (out / "drift.csv").read_text().splitlines()
        assert rows[0] == "step,I1"
        last = rows[-1].split(",")
        assert int(last[0]) == 1600
        assert abs(float(last[1]) - 1.0) < 1e-9

    def test_verify_drift_is_read_and_recorded(self, tmp_path):
        mans = {}
        for flag in ([], ["--verify-drift"]):
            out = tmp_path / ("ms" + "".join(flag))
            assert run(["ms", "--mode", "exact", "--q", "40", "--outdir", str(out)] + flag) == 0
            mans[bool(flag)] = (out / "manifest.txt").read_text().replace(str(out), "")
        assert mans[False] != mans[True]
        assert "\nverify_drift = True\n" in mans[True]
        assert "\nverify_drift = False\n" in mans[False]
        assert "a_return_error = 0.0" in mans[True]

    def test_pendulum_mode_report(self, tmp_path):
        out = tmp_path / "ms2"
        code = run(["ms", "--mode", "pendulum", "--n", "3", "--j", "2",
                    "--s", "0.05", "--outdir", str(out)])
        assert code == 0
        man = (out / "manifest.txt").read_text()
        assert "sync_passed = True" in man
        assert "cert_ok = True" in man

    def test_pendulum_mode_rejects_verify_drift(self, tmp_path):
        # only exact mode reads the flag; a pendulum run would record an unused input
        out = tmp_path / "ms3"
        code = run(["ms", "--mode", "pendulum", "--verify-drift", "--outdir", str(out)])
        assert code == 2
        assert not (out / "manifest.txt").exists()


class TestDiffuse:
    def test_drift_csv_and_sandwich(self, tmp_path):
        out = tmp_path / "df"
        code = run(["diffuse", "--omega", "golden", "--j", "5",
                    "--outdir", str(out)])
        assert code == 0
        man = (out / "manifest.txt").read_text()
        assert "sandwich_ok = True" in man

    def test_lazy_golden_extends_to_requested_convergent(self, tmp_path):
        # j = 9 lies beyond the nine convergents a fresh golden profile holds
        out = tmp_path / "df9"
        code = run(["diffuse", "--omega", "golden", "--j", "9", "--outdir", str(out)])
        assert code == 0
        man = (out / "manifest.txt").read_text()
        assert "sandwich_ok = True" in man


class TestBessi:
    def test_constructed_liouville(self, tmp_path):
        out = tmp_path / "bs"
        code = run(["bessi", "--alpha", "4", "--outdir", str(out)])
        assert code == 0
        man = (out / "manifest.txt").read_text()
        assert "all_certs_ok = True" in man


class TestReport:
    def test_empty_input_ok(self, tmp_path):
        out = tmp_path / "rep"
        code = run(["report", "--outdir", str(out)])
        assert code == 0
        assert (out / "report.csv").read_text().splitlines()[0] == \
            "artifact,status,verdicts"

    def test_missing_artifact_nonzero(self, tmp_path):
        out = tmp_path / "rep2"
        code = run(["report", str(tmp_path / "nothere.txt"),
                    "--outdir", str(out)])
        assert code == 3
        assert "SKIPPED" in (out / "report.csv").read_text()

    def test_aggregates_verdicts(self, tmp_path):
        br = tmp_path / "br"
        run(["brtest", "--family", "gevrey", "--alpha", "2", "--omega",
             "golden", "--i-max", "16", "--outdir", str(br)])
        out = tmp_path / "rep3"
        code = run(["report", str(br / "manifest.txt"), "--outdir", str(out)])
        assert code == 0
        assert "ConvergedWithinBudget" in (out / "report.csv").read_text()


class TestDeterminism:
    def test_rerun_bytes_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["weights", "--family", "gevrey", "--alpha", "1.5",
                "--l-max", "256"]
        run(args + ["--outdir", str(out1)])
        run(args + ["--outdir", str(out2)])
        for name in ["weights.csv", "cauchy.csv", "omega.csv"]:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        m1 = (out1 / "manifest.txt").read_text().replace(str(out1), "X")
        m2 = (out2 / "manifest.txt").read_text().replace(str(out2), "X")
        assert m1 == m2

    def test_config_file_equivalent_to_flags(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("family = gevrey\nalpha = 2\nl_max = 256\n")
        out1, out2 = tmp_path / "c1", tmp_path / "c2"
        run(["weights", "--config", str(cfgfile), "--outdir", str(out1)])
        run(["weights", "--family", "gevrey", "--alpha", "2",
             "--l-max", "256", "--outdir", str(out2)])
        assert (out1 / "weights.csv").read_bytes() == (out2 / "weights.csv").read_bytes()

    def test_json_config(self, tmp_path):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({"family": "gevrey", "alpha": 2,
                                       "l_max": 256}))
        out = tmp_path / "j"
        assert run(["weights", "--config", str(cfgfile),
                    "--outdir", str(out)]) == 0


class TestHamiltonianFileInput:
    def test_nf_reads_series_file(self, tmp_path):
        from udham.series import FTSeries
        from udham import normal_forms as NF
        import udham.dioph as D
        pv = D.periodic_from_rational((1, 0), 1)
        H = NF.linear_integrable(pv.v, 2, 8, D_I=1)
        H.add_cos((1, 1), 1e-4)
        ham = tmp_path / "H.fts"
        ham.write_text(H.to_text())
        out = tmp_path / "nf"
        code = run(["nf", "--family", "gevrey", "--alpha", "2",
                    "--hamiltonian", str(ham), "--v", "1,0", "--T", "1",
                    "--outdir", str(out)])
        assert code == 0
        assert (out / "remainder.fts").exists()

    def test_nf_rejects_complex_series_file(self, tmp_path, capsys):
        ham = tmp_path / "H.fts"
        ham.write_text("ftseries 1\n2 8 1 0 0 1.0 1.0 0.0 0\n0 0 1 0 1.0 0.0\n")
        code = run(["nf", "--family", "gevrey", "--alpha", "2",
                    "--hamiltonian", str(ham), "--v", "1,0", "--T", "1",
                    "--outdir", str(tmp_path / "nf")])
        assert code == 2
        assert "config error" in capsys.readouterr().err


class TestAcceptanceReportAggregation:
    def test_acceptance_lines_become_rows(self, tmp_path):
        art = tmp_path / "acceptance_report.txt"
        art.write_text("ACCEPTANCE 01 thing: PASS - detail a\n"
                       "ACCEPTANCE 02 other: FAIL - detail b\n")
        out = tmp_path / "rep"
        code = run(["report", str(art), "--outdir", str(out)])
        assert code == 0
        text = (out / "report.csv").read_text()
        assert "01 thing: PASS" in text and "02 other: FAIL" in text

    def test_report_idempotent_bytes(self, tmp_path):
        art = tmp_path / "m.txt"
        art.write_text("verdict = ConvergedWithinBudget\n")
        o1, o2 = tmp_path / "r1", tmp_path / "r2"
        run(["report", str(art), "--outdir", str(o1)])
        run(["report", str(art), "--outdir", str(o2)])
        assert (o1 / "report.csv").read_bytes() == (o2 / "report.csv").read_bytes()


class TestPlainArtifacts:
    # the README experiments that the tests above run, at the same sizes
    RUNS = [
        ["weights", "--family", "gevrey", "--alpha", "2", "--sigma-grid", "1e-3:0.5",
         "--l-max", "512"],
        ["dioph", "--omega", "golden", "--q-max", "50"],
        ["brtest", "--family", "gevrey", "--alpha", "2", "--omega", "golden",
         "--i-max", "20"],
        ["nf", "--family", "gevrey", "--alpha", "2", "--k-max", "16", "--eps", "1e-4",
         "--eta", "1e-5"],
        ["ms", "--mode", "exact", "--q", "40"],
        ["ms", "--mode", "pendulum", "--n", "3", "--j", "2", "--s", "0.05"],
        ["diffuse", "--omega", "golden", "--j", "5"],
        ["bessi", "--alpha", "4"],
    ]
    # values that are free text by design
    TEXT_KEYS = {"family", "label", "norm", "notes", "outdir", "subcommand", "verdict",
                 "warnings", "mode", "exponent_mode", "param.family", "param.omega",
                 "param.sigma_grid", "param.mode"}

    @staticmethod
    def parses(text):
        for parse in (json.loads, float, ast.literal_eval):
            try:
                parse(text)
                return True
            except (ValueError, SyntaxError):
                pass
        return False

    @pytest.mark.parametrize("argv", RUNS, ids=lambda argv: "_".join(argv[:3]))
    def test_manifest_values_are_plain(self, tmp_path, argv):
        assert run(argv + ["--outdir", str(tmp_path)]) == 0
        for line in (tmp_path / "manifest.txt").read_text().splitlines():
            key, value = line.split(" = ", 1)
            assert key in self.TEXT_KEYS or self.parses(value), line

    def test_seed_drives_toy_hamiltonian(self, tmp_path):
        argv = ["nf", "--family", "gevrey", "--alpha", "2", "--k-max", "16"]
        texts = []
        for seed in (0, 1):
            out = tmp_path / f"seed{seed}"
            assert run(argv + ["--seed", str(seed), "--outdir", str(out)]) == 0
            texts.append((out / "resonant.fts").read_text())
        assert texts[0] != texts[1]

    def test_module_entry_point_runs_without_warnings(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "udham.cli", "weights",
             "--family", "gevrey", "--alpha", "2", "--outdir", str(tmp_path)],
            env=_src_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_cli_import_loads_no_scipy(self):
        # quadrature and root finding serve only the pendulum orbits, and
        # gammaln only N = M/l!; each is imported where it is used
        code = ("import sys, udham.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_dioph_run_leaves_special_functions_unloaded(self, tmp_path):
        # only N = M/l! needs gammaln, and dioph never reads N
        code = ("import sys; from udham import cli; "
                "code = cli.main(['dioph', '--omega', 'golden', '--q-max', '50', "
                f"'--outdir', {str(tmp_path)!r}]); "
                "print(code, 'scipy.special' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0 False"
