import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from oracles import psi_brute
from udham import cli
from udham.series import FTSeries
from udham.weights import ParameterError


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
            value, k_brute = psi_brute(omega, int(Q))
            # the staircase stores ln psi, so psi comes back through exp(ln)
            assert float(psi) == pytest.approx(value, rel=1e-15)
            assert tuple(map(int, k)) == k_brute
        assert cli.parse_omega({"omega": "1,0.3"}).label == "cf"

    def test_brute_profile_reaches_the_default_table(self, tmp_path):
        # without --q-max the brute-force profile is built to the Q the
        # table runs to, dioph's default 100
        out = tmp_path / "d2"
        code = run(["dioph", "--omega", "1.4142135623730951,1.7320508075688772",
                    "--outdir", str(out)])
        assert code == 0
        assert len((out / "psi.csv").read_text().splitlines()) == 101
        assert "horizon = 100.0" in (out / "manifest.txt").read_text()

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
        values = dict(line.split(" = ", 1) for line in man.splitlines())
        assert int(values["B_formula_proof"]) >= int(values["B_formula_statement"])

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

    def test_unreadable_artifact_is_skipped(self, tmp_path):
        # a directory and an undecodable file count like a missing artifact
        (tmp_path / "binary.txt").write_bytes(b"\xff\xfe\x00")
        out = tmp_path / "rep4"
        code = run(["report", str(tmp_path), str(tmp_path / "binary.txt"),
                    "--outdir", str(out)])
        assert code == 3
        rows = (out / "report.csv").read_text().splitlines()[1:]
        assert rows == [f"{tmp_path},SKIPPED,unreadable artifact",
                        f"{tmp_path / 'binary.txt'},SKIPPED,unreadable artifact"]

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
        # the file's alpha = 2 is recorded as the flag's 2.0, its flag type's value
        m1 = (out1 / "manifest.txt").read_text().replace(str(out1), "X")
        m2 = (out2 / "manifest.txt").read_text().replace(str(out2), "X")
        assert m1 == m2 and "\nparam.alpha = 2.0\n" in m1

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

    # a coefficient that is not a number, and a valid series in two angles
    BAD_COEFFICIENT = "ftseries 1\n2 4 0 0 0 1.0 1.0 0.0 1\n1 0 0 0 x 0.0\n"
    TWO_ANGLES = FTSeries.zeros(2, 4).add_cos((1, 1), 1e-4).to_text()

    @pytest.mark.parametrize("argv, text", [
        (["nf", "--hamiltonian", "missing.fts"], None),
        (["kam", "--perturbation", "missing.fts"], None),
        (["nf", "--hamiltonian", "H.fts"], BAD_COEFFICIENT),
        (["kam", "--perturbation", "H.fts"], BAD_COEFFICIENT),
        (["nf", "--hamiltonian", "H.fts", "--v", "1.5,0"], TWO_ANGLES),
        (["nf", "--hamiltonian", "H.fts", "--v", "1,0,0"], TWO_ANGLES),
    ], ids=["nf_missing", "kam_missing", "nf_bad_coefficient", "kam_bad_coefficient",
            "v_not_integers", "v_of_three_components"])
    def test_malformed_input_is_config_error(self, tmp_path, capsys, argv, text):
        if text is not None:
            (tmp_path / "H.fts").write_text(text)
        argv = [str(tmp_path / a) if a.endswith(".fts") else a for a in argv]
        out = tmp_path / "out"
        assert exit_code(argv + ["--outdir", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (out / "manifest.txt").exists()

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
                 "warnings", "mode", "param.family", "param.omega",
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
        # udham imports no scipy module at all: N = M/l! takes ln l! from
        # math.lgamma, and the pendulum orbits use flows' own quadrature
        code = ("import sys, udham.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_dioph_run_leaves_special_functions_unloaded(self, tmp_path):
        # N = M/l! takes ln l! from math.lgamma, so no special-function
        # module loads, and dioph does not read N anyway
        code = ("import sys; from udham import cli; "
                "code = cli.main(['dioph', '--omega', 'golden', '--q-max', '50', "
                f"'--outdir', {str(tmp_path)!r}]); "
                "print(code, 'scipy.special' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0 False"

    def test_weights_and_pendulum_runs_load_no_scipy(self, tmp_path):
        # the two commands that read ln l! and integrate the pendulum times
        code = ("import sys; from udham import cli; "
                f"out = {str(tmp_path)!r}; "
                "codes = [cli.main(['weights', '--family', 'gevrey', '--alpha', '2', "
                "'--outdir', out + '/w']), "
                "cli.main(['ms', '--mode', 'pendulum', '--n', '3', '--j', '2', "
                "'--s', '0.05', '--outdir', out + '/ms'])]; "
                "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[0, 0] []"

    def test_bessi_run_loads_no_mpmath(self, tmp_path):
        # the Liouville value is an exact rational, not an mpmath number
        code = ("import sys; from udham import cli; "
                f"code = cli.main(['bessi', '--alpha', '4', '--outdir', {str(tmp_path)!r}]); "
                "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'mpmath'))")
        proc = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0 []"

    def test_package_source_imports_no_scipy(self):
        # nor mpmath: numpy is the package's one dependency
        for path in sorted(Path(cli.__file__).resolve().parent.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                assert all(name.split(".")[0] not in ("scipy", "mpmath") for name in names), \
                    f"{path.name}:{node.lineno}"


def exit_code(argv):
    """cli.main's exit code, also when argparse exits on a bad argument."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


class TestFlagTable:
    # one flag that each command does not read
    UNREAD = [["weights", "--eps", "1"], ["dioph", "--family", "gevrey"],
              ["brtest", "--k-max", "8"], ["nf", "--omega", "golden"],
              ["kam", "--j", "2"], ["diffuse", "--mode", "exact"],
              ["ms", "--omega", "golden"], ["bessi", "--q", "3"],
              ["report", "--alpha", "2"]]

    @pytest.mark.parametrize("argv", UNREAD, ids=lambda argv: "_".join(argv))
    def test_unread_flag_is_config_error(self, tmp_path, argv):
        out = tmp_path / "out"
        assert exit_code(argv + ["--outdir", str(out)]) == 2
        assert not out.exists()

    def test_unread_config_key_is_config_error(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("family = gevrey\neps = 7\n")
        out = tmp_path / "out"
        assert run(["weights", "--config", str(cfgfile), "--outdir", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["ms", "--mode", "exact", "--q", "40", "--csv-rows", "0"],
        ["ms", "--mode", "exact", "--q", "0"],
        ["diffuse", "--omega", "golden", "--j", "5", "--t-n", "0"],
        ["weights", "--sigma-grid", "1e-3"],
        ["nf", "--k-max", "-1"],
        ["kam", "--k-max", "4", "--defect-grid", "0"],
        ["ms", "--mode", "banana"],
    ], ids=lambda argv: "_".join(argv))
    def test_out_of_range_input_is_config_error(self, tmp_path, argv):
        out = tmp_path / "out"
        assert exit_code(argv + ["--outdir", str(out)]) == 2
        assert not (out / "manifest.txt").exists()

    @pytest.mark.parametrize("argv", [
        ["brtest", "--eta", "-1"],
        ["nf", "--s", "0"], ["nf", "--A", "0"],
        ["diffuse", "--t-end", "nan"], ["diffuse", "--t-end", "inf"],
        ["diffuse", "--dt", "0"], ["diffuse", "--dt", "nan"],
        ["bessi", "--s0", "nan"],
        ["ms", "--mode", "pendulum", "--s", "0"],
        ["nf", "--family", "gevrey", "--alpha", "2", "--xi", "nan"],
        ["nf", "--family", "gevrey", "--alpha", "2", "--xi", "inf"],
    ], ids=lambda argv: "_".join(argv))
    def test_float_outside_its_domain_is_config_error(self, tmp_path, argv):
        out = tmp_path / "out"
        assert exit_code(argv + ["--outdir", str(out)]) == 2
        assert not out.exists()

    def test_config_float_outside_its_domain_is_config_error(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("dt = 0\n")
        out = tmp_path / "out"
        assert run(["diffuse", "--config", str(cfgfile), "--outdir", str(out)]) == 2
        assert "finite number > 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cmd, text", [
        ("brtest", "i_max = 2.5\n"),          # ran with i_max = 2
        ("brtest", "i_max = 2.0\n"),
        ("dioph", "q_max = true\n"),          # ran with Q = 1
        ("ms", "verify_drift = no\n"),        # turned verification on
        ("ms", '{"verify_drift": "false"}'),
        ("kam", "eps = true\n"),
    ], ids=["i_max_float", "i_max_integral_float", "q_max_bool", "verify_drift_no",
            "verify_drift_string", "eps_bool"])
    def test_config_value_of_another_type_is_config_error(self, tmp_path, capsys, cmd, text):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(text)
        out = tmp_path / "out"
        assert run([cmd, "--config", str(cfgfile), "--outdir", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_config_switch_takes_true_and_false(self, tmp_path):
        for value in ("true", "false"):
            cfgfile = tmp_path / f"{value}.cfg"
            cfgfile.write_text(f"mode = exact\nq = 20\nverify_drift = {value}\n")
            out = tmp_path / value
            assert run(["ms", "--config", str(cfgfile), "--outdir", str(out)]) == 0
            manifest = (out / "manifest.txt").read_text()
            assert f"\nverify_drift = {value.capitalize()}\n" in manifest

    def test_nan_eps_is_config_error(self, tmp_path, capsys):
        # a NaN perturbation must not be pruned as if it were zero and
        # leave the integrable Hamiltonian to "converge": --eps nan is not a
        # finite number, and a NaN coefficient read from a file is not dropped
        out = tmp_path / "out"
        assert exit_code(["kam", "--k-max", "8", "--eps", "nan", "--outdir", str(out)]) == 2
        assert "invalid finite value" in capsys.readouterr().err
        pert = tmp_path / "f.fts"
        pert.write_text("ftseries 1\n2 4 0 0 0 1.0 1.0 0.0 1\n-1 0 0 0 nan 0.0\n"
                        "1 0 0 0 nan 0.0\n")
        assert exit_code(["kam", "--k-max", "8", "--perturbation", str(pert),
                          "--outdir", str(out)]) == 2
        assert "non-finite coefficient" in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(cli.COMMANDS))
    def test_help_lists_only_the_flags_read(self, capsys, name):
        assert exit_code([name, "--help"]) == 0
        listed = set(re.findall(r"--[A-Za-z][A-Za-z0-9-]*", capsys.readouterr().out))
        read = {"--" + flag.replace("_", "-") for flag in cli.COMMAND_FLAGS[name]}
        assert listed == read | {"--help", "--config", "--outdir", "--seed"}

    def test_listed_flags_are_the_keys_each_command_reads(self):
        # scan cli's source for p.get("key"), p["key"] and "key" in p on the
        # params dict (named p or params), following calls into other cli
        # functions such as parse_family, parse_omega and the toy Hamiltonian
        tree = ast.parse(Path(cli.__file__).read_text())
        funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

        def is_params(node):
            return isinstance(node, ast.Name) and node.id in ("p", "params")

        def keys_read(name, seen):
            keys = set()
            for node in ast.walk(funcs[name]):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "get" and is_params(node.func.value)):
                    keys.add(node.args[0].value)
                elif isinstance(node, ast.Subscript) and is_params(node.value):
                    keys.add(node.slice.value)
                elif (isinstance(node, ast.Compare) and isinstance(node.ops[0], ast.In)
                      and is_params(node.comparators[0])):
                    keys.add(node.left.value)
                elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                      and node.func.id in funcs and node.func.id not in seen):
                    seen.add(node.func.id)
                    keys |= keys_read(node.func.id, seen)
            return keys

        for name in cli.COMMANDS:
            assert set(cli.COMMAND_FLAGS[name]) == keys_read(f"cmd_{name}", set()), name
        assert sum(map(len, cli.COMMAND_FLAGS.values())) == 82

    def test_every_flag_type_is_read_by_a_command(self):
        assert set(cli._FLAGS) == set().union(*cli.COMMAND_FLAGS.values())

    def test_each_default_is_a_value_its_flag_type_keeps(self):
        # a default its own flag would reject, or read as another type, cannot stand
        for name, flags in cli.COMMAND_FLAGS.items():
            for flag, default in flags.items():
                if default is not None:
                    typed = cli._FLAGS[flag](default)
                    assert (type(typed), typed) == (type(default), default), (name, flag)

    def test_config_file_names_one_report_input_as_a_string(self, tmp_path):
        art = tmp_path / "m.txt"
        art.write_text("verdict = ConvergedWithinBudget\n")
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"inputs = {art}\n")
        out = tmp_path / "rep"
        assert run(["report", "--config", str(cfgfile), "--outdir", str(out)]) == 0
        assert (out / "report.csv").read_text().splitlines()[1:] == [
            f"{art},OK,ConvergedWithinBudget"]


class TestParseFamily:
    TAGS = {"analytic": "Analytic", "gevrey": "Gevrey(2)",
            "gevrey-log": "GevreyLog(2,0.5)", "gevrey_log": "GevreyLog(2,0.5)",
            "gevreylog": "GevreyLog(2,0.5)", "exp-log": "ExpLog", "exp_log": "ExpLog",
            "explog": "ExpLog", "exp-sqrt": "ExpSqrt", "exp_sqrt": "ExpSqrt",
            "expsqrt": "ExpSqrt"}

    @pytest.mark.parametrize("spelling", sorted(TAGS))
    def test_each_spelling_gives_its_family(self, spelling):
        fam = cli.parse_family({"family": spelling, "alpha": 2, "beta": 0.5})
        assert fam.tag == self.TAGS[spelling]

    @pytest.mark.parametrize("spelling", ["Gevrey", "exp log", "exp_-sqrt", "gevrey-"])
    def test_other_spellings_are_rejected(self, spelling):
        with pytest.raises(ParameterError):
            cli.parse_family({"family": spelling})


# a small valid run of each command that reads a float flag; ms reads its
# float flags in pendulum mode
FLOAT_BASE = {
    "weights": ["weights", "--l-max", "256", "--sigma-grid", "1e-2:0.5:4",
                "--y-grid", "2:100:4", "--table-rows", "4"],
    "brtest": ["brtest", "--l-max", "4096", "--i-max", "8"],
    "nf": ["nf", "--k-max", "4", "--l-max", "4096"],
    "kam": ["kam", "--k-max", "4", "--n-iter", "1", "--defect-grid", "8"],
    "diffuse": ["diffuse", "--j", "2", "--t-n", "3", "--l-max", "4096"],
    "ms": ["ms", "--mode", "pendulum", "--n", "3", "--j", "2", "--l-max", "4096"],
    "bessi": ["bessi", "--n-steps", "3"],
}
FLOAT_PAIRS = [(cmd, flag) for cmd in sorted(FLOAT_BASE) for flag in cli.COMMAND_FLAGS[cmd]
               if cli._FLAGS[flag] in (cli.finite, cli.positive, cli.nonnegative)]


def test_every_float_flag_is_in_the_gate():
    floats = {flag for flag, typ in cli._FLAGS.items()
              if typ not in (str, cli.count, cli.switch)}
    assert len(FLOAT_PAIRS) == 34
    assert {(cmd, flag) for cmd, flags in cli.COMMAND_FLAGS.items()
            for flag in flags if flag in floats} == set(FLOAT_PAIRS)


@pytest.mark.parametrize("cmd, flag", FLOAT_PAIRS, ids=lambda x: x)
def test_float_edge_values_end_cleanly(tmp_path, cmd, flag):
    # each edge value exits 0, 2 or 3, never with a traceback, and no result
    # line holds nan or inf: only the recorded input and an error may
    for i, value in enumerate(["0", "-1", "nan", "inf"]):
        out = tmp_path / str(i)
        code = exit_code(FLOAT_BASE[cmd] + [f"--{flag.replace('_', '-')}", value,
                                            "--outdir", str(out)])
        assert code in (0, 2, 3), (value, code)
        for path in sorted(out.rglob("*")) if out.exists() else []:
            for line in path.read_text().splitlines():
                if not line.startswith(("param.", "error = ")):
                    assert not re.search(r"\b(nan|inf)\b", line, re.I), (value, path.name, line)
