"""End-to-end CLI behaviour: flags, config files, CSV output, exit codes."""

import subprocess
import sys

import numpy as np
import pytest

from pottsinvest import ensemble_sweep
from pottsinvest.cli import main


def run_cli(*args):
    return main(list(args))


def read_rows(path):
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    data = [l for l in lines if l and not l.startswith("#")]
    comments = [l for l in lines if l.startswith("#")]
    return data[0], data[1:], comments


class TestSingleRuns:
    def test_equal_couplings_curve_is_flat(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert run_cli(
            "--q", "2", "--couplings", "1.0,1.0",
            "--beta-max", "9.0", "--beta-count", "10", "--out", str(out),
        ) == 0
        header, rows, _ = read_rows(out)
        assert header == "beta,l"
        assert len(rows) == 10
        for row in rows:
            beta, l = row.split(",")
            assert float(l) == pytest.approx(0.5, abs=1e-9)

    def test_csv_cells_round_trip_exactly(self, tmp_path):
        out = tmp_path / "curve.csv"
        run_cli("--q", "3", "--couplings", "0.3,-0.7,0.1",
                "--beta-count", "7", "--out", str(out))
        _, rows, _ = read_rows(out)
        for row in rows:
            for cell in row.split(","):
                assert repr(float(cell)) == cell

    def test_rewarded_top_level_reaches_two(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert run_cli(
            "--q", "3", "--couplings", "0,0,-1",
            "--beta-max", "20", "--beta-count", "41", "--out", str(out),
        ) == 0
        _, rows, _ = read_rows(out)
        last_beta, last_l = rows[-1].split(",")
        assert float(last_beta) == 20.0
        assert float(last_l) == pytest.approx(2.0, abs=1e-3)

    def test_default_output_is_stdout(self, capsys):
        assert run_cli("--q", "2", "--couplings", "0,0", "--beta-count", "1") == 0
        out = capsys.readouterr().out
        assert out.startswith("beta,l\n")
        assert out.splitlines()[1] == "0.0,0.5"

    def test_log_grid_endpoints(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert run_cli(
            "--q", "2", "--couplings", "1,-1", "--log-grid",
            "--beta-min", "0.01", "--beta-max", "1.0", "--beta-count", "5",
            "--out", str(out),
        ) == 0
        _, rows, _ = read_rows(out)
        betas = [float(r.split(",")[0]) for r in rows]
        assert betas[0] == pytest.approx(0.01, rel=1e-12)
        assert betas[-1] == pytest.approx(1.0, rel=1e-12)
        ratios = [b2 / b1 for b1, b2 in zip(betas, betas[1:])]
        assert max(ratios) == pytest.approx(min(ratios), rel=1e-9)

    def test_profile_flag_builds_couplings(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert run_cli(
            "--q", "10", "--profile", "aggressive",
            "--beta-count", "3", "--beta-max", "4", "--out", str(out),
        ) == 0
        _, rows, _ = read_rows(out)
        assert float(rows[0].split(",")[1]) == 4.5

    def test_readme_aggressive_curve_stays_in_bounds(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert run_cli("--q", "10", "--profile", "aggressive", "--out", str(out)) == 0
        _, rows, _ = read_rows(out)
        values = [float(r.split(",")[1]) for r in rows]
        assert len(values) == 200
        assert all(0.0 <= l <= 9.0 for l in values)

    def test_near_tied_minimum_sweeps_the_default_grid(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert run_cli("--q", "3", "--couplings=-1,-0.999999999,0", "--out", str(out)) == 0
        _, rows, _ = read_rows(out)
        values = [float(r.split(",")[1]) for r in rows]
        assert len(values) == 200
        assert all(0.0 <= l <= 2.0 for l in values)

    def test_deterministic_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["--q", "4", "--couplings", "0.4,-1.1,0.2,0.9", "--beta-count", "9"]
        assert run_cli(*args, "--out", str(a)) == 0
        assert run_cli(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()


class TestEmitLimits:
    def test_unique_minimum_footer(self, tmp_path):
        out = tmp_path / "curve.csv"
        run_cli("--q", "2", "--couplings", "1,-1", "--beta-count", "2",
                "--emit-limits", "--out", str(out))
        _, _, comments = read_rows(out)
        assert "# investment_at_beta_zero = 0.5" in comments
        assert any(
            "investment_at_beta_infinity = 1.0" in c and "level 1" in c
            for c in comments
        )

    def test_nonnegative_minimum_footer(self, tmp_path):
        # A penalised minimum still settles away from its level: the exact
        # beta -> infinity value here is the level mean.
        out = tmp_path / "curve.csv"
        assert run_cli("--q", "2", "--couplings", "1,2", "--beta-count", "2",
                       "--emit-limits", "--out", str(out)) == 0
        _, _, comments = read_rows(out)
        assert (
            "# investment_at_beta_infinity = 0.5 (unique coupling minimum at level 0)"
            in comments
        )

    def test_tied_minimum_footer(self, tmp_path):
        out = tmp_path / "curve.csv"
        run_cli("--q", "2", "--couplings", "0,0", "--beta-count", "2",
                "--emit-limits", "--out", str(out))
        _, _, comments = read_rows(out)
        assert any("undefined" in c and "multiple levels" in c for c in comments)


class TestEnsembleRuns:
    def test_thirteen_series_for_twelve_seeds(self, tmp_path):
        out = tmp_path / "ens.csv"
        assert run_cli(
            "--q", "15", "--profile", "random",
            "--seeds", ",".join(str(s) for s in range(1, 13)),
            "--beta-max", "2.0", "--beta-count", "3", "--out", str(out),
        ) == 0
        header, rows, _ = read_rows(out)
        assert header == "beta,l,seed"
        labels = {r.split(",")[2] for r in rows}
        assert labels == {str(s) for s in range(1, 13)} | {"mean"}
        assert len(rows) == 13 * 3

    def test_ensemble_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = [
            "--q", "8", "--profile", "random", "--seeds", "5,6,7",
            "--beta-max", "3.0", "--beta-count", "4",
        ]
        assert run_cli(*args, "--out", str(a)) == 0
        assert run_cli(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_readme_ensemble_rows_are_the_repr_of_the_sweep(self, tmp_path):
        out = tmp_path / "ens.csv"
        seeds = range(1, 13)
        assert run_cli("--q", "15", "--profile", "random",
                       "--seeds", ",".join(map(str, seeds)), "--out", str(out)) == 0
        _, rows, _ = read_rows(out)
        ens = ensemble_sweep(15, seeds, np.linspace(0.0, 10.0, 200).tolist())
        series = [*zip(ens.seeds, ens.curves), ("mean", ens.mean_curve)]
        assert {type(v) for _, c in series for point in c.points for v in point} == {float}
        want = [f"{beta!r},{l!r},{seed}" for seed, c in series for beta, l in c.points]
        assert rows == want

    def test_mean_series_at_zero(self, tmp_path):
        out = tmp_path / "ens.csv"
        run_cli("--q", "15", "--profile", "random", "--seeds", "1,2,3,4",
                "--beta-max", "1.0", "--beta-count", "2", "--out", str(out))
        _, rows, _ = read_rows(out)
        mean_zero = [r for r in rows if r.endswith(",mean")][0]
        assert float(mean_zero.split(",")[1]) == 7.0

    def test_per_seed_limit_footer(self, tmp_path):
        out = tmp_path / "ens.csv"
        run_cli("--q", "15", "--profile", "random", "--seeds", "1,3",
                "--beta-count", "2", "--beta-max", "1.0",
                "--emit-limits", "--out", str(out))
        _, _, comments = read_rows(out)
        assert (
            "# seed 1: investment_at_beta_infinity = 7.0 (unique coupling minimum at level 8)"
            in comments
        )
        # Seed 3 has a tied coupling minimum, so its endpoint is undefined.
        assert any(c.startswith("# seed 3:") and "undefined" in c for c in comments)


class TestCompareMode:
    def parse_max_error(self, path):
        _, _, comments = read_rows(path)
        line = [c for c in comments if c.startswith("# max_abs_error = ")][0]
        return float(line.split("=")[1])

    def test_two_level_general_couplings(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        assert run_cli(
            "--q", "2", "--couplings", "1.0,-1.0", "--compare",
            "--beta-min", "0.01", "--beta-max", "5.0", "--beta-count", "20",
            "--out", str(out),
        ) == 0
        header, rows, _ = read_rows(out)
        assert header == "beta,l_numeric,l_closed_form,abs_error"
        assert len(rows) == 20
        assert self.parse_max_error(out) <= 1e-6
        assert "max_abs_error = " in capsys.readouterr().out

    def test_two_level_equal_couplings_is_tightest(self, tmp_path):
        out = tmp_path / "cmp.csv"
        run_cli("--q", "2", "--couplings", "0.7,0.7", "--compare",
                "--beta-min", "0.01", "--beta-max", "10.0", "--beta-count", "25",
                "--out", str(out))
        assert self.parse_max_error(out) <= 1e-9

    def test_three_level_top_coupling(self, tmp_path):
        out = tmp_path / "cmp.csv"
        run_cli("--q", "3", "--couplings", "0,0,1", "--compare",
                "--beta-min", "0.01", "--beta-max", "10.0", "--beta-count", "25",
                "--out", str(out))
        assert self.parse_max_error(out) <= 1e-6

    def test_three_level_middle_coupling_constant_target(self, tmp_path):
        out = tmp_path / "cmp.csv"
        run_cli("--q", "3", "--couplings", "0,2,0", "--compare",
                "--beta-min", "0.01", "--beta-max", "10.0", "--beta-count", "25",
                "--out", str(out))
        assert self.parse_max_error(out) <= 1e-7

    def test_non_integrable_three_level_pattern(self, capsys):
        assert run_cli("--q", "3", "--couplings", "1,2,3", "--compare") == 2
        assert "no closed form" in capsys.readouterr().err

    def test_large_q_has_no_closed_form(self, capsys):
        assert run_cli("--q", "4", "--couplings", "0,0,0,1", "--compare") == 2
        assert "q=2" in capsys.readouterr().err

    def test_compare_excludes_ensembles_and_limits(self, capsys):
        assert run_cli("--q", "2", "--profile", "random", "--seeds", "1",
                       "--compare") == 2
        assert run_cli("--q", "2", "--couplings", "1,2", "--compare",
                       "--emit-limits") == 2


class TestConfigFile:
    def test_file_plus_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# sweep configuration\n"
            "q = 2\n"
            "couplings = 1.0,-1.0\n"
            "beta_count = 5   # overridden below\n",
            encoding="utf-8",
        )
        out = tmp_path / "curve.csv"
        assert run_cli("--config", str(cfg), "--beta-count", "7",
                       "--out", str(out)) == 0
        _, rows, _ = read_rows(out)
        assert len(rows) == 7

    def test_file_alone_supplies_everything(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "curve.csv"
        cfg.write_text(
            f"q = 3\nprofile = conservative\nbeta_count = 4\nout = {out}\n",
            encoding="utf-8",
        )
        assert run_cli("--config", str(cfg)) == 0
        header, rows, _ = read_rows(out)
        assert header == "beta,l"
        assert len(rows) == 4

    def test_unknown_key_reports_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("q = 2\ncouplings = 1,2\nbogus = 3\n", encoding="utf-8")
        assert run_cli("--config", str(cfg)) == 2
        assert f"{cfg}:3: unknown key 'bogus'" in capsys.readouterr().err

    def test_bad_value_reports_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("q = two\n", encoding="utf-8")
        assert run_cli("--config", str(cfg)) == 2
        assert f"{cfg}:1:" in capsys.readouterr().err

    def test_missing_equals_reports_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("q = 2\njust words\n", encoding="utf-8")
        assert run_cli("--config", str(cfg)) == 2
        assert f"{cfg}:2: expected key=value" in capsys.readouterr().err

    def test_unreadable_file(self, tmp_path, capsys):
        assert run_cli("--config", str(tmp_path / "absent.cfg")) == 2
        assert "cannot read config file" in capsys.readouterr().err


class TestExitCodes:
    def test_missing_q(self, capsys):
        assert run_cli("--couplings", "1,2") == 2
        assert "q is required" in capsys.readouterr().err

    def test_profile_and_couplings_conflict(self, capsys):
        assert run_cli("--q", "2", "--profile", "aggressive",
                       "--couplings", "1,2") == 2
        assert "exactly one" in capsys.readouterr().err

    def test_neither_profile_nor_couplings(self):
        assert run_cli("--q", "2") == 2

    def test_random_profile_needs_seeds(self, capsys):
        assert run_cli("--q", "5", "--profile", "random") == 2
        assert "seeds" in capsys.readouterr().err

    def test_seeds_need_random_profile(self):
        assert run_cli("--q", "5", "--profile", "aggressive", "--seeds", "1,2") == 2

    def test_coupling_length_mismatch(self, capsys):
        assert run_cli("--q", "3", "--couplings", "1,2") == 2
        assert "expected q=3" in capsys.readouterr().err

    def test_log_grid_requires_positive_start(self, capsys):
        assert run_cli("--q", "2", "--couplings", "1,2", "--log-grid") == 2
        assert "beta-min > 0" in capsys.readouterr().err

    def test_degenerate_grid_bounds(self):
        assert run_cli("--q", "2", "--couplings", "1,2",
                       "--beta-min", "5", "--beta-max", "5") == 2
        assert run_cli("--q", "2", "--couplings", "1,2", "--beta-count", "0") == 2

    def test_numerical_failure_names_beta(self, capsys):
        code = run_cli("--q", "2", "--couplings=-1e308,0",
                       "--beta-min", "0.5", "--beta-max", "2.0",
                       "--beta-count", "2")
        assert code == 3
        assert "beta=2.0" in capsys.readouterr().err

    def test_ensemble_failure_names_seed(self, capsys):
        code = run_cli("--q", "15", "--profile", "random", "--seeds", "7,42",
                       "--beta-max", "1.7e308", "--beta-count", "2")
        assert code == 3
        err = capsys.readouterr().err
        assert "seed=7" in err and "beta=1.7e+308" in err

    def test_unwritable_output(self, tmp_path, capsys):
        target = tmp_path / "no" / "such" / "dir" / "x.csv"
        assert run_cli("--q", "2", "--couplings", "1,2", "--beta-count", "2",
                       "--out", str(target)) == 2
        assert "cannot write output" in capsys.readouterr().err

    def test_help_exits_cleanly(self, capsys):
        assert run_cli("--help") == 0
        capsys.readouterr()


class TestNegativeListValues:
    """A list value after a space is read like the '=' form, even with a minus sign."""

    def test_negative_couplings(self, capsys):
        grid = ("--beta-max", "2", "--beta-count", "3")
        assert run_cli("--q", "2", "--couplings=-1.0,1.0", *grid) == 0
        joined = capsys.readouterr().out
        assert run_cli("--q", "2", "--couplings", "-1.0,1.0", *grid) == 0
        assert capsys.readouterr().out == joined

    def test_negative_seeds(self, capsys):
        grid = ("--beta-max", "2", "--beta-count", "3")
        assert run_cli("--q", "3", "--profile", "random", "--seeds=-1,2", *grid) == 0
        joined = capsys.readouterr().out
        assert run_cli("--q", "3", "--profile", "random", "--seeds", "-1,2", *grid) == 0
        assert capsys.readouterr().out == joined
        assert ",-1\n" in joined

    def test_negative_value_with_leading_point(self, capsys):
        grid = ("--beta-max", "2", "--beta-count", "3")
        assert run_cli("--q", "2", "--couplings=-.5,1.0", *grid) == 0
        joined = capsys.readouterr().out
        assert run_cli("--q", "2", "--couplings", "-.5,1.0", *grid) == 0
        assert capsys.readouterr().out == joined

    def test_missing_value_is_still_an_error(self, capsys):
        assert run_cli("--couplings", "--q", "3") == 2
        assert "--couplings" in capsys.readouterr().err


class TestConsoleEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pottsinvest",
             "--q", "2", "--couplings", "0,0", "--beta-count", "1"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("beta,l\n")
