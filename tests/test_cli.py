import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

import lamstair
from lamstair import serialize
from lamstair.cli import main, parse_domain, parse_params, parse_t_grid
from lamstair.errors import ParseError
from lamstair.measures import (SplittingStep, dirac, elementary_split,
                               verify_laminate)


def write_measure(path):
    nu = elementary_split(
        dirac(np.diag([2.0, 2.0]), certificate=[]),
        SplittingStep(np.diag([2.0, 2.0]), np.diag([0.5, 2.0]),
                      np.diag([4.0, 2.0]), Fraction(4, 7)))
    serialize.dump_json(serialize.measure_to_obj(nu), path)


class TestFlagParsers:
    def test_t_grid(self):
        g = parse_t_grid("log:1:1e4:60")
        assert len(g) == 60 and g[0] == 1.0 and g[-1] == pytest.approx(1e4)
        lin = parse_t_grid("lin:0.5:2:4")
        assert np.allclose(lin, [0.5, 1.0, 1.5, 2.0])
        for bad in ("log:1:10", "geo:1:10:5", "log:10:1:5", "log:a:b:5"):
            with pytest.raises(ParseError):
                parse_t_grid(bad)

    def test_domain(self):
        dom = parse_domain("box:0,0,2,1")
        assert dom.volume == pytest.approx(2.0)
        with pytest.raises(ParseError):
            parse_domain("ball:0,0,1")
        with pytest.raises(ParseError):
            parse_domain("box:0,0,1")

    def test_params(self):
        assert parse_params("K=3,x0=1.5") == {"K": 3, "x0": 1.5}
        assert parse_params(None) == {}
        with pytest.raises(ParseError):
            parse_params("K")


class TestStaircaseCommands:
    def test_build_and_verify(self, tmp_path):
        out = tmp_path / "measure.json"
        assert main(["staircase", "build", "--kind", "rankdrop",
                     "--A", "diag(3,5,0,0)", "--m", "2", "--N", "10",
                     "--out", str(out)]) == 0
        nu = serialize.measure_from_obj(serialize.load_json(out))
        assert verify_laminate(nu).ok
        # gamma = 2^-m exactly: the remainder atom keeps mass 4^-10
        rem = min(nu.atoms, key=lambda a: float(a.weight))
        assert Fraction(rem.weight) == Fraction(1, 4 ** 10)
        assert main(["laminate", "verify", "--measure", str(out)]) == 0

    def test_slopes_csv(self, tmp_path, capsys):
        out = tmp_path / "slopes.csv"
        assert main(["staircase", "slopes", "--kind", "elliptic",
                     "--params", "K=3", "--n-max", "500", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "n,beta,log_beta"
        assert len(lines) == 501
        slope = float(capsys.readouterr().out.split("slope,")[1])
        assert slope == pytest.approx(-1.5, rel=0.05)

    def test_slopes_past_the_float_range_is_precondition(self, tmp_path, capsys):
        # the closed-form det1 gamma overflowed in 2.0 ** ((n - 1) * d)
        out = tmp_path / "slopes.csv"
        assert main(["staircase", "slopes", "--kind", "det1", "--A", "diag(2,2)",
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "det1 staircase level 511: |A_n| overflows" in err and "Traceback" not in err
        assert not out.exists()

    def test_slopes_end_where_builds_end(self, tmp_path, capsys):
        # slopes read a constant closed-form gamma past the last level a build makes
        argv = ["--kind", "rank_drop", "--A", "diag(2,2)"]
        assert main(["staircase", "build", *argv, "--N", "2000",
                     "--out", str(tmp_path / "m.json")]) == 3
        build_err = capsys.readouterr().err
        assert "level 511:" in build_err
        assert main(["staircase", "slopes", *argv, "--n-max", "2000",
                     "--out", str(tmp_path / "slopes.csv")]) == 3
        assert capsys.readouterr().err == build_err
        assert not (tmp_path / "slopes.csv").exists()

    @pytest.mark.parametrize("flags", [["--n-min", "500", "--n-max", "100"],
                                       ["--n-max", "1"], ["--n-min", "1", "--n-max", "2"]])
    def test_slopes_without_fit_levels_is_parse_error(self, flags, tmp_path, capsys,
                                                      monkeypatch):
        # these wrote the CSV, printed no slope line and exited 0
        from lamstair import staircase

        def no_levels(*args):
            raise AssertionError("levels built")

        monkeypatch.setattr(staircase, "log_betas", no_levels)
        out = tmp_path / "slopes.csv"
        assert main(["staircase", "slopes", "--kind", "elliptic", "--params", "K=3",
                     *flags, "--out", str(out)]) == 2
        cap = capsys.readouterr()
        assert "leaves no levels to fit a slope over" in cap.err
        assert "Traceback" not in cap.err and "slope," not in cap.out
        assert not out.exists()

    def test_wrong_m_rejected(self, tmp_path):
        assert main(["staircase", "build", "--kind", "rankdrop",
                     "--A", "diag(3,5,0,0)", "--m", "3", "--N", "5",
                     "--out", str(tmp_path / "x.json")]) == 3


class TestExitCodes:
    def test_malformed_json_is_parse_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"rows": 2, bad')
        assert main(["laminate", "verify", "--measure", str(bad)]) == 2

    def test_schema_violation_is_parse_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"atoms": [{"w": 1.0}]}))
        assert main(["laminate", "verify", "--measure", str(bad)]) == 2

    def test_precondition(self, tmp_path):
        assert main(["staircase", "build", "--kind", "elliptic",
                     "--params", "K=0.5", "--N", "5",
                     "--out", str(tmp_path / "x.json")]) == 3

    def test_failed_verdict(self, tmp_path):
        m = tmp_path / "m.json"
        write_measure(m)
        # M=1 cannot dominate the one-step tail at t slightly above |A|
        assert main(["verify", "tails", "--measure", str(m), "--p", "4",
                     "--M", "1", "--t-grid", "log:3:4:4",
                     "--out", str(tmp_path / "t.csv")]) == 4

    def test_passing_tails(self, tmp_path):
        m = tmp_path / "m.json"
        write_measure(m)
        out = tmp_path / "t.csv"
        assert main(["verify", "tails", "--measure", str(m), "--p", "2",
                     "--M", "8", "--t-grid", "log:1:1e4:60",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,tail,upper_env,lower_env,verdict"
        assert len(lines) == 61

    def test_bad_jobs_env(self, tmp_path, monkeypatch):
        m = tmp_path / "m.json"
        write_measure(m)
        monkeypatch.setenv("LF_JOBS", "many")
        assert main(["laminate", "verify", "--measure", str(m)]) == 2
        monkeypatch.setenv("LF_JOBS", "0")
        assert main(["laminate", "verify", "--measure", str(m)]) == 3
        monkeypatch.setenv("LF_JOBS", "2")
        assert main(["laminate", "verify", "--measure", str(m)]) == 0

    @pytest.mark.parametrize("flag", ["--out", "--tails", "--report"])
    def test_unwritable_output_is_parse_error(self, flag, tmp_path, capsys):
        bad = str(tmp_path / "missing" / "x.json")
        paths = {f: str(tmp_path / f"{f[2:]}.out") for f in ("--out", "--tails",
                                                           "--report")}
        paths[flag] = bad
        argv = ["pipeline", "product", "--A", "diag(3,1)", "--beta-tol", "1e-2"]
        for f, path in paths.items():
            argv += [f, path]
        assert main(argv) == 2
        assert bad in capsys.readouterr().err

    def test_unwritable_staircase_out_is_parse_error(self, tmp_path, capsys):
        bad = str(tmp_path / "missing" / "m.json")
        assert main(["staircase", "build", "--kind", "det1", "--A", "diag(3,3)",
                     "--N", "3", "--out", bad]) == 2
        assert bad in capsys.readouterr().err

    @pytest.mark.parametrize("action", ["build", "slopes"])
    @pytest.mark.parametrize("kind", ["det1", "rank_drop"])
    @pytest.mark.parametrize("a", ["3", "nan"])
    def test_diagonal_in_params_is_parse_error(self, action, kind, a, tmp_path, capsys):
        # --A gives the diagonal of these kinds; a= in --params is refused
        out = tmp_path / "out.txt"
        argv = ["staircase", action, "--kind", kind, "--A", "diag(2,3)",
                "--params", f"a={a}", "--out", str(out)]
        argv += ["--N", "3"] if action == "build" else ["--n-max", "50"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("parse error: --params a=") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("action", ["build", "slopes"])
    @pytest.mark.parametrize("kind, params, missing", [("plaplace", "p=1.5", "b"),
                                                       ("plaplace", "b=9", "p"),
                                                       ("elliptic", "x0=2", "K")])
    def test_missing_family_parameter_is_precondition(self, action, kind, params, missing,
                                                      tmp_path, capsys):
        out = tmp_path / "out.txt"
        argv = ["staircase", action, "--kind", kind, "--params", params, "--out", str(out)]
        argv += ["--N", "5"] if action == "build" else ["--n-max", "50"]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert f"{kind} staircase needs parameter {missing}" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("A", ["diag(nan,2)", "diag(3,inf)"])
    def test_non_finite_seed_is_parse_error(self, A, tmp_path, capsys):
        assert main(["staircase", "build", "--kind", "det1", "--A", A, "--N", "3",
                     "--out", str(tmp_path / "m.json")]) == 2
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["laminate verify", "verify tails"])
    def test_overflowing_atom_is_precondition(self, command, tmp_path, capsys):
        # an atom with a 1e308 entry has an infinite norm, and the tolerance
        # tol * (1 + |P|) that matched it to anything made this pass
        m = tmp_path / "m.json"
        assert main(["staircase", "build", "--kind", "det1", "--A", "diag(2,2)",
                     "--N", "5", "--out", str(m)]) == 0
        obj = json.loads(m.read_text())
        obj["atoms"][3]["M"]["entries"][0][0] = 1e308
        m.write_text(json.dumps(obj))
        argv = command.split() + ["--measure", str(m)]
        if command == "verify tails":
            argv += ["--p", "2", "--M", "8", "--out", str(tmp_path / "t.csv")]
        capsys.readouterr()
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "atoms[3].M" in err and "Frobenius" in err

    @pytest.mark.parametrize("tol, code", [("1e-9", 4), ("nan", 3), ("inf", 3),
                                           ("0", 3), ("-1e-9", 3)])
    def test_laminate_tolerance_must_be_finite_and_positive(self, tol, code,
                                                            tmp_path, capsys):
        # half of the second-largest weight moved onto the largest keeps the
        # mass, but no replay gives these weights; |a - b| > nan and
        # |a - b| > inf are both false, so those tolerances passed it
        m = tmp_path / "m.json"
        assert main(["staircase", "build", "--kind", "det1", "--A", "diag(2,2)",
                     "--N", "20", "--out", str(m)]) == 0
        obj = json.loads(m.read_text())
        ws = [Fraction(a["w"]) for a in obj["atoms"]]
        big, second = sorted(range(len(ws)), key=ws.__getitem__, reverse=True)[:2]
        half = ws[second] / 2
        obj["atoms"][big]["w"] = str(ws[big] + half)
        obj["atoms"][second]["w"] = str(ws[second] - half)
        m.write_text(json.dumps(obj))
        capsys.readouterr()
        assert main(["laminate", "verify", "--measure", str(m), f"--tol={tol}"]) == code
        out = capsys.readouterr()
        assert "replayed" not in out.err
        if code == 3:
            assert "tolerance must be finite and positive" in out.err

    @pytest.mark.parametrize("grid", ["log:1:inf:5", "lin:1:inf:5", "log:nan:5:5"])
    def test_non_finite_t_grid_is_parse_error(self, grid, tmp_path, capsys):
        with pytest.raises(ParseError, match="bad grid bounds"):
            parse_t_grid(grid)
        m = tmp_path / "m.json"
        write_measure(m)
        assert main(["verify", "tails", "--measure", str(m), "--p", "2", "--M", "8",
                     "--t-grid", grid, "--out", str(tmp_path / "t.csv")]) == 2
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("grid", ["log:1:10:1000000000000000", "lin:1:10:100001"])
    def test_t_grid_count_is_bounded(self, grid, tmp_path, capsys):
        assert len(parse_t_grid("lin:1:10:100000")) == 100_000
        with pytest.raises(ParseError, match="grid count .* exceeds 100000"):
            parse_t_grid(grid)
        m = tmp_path / "m.json"
        write_measure(m)
        assert main(["verify", "tails", "--measure", str(m), "--p", "2", "--M", "8",
                     "--t-grid", grid, "--out", str(tmp_path / "t.csv")]) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("flags", [["--p", "nan", "--M", "8"],
                                       ["--p", "2", "--M", "nan"]])
    def test_nan_tail_exponent_or_constant_is_precondition(self, flags, tmp_path,
                                                           capsys):
        m = tmp_path / "m.json"
        write_measure(m)
        assert main(["verify", "tails", "--measure", str(m), *flags,
                     "--out", str(tmp_path / "t.csv")]) == 3
        assert "need p >= 1 and M >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--p", "1e308", "--M", "1"], "overflows the float range"),
        (["--p", "2", "--M", "1e200"], "overflows the float range"),
        (["--p", "2", "--M", "1", "--normA", "1e200"], "overflows the float range"),
        (["--p", "inf", "--M", "1"], "need a finite p, got inf"),
        (["--p", "2", "--M", "inf"], "need a finite M, got inf"),
        (["--p", "2", "--M", "1", "--normA", "inf"], "need a finite |A|, got inf"),
        (["--p", "2", "--M", "1", "--normA", "nan"], "need a finite |A|, got nan")])
    def test_non_finite_or_overflowing_tail_envelope_is_precondition(self, flags, message,
                                                                     tmp_path, capsys):
        # these exited 1 with an OverflowError, warned, or passed vacuously
        m = tmp_path / "m.json"
        write_measure(m)
        assert main(["verify", "tails", "--measure", str(m), *flags,
                     "--out", str(tmp_path / "t.csv")]) == 3
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("p", ["1.5", "2"])
    def test_negative_norm_is_precondition(self, p, tmp_path, capsys):
        # p = 1.5 exited 1 with a TypeError (a complex power); p = 2 wrote a CSV
        m = tmp_path / "m.json"
        write_measure(m)
        assert main(["verify", "tails", "--measure", str(m), "--p", p, "--M", "1",
                     "--normA", "-2", "--out", str(tmp_path / "t.csv")]) == 3
        err = capsys.readouterr().err
        assert "need |A| >= 0, got -2.0" in err and "Traceback" not in err
        assert not (tmp_path / "t.csv").exists()

    def test_envelope_beyond_float_range_is_inf(self, tmp_path):
        # t ** -p overflows for t < 1; the rows read inf, with no warning
        # (warnings are errors in this suite)
        m, out = tmp_path / "m.json", tmp_path / "t.csv"
        write_measure(m)
        assert main(["verify", "tails", "--measure", str(m), "--p", "300", "--M", "1",
                     "--normA", "0.5", "--t-grid", "log:0.001:1:5",
                     "--out", str(out)]) == 0
        assert out.read_text() == (
            "t,tail,upper_env,lower_env,verdict\n"
            "0.001,1.0,inf,,pass\n"
            "0.005623413251903491,1.0,inf,,pass\n"
            "0.03162277660168379,1.0,inf,,pass\n"
            "0.1778279410038923,1.0,9.99999999999979e+224,,pass\n"
            "1.0,1.0,1.0,,pass\n")

    def test_overflowing_product_tail_envelope_is_precondition(self, tmp_path, capsys):
        tails = tmp_path / "t.csv"
        assert main(["pipeline", "product", "--A", "diag(3,1)", "--M", "1e200",
                     "--out", str(tmp_path / "m.json"), "--tails", str(tails)]) == 3
        assert "tail envelope M^p (1+|A|^p) overflows" in capsys.readouterr().err
        assert not tails.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--M", "nan", "--tails", "@t.csv"], "need a finite M, got nan"),
        (["--M", "inf"], "need a finite M, got inf"),
        (["--M", "nan", "--mode", "map"], "need a finite M, got nan"),
        (["--M", "0.5", "--tails", "@t.csv"], "need p >= 1 and M >= 1"),
        (["--M", "1e200", "--tails", "@t.csv"], "tail envelope M^p (1+|A|^p) overflows"),
        (["--M", "1e100", "--A", "diag(1e110,1)", "--tails", "@t.csv"],
         "tail envelope M^p (1+|A|^p) overflows")])
    def test_product_tail_preconditions_leave_no_artifact(self, flags, message, tmp_path,
                                                          capsys, monkeypatch):
        # --M nan with --tails wrote --out and then exited 3; without --tails it
        # exited 0
        from lamstair import stages

        def no_pipeline(*args, **kwargs):
            raise AssertionError("pipeline ran")

        monkeypatch.setattr(stages, "product_pipeline", no_pipeline)
        argv = ["pipeline", "product", "--A", "diag(3,1)", "--out", "@m.json",
                "--report", "@r.json", *flags]
        assert main([str(tmp_path / a[1:]) if a.startswith("@") else a
                     for a in argv]) == 3
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("beta_tol", ["0", "-1", "nan", "inf"])
    def test_product_beta_tol_must_be_finite_and_positive(self, beta_tol, tmp_path,
                                                          capsys):
        assert main(["pipeline", "product", "--n", "1", "--A", "diag(2,0.5)",
                     f"--beta-tol={beta_tol}",
                     "--out", str(tmp_path / "p.json")]) == 3
        assert "beta_tol must be finite and positive" in capsys.readouterr().err
        assert not (tmp_path / "p.json").exists()


    def test_weight_beyond_float_range_is_parse_error(self, tmp_path, capsys):
        # the exact integer weight parses; only its float overflows
        m = tmp_path / "m.json"
        write_measure(m)
        obj = json.loads(m.read_text())
        obj["atoms"][1]["w"] = 10 ** 400
        m.write_text(json.dumps(obj))
        capsys.readouterr()
        assert main(["laminate", "verify", "--measure", str(m)]) == 2
        assert "atoms[1].w: weight too large for a float" in capsys.readouterr().err

    def test_underflowing_weight_says_so(self, tmp_path, capsys):
        m = tmp_path / "m.json"
        write_measure(m)
        obj = json.loads(m.read_text())
        obj["atoms"][1]["w"] = "1/1" + "0" * 400
        m.write_text(json.dumps(obj))
        capsys.readouterr()
        assert main(["laminate", "verify", "--measure", str(m)]) == 3
        assert ("atom weight 1.000e-400 is positive, but underflows as a float"
                in capsys.readouterr().err)

    def test_underflowing_staircase_weight_says_so(self, tmp_path):
        # the exact weights 16^-n of a rank-4 rank-drop staircase underflow
        # by level 269, long before |A_n| ~ 2^n leaves the float range
        out = run_cli(["staircase", "build", "--kind", "rankdrop",
                       "--A", "diag(3,5,7,9)", "--m", "4", "--N", "300",
                       "--out", str(tmp_path / "m.json")])
        assert out.returncode == 3
        assert "is positive, but underflows as a float" in out.stderr
        assert "must be positive" not in out.stderr

    @pytest.mark.parametrize("lam", [10 ** 400, "1" + "0" * 400 + "/3"])
    def test_lam_beyond_float_range_is_parse_error(self, lam, tmp_path, capsys):
        m = tmp_path / "m.json"
        write_measure(m)
        obj = json.loads(m.read_text())
        obj["certificate"][0]["lam"] = lam
        m.write_text(json.dumps(obj))
        capsys.readouterr()
        assert main(["laminate", "verify", "--measure", str(m)]) == 2
        assert ("certificate[0].lam: split fraction too large for a float"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("kind, A", [("det1", "diag(2,2)"),
                                         ("rankdrop", "diag(3,5)")])
    def test_staircase_norm_overflow_ignores_the_warning_filter(self, kind, A,
                                                                tmp_path):
        # |A_n| ~ 2^n leaves the float range at level 511 (det1) or 510 (the
        # rank drop); both filters must give the same exit, message and no
        # warning line, in fresh interpreters
        src = os.path.dirname(os.path.dirname(lamstair.__file__))
        outs = [subprocess.run(
            [sys.executable, "-W", flt, "-m", "lamstair.cli", "staircase", "build",
             "--kind", kind, "--A", A, "--m", "2", "--N", "600",
             "--out", str(tmp_path / "m.json")],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            timeout=300) for flt in ("error", "default")]
        assert [o.returncode for o in outs] == [3, 3]
        assert outs[0].stderr == outs[1].stderr
        assert outs[0].stderr.startswith("precondition violated: ")
        assert "staircase level 5" in outs[0].stderr and "overflows" in outs[0].stderr
        assert "Warning" not in outs[0].stderr
        assert not (tmp_path / "m.json").exists()


def run_cli(argv):
    """The CLI in a fresh interpreter, at the default recursion limit."""
    src = os.path.dirname(os.path.dirname(lamstair.__file__))
    return subprocess.run([sys.executable, "-m", "lamstair.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=300)


class TestDeepCertificates:
    @pytest.mark.parametrize("N, message", [
        (200, "teeth exceed the cell budget"),
        # the per-node volume budget base * 2^-k underflows with depth
        (400, "certificate too deep: split node 495 (preorder) has volume budget"),
    ])
    def test_realize_exits_3(self, N, message, tmp_path):
        m, mp = tmp_path / "m.json", tmp_path / "map.json"
        assert main(["staircase", "build", "--kind", "det1", "--A", "diag(2,2)",
                     "--N", str(N), "--out", str(m)]) == 0
        out = run_cli(["synth", "realize", "--measure", str(m), "--eps", "0.9",
                       "--out", str(mp)])
        assert out.returncode == 3 and "Traceback" not in out.stderr
        assert out.stderr.startswith("precondition violated: ") and message in out.stderr
        assert not mp.exists()


def global_state():
    """The process-wide settings a library call could change."""
    legacy = np.random.get_state()
    return (sys.getrecursionlimit(), np.geterr(), np.get_printoptions(),
            legacy[0], legacy[1].tobytes(), legacy[2:])


def test_library_leaves_process_state_alone(tmp_path):
    from lamstair import stages, synth
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter default, whatever ran before
    try:
        before = global_state()
        synth.reduce_exact(stages.stage3_builder(1.5), synth.box((0, 0), (1, 1)),
                           np.diag([3.0, 1.0]), 0.0, delta=0.5, alpha=0.5, depth=2,
                           p=2.0, M=8.0, r=1.5)
        s, m, mp = (tmp_path / n for n in ("s.json", "m.json", "map.json"))
        assert main(["staircase", "build", "--kind", "det1", "--A", "diag(2,2)",
                     "--N", "5", "--out", str(s)]) == 0
        assert main(["laminate", "verify", "--measure", str(s)]) == 0
        write_measure(m)
        assert main(["synth", "realize", "--measure", str(m), "--eps", "0.2",
                     "--out", str(mp)]) == 0
        assert main(["synth", "verify", "--map", str(mp),
                     "--out", str(tmp_path / "rep.json")]) == 0
        after = global_state()
    finally:
        sys.setrecursionlimit(limit)
    assert after == before


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(lamstair.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import lamstair.cli, sys; print(sorted(m for m in sys.modules"
         " if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


@pytest.fixture(scope="module")
def command_inputs(tmp_path_factory):
    """A one-split measure and its small realized map, for commands run in
    fresh interpreters."""
    d = tmp_path_factory.mktemp("inputs")
    write_measure(d / "m.json")
    assert main(["synth", "realize", "--measure", str(d / "m.json"),
                 "--eps", "0.9", "--out", str(d / "map.json")]) == 0
    return d


# each command with the lamstair modules it must not load: the parser is
# built from errors and matrices, and each handler imports what it runs
_PARSER_ONLY = {"boxes", "measures", "serialize", "staircase", "stages", "synth",
                "models"}
_MODULES_NOT_LOADED = [
    (["--help"], _PARSER_ONLY),
    (["laminate", "verify", "--measure", "@m.json"],
     {"staircase", "stages", "synth", "models"}),
    (["verify", "tails", "--measure", "@m.json", "--p", "2", "--M", "8",
      "--out", "@tails.csv"], {"staircase", "stages", "synth", "models"}),
    (["staircase", "build", "--kind", "det1", "--A", "diag(2,2)", "--N", "3",
      "--out", "@built.json"], {"synth", "stages", "models"}),
    (["report", "dist", "--map", "@map.json", "--out", "@dist.csv"],
     {"synth", "stages", "staircase"}),
    (["models", "duality", "--in", "@map.json", "--p", "1.5", "--out", "@map2.json"],
     {"synth", "stages", "staircase"}),
    (["synth", "verify", "--map", "@map.json", "--samples", "64",
      "--out", "@rep.json"], {"stages", "staircase", "models"}),
]


@pytest.mark.parametrize("argv, absent", _MODULES_NOT_LOADED,
                         ids=[" ".join(a[:2]) for a, _ in _MODULES_NOT_LOADED])
def test_command_loads_only_what_it_runs(argv, absent, command_inputs, tmp_path):
    # inputs come from the fixture, outputs go to the test's own directory
    argv = [str((command_inputs if a in ("@m.json", "@map.json") else tmp_path)
                / a[1:]) if a[:1] == "@" else a for a in argv]
    src = os.path.dirname(os.path.dirname(lamstair.__file__))
    script = (
        "import contextlib, io, json, sys\n"
        "from lamstair.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        f"        rc = main({argv!r})\n"
        "    except SystemExit as exc:\n"
        "        rc = exc.code\n"
        "print(json.dumps([rc, sorted(m for m in sys.modules"
        " if m.startswith('lamstair.'))]))\n")
    out = subprocess.run([sys.executable, "-c", script],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    rc, loaded = json.loads(out.stdout)
    assert rc == 0, out.stderr
    assert "lamstair.errors" in loaded and "lamstair.matrices" in loaded
    assert not {m.split(".")[1] for m in loaded} & absent, loaded


def test_synth_reexports_boxes():
    from lamstair import boxes, synth
    assert synth.OBox is boxes.OBox
    assert synth.box is boxes.box and synth._apply is boxes._apply


class TestSynthCommands:
    def test_realize_verify_round_trip(self, tmp_path):
        m, mp, rep = (tmp_path / n for n in ("m.json", "map.json", "rep.json"))
        write_measure(m)
        assert main(["synth", "realize", "--measure", str(m),
                     "--domain", "box:0,0,1,1", "--eps", "0.1",
                     "--out", str(mp)]) == 0
        assert main(["synth", "verify", "--map", str(mp), "--alpha", "0.5",
                     "--out", str(rep)]) == 0
        report = json.loads(rep.read_text())
        assert report["verdict"] == "pass"
        assert report["boundary_max"] <= 1e-9

    @pytest.mark.parametrize("samples", ["0", "-5", "1000001", "1000000000000000",
                                         "2e3", "many"])
    def test_verify_samples_out_of_range_is_parse_error(self, samples, command_inputs,
                                                        tmp_path, capsys):
        # 0 and -5 verified 48 points; 1e15 exited 1 with a memory error
        rep = tmp_path / "rep.json"
        assert main(["synth", "verify", "--map", str(command_inputs / "map.json"),
                     "--samples", samples, "--out", str(rep)]) == 2
        err = capsys.readouterr().err
        assert "sample count" in err and "Traceback" not in err
        assert not rep.exists()

    @pytest.mark.parametrize("alpha", ["nan", "0", "-0.5", "1.5", "inf"])
    def test_verify_alpha_out_of_range_is_precondition(self, alpha, command_inputs,
                                                       tmp_path, capsys):
        # nan exited 0 with holder_estimate 0.0: every quotient was NaN
        rep = tmp_path / "rep.json"
        assert main(["synth", "verify", "--map", str(command_inputs / "map.json"),
                     f"--alpha={alpha}", "--out", str(rep)]) == 3
        assert "alpha must lie in (0, 1]" in capsys.readouterr().err
        assert not rep.exists()

    def test_verify_smallest_budget(self, command_inputs, tmp_path):
        rep = tmp_path / "rep.json"
        assert main(["synth", "verify", "--map", str(command_inputs / "map.json"),
                     "--samples", "1", "--alpha", "1", "--out", str(rep)]) == 0
        report = json.loads(rep.read_text())
        assert report["samples"] == 48 and report["holder_alpha"] == 1.0

    @pytest.mark.parametrize("argv", [
        ["synth", "realize", "--measure", "@m.json", "--eps", "0.2",
         "--max-cells", "1000"],
        ["pipeline", "product", "--A", "diag(3,1)", "--mode", "map", "--depth", "2",
         "--max-cells", "5"],
    ])
    def test_cell_budget_overflow_leaves_no_file(self, argv, tmp_path, capsys):
        write_measure(tmp_path / "m.json")
        mp = tmp_path / "map.json"
        argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
        assert main(argv + ["--out", str(mp)]) == 3
        assert "exceed" in capsys.readouterr().err
        assert not mp.exists()

    def test_report_dist(self, tmp_path, capsys):
        m = tmp_path / "m.json"
        write_measure(m)
        assert main(["report", "dist", "--measure", str(m),
                     "--sets", "L1,L2"]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out[0] == "set,dist_integral"
        names = [ln.split(",")[0] for ln in out[1:]]
        assert names == ["L1", "L2"]
        vals = [float(ln.split(",")[1]) for ln in out[1:]]
        assert all(v >= 0.0 for v in vals)
        # the split measure is diagonal, so one component distance vanishes
        assert min(vals) == pytest.approx(0.0, abs=1e-9)


class TestMalformedMapCommands:
    @pytest.fixture(scope="class")
    def map_obj(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("crit14")
        write_measure(d / "m.json")
        assert main(["synth", "realize", "--measure", str(d / "m.json"),
                     "--eps", "0.2", "--out", str(d / "map.json")]) == 0
        return json.loads((d / "map.json").read_text())

    @pytest.mark.parametrize("edit", ["half_deleted", "cell_moved_out"])
    def test_synth_verify_rejects(self, edit, map_obj, tmp_path, capsys):
        bad = json.loads(json.dumps(map_obj))
        assert len(bad["cells"]) == 3896   # criterion 14's map
        if edit == "half_deleted":
            del bad["cells"][1::2]
        else:
            for p in bad["cells"][100]["region"]["vertices"]:
                p[1] -= 2.0
        mp = tmp_path / "bad.json"
        mp.write_text(json.dumps(bad))
        capsys.readouterr()
        start = time.process_time()
        assert main(["synth", "verify", "--map", str(mp),
                     "--out", str(tmp_path / "rep.json")]) == 2
        # rejected on loading, before any sampled check runs
        assert time.process_time() - start < 2.0
        assert not (tmp_path / "rep.json").exists()
        assert ("residual_volume" if edit == "half_deleted"
                else "cells[100]: vertex outside") in capsys.readouterr().err


class TestPipelineCommands:
    def test_product_measure_mode(self, tmp_path):
        a = tmp_path / "a.json"
        serialize.dump_json(serialize.matrix_to_obj(np.array([[1.0, 1.0],
                                                              [0.0, 1.0]])), a)
        out, tails, rep = (tmp_path / n
                           for n in ("p.json", "t.csv", "r.json"))
        assert main(["pipeline", "product", "--n", "1", "--A", str(a),
                     "--mode", "measure", "--beta-tol", "1e-4",
                     "--out", str(out), "--tails", str(tails),
                     "--report", str(rep)]) == 0
        report = json.loads(rep.read_text())
        assert report["mass_in_target"] >= 0.999
        assert report["barycenter_error"] <= 1e-9

    def test_duality_on_map(self, tmp_path):
        m, mp = tmp_path / "m.json", tmp_path / "map.json"
        write_measure(m)
        assert main(["synth", "realize", "--measure", str(m), "--eps", "0.1",
                     "--out", str(mp)]) == 0
        d1, d2 = tmp_path / "d1.json", tmp_path / "d2.json"
        assert main(["models", "duality", "--in", str(mp), "--p", "1.5",
                     "--out", str(d1)]) == 0
        assert main(["models", "duality", "--in", str(d1), "--p", "3.0",
                     "--out", str(d2)]) == 0
        assert json.loads(d2.read_text()) == json.loads(mp.read_text())


class TestDeterminism:
    def test_byte_identical_artifacts(self, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / f"{name}.json"
            csv = tmp_path / f"{name}.csv"
            assert main(["staircase", "build", "--kind", "det1",
                         "--A", "diag(2,2)", "--N", "12", "--out", str(out)]) == 0
            assert main(["verify", "tails", "--measure", str(out), "--p", "2",
                         "--M", "8", "--t-grid", "log:2:100:30",
                         "--out", str(csv)]) == 0
            outs.append((out.read_bytes(), csv.read_bytes()))
        assert outs[0] == outs[1]


@pytest.mark.parametrize("argv", [
    ["laminate", "verify", "--measure", "@m.json"],
    ["verify", "tails", "--measure", "@m.json", "--p", "2", "--M", "1", "--out", "@out"],
    ["synth", "realize", "--measure", "@m.json", "--out", "@out"],
    ["report", "dist", "--measure", "@m.json", "--out", "@out"],
    ["models", "duality", "--in", "@m.json", "--p", "2", "--out", "@out"],
])
def test_mixed_shape_measure_is_parse_error(argv, tmp_path, capsys):
    # a measure holds matrices of one shape: the first atom of another
    # shape is named, where a numpy broadcast error or a replay failure was
    m = tmp_path / "m.json"
    m.write_text(json.dumps({"atoms": [
        {"w": "1/2", "M": serialize.matrix_to_obj(np.eye(2))},
        {"w": "1/2", "M": serialize.matrix_to_obj(np.eye(3))}]}))
    argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and "atoms[1].M: shape (3, 3) differs" in err
    assert not (tmp_path / "out").exists()


def test_map_commands_do_not_import_numpy_ma(tmp_path):
    # np.unique imports numpy.ma on its first call; the map reader, writer
    # and cell walk count vertex groups without it
    m, mp = tmp_path / "m.json", tmp_path / "map.json"
    write_measure(m)
    src = os.path.dirname(os.path.dirname(lamstair.__file__))
    script = (
        "import sys\n"
        "from lamstair.cli import main\n"
        f"assert main(['synth', 'realize', '--measure', {str(m)!r}, '--eps', '0.2',"
        f" '--out', {str(mp)!r}]) == 0\n"
        f"assert main(['synth', 'verify', '--map', {str(mp)!r},"
        f" '--out', {str(tmp_path / 'rep.json')!r}]) == 0\n"
        f"assert main(['report', 'dist', '--map', {str(mp)!r},"
        f" '--out', {str(tmp_path / 'dist.csv')!r}]) == 0\n"
        "print('numpy.ma' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
