import argparse
import dataclasses
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from rbrdo import AsoslParams, DeParams, ModeParams, RobustnessSpec
from rbrdo.cli import RUN_MODES, SETTINGS, build_parser, main

BENCH_DET = ["run", "--problem", "benchmark", "--mode", "deterministic",
             "--seed", "1"]
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# a value other than the default for every setting but problem, mode and out
NON_DEFAULT = {
    "delta": "0.02,0.05", "strategy": "type2", "samples": 3, "eta": 0.5,
    "scheme": "uniform", "F": 0.6, "CR": 0.7, "NP": 10, "generations": 4,
    "r": 0.8, "R": 2, "psi": 1e5, "beta_t": 2.5, "delta_eta": 0.9,
    "alpha_b": 2e-4, "s_b": 0.6, "epsilon": 1e-5, "max_iters": 150,
    "seed": 7, "mpp_nominal": True, "worst_case": True, "history": True}
# every (run mode, setting it does not read) pair
UNREAD = [(mode, key) for mode in RUN_MODES for key, s in SETTINGS.items()
          if mode not in s.reads]


def flag(key):
    return f"--{key.replace('_', '-')}"


def run_cli(args, tmp_path, extra_env=None):
    # the child imports the package from this checkout, installed or not
    env = dict(os.environ, RBRDO_OUTPUT_DIR=str(tmp_path), PYTHONPATH=str(SRC))
    if extra_env:
        env.update(extra_env)
    proc = subprocess.run([sys.executable, "-m", "rbrdo.cli", *args],
                          capture_output=True, text=True, env=env)
    return proc


class TestRunDeterministic:
    def test_benchmark_single_row_front(self, tmp_path):
        proc = run_cli(BENCH_DET + ["--out", "bench"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        front = (tmp_path / "bench_front.csv").read_text().splitlines()
        assert front[0] == "d1,d2,beta,f1,delta"
        assert len(front) == 2
        f = float(front[1].split(",")[3])
        assert abs(f - 5.176532) <= 1e-3

    def test_byte_identical_reruns(self, tmp_path):
        run_cli(BENCH_DET + ["--out", "a"], tmp_path)
        run_cli(BENCH_DET + ["--out", "b"], tmp_path)
        assert ((tmp_path / "a_front.csv").read_bytes()
                == (tmp_path / "b_front.csv").read_bytes())

    def test_metadata_round_trip(self, tmp_path):
        run_cli(BENCH_DET + ["--out", "a"], tmp_path)
        proc = run_cli(["run", "--config", str(tmp_path / "a_meta.txt"),
                        "--out", "c"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert ((tmp_path / "a_front.csv").read_bytes()
                == (tmp_path / "c_front.csv").read_bytes())


class TestRunRbrdo:
    def test_small_sweep_files(self, tmp_path):
        proc = run_cli(["run", "--problem", "benchmark", "--mode", "rbrdo",
                        "--delta", "0,0.05", "--generations", "4", "--NP",
                        "12", "--R", "2", "--samples", "8", "--seed", "3",
                        "--history", "--out", "sw"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        for level in ("0", "0.05"):
            lines = (tmp_path / f"sw_front_delta{level}.csv").read_text()
            assert lines.startswith("d1,d2,beta,f1,delta")
            hist = (tmp_path / f"sw_history_delta{level}.csv").read_text()
            assert hist.startswith("generation,offspring")
        meta = (tmp_path / "sw_meta.txt").read_text()
        assert "seed=3" in meta
        stats = (tmp_path / "sw_stats.csv").read_text().splitlines()
        assert stats[0] == "delta,n,a0,a1,a2,sqr,r2,r2_adj,rms,sd_scale"
        assert all(float(row.split(",")[-1]) >= 0.0 for row in stats[1:])

    def test_reloaded_front_is_non_dominated(self, tmp_path):
        from rbrdo.core import non_dominated_mask
        proc = run_cli(["run", "--problem", "benchmark", "--mode", "rbrdo",
                        "--delta", "0", "--generations", "8", "--NP", "16",
                        "--R", "2", "--seed", "5", "--out", "nd"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        rows = (tmp_path / "nd_front_delta0.csv").read_text().splitlines()[1:]
        front = np.array([list(map(float, row.split(","))) for row in rows])
        assert len(front) > 1
        # f1 minimized, beta maximized
        assert non_dominated_mask(front[:, [3, 2]] * [1.0, -1.0]).all()

    def test_repeated_level_runs_once(self, tmp_path, capsys):
        argv = ["run", "--problem", "benchmark", "--mode", "rbrdo",
                "--generations", "5", "--NP", "12", "--R", "2", "--samples",
                "4", "--seed", "5", "--history"]
        assert main(argv + ["--delta", "0.05,0,0.05",
                            "--out", str(tmp_path / "a")]) == 0
        twice = capsys.readouterr().out
        assert main(argv + ["--delta", "0.05,0",
                            "--out", str(tmp_path / "b")]) == 0
        once = capsys.readouterr().out
        assert twice.count("delta=0.05:") == 1 and "n=" in twice
        assert twice.splitlines()[:-1] == once.splitlines()[:-1]
        meta = (tmp_path / "a_meta.txt").read_text()
        assert meta.count("a_front_delta0.05.csv") == 1
        for name in ("front_delta0.05", "front_delta0", "history_delta0.05",
                     "stats"):
            assert ((tmp_path / f"a_{name}.csv").read_bytes()
                    == (tmp_path / f"b_{name}.csv").read_bytes()), name

    def test_negative_zero_level_is_level_zero(self, tmp_path):
        # -0.0 is the level 0: same seed, same file name, same front
        argv = ["run", "--problem", "benchmark", "--mode", "rbrdo",
                "--generations", "3", "--NP", "8", "--R", "2", "--samples",
                "4", "--seed", "1"]
        for name, level in (("pos", "0"), ("neg", "-0")):
            assert main(argv + ["--delta", level,
                                "--out", str(tmp_path / name / "x")]) == 0
        files, pos = (sorted(p.name for p in (tmp_path / side).glob("*.csv"))
                      for side in ("neg", "pos"))
        assert files == pos
        assert "x_front_delta0.csv" in files
        for name in files:
            assert ((tmp_path / "neg" / name).read_bytes()
                    == (tmp_path / "pos" / name).read_bytes()), name

    def test_specs_are_built_once_per_run(self, tmp_path, monkeypatch):
        # the run checks the specs before it makes the output directory,
        # and the sweep takes the checked ones
        from rbrdo import cli, formulation
        calls = []
        build = formulation.sweep_specs

        def spy(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)
        for module in (cli, formulation):
            monkeypatch.setattr(module, "sweep_specs", spy)
        assert main(["run", "--problem", "benchmark", "--mode", "rbrdo",
                     "--delta", "0,0.05", "--generations", "2", "--NP", "8",
                     "--R", "2", "--samples", "4", "--seed", "1",
                     "--out", str(tmp_path / "s")]) == 0
        assert len(calls) == 1

    def test_empty_level_list_is_a_configuration_error(self, tmp_path, capsys):
        assert main(["run", "--problem", "benchmark", "--mode", "rbrdo",
                     "--delta", ",", "--out", str(tmp_path / "x")]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "x_meta.txt").exists()

    @pytest.mark.parametrize("settings", [
        "--mode rbrdo --delta ,", "--mode rbrdo --samples 0",
        "--mode rbrdo --strategy type2 --eta -1", "--mode rbrdo --NP 2",
        "--mode rbdo --beta-t 99", "--mode deterministic --F 0",
        "--mode rbrdo --delta 0.05 --strategy penalty --worst-case",
        "--mode rbrdo --delta 0.05 --worst-case",
        "--mode rbrdo --delta 0.05 --strategy type2",
        # the DE modes refuse the noise settings they would ignore
        "--mode deterministic --delta 0.05", "--mode rbdo --delta 0,-0.1",
        "--mode deterministic --strategy type2 --eta 0.1",
        "--mode rbdo --strategy penalty", "--mode rbdo --scheme uniform",
        "--mode deterministic --eta 0.1", "--mode rbdo --worst-case",
        "--mode deterministic --mpp-nominal",
        "--mode rbdo --beta-t 3 --strategy penalty --delta 0.1 "
        "--mpp-nominal --scheme uniform",
        # and the MODE, sampling and MPP settings they would ignore
        "--mode deterministic --samples 3 --R 2 --r 0.5",
        "--mode rbrdo --beta-t 2", "--mode deterministic --max-iters 5"])
    def test_refused_settings_leave_no_output_directory(self, tmp_path,
                                                        capsys, settings):
        out = tmp_path / "sub" / "x"
        assert main(["run", "--problem", "benchmark", *settings.split(),
                     "--out", str(out)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "sub").exists()

    @pytest.mark.parametrize("mode", ["deterministic", "rbdo"])
    @pytest.mark.parametrize("settings", [
        "--delta 0.0", "--delta -0", "--delta 0,0",
        "--samples 50 --R 10 --r 0.9"])
    def test_de_modes_accept_noise_free_settings(self, tmp_path, mode,
                                                 settings):
        assert main(["run", "--problem", "benchmark", "--mode", mode,
                     "--generations", "1", "--NP", "4", *settings.split(),
                     "--out", str(tmp_path / "x")]) == 0

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("mode,key", UNREAD)
    def test_every_unread_setting_is_refused(self, tmp_path, capsys, mode,
                                             key, source):
        value = NON_DEFAULT[key]
        assert value != SETTINGS[key].default
        argv = ["run", "--problem", "benchmark", "--mode", mode,
                "--generations", "1", "--NP", "4",
                "--out", str(tmp_path / "sub" / "x")]
        if source == "flag":
            argv += [flag(key)] + ([] if value is True else [str(value)])
        else:
            (tmp_path / "c.txt").write_text(f"{key}={value}\n")
            argv += ["--config", str(tmp_path / "c.txt")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and flag(key) in err
        assert not (tmp_path / "sub").exists()

    @pytest.mark.parametrize("mode", RUN_MODES)
    def test_unread_settings_at_their_defaults_pass(self, tmp_path, mode):
        # a _meta.txt spells out every setting, those its mode ignores too
        (tmp_path / "c.txt").write_text("".join(
            f"{key}={s.default}\n" for key, s in SETTINGS.items()))
        assert main(["run", "--config", str(tmp_path / "c.txt"),
                     "--problem", "benchmark", "--mode", mode,
                     "--generations", "1", "--NP", "4",
                     "--out", str(tmp_path / "x")]) == 0

    def test_none_is_not_a_strategy(self, tmp_path, capsys):
        argv = ["run", "--problem", "benchmark", "--delta", "0.05",
                "--out", str(tmp_path / "x")]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--strategy", "none"])
        assert exc.value.code == 2
        (tmp_path / "c.txt").write_text("strategy=none\n")
        assert main(argv + ["--config", str(tmp_path / "c.txt")]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "x_meta.txt").exists()


class TestMpp:
    def test_benchmark_constraint(self, tmp_path):
        proc = run_cli(["mpp", "--problem", "benchmark", "--constraint", "1",
                        "--d", "3.440563,3.279963", "--beta-t", "3"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        line = [ln for ln in proc.stdout.splitlines() if "g* =" in ln][0]
        assert abs(float(line.split("=")[1])) < 1e-2

    def test_catalyst_linear_margin(self, tmp_path):
        proc = run_cli(["mpp", "--problem", "catalyst", "--constraint", "1",
                        "--d", "0.5,0.3,0.2,0.15,0.7", "--beta-t", "2"],
                       tmp_path)
        assert proc.returncode == 0, proc.stderr
        line = [ln for ln in proc.stdout.splitlines() if "g* =" in ln][0]
        assert abs(float(line.split("=")[1]) - 0.4) < 1e-6

    def test_zero_beta_rejected(self, tmp_path):
        proc = run_cli(["mpp", "--problem", "benchmark", "--constraint", "1",
                        "--d", "3,3", "--beta-t", "0"], tmp_path)
        assert proc.returncode == 2

    @pytest.mark.parametrize("design", ["0.3,0.5", "1.5,0.5"])
    def test_design_run_would_refuse_is_rejected(self, capsys, design):
        # d2 > d1: the domain guard rejects it; d1 = 1.5: outside the box
        assert main(["mpp", "--problem", "reactor", "--constraint", "1",
                     "--d", design, "--beta-t", "2"]) == 2
        assert "configuration error" in capsys.readouterr().err


class TestStatsFit:
    def _write_front(self, path, noise=0.0):
        xs = np.linspace(1.0, 3.0, 12)
        ys = 5.0 + 0.5 * xs + 0.25 * xs ** 2
        if noise:
            ys = ys + noise * np.sin(xs * 20)
        with open(path, "w") as fh:
            fh.write("d1,beta,f1,delta\n")
            for x, y in zip(xs, ys):
                fh.write(f"0.0,{float(x)!r},{float(y)!r},0.0\n")

    def test_exact_quadratic(self, tmp_path):
        self._write_front(tmp_path / "front.csv")
        proc = run_cli(["stats-fit", "--front", str(tmp_path / "front.csv"),
                        "--x", "beta", "--y", "f1"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "R2=1.000000" in proc.stdout
        assert "n=12" in proc.stdout

    def test_column_mismatch(self, tmp_path):
        self._write_front(tmp_path / "front.csv")
        proc = run_cli(["stats-fit", "--front", str(tmp_path / "front.csv"),
                        "--x", "beta", "--y", "zz"], tmp_path)
        assert proc.returncode == 2
        assert "zz" in proc.stderr

    @pytest.mark.parametrize("row", ["0.0,nan,7.0,0.0", "0.0,3.0,inf,0.0"])
    def test_non_finite_value_is_a_malformed_row(self, tmp_path, capsys, row):
        path = tmp_path / "front.csv"
        path.write_text("d1,beta,f1,delta\n" + "".join(
            f"0.0,{b},{5.0 + b * b},0.0\n" for b in (1.0, 1.5, 2.0, 2.5))
            + row + "\n")
        assert main(["stats-fit", "--front", str(path)]) == 2
        assert "malformed data row" in capsys.readouterr().err

    def test_overflowing_x_is_a_fit_error(self, tmp_path):
        # x*x overflows: a numeric failure (exit 3) that names the cause,
        # with no numpy warnings on the way
        path = tmp_path / "front.csv"
        path.write_text("d1,beta,f1,delta\n" + "".join(
            f"0.0,{b!r},{5.0 + k},0.0\n"
            for k, b in enumerate((1.0, 1.5, 2.0, 1e308))))
        proc = run_cli(["stats-fit", "--front", str(path)], tmp_path)
        assert proc.returncode == 3
        assert "x*x or its column scale overflows" in proc.stderr
        assert "Warning" not in proc.stderr

    def test_missing_file_is_io_error(self, tmp_path):
        proc = run_cli(["stats-fit", "--front", str(tmp_path / "nope.csv")],
                       tmp_path)
        assert proc.returncode == 4


class TestListProblems:
    def test_names(self, tmp_path):
        proc = run_cli(["list-problems"], tmp_path)
        assert proc.returncode == 0
        assert proc.stdout.split() == ["benchmark", "catalyst",
                                       "heat-exchanger", "reactor"]


class TestInProcess:
    def test_bad_mode_exit_code(self, tmp_path, capsys):
        code = main(["run", "--problem", "benchmark", "--mode", "rbdo",
                     "--beta-t", "99", "--out", str(tmp_path / "x")])
        assert code == 2

    def test_unknown_problem(self, tmp_path):
        code = main(["run", "--problem", "qq", "--out", str(tmp_path / "x")])
        assert code == 2

    def test_bad_config_key(self, tmp_path):
        cfg = tmp_path / "c.txt"
        cfg.write_text("bogus=1\n")
        code = main(["run", "--problem", "benchmark", "--config", str(cfg),
                     "--out", str(tmp_path / "x")])
        assert code == 2

    def test_threads_key_rejected(self, tmp_path):
        # metadata files of earlier versions carry threads=, which no longer
        # exists: they are refused rather than silently ignored
        cfg = tmp_path / "old_meta.txt"
        cfg.write_text("problem=benchmark\nmode=deterministic\nthreads=1\n")
        code = main(["run", "--config", str(cfg),
                     "--out", str(tmp_path / "x")])
        assert code == 2

    def test_variant_key_rejected(self, tmp_path, capsys):
        # metadata files of earlier versions carry variant=None; the
        # benchmark's sign variant is gone, so they are refused by name
        cfg = tmp_path / "old_meta.txt"
        cfg.write_text("problem=benchmark\nmode=deterministic\n"
                       "variant=None\n")
        code = main(["run", "--config", str(cfg),
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "variant" in capsys.readouterr().err
        assert not (tmp_path / "x_meta.txt").exists()


# the option strings of run and mpp; a new setting changes this list
RUN_OPTIONS = [
    "--CR", "--F", "--NP", "--R", "--alpha-b", "--beta-t", "--config",
    "--delta", "--delta-eta", "--epsilon", "--eta", "--generations",
    "--help", "--history", "--max-iters", "--mode", "--mpp-nominal", "--out",
    "--problem", "--psi", "--r", "--s-b", "--samples", "--scheme", "--seed",
    "--strategy", "--worst-case", "-M", "-h"]
MPP_OPTIONS = [
    "--alpha-b", "--beta-t", "--config", "--constraint", "--d", "--delta-eta",
    "--epsilon", "--help", "--max-iters", "--problem", "--s-b", "--trace",
    "-h"]


class TestSettings:
    def test_choices_are_declared_once(self):
        from rbrdo import cli, robustness, sampling
        assert cli.SETTINGS["strategy"].choices is robustness.STRATEGIES
        assert cli.SETTINGS["scheme"].choices is sampling.SCHEMES

    @pytest.mark.parametrize("command,expected", [("run", RUN_OPTIONS),
                                                  ("mpp", MPP_OPTIONS)])
    def test_option_strings(self, command, expected):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        options = sorted(opt for action in sub.choices[command]._actions
                         for opt in action.option_strings)
        assert options == expected

    @pytest.mark.parametrize("source", [
        "NP=abc", "seed=None", "strategy=foo", "scheme=bar", "history=ture",
        "--delta 0,abc", "mpp --d 3.4,abc", "--delta nan", "--delta inf",
        "mpp --d 3,nan", "mpp --d 3.4,3.3 --beta-t inf", "--alpha-b 2",
        "--epsilon inf", "--seed -1", "--F inf", "--psi inf", "seed=-1",
        # deterministic runs refuse the MPP settings unread; rbdo reads them
        "--mode rbdo --alpha-b 2", "--mode rbdo --epsilon inf"])
    def test_malformed_value_is_a_configuration_error(self, tmp_path, capsys,
                                                      source):
        out = ["--out", str(tmp_path / "x")]
        if source.startswith("mpp"):
            argv = ["mpp", "--problem", "benchmark", "--constraint", "1",
                    *source.split()[1:]]
        else:
            argv = ["run", "--problem", "benchmark", "--mode",
                    "deterministic", "--generations", "1", *out]
            if source.startswith("--"):
                argv += source.split()
            else:
                (tmp_path / "c.txt").write_text(source + "\n")
                argv += ["--config", str(tmp_path / "c.txt")]
        assert main(argv) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "x_meta.txt").exists()

    @pytest.mark.parametrize("spelling,value", [
        ("1", True), ("TRUE", True), ("yes", True),
        ("0", False), ("False", False), ("no", False)])
    def test_boolean_spellings(self, tmp_path, spelling, value):
        (tmp_path / "c.txt").write_text(f"history={spelling}\n")
        assert main(BENCH_DET + ["--generations", "1", "--NP", "4",
                                 "--config", str(tmp_path / "c.txt"),
                                 "--out", str(tmp_path / "x")]) == 0
        assert f"history={value}" in (tmp_path / "x_meta.txt").read_text()
        assert (tmp_path / "x_history.csv").exists() is value

    def test_every_setting_round_trips_through_metadata(self, tmp_path):
        # one run per mode, with a non-default value of every setting that
        # mode reads; -M stands in for --samples
        files = {"deterministic": 2, "rbdo": 2, "rbrdo": 5}
        for mode in RUN_MODES:
            read = {key: value for key, value in NON_DEFAULT.items()
                    if mode in SETTINGS[key].reads}
            a, b = f"{mode}_a", f"{mode}_b"
            argv = ["run", "--problem", "benchmark", "--mode", mode,
                    "--out", str(tmp_path / a)]
            for key, value in read.items():
                argv += [SETTINGS[key].alias[0] if SETTINGS[key].alias
                         else flag(key)]
                argv += [] if value is True else [str(value)]
            assert main(argv) == 0, mode
            meta = (tmp_path / f"{a}_meta.txt").read_text()
            assert main(["run", "--config", str(tmp_path / f"{a}_meta.txt"),
                         "--out", str(tmp_path / b)]) == 0, mode
            settings = [ln for ln in meta.splitlines()
                        if not ln.startswith(("#", "out="))]
            assert settings == [
                ln for ln in (tmp_path / f"{b}_meta.txt").read_text()
                .splitlines() if not ln.startswith(("#", "out="))]
            for key, value in read.items():
                assert f"{key}={value}" in settings, (mode, key)
            names = sorted(p.name[len(a):]
                           for p in tmp_path.glob(f"{a}_*.csv"))
            # rbrdo: two fronts, two histories, the stats
            assert len(names) == files[mode], (mode, names)
            for name in names:
                assert ((tmp_path / f"{a}{name}").read_bytes()
                        == (tmp_path / f"{b}{name}").read_bytes()), name

    def test_defaults_match_the_dataclasses(self):
        # generations resolves per mode (500 or 100); delta is a string
        # of comma-separated levels
        exceptions = {"generations", "delta"}
        for cls in (DeParams, ModeParams, AsoslParams, RobustnessSpec):
            for field in dataclasses.fields(cls):
                if field.name not in exceptions:
                    assert SETTINGS[field.name].default == field.default, (
                        cls.__name__, field.name)
        assert SETTINGS["generations"].default is None
        assert SETTINGS["delta"].default == "0"
