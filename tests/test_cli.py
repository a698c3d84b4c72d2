import os
import subprocess
import sys

import numpy as np
import pytest

from rbrdo.cli import main

BENCH_DET = ["run", "--problem", "benchmark", "--mode", "deterministic",
             "--seed", "1"]


def run_cli(args, tmp_path, extra_env=None):
    env = dict(os.environ, RBRDO_OUTPUT_DIR=str(tmp_path))
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
        from rbrdo import EvaluatedSolution, Sense, non_dominated_filter
        proc = run_cli(["run", "--problem", "benchmark", "--mode", "rbrdo",
                        "--delta", "0", "--generations", "8", "--NP", "16",
                        "--R", "2", "--seed", "5", "--out", "nd"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        rows = (tmp_path / "nd_front_delta0.csv").read_text().splitlines()[1:]
        pop = []
        for row in rows:
            d1, d2, beta, f1, _ = map(float, row.split(","))
            pop.append(EvaluatedSolution(np.array([d1, d2, beta]),
                                         np.array([f1, beta])))
        senses = (Sense.MINIMIZE, Sense.MAXIMIZE)
        assert len(non_dominated_filter(pop, senses)) == len(pop)


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

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_variant_only_for_benchmark(self, tmp_path, source):
        argv = ["run", "--problem", "reactor", "--mode", "deterministic",
                "--generations", "1", "--out", str(tmp_path / "x")]
        if source == "flag":
            argv += ["--variant", "alternate"]
        else:
            cfg = tmp_path / "c.txt"
            cfg.write_text("variant=alternate\n")
            argv += ["--config", str(cfg)]
        assert main(argv) == 2
        assert not (tmp_path / "x_meta.txt").exists()

    def test_threads_key_rejected(self, tmp_path):
        # metadata files of earlier versions carry threads=, which no longer
        # exists: they are refused rather than silently ignored
        cfg = tmp_path / "old_meta.txt"
        cfg.write_text("problem=benchmark\nmode=deterministic\nthreads=1\n")
        code = main(["run", "--config", str(cfg),
                     "--out", str(tmp_path / "x")])
        assert code == 2
