"""Batch experiment runner.

Subcommands:

* ``run``            deterministic / rbdo / rbrdo pipelines, front files out
* ``mpp``            one standalone most-probable-point search
* ``stats-fit``      quadratic fit + goodness-of-fit of a front file
* ``list-problems``  names accepted by --problem

Exit codes: 0 ok, 2 configuration error, 3 numeric failure, 4 I/O failure.
Front files are deterministic byte-for-byte for a fixed (config, seed):
rows are sorted and floats use shortest round-trip formatting. The
``RBRDO_OUTPUT_DIR`` environment variable sets the default output directory.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import logging
import os
import platform
import sys
import time

import numpy as np

from . import __version__, problems
from .errors import NumericError, UsageError
from .formulation import build_rbdo_evaluator, sweep_robustness
from .optimize import DeParams, ModeParams, de_minimize
from .reliability import AsoslParams, RandomVariableSpec, asosl_mpp
from .stats import fit_front, second_difference_scale

# cross-level dispersion statistics compare equal-sized fronts: archives are
# thinned to this many beta-stratified members before the fits
FIT_SAMPLE = 50

log = logging.getLogger(__name__)

ENV_OUTPUT_DIR = "RBRDO_OUTPUT_DIR"

_DEFAULTS = {
    "mode": "rbrdo",
    "delta": "0",
    "strategy": "effective_mean",
    "samples": 50,
    "eta": None,
    "scheme": "lhs",
    "F": 0.5,
    "CR": 0.8,
    "NP": 50,
    "generations": None,  # 100 for deterministic/rbdo, 500 for rbrdo
    "r": 0.9,
    "R": 10,
    "psi": 1e6,
    "beta_t": 3.0,
    "delta_eta": 1.0,
    "alpha_b": 1e-4,
    "s_b": 0.5,
    "epsilon": 1e-6,
    "max_iters": 200,
    "seed": 0,
    "mpp_nominal": False,
    "worst_case": False,
    "history": False,
    "variant": None,
    "out": None,
}

_TYPES = {
    "samples": int, "NP": int, "generations": int, "R": int,
    "max_iters": int, "seed": int,
    "F": float, "CR": float, "r": float, "psi": float, "beta_t": float,
    "delta_eta": float, "alpha_b": float, "s_b": float, "epsilon": float,
    "eta": float,
    "mpp_nominal": lambda s: s.strip().lower() in ("1", "true", "yes"),
    "worst_case": lambda s: s.strip().lower() in ("1", "true", "yes"),
    "history": lambda s: s.strip().lower() in ("1", "true", "yes"),
}


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _read_config_file(path: str) -> dict:
    cfg = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            cfg[key.strip()] = value.strip()
    return cfg


def _resolve_config(args) -> dict:
    cfg = dict(_DEFAULTS)
    if args.config:
        file_cfg = _read_config_file(args.config)
        unknown = set(file_cfg) - set(cfg) - {"problem"}
        if unknown:
            raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
        for key, raw in file_cfg.items():
            if key == "problem":
                cfg["problem"] = raw
                continue
            if raw == "None":
                cfg[key] = None
                continue
            cfg[key] = _TYPES.get(key, str)(raw)
    for key in cfg:
        flag = getattr(args, key, None)
        if flag is not None and flag is not False:
            cfg[key] = flag
    if getattr(args, "problem", None):
        cfg["problem"] = args.problem
    if "problem" not in cfg or not cfg["problem"]:
        raise UsageError("--problem is required")
    if cfg["generations"] is None:
        cfg["generations"] = 500 if cfg["mode"] == "rbrdo" else 100
    if cfg["strategy"] == "type2" and cfg["eta"] is None:
        raise UsageError("--eta is required for the type2 strategy")
    return cfg


def _output_prefix(cfg) -> str:
    prefix = cfg["out"]
    if prefix is None:
        prefix = f"{cfg['problem']}_{cfg['mode']}"
    base_dir = os.environ.get(ENV_OUTPUT_DIR, "")
    if base_dir and not os.path.isabs(prefix):
        prefix = os.path.join(base_dir, prefix)
    parent = os.path.dirname(prefix)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return prefix


def _front_header(n_dec: int, n_obj: int) -> list[str]:
    return ([f"d{i + 1}" for i in range(n_dec)] + ["beta"]
            + [f"f{i + 1}" for i in range(n_obj)] + ["delta"])


def _write_front(path: str, rows: list[list[float]], header: list[str]):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(float(v)) for v in row) + "\n")


_DE_HISTORY_HEADER = "generation,best_fitness,mean_fitness"
_MODE_HISTORY_HEADER = "generation,offspring,feasible_members"


def _write_history(prefix: str, tag: str, history,
                   header: str = _DE_HISTORY_HEADER) -> list[str]:
    """Per-generation progress records in delimited text."""
    if not history:
        return []
    path = f"{prefix}_history{tag}.csv"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in history:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    return [path]


def _write_metadata(path: str, cfg: dict, info: dict):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, value in info.items():
            fh.write(f"# {key}: {value}\n")
        for key in sorted(cfg):
            fh.write(f"{key}={_fmt(cfg[key])}\n")


def _problem_objects(cfg):
    options = {}
    if cfg.get("variant"):
        if cfg["problem"] != "benchmark":
            raise UsageError("--variant applies to the benchmark problem only")
        options["variant"] = cfg["variant"]
    det = problems.get_deterministic(cfg["problem"], **options)
    unc = problems.get_rbrdo(cfg["problem"], **options)
    unc = dataclasses.replace(
        unc,
        psi=cfg["psi"],
        asosl_defaults={"delta_eta": cfg["delta_eta"], "alpha_b": cfg["alpha_b"],
                        "s_b": cfg["s_b"], "epsilon": cfg["epsilon"],
                        "max_iters": cfg["max_iters"]},
    )
    return det, unc


def cmd_run(args) -> int:
    cfg = _resolve_config(args)
    prefix = _output_prefix(cfg)
    t0 = time.perf_counter()
    det, unc = _problem_objects(cfg)
    mode = cfg["mode"]
    if mode not in ("deterministic", "rbdo", "rbrdo"):
        raise UsageError(f"unknown mode {mode!r}")

    de = DeParams(F=cfg["F"], CR=cfg["CR"], NP=cfg["NP"],
                  generations=cfg["generations"], seed=cfg["seed"],
                  psi=cfg["psi"])
    written = []

    if mode == "deterministic":
        history = [] if cfg["history"] else None
        best = de_minimize(det.evaluator(), det.bounds, de, sense=det.sense,
                           history=history)
        row = list(best.decision) + [0.0] + list(best.objectives) + [0.0]
        path = f"{prefix}_front.csv"
        _write_front(path, [row], _front_header(det.bounds.dim, 1))
        written.append(path)
        written.extend(_write_history(prefix, "", history))
        print(f"deterministic optimum f={best.objectives[0]:.6f} "
              f"violation={best.constraint_violation:.3g}")
    elif mode == "rbdo":
        evaluator, bounds, sense = build_rbdo_evaluator(
            unc, cfg["beta_t"], mpp_per_sample=not cfg["mpp_nominal"])
        history = [] if cfg["history"] else None
        best = de_minimize(evaluator, bounds, de, sense=sense,
                           history=history)
        row = (list(best.decision) + [cfg["beta_t"]] + list(best.objectives)
               + [0.0])
        path = f"{prefix}_front.csv"
        _write_front(path, [row], _front_header(bounds.dim, 1))
        written.append(path)
        written.extend(_write_history(prefix, "", history))
        print(f"rbdo optimum at beta={cfg['beta_t']:g}: "
              f"f={best.objectives[0]:.6f}")
    else:
        levels = [float(tok) for tok in str(cfg["delta"]).split(",") if tok]
        mode_params = ModeParams(F=cfg["F"], CR=cfg["CR"], NP=cfg["NP"],
                                 generations=cfg["generations"],
                                 seed=cfg["seed"], psi=cfg["psi"],
                                 r=cfg["r"], R=cfg["R"])
        histories = {} if cfg["history"] else None
        archives, errors = sweep_robustness(
            unc, levels, mode_params, samples=cfg["samples"],
            strategy=cfg["strategy"], eta=cfg["eta"], scheme=cfg["scheme"],
            worst_case=cfg["worst_case"],
            mpp_per_sample=not cfg["mpp_nominal"], histories=histories)
        if histories:
            for level, hist in histories.items():
                written.extend(_write_history(prefix, f"_delta{level:g}",
                                              hist, _MODE_HISTORY_HEADER))
        stats_rows = []
        n_dec = unc.det_bounds.dim
        n_obj = unc.n_objectives
        for level in levels:
            if level in errors:
                continue
            archive = archives[level]
            rows = []
            for member in archive:
                d = member.decision[:-1]
                beta = member.decision[-1]
                objs = member.objectives[:-1]
                rows.append(list(d) + [beta] + list(objs) + [level])
            rows.sort(key=lambda r: (r[n_dec], r[n_dec + 1]))
            path = f"{prefix}_front_delta{level:g}.csv"
            _write_front(path, rows, _front_header(n_dec, n_obj))
            written.append(path)
            if len(rows) >= 4:
                beta_col = np.array([r[n_dec] for r in rows])
                f_col = np.array([r[n_dec + 1] for r in rows])
                # non-decreasing indices: drop the repeats (np.unique
                # would import numpy.ma at the end of every run)
                keep = np.round(
                    np.linspace(0, len(rows) - 1, FIT_SAMPLE)).astype(int)
                keep = keep[np.diff(keep, prepend=-1) > 0]
                report = fit_front(beta_col[keep], f_col[keep])
                sd = second_difference_scale(beta_col[keep], f_col[keep])
                stats_rows.append((level, report, sd))
                print(f"delta={level:g}: {len(rows)} front members, {report} "
                      f"sd_scale={sd:.4g}")
            else:
                print(f"delta={level:g}: {len(rows)} front members "
                      f"(too few for a fit)")
        if stats_rows:
            stats_path = f"{prefix}_stats.csv"
            with open(stats_path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write("delta,n,a0,a1,a2,sqr,r2,r2_adj,rms,sd_scale\n")
                for level, rep, sd in stats_rows:
                    a0, a1, a2 = rep.coefficients
                    fh.write(",".join(_fmt(v) for v in
                                      [level, rep.n, a0, a1, a2, rep.sqr,
                                       rep.r2, rep.r2_adj, rep.rms, sd])
                             + "\n")
            written.append(stats_path)
        if errors:
            for level, exc in errors.items():
                print(f"delta={level:g} failed: {exc}", file=sys.stderr)
            raise NumericError("one or more sweep levels failed")

    info = {
        "tool": f"rbrdo {__version__}",
        "numpy": np.__version__,
        "python": platform.python_version(),
        "wall_time_s": f"{time.perf_counter() - t0:.3f}",
        "outputs": ";".join(written),
    }
    meta_path = f"{prefix}_meta.txt"
    _write_metadata(meta_path, cfg, info)
    print(f"metadata: {meta_path}")
    return 0


def cmd_mpp(args) -> int:
    cfg = _resolve_config(args)
    _, unc = _problem_objects(cfg)
    index = args.constraint
    if not 1 <= index <= len(unc.constraints):
        raise UsageError(f"constraint index must lie in 1..{len(unc.constraints)}")
    d = np.array([float(tok) for tok in args.d.split(",")])
    if d.size != unc.det_bounds.dim:
        raise UsageError(f"expected {unc.det_bounds.dim} design values")
    params = AsoslParams(beta_t=cfg["beta_t"], delta_eta=cfg["delta_eta"],
                         alpha_b=cfg["alpha_b"], s_b=cfg["s_b"],
                         epsilon=cfg["epsilon"], max_iters=cfg["max_iters"])
    pf = unc.constraints[index - 1]
    mu, sigma = unc.random_vars(d)
    rvs = [RandomVariableSpec(m, s) for m, s in zip(mu, sigma)]
    result = asosl_mpp(pf, rvs, d, params)
    print(f"constraint {pf.name} at beta={cfg['beta_t']:g}:")
    print(f"  u* = {np.array2string(result.u_star, precision=6)}")
    print(f"  x* = {np.array2string(result.x_star, precision=6)}")
    print(f"  g* = {result.g_star:.8f}")
    print(f"  iterations = {result.iterations}  converged = {result.converged}")
    if args.trace:
        print("k,G,tau,t_bar,step_norm," + ",".join(
            f"u{i + 1}" for i in range(result.u_star.size)))
        for k, u, g, tau, t_bar, err in result.trace:
            cells = [str(k), _fmt(g), _fmt(tau), _fmt(t_bar), _fmt(err)]
            cells += [_fmt(float(v)) for v in u]
            print(",".join(cells))
    return 0


def cmd_stats_fit(args) -> int:
    with open(args.front, "r", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise UsageError(f"{args.front}: empty file") from None
        rows = [row for row in reader if row]
    for col in (args.x, args.y):
        if col not in header:
            raise UsageError(f"{args.front}: no column {col!r} "
                             f"(available: {', '.join(header)})")
    ix, iy = header.index(args.x), header.index(args.y)
    try:
        x = np.array([float(row[ix]) for row in rows])
        y = np.array([float(row[iy]) for row in rows])
    except (ValueError, IndexError) as exc:
        raise UsageError(f"{args.front}: malformed data row: {exc}") from None
    if x.size < 4:
        raise UsageError("at least 4 data rows are required")
    print(fit_front(x, y))
    return 0


def cmd_list_problems(args) -> int:
    for name in problems.list_problems():
        print(name)
    return 0


def _add_config_flags(p: argparse.ArgumentParser):
    p.add_argument("--problem", help="problem name (see list-problems)")
    p.add_argument("--config", help="key=value config file; flags override")
    p.add_argument("--seed", type=int)
    p.add_argument("--beta-t", dest="beta_t", type=float,
                   help="target reliability index (rbdo mode / mpp)")
    p.add_argument("--delta-eta", dest="delta_eta", type=float)
    p.add_argument("--alpha-b", dest="alpha_b", type=float)
    p.add_argument("--s-b", dest="s_b", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--max-iters", dest="max_iters", type=int)
    p.add_argument("--psi", type=float)
    p.add_argument("--variant", choices=["standard", "alternate"],
                   help="benchmark constraint sign family")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbrdo",
        description="Reliability-based robust design multi-objective runs")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a configured pipeline")
    _add_config_flags(p_run)
    p_run.add_argument("--mode",
                       choices=["deterministic", "rbdo", "rbrdo"])
    p_run.add_argument("--delta", help="comma-separated noise levels (rbrdo)")
    p_run.add_argument("--strategy",
                       choices=["effective_mean", "type2", "penalty", "none"])
    p_run.add_argument("--samples", "-M", type=int,
                       help="neighborhood samples per evaluation")
    p_run.add_argument("--eta", type=float, help="type2 robustness threshold")
    p_run.add_argument("--scheme", choices=["lhs", "uniform"])
    p_run.add_argument("--F", type=float)
    p_run.add_argument("--CR", type=float)
    p_run.add_argument("--NP", type=int)
    p_run.add_argument("--generations", type=int)
    p_run.add_argument("--r", type=float)
    p_run.add_argument("--R", type=int)
    p_run.add_argument("--mpp-nominal", dest="mpp_nominal",
                       action="store_true", default=None,
                       help="check constraints once per candidate at the "
                            "nominal design instead of per sample")
    p_run.add_argument("--worst-case", dest="worst_case",
                       action="store_true", default=None,
                       help="type2 compares against the worst sample "
                            "instead of the sample mean")
    p_run.add_argument("--history", action="store_true", default=None,
                       help="write per-generation progress files")
    p_run.add_argument("--out", help="output path prefix")
    p_run.set_defaults(func=cmd_run)

    p_mpp = sub.add_parser("mpp", help="run one MPP search and print it")
    _add_config_flags(p_mpp)
    p_mpp.add_argument("--constraint", type=int, required=True,
                       help="1-based probabilistic constraint index")
    p_mpp.add_argument("--d", required=True,
                       help="comma-separated design vector")
    p_mpp.add_argument("--trace", action="store_true")
    p_mpp.set_defaults(func=cmd_mpp)

    p_fit = sub.add_parser("stats-fit", help="quadratic goodness-of-fit")
    p_fit.add_argument("--front", required=True, help="front CSV file")
    p_fit.add_argument("--x", default="beta")
    p_fit.add_argument("--y", default="f1")
    p_fit.set_defaults(func=cmd_stats_fit)

    p_list = sub.add_parser("list-problems", help="print problem names")
    p_list.set_defaults(func=cmd_list_problems)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
