"""Batch experiment runner.

Subcommands:

* ``run``            deterministic / rbdo / rbrdo pipelines, front files out
* ``mpp``            one standalone most-probable-point search
* ``stats-fit``      quadratic fit + goodness-of-fit of a front file
* ``list-problems``  names accepted by --problem

Each setting is declared once, in :data:`SETTINGS`. Its flag is ``--key``
with underscores turned into dashes; ``mpp`` takes the problem, variant
and MPP settings only. A ``--config`` file sets any of them as
``key=value`` under the flag's type and choices, and flags override it.
Boolean settings are plain flags; in a file they read 1/true/yes or
0/false/no. ``None`` is accepted only where it is the default.

Exit codes: 0 ok, 2 configuration error (a malformed or out-of-choice value
included), 3 numeric failure, 4 I/O failure.
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
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import __version__, problems
from .errors import NumericError, UsageError
from .formulation import build_rbdo_evaluator, sweep_robustness, sweep_specs
from .optimize import DeParams, ModeParams, de_minimize
from .reliability import AsoslParams, asosl_mpp
from .sampling import SCHEMES
from .stats import fit_front, second_difference_scale

# cross-level dispersion statistics compare equal-sized fronts: archives are
# thinned to this many beta-stratified members before the fits
FIT_SAMPLE = 50

log = logging.getLogger(__name__)

ENV_OUTPUT_DIR = "RBRDO_OUTPUT_DIR"


class Setting(NamedTuple):
    """One ``run``/``mpp`` setting; its flag is ``--key`` with dashes."""

    default: object = None
    type: Callable = str  # bool: a store_true flag
    mpp: bool = False     # ``mpp`` takes the flag too
    alias: tuple = ()
    choices: Optional[tuple] = None
    help: Optional[str] = None


SETTINGS = {
    "problem": Setting(mpp=True, help="problem name (see list-problems)"),
    "mode": Setting("rbrdo", choices=("deterministic", "rbdo", "rbrdo")),
    "delta": Setting("0", help="comma-separated noise levels (rbrdo)"),
    "strategy": Setting("effective_mean", choices=(
        "effective_mean", "type2", "penalty", "none")),
    "samples": Setting(50, int, alias=("-M",),
                       help="neighborhood samples per evaluation"),
    "eta": Setting(None, float, help="type2 robustness threshold"),
    "scheme": Setting("lhs", choices=SCHEMES),
    "F": Setting(0.5, float),
    "CR": Setting(0.8, float),
    "NP": Setting(50, int),
    "generations": Setting(None, int,
                           help="default 500 for rbrdo, 100 otherwise"),
    "r": Setting(0.9, float),
    "R": Setting(10, int),
    "psi": Setting(1e6, float),
    "beta_t": Setting(3.0, float, mpp=True,
                      help="target reliability index (rbdo mode / mpp)"),
    "delta_eta": Setting(1.0, float, mpp=True),
    "alpha_b": Setting(1e-4, float, mpp=True),
    "s_b": Setting(0.5, float, mpp=True),
    "epsilon": Setting(1e-6, float, mpp=True),
    "max_iters": Setting(200, int, mpp=True),
    "seed": Setting(0, int),
    "mpp_nominal": Setting(False, bool, help=(
        "check constraints once per candidate at the nominal design "
        "instead of per sample")),
    "worst_case": Setting(False, bool, help=(
        "type2 compares against the worst sample instead of the sample "
        "mean")),
    "history": Setting(False, bool,
                       help="write per-generation progress files"),
    "variant": Setting(mpp=True, choices=("standard", "alternate"),
                       help="benchmark constraint sign family"),
    "out": Setting(help="output path prefix"),
}

_BOOLEANS = {"1": True, "true": True, "yes": True,
             "0": False, "false": False, "no": False}


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


def _parse_setting(key: str, raw: str):
    """A config-file value, held to its flag's type and choices."""
    s = SETTINGS[key]
    if raw == "None" and s.default is None:
        return None
    try:
        value = _BOOLEANS[raw.lower()] if s.type is bool else s.type(raw)
    except (KeyError, ValueError):
        what = "1/true/yes/0/false/no" if s.type is bool else s.type.__name__
        raise UsageError(f"{key}={raw}: expected {what}") from None
    if s.choices and value not in s.choices:
        raise UsageError(f"{key}={raw}: expected one of "
                         f"{', '.join(s.choices)}")
    return value


def _floats(text: str, key: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok]
        if np.all(np.isfinite(values)):
            return values
    except ValueError:
        pass
    raise UsageError(f"{key}={text}: expected comma-separated finite numbers")


def _resolve_config(args) -> dict:
    cfg = {key: s.default for key, s in SETTINGS.items()}
    if args.config:
        file_cfg = _read_config_file(args.config)
        unknown = set(file_cfg) - set(cfg)
        if unknown:
            raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
        for key, raw in file_cfg.items():
            cfg[key] = _parse_setting(key, raw)
    for key in cfg:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    if not cfg["problem"]:
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


def _write_front(path: str, rows, header: list[str]):
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
    if cfg["variant"]:
        if cfg["problem"] != "benchmark":
            raise UsageError("--variant applies to the benchmark problem only")
        options["variant"] = cfg["variant"]
    det = problems.get_deterministic(cfg["problem"], **options)
    unc = problems.get_rbrdo(cfg["problem"], **options)
    unc = dataclasses.replace(
        unc, psi=cfg["psi"],
        asosl_defaults={key: cfg[key] for key in (
            "delta_eta", "alpha_b", "s_b", "epsilon", "max_iters")})
    return det, unc


def cmd_run(args) -> int:
    cfg = _resolve_config(args)
    levels = _floats(cfg["delta"], "delta")
    t0 = time.perf_counter()
    det, unc = _problem_objects(cfg)
    mode = cfg["mode"]
    de = {key: cfg[key]
          for key in ("F", "CR", "NP", "generations", "seed", "psi")}
    written = []

    # every setting is checked before the output directory is made, and
    # the directory before the optimizer runs
    if mode != "rbrdo":
        params = DeParams(**de)
        if mode == "deterministic":
            evaluator, bounds, sense = det, det.bounds, det.sense
            beta = 0.0
        else:
            beta = cfg["beta_t"]
            evaluator, bounds, sense = build_rbdo_evaluator(
                unc, beta, mpp_per_sample=not cfg["mpp_nominal"])
        prefix = _output_prefix(cfg)
        history = [] if cfg["history"] else None
        best = de_minimize(evaluator, bounds, params, sense=sense,
                           history=history)
        row = list(best.decision) + [beta] + list(best.objectives) + [0.0]
        path = f"{prefix}_front.csv"
        _write_front(path, [row], _front_header(bounds.dim, 1))
        written.append(path)
        written.extend(_write_history(prefix, "", history))
        f = best.objectives[0]
        print(f"deterministic optimum f={f:.6f} "
              f"violation={best.constraint_violation:.3g}"
              if mode == "deterministic" else
              f"rbdo optimum at beta={beta:g}: f={f:.6f}")
    else:
        mode_params = ModeParams(**de, r=cfg["r"], R=cfg["R"])
        robust = {key: cfg[key] for key in (
            "samples", "strategy", "eta", "scheme", "worst_case")}
        sweep_specs(unc, levels, **robust)
        prefix = _output_prefix(cfg)
        histories = {} if cfg["history"] else None
        archives, errors = sweep_robustness(
            unc, levels, mode_params, mpp_per_sample=not cfg["mpp_nominal"],
            histories=histories, **robust)
        if histories:
            for level, hist in histories.items():
                written.extend(_write_history(prefix, f"_delta{level:g}",
                                              hist, _MODE_HISTORY_HEADER))
        stats_rows = []
        n_dec = unc.det_bounds.dim
        n_obj = unc.n_objectives
        for level, archive in archives.items():
            # a member's decision ends with its beta, its objectives with
            # the reliability objective that repeats it; rows go by (beta, f1)
            dec, obj = archive.decisions, archive.objectives
            order = np.lexsort((obj[:, 0], dec[:, -1]))
            rows = np.column_stack([dec, obj[:, :-1],
                                    np.full(len(dec), level)])[order]
            path = f"{prefix}_front_delta{level:g}.csv"
            _write_front(path, rows, _front_header(n_dec, n_obj))
            written.append(path)
            if len(rows) >= 4:
                beta_col, f_col = rows[:, n_dec], rows[:, n_dec + 1]
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
    d = np.array(_floats(args.d, "d"))
    if d.size != unc.det_bounds.dim:
        raise UsageError(f"expected {unc.det_bounds.dim} design values")
    # the design a run would score: inside the box and the evaluable domain
    unc.check_designs(d)
    if unc.domain_guard is not None and unc.domain_guard(d) > 0.0:
        raise UsageError("the problem's domain guard rejects this design")
    params = AsoslParams(beta_t=cfg["beta_t"], **unc.asosl_defaults)
    pf = unc.constraints[index - 1]
    result = asosl_mpp(pf, *unc.random_vars(d), d, params)
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


def _add_settings(p: argparse.ArgumentParser, command: str):
    p.add_argument("--config", help="key=value config file; flags override")
    for key, s in SETTINGS.items():
        if command == "run" or s.mpp:
            kind = ({"action": "store_true"} if s.type is bool
                    else {"type": s.type, "choices": s.choices})
            p.add_argument(f"--{key.replace('_', '-')}", *s.alias,
                           default=None, help=s.help, **kind)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbrdo",
        description="Reliability-based robust design multi-objective runs")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a configured pipeline")
    _add_settings(p_run, "run")
    p_run.set_defaults(func=cmd_run)

    p_mpp = sub.add_parser("mpp", help="run one MPP search and print it")
    _add_settings(p_mpp, "mpp")
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
