"""Command-line front end: band export, single runs, scaling and resonance sweeps.

Every CSV artifact starts with a `# runspec {...}` comment carrying the
fully merged parameter set, so a run can be reproduced bit-for-bit from
its own output.  Relative output paths are resolved against the
BLOCHDECAY_OUTDIR environment variable when it is set.  An optional
config file (one `key = value` per line) overrides built-in defaults;
command-line flags override both.

Exit codes: 0 success, 2 invalid arguments, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from itertools import repeat
from pathlib import Path

import numpy as np

from .bands import DEFAULT_CUTOFF, LatticeParams, band_energies, check_band_grid, mean_band_gap
from .dynamics import SolverConfig, evolve_lattice, step_grid, trace_rows
from .fitting import (DEFAULT_WINDOW_END, DEFAULT_WINDOW_START, MIN_CYCLES,
                      compare_models, extract_plateaus, fit_exponential)
from .stepmodel import (DegenerateSpectrumError, StepIngredients, evolve_steps,
                        gamma_asymptotic, renorm_fit, ret_resonances,
                        spectral_decompose, step_operator, z_exact,
                        z_first_order)

OUTDIR_ENV = "BLOCHDECAY_OUTDIR"


class StageError(RuntimeError):
    """A pipeline stage failed; the message names the stage."""

    def __init__(self, message: str, stage: str = ""):
        super().__init__(message)
        self.stage = stage


def _stage(name, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except StageError:
        raise
    except Exception as exc:
        raise StageError(f"{name}: {exc}", stage=name) from exc


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _resolve_out(path: str) -> Path:
    p = Path(path)
    outdir = os.environ.get(OUTDIR_ENV)
    if outdir and not p.is_absolute():
        p = Path(outdir) / p
    p.parent.mkdir(parents=True, exist_ok=True)
    return p


def _write_csv(path: str, runspec: str, header: str, rows,
               comments: list[str] | None = None) -> Path:
    target = _resolve_out(path)
    with open(target, "w", newline="") as fh:
        fh.write(f"# runspec {runspec}\n")
        for line in comments or ():
            fh.write(f"# {line}\n")
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")
    return target


def _runspec_json(command: str, opts: dict) -> str:
    return json.dumps({"command": command, **{k: opts[k] for k in sorted(opts)}})


# ---------------------------------------------------------------------------
# flag registry: (name, type, default, help); None default means required
# ---------------------------------------------------------------------------

_COMMON = [("config", str, "", "config file with `key = value` lines overriding defaults")]

_SPECS: dict[str, list[tuple]] = {
    "bands": _COMMON + [
        ("v0", float, None, "lattice depth in recoil units"),
        ("n-bands", int, 3, "number of bands to export"),
        ("grid", int, 512, "quasimomentum grid points over [-1, 1)"),
        ("cutoff", int, 32, "plane-wave modes per side"),
        ("out", str, "bands.csv", "output CSV path"),
    ],
    "run": _COMMON + [
        ("v0", float, None, "lattice depth in recoil units"),
        ("f0", float, None, "force in recoil units"),
        ("cycles", int, 10, "Bloch cycles to simulate"),
        ("cutoff", int, 16, "plane-wave modes per side for the dynamics"),
        ("dt", float, 0.01, "time step in hbar/E_rec"),
        ("k0", float, 0.0, "initial quasimomentum"),
        ("grid", int, 512, "band-structure grid for the mean gap"),
        ("band-cutoff", int, DEFAULT_CUTOFF, "plane-wave cutoff for the mean gap and P1, P2"),
        ("fit-window", str, f"{DEFAULT_WINDOW_START}:{DEFAULT_WINDOW_END}",
         "plateau window LO:HI for the exponential fit"),
        ("out-prefix", str, "run", "prefix for the four output artifacts"),
    ],
    "scaling": _COMMON + [
        ("v0", str, "1,2,3,4", "comma-separated lattice depths"),
        ("f0-min", float, 0.5, "sweep start"),
        ("f0-max", float, 4.0, "sweep end"),
        ("n-points", int, 200, "grid points per depth"),
        ("grid", int, 512, "band-structure grid for the mean gap"),
        ("cutoff", int, DEFAULT_CUTOFF, "plane-wave cutoff for the mean gap"),
        ("out", str, "scaling.csv", "output CSV path"),
    ],
    "ret": _COMMON + [
        ("v0", float, 1.0, "lattice depth in recoil units"),
        ("f0-min", float, 0.8, "scan start"),
        ("f0-max", float, 2.6, "scan end"),
        ("n-points", int, 200, "scan points"),
        ("j-max", int, 2, "highest resonance order to predict"),
        ("grid", int, 512, "band-structure grid for the mean gap"),
        ("cutoff", int, DEFAULT_CUTOFF, "plane-wave cutoff for the mean gap"),
        ("out", str, "ret.csv", "output CSV path"),
    ],
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blochdecay",
        description="Interband decay and wave-function renormalization in an "
                    "accelerated 1-D optical lattice")
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {"bands": cmd_bands, "run": cmd_run,
                "scaling": cmd_scaling, "ret": cmd_ret}
    for command, spec in _SPECS.items():
        sp = sub.add_parser(command)
        for name, typ, default, help_text in spec:
            sp.add_argument(f"--{name}", type=typ, default=argparse.SUPPRESS,
                            required=default is None, help=help_text,
                            dest=name.replace("-", "_"))
        sp.set_defaults(handler=handlers[command])
    return parser


def _read_config(path: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" in line:
            key, _, val = line.partition("=")
        else:
            key, _, val = line.partition(" ")
        key = key.strip().replace("-", "_")
        val = val.strip()
        if not key or not val:
            raise ValueError(f"malformed config line: {raw!r}")
        pairs[key] = val
    return pairs


def _merge_options(command: str, args: argparse.Namespace,
                   parser: argparse.ArgumentParser) -> dict:
    spec = {name.replace("-", "_"): (typ, default)
            for name, typ, default, _ in _SPECS[command]}
    merged = {key: default for key, (_, default) in spec.items() if default is not None}
    given = {k: v for k, v in vars(args).items() if k in spec}
    config_path = given.get("config", "")
    if config_path:
        try:
            pairs = _read_config(config_path)
        except OSError as exc:
            parser.error(f"cannot read config file: {exc}")
        for key, raw in pairs.items():
            if key not in spec:
                parser.error(f"unknown config key {key!r} for command {command!r}")
            typ = spec[key][0]
            try:
                merged[key] = typ(raw)
            except ValueError:
                parser.error(f"bad config value for {key!r}: {raw!r}")
    merged.update(given)
    if command == "run":
        try:
            lo, hi = _parse_window(merged["fit_window"])
        except ValueError:
            parser.error(f"bad --fit-window {merged['fit_window']!r}, expected LO:HI")
        if not 0 <= lo < hi:  # a fit needs two plateaus; HI is clamped later
            parser.error(f"bad --fit-window {merged['fit_window']!r}, need 0 <= LO < HI")
    return merged


def _parse_window(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    return int(lo), int(hi)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_bands(opts: dict) -> int:
    runspec = _runspec_json("bands", opts)
    params = _stage("parameters", LatticeParams, opts["v0"], 1.0)
    _stage("parameters", check_band_grid, opts["n_bands"], opts["grid"], opts["cutoff"])
    table = _stage("band-structure", band_energies, params,
                   n_bands=opts["n_bands"], grid_size=opts["grid"],
                   cutoff=opts["cutoff"])
    header = "k," + ",".join(f"E{b + 1}" for b in range(opts["n_bands"]))
    target = _stage("write", _write_csv, opts["out"], runspec, header,
                    ((k, *row) for k, row in zip(table.k_grid, table.energies)))
    print(f"wrote {target}")
    return 0


def cmd_run(opts: dict) -> int:
    runspec = _runspec_json("run", opts)
    params = _stage("parameters", LatticeParams, opts["v0"], opts["f0"])
    cfg = _stage("parameters", SolverConfig, cutoff=opts["cutoff"],
                 dt=opts["dt"], n_cycles=opts["cycles"])
    _stage("parameters", step_grid, params, cfg, opts["k0"])
    _stage("parameters", check_band_grid, 2, opts["grid"], opts["band_cutoff"])
    if opts["cycles"] < MIN_CYCLES:
        raise StageError(f"parameters: need cycles >= {MIN_CYCLES} to extract plateaus, "
                         f"got {opts['cycles']}", stage="parameters")
    lo, hi = _parse_window(opts["fit_window"])
    if lo >= opts["cycles"]:
        raise StageError(f"parameters: fit window {opts['fit_window']} needs cycles >= {lo + 1}, "
                         f"got {opts['cycles']}", stage="parameters")
    hi = min(hi, opts["cycles"])  # only HI is clamped, to the last plateau
    gap = _stage("band-structure", mean_band_gap, params,
                 grid_size=opts["grid"], cutoff=opts["band_cutoff"])
    ing = _stage("step-ingredients", StepIngredients.from_lattice, params,
                 mean_gap=gap)
    op = _stage("step-ingredients", step_operator, ing)
    series = _stage("effective-model", evolve_steps, op, opts["cycles"],
                    t_bloch=params.bloch_period)
    try:
        fit_eff = _stage("effective-model", renorm_fit, op, series)
    except StageError as exc:
        if not isinstance(exc.__cause__, DegenerateSpectrumError):
            raise
        fit_eff = None  # fully decayed edge (e.g. v0 = 0); no spectral asymptotics
    trace = _stage("full-solver", evolve_lattice, params, cfg, k0=opts["k0"])
    plate_full = _stage("plateau-extraction", extract_plateaus, trace, params,
                        band_cutoff=opts["band_cutoff"])
    if np.all(plate_full.probabilities[lo:hi + 1] > 0):
        fit_full = _stage("fit", fit_exponential, plate_full, (lo, hi))
    else:
        fit_full = None  # survival hit zero; no exponential regime to fit
    devs, max_dev = _stage("comparison", compare_models, plate_full, series)

    prefix = opts["out_prefix"]
    t_csv = _stage("write", _write_csv, f"{prefix}_trace.csv", runspec,
                   "tau,P1,P2,Prest,norm", trace_rows(trace, params, opts["band_cutoff"]))
    s_csv = _stage("write", _write_csv, f"{prefix}_steps.csv", runspec, "n,t,P",
                   ((n, series.t_bloch * (n + 0.5), p)  # each step ends at a crossing
                    for n, p in enumerate(series.probabilities.tolist())))
    c_csv = _stage("write", _write_csv, f"{prefix}_compare.csv", runspec,
                   "n,P_full,P_eff,rel_dev",
                   ((n, pf, pe, d) for n, (pf, pe, d) in
                    enumerate(zip(plate_full.probabilities, series.probabilities, devs))))
    fit_doc = {
        "runspec": json.loads(runspec),
        "full_fit": fit_full.to_json_dict() if fit_full else None,
        "effective": {
            "gamma_per_cycle": fit_eff.gamma,
            "gamma_per_time": fit_eff.gamma / params.bloch_period,
            "z": fit_eff.z,
            "z_first_order": z_first_order(ing) if ing.s12 > 0 else None,
            "converged": fit_eff.converged,
            "tol_achieved": fit_eff.tol_achieved,
        } if fit_eff else None,
        "mean_gap": gap,
        "phi": ing.phi,
        "comparison_max_rel_dev": None if math.isnan(max_dev) else max_dev,
    }
    def write_fit():
        target = _resolve_out(f"{prefix}_fit.json")
        target.write_text(json.dumps(fit_doc, sort_keys=True, indent=2) + "\n")
        return target
    f_json = _stage("write", write_fit)
    print(f"wrote {t_csv} {s_csv} {f_json} {c_csv}")
    if fit_full:
        print(f"z={fit_full.z:.6g} gamma={fit_full.gamma:.6g} "
              f"max_rel_dev={max_dev:.4g}")
    return 0


def _sweep(params: LatticeParams, gap: float, quantity):
    """Phase and quantity(spectrum) of the step model over the forces of params.

    Degenerate points get nan in both and one stderr line each.
    """
    with np.errstate(over="ignore"):  # a phase that overflows is an invalid force
        if not math.isfinite(-2.0 * math.pi * gap / params.f0.min(initial=math.inf)):
            raise StageError(f"parameters: f0={params.f0.min()} too small at v0={params.v0}: "
                             "the phase per cycle overflows", stage="parameters")
    ing = StepIngredients.from_lattice(params, mean_gap=gap)
    sd = spectral_decompose(step_operator(ing))
    for f0 in params.f0[sd.degenerate]:
        print(f"point v0={params.v0} f0={f0} failed: eigenvalue moduli coincide",
              file=sys.stderr)
    return np.where(sd.degenerate, np.nan, ing.phi), quantity(sd)


def _force_grid(opts: dict) -> np.ndarray:
    """The checked sweep forces linspace(f0-min, f0-max, n-points) of scaling and ret."""
    if opts["n_points"] < 0 or not 0 < opts["f0_min"] <= opts["f0_max"] < math.inf:
        raise StageError("parameters: need n-points >= 0 and 0 < f0-min <= f0-max < inf, got "
                         f"n-points {opts['n_points']}, f0-min {opts['f0_min']}, "
                         f"f0-max {opts['f0_max']}", stage="parameters")
    return np.linspace(opts["f0_min"], opts["f0_max"], opts["n_points"])


def cmd_scaling(opts: dict) -> int:
    runspec = _runspec_json("scaling", opts)
    try:
        v0_list = [float(x) for x in str(opts["v0"]).split(",") if x.strip()]
    except ValueError as exc:
        raise StageError(f"parameters: bad depth list {opts['v0']!r}: {exc}",
                         stage="parameters")
    f0_grid = _force_grid(opts)
    depths = [_stage("parameters", LatticeParams, v0, f0_grid) for v0 in v0_list]
    _stage("parameters", check_band_grid, 2, opts["grid"], opts["cutoff"])
    columns = []
    for params in depths:
        gap = _stage("band-structure", mean_band_gap, params,
                     grid_size=opts["grid"], cutoff=opts["cutoff"])
        phi, z = _stage("sweep", _sweep, params, gap, z_exact)
        columns.append((params.v0, phi, z - 1.0))
    rows = (row for v0, phi, zm1 in columns
            for row in zip(repeat(v0), f0_grid.tolist(), phi.tolist(), zm1.tolist()))
    target = _stage("write", _write_csv, opts["out"], runspec, "v0,f0,phi,Z_minus_1", rows)
    print(f"wrote {target}")
    return 0


def cmd_ret(opts: dict) -> int:
    runspec = _runspec_json("ret", opts)
    f0_grid = _force_grid(opts)
    if opts["j_max"] < 1:
        raise StageError(f"parameters: need j-max >= 1, got {opts['j_max']}",
                         stage="parameters")
    params = _stage("parameters", LatticeParams, opts["v0"], f0_grid)
    _stage("parameters", check_band_grid, 2, opts["grid"], opts["cutoff"])
    gap = _stage("band-structure", mean_band_gap, params,
                 grid_size=opts["grid"], cutoff=opts["cutoff"])
    predicted = ret_resonances(params, gap, opts["j_max"])
    _, gammas = _stage("sweep", _sweep, params, gap, gamma_asymptotic)
    is_max = np.zeros(len(gammas), dtype=int)
    is_max[1:-1] = (gammas[1:-1] > gammas[:-2]) & (gammas[1:-1] > gammas[2:])
    step = f0_grid[1] - f0_grid[0] if len(f0_grid) > 1 else math.nan
    comments = [f"mean_gap {_fmt(float(gap))}", f"grid_step {_fmt(float(step))}"]
    max_positions = f0_grid[is_max.astype(bool)]
    for j, pred in enumerate(predicted, start=1):
        if len(max_positions):
            nearest = float(max_positions[np.argmin(np.abs(max_positions - pred))])
            hit = abs(nearest - pred) <= step
        else:
            nearest, hit = math.nan, False
        comments.append(
            f"resonance j={j} predicted_f0={_fmt(float(pred))} "
            f"nearest_max_f0={_fmt(nearest)} within_one_step={hit}")
    target = _stage("write", _write_csv, opts["out"], runspec, "f0,gamma,local_max",
                    zip(f0_grid.tolist(), gammas.tolist(), is_max), comments=comments)
    print(f"wrote {target}")
    for line in comments:
        print(line)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    opts = _merge_options(args.command, args, parser)
    try:
        return args.handler(opts)
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if exc.stage == "parameters" else 3


if __name__ == "__main__":
    sys.exit(main())
