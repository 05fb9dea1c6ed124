"""Command-line front end: band export, single runs, scaling and resonance sweeps.

Every CSV artifact starts with a `# runspec {...}` comment carrying the
fully merged parameter set and the blochdecay and numpy versions, so a run
can be reproduced bit-for-bit from its own output.  Relative output paths
are resolved against the BLOCHDECAY_OUTDIR environment variable when it is
set.  A config file's `key = value` lines are `--key=value` flags ahead of
the command line's, which win; no flag or key may be abbreviated.

Exit codes: 0 success, 2 invalid arguments, 3 numerical failure.  Every
step of a command runs inside one of its stages (_stage), so a failure
after argument parsing prints `error: <stage>: <reason>` and exits 2 from
parameters, 3 from any other.  The stages, in order (a second parameters
check needs the mean gap: a sweep's phase per cycle, ret's resonances):

  bands    parameters, band-structure, write
  run      parameters, band-structure, step-ingredients, effective-model,
           full-solver, plateau-extraction, fit, comparison, write
  scaling  parameters, then per depth band-structure, parameters, sweep; write
  ret      parameters, band-structure, parameters, sweep, write
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import json
import math
import os
import sys
from itertools import chain
from pathlib import Path

# BLAS gets one thread unless the caller sets another.  On 2 cores, 2 threads made
# evolve_lattice (10 cycles) take up to 1.5x the wall time and 2-3x the CPU of one at
# cutoffs 16-48, and from cutoff 64 OpenBLAS's split of the dim x dim products changes
# the bits of the files.  numpy reads these when it loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the BLAS thread defaults)

from . import __version__
from .bands import (DEFAULT_CUTOFF, DEFAULT_GRID_SIZE, VALUE_BYTES, VALUE_S, LatticeParams,
                    band_energies, bloch_phase, check_band_grid, check_count, check_real,
                    check_work, mean_band_gap)
from .dynamics import (MIN_CYCLES, SolverConfig, evolve_lattice, extract_plateaus, step_grid,
                       trace_rows)
from .stepmodel import (DEFAULT_WINDOW_END, DEFAULT_WINDOW_START, DegenerateSpectrumError,
                        StepIngredients, compare_models, evolve_steps, fit_exponential,
                        gamma_asymptotic, renorm_fit, ret_resonances, spectral_decompose,
                        step_operator, z_exact, z_first_order)

# Exit collections re-scanned the ~21.6k objects the imports leave: 17-19 ms, 4-5 ms frozen.
gc.freeze()

OUTDIR_ENV = "BLOCHDECAY_OUTDIR"
# Values _write_csv formats at a time: 4,096 rows of 4 columns.
_CSV_CHUNK_VALUES = 4 * 4096


class StageError(RuntimeError):
    """A pipeline stage failed; the message names the stage."""

    def __init__(self, message: str, stage: str):
        super().__init__(message)
        self.stage = stage


@contextlib.contextmanager
def _stage(name: str):
    """Run a block as the stage name: its exceptions become StageErrors."""
    try:
        yield
    except Exception as exc:
        raise StageError(f"{name}: {exc}", stage=name) from exc


_FLOAT_FMT = "%.17g"  # 17 significant digits: a float reads back exactly


def _resolve_out(path: str) -> Path:
    p = Path(os.environ.get(OUTDIR_ENV, ""), path)  # an absolute path ignores the directory
    p.parent.mkdir(parents=True, exist_ok=True)
    return p


def _write_csv(path: str, runspec: str, header: str, columns,
               comments: list[str] | None = None) -> Path:
    """Write the runspec, comment and header lines, then one row per index of the columns.

    columns are equal-length sequences, each of one kind of value: a
    column of floats is written by _FLOAT_FMT, any other (integers, ready
    text) by str, so text that repeats (a sweep's forces, once per depth)
    is formatted once.  Each chunk of rows, about _CSV_CHUNK_VALUES values,
    is one tuple of values put through one % of the row format.
    """
    target = _resolve_out(path)
    n_rows = len(columns[0])
    chunk = max(1, _CSV_CHUNK_VALUES // len(columns))
    row = ",".join(_FLOAT_FMT if np.asarray(col[:1]).dtype.kind == "f" else "%s"
                   for col in columns) + "\n"
    with open(target, "w", newline="") as fh:
        fh.write(f"# runspec {runspec}\n")
        for line in comments or ():
            fh.write(f"# {line}\n")
        fh.write(header + "\n")
        for lo in range(0, n_rows, chunk):
            parts = [col[lo:lo + chunk] for col in columns]
            parts = [p.tolist() if isinstance(p, np.ndarray) else p for p in parts]
            fh.write(row * len(parts[0]) % tuple(chain.from_iterable(zip(*parts))))
    return target


def _runspec_json(command: str, opts: dict) -> str:
    return json.dumps({"command": command, **{k: opts[k] for k in sorted(opts)},
                       "versions": {"blochdecay": __version__, "numpy": np.__version__}})


# ---------------------------------------------------------------------------
# flag registry: (name, type, default, help); None default means required
# ---------------------------------------------------------------------------

_COMMON = [("config", str, "", "config file whose `key = value` lines are read as flags")]

_SPECS: dict[str, list[tuple]] = {
    "bands": _COMMON + [
        ("v0", float, None, "lattice depth in recoil units"),
        ("n-bands", int, 3, "number of bands to export"),
        ("grid", int, DEFAULT_GRID_SIZE, "quasimomentum grid points over [-1, 1)"),
        ("cutoff", int, 32, "plane-wave modes per side"),
        ("out", str, "bands.csv", "output CSV path"),
    ],
    "run": _COMMON + [
        ("v0", float, None, "lattice depth in recoil units"),
        ("f0", float, None, "force in recoil units"),
        ("cycles", int, SolverConfig.n_cycles, "Bloch cycles to simulate"),
        ("cutoff", int, SolverConfig.cutoff, "plane-wave modes per side for the dynamics"),
        ("dt", float, SolverConfig.dt, "time step in hbar/E_rec"),
        ("grid", int, DEFAULT_GRID_SIZE, "band-structure grid for the mean gap"),
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
        ("grid", int, DEFAULT_GRID_SIZE, "band-structure grid for the mean gap"),
        ("cutoff", int, DEFAULT_CUTOFF, "plane-wave cutoff for the mean gap"),
        ("out", str, "scaling.csv", "output CSV path"),
    ],
    "ret": _COMMON + [
        ("v0", float, 1.0, "lattice depth in recoil units"),
        ("f0-min", float, 0.8, "scan start"),
        ("f0-max", float, 2.6, "scan end"),
        ("n-points", int, 200, "scan points"),
        ("j-max", int, 2, "highest resonance order to predict"),
        ("grid", int, DEFAULT_GRID_SIZE, "band-structure grid for the mean gap"),
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
        sp = sub.add_parser(command, allow_abbrev=False)  # a flag is taken only as spelled
        for name, typ, default, help_text in spec:
            sp.add_argument(f"--{name}", type=typ, default=default,
                            required=default is None, help=help_text)
        sp.set_defaults(handler=handlers[command])
    return parser


def _config_flags(path: str, parser: argparse.ArgumentParser) -> list[str]:
    """A config file's `key = value` or `key value` lines as `--key=value` flags."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, ValueError) as exc:  # ValueError covers bad bytes
        parser.error(f"config: cannot read {path}: {exc}")
    flags = []
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, val = line.partition("=" if "=" in line else " ")
        key, val = key.strip().replace("_", "-"), val.strip()
        if not key or not val:
            parser.error(f"config: cannot read {path}: malformed config line: {raw!r}")
        if key == "config":  # its flag would lose to the command line's --config
            parser.error(f"config: {path} cannot name another config file: {raw!r}")
        flags.append(f"--{key}={val}")
    return flags


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_bands(opts: dict) -> int:
    runspec = _runspec_json("bands", opts)
    with _stage("parameters"):
        params = LatticeParams(opts["v0"], 1.0)
        check_band_grid(opts["n_bands"], opts["grid"], opts["cutoff"], rows=opts["grid"])
    with _stage("band-structure"):
        table = band_energies(params, n_bands=opts["n_bands"], grid_size=opts["grid"],
                              cutoff=opts["cutoff"])
    with _stage("write"):
        header = "k," + ",".join(f"E{b + 1}" for b in range(opts["n_bands"]))
        target = _write_csv(opts["out"], runspec, header, [table.k_grid, *table.energies.T])
    print(f"wrote {target}")
    return 0


def cmd_run(opts: dict) -> int:
    runspec = _runspec_json("run", opts)
    cycles, window = opts["cycles"], opts["fit_window"]
    with _stage("parameters"):
        lo, _, hi = window.partition(":")  # a fit needs two plateaus: 0 <= LO < HI
        try:
            lo, hi = int(lo), int(hi)
        except ValueError:
            raise ValueError(f"bad --fit-window {window!r}, expected LO:HI") from None
        if not 0 <= lo < hi:
            raise ValueError(f"bad --fit-window {window!r}, need 0 <= LO < HI")
        params = LatticeParams(opts["v0"], opts["f0"])
        cfg = SolverConfig(cutoff=opts["cutoff"], dt=opts["dt"], n_cycles=cycles)
        step_grid(params, cfg)
        check_band_grid(2, opts["grid"], opts["band_cutoff"])
        if cycles < MIN_CYCLES:
            raise ValueError(f"need cycles >= {MIN_CYCLES} to extract plateaus, got {cycles}")
        if lo >= cycles:
            raise ValueError(f"fit window {window} needs cycles >= {lo + 1}, got {cycles}")
        if params.bloch_period < math.sqrt(sys.float_info.min):  # from f0 ~ 4.2e154
            raise ValueError(f"f0={opts['f0']} too large: the fit squares the plateau times "
                             "n T_B = 2 pi n / f0, which underflow")
        hi = min(hi, cycles)  # only HI is clamped, to the last plateau
    with _stage("band-structure"):
        gap = mean_band_gap(params, grid_size=opts["grid"], cutoff=opts["band_cutoff"])
    with _stage("step-ingredients"):
        ing = StepIngredients.from_lattice(params, mean_gap=gap)
        op = step_operator(ing)
    with _stage("effective-model"):
        series = evolve_steps(op, cycles, t_bloch=params.bloch_period)
        try:
            fit_eff = renorm_fit(op, series)
        except DegenerateSpectrumError:
            fit_eff = None  # fully decayed edge (e.g. v0 = 0); no spectral asymptotics
        z1 = z_first_order(ing) if fit_eff and ing.s12 > 0 else None
    with _stage("full-solver"):
        trace = evolve_lattice(params, cfg)
    with _stage("plateau-extraction"):
        plate_full = extract_plateaus(trace, params, band_cutoff=opts["band_cutoff"])
        rows = trace_rows(trace, params, opts["band_cutoff"])
    with _stage("fit"):  # a survival that hit zero has no exponential regime to fit
        fit_full = (fit_exponential(plate_full, (lo, hi))
                    if np.all(plate_full.probabilities[lo:hi + 1] > 0) else None)
    with _stage("comparison"):
        devs, max_dev = compare_models(plate_full, series)
    with _stage("write"):
        prefix = opts["out_prefix"]
        t_csv = _write_csv(f"{prefix}_trace.csv", runspec, "tau,P1,P2,Prest,norm", rows.T)
        n = np.arange(len(series))
        s_csv = _write_csv(f"{prefix}_steps.csv", runspec, "n,t,P",
                           [n, series.t_bloch * (n + 0.5),  # each step ends at a crossing
                            series.probabilities])
        c_csv = _write_csv(f"{prefix}_compare.csv", runspec, "n,P_full,P_eff,rel_dev",
                           [n, plate_full.probabilities, series.probabilities, devs])
        fit_doc = {
            "runspec": json.loads(runspec),
            "full_fit": dataclasses.asdict(fit_full) if fit_full else None,
            "effective": {
                "gamma_per_cycle": fit_eff.gamma,
                "gamma_per_time": fit_eff.gamma / params.bloch_period,
                "z": fit_eff.z,
                "z_first_order": z1,
                "converged": fit_eff.converged,
                "tol_achieved": fit_eff.tol_achieved,
            } if fit_eff else None,
            "mean_gap": gap,
            "phi": ing.phi,
            "comparison_max_rel_dev": max_dev,
        }
        # strict JSON: every nan or -+inf is written as null
        fit_doc = json.loads(json.dumps(fit_doc), parse_constant=lambda _: None)
        f_json = _resolve_out(f"{prefix}_fit.json")
        f_json.write_text(json.dumps(fit_doc, sort_keys=True, indent=2, allow_nan=False) + "\n")
    print(f"wrote {t_csv} {s_csv} {f_json} {c_csv}")
    if fit_full:
        print(f"z={fit_full.z:.6g} gamma={fit_full.gamma:.6g} "
              f"max_rel_dev={max_dev:.4g} residual={fit_full.residual:.3g}")
    return 0


def _sweep(params: LatticeParams, gap: float, quantity):
    """Phase and quantity(spectrum) of the step model over the forces of params.

    Degenerate points get nan in both and one stderr line each.
    """
    with _stage("parameters"), np.errstate(over="ignore"):  # an overflowing phase: bad force
        if not np.all(np.isfinite(bloch_phase(params, gap))):
            raise ValueError(f"f0={params.f0.min()} too small at v0={params.v0}: "
                             "the phase per cycle overflows")
    with _stage("sweep"):
        ing = StepIngredients.from_lattice(params, mean_gap=gap)
        sd = spectral_decompose(step_operator(ing))
        for f0 in params.f0[sd.degenerate]:
            print(f"point v0={params.v0} f0={f0} failed: eigenvalue moduli coincide",
                  file=sys.stderr)
        return np.where(sd.degenerate, np.nan, ing.phi), quantity(sd)


def _force_grid(opts: dict, n_depths: int = 1) -> np.ndarray:
    """The checked sweep forces linspace(f0-min, f0-max, n-points) of scaling and ret.

    Refuses, through check_work, a sweep whose step-model arrays and output
    columns would not fit the work budget: each force holds about 16
    step-model values and writes about 2 (its text), and each output row
    holds and writes 4, priced as README's calibration table gives.
    """
    check_count("n_points", opts["n_points"], 0)
    check_real("f0_min", opts["f0_min"], 0, strict=True)
    check_real("f0_max", opts["f0_max"], opts["f0_min"])
    check_work("--n-points and the depths",
               lambda n, depths: (n * (16.0 + 4.0 * depths) * VALUE_BYTES,
                                  n * (2.0 + 4.0 * depths) * VALUE_S),
               opts["n_points"], n_depths)
    return np.linspace(opts["f0_min"], opts["f0_max"], opts["n_points"])


def cmd_scaling(opts: dict) -> int:
    runspec = _runspec_json("scaling", opts)
    with _stage("parameters"):
        try:
            v0_list = [float(x) for x in str(opts["v0"]).split(",")]
        except ValueError as exc:
            raise ValueError(f"bad depth list {opts['v0']!r}: {exc}") from None
        f0_grid = _force_grid(opts, len(v0_list))
        depths = [LatticeParams(v0, f0_grid) for v0 in v0_list]
        check_band_grid(2, opts["grid"], opts["cutoff"], len(depths))
    sweeps = []
    for params in depths:
        with _stage("band-structure"):
            gap = mean_band_gap(params, grid_size=opts["grid"], cutoff=opts["cutoff"])
        sweeps.append(_sweep(params, gap, z_exact))
    phis, zs = zip(*sweeps)
    with _stage("write"):
        # each depth's v0 and the forces are formatted once, not once per row
        v0_text = [text for params in depths for text in [_FLOAT_FMT % params.v0] * len(f0_grid)]
        columns = [v0_text, [_FLOAT_FMT % f0 for f0 in f0_grid.tolist()] * len(depths),
                   np.concatenate(phis), np.concatenate(zs) - 1.0]
        target = _write_csv(opts["out"], runspec, "v0,f0,phi,Z_minus_1", columns)
    print(f"wrote {target}")
    return 0


def cmd_ret(opts: dict) -> int:
    runspec = _runspec_json("ret", opts)
    with _stage("parameters"):
        f0_grid = _force_grid(opts)
        check_count("j_max", opts["j_max"], 1)  # needs no gap: refused before the band structure
        # each resonance's 4 fields are written twice, to the CSV and to stdout
        check_work("--j-max", lambda j: (8.0 * j * VALUE_BYTES, 8.0 * j * VALUE_S),
                   opts["j_max"])
        params = LatticeParams(opts["v0"], f0_grid)
        check_band_grid(2, opts["grid"], opts["cutoff"])
    with _stage("band-structure"):
        gap = mean_band_gap(params, grid_size=opts["grid"], cutoff=opts["cutoff"])
    with _stage("parameters"):
        predicted = ret_resonances(params, gap, opts["j_max"])
    _, gammas = _sweep(params, gap, gamma_asymptotic)
    with _stage("write"):
        is_max = np.zeros(len(gammas), dtype=int)
        is_max[1:-1] = (gammas[1:-1] > gammas[:-2]) & (gammas[1:-1] > gammas[2:])
        step = f0_grid[1] - f0_grid[0] if len(f0_grid) > 1 else math.nan
        comments = [f"mean_gap {_FLOAT_FMT % gap}", f"grid_step {_FLOAT_FMT % step}"]
        max_positions = f0_grid[is_max.astype(bool)]
        for j, pred in enumerate(predicted, start=1):  # no maximum: nan, never within a step
            nearest = (float(max_positions[np.argmin(np.abs(max_positions - pred))])
                       if len(max_positions) else math.nan)
            comments.append(f"resonance j={j} predicted_f0={_FLOAT_FMT % pred} "
                            f"nearest_max_f0={_FLOAT_FMT % nearest} "
                            f"within_one_step={abs(nearest - pred) <= step}")
        target = _write_csv(opts["out"], runspec, "f0,gamma,local_max",
                            [f0_grid, gammas, is_max], comments=comments)
    print(f"wrote {target}")
    for line in comments:
        print(line)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if args.config:  # the file's lines go ahead of the command line's flags, which win
        args = parser.parse_args([args.command, *_config_flags(args.config, parser), *argv[1:]])
    opts = {k: v for k, v in vars(args).items() if k not in ("command", "handler")}
    try:
        return args.handler(opts)
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if exc.stage == "parameters" else 3


if __name__ == "__main__":
    sys.exit(main())
