"""Benchmark of the blochdecay CLI, end to end and per layer.

Usage:
  python3 perfbench/run.py --workload {exact-run,z-scaling,depth-scan}
                           --seed N --seconds S --trace {0,1}

Run from the repository root.  One client runs the workload's CLI
invocations in fresh processes, one after another (a closed loop), for S
seconds; each invocation is one operation and its artifacts are checked
(see checks.py).  The program runs from `src/` with the caller's
environment; no BLAS or OpenMP thread variable is set for it.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json.
--trace 1 alternates untraced and traced rounds and reports the per-layer
metrics: the traced rounds run the CLI under traced_cli.py, and replay
each sweep's points serially through the public stepmodel functions,
because the CLI evaluates them in a process pool the wrappers do not
reach.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it give fail_ratio, the
tail percentile when at least 20 rounds ran, and the environment.  A
fuller record (per-invocation samples, environment, spans) goes to
.perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from checks import Checker, read_csv
from tracing import Tracer, interval_union
from workloads import DEFAULT_SEED, WORKLOADS, round_for

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MIN_SETUP_SAMPLES = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass
class Sample:
    """One invocation as the client saw it."""

    command: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    bytes_written: int
    traced: bool
    errors: list[str] = field(default_factory=list)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], workdir: Path, env: dict) -> tuple[float, float, float, int]:
    """(wall s, user+sys CPU s, peak RSS MB, exit code) of one child process.

    CPU and peak RSS come from the child's own rusage as os.wait4 returns
    it, which includes the pool workers and BLAS threads it waited for.
    """
    with open(workdir / "stdout.txt", "w") as out, open(workdir / "stderr.txt", "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=workdir, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode


def import_wall(env: dict, workdir: Path) -> float:
    """Wall time of one fresh `import blochdecay.cli` process: the set-up every call pays."""
    wall, _, _, code = spawn([sys.executable, "-c", "import blochdecay.cli"], workdir, env)
    if code != 0:
        raise RuntimeError(f"import blochdecay.cli failed: {(workdir / 'stderr.txt').read_text()}")
    return wall


def invoke(inv, workdir: Path, env: dict, checker: Checker,
           spans_path: Path | None = None, op: int = 0) -> Sample:
    for name in inv.artifacts:
        (workdir / name).unlink(missing_ok=True)
    if spans_path is None:
        argv = [sys.executable, "-m", "blochdecay.cli", *inv.argv]
    else:
        argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), str(op),
                "--", *inv.argv]
    wall, cpu, rss, code = spawn(argv, workdir, env)
    written = sum((workdir / a).stat().st_size for a in inv.artifacts if (workdir / a).exists())
    if code != 0:
        tail = (workdir / "stderr.txt").read_text().strip().splitlines()[-1:]
        errors = [f"{inv.command}: exit code {code}: {' '.join(tail)}"]
    else:
        errors = checker.check(inv, workdir)
    return Sample(inv.command, wall, cpu, rss, code, written, spans_path is not None, errors)


def fail_ratio(samples: list[Sample]) -> float:
    """Failed invocations over attempted ones."""
    return sum(1 for s in samples if s.errors) / len(samples)


def per_round(rounds: list[list[Sample]], key: str) -> list[float]:
    """Each round's mean over its invocations (depth-scan has two per round)."""
    return [statistics.fmean(getattr(s, key) for s in r) for r in rounds]


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with >= 10 samples above it.

    Only reported when that percentile lies above the median (>= 20 samples).
    """
    n = len(values)
    if n < 20:
        return None
    rank = n - 10
    return 100.0 * rank / n, sorted(values)[rank - 1]


# ---------------------------------------------------------------------------
# per-layer metrics from one traced invocation
# ---------------------------------------------------------------------------

def replay_points(inv, workdir: Path, checker: Checker, tracer: Tracer) -> dict:
    """Time the step-model chain for every point of a sweep, serially, here.

    The chain is the one each sweep point runs in the CLI's pool:
    from_lattice -> step_operator -> spectral_decompose -> z_exact (scaling)
    or gamma_asymptotic (ret).
    """
    bd = checker.bd
    _, _, rows = read_csv(workdir / inv.artifacts[0])
    if inv.command == "scaling":
        points, finish = [(r[0], r[1]) for r in rows], bd.z_exact
    else:
        points, finish = [(inv.expect["depths"][0], r[0]) for r in rows], bd.gamma_asymptotic
    point_s = spectral_s = 0.0
    failed = 0
    with tracer.span("stepmodel.replay"):
        for v0, f0 in points:
            gap = checker.gap(v0)
            t0 = time.perf_counter()
            try:
                ing = bd.StepIngredients.from_lattice(bd.LatticeParams(v0, f0), mean_gap=gap)
                u = bd.step_operator(ing)
                t1 = time.perf_counter()
                sd = bd.spectral_decompose(u)
                spectral_s += time.perf_counter() - t1
                finish(sd)
            except Exception:  # a failed sweep point is counted, as the CLI records it
                failed += 1
            point_s += time.perf_counter() - t0
    return {"points": len(points), "point_s": point_s, "spectral_s": spectral_s,
            "failed": failed}


def append_spans(spans: list[list], new: list[list]):
    """Append one recorder's spans, rebasing parent indices onto the combined list."""
    base = len(spans)
    spans += [[name, start, end, None if parent is None else parent + base, op]
              for name, start, end, parent, op in new]


def layer_totals(doc: dict, replay: dict | None, sample: Sample) -> dict[str, float]:
    """Additive per-layer quantities of one traced invocation."""
    spans, counts = doc["spans"], doc["counts"]
    by_name: dict[str, list[float]] = {}
    for name, start, end, _, _ in spans:
        by_name.setdefault(name, []).append(end - start)
    main = next(s for s in spans if s[0] == "cli.main")

    def total(name):
        return sum(by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    layer_spans = [(s[1], s[2]) for s in spans if not s[0].startswith("cli.")]
    stepmodel_spans = [(s[1], s[2]) for s in spans if s[0].startswith("stepmodel.")]
    replay = replay or {"points": 0, "point_s": 0.0, "spectral_s": 0.0, "failed": 0}
    return {
        "bands.mean_band_gap.calls": calls("bands.mean_band_gap"),
        "bands.mean_band_gap.s": total("bands.mean_band_gap"),
        "bands.k_points": counts.get("bands.k_points", 0),
        "stepmodel.points": counts.get("stepmodel.points", 0) + replay["points"],
        "stepmodel.point_s": interval_union(stepmodel_spans) + replay["point_s"],
        "stepmodel.spectral_decompose.s": total("stepmodel.spectral_decompose")
                                          + replay["spectral_s"],
        "stepmodel.failed_points": replay["failed"],
        "stepmodel.renorm_fit.s": total("stepmodel.renorm_fit"),
        "dynamics.evolve_lattice.s": total("dynamics.evolve_lattice"),
        "dynamics.cycles": counts.get("dynamics.cycles", 0),
        "dynamics.steps": counts.get("dynamics.steps", 0),
        "dynamics.flops_computed": counts.get("dynamics.flops_computed", 0),
        "dynamics.band_projections.calls": calls("dynamics.band_projections"),
        "dynamics.band_projections.s": total("dynamics.band_projections"),
        "fitting.extract_plateaus.s": total("fitting.extract_plateaus"),
        "fitting.fit_exponential.s": total("fitting.fit_exponential"),
        "fitting.compare_models.s": total("fitting.compare_models"),
        "cli.main.s": main[2] - main[1],
        "cli.self_s": (main[2] - main[1]) - interval_union(layer_spans),
        "cli.bytes_written": sample.bytes_written,
    }


def round_layer_metrics(totals: list[dict[str, float]]) -> dict[str, float]:
    """Sum a round's invocations, then form the ratios."""
    m = {key: sum(t[key] for t in totals) for key in totals[0]}
    m["bands.s_per_k_point"] = (m["bands.mean_band_gap.s"] / m["bands.k_points"]
                                if m["bands.k_points"] else 0.0)
    m["dynamics.s_per_cycle"] = (m["dynamics.evolve_lattice.s"] / m["dynamics.cycles"]
                                 if m["dynamics.cycles"] else 0.0)
    return m


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy
    import scipy
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_vendor = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_vendor,
        "thread_vars": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "git_revision": git_revision(),
    }


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def run_untraced(invs, seconds, workdir, env, checker) -> tuple[dict, list]:
    """Rounds of invocations for `seconds`, each round preceded by one timed import.

    Spreading the import samples over the whole run, instead of taking them
    back to back, keeps setup_s from reflecting one moment's machine load.
    """
    import_wall(env, workdir)  # warm-up: the first import may compile bytecode
    setup: list[float] = []
    rounds: list[list[Sample]] = []
    start = time.perf_counter()
    while len(setup) < MIN_SETUP_SAMPLES or time.perf_counter() - start < seconds:
        setup.append(import_wall(env, workdir))
        rounds.append([invoke(inv, workdir, env, checker) for inv in invs])
    values = {
        "wall_s": statistics.median(per_round(rounds, "wall_s")),
        "cpu_s": statistics.median(per_round(rounds, "cpu_s")),
        "peak_rss_mb": statistics.median(per_round(rounds, "peak_rss_mb")),
        "setup_s": statistics.median(setup),
    }
    return values, rounds


def run_traced(invs, seconds, workdir, env, checker) -> tuple[dict, list, list]:
    rounds: list[list[Sample]] = []
    layer_rounds: list[dict[str, float]] = []
    spans: list[list] = []
    op = 0
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append([invoke(inv, workdir, env, checker) for inv in invs])
        traced, totals = [], []
        for inv in invs:
            op += 1
            spans_path = workdir / "spans.json"
            spans_path.unlink(missing_ok=True)
            sample = invoke(inv, workdir, env, checker, spans_path, op)
            traced.append(sample)
            if sample.errors:
                continue
            doc = json.loads(spans_path.read_text())
            tracer = Tracer(op)
            replay = (replay_points(inv, workdir, checker, tracer)
                      if inv.command in ("scaling", "ret") else None)
            append_spans(spans, doc["spans"])
            append_spans(spans, tracer.spans)
            totals.append(layer_totals(doc, replay, sample))
        rounds.append(traced)
        if len(totals) == len(invs):
            layer_rounds.append(round_layer_metrics(totals))
    untraced = [r for r in rounds if not r[0].traced]
    traced = [r for r in rounds if r[0].traced]
    values = {key: statistics.median(m[key] for m in layer_rounds)
              for key in layer_rounds[0]} if layer_rounds else {}
    if values:
        values["trace.overhead_s"] = (statistics.median(per_round(traced, "wall_s"))
                                      - statistics.median(per_round(untraced, "wall_s")))
    return values, rounds, spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reduced", action="store_true",
                        help="small inputs, for the benchmark's own test")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "blochdecay" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: run from a blochdecay checkout; {SRC / 'blochdecay'} or "
              f"{spec_path} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = child_env()
    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    invs = round_for(args.workload, args.seed, args.reduced)
    checker = Checker(args.seed, use_reference=args.seed == DEFAULT_SEED and not args.reduced)
    for inv in invs:  # the mean gaps the checks need, computed before any timing
        for v0 in inv.expect.get("depths", ()):
            checker.gap(v0)

    spans: list = []
    if args.trace:
        values, rounds, spans = run_traced(invs, args.seconds, workdir, env, checker)
    else:
        values, rounds = run_untraced(invs, args.seconds, workdir, env, checker)
    samples = [s for r in rounds for s in r]
    failed = sum(1 for s in samples if s.errors)
    correct = failed == 0 and bool(values)
    env_info = environment()

    for s in samples:
        for err in s.errors:
            print(f"FAILED {err}")
    print(f"fail_ratio {fail_ratio(samples):.6g} ratio ({failed} of {len(samples)} invocations)")
    if not args.trace:
        tail = tail_percentile(per_round(rounds, "wall_s"))
        print(f"rounds {len(rounds)}; wall_s tail: " +
              (f"p{tail[0]:.0f} {tail[1]:.6g} s" if tail else "too few rounds (< 20)"))
    else:
        layers = {"bands": values.get("bands.mean_band_gap.s", 0.0),
                  "stepmodel": values.get("stepmodel.point_s", 0.0),
                  "dynamics": values.get("dynamics.evolve_lattice.s", 0.0),
                  "fitting": sum(values.get(k, 0.0) for k in
                                 ("fitting.extract_plateaus.s", "fitting.fit_exponential.s",
                                  "fitting.compare_models.s")),
                  "cli.self": values.get("cli.self_s", 0.0)}
        print("layer seconds per round: " +
              ", ".join(f"{k} {v:.4g}" for k, v in layers.items()) +
              f"; largest: {max(layers, key=layers.get)}")
    print("env " + json.dumps(env_info, sort_keys=True))

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "reduced": args.reduced, "env": env_info,
              "invocations": [inv.argv for inv in invs], "metrics": metrics,
              "samples": [asdict(s) for s in samples], "spans": spans}
    (OUT / f"{workdir.name}.json").write_text(json.dumps(record))
    if correct:
        shutil.rmtree(workdir)
    print(json.dumps({"correct": correct, "attempted": len(samples), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
