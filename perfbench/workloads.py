"""Seeded workload definitions: the CLI invocations one round of a workload makes.

Seed 0 is the default and gives exactly the documented inputs.  Any other
seed perturbs the inputs slightly (force, sweep ends, depths) without
changing the amount of work, so timings from different seeds stay
comparable while the program never sees a fixed input.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

DEFAULT_SEED = 0
WORKLOADS = ("exact-run", "z-scaling", "depth-scan")


@dataclass(frozen=True)
class Invocation:
    """One `blochdecay` CLI call and what its output must satisfy."""

    command: str                  # CLI subcommand: run, scaling or ret
    args: tuple[str, ...]         # flags after the subcommand
    artifacts: tuple[str, ...]    # files it writes, relative to its working directory
    expect: dict = field(default_factory=dict)  # inputs the checks need

    @property
    def argv(self) -> list[str]:
        return [self.command, *self.args]


def _num(x: float) -> str:
    return f"{x:.6g}"


def _exact_run(rng: random.Random, seed: int, reduced: bool) -> list[Invocation]:
    f0 = 0.383 if seed == DEFAULT_SEED else 0.383 + rng.uniform(-0.002, 0.002)
    cycles, cutoff = (8, 16) if reduced else (20, 32)
    prefix = "exact"
    args = ("--v0", "1", "--f0", _num(f0), "--cycles", str(cycles),
            "--cutoff", str(cutoff), "--out-prefix", prefix)
    artifacts = tuple(f"{prefix}_{part}" for part in
                      ("trace.csv", "steps.csv", "compare.csv", "fit.json"))
    return [Invocation("run", args, artifacts, {"cycles": cycles})]


def _sweep_range(rng: random.Random, seed: int, lo: float, hi: float) -> tuple:
    """Default range on the default seed, else both ends moved by up to 0.05."""
    if seed == DEFAULT_SEED:
        return ()
    return ("--f0-min", _num(lo + rng.uniform(0.0, 0.05)),
            "--f0-max", _num(hi - rng.uniform(0.0, 0.05)))


def _z_scaling(rng: random.Random, seed: int, reduced: bool) -> list[Invocation]:
    depths = ["1", "2", "3", "4"]
    n_points = 50 if reduced else 5000
    args = ("--v0", ",".join(depths), "--n-points", str(n_points),
            *_sweep_range(rng, seed, 0.5, 4.0), "--out", "z_scaling.csv")
    return [Invocation("scaling", args, ("z_scaling.csv",),
                       {"depths": [float(d) for d in depths], "n_points": n_points})]


def _depth_scan(rng: random.Random, seed: int, reduced: bool) -> list[Invocation]:
    n_depths = 4 if reduced else 16
    if seed == DEFAULT_SEED:
        depths = [0.5 * i for i in range(1, n_depths + 1)]
    else:
        depths = [0.5 * i + rng.uniform(-0.1, 0.1) for i in range(1, n_depths + 1)]
    depth_text = [_num(d) for d in depths]
    n_scan = 20 if reduced else 200
    n_ret = 20 if reduced else 200
    scaling = Invocation(
        "scaling",
        ("--v0", ",".join(depth_text), "--n-points", str(n_scan), "--out", "depths.csv"),
        ("depths.csv",),
        {"depths": [float(d) for d in depth_text], "n_points": n_scan})
    ret_range = _sweep_range(rng, seed, 0.8, 2.6)
    ret_args = ("--v0", "1", *ret_range, "--out", "ret.csv")
    if reduced:
        ret_args = (*ret_args, "--n-points", str(n_ret))
    ret = Invocation("ret", ret_args, ("ret.csv",),
                     {"depths": [1.0], "n_points": n_ret, "j_max": 2})
    return [scaling, ret]


_BUILDERS = {"exact-run": _exact_run, "z-scaling": _z_scaling, "depth-scan": _depth_scan}


def round_for(workload: str, seed: int, reduced: bool = False) -> list[Invocation]:
    """The invocations of one round; every round of a run repeats them."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _BUILDERS[workload](random.Random(seed), seed, reduced)
