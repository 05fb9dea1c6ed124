"""Run the blochdecay CLI with a span around each call it makes into a layer.

Usage: python3 traced_cli.py SPANS_JSON OP_ID -- SUBCOMMAND [FLAGS...]

The wrappers replace the names `blochdecay.cli` imports, plus the module
globals through which the package calls its own public functions
(`bands.band_energies`, `dynamics.band_projections`,
`stepmodel.spectral_decompose`).  They live in this process only: sweep
points evaluated in the CLI's process pool are not traced here, and the
harness measures them by replaying the same points instead.  The spans
and counts are written to SPANS_JSON once, after the CLI returns.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

from tracing import Tracer

# (name imported by blochdecay.cli, layer it belongs to)
CLI_CALLS = [
    ("mean_band_gap", "bands"),
    ("evolve_lattice", "dynamics"),
    ("extract_plateaus", "fitting"),
    ("fit_exponential", "fitting"),
    ("compare_models", "fitting"),
    ("step_operator", "stepmodel"),
    ("evolve_steps", "stepmodel"),
    ("renorm_fit", "stepmodel"),
    ("spectral_decompose", "stepmodel"),
    ("z_exact", "stepmodel"),
    ("gamma_asymptotic", "stepmodel"),
    ("z_first_order", "stepmodel"),
    ("ret_resonances", "stepmodel"),
]


def instrument(tracer: Tracer):
    """Install the wrappers; returns the CLI module to call."""
    from blochdecay import bands, cli, dynamics, stepmodel

    def count_k_points(args, kwargs, table):
        tracer.counts["bands.k_points"] += len(table.k_grid)

    def count_steps(args, kwargs, states):
        # Same step count as the solver: ceil(half period / dt) per half cycle.
        params, cfg = args[0], args[1]
        steps = 2 * math.ceil(params.bloch_period / 2.0 / cfg.dt) * cfg.n_cycles
        dim = 2 * cfg.cutoff + 1
        tracer.counts["dynamics.cycles"] += cfg.n_cycles
        tracer.counts["dynamics.steps"] += steps
        tracer.counts["dynamics.flops_computed"] += steps * 3 * 8 * dim * dim

    def count_point(args, kwargs, ingredients):
        tracer.counts["stepmodel.points"] += 1

    hooks = {"evolve_lattice": count_steps}
    for name, layer in CLI_CALLS:
        setattr(cli, name, tracer.wrap(getattr(cli, name), f"{layer}.{name}", hooks.get(name)))
    bands.band_energies = tracer.wrap(bands.band_energies, "bands.band_energies",
                                      count_k_points)
    dynamics.band_projections = tracer.wrap(dynamics.band_projections,
                                            "dynamics.band_projections")
    stepmodel.spectral_decompose = tracer.wrap(stepmodel.spectral_decompose,
                                               "stepmodel.spectral_decompose")
    from_lattice = stepmodel.StepIngredients.from_lattice.__func__
    stepmodel.StepIngredients.from_lattice = classmethod(
        tracer.wrap(from_lattice, "stepmodel.from_lattice", count_point))
    return cli


def main(argv: list[str]) -> int:
    if len(argv) < 4 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, op = Path(argv[0]), int(argv[1])
    tracer = Tracer(op)
    cli = instrument(tracer)
    with tracer.span("cli.main"):
        rc = cli.main(argv[3:])
    spans_path.write_text(json.dumps({"spans": tracer.spans, "counts": tracer.counts}))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
