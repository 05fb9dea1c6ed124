"""Output checks: an invocation counts as failed when any of these fails.

Every artifact must parse and hold no `nan` data row.  On top of that:

  * run: the trace norm never exceeds 1 (+ NORM_TOL for roundoff, well
    below the solver's own 1e-8 per-cycle drift limit), and the exact
    fit's gamma*T_B and Z agree with the step model's within MODEL_TOL
    (at the default seed they differ by 0.004 and 0.008);
  * scaling, ret: sampled rows agree with the same point recomputed here
    through the public library functions, and on the default seed every
    stored reference row matches within REFERENCE_RTOL, which admits the
    ~1e-13 drift of a reordered but equivalent computation.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

NORM_TOL = 1e-9
MODEL_TOL = 0.02
REFERENCE_RTOL = 1e-9
SAMPLED_ROWS = 16

REFERENCE_FILE = Path(__file__).with_name("reference.json")


class ArtifactError(ValueError):
    """An artifact is missing, malformed or fails a check."""


def read_csv(path: Path) -> tuple[list[str], list[str], list[list[float]]]:
    """(comment lines, header columns, numeric rows); raises ArtifactError."""
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise ArtifactError(f"{path.name}: cannot read: {exc}") from exc
    comments = [ln[1:].strip() for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    if not comments or not comments[0].startswith("runspec "):
        raise ArtifactError(f"{path.name}: no runspec comment")
    try:
        json.loads(comments[0][len("runspec "):])
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"{path.name}: runspec is not JSON: {exc}") from exc
    if not body:
        raise ArtifactError(f"{path.name}: no header")
    header = body[0].split(",")
    rows = []
    for n, line in enumerate(body[1:], start=1):
        try:
            row = [float(x) for x in line.split(",")]
        except ValueError as exc:
            raise ArtifactError(f"{path.name}: row {n} does not parse: {exc}") from exc
        if len(row) != len(header):
            raise ArtifactError(f"{path.name}: row {n} has {len(row)} fields, "
                                f"header has {len(header)}")
        if any(math.isnan(x) for x in row):
            raise ArtifactError(f"{path.name}: row {n} holds nan")
        rows.append(row)
    return comments, header, rows


def _expect_header(name: str, header: list[str], wanted: str):
    if header != wanted.split(","):
        raise ArtifactError(f"{name}: header {','.join(header)!r}, expected {wanted!r}")


def _expect_rows(name: str, rows: list, n: int):
    if len(rows) != n:
        raise ArtifactError(f"{name}: {len(rows)} data rows, expected {n}")


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REFERENCE_RTOL, abs_tol=1e-12)


class Checker:
    """Checks one run's invocations; caches the mean gaps it recomputes."""

    def __init__(self, seed: int, use_reference: bool):
        import blochdecay as bd  # imported late: the harness fails cleanly without src/
        self.bd = bd
        self.rng = random.Random(seed)
        self.reference = (json.loads(REFERENCE_FILE.read_text())
                          if use_reference else {})
        self._gaps: dict[float, float] = {}

    def gap(self, v0: float) -> float:
        if v0 not in self._gaps:
            self._gaps[v0] = self.bd.mean_band_gap(self.bd.LatticeParams(v0, 1.0))
        return self._gaps[v0]

    def step_spectrum(self, v0: float, f0: float):
        bd = self.bd
        ing = bd.StepIngredients.from_lattice(bd.LatticeParams(v0, f0), mean_gap=self.gap(v0))
        return ing, bd.spectral_decompose(bd.step_operator(ing))

    def check(self, inv, workdir: Path) -> list[str]:
        """Error messages for one invocation's artifacts; empty when all pass."""
        try:
            getattr(self, f"_check_{inv.command}")(inv, workdir)
        except ArtifactError as exc:
            return [str(exc)]
        return []

    # -- per subcommand -----------------------------------------------------

    def _check_run(self, inv, workdir: Path):
        cycles = inv.expect["cycles"]
        trace, steps, compare, fit = (workdir / a for a in inv.artifacts)
        _, header, rows = read_csv(trace)
        _expect_header(trace.name, header, "tau,P1,P2,Prest,norm")
        if len(rows) < 64 * cycles:
            raise ArtifactError(f"{trace.name}: {len(rows)} samples for {cycles} cycles")
        worst = max(row[4] for row in rows)
        if worst > 1.0 + NORM_TOL:
            raise ArtifactError(f"{trace.name}: norm {worst!r} exceeds 1")
        _, header, rows = read_csv(steps)
        _expect_header(steps.name, header, "n,t,P")
        _expect_rows(steps.name, rows, cycles + 1)
        _, header, rows = read_csv(compare)
        _expect_header(compare.name, header, "n,P_full,P_eff,rel_dev")
        _expect_rows(compare.name, rows, cycles + 1)
        try:
            doc = json.loads(fit.read_text())
            full, eff = doc["full_fit"], doc["effective"]
            f0 = float(doc["runspec"]["f0"])
            gamma_tb = float(full["gamma"]) * 2.0 * math.pi / f0
            pairs = {"gamma*T_B": (gamma_tb, float(eff["gamma_per_cycle"])),
                     "Z": (float(full["z"]), float(eff["z"]))}
        except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ArtifactError(f"{fit.name}: does not parse as a fit: {exc!r}") from exc
        for name, (exact, model) in pairs.items():
            if not abs(exact - model) <= MODEL_TOL:
                raise ArtifactError(f"{fit.name}: exact {name} {exact:.6g} vs step model "
                                    f"{model:.6g} differ by more than {MODEL_TOL}")

    def _check_scaling(self, inv, workdir: Path):
        path = workdir / inv.artifacts[0]
        _, header, rows = read_csv(path)
        _expect_header(path.name, header, "v0,f0,phi,Z_minus_1")
        _expect_rows(path.name, rows, len(inv.expect["depths"]) * inv.expect["n_points"])
        for i in self.rng.sample(range(len(rows)), min(SAMPLED_ROWS, len(rows))):
            v0, f0, phi, zm1 = rows[i]
            ing, sd = self.step_spectrum(v0, f0)
            if not (_close(phi, ing.phi) and _close(zm1, self.bd.z_exact(sd) - 1.0)):
                raise ArtifactError(f"{path.name}: row {i + 1} disagrees with a recomputation")
        self._match_reference(path, rows)

    def _check_ret(self, inv, workdir: Path):
        path = workdir / inv.artifacts[0]
        comments, header, rows = read_csv(path)
        _expect_header(path.name, header, "f0,gamma,local_max")
        _expect_rows(path.name, rows, inv.expect["n_points"])
        resonances = [c for c in comments if c.startswith("resonance j=")]
        if len(resonances) != inv.expect["j_max"]:
            raise ArtifactError(f"{path.name}: {len(resonances)} resonance lines, "
                                f"expected {inv.expect['j_max']}")
        if any(row[2] not in (0.0, 1.0) for row in rows):
            raise ArtifactError(f"{path.name}: local_max is not 0 or 1")
        for i in self.rng.sample(range(len(rows)), min(SAMPLED_ROWS, len(rows))):
            f0, gamma, _ = rows[i]
            _, sd = self.step_spectrum(inv.expect["depths"][0], f0)
            if not _close(gamma, self.bd.gamma_asymptotic(sd)):
                raise ArtifactError(f"{path.name}: row {i + 1} disagrees with a recomputation")
        self._match_reference(path, rows)

    def _match_reference(self, path: Path, rows: list[list[float]]):
        ref = self.reference.get(path.name)
        if ref is None:
            return
        stride = ref["stride"]
        sampled = rows[::stride]
        if len(sampled) != len(ref["rows"]):
            raise ArtifactError(f"{path.name}: {len(sampled)} reference rows, "
                                f"stored {len(ref['rows'])}")
        for n, (got, want) in enumerate(zip(sampled, ref["rows"])):
            if not all(_close(a, b) for a, b in zip(got, want)):
                raise ArtifactError(f"{path.name}: row {n * stride + 1} differs from the "
                                    f"stored reference {want}")
