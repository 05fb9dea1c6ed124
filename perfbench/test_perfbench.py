"""The benchmark's own test.  Run from the repository root:

    python3 -m pytest perfbench

It makes reduced-size passes (small inputs, one short round), so its
timings mean nothing; it checks the output contract and the checks.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from checks import ArtifactError, Checker, read_csv
from workloads import DEFAULT_SEED, round_for

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
sys.path.insert(0, str(run.SRC))


def bench(*args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_reduced_pass_prints_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "1", "--seconds", "0",
                 "--trace", str(trace), "--reduced")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    for name, unit in wanted.items():
        assert any(ln.startswith(f"{name} ") and ln.endswith(f" {unit}") for ln in lines), name
    assert any(ln.startswith("fail_ratio 0 ratio") for ln in lines)
    assert any(ln.startswith("env {") for ln in lines)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "z-scaling", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# tampered artifacts
# ---------------------------------------------------------------------------

def _edit_rows(path: Path, edit):
    """Apply edit(fields) -> fields to every data row of a CSV artifact."""
    lines = path.read_text().splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    rows = [",".join(edit(line.split(","))) for line in lines[header + 1:]]
    path.write_text("\n".join(lines[:header + 1] + rows) + "\n")


def _scale_last(factor):
    return lambda f: f[:-1] + [repr(float(f[-1]) * factor)]


def _nan_last(f):
    return f[:-1] + ["nan"]


def _raise_norm(f):
    return f[:-1] + ["1.001"]


def _shift_fit_z(path: Path):
    doc = json.loads(path.read_text())
    doc["full_fit"]["z"] += 0.05
    path.write_text(json.dumps(doc))


TAMPERS = {
    "scaling-nan-row": ("z-scaling", "z_scaling.csv", lambda p: _edit_rows(p, _nan_last)),
    "scaling-values-moved": ("z-scaling", "z_scaling.csv",
                             lambda p: _edit_rows(p, _scale_last(1.001))),
    "scaling-truncated": ("z-scaling", "z_scaling.csv",
                          lambda p: p.write_text(p.read_text()[:500])),
    "ret-runspec-broken": ("depth-scan", "ret.csv",
                           lambda p: p.write_text(p.read_text().replace("{", "(", 1))),
    "run-norm-above-one": ("exact-run", "exact_trace.csv", lambda p: _edit_rows(p, _raise_norm)),
    "run-fit-unparseable": ("exact-run", "exact_fit.json",
                            lambda p: p.write_text(p.read_text()[:-20])),
    "run-fit-disagrees": ("exact-run", "exact_fit.json", _shift_fit_z),
    "run-artifact-missing": ("exact-run", "exact_steps.csv", Path.unlink),
}


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """One reduced invocation per workload, run once; tests tamper with copies."""
    made = {}
    for workload in ("z-scaling", "depth-scan", "exact-run"):
        workdir = tmp_path_factory.mktemp(workload)
        checker = Checker(seed=1, use_reference=False)
        samples = [run.invoke(inv, workdir, run.child_env(), checker)
                   for inv in round_for(workload, 1, reduced=True)]
        made[workload] = (workdir, samples)
    return made


@pytest.mark.parametrize("tamper", sorted(TAMPERS))
def test_tampered_artifact_makes_fail_ratio_nonzero(tamper, pristine, tmp_path):
    workload, artifact, edit = TAMPERS[tamper]
    source, samples = pristine[workload]
    assert all(not s.errors for s in samples)
    assert run.fail_ratio(samples) == 0.0
    for f in source.iterdir():
        shutil.copy(f, tmp_path)
    edit(tmp_path / artifact)
    checker = Checker(seed=1, use_reference=False)
    invs = round_for(workload, 1, reduced=True)
    inv = next(i for i in invs if artifact in i.artifacts)
    errors = checker.check(inv, tmp_path)
    assert errors
    tampered = [s if i is not inv else dataclasses.replace(s, errors=errors)
                for s, i in zip(samples, invs)]
    assert run.fail_ratio(tampered) > 0.0


def test_reference_rows_admit_roundoff_drift_but_not_more(tmp_path):
    inv, = round_for("z-scaling", DEFAULT_SEED)
    checker = Checker(seed=DEFAULT_SEED, use_reference=True)
    sample = run.invoke(inv, tmp_path, run.child_env(), checker)
    assert not sample.errors
    path = tmp_path / inv.artifacts[0]
    _edit_rows(path, _scale_last(1 + 1e-13))
    assert checker.check(inv, tmp_path) == []
    _edit_rows(path, _scale_last(1 + 1e-6))
    _, _, rows = read_csv(path)
    with pytest.raises(ArtifactError, match="stored reference"):
        checker._match_reference(path, rows)
