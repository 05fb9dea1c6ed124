from __future__ import annotations

import re
from pathlib import Path

from blochdecay import bands, cli, dynamics, stepmodel

README = Path(__file__).parents[1] / "README.md"


def test_readme_quickstart_runs(capsys):
    # the first python block of the README is the library quickstart; it must run
    # as documented against the current API, exact-dynamics cross-check included
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S)[1]
    for call in ("evolve_lattice", "extract_plateaus", "fit_exponential"):
        assert f"bd.{call}(" in block
    exec(compile(block, str(README), "exec"), {})
    _, exact = capsys.readouterr().out.splitlines()
    z, _ = map(float, exact.split())
    assert z < 1.0  # as the block's comment says


def test_readme_refusal_examples_exit_two(tmp_path, capsys, monkeypatch):
    # every command the exit-code paragraph gives as beyond the work budget, run exactly as
    # written: each is refused by the budget, not by argparse, and no band or step-model
    # computation is reached
    text = README.read_text()
    refusals = re.search(r"\* Exit codes:.*?So (`bands.*?) exit `2`", text, re.S)[1]
    commands = re.findall(r"`((?:bands|run|scaling|ret)\s[^`]*)`", refusals)
    assert len(commands) >= 5, commands
    monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
    for name in ("band_energies", "mean_band_gap", "step_operator", "evolve_lattice"):
        monkeypatch.setattr(cli, name, None)
    budget = re.compile(r"error: parameters: .* need ~\S+ bytes / ~\S+ s \(limit \d+ bytes / "
                        r"\S+ s\); reduce ")
    for command in commands:
        assert cli.main(command.split()) == 2, command
        assert budget.search(capsys.readouterr().err), command
    assert not list(tmp_path.iterdir())


def test_calibration_table_names_every_price():
    # the calibration table is the one record of the prices: it names every price constant
    # of bands (the budget's limit MAX_WORK_BYTES aside), and each it names exists there
    price = re.compile(r"[A-Z][A-Z_]*_(?:S|BYTES|FLOP_RATE)")
    defined = {name for name in vars(bands) if price.fullmatch(name)} - {"MAX_WORK_BYTES"}
    table = re.search(r"\n *\| kernel or value \|.*\n(?: *\|.*\n)+", README.read_text())[0]
    named = set(re.findall(r"`(?:bands\.)?(" + price.pattern + r")`", table))
    assert defined and named == defined, (sorted(named - defined), sorted(defined - named))


def test_readme_code_references_exist():
    # every `bands.…`, `dynamics.…`, `stepmodel.…` and `cli.…` name the README gives is a
    # name of that module, so a rename cannot leave a stale reference behind
    modules = {"bands": bands, "dynamics": dynamics, "stepmodel": stepmodel, "cli": cli}
    refs = set(re.findall(r"`(" + "|".join(modules) + r")\.(\w+)", README.read_text()))
    missing = sorted(f"{module}.{name}" for module, name in refs
                     if not hasattr(modules[module], name))
    assert len(refs) >= 10 and not missing, missing
