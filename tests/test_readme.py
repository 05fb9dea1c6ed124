from __future__ import annotations

import re
from pathlib import Path

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
