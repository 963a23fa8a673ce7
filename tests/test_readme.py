"""The README's code examples run as written."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_minimal_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    match = re.search(r"Minimal library example:\n\n```python\n(.*?)```", text, re.DOTALL)
    assert match, "README.md has no 'Minimal library example' python block"
    namespace: dict = {}
    exec(compile(match.group(1), "README.md", "exec"), namespace)
    assert capsys.readouterr().out
    mc, de = namespace["se"][0, 0], namespace["de"][0, 0]
    users = namespace["spec"].k
    assert mc.shape == de.shape == (users,)
    assert np.all(np.isfinite(mc)) and np.all(mc > 0)
    # the printed Monte Carlo and deterministic equivalent describe one system
    assert np.allclose(mc, de, rtol=0.1)
