"""The README's python API tour runs as written."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_api_tour_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    # the value its comment states: t = -5 dx1
    assert np.max(np.abs(namespace["t"] + 5.0 * np.eye(8)[0])) <= 1e-5
    assert namespace["dim4"].n == 1
    assert isinstance(namespace["edge_error"], namespace["BoundaryError"])
