"""The README's library quick start, run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    """The first ```python block of the "## Library quick start" section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"^```python\n(.*?)^```", section, re.S | re.M).group(1)


def test_quick_start_runs_as_written():
    # The values its comments state.
    names = {}
    exec(compile(quick_start(), "README.md quick start", "exec"), names)
    assert names["rep"].dims == (1, 3, 4)
    assert names["rep"].length == 2
    assert sorted(names["certs"]) == [1, 2]
