"""The README's library quick start runs as written."""

import math
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs_as_written(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text("utf-8"),
                        flags=re.M | re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["certificate"].accepted
    printed = capsys.readouterr().out.split()
    assert len(printed) == 2 and all(math.isfinite(float(v)) for v in printed)
