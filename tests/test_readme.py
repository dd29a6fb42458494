"""The README's Python example runs as written, so it keeps up with the API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.S | re.M)
    assert blocks, "README.md has no python example"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.count("\n") >= 3  # the example prints three lines
