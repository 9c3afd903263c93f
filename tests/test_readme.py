"""The README's library quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_library_quick_start_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library quick start\n", 1)[1]
    code = re.match(r"\s*```python\n(.*?)\n```", section, re.DOTALL).group(1)
    exec(compile(code, f"{README.name} (library quick start)", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 3
