import re
from pathlib import Path


def test_readme_quick_start_runs():
    # the README's one python block runs as written against the library
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
