import re
from pathlib import Path

from gibbsim.cli import EXPERIMENTS, REQUIRED

README = (Path(__file__).parent.parent / "README.md").read_text()


def test_readme_quick_start_runs():
    # the README's one python block runs as written against the library
    blocks = re.findall(r"```python\n(.*?)```", README, re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def _rows(text):
    """The cells of each row of the markdown table that starts `text`."""
    rows = []
    for line in text.splitlines():
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows[2:]  # past the header and its rule


def _shown(key):
    """(type, default) of a cli Key, as README's tables write them."""
    kind = f"{key.kind[0].__name__} list" if isinstance(key.kind, list) else key.kind.__name__

    def value(x):
        if isinstance(x, bool):
            return str(x).lower()
        if isinstance(x, str):
            return f"`{x}`"
        return format(x, ".3g") if isinstance(x, float) else str(x)

    default = key.default
    if default is REQUIRED:
        return kind, "required"
    if default is None:
        return kind, "—"
    if callable(default):
        return kind, default.__doc__
    return kind, " ".join(map(value, default)) if isinstance(default, list) else value(default)


def test_readme_key_tables_match_cli_tables():
    # each experiment's documented keys, types and defaults: the groups it
    # names, then its own rows, are those of its table in gibbsim.cli
    section = README[README.index("### Config keys"):README.index("### Exit codes")]
    groups = {}
    for group, key, kind, default, _ in _rows(section[section.index("| group"):]):
        groups.setdefault(group, {})[key.strip("`")] = (kind, default)
    documented = {}
    for name, body in re.findall(r"^#### `([a-z-]+)`\n(.*?)(?=^#### |\Z)", section, re.M | re.S):
        names = re.search(r"^Groups: (.*)\.$", body, re.M).group(1).split(", ")
        table = {key: row for group in names for key, row in groups[group].items()}
        own = _rows(body[body.index("| key"):]) if "| key" in body else []
        table.update({key.strip("`"): (kind, default) for key, kind, default, _ in own})
        documented[name] = table
    assert set(documented) == set(EXPERIMENTS)
    for name, (_, table) in EXPERIMENTS.items():
        assert documented[name] == {key: _shown(spec) for key, spec in table.items()}, name
