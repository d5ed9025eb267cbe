"""Meta-test: DESIGN.md names the packages that exist, and only those.

§2's inventory (its Package column) and §6's layout (the
``src/repro/{...}/`` brace list) must each equal the package
directories under ``src/repro`` — no module without its row, no row
without its module — so a deletion or a new layer that skips the
docs fails here.
"""

import re
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
DESIGN = (SRC.parents[1] / "DESIGN.md").read_text()


def _section(number: int) -> str:
    """The text of DESIGN.md ``## <number>.`` up to the next ``## ``."""
    match = re.search(rf"^## {number}\. .*?(?=^## )", DESIGN, re.M | re.S)
    assert match, f"DESIGN.md has no section {number}"
    return match.group(0)


def _package_dirs() -> set[str]:
    return {p.name for p in SRC.iterdir() if (p / "__init__.py").is_file()}


def test_layout_brace_list_matches_the_tree():
    match = re.search(r"src/repro/\{([^}]*)\}/", _section(6))
    assert match, "§6 lost its src/repro/{...}/ brace list"
    listed = {name.strip() for name in match.group(1).split(",")}
    assert listed == _package_dirs()


def test_inventory_package_column_matches_the_tree():
    rows = [line.split("|")[2] for line in _section(2).splitlines()
            if line.startswith("| ") and not line.startswith("| Subsystem")]
    named = {name for cell in rows for name in re.findall(r"`repro\.(\w+)", cell)}
    # top-level modules (cli.py, stores.py) have rows too; they must exist
    modules = {name for name in named if (SRC / f"{name}.py").is_file()}
    assert named - modules == _package_dirs()
