"""Source layout rules that keep one owner per decision."""

import ast
from pathlib import Path

import ntl

# The bounds on table sizes: every bounded gather is cut by
# `groups._blocks` and every group order is checked by
# `groups._check_order`, so no other module reads them.
TABLE_BOUNDS = {"_CELLS", "_WALK_CELLS", "GROUP_ORDER_CAP"}


def _bounds_named(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update((node.name, node.asname))
    return names & TABLE_BOUNDS


def test_only_groups_names_the_table_size_bounds():
    src = Path(ntl.__file__).parent
    named = {p.name: sorted(_bounds_named(p)) for p in src.glob("*.py")}
    assert named.pop("groups.py") == sorted(TABLE_BOUNDS)
    assert {name: b for name, b in named.items() if b} == {}
