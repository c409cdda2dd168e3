"""Source layout rules that keep one owner per decision."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import ntl

SRC = Path(ntl.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# What `import ntl` loads: every engine module but `cli` and
# `verification`, which the `ntl` command imports.
ROOT_MODULES = ("abelian", "catalog", "coset", "errors", "groups", "homotopy",
                "parsing", "report", "tensor", "words")

# Public names no caller in the engine or the benchmark reaches, kept
# because README documents them.
DOCUMENTED_ONLY = {"print_presentation", "print_action"}

# The bounds on table sizes: every bounded gather is cut by
# `groups._blocks` and every group order is checked by
# `groups._check_order`, so no other module reads them.
TABLE_BOUNDS = {"_CELLS", "GROUP_ORDER_CAP"}

# Each realized group is walked once, when it is built, and keeps its
# walk; only `groups` and the regular representation in `coset` walk.
WALKERS = {"groups.py", "coset.py"}

# One producer per object: the one engine function that constructs each
# realization record.
PRODUCERS = {"TensorRealization": "build_direct",
             "EtaRealization": "build_eta"}


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
    named = {p.name: sorted(_bounds_named(p)) for p in SRC.glob("*.py")}
    assert named.pop("groups.py") == sorted(TABLE_BOUNDS)
    assert {name: b for name, b in named.items() if b} == {}


def test_only_groups_and_coset_walk():
    walking = {p.name for p in SRC.glob("*.py")
               if "_walk_levels" in _names_read(ast.parse(p.read_text()))}
    assert walking == WALKERS


def _calls_by_function(tree, names) -> list[tuple[str, str]]:
    """(innermost enclosing function, name) for each call of one of
    `names`, by plain name or attribute; `<module>` outside functions."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else getattr(
                    f, "attr", None)
                if name in names:
                    found.append((where, name))
            visit(child, child.name if isinstance(child, ast.FunctionDef)
                  else where)

    visit(tree, "<module>")
    return found


def test_each_realization_has_one_producer():
    made = sorted(call for p in SRC.glob("*.py")
                  for call in _calls_by_function(ast.parse(p.read_text()),
                                                 PRODUCERS))
    assert made == sorted((fn, name) for name, fn in PRODUCERS.items())


def test_the_package_root_binds_only_its_submodules():
    tree = ast.parse((SRC / "__init__.py").read_text())
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            assert (node.level, node.module) == (1, None)
            bound += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Assign):
            bound += [t.id for t in node.targets]
        elif not isinstance(node, ast.Expr):  # anything but the docstring
            bound.append(ast.unparse(node))
    assert sorted(bound) == sorted(ROOT_MODULES + ("__version__",))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, ntl; print(' '.join(sorted("
         "m[4:] for m in sys.modules if m.startswith('ntl.'))))"],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(SRC.parent)))
    assert tuple(done.stdout.split()) == ROOT_MODULES


def _names_read(node) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def test_every_public_engine_name_has_a_caller():
    """Each public top-level function and class of the engine is named
    outside its own definition, by the engine or by the benchmark; tests
    do not count."""
    read = {p: [(node, _names_read(node)) for node in
                ast.parse(p.read_text()).body]
            for p in [*SRC.glob("*.py"), *PERFBENCH.glob("*.py")]
            if p.name != "__init__.py"}
    uncalled = []
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        others = set().union(*(names for p, nodes in read.items()
                               if p != path for _, names in nodes))
        for node, _ in read[path]:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")
                    or node.name in DOCUMENTED_ONLY):
                continue
            here = set().union(*(names for n, names in read[path]
                                 if n is not node))
            if node.name not in here | others:
                uncalled.append(f"{path.stem}.{node.name}")
    assert uncalled == []


# A backticked `module.name` (or `ntl.module.name`), `module` an engine
# submodule: the name a document gives for the engine's code.
_DOTTED = re.compile(r"`(?:ntl\.)?([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)")
SUBMODULES = {p.stem for p in SRC.glob("*.py")} - {"__init__"}


def test_every_dotted_engine_name_in_the_docs_resolves():
    """Each backticked `module.name` in the engine's sources and README
    names an attribute of that submodule (or of what it names there), so
    a reference to a removed name fails here."""
    stale = []
    for path in [*sorted(SRC.glob("*.py")), SRC.parents[1] / "README.md"]:
        for dotted in _DOTTED.findall(path.read_text()):
            module, *names = dotted.split(".")
            if module not in SUBMODULES:
                continue
            target = importlib.import_module(f"ntl.{module}")
            for name in names:
                if not hasattr(target, name):
                    stale.append(f"{path.name}: `{dotted}`")
                    break
                target = getattr(target, name)
    assert stale == []
