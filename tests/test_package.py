"""The public surface: each module's ``__all__`` and the package's names."""

import ast
import dataclasses
import importlib
import pkgutil
from itertools import chain
from pathlib import Path

import grgcycles
from grgcycles.experiments import COMMAND_KEYS, CONFIG_KEYS, ExperimentConfig
from grgcycles.weights import _PARAMETERS

PACKAGE = Path(grgcycles.__file__).parent
MODULES = [importlib.import_module(f"grgcycles.{info.name}")
           for info in pkgutil.iter_modules([str(PACKAGE)])
           if info.name != "__main__"]


def test_every_listed_name_exists():
    listed = [module for module in MODULES if hasattr(module, "__all__")]
    assert len(listed) >= 9
    for module in listed:
        missing = [name for name in module.__all__
                   if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ lists {missing}"


def test_package_imports_only_listed_names():
    """Every public name that one package file (``__init__`` included)
    imports from another is in that module's ``__all__``."""
    checked = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.ImportFrom) and node.level == 1):
                continue
            module = importlib.import_module(f"grgcycles.{node.module}")
            unlisted = [alias.name for alias in node.names
                        if not alias.name.startswith("_")
                        and alias.name not in module.__all__]
            assert not unlisted, (f"{path.name} imports {unlisted}, which "
                                  f"{module.__name__}.__all__ lacks")
            checked.add(path.name)
    assert {"__init__.py", "cli.py", "experiments.py"} <= checked


def test_every_config_key_has_one_owner():
    """Each config key is an ``ExperimentConfig`` field or a weight
    parameter, and each field but ``spec`` is a key, so a deleted option
    leaves no orphan flag or field behind.  Each command reads config keys
    only, every weight key among them, and each field key is read by some
    command."""
    fields = {field.name for field in dataclasses.fields(ExperimentConfig)}
    weight_keys = {"family", *chain.from_iterable(_PARAMETERS.values())}
    keys = set(CONFIG_KEYS)
    assert not keys & fields & weight_keys
    assert keys - fields - weight_keys == set()
    assert fields - {"spec"} <= keys
    for key, (convert, _) in CONFIG_KEYS.items():
        assert (convert is None) is (key in weight_keys), key
    for command, read in COMMAND_KEYS.items():
        assert len(set(read)) == len(read), command
        assert weight_keys <= set(read) <= keys, command
    assert keys - weight_keys <= set(chain.from_iterable(
        COMMAND_KEYS.values()))


AFFINITY = ("os.sched_getaffinity", "os.sched_setaffinity")


def test_replication_alone_runs_threads_and_processes():
    """``replication`` is the one owner of the package's parallelism: no
    other file imports ``concurrent.futures``, ``threading`` or
    ``multiprocessing`` (by statement or by name) or reads or sets
    ``os.sched_getaffinity`` or ``os.sched_setaffinity``, so a second
    thread or process map, or a second rule for placing threads on CPUs,
    cannot come back unseen."""
    modules = {"concurrent", "threading", "multiprocessing"}
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module] + [f"{node.module}.{alias.name}"
                                         for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [f"os.{node.attr}"]
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                               str):
                names = [node.value]
            else:
                continue
            found.update((path.name, name) for name in names
                         if name.split(".")[0] in modules
                         or name in AFFINITY)
    outside = sorted(item for item in found if item[0] != "replication.py")
    assert not outside, f"only replication.py may use {outside}"
    # the owner's own uses are seen, so the check is not blind
    assert {("replication.py", name) for name in (
        "concurrent.futures", "multiprocessing", *AFFINITY)} <= found


def test_census_alone_maps_over_processes():
    """The replication map has one caller, the census: besides its owner
    ``replication.py``, only ``experiments.py`` names ``map_replications``
    (as a name, an attribute, an import or a string), so no other study
    can start a process pool unseen."""
    naming = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, (ast.alias, ast.FunctionDef)):
                name = node.name
            elif isinstance(node, ast.Constant):
                name = node.value
            else:
                continue
            if name == "map_replications":
                naming.add(path.name)
    assert naming == {"replication.py", "experiments.py"}


def test_replication_alone_splits_draw_streams():
    """The rule that splits a draw stream into parts has one owner: besides
    ``replication.py``, no file calls ``bit_generator.advance`` or names
    ``_part_count`` or ``_on_threads`` (as a name, an attribute, an import
    or a string), so a second copy of the rule cannot come back unseen."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "advance"):
                name = "advance"
            elif isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, (ast.alias, ast.FunctionDef)):
                name = node.name
            elif isinstance(node, ast.Constant):
                name = node.value
            else:
                continue
            if name in ("advance", "_part_count", "_on_threads"):
                found.add((path.name, name))
    outside = sorted(item for item in found if item[0] != "replication.py")
    assert not outside, f"only replication.py may use {outside}"
    # the owner's own uses are seen, so the check is not blind
    assert {("replication.py", name) for name in (
        "advance", "_part_count", "_on_threads")} <= found


def lgamma_uses(path):
    """Each line of ``path`` that names ``lgamma`` or ``gammaln`` (as a
    name, an attribute or an import)."""
    lines = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name in ("lgamma", "gammaln"):
            lines.add(node.lineno)
    return lines


def test_no_module_calls_lgamma():
    """Every exact law takes its masses from ``poisson._masses``, neighbour
    ratios multiplied out from the mode: no package file names ``lgamma``,
    so a second, log-space rule for masses cannot come back unseen."""
    found = {path.name: lines for path in sorted(PACKAGE.glob("*.py"))
             if (lines := lgamma_uses(path))}
    assert not found, f"lgamma is named in {found}"
    # the test oracle's log-space pmf is seen, so the check is not blind
    assert lgamma_uses(Path(__file__).with_name("oracles.py"))
