"""The lazy package namespace and the modules each CLI command loads.

`import logsurf` loads no submodule; a public name imports its defining
module on first use and is never cached in the package.  Each command
of `python -m logsurf.cli` loads only the modules it calls; the footprint
tests pin those sets, so an eager import added later fails here.
"""
import ast
import copy
import importlib
import json
import os
import pickle
import subprocess
import sys
import types
from pathlib import Path

import pytest

import logsurf
from logsurf import _base, catalog, lattice
from logsurf._base import dumps
from logsurf.formats import config_to_json, divisor_to_json
from logsurf.lattice import QDivisor, make_config

FORMER_ALL = [
    "BlowupStep", "BoundarySplit", "CatalogEntry", "CurveConfig", "CurveRecord", "History",
    "LatticeError", "QDivisor", "ZariskiResult", "apply_script", "birational", "blow_up",
    "boundary", "boundary_adjustment", "catalog", "catalog_ids", "contract_lc_trivial",
    "contract_minus_one", "divisor_geq", "entry", "example_143", "example_25_84",
    "example_rational_shape", "glue_volumes", "is_nef_on_tracked", "is_negative_definite",
    "kdot", "kodaira_config", "lattice", "log_class", "make_config", "min_volume_pipeline",
    "mmp_contract_disjoint", "mmp_contract_log", "noether_stable_bound", "pa_of", "pairing",
    "prop0_step1_bound", "prop1_volume", "prop2_bound", "pushforward", "rational",
    "rational_str", "relative_canonical", "resolution_script", "semistable_part",
    "sum_divisor", "table1", "total_transform", "tower", "tz_bound", "validate", "volume",
    "zariski", "zariski_decompose", "zariski_oracle",
]
BOUNDS = ["glue_volumes", "noether_stable_bound", "prop0_step1_bound", "prop1_volume",
          "prop2_bound", "tz_bound"]
SRC = Path(logsurf.__file__).resolve().parent.parent


def _python(*argv: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports logsurf from this source tree."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, check=False
    )


def test_all_keeps_the_former_names():
    assert logsurf.__all__ == FORMER_ALL


def test_each_name_is_the_defining_modules_object():
    for name in FORMER_ALL:
        value = getattr(logsurf, name)
        if isinstance(value, types.ModuleType):
            assert value is sys.modules[f"logsurf.{name}"]
            continue
        # the package's table is the one alias table: each name resolves
        # through the module that defines it
        assert value.__module__ == logsurf._HOME[name], name
        assert getattr(importlib.import_module(value.__module__), name) is value, name
    assert {getattr(logsurf, name).__module__ for name in BOUNDS} == {"logsurf.bounds"}
    assert logsurf.validate.__module__ == "logsurf.formats"
    assert logsurf.ZariskiResult.__module__ == "logsurf._result"
    for name in ("_base", "_solve", "bounds", "cli", "formats", "shapes"):
        assert getattr(logsurf, name) is sys.modules[f"logsurf.{name}"]


def test_a_public_name_has_no_second_home():
    """A name lives in the module that defines it (and in the package's
    table), never also in a module that merely imports or forwards it."""
    for module, name in (
        (catalog, "glue_volumes"), (logsurf.zariski, "ZariskiResult"), (lattice, "dumps")
    ):
        with pytest.raises(AttributeError, match=name):
            getattr(module, name)
    assert logsurf.glue_volumes is logsurf.bounds.glue_volumes
    assert logsurf._base.dumps({"b": 1, "a": [2]}) == '{\n  "a": [\n    2\n  ],\n  "b": 1\n}\n'


def test_only_the_package_has_a_module_getattr():
    """No submodule forwards a name on first access (PEP 562): only the
    package's own `__getattr__` does, from its one table."""
    found = []
    for path in sorted(Path(logsurf.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            path.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == "__getattr__"
        ]
    assert found == ["__init__.py"]


def test_the_result_record_loads_only_its_leaf_module():
    script = (
        "import sys, logsurf\n"
        "record = logsurf.ZariskiResult\n"
        "print(sorted(m for m in sys.modules if m.startswith('logsurf')))\n"
    )
    proc = _python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['logsurf', 'logsurf._result']\n"


def test_lattice_error_is_one_class_and_survives_pickle_and_copy():
    assert logsurf.LatticeError is lattice.LatticeError is _base.LatticeError
    for error in (_base.LatticeError("bad-pg", "pg = -1 < 0"), _base.LatticeError("ambiguous")):
        for clone in (pickle.loads(pickle.dumps(error)), copy.copy(error), copy.deepcopy(error)):
            assert type(clone) is lattice.LatticeError
            assert (clone.code, clone.message, str(clone)) == (
                error.code, error.message, str(error)
            )


def test_resolved_names_are_not_cached(monkeypatch):
    original = logsurf.table1
    assert "table1" not in vars(logsurf)

    def patched():
        return "patched"

    monkeypatch.setattr(catalog, "table1", patched)
    assert logsurf.table1 is patched
    monkeypatch.undo()
    assert logsurf.table1 is original


def test_dir_and_unknown_names():
    assert set(FORMER_ALL) <= set(dir(logsurf))
    assert {"_base", "_solve", "bounds", "cli", "formats", "shapes", "__version__"} <= set(
        dir(logsurf)
    )
    with pytest.raises(AttributeError, match="no_such_name"):
        logsurf.no_such_name
    with pytest.raises(ImportError):
        exec("from logsurf import no_such_name", {})


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from logsurf import *", namespace)
    for name in FORMER_ALL:
        assert namespace[name] is getattr(logsurf, name), name


def test_import_loads_no_submodule():
    script = (
        "import sys, logsurf\n"
        "print(sorted(m for m in sys.modules if 'logsurf' in m))\n"
        "print(logsurf._solve.__name__, logsurf.bounds.__name__, logsurf.cli.__name__)\n"
    )
    proc = _python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['logsurf']\nlogsurf._solve logsurf.bounds logsurf.cli\n"


def test_a_loaded_modules_current_binding_is_read():
    """Before its module is loaded, a name goes through the import; after,
    it is read from `sys.modules`, and a function rebound there (and later
    restored) is what the package returns, never a copy kept here."""
    script = (
        "import sys, logsurf\n"
        "assert [m for m in sys.modules if m.startswith('logsurf.')] == []\n"
        "first = logsurf.prop1_volume\n"
        "bounds = sys.modules['logsurf.bounds']\n"
        "assert first is bounds.prop1_volume\n"
        "bounds.prop1_volume = marker = lambda *args: None\n"
        "assert logsurf.prop1_volume is marker\n"
        "bounds.prop1_volume = first\n"
        "assert logsurf.prop1_volume is first and 'prop1_volume' not in vars(logsurf)\n"
        "print(sorted(m for m in sys.modules if m.startswith('logsurf')))\n"
    )
    proc = _python("-c", script)
    assert proc.returncode == 0, proc.stderr
    # bounds imports the leaf module alone, not the lattice
    assert proc.stdout == "['logsurf', 'logsurf._base', 'logsurf.bounds']\n"


def test_run_as_module_under_warnings_as_errors():
    proc = _python("-W", "error", "-m", "logsurf.cli", "noether", "--pg", "1")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == {"bound": "1/143", "pg": 1}


# A command that reads a file loads its handler from `_files` and the JSON
# formats (and with them the lattice); `noether` loads the leaf module and
# `bounds` alone.  No command that reads a configuration or a divisor and
# replays nothing loads `birational`; no pipeline but `catalog <id>` loads
# `formats`, none loads `_files`, and only the two examples that check a
# dual graph load `shapes`.
_FILES = {"_base", "_files", "lattice", "formats"}
_PIPELINES = {"_base", "lattice", "birational", "zariski", "_solve", "catalog"}
_FOOTPRINTS = [
    (["validate", "{cfg}"], _FILES),
    (["noether", "--pg", "5"], {"_base", "bounds"}),
    (["zariski", "{cfg}", "-d", "{div}"], _FILES | {"zariski", "_solve"}),
    (["zariski", "{cfg}", "-d", "{div}", "--json"], _FILES | {"zariski", "_solve"}),
    (["volume", "{cfg}", "-d", "{div}"], _FILES | {"zariski", "_solve"}),
    (["blowup", "{cfg}", "-s", "{script}"], _FILES | {"birational"}),
    (["contract", "{cfg}", "E"], _FILES | {"birational"}),
    (["mmp", "{cfg}", "--delta", "T"], _FILES | {"birational"}),
    (["mmp", "{cfg}", "-d", "{div}"], _FILES | {"birational"}),
    (["semistable", "{cfg}", "--delta", "C"], _FILES | {"birational", "boundary"}),
    (
        ["tower", "{cfg}", "2", "-d", "{div}", "--delta", "C,E"],
        _FILES | {"birational", "boundary", "zariski", "_solve"},
    ),
    (["catalog"], _PIPELINES),
    (["catalog", "I*_0"], _PIPELINES | {"formats"}),
    (["table1"], _PIPELINES),
    (["example", "143"], _PIPELINES | {"shapes"}),
    (["example", "25-84"], _PIPELINES | {"bounds"}),
    (["example", "rational"], _PIPELINES | {"shapes"}),
]
# The standard-library modules that only a built `ZariskiResult` may load,
# those that only the full argument parser may load, and a line of Python
# that prints those loaded.
_HEAVY = ("dataclasses", "inspect")
_PARSING = ("argparse", "gettext")
_PRINT_HEAVY = f"print(*sorted(m for m in {_HEAVY + _PARSING!r} if m in sys.modules))"
# The script runs the command line through the process entry as
# `python -m logsurf.cli` does, the module running as `__main__`, so a
# `logsurf.cli` among the modules loaded is a second copy of it.  (`-X
# importtime` would not show one: it lists no module that a `from . import
# x` loads.)
_FOOTPRINT_SCRIPT = f"""
import contextlib, io, runpy, sys
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("logsurf.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
print(code, *sorted(m[len("logsurf."):] for m in sys.modules if m.startswith("logsurf.")))
{_PRINT_HEAVY}
"""


@pytest.fixture(scope="module")
def run_command(tmp_path_factory):
    """Run a command line through the process entry of a fresh interpreter,
    once per command line: its exit code, the `logsurf.*` modules and the
    `_HEAVY` and `_PARSING` modules loaded."""
    tmp_path = tmp_path_factory.mktemp("footprint")
    cfg = make_config([("C", 0, 1), ("E", -1, 0), ("T", -2, 0)], [("C", "E", 1), ("E", "T", 1)])
    paths = {kind: tmp_path / f"{kind}.json" for kind in ("cfg", "div", "script")}
    paths["cfg"].write_text(dumps(config_to_json(cfg)), encoding="utf-8")
    paths["div"].write_text(dumps(divisor_to_json(QDivisor({"C": 1, "T": 1}))), encoding="utf-8")
    step = {"point": [{"curve": "C", "mult": 1}], "name": "G", "joins_boundary": False}
    paths["script"].write_text(json.dumps([step]), encoding="utf-8")
    runs: dict[tuple[str, ...], tuple[str, set[str], set[str]]] = {}

    def run(argv: list[str]) -> tuple[str, set[str], set[str]]:
        if tuple(argv) not in runs:
            proc = _python("-c", _FOOTPRINT_SCRIPT, *(arg.format(**paths) for arg in argv))
            assert proc.returncode == 0, proc.stderr
            (code, *loaded), heavy = (line.split() for line in proc.stdout.splitlines())
            runs[tuple(argv)] = code, set(loaded), set(heavy)
        return runs[tuple(argv)]

    return run


@pytest.mark.parametrize("argv, modules", _FOOTPRINTS, ids=[" ".join(a) for a, _ in _FOOTPRINTS])
def test_command_loads_only_its_modules(run_command, argv, modules):
    code, loaded, _ = run_command(argv)
    assert code == "0"
    assert loaded == modules


_LINES = [argv for argv, _ in _FOOTPRINTS]


@pytest.mark.parametrize("argv", _LINES, ids=[" ".join(a) for a in _LINES])
def test_no_command_line_imports_cli_as_a_module(run_command, argv):
    """`python -m logsurf.cli` runs `cli.py` as `__main__`; a module the
    command loads that imported `logsurf.cli` would compile and run it a
    second time."""
    _, loaded, _ = run_command(argv)
    assert "cli" not in loaded


_NO_RESULT = [argv for argv, modules in _FOOTPRINTS if "_result" not in modules]


@pytest.fixture(scope="module")
def bare_heavy() -> set[str]:
    """The `_HEAVY` and `_PARSING` modules a bare `python -c pass` has loaded already."""
    proc = _python("-c", f"import sys; {_PRINT_HEAVY}")
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


@pytest.mark.parametrize("argv", _NO_RESULT, ids=[" ".join(a) for a in _NO_RESULT])
def test_command_that_builds_no_result_leaves_dataclasses_and_inspect_unloaded(
    run_command, bare_heavy, argv
):
    # Compared with a bare start, so a module the host's `site` loads
    # neither fails this test nor is blamed on the command.
    _, _, heavy = run_command(argv)
    assert heavy & set(_HEAVY) == bare_heavy & set(_HEAVY)


@pytest.mark.parametrize("argv", _LINES, ids=[" ".join(a) for a in _LINES])
def test_a_well_formed_command_line_leaves_argparse_and_gettext_unloaded(
    run_command, bare_heavy, argv
):
    _, _, heavy = run_command(argv)
    assert heavy & set(_PARSING) == bare_heavy & set(_PARSING)
