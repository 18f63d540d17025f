import argparse
import gc
import importlib
import itertools
import json
import os
import random
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from conftest import chain_parents, hanging_config, tree_parents

from logsurf import (
    LatticeError,
    QDivisor,
    _solve,
    cli,
    formats,
    kodaira_config,
    make_config,
    zariski,
    zariski_decompose,
)
from logsurf.cli import run
from logsurf._base import dumps
from logsurf.formats import config_to_json, divisor_to_json


@pytest.fixture()
def ii_pair(tmp_path):
    cfg = make_config([("C1", 0, 1), ("C2", -2, 0)], [("C1", "C2", 1)])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(dumps(config_to_json(cfg)), encoding="utf-8")
    div_path = tmp_path / "div.json"
    div_path.write_text(dumps(divisor_to_json(QDivisor({"C1": 1, "C2": 1}))), encoding="utf-8")
    return cfg_path, div_path


def test_volume_command(ii_pair, capsys):
    cfg, div = ii_pair
    assert run(["volume", str(cfg), "-d", str(div)]) == 0
    assert capsys.readouterr().out == "1/2\n"
    assert run(["volume", str(cfg), "-d", str(div), "--json"]) == 0
    assert capsys.readouterr().out == '{\n  "volume": "1/2"\n}\n'


def test_a_long_exact_volume_is_printed(tmp_path, capsys):
    """A valid chain whose volume has more digits than `str(int)` allows by
    default: C (C² = 1, pa 1) followed by 400 curves of self-intersection
    -10¹², D the sum of all.  `volume` and `zariski` print the exact value
    and exit 0; a huge integer in the input is still refused, as one short
    line that names the digit limit."""
    names = ["C"] + [f"R{i}" for i in range(1, 401)]
    cfg = make_config(
        [("C", 1, 1)] + [(name, -10**12, 0) for name in names[1:]],
        list(zip(names, names[1:], itertools.repeat(1))),
    )
    d = QDivisor(dict.fromkeys(names, 1))
    value, limit = zariski.volume(cfg, d), sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        want = str(value)
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(want) > limit > 0
    cfg_path, div_path = tmp_path / "chain.json", tmp_path / "d.json"
    cfg_path.write_text(dumps(config_to_json(cfg)), encoding="utf-8")
    div_path.write_text(dumps(divisor_to_json(d)), encoding="utf-8")
    args = [str(cfg_path), "-d", str(div_path)]
    assert run(["volume", *args]) == 0
    assert capsys.readouterr().out == want + "\n"
    assert run(["volume", *args, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"volume": want}
    assert run(["zariski", *args, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["volume"] == want
    div_path.write_text('{"coeffs": {"C": "1%s"}}' % ("0" * 5000), encoding="utf-8")
    assert run(["volume", *args]) == 2
    assert capsys.readouterr() == ("", f"error[bad-rational]: '1{'0' * 31}'... (5001 characters)"
                                       f" has a part over the {limit}-digit limit\n")


def test_zariski_command_json(ii_pair, capsys):
    cfg, div = ii_pair
    assert run(["zariski", str(cfg), "-d", str(div), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["volume"] == "1/2"
    assert payload["big"] is True
    assert payload["positive"]["coeffs"] == {"C1": "1", "C2": "1/2"}
    assert payload["support"] == ["C2"]


def test_zariski_cycle_not_big(tmp_path, capsys):
    cfg = make_config(
        [("C1", -2, 0), ("C2", -2, 0), ("C3", -2, 0)],
        [("C1", "C2", 1), ("C2", "C3", 1), ("C1", "C3", 1)],
    )
    cfg_path = tmp_path / "cycle.json"
    cfg_path.write_text(dumps(config_to_json(cfg)), encoding="utf-8")
    div_path = tmp_path / "d.json"
    div_path.write_text(
        dumps(divisor_to_json(QDivisor({"C1": 1, "C2": 1, "C3": 1}))), encoding="utf-8"
    )
    assert run(["zariski", str(cfg_path), "-d", str(div_path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["big"] is False and payload["volume"] == "0"


def test_validate_command(ii_pair, capsys):
    cfg, _ = ii_pair
    assert run(["validate", str(cfg)]) == 0
    assert "valid" in capsys.readouterr().out


def test_table1_command(capsys):
    assert run(["table1"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 11  # header + nine rows + summary
    assert "1/143" in out and "MISMATCH" in out


def test_table1_deterministic(capsys):
    run(["table1", "--json"])
    first = capsys.readouterr().out
    run(["table1", "--json"])
    assert capsys.readouterr().out == first


def test_blowup_round_trip(tmp_path, capsys):
    cfg = kodaira_config("II*")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(dumps(config_to_json(cfg)), encoding="utf-8")
    script_path = tmp_path / "script.json"
    script_path.write_text(
        json.dumps(
            [
                {"point": [{"curve": "A6", "mult": 1}, {"curve": "A5", "mult": 1}],
                 "name": "G", "joins_boundary": False}
            ]
        ),
        encoding="utf-8",
    )
    out_path = tmp_path / "top.json"
    assert run(["blowup", str(cfg_path), "-s", str(script_path), "-o", str(out_path)]) == 0
    top = json.loads(out_path.read_text("utf-8"))
    # emitted config is accepted back by the reader
    assert run(["validate", str(out_path)]) == 0
    selfs = {c["name"]: c["self"] for c in top["curves"]}
    assert selfs["G"] == -1 and selfs["A6"] == -3 and selfs["A5"] == -3


# One line of each command and each output form; `{cfg}`, `{div}` and
# `{script}` name the files of `command_paths`.
_EVERY_COMMAND_LINE = [
    ["validate", "{cfg}"], ["validate", "{cfg}", "--json"],
    ["zariski", "{cfg}", "-d", "{div}"], ["zariski", "{cfg}", "-d", "{div}", "--json"],
    ["volume", "{cfg}", "-d", "{div}"], ["volume", "{cfg}", "-d", "{div}", "--json"],
    ["blowup", "{cfg}", "-s", "{script}"], ["contract", "{cfg}", "E"],
    ["mmp", "{cfg}", "-d", "{div}"], ["mmp", "{cfg}", "--delta", "T"],
    ["semistable", "{cfg}", "--delta", "C"],
    ["tower", "{cfg}", "3", "-d", "{div}", "--delta", "C,E"],
    ["catalog"], ["catalog", "I*_0"], ["table1"], ["table1", "--json"],
    ["example", "143"], ["example", "25-84"], ["example", "rational"],
    ["noether", "--pg", "5"], ["noether", "--pg", "5", "--vol", "25/84"],
]


@pytest.fixture()
def command_paths(tmp_path):
    """The configuration, divisor and script files `_EVERY_COMMAND_LINE` reads."""
    cfg = make_config([("C", 0, 1), ("E", -1, 0), ("T", -2, 0)], [("C", "E", 1), ("E", "T", 1)])
    paths = {kind: str(tmp_path / f"{kind}.json") for kind in ("cfg", "div", "script")}
    Path(paths["cfg"]).write_text(dumps(config_to_json(cfg)), encoding="utf-8")
    Path(paths["div"]).write_text(json.dumps({"coeffs": {"C": "1", "T": "1/2"}}), encoding="utf-8")
    step = {"point": [{"curve": "C", "mult": 1}], "name": "G", "joins_boundary": False}
    Path(paths["script"]).write_text(json.dumps([step]), encoding="utf-8")
    return paths


def test_out_files_hold_the_stdout_bytes_and_no_command_leaves_a_file_open(
    tmp_path, capsys, monkeypatch, command_paths
):
    """Every command, on stdout and with -o: the file holds the same bytes,
    and no file or stream is left for the collector to close.  The process
    entry exits with the collector frozen, so it would never close one."""
    paths, lines = command_paths, _EVERY_COMMAND_LINE
    assert {argv[0] for argv in lines} == set(cli._COMMANDS)
    unraisable = []  # a ResourceWarning raised while a file is freed lands here
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    out = tmp_path / "out.txt"
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        for line in lines:
            argv = [word.format(**paths) for word in line]
            assert run(argv) == 0, argv
            stdout = capsys.readouterr().out
            assert stdout, argv
            assert run([*argv, "-o", str(out)]) == 0, argv
            assert capsys.readouterr().out == ""
            assert out.read_bytes() == stdout.encode("utf-8"), argv
        gc.collect()
    assert unraisable == []


def test_every_command_writes_once_through_run(tmp_path, capsys, monkeypatch, command_paths):
    """`cli._emit` is the one writer: a line that exits 0 calls it once, with
    the bytes the command prints, on stdout and with -o; a refused line
    never calls it."""
    calls = []
    emit = cli._emit

    def counted(text, out):
        calls.append((text, out))
        emit(text, out)

    monkeypatch.setattr(cli, "_emit", counted)
    out = str(tmp_path / "out.txt")
    for line in _EVERY_COMMAND_LINE:
        argv = [word.format(**command_paths) for word in line]
        assert run(argv) == 0, argv
        stdout = capsys.readouterr().out
        assert calls == [(stdout, None)], argv
        calls.clear()
        assert run([*argv, "-o", out]) == 0, argv
        assert calls == [(stdout, out)], argv
        calls.clear()
    for argv in (["catalog", "Nope"], ["zariski", command_paths["cfg"]],
                 ["tower", command_paths["cfg"], "0", "-d", command_paths["div"], "--delta", "C,E"],
                 ["noether", "--pg", "5", "--vol", "1/0"], ["noether", "--json"]):
        assert run(argv) in (1, 2), argv
        assert capsys.readouterr().out == "", argv
        assert calls == [], argv


def test_contract_command(tmp_path, capsys):
    cfg = make_config([("L", 0, 0), ("E", -1, 0)], [("L", "E", 1)])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(dumps(config_to_json(cfg)), encoding="utf-8")
    assert run(["contract", str(cfg_path), "E"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["curves"] == [{"name": "L", "pa": 0, "self": 1}]


def test_semistable_command(tmp_path, capsys):
    cfg = make_config([("F", 0, 1), ("T", -2, 0)], [("F", "T", 1)])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(dumps(config_to_json(cfg)), encoding="utf-8")
    assert run(["semistable", str(cfg_path), "--delta", "F,T"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["C"] == ["F"] and payload["E"] == ["T"]


def _fresh_env(**variables: str) -> dict[str, str]:
    """The environment of a fresh interpreter that imports logsurf from
    this source tree, with `variables` set."""
    src = Path(cli.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **variables)


def _under_hash_seeds(*argv: str) -> set[tuple[int, str, str]]:
    """(exit code, stdout, stderr) of a fresh interpreter under eight string
    hash seeds, as a set: one element when the output is byte-stable."""
    outcomes = set()
    for seed in range(8):
        env = _fresh_env(PYTHONHASHSEED=str(seed))
        done = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)
        outcomes.add((done.returncode, done.stdout, done.stderr))
    return outcomes


def test_unknown_names_are_reported_in_input_order_under_any_hash_seed(tmp_path):
    """With several unknown names the error names the first one given,
    whatever order a set of them would iterate in."""
    cfg = make_config([("F", 0, 1), ("T", -2, 0)], [("F", "T", 1)])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(dumps(config_to_json(cfg)), encoding="utf-8")
    argv = ("-m", "logsurf.cli", "semistable", str(cfg_path), "--delta", "Xa,Yb,Zc")
    assert _under_hash_seeds(*argv) == {(1, "", "error[unknown-curve]: Xa\n")}
    check = (
        "from logsurf import LatticeError, is_negative_definite, make_config\n"
        "try:\n"
        "    is_negative_definite(make_config([('F', 0, 1)]), ['F', 'Xa', 'Yb', 'Zc'])\n"
        "except LatticeError as exc:\n"
        "    print(exc)\n"
    )
    assert _under_hash_seeds("-c", check) == {(0, "unknown-curve: Xa\n", "")}


# A fresh interpreter runs the module as `python -m logsurf.cli` does and
# reports the collector's state from an atexit handler, on stderr.
_ENTRY_PROBE = """
import atexit, gc, runpy, sys
atexit.register(lambda: print(gc.isenabled(), gc.get_freeze_count() > 0, file=sys.stderr))
runpy.run_module("logsurf.cli", run_name="__main__")
"""


def test_the_process_entry_exits_with_the_collector_off_and_frozen(capsys):
    argv = [sys.executable, "-W", "error", "-c", _ENTRY_PROBE, "noether", "--pg", "5"]
    done = subprocess.run(argv, env=_fresh_env(), capture_output=True, text=True, check=False)
    golden = '{\n  "bound": "5/143",\n  "pg": 5\n}\n'
    assert (done.returncode, done.stdout, done.stderr) == (0, golden, "False True\n")
    # in process, `run` leaves the collector as it finds it
    before = gc.isenabled(), gc.get_freeze_count()
    assert run(["noether", "--pg", "5"]) == 0
    assert capsys.readouterr().out == golden
    assert (gc.isenabled(), gc.get_freeze_count()) == before


def test_the_console_script_is_the_process_entry():
    """pyproject's `logsurf` script resolves to `cli.main`, read by a regex
    and, where the standard library has it, by `tomllib`."""
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text("utf-8")
    scripts = re.search(r"^\[project\.scripts\]\n((?:[^\[\n].*\n)*)", text, re.M).group(1)
    (target,) = re.findall(r'^logsurf = "(.+)"$', scripts, re.M)
    if sys.version_info >= (3, 11):
        import tomllib

        assert tomllib.loads(text)["project"]["scripts"]["logsurf"] == target
    assert target == "logsurf.cli:main"
    module, attribute = target.split(":")
    assert getattr(importlib.import_module(module), attribute) is cli.main


def test_mmp_commands(tmp_path, capsys):
    cfg = make_config([("G", -1, 0), ("M", 0, 1)], [("G", "M", 1)])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(dumps(config_to_json(cfg)), encoding="utf-8")
    cls_path = tmp_path / "cls.json"
    cls_path.write_text(dumps(divisor_to_json(QDivisor({"G": 1}))), encoding="utf-8")
    assert run(["mmp", str(cfg_path), "-d", str(cls_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["contracted"] == ["G"]
    assert run(["mmp", str(cfg_path), "--delta", "M"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["contracted"] == []


def test_tower_command(tmp_path, capsys):
    cfg = make_config([("C", 2, 2), ("E", -2, 0)], [("C", "E", 1)])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(dumps(config_to_json(cfg)), encoding="utf-8")
    cls_path = tmp_path / "w.json"
    cls_path.write_text(dumps(divisor_to_json(QDivisor({"C": 1, "E": 1}))), encoding="utf-8")
    assert run([
        "tower", str(cfg_path), "1", "-d", str(cls_path), "--delta", "C,E", "--vol", "1/2",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["volume"] == "7/3"


def test_catalog_and_example_commands(capsys):
    assert run(["catalog"]) == 0
    ids = capsys.readouterr().out.split()
    assert "II*" in ids
    assert run(["catalog", "II*"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["expected"]["vol_min"] == "1/143"
    assert run(["example", "143"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["volume_route_a"] == "1/143"


def test_noether_command(capsys):
    assert run(["noether", "--pg", "5", "--vol", "25/84"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["bound"] == "5/143" and payload["ok"] is True


def test_domain_error_exit_code(tmp_path, capsys):
    cfg = make_config([("C", -2, 0)])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(dumps(config_to_json(cfg)), encoding="utf-8")
    div_path = tmp_path / "bad.json"
    div_path.write_text(dumps(divisor_to_json(QDivisor({"Z": 1}))), encoding="utf-8")
    assert run(["volume", str(cfg_path), "-d", str(div_path)]) == 1
    assert "unknown-curve" in capsys.readouterr().err


def test_malformed_input_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert run(["validate", str(bad)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("coeff", ["1/0", 0.5, True, "abc"])
def test_bad_rational_coefficient_is_malformed_input(tmp_path, capsys, coeff):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(dumps(config_to_json(make_config([("C", -2, 0)]))), encoding="utf-8")
    div_path = tmp_path / "d.json"
    div_path.write_text(json.dumps({"coeffs": {"C": coeff}}), encoding="utf-8")
    assert run(["zariski", str(cfg_path), "-d", str(div_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error[bad-rational]") and captured.err.count("\n") == 1


def test_zero_denominator_volume_is_malformed_input(capsys):
    assert run(["noether", "--pg", "1", "--vol", "1/0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error[bad-rational]") and captured.err.count("\n") == 1


def test_non_rational_volume_is_malformed_input(capsys):
    assert run(["noether", "--pg", "1", "--vol", "abc"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error[bad-rational]: 'abc' is not a rational\n"


def test_decimal_strings_are_malformed_input(tmp_path, capsys):
    """A decimal coefficient or volume is refused, not read as 1/2."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(dumps(config_to_json(make_config([("C", -2, 0)]))), encoding="utf-8")
    div_path = tmp_path / "d.json"
    div_path.write_text(json.dumps({"coeffs": {"C": "0.5"}}), encoding="utf-8")
    assert run(["zariski", str(cfg_path), "-d", str(div_path)]) == 2
    assert capsys.readouterr().err == "error[bad-rational]: '0.5' is not a rational\n"
    assert run(["noether", "--pg", "1", "--vol", "1e-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error[bad-rational]: '1e-1' is not a rational\n"


def test_emitted_divisor_accepted_back(tmp_path, capsys):
    cfg = make_config([("G", -1, 0), ("M", 0, 1)], [("G", "M", 1)])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(dumps(config_to_json(cfg)), encoding="utf-8")
    cls_path = tmp_path / "cls.json"
    cls_path.write_text(dumps(divisor_to_json(QDivisor({"M": 1, "G": 1}))), encoding="utf-8")
    out_path = tmp_path / "mmp.json"
    assert run(["mmp", str(cfg_path), "-d", str(cls_path), "-o", str(out_path)]) == 0
    payload = json.loads(out_path.read_text("utf-8"))
    emitted_cfg = tmp_path / "cfg2.json"
    emitted_cfg.write_text(json.dumps(payload["config"]), encoding="utf-8")
    emitted_cls = tmp_path / "cls2.json"
    emitted_cls.write_text(json.dumps(payload["log_class"]), encoding="utf-8")
    assert run(["volume", str(emitted_cfg), "-d", str(emitted_cls)]) == 0
    capsys.readouterr()


def test_other_example_commands(capsys):
    assert run(["example", "25-84"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["volume"] == "25/84"
    assert payload["gluing_5"][0] == "125/84"
    assert run(["example", "rational"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["shape_ok"] is True


_GOLDEN = Path(__file__).resolve().parent.parent / "bench" / "golden"


@pytest.mark.parametrize(
    "argv, golden", [(["table1"], "cli_table1.txt"), (["example", "143"], "cli_example_143.txt")]
)
def test_stdout_matches_golden_bytes(capsys, cold_models, argv, golden):
    """The same bytes on a cleared table of catalog models and on the warm
    second call, which reads the models the first one built."""
    for _ in range(2):
        assert run(argv) == 0
        assert capsys.readouterr().out == (_GOLDEN / golden).read_text("utf-8")


_CATALOG_IDS = (
    "I_1", "I_2", "I_3", "II", "III", "IV", "I0*", "I*_0", "I*_1", "I*_2", "II*", "III*",
    "IV*", "k3", "rational", "25/84",
)
_REFERENCE_ARGVS = [["table1", "--json"], ["example", "25-84"], ["example", "rational"],
                    ["catalog"]] + [["catalog", entry_id] for entry_id in _CATALOG_IDS]


@pytest.mark.parametrize("argv", _REFERENCE_ARGVS, ids=" ".join)
def test_reference_stdout_matches_golden_bytes(capsys, cold_models, argv):
    """Every reference output, byte for byte as stored in tests/golden/
    (`table1 --json` keeps the I_b* b = 0 cell stored as 1/22 and flagged),
    on a cleared table of catalog models and again on the warm second call."""
    name = "-".join(argv).replace("*", "star").replace("/", "_").replace("--", "") + ".txt"
    for _ in range(2):
        assert run(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.encode("utf-8") == (Path(__file__).parent / "golden" / name).read_bytes()
    if argv == ["catalog"]:
        assert tuple(captured.out.split()) == _CATALOG_IDS


# tests/golden/zariski/: <input>.config.json and <input>.divisor.json, and
# the bytes of `zariski`, `zariski --json` and `volume --json` on them.
# chain25 is a seeded 25-curve chain (`hanging_config`), tower100 the top
# of the 100-step tower above criterion 7's base, whose guess is its whole
# support.  dense is off the premise: the cold loop's first round borders
# the factor, and a pivot that is not negative sends the second round to
# the dense solver, which succeeds.  The CLI refuses a negative
# off-diagonal entry as `invalid-config`, so the off-premise inputs run
# the command with `formats.validate` lifted.
_ZARISKI_GOLDEN = Path(__file__).parent / "golden" / "zariski"
_ZARISKI_COMMANDS = {"zariski": [], "zariski-json": ["--json"]}


@pytest.mark.parametrize("name", ["chain25", "tower100", "dense"])
@pytest.mark.parametrize("command", ["zariski", "zariski-json", "volume-json"])
def test_zariski_and_volume_match_golden_bytes(capsys, monkeypatch, name, command):
    dense: list[int] = []
    if name == "dense":
        monkeypatch.setattr(formats, "validate", lambda config: [])
        solve = _solve.solve_symmetric
        monkeypatch.setattr(_solve, "solve_symmetric", lambda *a: dense.append(1) or solve(*a))
    verb, *tail = command.split("-")
    argv = [verb, str(_ZARISKI_GOLDEN / f"{name}.config.json"),
            "-d", str(_ZARISKI_GOLDEN / f"{name}.divisor.json")] + [f"--{t}" for t in tail]
    assert run(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.encode("utf-8") == (_ZARISKI_GOLDEN / f"{name}.{command}.txt").read_bytes()
    assert bool(dense) == (name == "dense")


@pytest.mark.parametrize("verb", ["zariski", "volume"])
def test_a_support_that_is_not_negative_definite_matches_golden_bytes(capsys, monkeypatch, verb):
    """Off the premise: a factor round, then two dense rounds, and the
    final support fails the check; one coded line, exit 1."""
    monkeypatch.setattr(formats, "validate", lambda config: [])
    path = _ZARISKI_GOLDEN / "indefinite"
    assert run([verb, f"{path}.config.json", "-d", f"{path}.divisor.json"]) == 1
    assert capsys.readouterr() == ("", (_ZARISKI_GOLDEN / "indefinite.err.txt").read_text("utf-8"))


_CONFIG = {
    "curves": [{"name": "C", "self": 0, "pa": 1}, {"name": "T", "self": -2, "pa": 0}],
    "edges": [{"a": "C", "b": "T", "m": 1}],
}
_STEP = {"point": [{"curve": "C", "mult": 1}], "name": "E", "joins_boundary": False}


def _patched(data, path, value):
    """A deep copy of `data` with the entry at `path` set to `value`."""
    data = json.loads(json.dumps(data))
    *keys, last = path
    target = data
    for key in keys:
        target = target[key]
    target[last] = value
    return data


@pytest.mark.parametrize(
    "path, value",
    [
        (("curves", 0, "self"), -2.7),
        (("curves", 0, "self"), True),
        (("curves", 0, "self"), "0"),
        (("curves", 1, "pa"), 0.0),
        (("edges", 0, "m"), 1.5),
        (("edges", 0, "m"), False),
        (("assume_tracked_complete",), "false"),
        (("assume_tracked_complete",), 1),
        (("curves", 0, "name"), 5),
        (("curves", 1, "name"), None),
        (("edges", 0, "a"), 0),
        (("edges", 0, "b"), 1.5),
    ],
)
def test_config_json_needs_exact_ints_and_bools(tmp_path, capsys, path, value):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_patched(_CONFIG, path, value)), encoding="utf-8")
    assert run(["validate", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error[bad-type]") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "path, value",
    [
        (("point", 0, "mult"), 1.5),
        (("point", 0, "mult"), True),
        (("joins_boundary",), "false"),
        (("joins_boundary",), 0),
        (("point", 0, "curve"), 5),
        (("name",), 7),
        (("name",), ["E"]),
    ],
)
def test_script_json_needs_exact_ints_and_bools(tmp_path, capsys, path, value):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_CONFIG), encoding="utf-8")
    script_path = tmp_path / "script.json"
    script_path.write_text(json.dumps([_patched(_STEP, path, value)]), encoding="utf-8")
    assert run(["blowup", str(cfg_path), "-s", str(script_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error[bad-type]") and captured.err.count("\n") == 1


def test_exact_json_types_still_load(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    config = _patched(_CONFIG, ("assume_tracked_complete",), True)
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    script_path = tmp_path / "script.json"
    script = [_patched(_STEP, ("joins_boundary",), True)]
    script_path.write_text(json.dumps(script), encoding="utf-8")
    assert run(["blowup", str(cfg_path), "-s", str(script_path)]) == 0
    top = json.loads(capsys.readouterr().out)
    assert top["assume_tracked_complete"] is True
    assert [c["self"] for c in top["curves"]] == [-1, -2, -1]


_UNREAD_OPTIONS = [
    ["table1", "--delta", "X"],
    ["table1", "--pg", "3"],
    ["catalog", "--json"],
    ["example", "143", "-d", "d.json"],
    ["noether", "--pg", "1", "--json"],
    ["validate", "cfg.json", "--vol", "1/2"],
    ["blowup", "cfg.json", "-s", "s.json", "--json"],
    ["contract", "cfg.json", "E", "--delta", "E"],
    ["semistable", "cfg.json", "--delta", "C", "-d", "d.json"],
    ["mmp", "cfg.json", "--delta", "C", "-s", "s.json"],
    ["tower", "cfg.json", "2", "-d", "d.json", "--delta", "C,E", "--pg", "1"],
]


@pytest.mark.parametrize("argv", _UNREAD_OPTIONS)
def test_unread_option_is_a_usage_error(capsys, argv):
    assert run(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


_DUPLICATE = {
    "curves": [{"name": "C", "self": -2, "pa": 0}, {"name": "C", "self": -1, "pa": 0}],
    "edges": [],
}


def test_validate_reports_duplicate_names(tmp_path, capsys):
    cfg_path = tmp_path / "dup.json"
    cfg_path.write_text(json.dumps(_DUPLICATE), encoding="utf-8")
    assert run(["validate", str(cfg_path)]) == 0
    captured = capsys.readouterr()
    assert "violation: C: duplicate name\n" in captured.out and captured.err == ""
    assert captured.out.endswith("1 violation(s)\n")
    assert run(["validate", str(cfg_path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "valid": False, "violations": ["C: duplicate name"]
    }
    div_path = tmp_path / "d.json"
    div_path.write_text(json.dumps({"coeffs": {"C": "1"}}), encoding="utf-8")
    assert run(["volume", str(cfg_path), "-d", str(div_path)]) == 2
    assert capsys.readouterr() == ("", "error[invalid-config]: C: duplicate name\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["zariski", "{cfg}"], "zariski needs -d"),
        (["volume", "{cfg}", "--json"], "volume needs -d"),
        (["tower", "{cfg}", "2", "--delta", "C,T"], "tower needs -d"),
        (["blowup", "{cfg}"], "blowup needs -s"),
        (["mmp", "{cfg}"], "mmp needs --delta or -d"),
        (["noether"], "noether needs --pg"),
    ],
)
def test_a_missing_input_is_named(tmp_path, capsys, argv, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_CONFIG), encoding="utf-8")
    assert run([arg.format(cfg=cfg_path) for arg in argv]) == 2
    assert capsys.readouterr() == ("", f"error[bad-invocation]: {message}\n")


@pytest.mark.parametrize("delta", [None, "C", "C,E,T"])
def test_tower_needs_two_curves_in_delta(tmp_path, capsys, delta):
    cfg_path, cls_path = _tower_inputs(tmp_path)
    argv = ["tower", cfg_path, "3", "-d", cls_path]
    assert run(argv + (["--delta", delta] if delta else [])) == 2
    assert capsys.readouterr() == (
        "", "error[bad-invocation]: --delta must name the two curves C,E\n"
    )


def test_an_empty_option_value_is_read_not_ignored(tmp_path, capsys):
    """`--vol ''`, `-d ''`, the id '' and `-o ''` are given values: each
    command refuses them as `noether` and `zariski` do, never as if absent,
    and `-o ''` is a file that cannot be opened, not stdout."""
    cfg_path, cls_path = _tower_inputs(tmp_path)
    for argv in (["tower", cfg_path, "3", "-d", cls_path, "--delta", "C,E", "--vol", ""],
                 ["noether", "--pg", "5", "--vol", ""]):
        assert run(argv) == 2
        assert capsys.readouterr() == ("", "error[bad-rational]: '' is not a rational\n")
    for argv in (["mmp", cfg_path, "-d", "", "--delta", "C"], ["zariski", cfg_path, "-d", ""]):
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("input error: ") and err.count("\n") == 1
    assert run(["catalog", ""]) == 1
    assert capsys.readouterr() == ("", "error[unknown-entry]\n")
    assert run(["noether", "--pg", "5", "-o", ""]) == 1
    assert capsys.readouterr() == ("", "error[write-failed]: : No such file or directory\n")


def test_an_output_that_cannot_be_written_is_write_failed(tmp_path, capsys, monkeypatch):
    """A failed write of the output, to an `-o` file or to stdout, is one
    `write-failed` line naming the target, exit 1; an input file that
    cannot be read is still `input error`, exit 2."""
    missing = tmp_path / "no" / "x.json"
    argv = ["-W", "error", "-m", "logsurf.cli", "noether", "--pg", "5", "-o", str(missing)]
    done = subprocess.run([sys.executable, *argv], env=_fresh_env(), capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == f"error[write-failed]: {missing}: No such file or directory\n"
    assert not missing.parent.exists()

    class FullStdout:
        def write(self, text):
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(sys, "stdout", FullStdout())
    assert run(["table1"]) == 1
    assert capsys.readouterr().err == "error[write-failed]: stdout: No space left on device\n"
    monkeypatch.undo()

    cfg_path, _ = _tower_inputs(tmp_path)
    absent = str(tmp_path / "absent.json")
    assert run(["zariski", cfg_path, "-d", absent]) == 2
    assert capsys.readouterr() == (
        "", f"input error: [Errno 2] No such file or directory: '{absent}'\n"
    )


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
def test_an_output_to_a_full_device_is_write_failed(tmp_path, capsys):
    cfg_path, cls_path = _tower_inputs(tmp_path)
    for argv in (["noether", "--pg", "5"], ["zariski", cfg_path, "-d", cls_path, "--json"]):
        assert run([*argv, "-o", "/dev/full"]) == 1, argv
        assert capsys.readouterr() == (
            "", "error[write-failed]: /dev/full: No space left on device\n"
        )


def _process_entry(argv: list[str], **streams) -> tuple[int, str]:
    """(exit code, stderr) of `python -m logsurf.cli` with a buffered stdout."""
    env = _fresh_env()
    env.pop("PYTHONUNBUFFERED", None)
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "logsurf.cli", *argv],
        env=env, stderr=subprocess.PIPE, text=True, **streams,
    )
    return done.returncode, done.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
def test_a_buffered_stdout_on_a_full_device_is_write_failed():
    """Output a buffered stdout cannot take fails only when it is flushed:
    the process entry flushes it itself, so the failure is one
    `write-failed` line with exit 1, not Python's exit 120."""
    with open("/dev/full", "w") as full:
        for argv in (["table1"], ["noether", "--pg", "5"]):
            assert _process_entry(argv, stdout=full) == (
                1, "error[write-failed]: stdout: No space left on device\n"
            ), argv


def test_a_stdout_pipe_with_no_reader_is_write_failed():
    read, write = os.pipe()
    os.close(read)
    try:
        done = _process_entry(["table1"], stdout=write)
    finally:
        os.close(write)
    assert done == (1, "error[write-failed]: stdout: Broken pipe\n")


def test_a_closed_stdout_is_write_failed(tmp_path):
    """With file descriptor 1 closed at start Python has no `sys.stdout`;
    a command that writes to it fails as `write-failed`, one that writes
    only to `-o` succeeds."""
    closed = {"preexec_fn": lambda: os.close(1)}
    assert _process_entry(["noether", "--pg", "5"], **closed) == (
        1, "error[write-failed]: stdout: Bad file descriptor\n"
    )
    out = tmp_path / "bound.json"
    assert _process_entry(["noether", "--pg", "5", "-o", str(out)], **closed) == (0, "")
    assert out.read_text(encoding="utf-8") == '{\n  "bound": "5/143",\n  "pg": 5\n}\n'


_INVALID = {
    "curves": [
        {"name": "C", "self": -2, "pa": -1},
        {"name": "D", "self": -3, "pa": 0},
        {"name": "E", "self": -1, "pa": 0},
    ],
    "edges": [{"a": "C", "b": "D", "m": -3}, {"a": "D", "b": "E", "m": 1}],
}


@pytest.mark.parametrize(
    "argv",
    [
        ["volume", "{cfg}", "-d", "{div}"],
        ["zariski", "{cfg}", "-d", "{div}"],
        ["zariski", "{cfg}", "-d", "{div}", "--json"],
        ["blowup", "{cfg}", "-s", "{script}"],
        ["contract", "{cfg}", "E"],
        ["mmp", "{cfg}", "--delta", "D"],
        ["mmp", "{cfg}", "-d", "{div}"],
        ["semistable", "{cfg}", "--delta", "C,D"],
        ["tower", "{cfg}", "2", "-d", "{div}", "--delta", "D,E"],
    ],
)
def test_compute_commands_refuse_invalid_configs(tmp_path, capsys, argv):
    paths = {"cfg": tmp_path / "cfg.json", "div": tmp_path / "d.json", "script": tmp_path / "s.json"}
    paths["cfg"].write_text(json.dumps(_INVALID), encoding="utf-8")
    paths["div"].write_text(json.dumps({"coeffs": {"D": "1", "E": "1"}}), encoding="utf-8")
    step = {"point": [{"curve": "D", "mult": 1}], "name": "X"}
    paths["script"].write_text(json.dumps([step]), encoding="utf-8")
    assert run([arg.format(**paths) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error[invalid-config]") and captured.err.count("\n") == 1
    assert "C: pa -1 is negative" in captured.err and "-3 is negative off-diagonal" in captured.err
    assert run(["validate", str(paths["cfg"])]) == 0
    assert capsys.readouterr().out.endswith("3 violation(s)\n")


@pytest.mark.parametrize("divisor", [[1, 2], {"coeffs": [1, 2]}, "C", {"coeffs": None}])
def test_divisor_json_must_be_objects(tmp_path, capsys, divisor):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_CONFIG), encoding="utf-8")
    div_path = tmp_path / "d.json"
    div_path.write_text(json.dumps(divisor), encoding="utf-8")
    assert run(["zariski", str(cfg_path), "-d", str(div_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error[bad-type]") and captured.err.count("\n") == 1


_WRONG_SHAPES = ([], [1, 2], {}, {"x": 1}, None, 0, -1, 1.5, True, "", "C", "1/0", [[]], [{}])


def _json_paths(data, prefix=()):
    """Every path into a JSON value, the root included."""
    yield prefix
    if isinstance(data, dict):
        items = data.items()
    elif isinstance(data, list):
        items = enumerate(data)
    else:
        items = ()
    for key, value in items:
        yield from _json_paths(value, prefix + (key,))


_NAME_FIELDS = {"name", "a", "b", "curve"}  # a curve name in configs and scripts


def _fuzzed(rng, data):
    """`data` with one entry replaced by a wrong shape or type, or one entry
    dropped; and whether a curve name was replaced by something not a string."""
    path = rng.choice(list(_json_paths(data)))
    if not path:
        return rng.choice(_WRONG_SHAPES), False
    if rng.random() < 0.25:
        data = json.loads(json.dumps(data))
        target = data
        for key in path[:-1]:
            target = target[key]
        del target[path[-1]]
        return data, False
    value = rng.choice(_WRONG_SHAPES)
    return _patched(data, path, value), path[-1] in _NAME_FIELDS and type(value) is not str


_FUZZ_FILES = {
    "cfg": {
        "curves": _CONFIG["curves"] + [{"name": "E", "self": -1, "pa": 0}],
        "edges": _CONFIG["edges"] + [{"a": "C", "b": "E", "m": 1}],
    },
    "div": {"coeffs": {"C": "1", "T": "1/2", "E": "2"}},
    "script": [_STEP, {"point": [{"curve": "C", "mult": 1}, {"curve": "E", "mult": 1}], "name": "F"}],
}
_FUZZ_COMMANDS = {
    "cfg": [
        ["validate", "{cfg}"],
        ["volume", "{cfg}", "-d", "{div}"],
        ["contract", "{cfg}", "E"],
        ["mmp", "{cfg}", "--delta", "C"],
        ["semistable", "{cfg}", "--delta", "C,T"],
    ],
    "div": [
        ["zariski", "{cfg}", "-d", "{div}", "--json"],
        ["mmp", "{cfg}", "-d", "{div}"],
        ["tower", "{cfg}", "2", "-d", "{div}", "--delta", "C,T"],
    ],
    "script": [["blowup", "{cfg}", "-s", "{script}"]],
}


def test_cli_fuzz_exits_with_a_code_and_never_raises(tmp_path, capsys):
    """Seeded malformed configs, divisors and scripts: exit 0, 1 or 2, never an
    exception; a curve name that is not a JSON string is always `bad-type`."""
    paths = {kind: tmp_path / f"{kind}.json" for kind in _FUZZ_FILES}
    rng = random.Random(2017)
    codes = {0: 0, 1: 0, 2: 0}
    bad_names = 0
    for kind, argvs in _FUZZ_COMMANDS.items():
        for _ in range(60):
            bad_name = False
            for other, data in _FUZZ_FILES.items():
                if other == kind:
                    data, bad_name = _fuzzed(rng, data)
                paths[other].write_text(json.dumps(data), encoding="utf-8")
            for argv in argvs:
                code = run([arg.format(**paths) for arg in argv])
                assert code in codes, (argv, paths[kind].read_text("utf-8"))
                codes[code] += 1
                err = capsys.readouterr().err
                if bad_name:
                    assert code == 2 and err.startswith("error[bad-type]"), (argv, err)
                    bad_names += 1
    assert codes[2] > codes[0] > 0, codes
    assert bad_names >= 10, bad_names


def _tower_inputs(tmp_path):
    cfg = make_config([("C", 2, 2), ("E", -2, 0)], [("C", "E", 1)])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(dumps(config_to_json(cfg)), encoding="utf-8")
    cls_path = tmp_path / "w.json"
    cls_path.write_text(dumps(divisor_to_json(QDivisor({"C": 1, "E": 1}))), encoding="utf-8")
    return str(cfg_path), str(cls_path)


def test_tower_refuses_one_curve_as_both_branches(tmp_path, capsys):
    cfg_path, cls_path = _tower_inputs(tmp_path)
    assert run(["tower", cfg_path, "3", "-d", cls_path, "--delta", "C,C"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error[bad-tower]")


def test_tower_refuses_curves_that_do_not_meet(tmp_path, capsys):
    cfg_path, cls_path = tmp_path / "apart.json", tmp_path / "w.json"
    cfg_path.write_text(json.dumps(_patched(_CONFIG, ("edges",), [])), encoding="utf-8")
    cls_path.write_text(json.dumps({"coeffs": {"C": "1"}}), encoding="utf-8")
    assert run(["tower", str(cfg_path), "2", "-d", str(cls_path), "--delta", "C,T"]) == 1
    assert capsys.readouterr() == ("", "error[bad-tower]: C does not meet T\n")


@pytest.mark.parametrize("edge, err", [
    ({"a": "C", "b": "C", "m": 1}, "error[bad-edge]: self edge on C\n"),
    ({"a": "C", "b": "Z", "m": 1}, "error[bad-edge]: Z is not a listed curve\n"),
])
def test_malformed_edges_are_malformed_input(tmp_path, capsys, edge, err):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_patched(_CONFIG, ("edges", 0), edge)), encoding="utf-8")
    cls_path = tmp_path / "d.json"
    cls_path.write_text(json.dumps({"coeffs": {"C": "1"}}), encoding="utf-8")
    for argv in (["validate", str(cfg_path)], ["volume", str(cfg_path), "-d", str(cls_path)]):
        assert run(argv) == 2, argv
        assert capsys.readouterr() == ("", err), argv


@pytest.mark.parametrize("path, value, err", [
    (("edges",), [{"a": "C", "b": "T", "m": 1}, {"a": "T", "b": "C", "m": 3}],
     "error[bad-edge]: C.T is listed twice\n"),
    (("curves", 1), {"name": "T", "pa": 0}, 'error[bad-type]: curves[1] has no "self"\n'),
    (("edges", 0), {"a": "C", "m": 1}, 'error[bad-type]: edges[0] has no "b"\n'),
])
def test_a_contradictory_or_incomplete_file_is_malformed_input(tmp_path, capsys, path, value, err):
    """One coded line, exit 2, from every command that loads the file."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_patched(_CONFIG, path, value)), encoding="utf-8")
    cls_path = tmp_path / "d.json"
    cls_path.write_text(json.dumps({"coeffs": {"C": "1"}}), encoding="utf-8")
    for argv in (["validate", str(cfg_path)], ["volume", str(cfg_path), "-d", str(cls_path)]):
        assert run(argv) == 2, argv
        assert capsys.readouterr() == ("", err), argv


@pytest.mark.parametrize("kind, data, err", [
    ("script", [{"point": [{"curve": "C"}], "name": "E"}],
     'steps[0].point[0] has no "mult"'),
    ("script", [_STEP, {"point": [{"curve": "C", "mult": 1}]}], 'steps[1] has no "name"'),
    ("script", [{"name": "E"}], 'steps[0] has no "point"'),
    ("script", _STEP, f"steps must be list, got {_STEP!r}"),
    ("script", [_STEP, 5], "steps[1] must be dict, got 5"),
    ("script", [{"point": {"curve": "C", "mult": 1}, "name": "E"}],
     "point must be list, got {'curve': 'C', 'mult': 1}"),
    ("script", [{"point": ["C"], "name": "E"}], "steps[0].point[0] must be dict, got 'C'"),
    ("config", {"curves": 5}, "curves must be list, got 5"),
    ("config", {"curves": [5]}, "curves[0] must be dict, got 5"),
    ("config", [_CONFIG], f"configuration must be dict, got {[_CONFIG]!r}"),
    ("config", {"curves": _CONFIG["curves"], "edges": {}}, "edges must be list, got {}"),
    ("config", {"curves": _CONFIG["curves"], "edges": [None]}, "edges[0] must be dict, got None"),
])
def test_a_file_of_the_wrong_shape_is_one_coded_line(tmp_path, capsys, kind, data, err):
    """A container or entry of the wrong JSON type, or a missing field,
    anywhere in a configuration or a script: exit 2 and one `bad-type`
    line naming it, never Python's own message."""
    cfg_path, script_path = tmp_path / "cfg.json", tmp_path / "script.json"
    cfg_path.write_text(json.dumps(data if kind == "config" else _CONFIG), encoding="utf-8")
    script_path.write_text(json.dumps(data if kind == "script" else [_STEP]), encoding="utf-8")
    argvs = [["blowup", str(cfg_path), "-s", str(script_path)]]
    if kind == "config":
        argvs.append(["validate", str(cfg_path)])
    for argv in argvs:
        assert run(argv) == 2, argv
        assert capsys.readouterr() == ("", f"error[bad-type]: {err}\n"), argv


def test_example_reports_hold_only_types_the_renderer_handles():
    """`_jsonable` renders str-keyed dicts, lists, tuples, Fractions, ints,
    bools and strs; any other value would reach `json.dumps` and surface
    as a misleading `input error`, exit 2."""
    from fractions import Fraction

    from logsurf import example_143, example_25_84, example_rational_shape

    allowed = {dict, list, tuple, Fraction, int, bool, str}
    seen = set()
    for report in (example_143(), example_25_84(), example_rational_shape()):
        stack = [report]
        while stack:
            value = stack.pop()
            seen.add(type(value))
            assert type(value) in allowed, value
            if isinstance(value, dict):
                assert all(type(k) is str for k in value), value
                stack.extend(value.values())
            elif isinstance(value, (list, tuple)):
                stack.extend(value)
    assert {dict, list, Fraction, str} <= seen, seen


def test_oversize_inputs_are_malformed_input(tmp_path, capsys):
    from logsurf.birational import MAX_SCRIPT_STEPS
    from logsurf.boundary import MAX_TOWER_N
    from logsurf.lattice import MAX_CURVES

    cfg_path, cls_path = _tower_inputs(tmp_path)
    big_cfg = tmp_path / "big.json"
    big_cfg.write_text(
        json.dumps({"curves": [{"name": "C", "self": 0, "pa": 0}] * (MAX_CURVES + 1)}),
        encoding="utf-8",
    )
    # entries of a script are not even read: `{}` would be a KeyError
    big_script = tmp_path / "script.json"
    big_script.write_text(json.dumps([{}] * (MAX_SCRIPT_STEPS + 1)), encoding="utf-8")
    for argv in (
        ["tower", cfg_path, str(MAX_TOWER_N + 1), "-d", cls_path, "--delta", "C,E"],
        ["blowup", cfg_path, "-s", str(big_script)],
        ["validate", str(big_cfg)],
        ["volume", str(big_cfg), "-d", cls_path],
    ):
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error[too-large]"), argv


def test_deeply_nested_json_is_malformed_input(tmp_path, capsys):
    cfg_path, _ = _tower_inputs(tmp_path)
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000, encoding="utf-8")
    for argv in (
        ["validate", str(deep)],
        ["volume", cfg_path, "-d", str(deep)],
        ["blowup", cfg_path, "-s", str(deep)],
    ):
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: {deep}: JSON nested too deeply\n"


def test_error_line_names_its_code_once(tmp_path, capsys, monkeypatch):
    """The exact stderr bytes: `error[<code>]: <message>`, or `error[<code>]`."""
    cfg_path, cls_path = _tower_inputs(tmp_path)
    bad_name = tmp_path / "bad_name.json"
    bad_name.write_text(json.dumps(_patched(_CONFIG, ("curves", 0, "name"), 5)), encoding="utf-8")
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"coeffs": {"Z": "1"}}), encoding="utf-8")
    cases = [
        (["validate", str(bad_name)], 2, "error[bad-type]: name must be str, got 5\n"),
        (["volume", cfg_path, "-d", str(unknown)], 1, "error[unknown-curve]: Z\n"),
        (
            ["tower", cfg_path, "10001", "-d", cls_path, "--delta", "C,E"],
            2,
            "error[too-large]: 10001 tower steps (at most 10000)\n",
        ),
        (["noether", "--pg", "-1"], 1, "error[bad-pg]: pg = -1 < 0\n"),
    ]
    for argv, code, err in cases:
        assert run(argv) == code, argv
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", err), argv

    def no_message(args):
        raise LatticeError("bad-pg")

    monkeypatch.setitem(cli._COMMANDS, "noether", no_message)
    assert run(["noether", "--pg", "1"]) == 1
    assert capsys.readouterr().err == "error[bad-pg]\n"


def test_lattice_error_keeps_code_and_str():
    err = LatticeError("unknown-curve", "Z")
    assert (err.code, err.message, str(err)) == ("unknown-curve", "Z", "unknown-curve: Z")
    bare = LatticeError("bad-pg")
    assert (bare.code, bare.message, str(bare)) == ("bad-pg", "", "bad-pg")


# Each command's positionals, in order; a shorter line misses one.
_POSITIONALS = {
    "validate": ["cfg.json"], "zariski": ["cfg.json"], "volume": ["cfg.json"],
    "blowup": ["cfg.json"], "contract": ["cfg.json", "E"], "mmp": ["cfg.json"],
    "semistable": ["cfg.json"], "tower": ["cfg.json", "2"], "catalog": ["I*_0"],
    "table1": [], "example": ["143"], "noether": [],
}
_PARSER_CASES = [[], ["-h"], ["bogus"], ["--json", "table1"], ["-o", "x", "noether"]]
_PARSER_CASES += [[name, "-h"] for name in _POSITIONALS]
_PARSER_CASES += [[name, *args[:-1]] for name, args in _POSITIONALS.items() if name != "catalog" and args]
_PARSER_CASES += [[name, *args, "--bogus"] for name, args in _POSITIONALS.items()]
_PARSER_CASES += _UNREAD_OPTIONS
_PARSER_CASES += [["noether", "--pg", "x"], ["example", "999"], ["tower", "cfg.json", "x"]]
# Lines `cli._read_line` leaves to the full parser although argparse may
# read them: `--opt=value`, an abbreviation, a value starting with `-`, an
# option before a positional, `--`.
_EDGE_LINES = [
    ["noether", "--pg=5"],
    ["zariski", "cfg.json", "--js", "-d", "d.json"],
    ["noether", "--pg", "5", "--vol", "-1/2"],
    ["zariski", "cfg.json", "-dd.json"],
    ["tower", "cfg.json", "-3", "-d", "d.json", "--delta", "C,E"],
    ["tower", "cfg.json", "-d", "d.json", "--delta", "C,E", "2"],
    ["zariski", "-d", "d", "cfg.json"],
    ["zariski", "--", "cfg.json"],
    ["catalog", "I*_0", "extra"],
    ["example", "143", "-o"],
]
_PARSER_CASES += _EDGE_LINES


@pytest.mark.parametrize("argv", _PARSER_CASES, ids=lambda argv: " ".join(argv) or "(none)")
def test_usage_help_and_errors_match_the_full_parser(capsys, monkeypatch, argv):
    """Byte for byte, with the exit code, as when the full parser reads every line."""
    read = run(argv), capsys.readouterr()
    monkeypatch.setattr(cli, "_read_line", lambda argv: None)  # the reader forced off
    assert (run(argv), capsys.readouterr()) == read
    assert read[0] in (0, 2)


@pytest.mark.parametrize(
    "argv", [*_PARSER_CASES, ["noether", "--pg", "-5"]], ids=lambda argv: " ".join(argv) or "(none)"
)
def test_the_reader_leaves_every_other_line_to_the_parser(argv):
    assert cli._read_line(argv) is None


def _option_words(action, spelling: str) -> list[str]:
    """An option's flag and value: the short or long flag, the long flag
    given twice (the last value is read), or an empty value."""
    flag = action.option_strings[0 if spelling == "short" else -1]
    if action.nargs == 0:  # --json
        return [flag] * (2 if spelling == "twice" else 1)
    if action.type is int:
        words = [flag, "7"]
    else:
        words = [flag, "" if spelling == "empty" else f"{action.dest}.json"]
    if spelling == "twice":
        words += [flag, "12" if action.type is int else "x"]
    return words


def _accepted_lines():
    """Every command with its positionals and each subset of its options."""
    sub = next(a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction))
    for name, positionals in _POSITIONALS.items():
        options = [a for a in sub.choices[name]._actions if a.option_strings and a.dest != "help"]
        for size in range(len(options) + 1):
            for subset in itertools.combinations(options, size):
                for spelling in ("short", "long", "twice", "empty"):
                    words = [word for action in subset for word in _option_words(action, spelling)]
                    yield [name, *positionals, *words]
    yield ["catalog"]
    yield ["catalog", "-o", "out.txt"]
    yield ["validate", ""]
    yield ["contract", "", ""]


def test_the_reader_reads_a_well_formed_line_as_the_full_parser_does():
    parser = cli._parser()
    lines = list(_accepted_lines())
    for argv in lines:
        args = cli._read_line(argv)
        assert args is not None, argv
        assert vars(args) == vars(parser.parse_args(argv)), argv
    full = ["-o", "out.json", "-d", "divisor.json", "--delta", "delta.json", "--vol", "vol.json"]
    assert ["tower", "cfg.json", "2", *full] in lines
    assert ["zariski", "cfg.json", "--out", "", "--divisor", "", "--json"] in lines
    assert ["noether", "--out", "out.json", "--out", "x", "--pg", "7", "--pg", "12"] in lines


def test_an_unread_option_prints_the_top_level_usage(ii_pair, capsys):
    cfg, div = ii_pair
    assert run(["zariski", str(cfg), "-d", str(div), "--bogus"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: logsurf [-h]")
    assert "{" + ",".join(cli._COMMANDS) + "}" in captured.err  # every command, as before
    assert captured.err.endswith("logsurf: error: unrecognized arguments: --bogus\n")


def test_a_clean_command_line_builds_no_parser(ii_pair, capsys, monkeypatch):
    built: list[str] = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    cfg, div = ii_pair
    for argv in (["zariski", str(cfg), "-d", str(div)], ["noether", "--pg", "5"]):
        # the same arguments as the full parser reads
        assert vars(cli._parse(argv)) == vars(cli._parser().parse_args(argv))
        built.clear()
        assert run(argv) == 0
        assert built == []
    assert run(["noether", "--pg", "5", "--bogus"]) == 2
    assert built == list(cli._COMMANDS)  # the full parser reports the line


def _rendered(result) -> tuple[str, str]:
    """The text and --json reports of a `ZariskiResult`, rendered here."""

    def text(d):
        return " + ".join(f"{v}*{k}" for k, v in sorted(d.items())) or "0"

    lines = [
        f"positive: {text(result.positive)}",
        f"negative: {text(result.negative)}",
        f"support: {', '.join(sorted(result.support)) or '-'}",
        f"big: {str(result.big).lower()}",
        f"volume: {result.volume}",
    ]
    payload = {
        "positive": {"coeffs": {k: str(v) for k, v in result.positive.items()}},
        "negative": {"coeffs": {k: str(v) for k, v in result.negative.items()}},
        "support": sorted(result.support),
        "big": result.big,
        "volume": str(result.volume),
    }
    return "\n".join(lines) + "\n", json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _zariski_inputs():
    """Seeded chains and trees, and three small cases: big with an empty
    support, not big with an empty support (a (-2)-cycle), and P = 0."""
    for shape in (chain_parents, tree_parents):
        rng = random.Random(f"cli-{shape.__name__}")
        for k in (3, 8, 20):
            yield hanging_config(rng, shape(rng, k))
    three = make_config([("C", 0, 1), ("E", -1, 0), ("T", -2, 0)], [("C", "E", 1), ("E", "T", 1)])
    yield three, QDivisor({"C": 1, "E": 1})
    cycle = make_config(
        [("C1", -2, 0), ("C2", -2, 0), ("C3", -2, 0)],
        [("C1", "C2", 1), ("C2", "C3", 1), ("C1", "C3", 1)],
    )
    yield cycle, QDivisor({"C1": 1, "C2": 1, "C3": 1})
    yield three, QDivisor({"T": 2})


def test_zariski_reports_equal_a_rendering_of_the_decomposition(tmp_path, capsys):
    seen = set()
    for i, (config, d) in enumerate(_zariski_inputs()):
        cfg_path, div_path = tmp_path / f"cfg{i}.json", tmp_path / f"div{i}.json"
        cfg_path.write_text(dumps(config_to_json(config)), encoding="utf-8")
        div_path.write_text(dumps(divisor_to_json(d)), encoding="utf-8")
        result = zariski_decompose(config, d)
        seen.add((result.big, bool(result.support), bool(result.positive.num)))
        argv = ["zariski", str(cfg_path), "-d", str(div_path)]
        reports = []
        for tail in ([], ["--json"]):
            assert run(argv + tail) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            reports.append(captured.out)
        assert tuple(reports) == _rendered(result), i
    assert {(True, True, True), (True, False, True), (False, False, True)} <= seen
    assert (False, True, False) in seen  # P = 0
