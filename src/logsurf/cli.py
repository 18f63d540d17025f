"""Command-line front end.

Every command reads JSON files in the documented formats, computes with
exact rationals, and prints either a plain-text report or (with --json)
a machine report with all numbers as reduced "p/q" strings.  Output is
byte-stable across runs for identical inputs.

Exit codes: 0 success, 1 domain error (the error code is printed to
stderr), 2 malformed input (a `bad-rational` or `bad-type` value or a
`bad-edge` is malformed input too, and so is a configuration that fails `validate`:
every command but `validate` refuses it with `invalid-config`; so is a
configuration, script or tower over its size cap, refused as `too-large`
before it is built; and so is a command line missing an input the
command needs, `bad-invocation`, as argparse's own usage errors are).  An error prints one stderr line,
`error[<code>]: <message>`, or `error[<code>]` when it has no message.

Only the leaf module `_base` (the error, the rational coercion and the
output form) is imported here; each command imports the modules it
calls, so `noether` compiles no lattice and `validate` no pipeline, and
only the commands that read or write files compile `formats`.
"""
from __future__ import annotations

import json
import sys
from fractions import Fraction as Q
from types import SimpleNamespace
from typing import TYPE_CHECKING

from ._base import LatticeError, dumps, rational, rational_str

if TYPE_CHECKING:
    from .lattice import CurveConfig, QDivisor


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except RecursionError:  # malformed input like any other, not a crash
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _load_config(path: str) -> CurveConfig:
    from . import formats

    config = formats.config_from_json(_read_json(path), unique_names=False)
    violations = formats.validate(config)
    if violations:
        raise LatticeError("invalid-config", "; ".join(violations))
    return config


def _load_divisor(path: str, config: CurveConfig) -> QDivisor:
    from .formats import divisor_from_json

    return divisor_from_json(_read_json(path), config)


def _required(args, option: str) -> str:
    """The file given for an option the command cannot run without."""
    path = getattr(args, option)
    if path is None:
        raise LatticeError("bad-invocation", f"{args.command} needs {_ARGUMENTS[option][0][0]}")
    return path


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload: dict, args) -> None:
    _emit(dumps(payload), args.out)


def _divisor_text(d: QDivisor) -> str:
    if not d.num:
        return "0"
    return " + ".join(f"{rational_str(v)}*{k}" for k, v in sorted(d.items()))


# Each argument a command may read: its flags (or positional name) and
# keywords.
_ARGUMENTS = {
    "config": (("config",), {"help": "curve configuration JSON file"}),
    "out": (("-o", "--out"), {"help": "write output to a file"}),
    "divisor": (("-d", "--divisor"), {"help": "divisor JSON file"}),
    "script": (("-s", "--script"), {"help": "blow-up script JSON file"}),
    "delta": (("--delta",), {"help": "comma-separated curve names"}),
    "pg": (("--pg",), {"type": int, "help": "geometric genus annotation"}),
    "vol": (("--vol",), {"help": 'rational value as "p/q"'}),
    "json": (("--json",), {"action": "store_true", "help": "machine-readable output"}),
    "name": (("name",), {"help": "curve to contract"}),
    "n": (("n",), {"type": int, "help": "number of blow-ups"}),
    "id": (("id",), {"nargs": "?", "help": "catalog entry id"}),
    "which": (("which",), {"choices": ["143", "25-84", "rational"]}),
}

# Each command's help text and the `_ARGUMENTS` it reads, in the order the
# parser adds them (the order usage and help list them in); the reader
# takes a command's positionals in this order too.
_READS = {
    "validate": ("check configuration invariants", ("config", "out", "json")),
    "zariski": (
        "Zariski decomposition of an effective divisor",
        ("config", "out", "divisor", "json"),
    ),
    "volume": ("volume of an effective divisor", ("config", "out", "divisor", "json")),
    "blowup": ("apply a blow-up script", ("config", "out", "script")),
    "contract": ("contract a (-1)-curve", ("config", "out", "name")),
    "mmp": (
        "contraction loop: --delta marks curves, -d supplies a log class",
        ("config", "out", "divisor", "delta"),
    ),
    "semistable": ("semistable part of a boundary set", ("config", "out", "delta")),
    "tower": (
        "volume-decreasing tower over a boundary intersection",
        ("config", "out", "divisor", "delta", "vol", "n"),
    ),
    "catalog": ("dump a catalog entry (no id: list ids)", ("out", "id")),
    "table1": ("compute the bundled reference table", ("out", "json")),
    "example": ("run a worked example", ("out", "which")),
    "noether": ("stable Noether-type bound for a given pg", ("out", "pg", "vol")),
}


def _parser():
    """The command-line parser: one subparser per `_READS` entry."""
    import argparse

    parser = argparse.ArgumentParser(prog="logsurf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments) in _READS.items():
        p = sub.add_parser(name, help=help_text)
        for argument in arguments:
            flags, kwargs = _ARGUMENTS[argument]
            p.add_argument(*flags, **kwargs)
    return parser


def _value(argument: str, text: str):
    """`text` as `argument` holds it (argparse's `type` and `choices`), or
    None where argparse would refuse it or could take it for an option."""
    kwargs = _ARGUMENTS[argument][1]
    if text.startswith("-"):
        return None
    if "type" in kwargs:
        try:
            return kwargs["type"](text)
        except ValueError:
            return None
    return text if text in kwargs.get("choices", (text,)) else None


def _read_line(argv: list[str]) -> SimpleNamespace | None:
    """The arguments of a line of one form: a command, its positionals, then
    its options, each flag spelled in full and each value (but --json's
    none) a separate word not starting with `-`.  Any other line, as `-h`,
    `--opt=value`, an abbreviation, `--` or a bad value, gives None."""
    if not argv or argv[0] not in _READS:
        return None
    args = {"command": argv[0]}
    flags = {}
    words = iter(argv[1:])
    word = next(words, None)
    for argument in _READS[argv[0]][1]:
        spellings, kwargs = _ARGUMENTS[argument]
        if spellings[0].startswith("-"):
            args[argument] = False if kwargs.get("action") == "store_true" else None
            flags.update(dict.fromkeys(spellings, argument))
        elif kwargs.get("nargs") == "?" and (word is None or word.startswith("-")):
            args[argument] = None
        elif word is None or (value := _value(argument, word)) is None:
            return None
        else:
            args[argument] = value
            word = next(words, None)
    while word is not None:
        argument = flags.get(word)
        if argument is None:
            return None
        if _ARGUMENTS[argument][1].get("action") == "store_true":
            args[argument] = True
        else:
            text = next(words, None)
            if text is None or (value := _value(argument, text)) is None:
                return None
            args[argument] = value
        word = next(words, None)
    return SimpleNamespace(**args)


def _parse(argv: list[str]):
    """The arguments of a command line.  A line `_read_line` reads needs no
    parser; any other is parsed by the full parser, which judges every line
    the reader leaves alone, so every usage, help and error text and exit
    code stays argparse's.  (The module docstring is the top-level help
    text, so these notes live here.)"""
    args = _read_line(argv)
    return args if args is not None else _parser().parse_args(argv)


def _cmd_validate(args) -> int:
    from . import formats

    config = formats.config_from_json(_read_json(args.config), unique_names=False)
    violations = formats.validate(config)
    if args.json:
        _emit_json({"violations": violations, "valid": not violations}, args)
    else:
        lines = [f"curves: {config.n}"]
        lines.append(f"tracked-completeness assumed: {config.assume_tracked_complete}")
        lines += [f"violation: {v}" for v in violations]
        lines.append("valid" if not violations else f"{len(violations)} violation(s)")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_zariski(args) -> int:
    # The plain tuple of `zariski._parts`: no `ZariskiResult`, so this command
    # loads no `dataclasses`.
    from . import zariski
    from .formats import decomposition_to_json

    config = _load_config(args.config)
    d = _load_divisor(_required(args, "divisor"), config)
    positive, negative, big, volume = zariski._parts(config, d)
    if args.json:
        _emit_json(decomposition_to_json(positive, negative, negative.support, big, volume), args)
    else:
        lines = [
            f"positive: {_divisor_text(positive)}",
            f"negative: {_divisor_text(negative)}",
            f"support: {', '.join(sorted(negative.support)) or '-'}",
            f"big: {str(big).lower()}",
            f"volume: {rational_str(volume)}",
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_volume(args) -> int:
    from . import zariski

    config = _load_config(args.config)
    d = _load_divisor(_required(args, "divisor"), config)
    value = zariski.volume(config, d)
    if args.json:
        _emit_json({"volume": rational_str(value)}, args)
    else:
        _emit(rational_str(value) + "\n", args.out)
    return 0


def _cmd_blowup(args) -> int:
    from . import birational
    from .formats import config_to_json, script_from_json

    config = _load_config(args.config)
    steps = script_from_json(_read_json(_required(args, "script")))
    history = birational.apply_script(config, steps)
    _emit_json(config_to_json(history.top), args)
    return 0


def _cmd_contract(args) -> int:
    from . import birational
    from .formats import config_to_json

    config = _load_config(args.config)
    _emit_json(config_to_json(birational.contract_minus_one(config, args.name)), args)
    return 0


def _cmd_mmp(args) -> int:
    from . import birational
    from .formats import config_to_json, divisor_to_json

    config = _load_config(args.config)
    if args.divisor is not None:
        cls = _load_divisor(args.divisor, config)
        cfg, cls, contracted = birational.mmp_contract_log(config, cls)
        payload = {
            "config": config_to_json(cfg),
            "log_class": divisor_to_json(cls),
            "contracted": contracted,
        }
    elif args.delta is not None:
        marked = [s for s in args.delta.split(",") if s]
        cfg, contracted = birational.mmp_contract_disjoint(config, marked)
        payload = {"config": config_to_json(cfg), "contracted": contracted}
    else:
        raise LatticeError("bad-invocation", "mmp needs --delta or -d")
    _emit_json(payload, args)
    return 0


def _cmd_semistable(args) -> int:
    from . import boundary

    config = _load_config(args.config)
    delta = [s for s in (args.delta or "").split(",") if s]
    split = boundary.semistable_part(config, delta)
    payload = {
        "C": sorted(split.C),
        "E": sorted(split.E),
        "component_genera": [
            {"component": sorted(comp), "pa": rational_str(pa)}
            for comp, pa in split.component_genera
        ],
    }
    _emit_json(payload, args)
    return 0


def _cmd_tower(args) -> int:
    from . import boundary, zariski
    from .formats import divisor_to_json, history_to_json

    config = _load_config(args.config)
    cls = _load_divisor(_required(args, "divisor"), config)
    names = [s for s in (args.delta or "").split(",") if s]
    if len(names) != 2:
        raise LatticeError("bad-invocation", "--delta must name the two curves C,E")
    b = rational(args.vol) if args.vol is not None else Q(0)
    history, new_class = boundary.tower(config, names[0], names[1], cls, b, args.n)
    payload = {
        "history": history_to_json(history),
        "log_class": divisor_to_json(new_class),
        "volume": rational_str(zariski.volume(history.top, new_class)),
    }
    _emit_json(payload, args)
    return 0


def _cmd_catalog(args) -> int:
    from . import catalog

    if args.id is None:
        _emit("\n".join(catalog.catalog_ids()) + "\n", args.out)
        return 0
    _emit_json(catalog.entry(args.id).to_json(), args)
    return 0


def _cmd_table1(args) -> int:
    from . import catalog

    report = catalog.table1()
    if args.json:
        _emit_json(report, args)
    else:
        _emit(catalog.table1_text(report), args.out)
    return 0


def _cmd_example(args) -> int:
    from . import catalog

    if args.which == "143":
        report = catalog.example_143()
    elif args.which == "25-84":
        report = catalog.example_25_84()
    else:
        report = catalog.example_rational_shape()
    _emit_json(_jsonable(report), args)
    return 0


def _cmd_noether(args) -> int:
    from . import bounds

    if args.pg is None:
        raise LatticeError("bad-invocation", "noether needs --pg")
    bound = bounds.noether_stable_bound(args.pg)
    payload = {"pg": args.pg, "bound": rational_str(bound)}
    if args.vol is not None:
        vol = rational(args.vol)
        payload["volume"] = rational_str(vol)
        payload["ok"] = vol >= bound
    _emit_json(payload, args)
    return 0


def _jsonable(value):
    """An example report, which holds only str-keyed dicts, lists, tuples,
    Fractions, ints, bools and strs, with each Fraction as "p/q"."""
    if isinstance(value, Q):
        return rational_str(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


_COMMANDS = {
    "validate": _cmd_validate,
    "zariski": _cmd_zariski,
    "volume": _cmd_volume,
    "blowup": _cmd_blowup,
    "contract": _cmd_contract,
    "mmp": _cmd_mmp,
    "semistable": _cmd_semistable,
    "tower": _cmd_tower,
    "catalog": _cmd_catalog,
    "table1": _cmd_table1,
    "example": _cmd_example,
    "noether": _cmd_noether,
}


_MALFORMED = ("bad-edge", "bad-invocation", "bad-rational", "bad-type", "invalid-config",
              "too-large")


def run(argv: list[str]) -> int:
    """Dispatch a command line; returns the process exit code."""
    try:
        args = _parse(argv)
    except SystemExit as exc:  # argparse reports usage problems itself
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except LatticeError as exc:
        detail = f": {exc.message}" if exc.message else ""
        print(f"error[{exc.code}]{detail}", file=sys.stderr)
        return 2 if exc.code in _MALFORMED else 1
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
