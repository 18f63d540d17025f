"""Command-line front end.

Every command reads JSON files in the documented formats, computes with
exact rationals, and prints either a plain-text report or (with --json)
a machine report with all numbers as reduced "p/q" strings.  Output is
byte-stable across runs for identical inputs.

Exit codes: 0 success, 1 domain error (the error code is printed to
stderr) or output that could not be written (`write-failed`), 2
malformed input (a `bad-rational` or `bad-type` value or a
`bad-edge` is malformed input too, and so is a configuration that fails `validate`:
every command but `validate` refuses it with `invalid-config`; so is a
configuration, script or tower over its size cap, refused as `too-large`
before it is built; and so is a command line missing an input the
command needs, `bad-invocation`, as argparse's own usage errors are).  An error prints one stderr line,
`error[<code>]: <message>`, or `error[<code>]` when it has no message.

Each command returns its output, a text or a dict for `dumps`, and `run`
alone writes it, to stdout or the `-o` file.  Only the leaf module
`_base` (the error, the rational coercion and `dumps`) is imported here.
The eight commands that read input files run from `_files`, which
`catalog`, `table1`, `example` and `noether` never load; each command
imports the modules it calls, so `noether` compiles no lattice and
`validate` no pipeline, and only the commands that read or write files
compile `formats`.
"""
from __future__ import annotations

import errno
import gc
import os
import sys
from fractions import Fraction as Q
from types import SimpleNamespace

from ._base import LatticeError, dumps, rational, rational_str

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


def _cmd_file(args) -> dict | str:
    """A command that reads input files, run by its handler in `_files`."""
    from ._files import COMMANDS

    return COMMANDS[args.command](args)


def _cmd_catalog(args) -> dict | str:
    from . import catalog

    if args.id is None:
        return "\n".join(catalog.catalog_ids()) + "\n"
    return catalog.entry(args.id).to_json()


def _cmd_table1(args) -> dict | str:
    from . import catalog

    report = catalog.table1()
    return report if args.json else catalog.table1_text(report)


def _cmd_example(args) -> dict:
    from . import catalog

    report = {
        "143": catalog.example_143,
        "25-84": catalog.example_25_84,
        "rational": catalog.example_rational_shape,
    }[args.which]
    return _jsonable(report())


def _cmd_noether(args) -> dict:
    from . import bounds

    if args.pg is None:
        raise LatticeError("bad-invocation", "noether needs --pg")
    bound = bounds.noether_stable_bound(args.pg)
    payload = {"pg": args.pg, "bound": rational_str(bound)}
    if args.vol is not None:
        vol = rational(args.vol)
        payload["volume"] = rational_str(vol)
        payload["ok"] = vol >= bound
    return payload


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
    **dict.fromkeys(
        ("validate", "zariski", "volume", "blowup", "contract", "mmp", "semistable", "tower"),
        _cmd_file,
    ),
    "catalog": _cmd_catalog,
    "table1": _cmd_table1,
    "example": _cmd_example,
    "noether": _cmd_noether,
}


def _emit(text: str, out: str | None) -> None:
    """Write a command's output to the file `out`, or to stdout without one.

    An empty `out` is a file name too, and fails to open.  A failed open
    or write is `write-failed`, naming the target, not a fault of the
    input: the command ran and only its output was lost.  So is a missing
    stdout: Python sets `sys.stdout` to None when the process starts with
    file descriptor 1 closed.
    """
    try:
        if out is not None:
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(text)
        elif sys.stdout is None:
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        else:
            sys.stdout.write(text)
    except OSError as exc:
        target = "stdout" if out is None else out
        raise LatticeError("write-failed", _write_failure(target, exc)) from None


def _write_failure(target: str, exc: OSError) -> str:
    """The message of a `write-failed` error: the target and the reason."""
    return f"{target}: {exc.strerror or exc}"


_MALFORMED = ("bad-edge", "bad-invocation", "bad-rational", "bad-type", "invalid-config",
              "too-large")


def run(argv: list[str]) -> int:
    """Dispatch a command line and write its output; returns the exit code."""
    try:
        args = _parse(argv)
    except SystemExit as exc:  # argparse reports usage problems itself
        return int(exc.code or 0)
    try:
        output = _COMMANDS[args.command](args)
        _emit(output if isinstance(output, str) else dumps(output), args.out)
        return 0
    except LatticeError as exc:
        detail = f": {exc.message}" if exc.message else ""
        print(f"error[{exc.code}]{detail}", file=sys.stderr)
        return 2 if exc.code in _MALFORMED else 1
    except (OSError, KeyError, TypeError, ValueError) as exc:  # a JSONDecodeError is a ValueError
        print(f"input error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    """The process entry of `python -m logsurf.cli` and the `logsurf` script.

    A command is one short process, and the OS reclaims its memory when it
    exits, so the cyclic garbage collector only costs it time: it is off
    while the command runs, and `gc.freeze()` then moves every object it
    tracks out of the collections the interpreter makes at exit.

    Stdout is flushed here, so output that a buffered stdout cannot take
    is `write-failed`, exit 1, as a failed write in `_emit` is; descriptor
    1 then points at the null device, leaving the flush at exit nothing to
    fail.  (A write that raised in `_emit` leaves nothing to flush, nor
    does a missing stdout.)  The exit is otherwise Python's own: atexit
    handlers run, stderr is flushed and objects are freed by reference
    count.  `run`, the in-process API, leaves the collector and stdout as
    it finds them.
    """
    gc.disable()
    code = run(sys.argv[1:])
    gc.freeze()
    if sys.stdout is not None:
        try:
            sys.stdout.flush()
        except OSError as exc:
            print(f"error[write-failed]: {_write_failure('stdout', exc)}", file=sys.stderr)
            code = 1
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, 1)
            os.close(null)
    sys.exit(code)


if __name__ == "__main__":
    main()
