"""The eight commands that read input files: `validate`, `zariski`,
`volume`, `blowup`, `contract`, `mmp`, `semistable` and `tower`.

Each handler returns its output, a text or a dict for `dumps`, and
`cli.run` writes it.  `cli` imports this module only when one of them
runs, so `table1`, `example` and `noether` never compile these handlers
or their loaders.  It must not import `cli`: under `python -m
logsurf.cli` the running module is `__main__`, and that import would
compile and run `cli.py` a second time.
"""
from __future__ import annotations

import json
from fractions import Fraction as Q
from typing import TYPE_CHECKING

from ._base import LatticeError, rational, rational_str

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


def _required(args, option: str, flag: str) -> str:
    """The file given for an option the command cannot run without."""
    path = getattr(args, option)
    if path is None:
        raise LatticeError("bad-invocation", f"{args.command} needs {flag}")
    return path


def _divisor_text(d: QDivisor) -> str:
    if not d.num:
        return "0"
    return " + ".join(f"{rational_str(v)}*{k}" for k, v in sorted(d.items()))


def _cmd_validate(args) -> dict | str:
    from . import formats

    config = formats.config_from_json(_read_json(args.config), unique_names=False)
    violations = formats.validate(config)
    if args.json:
        return {"violations": violations, "valid": not violations}
    lines = [f"curves: {config.n}"]
    lines.append(f"tracked-completeness assumed: {config.assume_tracked_complete}")
    lines += [f"violation: {v}" for v in violations]
    lines.append("valid" if not violations else f"{len(violations)} violation(s)")
    return "\n".join(lines) + "\n"


def _cmd_zariski(args) -> dict | str:
    # The plain tuple of `zariski._parts`: no `ZariskiResult`, so this command
    # loads no `dataclasses`.
    from . import zariski
    from .formats import decomposition_to_json

    config = _load_config(args.config)
    d = _load_divisor(_required(args, "divisor", "-d"), config)
    positive, negative, big, volume = zariski._parts(config, d)
    if args.json:
        return decomposition_to_json(positive, negative, negative.support, big, volume)
    lines = [
        f"positive: {_divisor_text(positive)}",
        f"negative: {_divisor_text(negative)}",
        f"support: {', '.join(sorted(negative.support)) or '-'}",
        f"big: {str(big).lower()}",
        f"volume: {rational_str(volume)}",
    ]
    return "\n".join(lines) + "\n"


def _cmd_volume(args) -> dict | str:
    from . import zariski

    config = _load_config(args.config)
    d = _load_divisor(_required(args, "divisor", "-d"), config)
    value = rational_str(zariski.volume(config, d))
    return {"volume": value} if args.json else value + "\n"


def _cmd_blowup(args) -> dict:
    from . import birational
    from .formats import config_to_json, script_from_json

    config = _load_config(args.config)
    steps = script_from_json(_read_json(_required(args, "script", "-s")))
    history = birational.apply_script(config, steps)
    return config_to_json(history.top)


def _cmd_contract(args) -> dict:
    from . import birational
    from .formats import config_to_json

    config = _load_config(args.config)
    return config_to_json(birational.contract_minus_one(config, args.name))


def _cmd_mmp(args) -> dict:
    from . import birational
    from .formats import config_to_json, divisor_to_json

    config = _load_config(args.config)
    if args.divisor is not None:
        cls = _load_divisor(args.divisor, config)
        cfg, cls, contracted = birational.mmp_contract_log(config, cls)
        return {
            "config": config_to_json(cfg),
            "log_class": divisor_to_json(cls),
            "contracted": contracted,
        }
    if args.delta is None:
        raise LatticeError("bad-invocation", "mmp needs --delta or -d")
    marked = [s for s in args.delta.split(",") if s]
    cfg, contracted = birational.mmp_contract_disjoint(config, marked)
    return {"config": config_to_json(cfg), "contracted": contracted}


def _cmd_semistable(args) -> dict:
    from . import boundary

    config = _load_config(args.config)
    delta = [s for s in (args.delta or "").split(",") if s]
    split = boundary.semistable_part(config, delta)
    return {
        "C": sorted(split.C),
        "E": sorted(split.E),
        "component_genera": [
            {"component": sorted(comp), "pa": rational_str(pa)}
            for comp, pa in split.component_genera
        ],
    }


def _cmd_tower(args) -> dict:
    from . import boundary, zariski
    from .formats import divisor_to_json, history_to_json

    config = _load_config(args.config)
    cls = _load_divisor(_required(args, "divisor", "-d"), config)
    names = [s for s in (args.delta or "").split(",") if s]
    if len(names) != 2:
        raise LatticeError("bad-invocation", "--delta must name the two curves C,E")
    b = rational(args.vol) if args.vol is not None else Q(0)
    history, new_class = boundary.tower(config, names[0], names[1], cls, b, args.n)
    return {
        "history": history_to_json(history),
        "log_class": divisor_to_json(new_class),
        "volume": rational_str(zariski.volume(history.top, new_class)),
    }


COMMANDS = {
    "validate": _cmd_validate,
    "zariski": _cmd_zariski,
    "volume": _cmd_volume,
    "blowup": _cmd_blowup,
    "contract": _cmd_contract,
    "mmp": _cmd_mmp,
    "semistable": _cmd_semistable,
    "tower": _cmd_tower,
}
