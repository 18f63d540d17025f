"""Semistable part of a boundary curve and the volume-decreasing tower.

The semistable part is the fixpoint of discarding genus-0 members that
meet the rest of the boundary in fewer than two points.  Self-nodes of an
irreducible member (pa > 0) never disqualify it; only the sum of Gram
entries against the rest is consulted.

The tower blows up a chosen boundary intersection point and then walks up
the semistable curve, excluding the last exceptional from the boundary;
it returns the history together with the transported log class.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction as Q
from typing import Iterable

from .birational import BlowupStep, History, apply_script
from .birational import log_class as transport
from .lattice import CurveConfig, LatticeError, QDivisor, check_size, pa_of, sum_divisor

# Largest accepted tower; a larger n is refused as `too-large` before any
# step is built.
MAX_TOWER_N = 10_000


class BoundarySplit(namedtuple("BoundarySplit", "C E component_genera")):
    """Semistable part C, complement E, and genera of C's components.

    A tuple-backed record, as `CurveRecord` is.
    """

    __slots__ = ()


def _components(config: CurveConfig, names: frozenset[str]) -> list[frozenset[str]]:
    remaining = set(names)
    out = []
    while remaining:
        seed = min(remaining)
        comp = {seed}
        frontier = [seed]
        while frontier:
            for other, m in config.adjacent(frontier.pop()).items():
                if m > 0 and other in remaining and other not in comp:
                    comp.add(other)
                    frontier.append(other)
        out.append(frozenset(comp))
        remaining -= comp
    return sorted(out, key=min)


def semistable_part(config: CurveConfig, delta: Iterable[str]) -> BoundarySplit:
    """Discard rational members meeting the rest in < 2 points, to a fixpoint.

    A heap yields the smallest unchecked rational member; a discard puts
    back the rational members whose rows list it, the only ones whose
    contact it changes.  So each discard is the one a rescan in name
    order would find, and each row is read once.
    """
    from heapq import heappop, heappush  # here, not at import: CLI start-up

    delta = list(delta)
    for name in delta:  # in input order: an unknown name is the first one given
        config._key(name)
    current = set(delta)
    met = {name: config.adjacent(name) for name in current if config.record(name).pa == 0}
    meeting: dict[str, list[str]] = {name: [] for name in current}  # rational rows listing it
    for name, row in met.items():
        for other in row:
            if other in meeting:
                meeting[other].append(name)
    unchecked = sorted(met)  # a sorted list is a heap
    while unchecked:
        name = heappop(unchecked)
        if name in current and sum(m for o, m in met[name].items() if o in current) < 2:
            current.remove(name)
            for other in meeting[name]:
                if other in current:
                    heappush(unchecked, other)
    C = frozenset(current)
    E = frozenset(delta) - current
    genera = tuple(
        (comp, pa_of(config, sum_divisor(config, comp))) for comp in _components(config, C)
    )
    return BoundarySplit(C, E, genera)


def _fresh_name(config: CurveConfig, taken: set[str], stem: str) -> str:
    name = stem
    while name in config or name in taken:
        name += "'"
    return name


def tower(
    config: CurveConfig,
    c_name: str,
    e_name: str,
    log_class: QDivisor,
    b: Q,
    n: int,
) -> tuple[History, QDivisor]:
    """Blow up C meet E, then n-1 times the newest exceptional on C.

    All exceptionals except the last join the boundary, so the returned
    class transports K + (strict boundary + G_1..G_{n-1}); it equals the
    pullback of `log_class` minus the final exceptional.  `b` is the
    caller's positive-part coefficient of `e_name`; it is recorded for the
    caller's bookkeeping and does not enter the transform.
    """
    if n < 1:
        raise LatticeError("bad-tower", f"n = {n}")
    check_size("tower steps", n, MAX_TOWER_N)
    if c_name == e_name:
        raise LatticeError("bad-tower", f"{c_name} cannot meet itself at a point")
    if config.entry(c_name, e_name) < 1:
        raise LatticeError("bad-tower", f"{c_name} does not meet {e_name}")
    if not 0 <= Q(b) <= 1:
        raise LatticeError("bad-tower", f"coefficient b = {b} outside [0, 1]")
    steps = []
    taken: set[str] = set()
    prev = e_name
    for k in range(1, n + 1):
        name = _fresh_name(config, taken, f"G{k}")
        taken.add(name)
        steps.append(BlowupStep(((c_name, 1), (prev, 1)), name, joins_boundary=k < n))
        prev = name
    history = apply_script(config, steps)
    return history, transport(history, log_class, {c_name, e_name})
