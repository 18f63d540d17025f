"""Dual-graph shape checks on configurations and scripts.

Combinatorial checks the worked examples and the tests read: the arms of
a tree with one branch vertex (`branch_arms`), the minimal-volume dual
graph (`minimal_model_shape`), the normal-crossing certificate of
boundary strict transforms (`snc_certificate`) and the largest branch
multiplicity of a script step at a base curve (`max_point_multiplicity`).
The three graph checks read a model's rows and records by key.
`catalog.example_143` and `catalog.example_rational_shape` import this
module when they run, so `table1` and the other commands never compile
it.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    from .birational import History
    from .catalog import CatalogEntry
    from .lattice import CurveConfig


def branch_arms(config: CurveConfig, names: Sequence[str]) -> list[int] | None:
    """Arm lengths of a tree with exactly one degree-3 vertex, else None.

    The graph must be connected, simple (all entries <= 1), and have degree
    sequence 1/2 everywhere except a single degree-3 branch vertex.  Each
    pair is read from the row of the curve that comes first in `names`.
    """
    names = list(names)
    position = {config._key(name): i for i, name in enumerate(names)}
    adj: dict[int, list[int]] = {k: [] for k in position}
    edges = 0
    for k, i in position.items():
        for j, m in config._rows[k].items():
            if position.get(j, -1) > i:
                if m != 1:
                    return None
                adj[k].append(j)
                adj[j].append(k)
                edges += 1
    if edges != len(names) - 1:
        return None
    first = next(iter(position))
    seen = {first}
    frontier = [first]
    while frontier:
        for o in adj[frontier.pop()]:
            if o not in seen:
                seen.add(o)
                frontier.append(o)
    if len(seen) != len(names):
        return None
    degrees = {k: len(a) for k, a in adj.items()}
    branches = [k for k, d in degrees.items() if d == 3]
    if len(branches) != 1 or any(d > 3 for d in degrees.values()):
        return None
    root = branches[0]
    arms = []
    for start in adj[root]:
        length = 1
        prev, cur = root, start
        while degrees[cur] == 2:
            nxt = next(o for o in adj[cur] if o != prev)
            prev, cur = cur, nxt
            length += 1
        arms.append(length)
    return sorted(arms)


def minimal_model_shape(config: CurveConfig) -> dict:
    """Check the minimal-volume dual graph: one (-1)-curve between two
    (-3)-curves, every other curve a (-2)-curve, chain of nine plus branch."""
    selfs = {k: row.get(k, 0) for k, row in config._rows.items()}
    minus_one = [k for k, s in selfs.items() if s == -1]
    report: dict = {"minus_one_curves": [config._records[k][0] for k in minus_one], "ok": False}
    if len(minus_one) != 1:
        return report
    g = minus_one[0]
    neighbors = {j for j in config._rows[g] if j != g and j in selfs}
    report["flanking_selfs"] = sorted(selfs[j] for j in neighbors)
    report["other_selfs"] = sorted({s for k, s in selfs.items() if k != g and k not in neighbors})
    report["arms"] = branch_arms(config, list(config.names))
    report["ok"] = (
        len(neighbors) == 2
        and report["flanking_selfs"] == [-3, -3]
        and report["other_selfs"] == [-2]
        and report["arms"] == [1, 2, 7]
    )
    return report


def snc_certificate(history: History, boundary: Iterable[str]) -> list[str]:
    """Violations of the normal-crossing certificate for boundary strict
    transforms: pairwise intersections must be <= 1 and genera must be 0."""
    top = history.top
    names = sorted(boundary)
    keys = [top._key(name) for name in names]
    rank = {k: i for i, k in enumerate(keys)}
    out = []
    for i, (a, k) in enumerate(zip(names, keys)):
        if top._records[k][1] > 0:
            out.append(f"{a}: pa > 0 after resolution")
        later = sorted((rank[j], m) for j, m in top._rows[k].items() if rank.get(j, -1) > i)
        out += [f"{a}.{names[r]} = {m} > 1" for r, m in later if m > 1]
    return out


def max_point_multiplicity(entry: CatalogEntry) -> int:
    """Largest total branch multiplicity of a script step at a base curve."""
    base = set(entry.base_config.names)
    best = 1
    for step in entry.script:
        best = max(best, sum(m for name, m in step.branches if name in base))
    return best
