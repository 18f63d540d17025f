"""Seeded input generators and the benchmark's own reference lattice.

Everything here is plain data: a configuration is a list of
``(name, self, pa)`` curves plus ``(a, b, m)`` edges, a divisor is a dict
of name -> int, and a blow-up step is ``(branches, name, joins_boundary)``.
Nothing imports logsurf, so the same data feeds both the program under
test and the reference checks in ``checks.py``.
"""
from __future__ import annotations

import random
from fractions import Fraction as Q

SIZES = (25, 50, 100)

# Two-curve tower bases (C pa, C self, -E self, coefficient of C); the
# divisor is dC*C + E.  The first is acceptance criterion 7's own base.
TOWER_BASES = ((2, 2, 2, 1), (1, 1, 2, 1), (3, 3, 2, 1), (3, 1, 2, 1))

# Surgery base: C is the marked curve and is never blown up; D1 and D2
# carry genus for multiplicity-2 points; rational curves start at <= -2 so
# they can never become (-1)-curves on the way back down.
SURGERY_BASE = (
    [("C", 1, 2), ("D1", 3, 4), ("D2", 0, 3), ("R1", -2, 0), ("R2", -3, 0), ("R3", -2, 0)],
    [("C", "D1", 1), ("C", "R1", 1), ("D1", "D2", 2), ("D1", "R2", 1),
     ("D2", "R3", 1), ("R2", "R3", 1), ("R1", "D2", 1)],
)
SURGERY_MARKED = "C"
# Script lengths per cycle, spread over 50..200 steps.  They do not
# depend on the seed (contraction cost grows like the cube of the length),
# and with ten ops per cycle the median falls between the two 100-step
# scripts and p90 between the two 200-step ones, so neither sits on the
# edge between two lengths.
SURGERY_LENGTHS = (50, 50, 67, 83, 100, 100, 117, 150, 200, 200)


def rng_for(seed: int, *label) -> random.Random:
    """Independent stream per (seed, label) so generators do not interact."""
    return random.Random(repr((seed,) + label))


# ---------------------------------------------------------------------------
# Scaling inputs: tower bases, diagonally dominant chains and trees.
# ---------------------------------------------------------------------------

def tower_base(index: int):
    """Base config, divisor and the two-curve decomposition data of a tower."""
    pa, s, e, dc = TOWER_BASES[index]
    curves = [("C", s, pa), ("E", -e, 0)]
    edges = [("C", "E", 1)]
    divisor = {"C": dc, "E": 1}
    # D.E = dc - e < 0, so N = x E with x = 1 - dc/e and P.E = 0.
    b = Q(dc, e)
    volume = dc * dc * s + 2 * dc * b - b * b * e
    return curves, edges, divisor, b, volume


def _hang(rng: random.Random, parents: list[str], seeds: set[str] | None = None):
    """Curves and divisor for rational nodes R1.. hanging off one curve C.

    ``parents[i]`` is the neighbour of R(i+1) nearer to C.  Every rational
    self-intersection is <= -max(2, degree), so each support is negative
    definite; C has positive self-intersection and positive genus.  Nodes
    in ``seeds`` get one extra -1 and coefficient 2, so D meets them
    negatively; without ``seeds`` one node in ten gets the extra -1.
    """
    k = len(parents)
    names = [f"R{i}" for i in range(1, k + 1)]
    degree = dict.fromkeys(names, 0)
    edges = []
    for name, parent in zip(names, parents):
        edges.append((parent, name, 1))
        degree[name] += 1
        if parent != "C":
            degree[parent] += 1
    curves = [("C", rng.randint(1, 4), rng.randint(1, 3))]
    divisor = {"C": rng.randint(1, 3)}
    for name in names:
        if seeds is None:
            extra, coeff = (1 if rng.random() < 0.1 else 0), rng.randint(1, 2)
        else:
            extra, coeff = (1, 2) if name in seeds else (0, rng.randint(1, 2))
        curves.append((name, -max(2, degree[name]) - extra, 0))
        divisor[name] = coeff
    return curves, edges, divisor


CHAIN_SPACING = 8


def chain(rng: random.Random, k: int):
    """A chain with one seed curve in every block of CHAIN_SPACING.

    The spacing bounds the number of support-growth rounds, so chains of
    one length cost about the same whatever the seed.
    """
    seeds = {
        f"R{start + CHAIN_SPACING // 2 + rng.randint(-1, 1)}"
        for start in range(1, k - CHAIN_SPACING // 2, CHAIN_SPACING)
    }
    return _hang(rng, ["C"] + [f"R{i}" for i in range(1, k)], seeds)


def tree(rng: random.Random, k: int):
    """Random recursive tree, every rational node of degree <= 3."""
    parents = ["C"]
    degree = {"R1": 1}
    for i in range(2, k + 1):
        open_nodes = sorted(n for n, d in degree.items() if d < 3)
        parent = rng.choice(open_nodes)
        parents.append(parent)
        degree[parent] += 1
        degree[f"R{i}"] = 1
    return _hang(rng, parents)


def is_diagonally_dominant(curves, edges) -> bool:
    """Rational rows satisfy |self| >= max(2, sum of off-diagonal entries)."""
    off: dict[str, int] = {}
    for a, b, m in edges:
        off[a] = off.get(a, 0) + m
        off[b] = off.get(b, 0) + m
    return all(
        -s >= max(2, off.get(name, 0)) for name, s, pa in curves if pa == 0
    )


# ---------------------------------------------------------------------------
# Reference lattice: sparse blow-ups for surgery scripts and CLI goldens.
# ---------------------------------------------------------------------------

class RefLattice:
    """Sparse intersection data updated by the textbook blow-up formulas."""

    def __init__(self, curves, edges):
        self.order: list[str] = []
        self.self_int: dict[str, int] = {}
        self.pa: dict[str, int] = {}
        self.kdeg: dict[str, int] = {}
        self.adj: dict[str, dict[str, int]] = {}
        for name, s, pa in curves:
            self.order.append(name)
            self.self_int[name] = s
            self.pa[name] = pa
            self.kdeg[name] = 2 * pa - 2 - s
            self.adj[name] = {}
        for a, b, m in edges:
            if m:
                self.adj[a][b] = m
                self.adj[b][a] = m

    def meet(self, a: str, b: str) -> int:
        return self.self_int[a] if a == b else self.adj[a].get(b, 0)

    def blow_up(self, branches, name: str) -> None:
        for curve, m in branches:
            self.self_int[curve] -= m * m
            self.pa[curve] -= m * (m - 1) // 2
            self.kdeg[curve] += m
            if self.pa[curve] < 0:
                raise ValueError(f"{curve}: genus below 0")
        for i, (a, ma) in enumerate(branches):
            for b, mb in branches[i + 1:]:
                left = self.adj[a].get(b, 0) - ma * mb
                if left < 0:
                    raise ValueError(f"{a}.{b} below 0")
                self.adj[a][b] = self.adj[b][a] = left
        self.order.append(name)
        self.self_int[name] = -1
        self.pa[name] = 0
        self.kdeg[name] = -1
        self.adj[name] = {}
        for curve, m in branches:
            self.adj[curve][name] = m
            self.adj[name][curve] = m

    def pairing(self, d1: dict, d2: dict) -> Q:
        total = Q(0)
        for a, x in d1.items():
            if not x:
                continue
            total += x * d2.get(a, 0) * self.self_int[a]
            for b, m in self.adj[a].items():
                y = d2.get(b, 0)
                if y and m:
                    total += x * y * m
        return total

    def curves_and_gram(self):
        """(name, pa, kdeg) records and dense Gram rows in curve order."""
        index = {name: i for i, name in enumerate(self.order)}
        n = len(self.order)
        rows = []
        for a in self.order:
            row = [0] * n
            row[index[a]] = self.self_int[a]
            for b, m in self.adj[a].items():
                row[index[b]] = m
            rows.append(tuple(row))
        records = tuple((a, self.pa[a], self.kdeg[a]) for a in self.order)
        return records, tuple(rows)

    def to_json(self) -> dict:
        """The CLI's configuration JSON shape (see lattice.config_to_json)."""
        index = {name: i for i, name in enumerate(self.order)}
        curves = [{"name": a, "self": self.self_int[a], "pa": self.pa[a]} for a in self.order]
        edges = []
        for a in self.order:
            for b, m in sorted(self.adj[a].items(), key=lambda kv: index[kv[0]]):
                if m and index[b] > index[a]:
                    edges.append({"a": a, "b": b, "m": m})
        return {"curves": curves, "edges": edges, "assume_tracked_complete": False}


# ---------------------------------------------------------------------------
# Surgery scripts: ladders, nodes and multiplicity-2 points away from C.
# ---------------------------------------------------------------------------

def surgery_script(rng: random.Random, length: int):
    """A valid blow-up script of exactly ``length`` steps over SURGERY_BASE.

    Returns (steps, reference lattice at the top).  No centre lies on the
    marked curve, so every exceptional stays disjoint from it and the
    disjoint contraction loop undoes the whole script.
    """
    ref = RefLattice(*SURGERY_BASE)
    steps = []
    counter = 0

    def add(branches, joins):
        nonlocal counter
        counter += 1
        name = f"X{counter}"
        ref.blow_up(branches, name)
        steps.append((branches, name, joins))
        return name

    while len(steps) < length:
        free = [n for n in ref.order if n != SURGERY_MARKED]
        kind = rng.random()
        if kind < 0.35:
            # ladder: a general point, then points infinitely near it
            foot = rng.choice(free)
            prev = add(((foot, 1),), rng.random() < 0.3)
            for _ in range(rng.randint(1, 5)):
                if len(steps) >= length:
                    break
                if rng.random() < 0.5 and ref.meet(foot, prev) >= 1:
                    prev = add(((foot, 1), (prev, 1)), rng.random() < 0.3)
                else:
                    prev = add(((prev, 1),), rng.random() < 0.3)
        elif kind < 0.85:
            pairs = sorted(
                (a, b) for a in free for b, m in ref.adj[a].items()
                if m >= 1 and b != SURGERY_MARKED and a < b
            )
            a, b = rng.choice(pairs)
            add(((a, 1), (b, 1)), rng.random() < 0.3)
        else:
            singular = [n for n in free if ref.pa[n] >= 2]
            if singular:
                add(((rng.choice(singular), 2),), rng.random() < 0.3)
    return steps, ref


def surgery_divisor(rng: random.Random) -> dict:
    return {name: rng.randint(0, 3) for name, _, _ in SURGERY_BASE[0]}


def surgery_boundary(rng: random.Random) -> list[str]:
    names = [name for name, _, _ in SURGERY_BASE[0]]
    return sorted(n for n in names if rng.random() < 0.6)


def surgery_lengths(rng: random.Random) -> list[int]:
    """SURGERY_LENGTHS in seeded order."""
    out = list(SURGERY_LENGTHS)
    rng.shuffle(out)
    return out
