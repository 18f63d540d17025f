"""Shared deterministic generators for the property suites, and the
`name_reads` guard of the paths that read the model by key."""
from __future__ import annotations

import random
from collections.abc import Sequence
from fractions import Fraction as Q

import pytest

from logsurf import BlowupStep, CurveConfig, QDivisor, apply_script, blow_up, make_config


def random_config(rng: random.Random, max_curves: int = 5, allow_positive: bool = True):
    """Validate-clean configuration: selfs in -3..3, off-diagonals clipped >= 0."""
    n = rng.randint(1, max_curves)
    names = [f"C{i}" for i in range(1, n + 1)]
    hi = 3 if allow_positive else 0
    curves = [(names[i], rng.randint(-3, hi), rng.randint(0, 2)) for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            m = max(0, rng.randint(-3, 3))
            if m:
                edges.append((names[i], names[j], m))
    return make_config(curves, edges)


def random_effective_divisor(rng: random.Random, config, density: float = 0.8) -> QDivisor:
    """Effective divisor with small denominators (possibly zero)."""
    return QDivisor(
        {
            name: Q(rng.randint(0, 6), rng.choice([1, 2, 3]))
            for name in config.names
            if rng.random() < density
        }
    )


def random_rational(rng: random.Random, lo: int = -4, hi: int = 4) -> Q:
    return Q(rng.randint(lo, hi), rng.choice([1, 2, 3]))


def _step_budget_ok(config, names, mults) -> bool:
    for i in range(len(names)):
        m = mults[i]
        if m * (m - 1) // 2 > config.record(names[i]).pa:
            return False
        for j in range(i + 1, len(names)):
            if config.entry(names[i], names[j]) < mults[i] * mults[j]:
                return False
    return True


def random_history(rng: random.Random, base, max_steps: int = 4, pool=None, prefix: str = "X"):
    """Random blow-up history; branches drawn from `pool` names plus earlier
    exceptionals (default: every curve).  Steps respect the genus and
    intersection budgets; gives up silently when nothing fits."""
    steps = []
    cfg = base
    allowed = set(pool if pool is not None else base.names)
    want = rng.randint(1, max_steps)
    for k in range(want):
        placed = False
        for _ in range(40):
            size = rng.randint(1, min(3, len(allowed)))
            names = rng.sample(sorted(allowed), size)
            mults = [
                rng.choice([1, 1, 2]) if cfg.record(nm).pa >= 1 else 1 for nm in names
            ]
            if _step_budget_ok(cfg, names, mults):
                placed = True
                break
        if not placed:
            break
        step = BlowupStep(tuple(zip(names, mults)), f"{prefix}{k + 1}")
        cfg = blow_up(cfg, step)
        steps.append(step)
        allowed.add(step.exceptional_name)
    return apply_script(base, steps)


class Oversize(Sequence):
    """Reports `n` entries and refuses to hand any out: a size cap must
    refuse the input before reading it."""

    def __init__(self, n: int):
        self.n = n

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i):
        raise AssertionError("an entry of an oversize input was read")


def hanging_config(rng: random.Random, parents: list[str]):
    """Rational curves R1.. hanging off a positive-genus curve C.

    Every rational self-intersection is <= -max(2, degree), so every
    support is negative definite; about one curve in six is made one
    more negative and gets coefficient 2, so D meets it negatively.
    """
    names = [f"R{i}" for i in range(1, len(parents) + 1)]
    degree = dict.fromkeys(names, 0)
    for name, parent in zip(names, parents):
        degree[name] += 1
        if parent != "C":
            degree[parent] += 1
    curves = [("C", rng.randint(1, 4), rng.randint(1, 3))]
    coeffs = {"C": rng.randint(1, 3)}
    for name in names:
        seed = rng.random() < 0.17
        curves.append((name, -max(2, degree[name]) - seed, 0))
        coeffs[name] = 2 if seed else rng.randint(1, 2)
    return make_config(curves, list(zip(parents, names, [1] * len(names)))), QDivisor(coeffs)


def chain_parents(rng: random.Random, k: int) -> list[str]:
    return ["C"] + [f"R{i}" for i in range(1, k)]


def tree_parents(rng: random.Random, k: int) -> list[str]:
    parents, degree = ["C"], {"R1": 1}
    for i in range(2, k + 1):
        parent = rng.choice(sorted(n for n, deg in degree.items() if deg < 3))
        parents.append(parent)
        degree[parent] += 1
        degree[f"R{i}"] = 1
    return parents


# The by-name reads of `CurveConfig` that the keyed paths must not make.
BY_NAME = ("adjacent", "record", "self_int", "entry")


@pytest.fixture()
def name_reads(monkeypatch):
    """`watch(module, *functions, methods=BY_NAME)` wraps the named
    functions of `module` and returns the list of calls of the
    `CurveConfig` methods `methods` (by default the by-name reads
    `adjacent`, `record`, `self_int`, `entry`) made while any of them
    runs.  A caller must reach them through `module`, as the package's own
    callers do."""
    reads, running, patched = [], [], set()

    def count(method):
        func = getattr(CurveConfig, method)

        def counted(cfg, *args):
            if running:
                reads.append(method)
            return func(cfg, *args)

        monkeypatch.setattr(CurveConfig, method, counted)
        patched.add(method)

    def watch(module, *functions, methods=BY_NAME):
        for method in methods:
            if method not in patched:
                count(method)
        for name in functions:
            def watched(*args, f=getattr(module, name)):
                running.append(True)
                try:
                    return f(*args)
                finally:
                    running.pop()

            monkeypatch.setattr(module, name, watched)
        return reads

    return watch


@pytest.fixture()
def cold_models(monkeypatch):
    """An empty table of catalog models (`catalog._MODELS`) for the test;
    the process's own table is put back after it."""
    from logsurf import catalog

    models: dict = {}
    monkeypatch.setattr(catalog, "_MODELS", models)
    return models
