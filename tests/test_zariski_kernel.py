"""Differential tests of the bordered LDLᵀ Zariski core.

The reference is the dense decomposition: a fraction-free re-solve of
the whole support in every round, a Sylvester leading-minor test of the
final support and P^2 from the full pairing.  It is kept here, apart from
the package, so the two paths share only the Bareiss solver and the
pairing.  Results must agree exactly, and on inputs the decomposition
rejects, the error codes must agree too.
"""
from __future__ import annotations

import random
from fractions import Fraction as Q

import pytest

from logsurf import (
    CurveConfig,
    CurveRecord,
    LatticeError,
    QDivisor,
    is_negative_definite,
    make_config,
    pairing,
    sum_divisor,
    tower,
    zariski_decompose,
)
from logsurf import _solve
from logsurf._solve import solve_symmetric
from logsurf.lattice import pairings_with_curves
from logsurf.zariski import _decompose_bordered


def sylvester_negative_definite(block: list[list[int]]) -> bool:
    """The k-th leading principal minor must have sign (-1)^k.

    Fraction-free elimination without row swaps: after step k the pivot in
    position (k, k) equals the (k+1)-st leading principal minor.
    """
    rows = [list(row) for row in block]
    n = len(rows)
    prev = 1
    for k in range(n):
        pivot = rows[k][k]
        if pivot == 0 or (pivot < 0) != (k % 2 == 0):
            return False
        for r in range(k + 1, n):
            factor = rows[r][k]
            for c in range(k + 1, n):
                rows[r][c] = (rows[r][c] * pivot - factor * rows[k][c]) // prev
            rows[r][k] = 0
        prev = pivot
    return True


def dense_reference(config: CurveConfig, d: QDivisor):
    """The decomposition as a dense re-solve per round: (P, N, support, big, volume)."""
    if not d.is_effective():
        raise LatticeError("not-effective")
    dvals = pairings_with_curves(config, d)
    support = sorted(i for i, v in enumerate(dvals) if v < 0)
    xs: list[Q] = []
    while True:
        if support:
            block = [[config.gram[i][j] for j in support] for i in support]
            xs = solve_symmetric(block, [dvals[i] for i in support])
            if xs is None:
                raise LatticeError("gram-singular")
            if any(x < 0 for x in xs):
                raise LatticeError("negative-part-not-effective")
        nvals = [Q(0)] * config.n
        for i, x in zip(support, xs):
            for j, m in enumerate(config.gram[i]):
                if m:
                    nvals[j] += x * m
        grown = [j for j in range(config.n) if j not in support and dvals[j] - nvals[j] < 0]
        if not grown:
            break
        support = sorted(support + grown)
    negative = QDivisor({config.names[i]: x for i, x in zip(support, xs)})
    idx = sorted(config.index(name) for name in negative.support)
    if not sylvester_negative_definite([[config.gram[i][j] for j in idx] for i in idx]):
        raise LatticeError("not-negative-definite")
    positive = d - negative
    square = pairing(config, positive, positive)
    return positive, negative, negative.support, square > 0, max(square, Q(0))


def outcome(fn, config, d):
    try:
        r = fn(config, d)
    except LatticeError as exc:
        return ("error", exc.code)
    if not isinstance(r, tuple):
        r = (r.positive, r.negative, r.support, r.big, r.volume)
    return ("ok",) + r


def raw_config(gram: list[list[int]]) -> CurveConfig:
    """Any symmetric integer matrix, conventions or not (kdeg by adjunction, pa 0)."""
    n = len(gram)
    recs = tuple(CurveRecord(f"C{i + 1}", 0, -2 - gram[i][i]) for i in range(n))
    return CurveConfig(recs, tuple(tuple(row) for row in gram))


def random_symmetric(rng: random.Random, n: int, diag=(-4, 3), off=(-2, 3)) -> list[list[int]]:
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        gram[i][i] = rng.randint(*diag)
        for j in range(i):
            m = rng.randint(*off)
            gram[i][j] = gram[j][i] = max(0, m) if rng.random() < 0.7 else m
    return gram


DEGENERATE = {
    # test_zariski.test_error_paths_on_degenerate_lattices: lattice, divisor, code
    "singular": ([[-1, -1], [-1, -1]], None, "gram-singular"),
    "indefinite": ([[-1, -5], [-5, -1]], None, "not-negative-definite"),
    "mixed": ([[-2, 2, -1, 3], [2, 1, 3, 2], [-1, 3, 1, 1], [3, 2, 1, -4]],
              {"C1": 1, "C3": 3}, "negative-part-not-effective"),
}


def test_random_raw_gram_matrices_match_the_dense_reference():
    rng = random.Random(2024)
    seen: dict[str, int] = {}
    for _ in range(2000):
        cfg = raw_config(random_symmetric(rng, rng.randint(1, 5)))
        d = QDivisor({name: Q(rng.randint(0, 6), rng.choice([1, 2, 3])) for name in cfg.names})
        want = outcome(dense_reference, cfg, d)
        assert outcome(zariski_decompose, cfg, d) == want, (cfg.gram, d)
        deferred = _decompose_bordered(cfg, d, pairings_with_curves(cfg, d)) is None
        key = ("dense " if deferred else "") + (want[0] if want[0] == "ok" else want[1])
        seen[key] = seen.get(key, 0) + 1
    # every error is decided by the dense loop, and so are a few successes
    # whose rounds pass through a support that is not negative definite
    assert set(seen) == {"ok", "dense ok", "dense gram-singular", "dense not-negative-definite",
                         "dense negative-part-not-effective"}, seen
    assert seen["ok"] > 1000


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_degenerate_lattices_keep_their_codes(name):
    gram, coeffs, code = DEGENERATE[name]
    cfg = raw_config(gram)
    d = QDivisor(coeffs) if coeffs else sum_divisor(cfg)
    assert outcome(dense_reference, cfg, d) == ("error", code)
    assert outcome(zariski_decompose, cfg, d) == ("error", code)


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


@pytest.mark.parametrize("shape", [chain_parents, tree_parents])
def test_chains_and_trees_match_the_dense_reference(shape):
    rng = random.Random(shape.__name__)
    for k in (5, 10, 20, 40, 80):
        cfg, d = hanging_config(rng, shape(rng, k))
        want = outcome(dense_reference, cfg, d)
        assert want[0] == "ok" and want[3], (k, want)  # a nonempty support
        assert outcome(zariski_decompose, cfg, d) == want, k


def test_tower_100_volume_meets_criterion_7(monkeypatch):
    cfg = make_config([("C", 2, 2), ("E", -2, 0)], [("C", "E", 1)])
    w = QDivisor({"C": 1, "E": 1})
    base = zariski_decompose(cfg, w)
    b = base.positive.get("E")
    n = 100
    hist, cls = tower(cfg, "C", "E", w, b, n)

    def dense(*args):
        raise AssertionError("a valid input reached the dense solver")

    monkeypatch.setattr(_solve, "solve_symmetric", dense)
    r = zariski_decompose(hist.top, cls)
    assert base.volume - b * b / n <= r.volume < base.volume
    assert r.volume == Q(502, 201)
    assert len(r.support) == n
    assert is_negative_definite(hist.top, r.support)


def test_negative_definite_matches_sylvester_on_random_matrices():
    rng = random.Random(6)
    verdicts = set()
    for _ in range(600):
        n = rng.randint(1, 6)
        gram = random_symmetric(rng, n, diag=(-5, 1), off=(-2, 2))
        cfg = raw_config(gram)
        want = sylvester_negative_definite(gram)
        assert is_negative_definite(cfg, cfg.names) == want, gram
        verdicts.add(want)
    assert verdicts == {True, False}


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_negative_definite_matches_sylvester_on_degenerate_lattices(name):
    gram = DEGENERATE[name][0]
    cfg = raw_config(gram)
    for k in range(len(gram) + 1):
        sub = [row[:k] for row in gram[:k]]
        assert is_negative_definite(cfg, cfg.names[:k]) == sylvester_negative_definite(sub)
