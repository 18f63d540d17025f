import random
import sys
from fractions import Fraction as Q

import pytest
from conftest import random_config

from logsurf import (
    CurveConfig,
    CurveRecord,
    LatticeError,
    QDivisor,
    BlowupStep,
    apply_script,
    kodaira_config,
    make_config,
    semistable_part,
    tower,
    volume,
    zariski_decompose,
)
import logsurf.boundary as boundary_module
from logsurf.boundary import MAX_TOWER_N
from logsurf.catalog import entry
from logsurf.lattice import pa_of, sum_divisor


def test_rational_chain_discards_fully():
    cfg = make_config(
        [("C1", -2, 0), ("C2", -2, 0), ("C3", -2, 0)],
        [("C1", "C2", 1), ("C2", "C3", 1)],
    )
    split = semistable_part(cfg, cfg.names)
    assert split.C == frozenset()
    assert split.E == frozenset(cfg.names)


def test_fiber_with_tail_keeps_fiber():
    cfg = make_config([("F", 0, 1), ("T", -2, 0)], [("F", "T", 1)])
    split = semistable_part(cfg, cfg.names)
    assert split.C == {"F"}
    assert split.E == {"T"}
    assert split.component_genera == ((frozenset({"F"}), Q(1)),)


def test_25_84_boundary_splits_to_cubic():
    e = entry("25/84")
    hist = apply_script(e.base_config, e.script)
    delta = {"C", "L1", "L2", "L3"} | {
        s.exceptional_name for s in hist.steps if s.joins_boundary
    }
    split = semistable_part(hist.top, delta)
    assert split.C == {"C"}
    assert split.E == frozenset(delta - {"C"})


def test_semistable_is_closure_and_order_free():
    rng = random.Random(31)
    for _ in range(150):
        cfg = random_config(rng)
        delta = [n for n in cfg.names if rng.random() < 0.8]
        split = semistable_part(cfg, delta)
        again = semistable_part(cfg, split.C)
        assert again.C == split.C
        shuffled = list(delta)
        rng.shuffle(shuffled)
        assert semistable_part(cfg, shuffled).C == split.C
        # greedy removal in random order reaches the same fixpoint
        current = set(delta)
        while True:
            ready = [
                n
                for n in current
                if cfg.record(n).pa == 0
                and sum(cfg.entry(n, o) for o in current if o != n) < 2
            ]
            if not ready:
                break
            current.remove(rng.choice(ready))
        assert frozenset(current) == split.C
        for comp, pa in split.component_genera:
            assert pa >= 1


def test_complement_components_are_rational_trees():
    rng = random.Random(32)
    for _ in range(100):
        cfg = random_config(rng)
        split = semistable_part(cfg, cfg.names)
        for name in split.E:
            assert cfg.record(name).pa == 0
        # each component of E is a tree in the incidence graph
        remaining = set(split.E)
        while remaining:
            seed = min(remaining)
            comp, frontier = {seed}, [seed]
            while frontier:
                cur = frontier.pop()
                for other in remaining - comp:
                    if cfg.entry(cur, other) > 0:
                        comp.add(other)
                        frontier.append(other)
            edges = sum(
                1
                for i, a in enumerate(sorted(comp))
                for b in sorted(comp)[i + 1 :]
                if cfg.entry(a, b) > 0
            )
            weight = sum(
                cfg.entry(a, b)
                for i, a in enumerate(sorted(comp))
                for b in sorted(comp)[i + 1 :]
                if cfg.entry(a, b) > 0
            )
            assert edges == len(comp) - 1 and weight == edges
            remaining -= comp


def test_e_meets_c_once_on_catalog_shapes():
    for kind, b in (("II", None), ("I", 1)):
        cfg = kodaira_config(kind, b)
        split = semistable_part(cfg, cfg.names)
        assert split.C == {"C"}
        contact = sum(cfg.entry("T", o) for o in split.C)
        assert contact == 1


def _rescan_semistable(config, delta):
    """The former loop: after each discard, rescan every member in name order."""
    current = set(delta)
    while True:
        doomed = None
        for name in sorted(current):
            if config.record(name).pa != 0:
                continue
            contact = sum(m for o, m in config.adjacent(name).items() if o in current)
            if contact < 2:
                doomed = name
                break
        if doomed is None:
            return frozenset(current)
        current.remove(doomed)


def _former_genera(config, C):
    """The former component walk, by name from the least name not yet
    reached, with each genus from `pa_of(sum_divisor(...))`."""
    remaining = set(C)
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
    return tuple((c, pa_of(config, sum_divisor(config, c))) for c in sorted(out, key=min))


def test_semistable_part_matches_the_rescan_on_raw_matrices():
    """Negative entries, genus-1 members and asymmetric matrices: the heap
    discards what the rescan discards, so the fixpoints agree even where
    the discard order decides them, and the keyed component walk finds the
    components, their order and their genera that the former name walk
    and `pa_of` found, even where asymmetric rows let the seed decide."""
    from test_zariski_kernel import random_symmetric

    rng = random.Random(33)
    kept = discarded = split_up = 0
    for case in range(2000):
        n = rng.randint(1, 8)
        gram = random_symmetric(rng, n, diag=(-3, 2), off=(-2, 2))
        if case % 3 == 0 and n > 1:
            i, j = rng.sample(range(n), 2)
            gram[i][j] += rng.choice([-1, 1])
        recs = tuple(CurveRecord(f"C{i}", rng.choice([0, 0, 0, 1]), 0) for i in range(n))
        cfg = CurveConfig(recs, tuple(tuple(row) for row in gram))
        delta = [name for name in cfg.names if rng.random() < 0.85]
        rng.shuffle(delta)
        split = semistable_part(cfg, delta)
        want = _rescan_semistable(cfg, delta)
        assert split.C == want and split.E == frozenset(delta) - want
        assert split.component_genera == _former_genera(cfg, want)
        kept += len(want)
        discarded += len(split.E)
        split_up += len(split.component_genera) > 1
    assert kept > 1000 and discarded > 1000 and split_up > 100, (kept, discarded, split_up)


class _CountedRows(dict):
    """A model's row table that counts the rows read from it."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.reads += 1
        return super().get(key, default)


def test_semistable_part_reads_each_row_a_bounded_number_of_times():
    """A long rational chain named so that its ends come last in name order:
    the former rescan read O(n²) rows, the heap reads each row at most
    three times (to list its members, to check it, to recheck it after a
    neighbour's discard).  The reads are counted in the model's row table,
    where every reader, by key or by name, takes its rows."""
    n, mid = 400, 200
    names = [f"R{abs(p - mid):04d}{'a' if p < mid else 'b'}" for p in range(n)]
    cfg = make_config([(name, -2, 0) for name in names], list(zip(names, names[1:], [1] * n)))
    cfg._rows = rows = _CountedRows(cfg._rows)
    split = semistable_part(cfg, names)
    assert split.C == frozenset() and split.E == frozenset(names)
    assert 0 < rows.reads <= 3 * n, rows.reads
    rows.reads = 0
    assert _rescan_semistable(cfg, names) == frozenset()
    assert rows.reads > n * n // 4, rows.reads


def _catalog_boundaries():
    """Every catalog entry's top with its boundary, the curves marked
    black in the 25/84 and rational pipelines left out."""
    from logsurf import catalog_ids, entry

    for entry_id in catalog_ids():
        e = entry(entry_id)
        hist = apply_script(e.base_config, e.script)
        boundary = set(e.base_config.names) | {
            s.exceptional_name for s in e.script if s.joins_boundary
        }
        if entry_id == "25/84":
            boundary -= {"T0", "B3", "B3r", "F2", "F2r", "E7", "E7r", "M1", "M2", "M3"}
        if entry_id == "rational":
            boundary -= {"A2", "B3", "D7"}
        yield entry_id, hist.top, boundary


def test_semistable_part_reads_the_model_by_key(name_reads):
    """Past its input names, the split and its component walk make no
    by-name read (`adjacent`, `record`, `self_int`, `entry`)."""
    reads = name_reads(boundary_module, "semistable_part", "_components")
    rng = random.Random(34)
    cases = [(top, boundary) for _, top, boundary in _catalog_boundaries()]
    for _ in range(100):
        cfg = random_config(rng, 8)
        cases.append((cfg, [n for n in cfg.names if rng.random() < 0.8]))
    components = discarded = 0
    for cfg, delta in cases:
        split = boundary_module.semistable_part(cfg, delta)
        components += len(split.component_genera)
        discarded += len(split.E)
    assert components > 100 and discarded > 100, (components, discarded)
    assert reads == []
    # the counter does see the by-name reads of the former walk
    name_reads(sys.modules[__name__], "_former_genera")
    cfg, delta = cases[-1]
    _former_genera(cfg, boundary_module.semistable_part(cfg, delta).C)
    assert set(reads) == {"adjacent", "record"}


def _seeded():
    cfg = make_config([("C", 2, 2), ("E", -2, 0)], [("C", "E", 1)])
    return cfg, QDivisor({"C": 1, "E": 1})


def test_tower_class_drops_one_exceptional():
    cfg, w = _seeded()
    hist, cls = tower(cfg, "C", "E", w, Q(1, 2), 1)
    from logsurf import total_transform

    assert cls == total_transform(hist, w) - QDivisor({"G1": 1})


def test_tower_exceptional_chain_shape():
    cfg, w = _seeded()
    n = 5
    hist, cls = tower(cfg, "C", "E", w, Q(1, 2), n)
    top = hist.top
    last = f"G{n}"
    assert top.self_int(last) == -1
    assert top.entry("C", last) == 1
    for k in range(1, n):
        assert top.self_int(f"G{k}") == -2
    assert top.entry("E", "G1") == 1
    for k in range(1, n - 1):
        assert top.entry(f"G{k}", f"G{k + 1}") == 1
    assert top.entry("C", "E") == 0


def test_tower_primes_the_names_the_model_already_uses():
    """Each G{k} is primed until it is free; a stem's primes never reach
    another stem (G1' is not G11), so the names stay distinct."""
    cfg = make_config(
        [("C", 2, 2), ("E", -2, 0), ("G1", -1, 0), ("G2", -1, 0), ("G2'", -1, 0), ("G10", -1, 0)],
        [("C", "E", 1)],
    )
    hist, _ = tower(cfg, "C", "E", QDivisor({"C": 1, "E": 1}), Q(1, 2), 11)
    names = ["G1'", "G2''", *(f"G{k}" for k in range(3, 10)), "G10'", "G11"]
    assert hist.exceptional_names == tuple(names)
    assert hist.steps == tuple(
        BlowupStep((("C", 1), (prev, 1)), name, k < 11)
        for k, (prev, name) in enumerate(zip(["E", *names], names), 1)
    )
    assert all(type(step) is BlowupStep for step in hist.steps)
    assert hist.steps[0].joins_boundary and not hist.steps[-1].joins_boundary


def test_tower_errors_keep_their_order():
    """n below 1, then its size, then the two curves, then b."""
    cfg, w = _seeded()
    checks = [
        (("C", "C", 2, 0), "bad-tower", "n = 0"),
        (("C", "C", 2, MAX_TOWER_N + 1), "too-large", None),
        (("C", "C", 2, 3), "bad-tower", "C cannot meet itself at a point"),
        (("C", "Nope", 2, 3), "unknown-curve", "Nope"),
        (("C", "E", 2, 3), "bad-tower", "coefficient b = 2 outside [0, 1]"),
    ]
    for (c, e, b, n), code, message in checks:
        with pytest.raises(LatticeError) as err:
            tower(cfg, c, e, w, b, n)
        assert err.value.code == code, (c, e, b, n)
        if message is not None:
            assert err.value.message == message


@pytest.mark.parametrize(
    "b, inside", [(0, True), (1, True), (Q(1, 2), True), ("1/2", True), (Q(3, 2), False), (-1, False)]
)
def test_tower_reads_b_as_a_rational_in_the_unit_interval(b, inside):
    """b in [0, 1] is accepted as an int, a Fraction or a rational string;
    outside it, `bad-tower` names b as given."""
    cfg, w = _seeded()
    if inside:
        assert tower(cfg, "C", "E", w, b, 2)[0].top.n == cfg.n + 2
        return
    with pytest.raises(LatticeError) as err:
        tower(cfg, "C", "E", w, b, 2)
    assert (err.value.code, err.value.message) == ("bad-tower", f"coefficient b = {b} outside [0, 1]")


def test_tower_volumes_bounds_small_n():
    cfg, w = _seeded()
    base = zariski_decompose(cfg, w)
    b = base.positive.get("E")
    assert b == Q(1, 2)
    for n in range(1, 9):
        hist, cls = tower(cfg, "C", "E", w, b, n)
        v = volume(hist.top, cls)
        assert v < base.volume
        assert v >= base.volume - b * b / n
        assert v > 0


def test_boundary_split_invariants_on_all_catalog_entries():
    # on catalog-built shapes, each component of the discarded curve is a
    # tree of rational curves meeting the semistable part in at most one
    # point (counted with intersection multiplicities), and the genera are
    # those of the former name walk
    for entry_id, cfg, boundary in _catalog_boundaries():
        split = semistable_part(cfg, boundary)
        assert split.component_genera == _former_genera(cfg, split.C)
        for comp, pa in split.component_genera:
            assert pa >= 1
        remaining = set(split.E)
        while remaining:
            seed = min(remaining)
            comp, frontier = {seed}, [seed]
            while frontier:
                cur = frontier.pop()
                for other in remaining - comp:
                    if cfg.entry(cur, other) > 0:
                        comp.add(other)
                        frontier.append(other)
            contact = sum(cfg.entry(a, c) for a in comp for c in split.C)
            assert contact <= 1, (entry_id, sorted(comp), contact)
            remaining -= comp


def test_tower_refuses_one_curve_as_both_branches():
    cfg, w = _seeded()
    with pytest.raises(LatticeError) as err:
        tower(cfg, "C", "C", w, Q(1, 2), 3)
    assert err.value.code == "bad-tower"


def test_tower_length_is_capped_before_any_step():
    cfg, w = _seeded()
    with pytest.raises(LatticeError) as err:
        tower(cfg, "C", "E", w, Q(1, 2), MAX_TOWER_N + 1)
    assert err.value.code == "too-large"
