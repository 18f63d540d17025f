import random
from fractions import Fraction as Q

import pytest
from conftest import random_config, random_effective_divisor

from logsurf import (
    LatticeError,
    QDivisor,
    is_negative_definite,
    is_nef_on_tracked,
    kodaira_config,
    make_config,
    pairing,
    sum_divisor,
    volume,
    zariski_decompose,
    zariski_oracle,
)
from logsurf.lattice import CurveConfig, CurveRecord


def test_one_step_solve():
    cfg = make_config([("A", 1, 0), ("B", -2, 0)])
    r = zariski_decompose(cfg, sum_divisor(cfg))
    assert r.positive == QDivisor({"A": 1})
    assert r.negative == QDivisor({"B": 1})
    assert r.volume == 1 and r.big


def test_type_ii_pair():
    cfg = make_config([("C1", 0, 1), ("C2", -2, 0)], [("C1", "C2", 1)])
    r = zariski_decompose(cfg, sum_divisor(cfg))
    assert r.positive == QDivisor({"C1": 1, "C2": Q(1, 2)})
    assert r.negative == QDivisor({"C2": Q(1, 2)})
    assert r.volume == Q(1, 2)


def test_long_chain_coefficients():
    cfg = kodaira_config("II*")
    r = zariski_decompose(cfg, sum_divisor(cfg))
    expected = {
        "A8": Q(1, 3), "A7": Q(2, 3), "A6": Q(1), "A5": Q(6, 7), "A4": Q(5, 7),
        "A3": Q(4, 7), "A2": Q(3, 7), "A1": Q(2, 7), "T": Q(1, 7), "B": Q(1, 2),
    }
    assert {n: r.positive.get(n) for n in cfg.names} == expected
    assert r.volume == Q(1, 42)


def test_cycle_sum_is_nef_not_big():
    cfg = make_config(
        [("C1", -2, 0), ("C2", -2, 0), ("C3", -2, 0)],
        [("C1", "C2", 1), ("C2", "C3", 1), ("C1", "C3", 1)],
    )
    r = zariski_decompose(cfg, sum_divisor(cfg))
    assert r.negative == QDivisor.zero()
    assert not r.big and r.volume == 0


def test_volume_nef_big():
    cfg = make_config([("A", 1, 0)])
    assert volume(cfg, QDivisor({"A": 1})) == 1


def test_volume_iv_with_tail():
    assert volume(kodaira_config("IV"), sum_divisor(kodaira_config("IV"))) == Q(1, 2)


def test_zero_divisor():
    cfg = make_config([("C", -2, 0)])
    r = zariski_oracle(cfg, QDivisor.zero())
    assert r.positive == QDivisor.zero() and r.negative == QDivisor.zero()
    assert zariski_decompose(cfg, QDivisor.zero()).volume == 0


def test_oracle_matches_on_type_ii():
    cfg = make_config([("C1", 0, 1), ("C2", -2, 0)], [("C1", "C2", 1)])
    d = sum_divisor(cfg)
    a, b = zariski_decompose(cfg, d), zariski_oracle(cfg, d)
    assert a.positive == b.positive and a.negative == b.negative


def test_rejects_non_effective():
    cfg = make_config([("C", -2, 0)])
    with pytest.raises(LatticeError) as err:
        zariski_decompose(cfg, QDivisor({"C": -1}))
    assert err.value.code == "not-effective"


def test_oracle_size_guard():
    cfg = random_config(random.Random(0), max_curves=5)
    big = make_config([(f"C{i}", -2, 0) for i in range(13)])
    with pytest.raises(LatticeError) as err:
        zariski_oracle(big, QDivisor.zero())
    assert err.value.code == "oracle-too-large"
    zariski_oracle(cfg, QDivisor.zero())  # small ones are fine


def _raw_config(gram):
    n = len(gram)
    recs = tuple(CurveRecord(f"C{i+1}", 0, -2 - gram[i][i]) for i in range(n))
    return CurveConfig(recs, tuple(tuple(row) for row in gram))


def test_error_paths_on_degenerate_lattices():
    # these Gram matrices violate the clean-config conventions on purpose;
    # they are the only way to drive the solver into its failure modes
    singular = _raw_config([[-1, -1], [-1, -1]])
    with pytest.raises(LatticeError) as err:
        zariski_decompose(singular, sum_divisor(singular))
    assert err.value.code == "gram-singular"

    indefinite = _raw_config([[-1, -5], [-5, -1]])
    with pytest.raises(LatticeError) as err:
        zariski_decompose(indefinite, sum_divisor(indefinite))
    assert err.value.code == "not-negative-definite"

    mixed = _raw_config(
        [[-2, 2, -1, 3], [2, 1, 3, 2], [-1, 3, 1, 1], [3, 2, 1, -4]]
    )
    with pytest.raises(LatticeError) as err:
        zariski_decompose(mixed, QDivisor({"C1": 1, "C3": 3}))
    assert err.value.code == "negative-part-not-effective"


@pytest.mark.parametrize("gram, code", [
    ([[-1, -1], [-1, -1]], "gram-singular"),
    ([[-1, -5], [-5, -1]], "not-negative-definite"),
])
def test_support_errors_list_the_support_in_configuration_order(gram, code):
    """Every support error names its support the same way: in configuration
    order (B before A here), not sorted by name."""
    cfg = CurveConfig((CurveRecord("B", 0, -1), CurveRecord("A", 0, -1)), gram)
    with pytest.raises(LatticeError) as err:
        zariski_decompose(cfg, sum_divisor(cfg))
    assert str(err.value) == f"{code}: support ['B', 'A']"


@pytest.mark.parametrize("gram, code, message", [
    ([[-3, -2], [-2, -1]], "ambiguous", "2 distinct valid decompositions"),
    ([[0, -2], [-2, 0]], "no-valid-decomposition", "no support yields a valid result"),
])
def test_the_oracle_refuses_several_or_no_valid_supports(gram, code, message):
    """Off the conventions two supports, or none, pass all four invariants
    for D = C1 + C2; the kernel refuses both at its final ND check."""
    cfg = _raw_config(gram)
    d = sum_divisor(cfg)
    with pytest.raises(LatticeError) as err:
        zariski_oracle(cfg, d)
    assert (err.value.code, err.value.message) == (code, message)
    with pytest.raises(LatticeError) as err:
        zariski_decompose(cfg, d)
    assert str(err.value) == "not-negative-definite: support ['C1', 'C2']"


def _check_invariants(cfg, d, r):
    assert is_nef_on_tracked(cfg, r.positive)
    assert r.negative.is_effective()
    assert is_negative_definite(cfg, r.support)
    for name in r.support:
        assert pairing(cfg, r.positive, QDivisor({name: 1})) == 0
    assert r.positive + r.negative == d


def test_random_batch_oracle_equivalence():
    rng = random.Random(11)
    successes = 0
    for _ in range(300):
        cfg = random_config(rng, max_curves=4)
        d = random_effective_divisor(rng, cfg)
        try:
            r = zariski_decompose(cfg, d)
            ok = True
        except LatticeError:
            ok = False
        try:
            o = zariski_oracle(cfg, d)
            ok2 = True
        except LatticeError:
            ok2 = False
        assert ok == ok2
        if ok:
            successes += 1
            assert r.positive == o.positive and r.negative == o.negative
            _check_invariants(cfg, d, r)
    assert successes > 200


def test_idempotence_scaling_and_monotonicity():
    rng = random.Random(12)
    for _ in range(200):
        cfg = random_config(rng)
        d = random_effective_divisor(rng, cfg)
        try:
            r = zariski_decompose(cfg, d)
        except LatticeError:
            continue
        # nef part decomposes trivially
        if r.positive.is_effective():
            again = zariski_decompose(cfg, r.positive)
            assert again.positive == r.positive
            assert again.negative == QDivisor.zero()
        # quadratic scaling
        a = Q(rng.randint(1, 5), rng.choice([1, 2, 3]))
        assert volume(cfg, a * d) == a * a * r.volume
        # vol >= D^2, equality exactly for nef divisors (effective nef
        # divisors have non-negative square, so N = 0 forces equality)
        square = pairing(cfg, d, d)
        assert r.volume >= square
        assert (r.volume == square) == (r.negative == QDivisor.zero())


def test_strict_monotonicity_when_dropping_positive_part_support():
    # strict decrease is asserted when the positive part meets the removed
    # divisor positively; that condition is provable on any lattice, while
    # positive-coefficient-only removal admits equality on Gram matrices no
    # surface realizes (kernel rows, extra positive eigenvalues)
    rng = random.Random(13)
    checked = 0
    for _ in range(300):
        cfg = random_config(rng)
        d = random_effective_divisor(rng, cfg)
        try:
            r = zariski_decompose(cfg, d)
        except LatticeError:
            continue
        if not r.big:
            continue
        for name in sorted(d.support):
            if pairing(cfg, r.positive, QDivisor({name: 1})) <= 0:
                continue
            t = d.get(name) / 2
            e = QDivisor({name: t})
            try:
                less = volume(cfg, d - e)
            except LatticeError:
                continue
            assert r.volume > less
            checked += 1
    assert checked > 50
