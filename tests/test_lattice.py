import json
import random
import sys
from fractions import Fraction as Q
from math import gcd

import pytest
from conftest import Oversize, random_config, random_effective_divisor, random_rational

from logsurf import (
    CurveConfig,
    CurveRecord,
    LatticeError,
    QDivisor,
    divisor_geq,
    is_negative_definite,
    is_nef_on_tracked,
    kdot,
    make_config,
    pa_of,
    pairing,
    sum_divisor,
    validate,
)
from logsurf.formats import config_from_json, config_to_json, divisor_from_json, divisor_to_json
from logsurf.lattice import MAX_CURVES, pairings_with_curves, rational, rational_str


def type_ii_pair():
    return make_config([("C1", 0, 1), ("C2", -2, 0)], [("C1", "C2", 1)])


# -- curve records ----------------------------------------------------------

def test_curve_records_are_immutable_values():
    record = CurveRecord("A", 0, -1)
    assert record == CurveRecord(name="A", pa=0, kdeg=-1) == CurveRecord("A", kdeg=-1, pa=0)
    assert (record.name, record.pa, record.kdeg) == ("A", 0, -1)
    assert hash(record) == hash(CurveRecord("A", 0, -1))
    assert record != CurveRecord("A", 1, -1) and record != CurveRecord("B", 0, -1)
    assert len({record, CurveRecord("A", 0, -1), CurveRecord("A", 0, 0)}) == 2
    assert repr(record) == "CurveRecord(name='A', pa=0, kdeg=-1)"
    for field in ("pa", "name", "kdeg"):
        with pytest.raises(AttributeError):
            setattr(record, field, 1)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == CurveRecord("A", 0, -1)
    # tuple-backed: a record compares and hashes as its plain field tuple
    assert record == ("A", 0, -1) and ("A", 0, -1) == record
    assert hash(record) == hash(("A", 0, -1))
    with pytest.raises(TypeError):
        CurveRecord("A", 0)


def test_the_constructor_takes_plain_triples():
    gram = [[-1, 1], [1, 0]]
    records = [CurveRecord("A", 0, -1), CurveRecord("B", 0, -2)]
    plain = CurveConfig([("A", 0, -1), ["B", 0, -2]], gram)
    assert plain == CurveConfig(records, gram) and plain._keys == {"A": 0, "B": 1}
    assert plain.curves == tuple(records) and plain.record("B") == records[1]
    assert config_to_json(plain) == config_to_json(CurveConfig(records, gram))
    assert validate(plain) == []


@pytest.mark.parametrize("bad", [("B", 0), ("B", 0, -2, 1), 5, "abc", None])
def test_the_constructor_refuses_a_record_without_three_fields(bad):
    with pytest.raises(LatticeError) as err:
        CurveConfig([("A", 0, -1), bad], [[-1, 1], [1, 0]])
    assert err.value.code == "bad-type"
    assert err.value.message == f"curves[1] must be (name, pa, kdeg), got {bad!r}"


# -- validate ---------------------------------------------------------------

def test_validate_minus_two_curve():
    assert validate(make_config([("C", -2, 0)])) == []


def test_validate_fiber_class():
    assert validate(make_config([("C", 0, 1)])) == []


def test_validate_reports_kdeg_mismatch():
    cfg = CurveConfig((CurveRecord("C", 0, 5),), ((-2,),))
    problems = validate(cfg)
    assert len(problems) == 1 and "kdeg" in problems[0] and "C" in problems[0]


def test_validate_rejects_negative_off_diagonal():
    cfg = CurveConfig(
        (CurveRecord("A", 0, 0), CurveRecord("B", 0, 0)), ((-2, -1), (-1, -2))
    )
    assert any("off-diagonal" in p for p in validate(cfg))


def test_validate_reports_asymmetric_gram():
    cfg = CurveConfig((CurveRecord("A", 0, 0), CurveRecord("B", 0, 0)), ((-2, 1), (0, -2)))
    assert cfg.gram == ((-2, 1), (0, -2))
    assert validate(cfg) == [
        "gram[0][1] != gram[1][0] (not symmetric)",
        "gram[1][0] != gram[0][1] (not symmetric)",
    ]


def dense_validate(config: CurveConfig) -> list[str]:
    """The former `validate`, a double loop over the dense `gram` view."""
    out: list[str] = []
    n = config.n
    seen: set[str] = set()
    for c in config.curves:
        if not c.name:
            out.append("curve with empty name")
        if c.name in seen:
            out.append(f"{c.name}: duplicate name")
        seen.add(c.name)
        if c.pa < 0:
            out.append(f"{c.name}: pa {c.pa} is negative")
    for i in range(n):
        for j in range(n):
            if config.gram[i][j] != config.gram[j][i]:
                out.append(f"gram[{i}][{j}] != gram[{j}][{i}] (not symmetric)")
            if i != j and config.gram[i][j] < 0:
                a, b = config.curves[i].name, config.curves[j].name
                out.append(f"gram[{a}][{b}] = {config.gram[i][j]} is negative off-diagonal")
    for i, c in enumerate(config.curves):
        want = 2 * c.pa - 2 - config.gram[i][i]
        if c.kdeg != want:
            out.append(f"{c.name}: kdeg {c.kdeg} violates adjunction (expected {want})")
    return out


def test_validate_matches_the_dense_double_loop():
    """Same messages in the same order on raw matrices, asymmetric ones
    included, and on their contractions, whose rows may keep the key of
    the contracted curve."""
    from logsurf import contract_minus_one

    rng = random.Random(2718)
    seen = {"symmetric": 0, "negative": 0, "kdeg": 0, "dead key": 0}
    for _ in range(600):
        n = rng.randint(0, 7)
        gram = [[rng.choice([0, 0, 0, 1, 2, -1]) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.5:  # symmetric
            gram = [[gram[max(i, j)][min(i, j)] for j in range(n)] for i in range(n)]
        for i in range(n):
            gram[i][i] = rng.choice([-1, -1, -2, 0, 1])
        recs = []
        for i in range(n):
            pa = rng.choice([0, 0, 0, 1, -1])
            kdeg = 2 * pa - 2 - gram[i][i] + (rng.random() < 0.2)
            recs.append(CurveRecord(rng.choice(["", "A", f"C{i}", f"C{i}", f"C{i}"]), pa, kdeg))
        configs = [CurveConfig(tuple(recs), tuple(map(tuple, gram)))]
        for name in dict.fromkeys(configs[0].names):
            c = configs[0].record(name)
            if (c.pa, c.kdeg, configs[0].self_int(name)) == (0, -1, -1):
                configs.append(contract_minus_one(configs[0], name))
        for cfg in configs:
            got = validate(cfg)
            assert got == dense_validate(cfg), (gram, recs)
            for key, word in (("symmetric", "not symmetric"), ("negative", "off-diagonal"),
                              ("kdeg", "adjunction")):
                seen[key] += any(word in v for v in got)
            seen["dead key"] += any(k not in cfg._rows for row in cfg._rows.values() for k in row)
    assert min(seen.values()) > 20, seen


# -- storage: sparse rows, dense view ----------------------------------------

def test_dense_constructor_round_trips_any_square_matrix():
    rng = random.Random(8)
    for _ in range(300):
        n = rng.randint(0, 6)
        gram = tuple(tuple(rng.choice([0, 0, 0, 1, 2, -1, -3]) for _ in range(n)) for _ in range(n))
        recs = tuple(CurveRecord(f"C{i}", 0, -2 - gram[i][i]) for i in range(n))
        cfg = CurveConfig(recs, gram)
        assert cfg.gram == gram and cfg.curves == recs and cfg.n == n
        assert cfg.diag == tuple(gram[i][i] for i in range(n))
        assert cfg.neighbours == tuple(
            tuple((j, m) for j, m in enumerate(row) if m and j != i) for i, row in enumerate(gram)
        )
        assert all(cfg.entry(f"C{i}", f"C{j}") == gram[i][j] for i in range(n) for j in range(n))
        twin = CurveConfig(recs, gram)
        assert twin == cfg and hash(twin) == hash(cfg)
        if n and any(gram[i][j] != gram[j][i] for i in range(n) for j in range(n)):
            assert validate(cfg)


def test_dense_constructor_equals_make_config():
    rng = random.Random(9)
    for _ in range(100):
        cfg = random_config(rng)
        assert CurveConfig(cfg.curves, cfg.gram) == cfg
        assert CurveConfig(cfg.curves, cfg.gram, True) != cfg


def test_dense_constructor_refuses_a_ragged_matrix():
    recs = (CurveRecord("A", 0, 0), CurveRecord("B", 0, 0))
    for gram in (((-2, 1), (1,)), ((-2, 1),), ((-2, 1, 0), (1, -2, 0))):
        with pytest.raises(LatticeError) as err:
            CurveConfig(recs, gram)
        assert err.value.code == "bad-gram"


def test_curve_count_is_capped_before_any_row():
    with pytest.raises(LatticeError) as err:
        make_config(Oversize(MAX_CURVES + 1))
    assert err.value.code == "too-large"
    with pytest.raises(AssertionError):
        make_config(Oversize(MAX_CURVES))


# -- pairing / kdot / pa ----------------------------------------------------

def test_pairing_matrix_entry():
    cfg = make_config([("C1", -2, 0), ("C2", -2, 0)], [("C1", "C2", 1)])
    assert pairing(cfg, QDivisor({"C1": 1}), QDivisor({"C2": 1})) == 1


def test_pairing_type_ii_square():
    cfg = type_ii_pair()
    d = QDivisor({"C1": 1, "C2": Q(1, 2)})
    assert pairing(cfg, d, d) == Q(1, 2)


def test_pairing_mixed_signature():
    cfg = make_config([("A", 1, 0), ("B", -2, 0)])
    d = sum_divisor(cfg)
    assert pairing(cfg, d, d) == -1


def test_pairing_unknown_name():
    cfg = type_ii_pair()
    with pytest.raises(LatticeError) as err:
        pairing(cfg, QDivisor({"Z": 1}), QDivisor({"C1": 1}))
    assert err.value.code == "unknown-curve" and "Z" in str(err.value)


def test_pairing_bilinear_random():
    rng = random.Random(1)
    for _ in range(200):
        cfg = random_config(rng)
        a, b = random_rational(rng), random_rational(rng)
        d1 = random_effective_divisor(rng, cfg)
        d2 = random_effective_divisor(rng, cfg)
        d3 = random_effective_divisor(rng, cfg)
        lhs = pairing(cfg, a * d1 + b * d2, d3)
        rhs = a * pairing(cfg, d1, d3) + b * pairing(cfg, d2, d3)
        assert lhs == rhs
        assert pairing(cfg, d1, d2) == pairing(cfg, d2, d1)


def _raw_asymmetric(rng: random.Random, n: int) -> CurveConfig:
    """Any integer matrix, negative and one-sided entries included, whose
    last curve is a contractible (-1)-curve (pa 0, kdeg by adjunction)."""
    gram = [
        [rng.randint(-3, 2) if i == j else rng.choice([0, 0, 0, 1, 1, 2, -1]) for j in range(n)]
        for i in range(n)
    ]
    gram[-1][-1] = -1
    return CurveConfig(tuple(CurveRecord(f"C{i}", 0, -2 - gram[i][i]) for i in range(n)), gram)


def test_pairing_matches_the_dense_double_sum_with_dead_keys():
    """d1 . d2 = sum of x_a y_b gram[a][b], row a from d1, on raw asymmetric
    matrices and on their contractions, whose rows may still list the
    contracted curve's key (a dead key): the sum skips it as `gram` does."""
    from logsurf import contract_minus_one

    rng = random.Random(20)
    dead = 0
    for _ in range(400):
        cfg = _raw_asymmetric(rng, rng.randint(2, 6))
        down = contract_minus_one(cfg, cfg.names[-1])
        dead += any(j not in down._rows for row in down._rows.values() for j in row)
        for model in (cfg, down):
            names, gram = model.names, model.gram
            for _ in range(3):
                d1, d2 = (
                    QDivisor({name: random_rational(rng) for name in names if rng.random() < 0.7})
                    for _ in range(2)
                )
                want = sum(
                    d1.get(a) * d2.get(b) * gram[i][j]
                    for i, a in enumerate(names)
                    for j, b in enumerate(names)
                )
                assert pairing(model, d1, d2) == want, (gram, d1, d2)
    assert dead > 100, dead
    # an unknown name is the first one in d1, then in d2
    cfg = type_ii_pair()
    for d1, d2, first in (({"Y": 1, "C1": 1}, {"Z": 1}, "Y"), ({"C1": 1}, {"C2": 1, "Z": 1}, "Z")):
        with pytest.raises(LatticeError) as err:
            pairing(cfg, QDivisor(d1), QDivisor(d2))
        assert str(err.value) == f"unknown-curve: {first}"


def test_pairings_with_curves_match_pairing():
    rng = random.Random(2)
    for _ in range(200):
        cfg = random_config(rng, max_curves=7)
        d = QDivisor({
            name: Q(rng.randint(-9, 9), rng.choice([1, 2, 3, 5, 7, 12]))
            for name in cfg.names
            if rng.random() < 0.7
        })
        want = [pairing(cfg, d, QDivisor({name: 1})) for name in cfg.names]
        assert pairings_with_curves(cfg, d) == want
    with pytest.raises(LatticeError) as err:
        pairings_with_curves(type_ii_pair(), QDivisor({"C1": 1, "Z": 1}))
    assert err.value.code == "unknown-curve" and "Z" in str(err.value)


def test_kdot_values():
    assert kdot(make_config([("C", -2, 0)]), QDivisor({"C": 1})) == 0
    assert kdot(make_config([("L", 1, 0)]), QDivisor({"L": 1})) == -3
    assert kdot(type_ii_pair(), sum_divisor(type_ii_pair())) == 0


def test_pa_of_examples():
    assert pa_of(make_config([("C", -2, 0)]), QDivisor({"C": 1})) == 0
    i2 = make_config([("C1", -2, 0), ("C2", -2, 0)], [("C1", "C2", 2)])
    assert pa_of(i2, sum_divisor(i2)) == 1
    assert pa_of(make_config([("C", 0, 1)]), QDivisor({"C": 1})) == 1


def test_pa_of_single_curve_matches_stored():
    rng = random.Random(2)
    for _ in range(100):
        cfg = random_config(rng)
        name = rng.choice(cfg.names)
        assert pa_of(cfg, QDivisor({name: 1})) == cfg.record(name).pa


# -- negative definiteness --------------------------------------------------

def e8_config():
    # chain of seven (-2)-curves with the branch on the fifth: minors
    # alternate sign, the classical rank-eight even lattice
    curves = [(f"A{i}", -2, 0) for i in range(1, 8)] + [("B", -2, 0)]
    edges = [(f"A{i}", f"A{i+1}", 1) for i in range(1, 7)] + [("A5", "B", 1)]
    return make_config(curves, edges)


def affine_e8_config():
    curves = [(f"A{i}", -2, 0) for i in range(1, 9)] + [("B", -2, 0)]
    edges = [(f"A{i}", f"A{i+1}", 1) for i in range(1, 8)] + [("A6", "B", 1)]
    return make_config(curves, edges)


def test_e8_negative_definite():
    cfg = e8_config()
    assert is_negative_definite(cfg, cfg.names)


def test_affine_extension_is_not_definite():
    # adding the ninth vertex gives the degenerate fiber lattice
    cfg = affine_e8_config()
    assert not is_negative_definite(cfg, cfg.names)


def test_cycle_not_definite():
    cfg = make_config(
        [("C1", -2, 0), ("C2", -2, 0), ("C3", -2, 0)],
        [("C1", "C2", 1), ("C2", "C3", 1), ("C1", "C3", 1)],
    )
    assert not is_negative_definite(cfg, cfg.names)


def test_single_minus_two_definite():
    assert is_negative_definite(make_config([("C", -2, 0)]), {"C"})
    assert is_negative_definite(make_config([("C", -2, 0)]), set())


def _det_cofactor(m):
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _det_cofactor(minor)
    return total


def test_negative_definite_against_minor_oracle():
    rng = random.Random(3)
    from itertools import combinations

    for _ in range(40):
        cfg = random_config(rng, max_curves=6)
        for size in range(cfg.n + 1):
            for subset in combinations(cfg.names, size):
                idx = [cfg.index(s) for s in subset]
                block = [[cfg.gram[i][j] for j in idx] for i in idx]
                # leading minor of size k+1 must have sign (-1)^(k+1)
                expect = True
                for k in range(len(block)):
                    d = _det_cofactor([row[: k + 1] for row in block[: k + 1]])
                    if d == 0 or (d < 0) != (k % 2 == 0):
                        expect = False
                        break
                assert is_negative_definite(cfg, subset) == expect


# -- nefness and ordering ---------------------------------------------------

def test_nef_on_tracked():
    cfg = type_ii_pair()
    assert is_nef_on_tracked(cfg, QDivisor({"C1": 1, "C2": Q(1, 2)}))
    assert not is_nef_on_tracked(make_config([("C", -2, 0)]), QDivisor({"C": 1}))
    assert is_nef_on_tracked(cfg, QDivisor.zero())


def test_divisor_geq():
    d1 = QDivisor({"C1": 1, "C2": 1})
    d2 = QDivisor({"C1": 1, "C2": Q(1, 2)})
    assert divisor_geq(d1, d2)
    assert not divisor_geq(QDivisor({"C1": 1}), QDivisor({"C2": 1}))


def test_divisor_arithmetic_equals_the_coerced_construction():
    """Sums, differences and multiples, built without re-coercing their
    `Fraction`s, equal the divisors the constructor makes of the same
    values: zeros dropped, every coefficient a nonzero `Fraction`."""
    rng = random.Random(31)
    names = ["A", "B", "C", "D", "E"]
    for _ in range(400):
        a, b = (
            QDivisor({nm: random_rational(rng, -3, 3) for nm in rng.sample(names, rng.randint(0, 5))})
            for _ in range(2)
        )
        union = [*a.coeffs, *(nm for nm in b.coeffs if nm not in a.coeffs)]
        scalar = rng.choice([0, 1, -2, Q(2, 3), "-3/4"])
        for got, want in (
            (a + b, QDivisor({nm: a.get(nm) + b.get(nm) for nm in union})),
            (a - b, QDivisor({nm: a.get(nm) - b.get(nm) for nm in union})),
            (a - a, QDivisor.zero()),
            (scalar * a, QDivisor({nm: rational(scalar) * v for nm, v in a.items()})),
            (a * scalar, QDivisor({nm: rational(scalar) * v for nm, v in a.items()})),
        ):
            assert got == want and list(got.coeffs) == list(want.coeffs)
            assert all(type(v) is Q and v for v in got.coeffs.values())
    with pytest.raises(LatticeError) as err:
        True * QDivisor({"A": 1})
    assert err.value.code == "bad-rational"


# -- the integer form against the former `Fraction`-dict divisor -------------

class FractionDivisor:
    """The former `QDivisor`, a dict of nonzero `Fraction`s in insertion
    order: the reference the integer form is compared with."""

    def __init__(self, coeffs=None):
        self.coeffs = {}
        for name, value in (coeffs or {}).items():
            q = rational(value)
            if q != 0:
                self.coeffs[name] = q

    def get(self, name):
        return self.coeffs.get(name, Q(0))

    def items(self):
        return self.coeffs.items()

    @property
    def support(self):
        return frozenset(self.coeffs)

    def is_effective(self):
        return all(v >= 0 for v in self.coeffs.values())

    def _combine(self, other, sign):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out[k] + sign * v if k in out else sign * v
        return FractionDivisor(out)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rmul__(self, scalar):
        s = rational(scalar)
        return FractionDivisor({k: s * v for k, v in self.coeffs.items()})

    __mul__ = __rmul__

    def __eq__(self, other):
        return self.coeffs == other.coeffs

    def __repr__(self):
        body = ", ".join(f"{k}: {rational_str(v)}" for k, v in sorted(self.coeffs.items()))
        return f"QDivisor({{{body}}})"


_NAMES = ["A", "B", "C", "D", "E", "F"]


def _raw_coefficients(rng):
    """Ints, `Fraction`s and "p/q" strings, zeros and negatives among them."""
    raw = {}
    for name in rng.sample(_NAMES, rng.randint(0, len(_NAMES))):
        p, q = rng.randint(-6, 6), rng.choice([1, 2, 3, 4, 6, 7, 12])
        raw[name] = rng.choice([p, Q(p, q), f"{p}/{q}", str(p), 0, "0/5", Q(-q, 2 * q)])
    return raw


def _assert_matches_reference(got, want):
    assert type(got) is QDivisor
    assert list(got.items()) == list(want.items())  # values and insertion order
    assert all(type(v) is Q for _, v in got.items())
    assert got.coeffs == want.coeffs and got.support == want.support
    assert got.is_effective() == want.is_effective()
    assert repr(got) == repr(want)
    for name in [*_NAMES, "Z"]:
        assert got.get(name) == want.get(name) and type(got.get(name)) is Q
    # the canonical form: positive den, nonzero ints, no common factor
    assert type(got.den) is int and got.den > 0
    assert list(got.num) == list(want.coeffs)
    assert all(type(v) is int and v for v in got.num.values())
    assert gcd(got.den, *got.num.values()) == 1
    data = divisor_to_json(got)
    assert data == {"coeffs": {k: rational_str(v) for k, v in sorted(want.items())}}
    assert divisor_from_json(data) == got


def test_integer_divisor_matches_the_fraction_reference():
    """Construction, sums, differences and multiples on seeded inputs read
    exactly as the former `Fraction`-dict divisor, in a canonical form
    where equal divisors hash equal."""
    rng = random.Random(47)
    scalars = [0, 1, -1, 3, Q(-3, 7), "-3/7", Q(2, 3), "5/2"]
    for _ in range(300):
        raw_a, raw_b = _raw_coefficients(rng), _raw_coefficients(rng)
        a, b = QDivisor(raw_a), QDivisor(raw_b)
        ref_a, ref_b = FractionDivisor(raw_a), FractionDivisor(raw_b)
        scalar = rng.choice(scalars)
        for got, want in (
            (a, ref_a),
            (a + b, ref_a + ref_b),
            (a - b, ref_a - ref_b),
            (b - a, ref_b - ref_a),
            (a - a, FractionDivisor()),
            (scalar * a, scalar * ref_a),
            (a * scalar, ref_a * scalar),
            (Q(-3, 7) * (a + b), Q(-3, 7) * (ref_a + ref_b)),
        ):
            _assert_matches_reference(got, want)
        assert (a == b) == (ref_a == ref_b)
        # one divisor reached along different routes: equal, and equal hashes
        for same in ((a + b) - b, Q(-7, 3) * (Q(-3, 7) * a), QDivisor(dict(a.items()))):
            assert same == a and hash(same) == hash(a)
    assert QDivisor({"A": Q(2, 4), "B": "3/6"}) == QDivisor({"B": 1, "A": 1}) * Q(1, 2)
    assert (QDivisor.zero().den, QDivisor.zero().num) == (1, {})
    assert (0 * QDivisor({"A": Q(1, 6)})).den == 1


def test_coefficient_reads_are_fresh_and_never_change_the_divisor():
    d = QDivisor({"A": Q(1, 2), "B": -3})
    d.coeffs["A"] = Q(5)
    d.coeffs.clear()
    assert d == QDivisor({"A": Q(1, 2), "B": -3}) and d.get("A") == Q(1, 2)


@pytest.mark.parametrize(
    "text",
    ["abc", "1/2/3", "", "1/x", "0x10",
     # decimals and exponents, which `Fraction` would parse
     "0.5", "1e-1", ".5", "1.", "2E3", "1.5/2",
     # nor spaces, underscores or non-ASCII digits
     " 1/2", "1/2\n", "1_000", "\u0663"],
)
def test_non_rational_strings_are_bad_rational(text):
    for build in (rational, lambda t: QDivisor({"C": t}), lambda t: divisor_from_json({"coeffs": {"C": t}})):
        with pytest.raises(LatticeError) as err:
            build(text)
        assert err.value.code == "bad-rational" and err.value.message == f"{text!r} is not a rational"


def test_a_long_bad_rational_is_echoed_in_part():
    """A value longer than 64 characters is echoed as its first 32 and its
    length, and a part past `str`→`int`'s digit limit is refused naming
    that limit, not as text that is not a rational."""
    limit = sys.get_int_max_str_digits()
    digits = "7" * (limit + 701)
    for text, why in (
        (digits, f"has a part over the {limit}-digit limit"),
        (f"3/{digits}", f"has a part over the {limit}-digit limit"),
        (f"-{digits}/2", f"has a part over the {limit}-digit limit"),
        (digits + "x", "is not a rational"),
        (digits + "/0", f"has a part over the {limit}-digit limit"),
        ("5" * 70 + "/0", "has a zero denominator"),
    ):
        with pytest.raises(LatticeError) as err:
            rational(text)
        assert err.value.code == "bad-rational"
        assert err.value.message == f"{text[:32]!r}... ({len(text)} characters) {why}"
    with pytest.raises(LatticeError) as err:
        rational([1] * 40)
    assert err.value.message == f"{repr([1] * 40)[:32]!r}... (120 characters)"
    for text in ("1" * 63 + "x", "1" * 64 + "x"):  # 64 characters are echoed whole, 65 are not
        with pytest.raises(LatticeError) as err:
            rational(text)
        shown = repr(text) if len(text) == 64 else f"{text[:32]!r}... (65 characters)"
        assert err.value.message == f"{shown} is not a rational"


# -- serialization ----------------------------------------------------------

def test_make_config_edges_in_code():
    """A self edge is `bad-edge`, an edge naming an unknown curve
    `unknown-curve`, and a zero multiplicity removes an earlier edge."""
    curves = [("C", -2, 0), ("T", -2, 0), ("U", -3, 0)]
    with pytest.raises(LatticeError) as err:
        make_config(curves, [("C", "T", 1), ("C", "C", 1)])
    assert str(err.value) == "bad-edge: self edge on C"
    with pytest.raises(LatticeError) as err:
        make_config(curves, [("C", "T", 1), ("T", "Z", 1)])
    assert str(err.value) == "unknown-curve: Z"
    cfg = make_config(curves, [("C", "T", 2), ("T", "U", 1), ("T", "C", 0)])
    assert cfg == make_config(curves, [("T", "U", 1)])
    assert cfg.adjacent("C") == {} and cfg.adjacent("T") == {"U": 1}


def test_config_from_json_refuses_an_edge_to_an_unlisted_curve():
    """Before any row is built, as `bad-edge`, the first endpoint given first."""
    curves = [{"name": "C", "self": -2, "pa": 0}, {"name": "T", "self": -2, "pa": 0}]
    for edges, name in (([("C", "T"), ("Z", "Y")], "Z"), ([("T", "C"), ("C", "Y")], "Y")):
        data = {"curves": curves, "edges": [{"a": a, "b": b, "m": 1} for a, b in edges]}
        with pytest.raises(LatticeError) as err:
            config_from_json(data)
        assert str(err.value) == f"bad-edge: {name} is not a listed curve"
    self_edge = {"curves": curves, "edges": [{"a": "T", "b": "T", "m": 1}]}
    with pytest.raises(LatticeError) as err:
        config_from_json(self_edge)
    assert str(err.value) == "bad-edge: self edge on T"


@pytest.mark.parametrize("edges, want", [
    ([("C", "T", 1), ("T", "C", 3)], "bad-edge: C.T is listed twice"),
    ([("T", "C", 1), ("C", "T", 1)], "bad-edge: C.T is listed twice"),
    ([("U", "T", 2), ("C", "T", 1), ("U", "T", 0)], "bad-edge: T.U is listed twice"),
    # the first bad edge in file order is the one named
    ([("C", "T", 1), ("C", "C", 1), ("T", "C", 1)], "bad-edge: self edge on C"),
    ([("C", "T", 1), ("T", "C", 1), ("U", "U", 1)], "bad-edge: C.T is listed twice"),
    # an unlisted endpoint anywhere comes first
    ([("C", "T", 1), ("T", "C", 1), ("Z", "C", 1)], "bad-edge: Z is not a listed curve"),
])
def test_config_from_json_refuses_a_pair_listed_twice(edges, want):
    """In either orientation, with the same or another multiplicity; the
    pair is named in configuration order.  `make_config` keeps letting a
    later edge replace an earlier one."""
    curves = [("C", -2, 0), ("T", -2, 0), ("U", -3, 0)]
    data = {
        "curves": [{"name": name, "self": s, "pa": pa} for name, s, pa in curves],
        "edges": [{"a": a, "b": b, "m": m} for a, b, m in edges],
    }
    for unique_names in (True, False):
        with pytest.raises(LatticeError) as err:
            config_from_json(data, unique_names)
        assert str(err.value) == want
    edges = [(a, b, m) for a, b, m in edges if a != b]
    if want.endswith("twice"):
        last = {frozenset((a, b)): (a, b, m) for a, b, m in edges}
        assert make_config(curves, edges) == make_config(curves, list(last.values()))


@pytest.mark.parametrize("path, field, where", [
    (("curves", 0), "name", "curves[0]"),
    (("curves", 1), "self", "curves[1]"),
    (("curves", 1), "pa", "curves[1]"),
    (("edges", 0), "a", "edges[0]"),
    (("edges", 1), "b", "edges[1]"),
    (("edges", 1), "m", "edges[1]"),
    ((), "curves", "configuration"),
])
def test_config_from_json_names_a_missing_field_and_its_entry(path, field, where):
    data = {
        "curves": [{"name": "C", "self": 0, "pa": 1}, {"name": "T", "self": -2, "pa": 0},
                   {"name": "U", "self": -2, "pa": 0}],
        "edges": [{"a": "C", "b": "T", "m": 1}, {"a": "T", "b": "U", "m": 1}],
    }
    entry = data
    for step in path:
        entry = entry[step]
    del entry[field]
    with pytest.raises(LatticeError) as err:
        config_from_json(data)
    assert str(err.value) == f'bad-type: {where} has no "{field}"'


def test_config_json_round_trip():
    rng = random.Random(4)
    for _ in range(50):
        cfg = random_config(rng)
        again = config_from_json(config_to_json(cfg))
        assert again == cfg
        assert config_to_json(again) == config_to_json(cfg)


def test_divisor_json_round_trip():
    d = QDivisor({"C1": Q(7, 8), "C2": -3})
    data = divisor_to_json(d)
    assert data == {"coeffs": {"C1": "7/8", "C2": "-3"}}
    assert divisor_from_json(data) == d


def test_divisor_json_checks_names():
    cfg = type_ii_pair()
    with pytest.raises(LatticeError):
        divisor_from_json({"coeffs": {"Z": "1"}}, cfg)


def test_rational_strings():
    assert rational("7/8") == Q(7, 8)
    assert rational("-3") == -3 and rational("+3") == 3 and rational("-6/4") == Q(-3, 2)
    assert rational_str(Q(6, 4)) == "3/2"
    assert rational_str(Q(4, 2)) == "2"


def test_a_rational_past_the_int_digit_limit_prints_in_full():
    """`str` refuses an int longer than `sys.get_int_max_str_digits()`
    (4300 digits by default); `rational_str` still prints the exact value,
    the digits `str` gives under a lifted limit, and leaves the limit as
    it was."""
    limit = sys.get_int_max_str_digits()
    values = [Q(7**6000, 3), Q(-(7**6000), 3), Q(7**6000), Q(3, 7**6000)]
    got = [rational_str(x) for x in values]
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        want = [str(x) for x in values]
    finally:
        sys.set_int_max_str_digits(limit)
    assert got == want
    assert got[0].endswith("/3") and got[1].startswith("-") and "/" not in got[2]


def test_every_stored_rational_still_parses():
    """Every string in the reference data that `Fraction` reads is a
    rational: the stricter grammar refuses no stored value."""
    from importlib import resources

    data = json.loads(resources.files("logsurf").joinpath("data/expected.json").read_text("utf-8"))
    strings, todo = [], [data]
    while todo:
        node = todo.pop()
        if isinstance(node, dict):
            todo.extend(node.values())
        elif isinstance(node, list):
            todo.extend(node)
        elif isinstance(node, str):
            strings.append(node)
    parsed = 0
    for text in strings:
        try:
            want = Q(text)
        except ValueError:
            continue
        assert rational(text) == want, text
        parsed += 1
    assert parsed > 50, parsed


@pytest.mark.parametrize("value", [True, False])
def test_booleans_are_not_rationals(value):
    with pytest.raises(LatticeError) as err:
        rational(value)
    assert err.value.code == "bad-rational"
    with pytest.raises(LatticeError) as err:
        divisor_from_json({"coeffs": {"C": value}})
    assert err.value.code == "bad-rational"
    assert rational(1) == 1 and rational(0) == 0


def test_duplicate_names_kept_for_validate():
    curves = [("C", -2, 0), ("C", -1, 0), ("D", 0, 1)]
    with pytest.raises(LatticeError) as err:
        make_config(curves)
    assert err.value.code == "duplicate-curve"
    cfg = make_config(curves, [("C", "D", 1)], unique_names=False)
    assert [c.kdeg for c in cfg.curves] == [0, -1, 0]
    assert [cfg.gram[i][i] for i in range(3)] == [-2, -1, 0]
    assert cfg.gram[1][2] == cfg.gram[2][1] == 1 and cfg.gram[0][2] == 0
    assert validate(cfg) == ["C: duplicate name"]
