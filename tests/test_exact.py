import dataclasses
import json
import random
import re

import pytest

from deltoid.exact import BivarPoly, CRat, Rat, Z, ZBAR, as_rat, record
from oracles import bivar_from_records


def rand_poly(rng, deg=4, nterms=6, imag=True):
    terms = {}
    for _ in range(nterms):
        i = rng.randrange(deg + 1)
        j = rng.randrange(deg + 1 - i)
        re = Rat(rng.randrange(-9, 10), rng.randrange(1, 7))
        im = Rat(rng.randrange(-9, 10), rng.randrange(1, 7)) if imag else Rat(0)
        terms[(i, j)] = CRat(re, im)
    return BivarPoly(terms)


def rand_point(rng, radius=0.9):
    import cmath
    import math
    r = radius * math.sqrt(rng.random())
    t = 2 * math.pi * rng.random()
    return r * cmath.exp(1j * t)


def test_as_rat_forms():
    assert as_rat(3) == Rat(3)
    assert as_rat("2/7") == Rat(2, 7)
    assert as_rat("-5") == Rat(-5)
    assert as_rat(Rat(1, 3)) == Rat(1, 3)
    with pytest.raises(TypeError):
        as_rat(0.5)


def test_constructors_and_coeff():
    p = BivarPoly.monomial(2, 1, CRat(Rat(3)))
    assert p.coeff(2, 1) == CRat(Rat(3))
    assert p.coeff(0, 0) == CRat(Rat(0))
    # CRat is a value: a zero coefficient is falsy, a nonzero one truthy
    assert not p.coeff(0, 0) and p.coeff(2, 1)
    assert p.degree() == 3
    assert BivarPoly.zero().is_zero()
    assert BivarPoly.const(Rat(0)).is_zero()


def test_add_cancellation():
    p = Z + ZBAR
    q = p - Z
    assert q == ZBAR
    assert (p - p).is_zero()
    assert (Z + (-Z)).is_zero()


def test_mul_example():
    # the boundary combination written out longhand
    g11 = ZBAR - Z * Z
    g22 = Z - ZBAR * ZBAR
    g12 = (BivarPoly.const(Rat(1)) - Z * ZBAR).scale(Rat(1, 2))
    p = g12 * g12 - g11 * g22
    want = (
        BivarPoly.const(Rat(1, 4))
        + (Z * ZBAR).scale(Rat(-3, 2))
        + (Z * Z * ZBAR * ZBAR).scale(Rat(-3, 4))
        + Z ** 3
        + ZBAR ** 3
    )
    assert p == want


def test_ring_axioms_random():
    rng = random.Random(20260822)
    for _ in range(25):
        a = rand_poly(rng)
        b = rand_poly(rng)
        c = rand_poly(rng)
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_pow():
    p = Z + ZBAR
    assert p ** 0 == BivarPoly.const(Rat(1))
    assert p ** 1 == p
    assert p ** 5 == p * p * p * p * p


def test_euler():
    p = BivarPoly.monomial(2, 3, CRat(Rat(1)))
    assert p.euler() == p.scale(Rat(5))
    rng = random.Random(9)
    for _ in range(10):
        # homogeneous pieces: euler acts as multiplication by total degree
        d = rng.randrange(1, 6)
        terms = {}
        for _ in range(4):
            i = rng.randrange(d + 1)
            terms[(i, d - i)] = CRat(Rat(rng.randrange(1, 9)))
        h = BivarPoly(terms)
        assert h.euler() == h.scale(Rat(d))


def test_eval_values():
    p = Z * ZBAR
    assert abs(p.eval(0.3 + 0.4j) - 0.25) < 1e-15
    bnd = (
        BivarPoly.const(Rat(1, 4))
        + (Z * ZBAR).scale(Rat(-3, 2))
        + (Z * Z * ZBAR * ZBAR).scale(Rat(-3, 4))
        + Z ** 3
        + ZBAR ** 3
    )
    assert abs(bnd.eval(1.0)) < 1e-15  # corner of the domain
    assert bnd.eval(0.0).real == 0.25


def test_eval_multiplicative():
    rng = random.Random(10)
    for _ in range(30):
        a = rand_poly(rng)
        b = rand_poly(rng)
        z = rand_point(rng)
        lhs = (a * b).eval(z)
        rhs = a.eval(z) * b.eval(z)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_eval2_independent_arguments():
    p = Z * Z + ZBAR
    got = p.eval2(2.0, -1.0)
    assert abs(got - 3.0) < 1e-14


def test_conj_swap():
    assert Z.conj_swap() == ZBAR
    p = Z * Z * ZBAR + BivarPoly.const(Rat(1, 2))
    q = Z * ZBAR * ZBAR + BivarPoly.const(Rat(1, 2))
    assert p.conj_swap() == q
    rng = random.Random(11)
    for _ in range(10):
        a = rand_poly(rng, imag=False)
        z = rand_point(rng)
        # real-coefficient polys: swapping variables is complex conjugation
        assert abs(a.conj_swap().eval(z) - a.eval(z).conjugate()) < 1e-12


def test_divexact_roundtrip():
    rng = random.Random(12)
    for _ in range(20):
        p = rand_poly(rng, deg=3, nterms=4)
        q = rand_poly(rng, deg=3, nterms=4)
        if q.is_zero():
            continue
        assert (p * q).divexact(q) == p


def test_divexact_rejects():
    with pytest.raises(ValueError):
        (Z * Z + ZBAR).divexact(Z)
    with pytest.raises(ZeroDivisionError):
        Z.divexact(BivarPoly.zero())
    # divisible in leading term but not overall
    with pytest.raises(ValueError):
        (Z * Z + BivarPoly.const(Rat(1))).divexact(Z)


def test_json_roundtrip():
    rng = random.Random(13)
    for _ in range(10):
        p = rand_poly(rng)
        rec = p.to_records()
        s = json.dumps(rec)
        q = bivar_from_records(json.loads(s))
        assert p == q
    assert bivar_from_records(BivarPoly.zero().to_records()).is_zero()


def test_records_sorted_deterministic():
    p = ZBAR ** 3 + Z + BivarPoly.const(Rat(2))
    r1 = json.dumps(p.to_records())
    r2 = json.dumps((BivarPoly.const(Rat(2)) + Z + ZBAR ** 3).to_records())
    assert r1 == r2


def test_hash_eq_consistent():
    a = Z * ZBAR + BivarPoly.const(Rat(1, 3))
    b = BivarPoly.const(Rat(1, 3)) + ZBAR * Z
    assert a == b
    assert hash(a) == hash(b)


def _point_classes():
    # one declaration, as a frozen dataclass (the reference) and as a record
    def declare(decorate):
        @decorate
        class Point:
            x: int
            y: float = 2.5
            z: object = None
        return Point
    return declare(dataclasses.dataclass(frozen=True)), declare(record)


@pytest.mark.parametrize("args,kwargs", [
    ((1,), {}), ((1, 2, 3), {}), ((), {"x": 1}), ((), {"z": 3, "x": 1}),
    ((1,), {"z": 4}), ((), {}), ((1, 2, 3, 4), {}), ((1,), {"x": 2}),
    ((), {"w": 1}),
])
def test_record_constructs_as_a_frozen_dataclass(args, kwargs):
    # the same instance, or a TypeError that names the same field, if any
    outcomes = []
    for cls in _point_classes():
        try:
            obj = cls(*args, **kwargs)
        except TypeError as exc:
            outcomes.append(("TypeError", re.findall(r"'(\w+)'", str(exc))))
        else:
            outcomes.append((repr(obj), hash(obj), tuple(vars(obj).items())))
    assert outcomes[0] == outcomes[1]


def test_record_is_frozen_and_compares_by_fields():
    _, point = _point_classes()
    a = point(1, z=[2])
    for change in (lambda: setattr(a, "x", 0), lambda: setattr(a, "new", 0),
                   lambda: delattr(a, "x")):
        with pytest.raises(AttributeError):
            change()
    assert a == point(1, 2.5, [2]) and a != point(2, z=[2]) and a != (1, 2.5, [2])
    nan = float("nan")
    # the identity shortcut of a tuple compare, as a dataclass has it
    assert point(nan) == point(nan) and point(nan) != point(float("nan"))

    @record(eq=False)
    class Report:
        value: float

    r = Report(1.0)
    assert r == r and r != Report(1.0) and hash(r) == object.__hash__(r)
    assert repr(r) == "test_record_is_frozen_and_compares_by_fields.<locals>.Report(value=1.0)"
