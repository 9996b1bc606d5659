from __future__ import annotations

import ast
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import nextprime
from sympy import totient as sym_totient
from sympy.ntheory import sqrt_mod as sym_sqrt_mod
from sympy.ntheory.modular import crt as sym_crt

from designforge import modarith
from designforge.modarith import (
    crt_basis,
    crt_lift,
    generates_mod_pm_one,
    mod_sqrt,
    mult_order,
)


def scan_sqrt(a, m):
    roots = [r for r in range(m) if r * r % m == a % m]
    return min(roots) if roots else None


def test_mod_sqrt_examples():
    assert mod_sqrt(2, 7) == 3
    assert mod_sqrt(2, 49) == 10
    assert mod_sqrt(0, 7) == 0
    assert mod_sqrt(3, 7) is None
    # independent scan confirms the fixtures
    assert scan_sqrt(2, 7) == 3
    assert scan_sqrt(2, 49) == 10
    assert scan_sqrt(3, 7) is None


@pytest.mark.parametrize("m", [5, 7, 11, 13, 23, 9, 25, 49, 121])
def test_mod_sqrt_matches_scan(m):
    for a in range(m):
        if a != 0 and math.gcd(a, m) != 1:
            continue
        assert mod_sqrt(a, m) == scan_sqrt(a, m)


@pytest.mark.parametrize("m", [7, 23, 49, 529])
def test_mod_sqrt_roundtrip_is_min_root(m):
    for x in range(1, m):
        if math.gcd(x, m) != 1:
            continue
        assert mod_sqrt(x * x % m, m) == min(x, m - x)


def test_mod_sqrt_rejects_bad_moduli():
    for m in (15, 21, 8, 27, 1, 2):
        with pytest.raises(ValueError):
            mod_sqrt(2, m)
    with pytest.raises(ValueError):
        mod_sqrt(7, 49)  # divisible by p but nonzero


# Primes p = c * 2**s + 1 with large s, where Tonelli-Shanks climbs the most.
_DEEP_TWO_PRIMES = (17, 97, 193, 257, 7681, 65537, 786433, 7340033, 998244353)


@st.composite
def _sqrt_cases(draw) -> tuple[int, int]:
    """An odd prime or prime square m, and 0, a square unit or any unit of Z_m."""
    p = draw(st.one_of(st.integers(2, 10**12).map(nextprime), st.sampled_from(_DEEP_TWO_PRIMES)))
    m = p ** draw(st.sampled_from((1, 2)))
    kind = draw(st.sampled_from(("zero", "square", "any unit")))
    if kind == "zero":
        return 0, m
    x = draw(st.integers(1, m - 1).filter(lambda x: x % p))
    return (x * x % m if kind == "square" else x), m


@settings(max_examples=500, deadline=None)
@given(_sqrt_cases())
def test_mod_sqrt_agrees_with_sympy(case):
    """The smaller root, or None for a non-residue, as sympy's sqrt_mod gives it."""
    a, m = case
    assert mod_sqrt(a, m) == sym_sqrt_mod(a, m)


def test_crt_lift_examples():
    assert crt_lift([3, 8], [7, 19]) == 122
    assert crt_lift([2, 5, 6], [3, 7, 31]) == 68
    assert crt_lift([0, 0], [3, 13]) == 0


def test_crt_lift_inverts_reduction():
    rng = random.Random(7)
    for _ in range(200):
        moduli = rng.sample([3, 5, 7, 11, 13, 17, 19, 23], k=rng.randint(1, 4))
        residues = [rng.randrange(m) for m in moduli]
        x = crt_lift(residues, moduli)
        assert 0 <= x < math.prod(moduli)
        for r, m in zip(residues, moduli):
            assert x % m == r


def test_crt_lift_rejects_noncoprime():
    with pytest.raises(ValueError):
        crt_lift([1, 2], [6, 4])
    with pytest.raises(ValueError):
        crt_lift([1], [])


def _coprime_moduli(candidates):
    """The candidates, in order, each kept only if coprime to those kept before it."""
    kept = []
    for m in candidates:
        if all(math.gcd(m, k) == 1 for k in kept):
            kept.append(m)
    return kept


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 10 ** 5), min_size=1, max_size=6), st.data())
def test_crt_basis_and_lift_agree_with_sympy(candidates, data):
    moduli = _coprime_moduli(candidates)
    total = math.prod(moduli)
    basis = crt_basis(moduli)
    for i, e in enumerate(basis):
        unit = [int(i == j) for j in range(len(moduli))]
        assert e == sym_crt(moduli, unit)[0] % total
    residues = data.draw(st.lists(st.integers(-10 ** 6, 10 ** 6),
                                  min_size=len(moduli), max_size=len(moduli)))
    assert crt_lift(residues, moduli) == sym_crt(moduli, residues)[0] % total


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 10 ** 4), min_size=2, max_size=5), st.integers(2, 50),
       st.data())
def test_crt_rejects_moduli_sharing_a_factor(candidates, d, data):
    moduli = list(candidates)
    i, j = data.draw(st.lists(st.integers(0, len(moduli) - 1), min_size=2, max_size=2,
                              unique=True))
    moduli[i] *= d
    moduli[j] *= d
    with pytest.raises(ValueError):
        crt_basis(moduli)
    with pytest.raises(ValueError):
        crt_lift([1] * len(moduli), moduli)


def test_mult_order_examples():
    assert mult_order(122, 133) == 6
    assert pow(122, 3, 133) == 132  # order 6 via -1 at the half
    assert mult_order(1, 13) == 1
    assert mult_order(68, 651) == 6
    with pytest.raises(ValueError):
        mult_order(7, 49)


def test_mult_order_against_bruteforce():
    for v in range(3, 60, 2):
        for x in range(1, v):
            if math.gcd(x, v) != 1:
                continue
            t, y = 1, x % v
            while y != 1:
                y = y * x % v
                t += 1
            assert mult_order(x, v) == t


def test_mult_order_divides_totient_exhaustively():
    for v in range(2, 1000):
        phi = int(sym_totient(v))
        assert modarith._totient_with_factors(v)[0] == phi
        for x in range(1, v):
            if math.gcd(x, v) == 1:
                assert phi % mult_order(x, v) == 0


def subgroup_with_minus_one(x, v):
    elements = {1, v - 1}
    frontier = [x % v]
    while frontier:
        g = frontier.pop()
        if g in elements:
            continue
        elements.add(g)
        frontier.extend(g * h % v for h in list(elements))
    # close under products
    changed = True
    while changed:
        changed = False
        for a in list(elements):
            for b in list(elements):
                c = a * b % v
                if c not in elements:
                    elements.add(c)
                    changed = True
    return elements


def test_generates_examples():
    assert generates_mod_pm_one(4, 7) is True
    assert generates_mod_pm_one(1, 7) is False
    # theta = 1 + sqrt(2) over 49: order 21 and -1 outside its cyclic part,
    # so together with -1 it spans all 42 units (checked by enumeration).
    assert mult_order(11, 49) == 21
    assert len(subgroup_with_minus_one(11, 49)) == 42
    assert generates_mod_pm_one(11, 49) is True
    with pytest.raises(ValueError):
        generates_mod_pm_one(3, 10)
    with pytest.raises(ValueError):
        generates_mod_pm_one(3, 9)


def test_generates_matches_subgroup_enumeration():
    rng = random.Random(11)
    moduli = [v for v in range(3, 100, 2)] + rng.sample(range(101, 500, 2), 30)
    for v in moduli:
        units = [x for x in range(1, v) if math.gcd(x, v) == 1]
        sample = units if v < 100 else rng.sample(units, min(10, len(units)))
        for x in sample:
            expected = len(subgroup_with_minus_one(x, v)) == sym_totient(v)
            assert generates_mod_pm_one(x, v) == expected, (x, v)


def test_only_modarith_imports_sympy():
    importers = set()
    for path in Path(modarith.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            if any(m.split(".")[0] == "sympy" for m in modules):
                importers.add(path.name)
    assert importers == {"modarith.py"}
