"""Modular arithmetic shared by the construction and search modules.

Everything here is a pure function of its arguments.  Moduli are plain
Python ints; residues are ints reduced into [0, m).
"""

from __future__ import annotations

import math
from functools import lru_cache

from sympy import isprime
from sympy.ntheory import factorint


def _prime_power_shape(m: int) -> tuple[int, int]:
    """Return (p, e) for m = p**e with p an odd prime and e in {1, 2}."""
    if m < 3 or m % 2 == 0:
        raise ValueError(f"modulus {m} must be an odd prime or the square of one")
    if isprime(m):
        return m, 1
    r = math.isqrt(m)
    if r * r == m and isprime(r):
        return r, 2
    raise ValueError(f"modulus {m} must be an odd prime or the square of one")


def _prime_sqrt(a: int, p: int) -> int | None:
    """A square root of the unit a in [1, p) modulo the odd prime p, or None.

    One power when p = 3 (mod 4); Tonelli-Shanks otherwise.
    """
    if p % 4 == 3:
        root = pow(a, (p + 1) // 4, p)
        return root if root * root % p == a else None
    half = (p - 1) // 2
    if pow(a, half, p) != 1:
        return None
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = q * 2**s, q odd
    q = (p - 1) >> s
    z = 2
    while pow(z, half, p) != p - 1:  # a non-residue; its q-th power has order 2**s
        z += 1
    c, t, root = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:  # root**2 = a * t throughout; each step lowers the order of t
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c = i, b * b % p
        t, root = t * c % p, root * b % p
    return root


def mod_sqrt(a: int, m: int) -> int | None:
    """Canonical square root of a modulo m, or None if a is a non-residue.

    m must be an odd prime p or p**2.  When two roots exist the numerically
    smaller one is returned, so downstream constructions are reproducible.
    """
    p, e = _prime_power_shape(m)
    a %= m
    if a == 0:
        return 0
    if math.gcd(a, m) != 1:
        raise ValueError(f"{a} is neither 0 nor a unit modulo {m}")
    root = _prime_sqrt(a % p, p)
    if root is None:
        return None
    if e == 1:
        return min(root, p - root)
    # Hensel lift from p to p**2; 2*root is a unit because p is odd and a != 0.
    lifted = (root - (root * root - a) * pow(2 * root, -1, m)) % m
    return min(lifted, m - lifted)


def crt_basis(moduli: list[int]) -> tuple[int, ...]:
    """Idempotents e_i of Z_M, M = prod(moduli): e_i = 1 mod m_i and 0 mod the others.

    The residue matching r_i modulo every m_i is then sum(r_i * e_i) mod M.
    """
    if not moduli:
        raise ValueError("need at least one modulus")
    total = math.prod(moduli)
    basis = []
    for m in moduli:
        rest = total // m
        if math.gcd(m, rest) != 1:
            raise ValueError(f"modulus {m} is not coprime to the others in {list(moduli)}")
        basis.append(rest * pow(rest, -1, m) % total)
    return tuple(basis)


def crt_lift(residues: list[int], moduli: list[int]) -> int:
    """The unique residue modulo prod(moduli) matching every input residue."""
    if len(residues) != len(moduli):
        raise ValueError("residues and moduli must have equal length")
    return sum(r * e for r, e in zip(residues, crt_basis(moduli))) % math.prod(moduli)


@lru_cache(maxsize=None)
def _totient_with_factors(v: int) -> tuple[int, tuple[int, ...]]:
    phi = 1
    for p, e in factorint(v).items():
        phi *= (p - 1) * p ** (e - 1)
    return phi, tuple(factorint(phi))


def mult_order(x: int, v: int) -> int:
    """Least t > 0 with x**t == 1 (mod v)."""
    x %= v
    if math.gcd(x, v) != 1:
        raise ValueError(f"{x} is not a unit modulo {v}")
    phi, phi_primes = _totient_with_factors(v)
    t = phi
    for q in phi_primes:
        while t % q == 0 and pow(x, t // q, v) == 1:
            t //= q
    return t


def generates_mod_pm_one(x: int, v: int) -> bool:
    """True iff x together with -1 generates the full unit group of Z_v."""
    if v % 2 == 0:
        raise ValueError("modulus must be odd")
    x %= v
    if math.gcd(x, v) != 1:
        raise ValueError(f"{x} is not a unit modulo {v}")
    t = mult_order(x, v)
    minus_one_in_x = t % 2 == 0 and pow(x, t // 2, v) == v - 1
    size = t if minus_one_in_x else 2 * t
    return size == _totient_with_factors(v)[0]

