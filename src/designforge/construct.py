"""Direct and recursive pair-set constructions.

The direct family lives on primes p = 7 (mod 8): with r = sqrt(2) mod p the
element t = 1 + r satisfies t(t-1) = t+1, so consecutive powers of t chain
elements to sums/differences and a run of power pairs tiles the group.  The
recursive operations (inflate, fill, products, unions) assemble larger
moduli from verified smaller witnesses, and everything returns the pair set
together with the spec it claims, so callers can re-verify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (PairSet, PPSSpec, SetKind, _ordered, _trusted, infer_params, scale_set,
                   verify_pps)
from .modarith import crt_basis, generates_mod_pm_one, isprime, mod_sqrt


@dataclass(frozen=True)
class SilverWitness:
    """1 + sqrt(2) modulo p or p**2, with its unit-group generation status."""

    p: int
    modulus: int
    theta: int
    generates: bool


def silver_witness(p: int, *, square: bool = False) -> SilverWitness:
    if not isprime(p) or p % 8 != 7:
        raise ValueError(f"p must be a prime congruent to 7 modulo 8, got {p}")
    m = p * p if square else p
    root = mod_sqrt(2, m)
    assert root is not None  # 2 is a square for p = 7 (mod 8)
    theta = (1 + root) % m
    assert theta * (theta - 1) % m == (theta + 1) % m
    return SilverWitness(p, m, theta, generates_mod_pm_one(theta, m))


def _power_chain(theta: int, m: int, count: int, scale: int) -> list[tuple[int, int]]:
    """Pairs {scale*theta^(2i-1), scale*theta^(2i)} for i = 1..count, smaller first."""
    pairs = []
    x = scale
    for _ in range(count):
        a = x * theta % m
        x = a * theta % m
        pairs.append((a, x) if a < x else (x, a))
    return pairs


def silver_aps(p: int) -> tuple[PairSet, PPSSpec]:
    """APS(p, 1, theta-1) from the power chain of theta = 1 + sqrt(2)."""
    w = silver_witness(p)
    if not w.generates:
        raise ValueError(
            f"1 + sqrt(2) does not generate the units of Z_{p} up to sign")
    pairs = _power_chain(w.theta, p, (p - 3) // 4, 1)
    return _trusted(PairSet, v=p, pairs=tuple(pairs)), PPSSpec.aps(p, 1, w.theta - 1)


def aps_with_params(p: int, alpha: int, beta: int) -> tuple[PairSet, PPSSpec]:
    """APS(p, alpha, beta) for any admissible target: the silver APS scaled by alpha.

    Requires 2*alpha**2 == beta**2 (mod p).  Scaling APS(p, 1, sqrt(2)) by
    alpha excludes {0, +-alpha} and {0, +-alpha*sqrt(2)} = {0, +-beta}.
    """
    alpha %= p
    beta %= p
    if alpha == 0 or beta == 0:
        raise ValueError("alpha and beta must be nonzero")
    if (2 * alpha * alpha - beta * beta) % p != 0:
        raise ValueError(
            f"2*{alpha}^2 - {beta}^2 is not 0 modulo {p}; no such APS exists")
    return scale_set(silver_aps(p)[0], alpha), PPSSpec.aps(p, alpha, beta)


def _checked_spec(s: PairSet, spec: PPSSpec | None, name: str) -> PPSSpec:
    """spec once s is verified against it, or s's inferred spec when none is given."""
    if spec is None:
        spec = infer_params(s)
        if spec is None:
            raise ValueError(f"{name} is not a valid partial pair set")
    elif not verify_pps(s, spec).valid:
        raise ValueError(f"{name} fails its stated spec")
    return spec


def fill(outer: PairSet, inner: PairSet, d: int) -> tuple[PairSet, PPSSpec]:
    """Replace the subgroup hole of outer by an embedded copy of inner.

    outer must cover Z_v minus the subgroup H of multiples of d, on both
    sides; inner lives on Z_h with h = v/d and is embedded via x -> d*x.
    Raises ValueError unless all this holds and inner is a valid partial pair set.
    """
    v = outer.v
    if d < 1:
        raise ValueError(f"d = {d} must be positive")
    if v % d != 0:
        raise ValueError(f"{d} does not divide {v}")
    if inner.v != v // d:
        raise ValueError(f"inner modulus {inner.v} != {v}/{d}")
    subgroup = frozenset(range(0, v, d))
    if not verify_pps(outer, PPSSpec(v, subgroup, subgroup)).valid:
        raise ValueError("outer pair set does not cover the complement of the subgroup")
    return _embed(outer, inner, d, _checked_spec(inner, None, "inner pair set"))


def _embed(outer: PairSet, inner: PairSet, d: int,
           inner_spec: PPSSpec) -> tuple[PairSet, PPSSpec]:
    """fill without its checks, for callers that built or verified both sets."""
    v = outer.v
    # inner's pairs have x < y < v/d, so d*x < d*y < v: reduced and in order
    pairs = outer.pairs + tuple((d * x, d * y) for x, y in inner.pairs)
    spec = PPSSpec(
        v,
        frozenset(d * a % v for a in inner_spec.a1),
        frozenset(d * a % v for a in inner_spec.a2),
    )
    return _trusted(PairSet, v=v, pairs=pairs), spec


def inflate(
    s: PairSet,
    u: int,
    *,
    spec: PPSSpec | None = None,
) -> tuple[PairSet, PPSSpec]:
    """Stretch a pair set on Z_v to Z_{vu} by the {x + sv, y + 2sv} family.

    Needs gcd(u, 6) = 1 so that the shifts s, 2s and 3s each run over all of
    Z_u, and s to meet spec (inferred if None); raises ValueError otherwise.
    The excluded sets lift to all of their preimages modulo v.
    """
    if math.gcd(u, 6) != 1:
        raise ValueError(f"u = {u} must be coprime to 6")
    spec = _checked_spec(s, spec, "input pair set")
    v, n = s.v, s.v * u
    pairs = _ordered(
        ((x + k * v) % n, (y + 2 * k * v) % n) for x, y in s.pairs for k in range(u))
    lifted = PPSSpec(
        n,
        frozenset(a + v * k for a in spec.a1 for k in range(u)),
        frozenset(a + v * k for a in spec.a2 for k in range(u)),
    )
    return _trusted(PairSet, v=n, pairs=pairs), lifted


def compose_ps_aps(sv: PairSet, su: PairSet) -> tuple[PairSet, PPSSpec]:
    """PS(v) x APS(u, a, b) -> APS(vu, va, vb) for u = 7, 11 (mod 12)."""
    u = su.v
    if u % 12 not in (7, 11):
        raise ValueError(f"u = {u} must be 7 or 11 modulo 12")
    su_spec = infer_params(su)
    if su_spec is None or su_spec.kind is not SetKind.APS:
        raise ValueError("second argument is not a valid APS")
    outer, _ = inflate(sv, u, spec=PPSSpec.ps(sv.v))
    return _embed(outer, su, sv.v, su_spec)


def ps_product(su: PairSet, sv: PairSet) -> tuple[PairSet, PPSSpec]:
    """PS(u) x PS(v) -> PS(uv) for u, v = 1 (mod 4)."""
    u, v = su.v, sv.v
    if u % 4 != 1 or v % 4 != 1:
        raise ValueError("both moduli must be 1 modulo 4")
    if not verify_pps(su, PPSSpec.ps(u)).valid:
        raise ValueError(f"input over Z_{u} is not a valid PS")
    outer, _ = inflate(sv, u, spec=PPSSpec.ps(v))
    return _embed(outer, su, v, PPSSpec.ps(u))


def _nonzero_squares(p: int) -> set[int]:
    return {x * x % p for x in range(1, p)}


def cyclotomic_witnesses(p: int, q: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Witness pairs (x1, y1) mod p and (x2, y2) mod q for the two-prime tiling.

    Each is the lexicographically first (x, y) whose x, y, x+y and x-y fall
    in a pattern of square classes: square, square, square, square mod p;
    square, nonsquare, square, nonsquare mod q (zero is in neither class).
    Above the class-pattern bound 45.86 (two classes, three conditions)
    existence is guaranteed; the handful of smaller primes all have
    witnesses too (pinned in the catalog).
    """
    found = []
    for m, pattern in ((p, (1, 1, 1, 1)), (q, (1, -1, 1, -1))):
        squares = _nonzero_squares(m)
        cls = [0] + [1 if z in squares else -1 for z in range(1, m)]
        found.append(next(((x, y) for x in range(1, m) for y in range(1, m)
                           if (cls[x], cls[y], cls[(x + y) % m], cls[(x - y) % m]) == pattern),
                          None))
    if None in found:
        raise ValueError(f"no cyclotomic witnesses exist for ({p}, {q})")
    return tuple(found)


def cyclotomic_pps(p: int, q: int) -> tuple[PairSet, PPSSpec]:
    """Pair set on Z_pq covering exactly the residues coprime to pq.

    Both excluded sets are the union of the multiples of p and of q.  The
    pairs are the CRT lifts (x1*s1*ep + x2*s2*eq, y1*s1*ep + y2*s2*eq) mod pq
    over the nonzero squares s1 mod p and then s2 mod q, both ascending.  The
    p-side terms (one per s1) and the q-side terms (one per s2) are reduced
    mod pq once each, so each coordinate of a pair is one addition and one
    reduction.
    """
    if not (isprime(p) and isprime(q)) or p % 4 != 3 or q % 4 != 3 or not p > q > 3:
        raise ValueError("need primes p > q > 3 with p, q = 3 modulo 4")
    (x1, y1), (x2, y2) = cyclotomic_witnesses(p, q)
    n = p * q
    ep, eq = crt_basis([p, q])
    p_terms = [(x1 * s1 * ep % n, y1 * s1 * ep % n) for s1 in sorted(_nonzero_squares(p))]
    q_terms = [(x2 * s2 * eq % n, y2 * s2 * eq % n) for s2 in sorted(_nonzero_squares(q))]
    # smaller first, as PairSet stores them
    pairs = tuple([(x, y) if (x := (a + c) % n) < (y := (b + d) % n) else (y, x)
                   for a, b in p_terms for c, d in q_terms])
    # Reduced and closed under negation, as PPSSpec checks; inserted afresh from
    # the union, as PPSSpec stores it, so that the set iterates (and prints) alike.
    excluded = frozenset(iter(frozenset(range(0, n, p)) | frozenset(range(0, n, q))))
    return (_trusted(PairSet, v=n, pairs=pairs),
            _trusted(PPSSpec, v=n, a1=excluded, a2=excluded))


def union_pps_pq(
    p: int,
    q: int,
    sp: PairSet,
    sq: PairSet,
) -> tuple[PairSet, PPSSpec]:
    """Glue APS(p) and APS(q) into the coprime-residue tiling of Z_pq.

    The result excludes {0, +-q*a1, +-p*a2} on the element side and
    {0, +-q*b1, +-p*b2} on the sum/difference side, where (a1, b1) and
    (a2, b2) are the parameters of the two inputs.
    """
    if sp.v != p or sq.v != q:
        raise ValueError("pair-set moduli must match p and q")
    sp_spec = infer_params(sp)
    sq_spec = infer_params(sq)
    for spec, v in ((sp_spec, p), (sq_spec, q)):
        if spec is None or spec.kind is not SetKind.APS:
            raise ValueError(f"input over Z_{v} is not a valid APS")
    base, _ = cyclotomic_pps(p, q)
    n = p * q
    # x < y < p gives q*x < q*y < n, and likewise for sq's pairs scaled by p
    pairs = base.pairs + tuple((q * x, q * y) for x, y in sp.pairs) + tuple(
        (p * x, p * y) for x, y in sq.pairs)
    a1 = frozenset(q * a % n for a in sp_spec.a1) | frozenset(p * a % n for a in sq_spec.a1)
    a2 = frozenset(q * a % n for a in sp_spec.a2) | frozenset(p * a % n for a in sq_spec.a2)
    return _trusted(PairSet, v=n, pairs=pairs), PPSSpec(n, a1, a2)


def silver_pps_p2(p: int, alpha: int, beta: int) -> tuple[PairSet, PPSSpec]:
    """Pair set on Z_{p^2} excluding {0, +-alpha, +-p*alpha} / the beta analogue.

    Two power chains of theta = 1 + sqrt(2) mod p**2 are glued: one through
    the units, one through p times the units, both started at alpha.
    Requires 2*alpha**2 == beta**2 (mod p**2) and that theta generates the
    units of Z_{p^2} up to sign (which fails for some p, e.g. 31).
    """
    w = silver_witness(p, square=True)
    m = w.modulus
    alpha %= m
    beta %= m
    if math.gcd(alpha, p) != 1:
        raise ValueError("alpha must be a unit modulo p")
    if (2 * alpha * alpha - beta * beta) % m != 0:
        raise ValueError(f"2*{alpha}^2 - {beta}^2 is not 0 modulo {m}; no such set exists")
    if not w.generates:
        raise ValueError(
            f"1 + sqrt(2) does not generate the units of Z_{p}^2 up to sign")
    unit_chain = _power_chain(w.theta, m, (m - p - 2) // 4, alpha)
    sub_chain = _ordered((p * x % m, p * y % m)
                         for x, y in _power_chain(w.theta, m, (p - 3) // 4, alpha))
    spec = PPSSpec(
        m,
        frozenset({0, alpha, -alpha % m, p * alpha % m, -p * alpha % m}),
        frozenset({0, beta, -beta % m, p * beta % m, -p * beta % m}),
    )
    return _trusted(PairSet, v=m, pairs=tuple(unit_chain) + sub_chain), spec
