"""Optical orthogonal codes built from pair sets.

A (n, k, 1) code is a set of k-subsets of Z_n whose internal differences are
globally distinct.  The builders place a pair set into the second coordinate
of Z_m x Z_v (m in {3, 5, 45}) and read the result back through the ring
isomorphism with Z_{mv}; the first coordinates follow fixed block patterns
whose own differences tile Z_m four times over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .construct import silver_pps_p2, silver_witness, union_pps_pq
from .core import (BudgetExceededError, PairSet, SetKind, _fold, _leave, _repeated, _trusted,
                   infer_params, json_field)
from .modarith import crt_basis


@dataclass(frozen=True)
class OOCode:
    """A (n, k, 1) code: codewords are sorted tuples of k distinct entries of range(n)."""

    n: int
    k: int
    codewords: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("code length must be positive")
        if self.k < 2:
            raise ValueError(f"codeword weight must be at least 2, got {self.k}")
        norm = []
        for cw in self.codewords:
            entries = tuple(sorted(x % self.n for x in cw))
            if len(entries) != self.k or len(set(entries)) != self.k:
                raise ValueError(f"codeword {tuple(cw)} is not a {self.k}-subset of Z_{self.n}")
            norm.append(entries)
        object.__setattr__(self, "codewords", tuple(norm))

    @cached_property
    def _report(self) -> "OOCReport":
        return _difference_report(self)

    def __len__(self) -> int:
        return len(self.codewords)

    def to_json(self) -> dict:
        return {"n": self.n, "k": self.k, "codewords": [list(c) for c in self.codewords]}

    @classmethod
    def from_json(cls, obj: dict) -> "OOCode":
        codewords = tuple(
            tuple(json_field(x, int, "codeword entry") for x in json_field(c, list, "codeword"))
            for c in json_field(obj.get("codewords"), list, "codewords"))
        return cls(json_field(obj.get("n"), int, "n"), json_field(obj.get("k"), int, "k"),
                   codewords)


@dataclass(frozen=True)
class OOCReport:
    differences_distinct: bool
    repeated: frozenset[int]
    leave: frozenset[int]
    is_maximum: bool

    def to_json(self) -> dict:
        return {
            "differences_distinct": self.differences_distinct,
            "repeated": sorted(self.repeated),
            "leave": sorted(self.leave),
            "is_maximum": self.is_maximum,
        }


def _difference_report(code: OOCode) -> OOCReport:
    """Residue marks a codeword at a time: each d = b - a, a < b in a codeword, marks d.

    The codewords are sorted k-tuples, so for k = 4 and k = 5 each one is
    unpacked once and its k(k-1)/2 upper differences are stored in one
    chained assignment; other weights, which no builder emits, mark them
    column pair by column pair over the transposed code.  N codewords give
    N*k(k-1)/2 upper differences.  The differences and their negatives are
    distinct exactly when the upper differences mark one +-class each, which
    ``core._fold`` decides (for even n it rules out n/2, its own negative);
    the leave is the classes left unhit.  A code with no codewords leaves
    all of Z_n.  For a failing code, ``core._repeated`` reads the repeated
    classes off the same marks, walking the upper differences again only
    when one of them repeats.
    """
    n, k = code.n, code.k
    marks = bytearray(n)
    if k == 4:
        for a, b, c, d in code.codewords:
            marks[b - a] = marks[c - a] = marks[d - a] = marks[c - b] = marks[d - b] = \
                marks[d - c] = 1
    elif k == 5:
        for a, b, c, d, e in code.codewords:
            marks[b - a] = marks[c - a] = marks[d - a] = marks[e - a] = marks[c - b] = \
                marks[d - b] = marks[e - b] = marks[d - c] = marks[e - c] = marks[e - d] = 1
    else:
        columns = list(zip(*code.codewords))
        for i, low in enumerate(columns):
            for high in columns[i + 1:]:
                for a, b in zip(low, high):
                    marks[b - a] = 1
    hits = len(code.codewords) * k * (k - 1) // 2
    once, classes = _fold(marks, hits)
    repeated = frozenset() if once else _repeated(
        marks, hits, (b - a for cw in code.codewords for i, a in enumerate(cw) for b in cw[i + 1:]))
    leave = _leave(classes, n)
    return OOCReport(not repeated, repeated, leave, len(leave) <= k * (k - 1))


def verify_ooc(code: OOCode) -> OOCReport:
    """Difference distinctness, the leave, and the maximum test |L| <= k(k-1).

    Reads the OOCode invariant (sorted codewords of distinct entries of range(n)),
    and computes the report once per code: later calls, is_maximal's included,
    return the stored one.
    """
    return code._report


def max_codeword_bound(n: int, k: int) -> int:
    """Largest possible codeword count: each codeword burns k(k-1) differences."""
    if k < 2:
        raise ValueError(f"codeword weight must be at least 2, got {k}")
    return (n - 1) // (k * (k - 1))


# Fixed first-coordinate block patterns.  Each is a (Z_m, k, 4) strong
# difference family, which is what lets the second coordinates absorb a pair
# set; SIGMA45 drives the 45v construction.
SIGMA3 = ((1, 1, -1, -1),)
SIGMA5 = ((0, 1, 1, -1, -1),)
SIGMA45 = ((0, 1, 1, -1, -1),) + ((0, 3, 7, 13, 30),) * 4 + ((0, 5, 14, 26, 34),) * 4
# First coordinates of the two codewords of Z_45 x {0} that close the leave of
# the 45v code down to five elements.
LEAVE45 = ((0, 1, 3, 29, 35), (0, 5, 20, 27, 41))


def _template(k: int) -> int:
    """m: the SIGMA3 (k = 4) or SIGMA5 (k = 5) block over Z_m carries each pair."""
    if k not in (4, 5):
        raise ValueError("k must be 4 or 5")
    return 3 if k == 4 else 5


def _pair_template_code(m: int, k: int, pairs, v: int) -> OOCode:
    """Codewords {(1,x),(1,-x),(-1,y),(-1,-y)} (plus (0,0) when k=5) over Z_{mv}.

    The pairs must come from a valid pair set: x, y, -x and -y are then
    distinct and nonzero modulo v, so each codeword has k distinct points.
    For 0 <= z < v the point (r, z) is z + v*((r - z)*v^-1 mod m), which
    depends on z only through z mod m.  So for r = +-1 two m-entry tables
    give both points of {(r, x), (r, -x)} from j = x mod m, with no
    reduction mod n: (r, x) = x + up[j] and (r, -x) = down[j] - x, where
    down[j] = v + v*((r - v + j)*v^-1 mod m) is the offset of v - x.  The
    points are put in order a pair at a time (one compare each) and the two
    ordered pairs are merged straight into the codeword, behind the (0, 0)
    point 0 when k = 5: two more compares when one pair lies below the
    other, three when they interleave.
    """
    n = m * v
    inv = pow(v, -1, m)
    # up[j] = v*((r - j)*inv mod m) and down[j] as above, for r = 1, then r = -1
    up1, down1, up2, down2 = ([w + v * ((r - w + s * j) * inv % m) for j in range(m)]
                              for r in (1, -1) for s, w in ((-1, 0), (1, v)))
    five = k == 5  # (0, 0) is 0, below every other point
    codewords = []
    for x, y in pairs:
        j = x % m
        a, b = x + up1[j], down1[j] - x
        if a > b:
            a, b = b, a
        j = y % m
        c, d = y + up2[j], down2[j] - y
        if c > d:
            c, d = d, c
        if a < c:
            if b < c:
                cw = (0, a, b, c, d) if five else (a, b, c, d)
            elif b < d:
                cw = (0, a, c, b, d) if five else (a, c, b, d)
            else:
                cw = (0, a, c, d, b) if five else (a, c, d, b)
        elif d < a:
            cw = (0, c, d, a, b) if five else (c, d, a, b)
        elif b < d:
            cw = (0, c, a, b, d) if five else (c, a, b, d)
        else:
            cw = (0, c, a, d, b) if five else (c, a, d, b)
        codewords.append(cw)
    return _trusted(OOCode, n=n, k=k, codewords=tuple(codewords))


def ooc_from_pairs(s: PairSet, k: int) -> OOCode:
    """Maximum (3v, 4, 1) or (5v, 5, 1) code from a valid PS or APS on Z_v.

    The leave is the multiples of v (size 3 or 5) for a PS input, or the
    9/15-element sets determined by the APS parameters.
    """
    m = _template(k)
    v = s.v
    if math.gcd(v, 2 * m) != 1:
        raise ValueError(f"gcd({v}, {2 * m}) must be 1")
    spec = infer_params(s)
    if spec is None or spec.kind is SetKind.PPS:
        raise ValueError("input must be a valid PS or APS")
    return _pair_template_code(m, k, s.pairs, v)


def ooc_45v_from_ps(s: PairSet) -> OOCode:
    """Maximum (45v, 5, 1) code from a PS(v) with gcd(v, 45) = 1.

    Nine codewords per pair follow the SIGMA45 block patterns in the first
    coordinate; two extra constant-second-coordinate codewords close the
    difference leave down to five elements.  Written through the CRT basis
    (e45, ev) of Z_45 x Z_v: the first coordinates of SIGMA45[0] and of the
    two repeated blocks become offsets b*e45 mod 45v once per call, and for
    each Z = z*ev, z in (x, -x, y, -y), a repeated block's codeword is the
    sorted (offset_t + t*Z) mod 45v, t = 0..4.  A LEAVE45 codeword is its
    block's sorted offsets.
    """
    v = s.v
    if v % 4 != 1 or math.gcd(v, 45) != 1:
        raise ValueError("need v = 1 (mod 4) with gcd(v, 45) = 1")
    spec = infer_params(s)
    if spec is None or spec.kind is not SetKind.PS:
        raise ValueError("input must be a valid PS")
    n = 45 * v
    e45, ev = crt_basis([45, v])
    (f0, f1, f2, f3, f4), (a0, a1, a2, a3, a4), (b0, b1, b2, b3, b4) = (
        [t * e45 % n for t in block] for block in SIGMA45[:2] + SIGMA45[5:6])
    codewords = []
    for x, y in s.pairs:
        xv, yv = x * ev, y * ev
        codewords.append(tuple(sorted((f0, (f1 + xv) % n, (f2 - xv) % n,
                                       (f3 + yv) % n, (f4 - yv) % n))))
        for z in (xv, -xv, yv, -yv):
            z2 = z + z
            z3 = z2 + z
            z4 = z3 + z
            codewords.append(tuple(sorted((a0, (a1 + z) % n, (a2 + z2) % n,
                                           (a3 + z3) % n, (a4 + z4) % n))))
            codewords.append(tuple(sorted((b0, (b1 + z) % n, (b2 + z2) % n,
                                           (b3 + z3) % n, (b4 + z4) % n))))
    codewords += [tuple(sorted(t * e45 % n for t in block)) for block in LEAVE45]
    return _trusted(OOCode, n=n, k=5, codewords=tuple(codewords))


def maximal_ooc_pq(p: int, q: int, sp: PairSet, sq: PairSet, k: int) -> OOCode:
    """Maximal (3pq, 4, 1) or (5pq, 5, 1) code, one codeword short of maximum.

    Feeds the glued coprime-residue pair set of Z_pq (cyclotomic tiling plus
    the two rescaled APS inputs) through the pair template.
    """
    m = _template(k)
    pairs, _ = union_pps_pq(p, q, sp, sq)
    return _pair_template_code(m, k, pairs.pairs, p * q)


def maximal_ooc_p2(p: int, k: int) -> OOCode:
    """Maximal (3p^2, 4, 1) or (5p^2, 5, 1) code from the prime-square chain.

    Requires a prime p = 7 (mod 8), checked first, and 1 + sqrt(2) to
    generate the units of Z_{p^2} up to sign; the known failures (e.g.
    p = 31) surface as a ValueError.  beta = theta - 1 is sqrt(2) mod p^2.
    """
    m = _template(k)
    beta = silver_witness(p, square=True).theta - 1
    pairs, _ = silver_pps_p2(p, 1, beta)
    return _pair_template_code(m, k, pairs.pairs, p * p)


# Most nodes the extendability search visits, a node being a candidate tried, so
# a refusal comes about 0.1 s into the search on a 2-vCPU x86_64 host.
MAXIMAL_SEARCH_NODES = 100_000


def is_maximal(code: OOCode) -> tuple[bool, tuple[int, ...] | None]:
    """Exact extendability test: can one more codeword fit inside the leave?

    A new codeword needs k(k-1) distinct differences drawn from the leave
    minus 0, so translate it to contain 0 and search cliques among the
    nonzero residues of the leave, in ascending order, depth first; a
    candidate takes its differences and their negatives from one set of
    free ones and gives them back when it is dropped.  Returns
    (False, witness) with the first extending codeword found, if any.
    Raises ValueError when the code's own differences repeat, since it is
    then no OOC to extend, and BudgetExceededError past MAXIMAL_SEARCH_NODES.
    """
    n, k = code.n, code.k
    report = verify_ooc(code)
    if not report.differences_distinct:
        raise ValueError(f"code differences repeat: {sorted(report.repeated)}")
    candidates = sorted(report.leave - {0})  # the leave holds each class with its negative
    if len(candidates) < k * (k - 1):
        return True, None
    # n/2 is its own negative, so no codeword can use it
    free = {d for d in candidates if d + d != n}
    nodes = 0

    def extend(start: int, chosen: list[int]):
        nonlocal nodes
        if len(chosen) == k:
            return tuple(chosen)
        for idx in range(start, len(candidates)):
            nodes += 1
            if nodes > MAXIMAL_SEARCH_NODES:
                raise BudgetExceededError(
                    f"extendability search passed {MAXIMAL_SEARCH_NODES} nodes")
            c = candidates[idx]
            taken = []
            for b in chosen:
                d = (c - b) % n
                if d not in free:
                    break
                free.remove(d)
                free.remove(n - d)
                taken.append(d)
            else:
                found = extend(idx + 1, chosen + [c])
                if found:
                    return found
            for d in taken:
                free.add(d)
                free.add(n - d)
        return None

    witness = extend(0, [0])
    return (witness is None), witness
