"""Pair-set data model, verifiers and necessary conditions.

A pair set over Z_v is a list of unordered pairs {x, y}.  Closing the pairs
under negation must tile Z_v minus an excluded set A1, and closing the sums
and differences {x+y, x-y} under negation must tile Z_v minus A2.  The
excluded sets are carried by :class:`PPSSpec`; the two classical shapes are
A1 = A2 = {0} ("PS") and A1 = {0, a, -a}, A2 = {0, b, -b} ("APS").
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass

from .modarith import crt_lift, factorint, mod_sqrt


class BudgetExceededError(RuntimeError):
    """A search ran out of its configured time or size budget."""


def json_field(value, kind: type, field: str):
    """A value read from JSON that must be of type ``kind`` (int excludes bool)."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"{field} must be of type {kind.__name__}, got {value!r}")
    return value


def _trusted(cls, **fields):
    """The frozen dataclass cls with fields as given, unchecked: for builders that made them."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _ordered(pairs) -> tuple[tuple[int, int], ...]:
    """Reduced pairs with the smaller residue first, as PairSet stores them."""
    return tuple((x, y) if x < y else (y, x) for x, y in pairs)


@dataclass(frozen=True)
class PairSet:
    """A modulus v and a tuple of unordered residue pairs.

    Pairs are stored reduced, with the smaller residue first.  A pair {x, y}
    with x == +-y is rejected outright: its closure under negation repeats an
    element, so no valid pair set can contain it.  So every stored pair has
    0 <= x < y < v and x + y != v; the verifiers rely on this.  Builders that
    emit such pairs themselves skip these checks through ``_trusted``.
    """

    v: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.v < 1:
            raise ValueError("modulus must be positive")
        norm = []
        for pair in self.pairs:
            x, y = pair[0] % self.v, pair[1] % self.v
            if x == y:
                raise ValueError(f"pair {tuple(pair)} has equal entries modulo {self.v}")
            if (x + y) % self.v == 0:
                raise ValueError(
                    f"pair {tuple(pair)} collapses under negation modulo {self.v}")
            norm.append((x, y) if x < y else (y, x))
        object.__setattr__(self, "pairs", tuple(norm))

    def __len__(self) -> int:
        return len(self.pairs)

    def to_json(self) -> dict:
        return {"v": self.v, "pairs": [list(p) for p in self.pairs]}

    @classmethod
    def from_json(cls, obj: dict) -> "PairSet":
        pairs = json_field(obj.get("pairs"), list, "pairs")
        for p in pairs:
            if len(json_field(p, list, "pair")) != 2:
                raise ValueError(f"pair must have two entries, got {p}")
        return cls(json_field(obj.get("v"), int, "v"), tuple(
            (json_field(x, int, "pair entry"), json_field(y, int, "pair entry"))
            for x, y in pairs))


class SetKind(enum.Enum):
    PS = "PS"
    APS = "APS"
    PPS = "PPS"


@dataclass(frozen=True)
class PPSSpec:
    """Target excluded sets (A1 for elements, A2 for sums/differences)."""

    v: int
    a1: frozenset[int]
    a2: frozenset[int]

    def __post_init__(self) -> None:
        if self.v < 1:
            raise ValueError(f"modulus must be positive, got {self.v}")
        a1 = frozenset(x % self.v for x in self.a1)
        a2 = frozenset(x % self.v for x in self.a2)
        object.__setattr__(self, "a1", a1)
        object.__setattr__(self, "a2", a2)
        if len(a1) != len(a2):
            raise ValueError("excluded sets must have equal size")
        for name, a in (("A1", a1), ("A2", a2)):
            if 0 not in a:
                raise ValueError(f"{name} must contain 0")
            if any((-x) % self.v not in a for x in a):
                raise ValueError(f"{name} must be closed under negation")
        if (self.v - len(a1)) % 4 != 0:
            raise ValueError(f"v - |A1| = {self.v - len(a1)} is not divisible by 4")

    @classmethod
    def ps(cls, v: int) -> "PPSSpec":
        return cls(v, frozenset({0}), frozenset({0}))

    @classmethod
    def aps(cls, v: int, alpha: int, beta: int) -> "PPSSpec":
        alpha %= v
        beta %= v
        if alpha == 0 or beta == 0:
            raise ValueError("alpha and beta must be nonzero")
        return cls(v, frozenset({0, alpha, v - alpha}), frozenset({0, beta, v - beta}))

    @property
    def pair_count(self) -> int:
        return (self.v - len(self.a1)) // 4

    @property
    def kind(self) -> SetKind:
        if self.a1 == {0} and self.a2 == {0}:
            return SetKind.PS
        if len(self.a1) == 3 and len(self.a2) == 3:
            return SetKind.APS
        return SetKind.PPS

    @property
    def alpha(self) -> int:
        """Canonical alpha for an APS-shaped spec (smaller of the two signs)."""
        if self.kind is not SetKind.APS:
            raise ValueError("alpha is only defined for APS-shaped specs")
        return min(self.a1 - {0})

    @property
    def beta(self) -> int:
        if self.kind is not SetKind.APS:
            raise ValueError("beta is only defined for APS-shaped specs")
        return min(self.a2 - {0})

    def to_json(self) -> dict:
        if self.kind is SetKind.PS:
            return {"type": "PS", "v": self.v}
        if self.kind is SetKind.APS:
            return {"type": "APS", "v": self.v, "alpha": self.alpha, "beta": self.beta}
        return {"v": self.v, "A1": sorted(self.a1), "A2": sorted(self.a2)}


@dataclass(frozen=True)
class VerifyReport:
    """Diagnostics from a pair-set verification.

    ``missing`` holds residues covered fewer times than required (once
    outside the excluded set), ``repeated`` holds residues covered more
    often than required, which includes any hit inside the excluded set.
    valid is equivalent to all four sets being empty.
    """

    valid: bool
    cover1_missing: frozenset[int]
    cover1_repeated: frozenset[int]
    cover2_missing: frozenset[int]
    cover2_repeated: frozenset[int]

    def to_json(self) -> dict:
        return {
            "valid": self.valid,
            "cover1_missing": sorted(self.cover1_missing),
            "cover1_repeated": sorted(self.cover1_repeated),
            "cover2_missing": sorted(self.cover2_missing),
            "cover2_repeated": sorted(self.cover2_repeated),
        }


def _residue_marks(s: PairSet) -> tuple[bytearray, bytearray]:
    """Per cover, one mark per +-class hit, on one side of the class.

    Cover 1 is marked at x and y, cover 2 at x + y and y - x; -x, -y and
    x - y are the other sides.  The invariant 0 <= x < y < v, x + y != v
    keeps every index in range and nonzero modulo v with no ``% v``: when
    x + y < v, the index x + y - v is negative and marks x + y.
    """
    v = s.v
    m1, m2 = bytearray(v), bytearray(v)
    for x, y in s.pairs:
        m1[x] = m1[y] = 1
        m2[x + y - v] = 1
        m2[y - x] = 1
    return m1, m2


def _fold(marks: bytearray, hits: int) -> tuple[bool, int]:
    """Residue marks over Z_v read by +-class: (one hit per class, the classes hit).

    The residues c and -c, 1 <= c <= v//2, become byte c - 1 of two ints.
    The ``hits`` marks went one to a class when no class is marked on both
    sides (for even v that rules out v/2, which is both) and the two ints
    hold ``hits`` marks between them.  A mark at 0, in neither int, leaves
    them at most hits - 1.  The classes hit are the OR of the two ints, in
    the layout :func:`_leave` reads.
    """
    h = len(marks) // 2
    up = int.from_bytes(marks[1:h + 1], "little")
    down = int.from_bytes(marks[len(marks) - h:], "big")
    return not up & down and up.bit_count() + down.bit_count() == hits, up | down


_VALID = VerifyReport(True, frozenset(), frozenset(), frozenset(), frozenset())


def verify_pps(s: PairSet, spec: PPSSpec) -> VerifyReport:
    """Check both cover conditions of s against spec, with full diagnostics.

    One pass of :func:`_residue_marks` and one :func:`_fold` per cover
    decide a valid set: each cover hits 2n distinct classes of two residues,
    no excluded residue (A1 and A2 are closed under negation, so a class
    outside them has neither side in them), and 4n = v - |A1|.  A failing
    set is diagnosed from the same marks: a cover misses the classes it
    leaves unhit, less the excluded residues, and repeats the classes it
    hits more than once (:func:`_repeated`) and every excluded residue whose
    class it hits.
    """
    v = spec.v
    if s.v != v:
        raise ValueError(f"pair set modulus {s.v} != spec modulus {v}")
    n = len(s.pairs)
    m1, m2 = _residue_marks(s)
    if (4 * n == v - len(spec.a1) and _fold(m1, 2 * n)[0] and _fold(m2, 2 * n)[0]
            and not any(m1[z] for z in spec.a1) and not any(m2[z] for z in spec.a2)):
        return _VALID
    sides = []
    for marks, excluded, strikes in (
            (m1, spec.a1, (z for pair in s.pairs for z in pair)),
            (m2, spec.a2, (z for x, y in s.pairs for z in (x + y - v, y - x)))):
        hit = marks[:1] + _fold(marks, 2 * n)[1].to_bytes(v // 2, "little")  # byte c: c is hit
        sides += (_classes(hit, v, 0) - excluded,
                  _repeated(marks, 2 * n, strikes) | {z for z in excluded if marks[z] or marks[-z]})
    return VerifyReport(not any(sides), *sides)


def _classes(marks: bytearray, v: int, mark: int) -> frozenset[int]:
    """The residues c and v - c of the classes c at which marks holds ``mark`` (0 or 1).

    ``marks.find`` steps from run to run: the loop grows with the runs, not the classes.
    """
    found, c = [], marks.find(mark)
    while c >= 0:
        e = marks.find(1 - mark, c)
        found += range(c, e if e >= 0 else len(marks))
        c = marks.find(mark, e) if e >= 0 else -1
    classes = frozenset(found)
    return classes | {v - c for c in classes if c}


def _leave(classes: int, v: int) -> frozenset[int]:
    """The residues of the classes that a fold's ``classes`` leaves unhit, 0 among them."""
    return _classes(b"\0" + classes.to_bytes(v // 2, "little"), v, 0)


def _repeated(marks: bytearray, hits: int, strikes) -> frozenset[int]:
    """The residues of the +-classes that ``hits`` strikes, stored as marks, hit more than once.

    A class is hit more than once when it is marked on both sides, when it is
    its own negative (0, and v/2 for even v) and marked, or when one residue
    was struck twice.  Only the last needs ``strikes``, an iterable of the
    strikes again (a residue or its value less v), each tested against fresh
    marks before it is stored; it is walked only when marks holds fewer marks
    than there were hits.
    """
    v = len(marks)
    h = v // 2
    both = int.from_bytes(marks[1:h + 1], "little") & int.from_bytes(marks[v - h:], "big")
    twice = marks[:1] + both.to_bytes(h, "little")  # byte c: class c is hit more than once
    if marks.count(1) < hits:
        seen = bytearray(v)
        for z in strikes:
            if seen[z]:
                z %= v
                twice[min(z, v - z)] = 1
            seen[z] = 1
    return _classes(twice, v, 1)


def infer_params(s: PairSet) -> PPSSpec | None:
    """Read the excluded sets off the two covers; None if either cover repeats.

    The tightest applicable label is available as ``.kind`` on the result.
    """
    v, n = s.v, len(s.pairs)
    m1, m2 = _residue_marks(s)
    once1, classes1 = _fold(m1, 2 * n)
    once2, classes2 = _fold(m2, 2 * n)
    if not (once1 and once2):
        return None
    return PPSSpec(v, _leave(classes1, v), _leave(classes2, v))


def square_sums_agree(spec: PPSSpec) -> bool:
    """The square-sum identity every valid pair set meets: S(A2) = 2 S(A1) mod v.

    S(A) is the sum of z^2 over Z_v minus A.  A pair {x, y} puts x^2 + y^2 twice
    into cover 1 and (x+y)^2 + (x-y)^2 = 2(x^2 + y^2) twice into cover 2.  Read
    from the closed form of the sum over Z_v, in O(|A1| + |A2|).
    """
    v = spec.v
    total = (v - 1) * v * (2 * v - 1) // 6  # the sum of z^2 over Z_v
    # S(A2) - 2 S(A1), with S(A) = total - (the sum of z^2 over A)
    return (2 * sum(z * z for z in spec.a1) - sum(z * z for z in spec.a2) - total) % v == 0


class NonexistenceCase(enum.Enum):
    """Why no APS (or PS) can exist at a given modulus."""

    EVEN_THREE_VALUATION = "even-three-valuation"
    NONRESIDUE_PRIMES_TIMES_THREE = "nonresidue-primes-times-three"
    NONRESIDUE_PRIMES = "nonresidue-primes"
    PS_RESIDUE_CLASS = "ps-residue-class"


def nonexistence_case(v: int) -> NonexistenceCase | None:
    """Match v against the arithmetic obstructions that rule out any APS/PS.

    For v = 3 (mod 4) the three cases are: an even power of 3 divides v
    exactly; v is 3 times a squarefree product of primes = +-3 (mod 8) with
    v = 15 (mod 36); or v itself is such a squarefree product with
    v = 7, 11 (mod 12).  In each, 2a^2 - b^2 can never meet the required
    value modulo v.  For v = 1 (mod 4) the only obstruction is the residue
    class v = 9 (mod 12), which rules out a PS.
    """
    if v % 2 == 0:
        raise ValueError("v must be odd")
    if v % 4 == 1:
        return NonexistenceCase.PS_RESIDUE_CLASS if v % 12 == 9 else None
    factors = factorint(v)
    e3 = factors.get(3, 0)
    rest = {p: e for p, e in factors.items() if p != 3}
    if v % 12 == 3 and e3 >= 2 and e3 % 2 == 0:
        return NonexistenceCase.EVEN_THREE_VALUATION
    squarefree_pm3 = all(e == 1 and p % 8 in (3, 5) for p, e in rest.items())
    if v % 36 == 15 and e3 == 1 and squarefree_pm3:
        return NonexistenceCase.NONRESIDUE_PRIMES_TIMES_THREE
    if v % 12 in (7, 11) and e3 == 0 and squarefree_pm3:
        return NonexistenceCase.NONRESIDUE_PRIMES
    return None


# admissible_params refuses to scan a larger modulus.
ADMISSIBLE_SCAN_LIMIT = 100_000


def admissible_params(v: int) -> list[tuple[int, int]]:
    """All nonzero (alpha, beta) whose APS spec meets the square-sum identity, by full scan.

    On an APS spec the identity reads 2 alpha^2 - beta^2 = v/3 (mod v) when
    v = 3 (mod 12), and 0 otherwise (see ``square_sums_agree``).
    """
    if v % 4 != 3:
        raise ValueError("v must be 3 modulo 4")
    if v > ADMISSIBLE_SCAN_LIMIT:
        raise BudgetExceededError(f"scan over Z_{v} exceeds limit {ADMISSIBLE_SCAN_LIMIT}")
    target = v // 3 if v % 12 == 3 else 0
    by_square: dict[int, list[int]] = {}
    for b in range(1, v):
        by_square.setdefault(b * b % v, []).append(b)
    out = []
    for a in range(1, v):
        need = (2 * a * a - target) % v
        for b in by_square.get(need, ()):
            out.append((a, b))
    return out


def admissible_witness(v: int) -> tuple[int, int] | None:
    """One nonzero (alpha, beta) that admissible_params would list, assembled by CRT.

    Works at any scale, unlike the full scan: the congruence is solved in
    one prime-power component (the smallest repeated prime factor, else the
    smallest prime with 2 a square, or the 3-part) and zero-filled elsewhere.
    Returns None exactly when an arithmetic obstruction rules every pair out.
    """
    if v % 4 != 3:
        raise ValueError("v must be 3 modulo 4")
    if nonexistence_case(v) is not None:
        return None
    factors = dict(sorted(factorint(v).items()))
    three_exp = factors.pop(3, 0)
    moduli = [p ** e for p, e in factors.items()]
    alpha = {m: 0 for m in moduli}
    beta = {m: 0 for m in moduli}

    def plant_nonzero() -> None:
        # solve 2a^2 = b^2 with a, b nonzero in one component coprime to 3; a part
        # with no repeated prime and none = +-1 (mod 8) is a nonexistence case
        for p, e in factors.items():
            if e > 1:
                alpha[p ** e] = beta[p ** e] = p ** (e - 1)
                return
        p = next(p for p in factors if p % 8 in (1, 7))
        alpha[p], beta[p] = 1, mod_sqrt(2, p)

    if three_exp == 0:
        plant_nonzero()
    else:
        # v = 3 (mod 12): hit v/3 = +-3^(d-1) in the 3-part, d odd
        m3 = 3 ** three_exp
        moduli.append(m3)
        root = 3 ** ((three_exp - 1) // 2)
        if (v // m3) % 3 == 1:
            alpha[m3] = beta[m3] = root
        elif three_exp > 1:
            alpha[m3] = 3 ** (three_exp - 1)
            beta[m3] = root
        else:
            alpha[m3] = 0
            beta[m3] = root
            plant_nonzero()
    return (crt_lift([alpha[m] for m in moduli], moduli),
            crt_lift([beta[m] for m in moduli], moduli))


def scale_set(s: PairSet, lam: int) -> PairSet:
    """Multiply every pair entry by the unit lam."""
    lam %= s.v
    if math.gcd(lam, s.v) != 1:
        raise ValueError(f"{lam} is not a unit modulo {s.v}")
    return _trusted(PairSet, v=s.v, pairs=_ordered(
        (x * lam % s.v, y * lam % s.v) for x, y in s.pairs))


DEADLINE_EVERY = 1024  # search nodes, group elements or twin classes between deadline checks


def check_deadline(deadline: float | None) -> None:
    """Raise BudgetExceededError once ``time.monotonic()`` has passed ``deadline``."""
    if deadline is not None and time.monotonic() > deadline:
        raise BudgetExceededError("search hit its deadline")


from .kramer_mesner import EXHAUSTIVE_MAX_V, exhaustive_search  # noqa: E402 (it imports core)
