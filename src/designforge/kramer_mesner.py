"""Search for pair sets with a prescribed multiplier group.

A subgroup H of the units of Z_v containing -1 acts on residues and on
unordered pairs by multiplication.  Picking whole pair orbits at once turns
the two cover conditions into an exact cover: one row per element orbit and
side, one option per twin class (the orbits of {x, y} and {x, -y}) that hits
no row twice.  Orbit weights are well defined because the element
multiplicity of an orbit multiset is constant along each element orbit.

:func:`orbits` builds a group's spec-free system in one walk over its twin
classes, and :func:`option_table` caches it.  :func:`km_search` and
:func:`exhaustive_search` (the sign group) both run :func:`solve_binary` on
:func:`build_system`: that table with the spec's excluded orbits taken out.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

from .core import (DEADLINE_EVERY, BudgetExceededError, PairSet, PPSSpec, check_deadline,
                   square_sums_agree, verify_pps)
from .modarith import crt_lift, factorint, mult_order


@dataclass(frozen=True)
class MultiplierGroup:
    """Multiplicative subgroup of the units of Z_v; must contain -1."""

    v: int
    generators: tuple[int, ...]
    elements: tuple[int, ...]

    @classmethod
    def generate(cls, v: int, generators: tuple[int, ...] | list[int], *,
                 deadline: float | None = None) -> "MultiplierGroup":
        """The group the generators span, checking the deadline every DEADLINE_EVERY elements."""
        gens = tuple(g % v for g in generators)
        for g in gens:
            if math.gcd(g, v) != 1:
                raise ValueError(f"generator {g} is not a unit modulo {v}")
        elements = {1 % v}
        frontier = [1 % v]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = x * g % v
                if y not in elements:
                    elements.add(y)
                    frontier.append(y)
                    if len(elements) % DEADLINE_EVERY == 0:
                        check_deadline(deadline)
        if (v - 1) % v not in elements:
            raise ValueError("multiplier group must contain -1")
        return cls(v, gens, tuple(sorted(elements)))

    def __len__(self) -> int:
        return len(self.elements)


def suggest_multiplier(v: int) -> int:
    """A unit whose powers give the product-of-primes multiplier group.

    For v = p*q (optionally times 3) with primes p < q and (p-1) | (q-1),
    combine the smallest elements of order p-1 in each prime component; the
    3-component, when present, is set to -1.  The result generates a group
    of order p-1 containing -1.  Other valid groups exist; this helper just
    fixes one deterministic choice.
    """
    factors = factorint(v)
    has3 = factors.pop(3, 0)
    if has3 > 1 or len(factors) != 2 or any(e != 1 for e in factors.values()):
        raise ValueError(f"no multiplier suggestion for v = {v}")
    p, q = sorted(factors)
    if (q - 1) % (p - 1) != 0:
        raise ValueError(f"{p}-1 must divide {q}-1")

    def smallest_of_order(t: int, modulus: int) -> int:
        for x in range(2, modulus):
            if math.gcd(x, modulus) == 1 and mult_order(x, modulus) == t:
                return x
        raise ValueError(f"no element of order {t} modulo {modulus}")

    residues = [smallest_of_order(p - 1, p), smallest_of_order(p - 1, q)]
    moduli = [p, q]
    if has3:
        if (p - 1) % 4 == 0:
            raise ValueError("(p-1)/2 must be odd for the 3-component trick")
        residues.append(2)  # -1 mod 3
        moduli.append(3)
    return crt_lift(residues, moduli)


@dataclass(frozen=True)
class CoverSystem:
    """One group's exact-cover system, with the rows a spec requires and the options it allows.

    ``element_reps`` are the element-orbit representatives in ascending order
    (row i and n + i are orbit i's element and sum/difference rows), ``pairs``
    the least pairs of the kept twin classes, the options, and
    ``cover``/``clash``/``covered_by`` their exact-cover masks, ``clash[o]`` 0
    until a solve first selects o (one list for a table and its spec views).
    ``required`` is the mask of rows to cover and ``alive`` the options in play.
    """

    element_reps: tuple[int, ...]
    pairs: tuple[tuple[int, int], ...]
    cover: list[int]
    clash: list[int]
    covered_by: list[int]
    required: int
    alive: int

    @property
    def m(self) -> int:
        return len(self.pairs)


def _pair_marks_size(v: int) -> int:
    """The size of marks of the +-class pairs (c, d) of Z_v at c * (v//2 + 1) + d, if it fits."""
    size = (v // 2 + 1) ** 2
    try:
        return len(bytes(size))  # calloc'd and freed unwritten: the probe touches no page
    except (MemoryError, OverflowError):
        raise BudgetExceededError(f"the pair orbits of Z_{v} need {size} bytes") from None


def orbits(group: MultiplierGroup, *, deadline: float | None = None) -> CoverSystem:
    """The group's spec-free system: one option per twin class {x, +-y} that hits no row twice.

    The +-class pairs 1 <= c < d <= v//2 are walked in lexicographic order, and the orbit
    of each one still unmarked marks its twin class, so (c, d) is the least pair of that
    class.  An option is dropped if it hits a row twice, as no 0-1 row can take it, or the
    rows of an earlier option.  Pairs with 0 or y = -x hit a row twice and are never
    walked.  Every row is required and every option alive.  A modulus too large for the
    marks is refused before any O(v) work; the deadline is checked on entry, then every
    DEADLINE_EVERY twin classes.
    """
    check_deadline(deadline)
    v, els = group.v, group.elements
    marks, w = bytearray(_pair_marks_size(v)), v // 2 + 1
    # The row of each residue on either side when it is the least of its element orbit,
    # -1 otherwise; the weight at a representative is the weight of its whole orbit.
    u_row, reps = [-1] * v, []
    seen = bytearray(v)
    for x in range(v):
        if not seen[x]:
            u_row[x] = len(reps)
            reps.append(x)
            for h in els:
                seen[x * h % v] = 1
    n = len(reps)
    d_row = [-1 if row < 0 else n + row for row in u_row]
    options: dict[tuple[int, ...], tuple[int, int]] = {}  # rows hit -> least pair
    classes = 0
    for c in range(1, w):
        for d in range(c + 1, w):
            if marks[c * w + d]:
                continue
            classes += 1
            if classes % DEADLINE_EVERY == 0:
                check_deadline(deadline)
            orb = set()
            for h in els:
                x, y = c * h % v, d * h % v
                orb.add((x, y) if x < y else (y, x))
                x, y = (x if x + x < v else v - x), (y if y + y < v else v - y)
                marks[x * w + y if x < y else y * w + x] = 1
            # A selected orbit enters the final set through one member of each negation
            # class {B, -B}, B != -B, contributing +-{x, y} and +-{x+y, x-y}.  As -1 is in
            # the group, the orbit holds both B and -B, and each pair (x, y), x < y, adds
            # its half: x, y, x + y and the difference whose sign flips between B and -B.
            hits: list[int] = []
            for x, y in orb:
                s = x + y
                if s < v:
                    hits += (u_row[x], u_row[y], d_row[s], d_row[y - x])
                else:
                    hits += (u_row[x], u_row[y], d_row[s - v], d_row[v + x - y])
            hits.sort()
            rows = tuple(hits[hits.count(-1):])
            if len(set(rows)) == len(rows):
                options.setdefault(rows, (c, d))
    m = len(options)
    bitmaps = [bytearray(m // 8 + 1) for _ in range(2 * n)]  # per row, its options' bits
    cover = []
    for option, rows in enumerate(options):
        mask = 0
        for row in rows:
            mask |= 1 << row
            bitmaps[row][option >> 3] |= 1 << (option & 7)
        cover.append(mask)
    return CoverSystem(tuple(reps), tuple(options.values()), cover, [0] * m,
                       [int.from_bytes(bits, "little") for bits in bitmaps],
                       (1 << 2 * n) - 1, (1 << m) - 1)


def _check_excluded_sets(group: MultiplierGroup, spec: PPSSpec) -> None:
    """Raise ValueError unless spec is over the group's modulus and its excluded
    sets are unions of element orbits."""
    if group.v != spec.v:
        raise ValueError("group and spec moduli differ")
    v = group.v
    for name, a in (("A1", spec.a1), ("A2", spec.a2)):
        if any(z * h % v not in a for z in a for h in group.elements):
            raise ValueError(f"{name} is not a union of orbits of the group")


def _fewest_options(open_items: int, alive: int, covered_by: list[int]) -> int:
    """The highest open row with at most one alive option, else the open row with the fewest.

    Scanning down from the highest rows, the sum/difference rows, reaches such a forced or
    dead row sooner.  A forced row's one option lies in every completion of the node, and a
    dead row ends it, so taking either first leaves the branching nodes, and the first
    solution, as under the fewest-options rule alone.  Without one, the full scan breaks
    ties to the lowest row.
    """
    best = item = None
    while open_items:
        row = open_items.bit_length() - 1
        count = (alive & covered_by[row]).bit_count()
        if count <= 1:
            return row
        if best is None or count <= best:
            best, item = count, row
        open_items ^= 1 << row
    return item


def _forced_or_lowest(open_items: int, alive: int, covered_by: list[int]) -> int:
    """The highest open row with at most one alive option, as in :func:`_fewest_options`,
    else the lowest open row."""
    lowest = (open_items & -open_items).bit_length() - 1
    while open_items:
        row = open_items.bit_length() - 1
        if (alive & covered_by[row]).bit_count() <= 1:
            return row
        open_items ^= 1 << row
    return lowest


# The option-table cache holds at most this many bits of covered_by masks, rows x options
# a table (8 MiB); a larger table is built for the call that needs it and not kept.
OPTION_CACHE_BITS = 1 << 26

_TABLES: dict[tuple[int, tuple[int, ...]], CoverSystem] = {}  # by (v, elements), oldest first


def option_table(group: MultiplierGroup, *, deadline: float | None = None) -> CoverSystem:
    """The group's :func:`orbits` system, from the cache or built under the caller's deadline.

    A table of over OPTION_CACHE_BITS rows x options is not kept; otherwise the
    oldest tables are evicted until the total fits.  A build that overruns its
    deadline raises and stores nothing.
    """
    key = (group.v, group.elements)
    table = _TABLES.get(key)
    if table is None:
        table = orbits(group, deadline=deadline)
        if len(table.covered_by) * table.m <= OPTION_CACHE_BITS:
            _TABLES[key] = table
            while sum(len(t.covered_by) * t.m for t in _TABLES.values()) > OPTION_CACHE_BITS:
                del _TABLES[next(iter(_TABLES))]
    return table


def build_system(group: MultiplierGroup, spec: PPSSpec, *,
                 deadline: float | None = None) -> CoverSystem:
    """The group's :func:`option_table` with the spec's excluded orbits taken out.

    Both excluded sets must be unions of element orbits, otherwise no orbit
    selection can avoid them exactly.  The rows of an excluded orbit (read at
    its representative) are not required, and the options that hit them are
    cleared.  The deadline is checked before the table is read, and in a cold
    table's build.
    """
    _check_excluded_sets(group, spec)
    check_deadline(deadline)
    table = option_table(group, deadline=deadline)
    reps, covered_by = table.element_reps, table.covered_by
    n = len(reps)
    alive, required = table.alive, table.required
    for side, excluded in ((0, spec.a1), (n, spec.a2)):
        for z in excluded:
            row = bisect_left(reps, z)
            if row < n and reps[row] == z:
                alive &= ~covered_by[side + row]
                required &= ~(1 << side + row)
    return CoverSystem(reps, table.pairs, table.cover, table.clash, covered_by, required, alive)


def solve_binary(system: CoverSystem, branch=_fewest_options, *,
                 deadline: float | None = None) -> list[tuple[int, int]] | None:
    """Knuth's Algorithm X over int bitsets: the pairs of the first exact cover of the
    system's required rows, in the order they were chosen, or None.

    Option o covers the rows in ``cover[o]``; ``covered_by[r]`` holds the options
    covering row r.  Selecting o rules out ``clash[o]``: itself and every option
    sharing a row with it.  A 0 there is filled on o's first select, in the system's
    shared list, with the OR of its rows' ``covered_by``, so later selects and later
    solves reuse it.  A search state is (open required rows, alive options), so
    selecting is two AND-NOTs with no undo; rows not required are covered at most
    once.  The node branches on the row ``branch(open_rows, alive, covered_by)``
    picks, by default :func:`_fewest_options`, and tries its alive options in
    ascending order.  The deadline is checked on the first node, then every
    DEADLINE_EVERY nodes.
    """
    cover, clash, covered_by = system.cover, system.clash, system.covered_by
    open_rows, alive = system.required, system.alive
    stack: list[tuple[int, int, int, int]] = []  # (open, alive, untried, chosen) per level
    nodes = 0
    while open_rows:
        if nodes % DEADLINE_EVERY == 0:
            check_deadline(deadline)
        nodes += 1
        untried = alive & covered_by[branch(open_rows, alive, covered_by)]
        while not untried:
            if not stack:
                return None
            open_rows, alive, untried, _ = stack.pop()
        low = untried & -untried
        option = low.bit_length() - 1
        stack.append((open_rows, alive, untried ^ low, option))
        open_rows &= ~cover[option]
        mask = clash[option]
        if not mask:
            rows = cover[option]
            while rows:
                mask |= covered_by[(rows & -rows).bit_length() - 1]
                rows &= rows - 1
            clash[option] = mask
        alive &= ~mask
    return [system.pairs[frame[3]] for frame in stack]


def develop(initial: list[tuple[int, int]] | tuple, group: MultiplierGroup) -> PairSet:
    """Expand pair orbits and keep one representative per negation class.

    PairSet raises ValueError on a degenerate orbit (pairs {x, y} with x = +-y).
    """
    v = group.v
    expanded: set[tuple[int, int]] = set()
    for x, y in initial:
        for h in group.elements:
            a, b = x * h % v, y * h % v
            expanded.add((a, b) if a < b else (b, a))
    out = set()
    for pair in expanded:
        x, y = pair
        mirrored = tuple(sorted(((-x) % v, (-y) % v)))
        out.add(min(pair, mirrored))
    return PairSet(v, tuple(sorted(out)))


def km_search(v: int, generators: tuple[int, ...] | list[int], spec: PPSSpec, *,
              deadline: float | None = None) -> PairSet | None:
    """End-to-end orbit search: :func:`solve_binary` on :func:`build_system`, then develop, verify.

    A spec whose excluded sets are not unions of orbits raises ValueError; one
    that fails :func:`~designforge.core.square_sums_agree` then gets None with no
    table read.  The group's :func:`option_table` is built on its first search
    and read after that.  The deadline is checked on entry, while the group is
    generated, in a cold table's build and in the solve.
    """
    check_deadline(deadline)
    _pair_marks_size(v)  # a modulus too large for orbits is refused before its group
    group = MultiplierGroup.generate(v, generators, deadline=deadline)
    if not square_sums_agree(spec):
        _check_excluded_sets(group, spec)  # as build_system would, before the None
        return None
    chosen = solve_binary(build_system(group, spec, deadline=deadline), deadline=deadline)
    if chosen is None:
        return None
    result = develop(chosen, group)
    if not verify_pps(result, spec).valid:
        raise AssertionError("developed solution failed verification; solver bug")
    return result


EXHAUSTIVE_MAX_V = 40  # exhaustive_search refuses a larger modulus unless forced


def exhaustive_search(spec: PPSSpec, *, force: bool = False,
                      deadline: float | None = None) -> PairSet | None:
    """Backtracking oracle: the lexicographically first valid pair set, or None.

    :func:`solve_binary` on the sign group's :func:`build_system`, whose options are the
    class pairs (a, b), a < b, in lexicographic order, under :func:`_forced_or_lowest`.  A
    forced option lies in every completion of its node, and the lowest open row is the
    smallest uncovered element class (once none is left, every sum/difference class is
    covered too), so the chosen pairs, sorted, are the least set.  Unless forced, it first
    refuses every v > EXHAUSTIVE_MAX_V.  Then it checks the deadline, and a spec that fails
    :func:`~designforge.core.square_sums_agree` gets None before any group is made or table read.
    """
    v = spec.v
    if not force and v > EXHAUSTIVE_MAX_V:
        raise BudgetExceededError(
            f"search for {spec.pair_count} pairs over Z_{v} exceeds the default budget")
    check_deadline(deadline)
    if not square_sums_agree(spec):
        return None
    system = build_system(MultiplierGroup.generate(v, (-1,)), spec, deadline=deadline)
    chosen = solve_binary(system, _forced_or_lowest, deadline=deadline)
    return None if chosen is None else PairSet(v, tuple(sorted(chosen)))
