from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
import textwrap
import time
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from designforge import kramer_mesner
from designforge.catalog import APS651_INITIAL_PAIRS, PS133_INITIAL_PAIRS, get
from designforge.core import (
    BudgetExceededError,
    PairSet,
    PPSSpec,
    aps_necessary,
    exhaustive_search,
    square_sums_agree,
    verify_pps,
)
from designforge.kramer_mesner import (
    CoverSystem,
    MultiplierGroup,
    build_system,
    develop,
    km_search,
    orbits,
    solve_binary,
    suggest_multiplier,
)


def test_multiplier_group_generation():
    g = MultiplierGroup.generate(133, [122])
    assert g.elements == (1, 11, 12, 121, 122, 132)
    with pytest.raises(ValueError):
        MultiplierGroup.generate(7, [1])  # -1 missing
    with pytest.raises(ValueError):
        MultiplierGroup.generate(9, [3])  # not a unit


def test_suggest_multiplier():
    assert suggest_multiplier(133) == 122  # smallest order-6 picks 3 mod 7, 8 mod 19
    xi = suggest_multiplier(651)
    g = MultiplierGroup.generate(651, [xi])
    assert len(g) == 6 and 650 in g.elements
    with pytest.raises(ValueError):
        suggest_multiplier(35)  # 4 does not divide 6
    with pytest.raises(ValueError):
        suggest_multiplier(49)


def test_orbits_small():
    g = MultiplierGroup.generate(5, [4])
    assert _element_orbits(g) == ((0,), (1, 4), (2, 3))
    assert _twin_class_orbits(g) == [((1, 2), (3, 4))]  # one twin class of the 6 pair orbits
    table = orbits(g)
    assert (table.element_reps, table.pairs) == ((0, 1, 2), ((1, 2),))


def test_orbits_133():
    g = MultiplierGroup.generate(133, [122])
    sizes = sorted(len(o) for o in _element_orbits(g))
    assert sizes == [1] + [6] * 22
    assert len(orbits(g).element_reps) == 23


def test_weight_well_definedness_random_groups():
    rng = random.Random(42)
    for _ in range(20):
        v = rng.choice([u for u in range(7, 120, 2)])
        units = [x for x in range(2, v - 1) if _coprime(x, v)]
        g = MultiplierGroup.generate(v, [v - 1] + ([rng.choice(units)] if units else []))
        element_orbits, every = _element_orbits(g), _all_pair_orbits(g)
        for col in rng.sample(range(len(every)), min(12, len(every))):
            u_counts, d_counts = _class_multisets(v, every[col])
            for orbit in element_orbits:
                u_vals = {u_counts.get(z, 0) for z in orbit}
                d_vals = {d_counts.get(z, 0) for z in orbit}
                assert len(u_vals) == 1 and len(d_vals) == 1, (v, g.generators, col)


def _coprime(a, b):
    while b:
        a, b = b, a % b
    return a == 1


def _class_multisets(v, orbit):
    u_counts: dict[int, int] = {}
    d_counts: dict[int, int] = {}
    done = set()
    for x, y in orbit:
        if (x, y) in done:
            continue
        done.add((x, y))
        done.add(tuple(sorted(((-x) % v, (-y) % v))))
        for z in (x, y, (-x) % v, (-y) % v):
            u_counts[z] = u_counts.get(z, 0) + 1
        s, d = (x + y) % v, (x - y) % v
        for z in (s, d, (-s) % v, (-d) % v):
            d_counts[z] = d_counts.get(z, 0) + 1
    return u_counts, d_counts


def _element_orbits(group):
    """Every element orbit of the group, ascending, in ascending order of their least
    elements."""
    v, seen, out = group.v, set(), []
    for x in range(v):
        if x not in seen:
            orbit = sorted({x * h % v for h in group.elements})
            seen.update(orbit)
            out.append(tuple(orbit))
    return tuple(out)


def _element_reps(group):
    return tuple(orbit[0] for orbit in _element_orbits(group))


def _all_pair_orbits(group):
    """Every pair orbit of the group, pairs with 0 and self-negating pairs included, in
    ascending order of their least pairs: twins kept apart."""
    v, seen, out = group.v, set(), []
    for x in range(v):
        for y in range(x + 1, v):
            if (x, y) not in seen:
                orbit = sorted({tuple(sorted((x * h % v, y * h % v))) for h in group.elements})
                seen.update(orbit)
                out.append(tuple(orbit))
    return out


def _twin_class_orbits(group):
    """Per twin class {x, +-y}, 1 <= x < y <= v//2, the first of its two orbits among
    _all_pair_orbits; orbits with 0 or y = -x, which hit a row twice, are left out."""
    v, seen, out = group.v, set(), []
    for orbit in _all_pair_orbits(group):
        classes = frozenset(tuple(sorted((min(x, v - x), min(y, v - y)))) for x, y in orbit)
        if all(0 < c < d for c, d in classes) and classes not in seen:
            seen.add(classes)
            out.append(orbit)
    return out


def _reference_columns(v, element_reps, pair_orbits):
    """Per pair orbit, the rows it hits, ascending, a row once per hit.

    Each pair (x, y) of a self-negating orbit adds its whole negation class, x, y, -x, -y
    and x + y, x - y, -x - y, y - x; a pair of any other orbit adds its half, x, y, x + y
    and the difference whose sign flips between it and its negative.  Only residues that
    represent their element orbit are tallied.
    """
    n = len(element_reps)
    row = {rep: i for i, rep in enumerate(element_reps)}
    columns = []
    for orbit in pair_orbits:
        x, y = orbit[0]
        self_negating = sorted(((-x) % v, (-y) % v)) == [x, y]
        hits = []
        for x, y in orbit:
            if self_negating:
                elements, sums = (x, y, -x, -y), (x + y, x - y, -x - y, y - x)
            else:
                elements, sums = (x, y), (x + y, y - x if x + y < v else x - y)
            hits += [row[z % v] for z in elements if z % v in row]
            hits += [n + row[z % v] for z in sums if z % v in row]
        columns.append(tuple(sorted(hits)))
    return columns


def _j(spec, element_reps):
    """Per row, 1 if it must be covered: its orbit lies outside the side's excluded set."""
    return [int(rep not in a) for a in (spec.a1, spec.a2) for rep in element_reps]


def _exact_cover_of(columns, j):
    """The columns of the first 0-1 solution of M X = J, M stored by column, or None.

    Every column that hits no row twice and no J = 0 row is an option, twins kept
    apart; the branching is solve_binary's default.
    """
    kept = [col for col, rows in enumerate(columns)
            if len(set(rows)) == len(rows) and all(j[i] for i in rows)]
    cover, _, covered_by = _eager_option_masks([columns[col] for col in kept], len(j))
    required = sum(ji << i for i, ji in enumerate(j))
    chosen = solve_binary(_indexed_system(cover, [0] * len(kept), covered_by, required,
                                          (1 << len(kept)) - 1))
    return None if chosen is None else [kept[option] for option in chosen]


def _reference_search(group, spec):
    """The orbit search over every pair orbit's test-built column, with no twin merging and
    no cache: the chosen pair-orbit representatives, or None."""
    reps, every = _element_reps(group), _all_pair_orbits(group)
    chosen = _exact_cover_of(_reference_columns(group.v, reps, every), _j(spec, reps))
    return None if chosen is None else [every[col][0] for col in chosen]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_columns_tally_each_orbit_representative(data):
    """columns[c].count(i) is pair orbit c's class-multiset weight at row i's representative,
    for every pair orbit's reference column, and each option orbits keeps covers the rows of
    its pair's reference column."""
    v = data.draw(st.integers(3, 70).filter(lambda u: u % 4), label="v")
    units = [x for x in range(2, v - 1) if _coprime(x, v)]
    extra = data.draw(st.lists(st.sampled_from(units), max_size=2), label="extra") if units else []
    g = MultiplierGroup.generate(v, [v - 1] + extra)
    reps, every = _element_reps(g), _all_pair_orbits(g)
    columns = _reference_columns(v, reps, every)
    table = orbits(g)
    by_least = dict(zip((orbit[0] for orbit in every), columns))
    assert table.element_reps == reps
    assert [_rows_of(mask) for mask in table.cover] == [by_least[pair] for pair in table.pairs]
    n = len(reps)
    for col, orbit in enumerate(every):
        u_counts, d_counts = _class_multisets(v, orbit)
        assert list(columns[col]) == sorted(columns[col])
        assert all(0 <= row < 2 * n for row in columns[col])
        for i, rep in enumerate(reps):
            assert columns[col].count(i) == u_counts.get(rep, 0), (v, g.generators, col)
            assert columns[col].count(n + i) == d_counts.get(rep, 0), (v, g.generators, col)


def test_build_system_v5():
    g = MultiplierGroup.generate(5, [4])
    assert tuple(o[0] for o in _all_pair_orbits(g)) == (
        (0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (2, 3))
    assert orbits(g).pairs == ((1, 2),)
    system = build_system(g, PPSSpec.ps(5))
    assert system.required == 0b110110  # J = (0, 1, 1, 0, 1, 1), row 0 the lowest bit
    assert system.element_reps == (0, 1, 2)
    assert (system.m, system.pairs, system.alive) == (1, ((1, 2),), 1)


def test_build_system_27():
    g = MultiplierGroup.generate(27, [26])
    system = build_system(g, PPSSpec.aps(27, 3, 6))
    reps = orbits(g).element_reps
    n = len(reps)
    assert system.element_reps == reps
    for i, rep in enumerate(reps):
        assert (system.required >> i & 1) == (0 if rep in (0, 3) else 1)
        assert (system.required >> n + i & 1) == (0 if rep in (0, 6) else 1)
    assert system.required < 1 << 2 * n
    # an option is alive exactly when it covers only required rows
    for option, rows in enumerate(system.cover):
        assert (system.alive >> option & 1) == (rows & ~system.required == 0), option
    assert system.alive.bit_count() < system.m == 78


def test_build_system_orbit_closure_checks():
    g = MultiplierGroup.generate(133, [122])
    excluded = frozenset({0, 1, 2, 131, 132})  # the orbit of 1 is not inside it
    with pytest.raises(ValueError, match="not a union of orbits"):
        build_system(g, PPSSpec(133, excluded, excluded))
    # the order-6 group over 651 fixes {0, 217, 434} setwise: every element
    # of <68> is +-1 modulo 3, so the excluded sets are orbit closed
    g651 = MultiplierGroup.generate(651, [68])
    orbit_of_217 = sorted(217 * h % 651 for h in g651.elements)
    assert set(orbit_of_217) == {217, 434}


def test_build_system_orbit_closure_check_matches_its_definition():
    """build_system refuses {0, z, -z} exactly when it is not a union of element orbits."""
    for v in range(3, 64, 4):
        groups = {group.elements: group for group in (MultiplierGroup.generate(v, [v - 1, g])
                                                      for g in range(1, v) if _coprime(g, v))}
        for group in groups.values():
            element_orbits = _element_orbits(group)
            for z in range(1, v):
                excluded = frozenset({0, z, v - z})
                is_union = all(excluded.issuperset(orbit) or excluded.isdisjoint(orbit)
                               for orbit in element_orbits)
                spec = PPSSpec(v, excluded, excluded)
                if is_union:
                    build_system(group, spec)
                else:
                    with pytest.raises(ValueError, match="not a union of orbits"):
                        build_system(group, spec)


def test_solve_binary_v5():
    g = MultiplierGroup.generate(5, [4])
    spec = PPSSpec.ps(5)
    assert solve_binary(build_system(g, spec)) == [(1, 2)]  # no 0-containing orbit
    reps, every = _element_reps(g), _all_pair_orbits(g)
    columns = _reference_columns(5, reps, every)
    chosen = [col for col, orbit in enumerate(every) if (1, 2) in orbit]
    for i, ji in enumerate(_j(spec, reps)):
        assert sum(columns[c].count(i) for c in chosen) == ji


def test_solve_binary_infeasible_row():
    cover, _, covered_by = _eager_option_masks([(0,), ()], 2)  # row 1 required, uncoverable
    assert solve_binary(_indexed_system(cover, [0, 0], covered_by, 0b11, 0b11)) is None
    assert _exact_cover_of([(0,), ()], [1, 1]) is None


def test_solve_binary_matches_bruteforce_on_random_systems():
    """Pruning plus exact cover agrees with naive subset enumeration."""
    rng = random.Random(99)
    for trial in range(60):
        rows = rng.randint(2, 6)
        cols = rng.randint(2, 10)
        matrix = tuple(tuple(rng.choice([0, 0, 0, 1, 1, 2]) for _ in range(cols))
                       for _ in range(2 * rows))
        j = tuple(rng.choice([0, 1]) for _ in range(2 * rows))
        columns = tuple(tuple(i for i in range(2 * rows) for _ in range(matrix[i][c]))
                        for c in range(cols))  # weight 2 is a repeated row
        chosen = _exact_cover_of(columns, j)
        got = None if chosen is None else tuple(int(c in chosen) for c in range(cols))
        solutions = []
        for selection in itertools.product([0, 1], repeat=cols):
            if all(sum(matrix[i][c] * selection[c] for c in range(cols)) == j[i]
                   for i in range(2 * rows)):
                solutions.append(selection)
        if got is None:
            assert not solutions, (trial, solutions)
        else:
            assert got in solutions, trial


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_solve_binary_with_twins_merged_matches_the_unmerged_search(data):
    """Merging twin columns leaves the first solution unchanged."""
    v = data.draw(st.sampled_from(range(3, 80, 2)), label="v")
    g = data.draw(st.sampled_from([x for x in range(1, v) if _coprime(x, v)]), label="g")
    group = MultiplierGroup.generate(v, [v - 1, g])
    # the unmerged search over the sign group alone runs for over 5 s on some larger moduli
    assume(len(group) > 2 or v < 40)
    nonzero = [orbit for orbit in _element_orbits(group) if orbit != (0,)]
    a1 = {0}.union(*data.draw(st.lists(st.sampled_from(nonzero), max_size=2, unique=True),
                              label="A1 orbits"))
    assume((v - len(a1)) % 4 == 0)
    a2 = {0}
    for orbit in data.draw(st.permutations(nonzero), label="A2 orbit order"):
        if len(a2) + len(orbit) <= len(a1):
            a2 |= set(orbit)
    assume(len(a2) == len(a1))
    spec = PPSSpec(v, frozenset(a1), frozenset(a2))
    merged, unmerged = solve_binary(build_system(group, spec)), _reference_search(group, spec)
    assert (merged is None) == (unmerged is None)
    assert merged is None or sorted(merged) == sorted(unmerged)


def test_sign_group_options_are_the_class_pairs_in_lexicographic_order(monkeypatch):
    """Twins merged, the options of <-1> are the pairs (a, b), 1 <= a < b <= v//2, each
    covering element classes a, b and the sum/difference classes of a + b and b - a."""
    monkeypatch.setattr(kramer_mesner, "_TABLES", {})
    for v in range(5, 100, 2):
        table = kramer_mesner.option_table(MultiplierGroup.generate(v, [v - 1]))
        h = v // 2 + 1
        pairs = [(a, b) for a in range(1, h) for b in range(a + 1, h)]
        assert table.element_reps == tuple(range(h)), v
        assert list(table.pairs) == pairs, v
        assert [tuple(row for row in range(2 * h) if mask >> row & 1) for mask in table.cover] == [
            tuple(sorted((a, b, h + min(a + b, v - a - b), h + b - a))) for a, b in pairs], v


def _eager_option_masks(members, n_items):
    """(cover, clash, covered_by) as they were built when every clash mask was made up
    front: clash[o] is the OR of covered_by over the items of option o."""
    covered_by = [0] * n_items
    for option, items in enumerate(members):
        bit = 1 << option
        for i in items:
            covered_by[i] |= bit
    cover, clash = [], []
    for items in members:
        mask = bits = 0
        for i in items:
            mask |= 1 << i
            bits |= covered_by[i]
        cover.append(mask)
        clash.append(bits)
    return cover, clash, covered_by


def _indexed_system(cover, clash, covered_by, required, alive):
    """The CoverSystem of these masks whose pairs are the option indices, so that
    solve_binary returns the chosen options."""
    return CoverSystem((), tuple(range(len(cover))), cover, clash, covered_by, required, alive)


def _eager_exact_cover(cover, clash, covered_by, open_items, alive, branch):
    """solve_binary's kernel as it ran when every clash mask came filled in, with no
    deadline: the chosen options."""
    stack = []
    while open_items:
        untried = alive & covered_by[branch(open_items, alive, covered_by)]
        while not untried:
            if not stack:
                return None
            open_items, alive, untried, _ = stack.pop()
        low = untried & -untried
        option = low.bit_length() - 1
        stack.append((open_items, alive, untried ^ low, option))
        open_items &= ~cover[option]
        alive &= ~clash[option]
    return [frame[3] for frame in stack]


def _counted(branch, limit=None):
    """branch, and the list it appends to at each node; past ``limit`` nodes it raises
    _NodeLimit."""
    nodes = []

    def counted(*args):
        if len(nodes) == limit:
            raise _NodeLimit
        nodes.append(None)
        return branch(*args)

    return counted, nodes


class _NodeLimit(Exception):
    pass


def _rows_of(mask):
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _assert_lazy_kernel_matches_eager(members, n_items, required, alive, branch):
    """solve_binary from all-0 clash masks returns the eager kernel's answer after as many
    nodes, and every mask it fills is the eager one; returns the answer."""
    cover, clash, covered_by = _eager_option_masks(members, n_items)
    eager_branch, eager_nodes = _counted(branch)
    expected = _eager_exact_cover(cover, clash, covered_by, required, alive, eager_branch)
    lazy = [0] * len(members)
    lazy_branch, lazy_nodes = _counted(branch)
    assert solve_binary(_indexed_system(cover, lazy, covered_by, required, alive),
                        lazy_branch) == expected
    assert len(lazy_nodes) == len(eager_nodes)
    assert all(mask in (0, clash[option]) for option, mask in enumerate(lazy))
    return expected


def _lowest_open_row(items, *_):
    return (items & -items).bit_length() - 1


def _check_option_table(group, monkeypatch, nodes=200):
    """option_table equals the table built from every pair orbit (each orbit's column, the
    columns that hit no row twice, the first of each row tuple), with the eager masks'
    cover and covered_by and all-0 clash masks.  A solve of every row some option covers,
    stopped after ``nodes`` nodes, fills clash masks of the cached table equal to the eager
    ones; returns how many."""
    v, reps, every = group.v, _element_reps(group), _all_pair_orbits(group)
    n_rows = 2 * len(reps)
    first: dict[tuple[int, ...], tuple[int, int]] = {}
    for orbit, rows in zip(every, _reference_columns(v, reps, every)):
        if len(set(rows)) == len(rows):
            first.setdefault(rows, orbit[0])
    cover, clash, covered_by = _eager_option_masks(list(first), n_rows)
    m = len(first)
    monkeypatch.setattr(kramer_mesner, "_TABLES", {})
    table = kramer_mesner.option_table(group)
    assert (table.element_reps, table.pairs, table.cover, table.clash, table.covered_by,
            table.required, table.alive) == (
        reps, tuple(first.values()), cover, [0] * m, covered_by,
        (1 << n_rows) - 1, (1 << m) - 1), (v, group.generators)
    required = sum(1 << row for row, options in enumerate(table.covered_by) if options)
    branch, _ = _counted(kramer_mesner._fewest_options, nodes)
    try:
        solve_binary(_indexed_system(table.cover, table.clash, table.covered_by, required,
                                     table.alive), branch)
    except _NodeLimit:
        pass
    assert kramer_mesner.option_table(group).clash is table.clash
    filled = [option for option, mask in enumerate(table.clash) if mask]
    assert all(table.clash[option] == clash[option] for option in filled), (v, group.generators)
    return len(filled)


def test_option_table_equals_the_table_built_from_every_pair_orbit(monkeypatch):
    """On every distinct <-1, g> with v < 100, orbits lists one orbit per twin class {c, +-d},
    1 <= c < d <= v//2, in ascending order of its least pair, and option_table equals the
    table built from every pair orbit, with clash masks filled on first select."""
    checked = filled = 0
    for v in range(3, 100):
        groups = {group.elements: group for group in (MultiplierGroup.generate(v, [v - 1, g])
                                                      for g in range(1, v) if _coprime(g, v))}
        for group in groups.values():
            pair_orbits, every = _twin_class_orbits(group), _all_pair_orbits(group)
            assert set(pair_orbits) <= set(every), v
            twins = [{tuple(sorted((min(x, v - x), min(y, v - y)))) for x, y in orbit}
                     for orbit in pair_orbits]
            h = v // 2 + 1
            assert sorted(pair for twin in twins for pair in twin) == [
                (c, d) for c in range(1, h) for d in range(c + 1, h)], v
            least = [orbit[0] for orbit in pair_orbits]
            assert least == [min(twin) for twin in twins] == sorted(least), v
            filled += _check_option_table(group, monkeypatch)
            checked += 1
    assert checked == 471
    assert filled > 10_000


@pytest.mark.parametrize("v, generators", [(401, [400]), (651, [68])])
def test_large_option_tables_equal_the_table_built_from_every_pair_orbit(
        v, generators, monkeypatch):
    assert _check_option_table(MultiplierGroup.generate(v, generators), monkeypatch,
                               nodes=2000) > 100


def test_tables_the_options_squared_cap_refused_are_cached(monkeypatch):
    """APS(651)'s <68> table and the sign group's at v = 601 have more than 2**13 options,
    so options**2 exceeds OPTION_CACHE_BITS, but rows x options does not: a second call
    returns the cached system and runs no build stage."""
    monkeypatch.setattr(kramer_mesner, "_TABLES", {})
    for group in (MultiplierGroup.generate(651, [68]), MultiplierGroup.generate(601, [600])):
        table = kramer_mesner.option_table(group)
        assert table.m ** 2 > kramer_mesner.OPTION_CACHE_BITS
        with monkeypatch.context() as patched:
            patched.setattr(kramer_mesner, "orbits", lambda *a, **k: pytest.fail("orbits ran"))
            assert kramer_mesner.option_table(group) is table
    assert len(kramer_mesner._TABLES) == 2


# The km_search requests of the search benchmark's deck, as (v, generators, spec).
DECK_KM_SPECS = ([(13, (1, 12), PPSSpec.ps(13)), (27, (1, 26), PPSSpec.aps(27, 3, 6)),
                  (133, (122,), PPSSpec.ps(133))]
                 + [(51, (1, 50), PPSSpec.aps(51, a, b)) for a, b in (
                     (6, 2), (9, 20), (11, 15), (12, 4), (13, 24), (14, 18), (21, 10), (24, 8))]
                 + [(75, (1, 74), PPSSpec.aps(75, a, b)) for a, b in (
                     (5, 5), (10, 10), (20, 5), (35, 5), (35, 10))])


def test_deck_km_solves_match_the_eager_kernel():
    assert len(DECK_KM_SPECS) == 16
    for v, generators, spec in DECK_KM_SPECS:
        group = MultiplierGroup.generate(v, generators)
        system = build_system(group, spec)
        chosen = _assert_lazy_kernel_matches_eager(
            [_rows_of(mask) for mask in system.cover], len(system.covered_by),
            system.required, system.alive, kramer_mesner._fewest_options)
        assert chosen is not None, spec
        assert km_search(v, generators, spec) == develop([system.pairs[o] for o in chosen],
                                                         group)


def test_exhaustive_solves_match_the_eager_kernel():
    """Every PS(v) and APS(v, alpha, beta), 1 <= alpha, beta <= v//2, odd v <= 41, that
    passes the square-sum identity."""
    checked = 0
    for v in range(3, 42, 2):
        half = v // 2
        specs = ([PPSSpec.ps(v)] if v % 4 == 1 else
                 [PPSSpec.aps(v, a, b) for a in range(1, half + 1) for b in range(1, half + 1)])
        for spec in filter(square_sums_agree, specs):
            system = build_system(MultiplierGroup.generate(v, (-1,)), spec)
            chosen = _assert_lazy_kernel_matches_eager(
                [_rows_of(mask) for mask in system.cover], len(system.covered_by),
                system.required, system.alive, _lowest_open_row)
            expected = None if chosen is None else PairSet(v, tuple(system.pairs[o]
                                                                    for o in chosen))
            assert exhaustive_search(spec, force=True) == expected, spec
            checked += 1
    assert checked == 50


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_random_systems_match_the_eager_kernel(data):
    n_items = data.draw(st.integers(1, 10), label="items")
    members = data.draw(st.lists(st.lists(st.integers(0, n_items - 1), max_size=4),
                                 max_size=16), label="members")
    required = data.draw(st.integers(0, (1 << n_items) - 1), label="required")
    alive = data.draw(st.integers(0, (1 << len(members)) - 1), label="alive")
    branch = data.draw(st.sampled_from([kramer_mesner._fewest_options, _lowest_open_row]),
                       label="branch")
    _assert_lazy_kernel_matches_eager(members, n_items, required, alive, branch)


def _lowest_first_fewest_options(open_items, alive, covered_by):
    """The fewest-options rule as it scanned from the lowest open row: the first row with
    at most one alive option, else the open row with the fewest, ties to the lowest."""
    best = item = None
    while open_items:
        row = (open_items & -open_items).bit_length() - 1
        count = (alive & covered_by[row]).bit_count()
        if count <= 1:
            return row
        if best is None or count < best:
            best, item = count, row
        open_items &= open_items - 1
    return item


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_both_rules_take_a_forced_or_dead_row_and_otherwise_branch_as_before(data):
    """_fewest_options picks the lowest-first scan's row and _forced_or_lowest the lowest
    open row when every open row has two or more alive options; otherwise each picks an
    open row with at most one."""
    n_rows = data.draw(st.integers(1, 12), label="rows")
    m = data.draw(st.integers(0, 16), label="options")
    covered_by = data.draw(st.lists(st.integers(0, (1 << m) - 1), min_size=n_rows,
                                    max_size=n_rows), label="covered_by")
    open_items = data.draw(st.integers(1, (1 << n_rows) - 1), label="open")
    alive = data.draw(st.integers(0, (1 << m) - 1), label="alive")
    counts = {row: (alive & covered_by[row]).bit_count() for row in _rows_of(open_items)}
    for rule, before in ((kramer_mesner._fewest_options, _lowest_first_fewest_options),
                         (kramer_mesner._forced_or_lowest, _lowest_open_row)):
        row = rule(open_items, alive, covered_by)
        if min(counts.values()) >= 2:
            assert row == before(open_items, alive, covered_by)
        else:
            assert counts[row] <= 1


def _sign_group_aps_specs(v):
    """Every APS(v, alpha, beta), 1 <= alpha, beta <= v//2, that passes the square-sum
    identity."""
    half = v // 2
    return [spec for spec in (PPSSpec.aps(v, a, b) for a in range(1, half + 1)
                              for b in range(1, half + 1)) if square_sums_agree(spec)]


def test_km_search_finds_the_set_the_lowest_first_scan_finds():
    """On the deck's km specs and every sign-group APS at v = 47 and 51 that passes the
    identity, km_search equals the developed solve under the lowest-first scan."""
    cases = DECK_KM_SPECS + [(v, (v - 1,), spec) for v in (47, 51)
                             for spec in _sign_group_aps_specs(v)]
    for v, generators, spec in cases:
        group = MultiplierGroup.generate(v, generators)
        chosen = solve_binary(build_system(group, spec), _lowest_first_fewest_options)
        assert chosen is not None, spec
        assert km_search(v, generators, spec) == develop(chosen, group), spec
    assert len(cases) == 16 + 23 + 32


def test_exhaustive_search_takes_fewer_nodes_than_the_lowest_row_rule(monkeypatch):
    """On the specs of test_exhaustive_solves_match_the_eager_kernel, the forced rows taken
    first give the lowest-row rule's set in fewer nodes in total."""
    nodes, solve = [], kramer_mesner.solve_binary

    def counted_solve(system, branch, **kwargs):
        counted, seen = _counted(branch)
        try:
            return solve(system, counted, **kwargs)
        finally:
            nodes.extend(seen)

    monkeypatch.setattr(kramer_mesner, "solve_binary", counted_solve)
    lowest_row_nodes = checked = 0
    for v in range(3, 42, 2):
        specs = [PPSSpec.ps(v)] if v % 4 == 1 else _sign_group_aps_specs(v)
        for spec in filter(square_sums_agree, specs):
            system = build_system(MultiplierGroup.generate(v, (-1,)), spec)
            branch, lowest = _counted(_lowest_open_row)
            chosen = solve_binary(system, branch)  # unpatched: its nodes count in lowest only
            lowest_row_nodes += len(lowest)
            expected = None if chosen is None else PairSet(v, tuple(chosen))
            assert exhaustive_search(spec, force=True) == expected, spec
            checked += 1
    assert checked == 50
    assert len(nodes) < lowest_row_nodes


def test_develop_reproduces_published_tables():
    g133 = MultiplierGroup.generate(133, [122])
    developed = develop(PS133_INITIAL_PAIRS, g133)
    assert len(developed.pairs) == 33
    assert verify_pps(developed, PPSSpec.ps(133)).valid
    assert _negation_classes(developed) == _negation_classes(get("ps-133").pair_set())

    g651 = MultiplierGroup.generate(651, [68])
    developed = develop(APS651_INITIAL_PAIRS, g651)
    assert len(developed.pairs) == 162
    assert verify_pps(developed, PPSSpec.aps(651, 217, 217)).valid
    assert _negation_classes(developed) == _negation_classes(get("aps-651-217").pair_set())


def _negation_classes(s: PairSet) -> set:
    out = set()
    for x, y in s.pairs:
        out.add(min((x, y), tuple(sorted(((-x) % s.v, (-y) % s.v)))))
    return out


def test_develop_edge_cases():
    g = MultiplierGroup.generate(13, [12])
    assert develop([(1, 5)], g).pairs == ((1, 5),)
    with pytest.raises(ValueError):
        develop([(1, 10)], MultiplierGroup.generate(11, [10]))  # 10 = -1


def test_km_search_examples():
    found = km_search(13, [12], PPSSpec.ps(13))
    assert found is not None and verify_pps(found, PPSSpec.ps(13)).valid

    found = km_search(27, [26], PPSSpec.aps(27, 3, 6))
    assert found is not None and verify_pps(found, PPSSpec.aps(27, 3, 6)).valid

    for alpha, beta in ((1, 1), (1, 3), (2, 1), (3, 4), (5, 2)):
        assert km_search(11, [10], PPSSpec.aps(11, alpha, beta)) is None


def test_km_search_133():
    found = km_search(133, [122], PPSSpec.ps(133))
    assert found is not None
    assert len(found.pairs) == 33
    assert verify_pps(found, PPSSpec.ps(133)).valid


def test_km_search_217_with_suggested_group():
    xi = suggest_multiplier(217)
    found = km_search(217, [xi], PPSSpec.ps(217))
    assert found is not None
    assert len(found.pairs) == 54
    assert verify_pps(found, PPSSpec.ps(217)).valid


PS133_PINNED = [(1, 2), (3, 28), (4, 20), (5, 40), (6, 45), (7, 64), (9, 51), (10, 57),
                (14, 32), (16, 65), (17, 27)]
# per modulus: the kept options of the group's system, and the pinned solution's pairs
PINNED = {13: (15, [(1, 5), (2, 3), (4, 6)]),
          27: (78, [(1, 4), (2, 12), (5, 13), (6, 10), (7, 8), (9, 11)]),
          133: (672, PS133_PINNED)}


@pytest.mark.parametrize("v, generators, spec, m, support", [
    (13, [12], PPSSpec.ps(13), 15, (3, 5, 13)),
    (27, [26], PPSSpec.aps(27, 3, 6), 78, (2, 21, 49, 53, 57, 69)),
    (133, [122], PPSSpec.ps(133), 715,
     (0, 145, 196, 266, 321, 383, 457, 498, 518, 597, 602)),
])
def test_solve_binary_pinned_solutions(v, generators, spec, m, support):
    """The first solution under fewest-candidates branching, ties to the lowest row: the
    pair orbits at ``support`` among the m twin-class pair orbits."""
    group = MultiplierGroup.generate(v, generators)
    pair_orbits = _twin_class_orbits(group)
    kept, pairs = PINNED[v]
    assert len(pair_orbits) == m
    assert sorted(pair_orbits[col][0] for col in support) == pairs
    system = build_system(group, spec)
    assert system.m == kept
    assert sorted(solve_binary(system)) == sorted(_reference_search(group, spec)) == pairs


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sign_group_search_agrees_with_exhaustive_search(data):
    v = data.draw(st.sampled_from(range(3, 28, 4)), label="v")
    alpha = data.draw(st.integers(1, v - 1), label="alpha")
    beta = data.draw(st.integers(1, v - 1), label="beta")
    spec = PPSSpec.aps(v, alpha, beta)
    by_orbits = km_search(v, [1, v - 1], spec)
    direct = exhaustive_search(spec)
    assert (by_orbits is not None) == (direct is not None) == aps_necessary(v, alpha, beta)


def test_km_search_checks_its_deadline_before_the_costly_stages(monkeypatch):
    spec = PPSSpec.aps(651, 217, 217)
    started = time.monotonic()
    with pytest.raises(BudgetExceededError):
        km_search(651, [68], spec, deadline=time.monotonic() - 1)
    assert time.monotonic() - started < 0.1

    # a deadline that passes as the build starts stops the search before the solve
    real_orbits = kramer_mesner.orbits
    ran = []

    def slow_orbits(group, **kwargs):
        ran.append("orbits")
        time.sleep(0.02)
        return real_orbits(group, **kwargs)

    monkeypatch.setattr(kramer_mesner, "_TABLES", {})  # a cached table would skip the build
    monkeypatch.setattr(kramer_mesner, "orbits", slow_orbits)
    monkeypatch.setattr(kramer_mesner, "solve_binary",
                        lambda *args, **kwargs: pytest.fail("solve_binary ran past the deadline"))
    with pytest.raises(BudgetExceededError):
        km_search(27, [26], PPSSpec.aps(27, 3, 6), deadline=time.monotonic() + 0.01)
    assert ran == ["orbits"]  # the deadline passed in the build, not before it
    assert kramer_mesner._TABLES == {}


def test_generating_a_large_group_checks_the_deadline():
    # <-1, 3> modulo 10**8 + 1 has millions of elements; km_search refuses the modulus
    # before it enumerates them, and generating the group alone checks the deadline
    v = 100000001
    started = time.monotonic()
    with pytest.raises(BudgetExceededError):
        km_search(v, (v - 1, 3), PPSSpec.ps(v), deadline=started + 0.05)
    assert time.monotonic() - started < 1
    with pytest.raises(BudgetExceededError):
        MultiplierGroup.generate(v, (v - 1, 3), deadline=time.monotonic() + 0.05)
    assert MultiplierGroup.generate(27, [26], deadline=time.monotonic() - 1).elements == (1, 26)


def test_orbits_and_build_system_check_their_deadlines():
    spec = PPSSpec.aps(651, 217, 217)
    started = time.monotonic()
    with pytest.raises(BudgetExceededError):
        km_search(651, [68], spec, deadline=started + 0.05)  # orbits alone takes longer
    assert time.monotonic() - started < 0.2

    g = MultiplierGroup.generate(27, [26])
    with pytest.raises(BudgetExceededError):
        orbits(g, deadline=time.monotonic() - 1)
    for cached in ({}, {(27, g.elements): kramer_mesner.option_table(g)}):  # cold, then warm
        with patch.dict(kramer_mesner._TABLES, cached, clear=True):
            with pytest.raises(BudgetExceededError):
                build_system(g, PPSSpec.aps(27, 3, 6), deadline=time.monotonic() - 1)
            assert list(kramer_mesner._TABLES) == list(cached)


def test_every_stage_reports_a_deadline_overrun_the_same_way(monkeypatch):
    monkeypatch.setattr(kramer_mesner, "_TABLES", {})  # a cached table checks no deadline
    g = MultiplierGroup.generate(27, [26])
    stages = [
        lambda deadline: orbits(g, deadline=deadline),
        lambda deadline: build_system(g, PPSSpec.aps(27, 3, 6), deadline=deadline),
        lambda deadline: kramer_mesner.option_table(g, deadline=deadline),
        lambda deadline: solve_binary(_indexed_system([1], [1], [1], 1, 1), lambda *_: 0,
                                      deadline=deadline),
        lambda deadline: exhaustive_search(PPSSpec.ps(13), deadline=deadline),
        lambda deadline: km_search(27, [26], PPSSpec.aps(27, 3, 6), deadline=deadline),
    ]
    texts = set()
    for stage in stages:
        with pytest.raises(BudgetExceededError) as err:
            stage(time.monotonic() - 1)
        texts.add(str(err.value))
    assert len(texts) == 1, texts


def test_orbits_checks_its_deadline_between_twin_classes(monkeypatch):
    # the 4,950 sign-group twin classes at v = 201: checks on entry and after classes
    # 1024, 2048, 3072 and 4096
    group = MultiplierGroup.generate(201, (-1,))
    with pytest.raises(BudgetExceededError):
        orbits(group, deadline=time.monotonic() - 1)

    checks = []

    def third_check_overruns(deadline):
        checks.append(deadline)
        if len(checks) == 3:
            raise BudgetExceededError("search hit its deadline")

    monkeypatch.setattr(kramer_mesner, "check_deadline", third_check_overruns)
    with pytest.raises(BudgetExceededError):  # raised by the check after class 2048
        orbits(group, deadline=time.monotonic() + 60)
    assert len(checks) == 3
    monkeypatch.setattr(kramer_mesner, "check_deadline", checks.append)
    assert orbits(group, deadline=time.monotonic() + 60).m == 4950
    assert len(checks) == 3 + 5


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_km_search_from_a_cold_or_warm_table_equals_the_staged_search(data):
    v = data.draw(st.sampled_from(range(3, 80, 2)), label="v")
    g = data.draw(st.sampled_from([x for x in range(1, v) if _coprime(x, v)]), label="g")
    group = MultiplierGroup.generate(v, [v - 1, g])
    nonzero = [orbit for orbit in _element_orbits(group) if orbit != (0,)]
    a1 = {0}.union(*data.draw(st.lists(st.sampled_from(nonzero), max_size=2, unique=True),
                              label="A1 orbits"))
    assume((v - len(a1)) % 4 == 0)
    a2 = {0}
    for orbit in data.draw(st.permutations(nonzero), label="A2 orbit order"):
        if len(a2) + len(orbit) <= len(a1):
            a2 |= set(orbit)
    assume(len(a2) == len(a1))
    spec = PPSSpec(v, frozenset(a1), frozenset(a2))
    agree = square_sums_agree(spec)
    # Without the identity the staged search proves "none" by a full tree, which for
    # the sign group alone past v = 35 takes minutes; there the identity's own "none"
    # is checked against exhaustive_search in test_core.
    staged = agree or v <= 35 or len(group.elements) > 2
    chosen = _reference_search(group, spec) if staged else None
    expected = None if chosen is None else develop(chosen, group)
    assert agree or expected is None
    with patch.dict(kramer_mesner._TABLES, clear=True):
        assert km_search(v, [v - 1, g], spec) == expected  # cold: builds the table if agree
        assert list(kramer_mesner._TABLES) == ([(v, group.elements)] if agree else [])
        table = kramer_mesner.option_table(group)
    with patch.dict(kramer_mesner._TABLES, {(v, group.elements): table}, clear=True):
        assert km_search(v, [g, v - 1], spec) == expected  # warm: reads it

    # a spec that is not a union of orbits is refused alike from a warm table
    split = [orbit[0] for orbit in nonzero if len(orbit) > 2]
    others = [orbit[0] for orbit in nonzero if split and split[0] not in orbit]
    if not split or (v % 4 == 1 and not others):
        return
    excluded = {0, split[0], v - split[0]} | ({others[0], v - others[0]} if v % 4 == 1 else set())
    bad = PPSSpec(v, frozenset(excluded), frozenset(excluded))
    texts = set()
    for cached in ({}, {(v, group.elements): table}):
        with patch.dict(kramer_mesner._TABLES, cached, clear=True):
            with pytest.raises(ValueError, match="not a union of orbits") as err:
                km_search(v, [v - 1, g], bad)
            texts.add(str(err.value))
    with pytest.raises(ValueError) as err:
        build_system(group, bad)
    assert texts == {str(err.value)}


def test_a_warm_km_search_runs_no_build_stage(monkeypatch):
    calls = []
    for stage in ("orbits", "build_system", "solve_binary"):
        real = getattr(kramer_mesner, stage)
        monkeypatch.setattr(kramer_mesner, stage,
                            lambda *a, _real=real, _stage=stage, **k: calls.append(_stage)
                            or _real(*a, **k))
    monkeypatch.setattr(kramer_mesner, "_TABLES", {})
    cold = km_search(27, [26], PPSSpec.aps(27, 3, 6))
    search = ["build_system", "solve_binary"]
    assert calls == ["build_system", "orbits", "solve_binary"]  # one build
    assert km_search(27, [26], PPSSpec.aps(27, 3, 6)) == cold
    assert exhaustive_search(PPSSpec.aps(27, 3, 6)) is not None  # the same sign group
    assert calls == ["build_system", "orbits", "solve_binary"] + search * 2
    assert list(kramer_mesner._TABLES) == [(27, (1, 26))]


def test_km_search_probes_the_pair_marks_without_writing_them():
    """APS(20,003, 1, 1) fails the square-sum identity, so km_search answers None once it
    has probed the (v//2 + 1)**2 = 100,040,004 bytes of pair marks: the probe must leave
    them unwritten, not resident."""
    code = textwrap.dedent("""
        import resource
        from designforge.core import PPSSpec
        from designforge.kramer_mesner import km_search
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        assert km_search(20003, (-1,), PPSSpec.aps(20003, 1, 1)) is None
        print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
    """)
    src = str(Path(kramer_mesner.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    # Linux carries the spawning process's peak RSS into a child's ru_maxrss at exec, so the
    # search runs in a grandchild, spawned by a small launcher rather than by this process.
    launcher = ("import subprocess, sys; "
                "sys.exit(subprocess.run([sys.executable, '-c', sys.argv[1]]).returncode)")
    done = subprocess.run([sys.executable, "-c", launcher, code], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    assert int(done.stdout) < 16 << 10  # KiB: the marks alone are 95 MiB


def test_the_oracle_is_one_function_under_the_package_core_and_kramer_mesner():
    """A tracer that wraps ``core.exhaustive_search`` wherever that object is held reaches
    every call only if the three names are one function.  core re-exports it from
    kramer_mesner, which imports core, so each entry point is also imported on its own
    in a fresh process: a package that imported kramer_mesner before core would fail."""
    import designforge
    from designforge import core
    assert designforge.exhaustive_search is core.exhaustive_search \
        is kramer_mesner.exhaustive_search
    assert core.EXHAUSTIVE_MAX_V == 40
    src = str(Path(kramer_mesner.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for statement in ("import designforge.kramer_mesner", "import designforge.core",
                      "from designforge.core import exhaustive_search"):
        done = subprocess.run([sys.executable, "-c", statement], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr


def test_a_spec_failing_the_square_sum_identity_gets_none_after_every_earlier_check(
        monkeypatch):
    monkeypatch.setattr(kramer_mesner, "_TABLES", {})
    aps59 = PPSSpec.aps(59, 1, 1)  # 2 - 1 is not 0 modulo 59
    assert not square_sums_agree(aps59) and not square_sums_agree(PPSSpec.ps(45))
    with pytest.raises(BudgetExceededError, match="deadline"):
        km_search(59, [58], aps59, deadline=time.monotonic() - 1)
    with pytest.raises(ValueError, match="not a union of orbits"):
        km_search(59, [58, 3], aps59)
    with pytest.raises(BudgetExceededError, match="default budget"):
        exhaustive_search(PPSSpec.ps(45))
    with pytest.raises(BudgetExceededError, match="deadline"):
        exhaustive_search(PPSSpec.ps(45), force=True, deadline=time.monotonic() - 1)
    # without the identity, either search's full tree would take far longer
    assert km_search(59, [58], aps59, deadline=time.monotonic() + 1) is None
    assert exhaustive_search(PPSSpec.ps(45), force=True, deadline=time.monotonic() + 1) is None
    assert kramer_mesner._TABLES == {}


def _six_pair_pps(v):
    """The PPS over Z_v whose A1 and A2 are the complements of the +-classes hit by six
    fixed pairs, so that those pairs are a valid set."""
    pairs = ((1, 3), (5, 12), (7, 20), (9, 30), (11, 41), (13, 60))
    elements = {z for pair in pairs for z in pair}
    sums = {z for x, y in pairs for z in (x + y, y - x)}
    return PPSSpec(v, frozenset(z for z in range(v) if min(z, v - z) not in elements),
                   frozenset(z for z in range(v) if min(z, v - z) not in sums))


def test_exhaustive_search_refuses_every_modulus_past_its_budget_unless_forced(monkeypatch):
    """Unless forced, a PPS over v > 40 is refused before its O(v^2) sign-group table,
    however few its pairs."""
    monkeypatch.setattr(kramer_mesner, "_TABLES", {})
    for v in (3001, 401):
        spec = _six_pair_pps(v)
        assert spec.pair_count == 6
        start = time.monotonic()
        with pytest.raises(BudgetExceededError,
                           match=f"search for 6 pairs over Z_{v} exceeds the default budget"):
            exhaustive_search(spec)
        assert time.monotonic() - start < 0.1
    assert kramer_mesner._TABLES == {}
    found = exhaustive_search(spec, force=True)
    assert found is not None and verify_pps(found, spec).valid


def test_a_build_that_overruns_its_deadline_stores_nothing(monkeypatch):
    monkeypatch.setattr(kramer_mesner, "OPTION_CACHE_BITS", 1 << 40)  # it would fit
    before = dict(kramer_mesner._TABLES)
    with pytest.raises(BudgetExceededError):
        km_search(651, [68], PPSSpec.aps(651, 217, 217), deadline=time.monotonic() + 0.05)
    assert kramer_mesner._TABLES == before


def _bits(table):
    """The covered_by masks' size the cache counts: rows x options."""
    return len(table.covered_by) * table.m


def test_a_table_over_the_cap_is_used_and_not_stored(monkeypatch):
    group = MultiplierGroup.generate(133, [122])
    monkeypatch.setattr(kramer_mesner, "_TABLES", {})
    bits = _bits(kramer_mesner.option_table(group))
    monkeypatch.setattr(kramer_mesner, "_TABLES", {})
    monkeypatch.setattr(kramer_mesner, "OPTION_CACHE_BITS", bits - 1)
    assert km_search(133, [122], PPSSpec.ps(133)) == develop(PS133_PINNED, group)
    assert kramer_mesner._TABLES == {}


def test_the_cache_never_holds_more_than_its_cap(monkeypatch):
    monkeypatch.setattr(kramer_mesner, "_TABLES", {})
    sizes = {v: _bits(kramer_mesner.option_table(MultiplierGroup.generate(v, [v - 1])))
             for v in (29, 33, 37, 41)}
    monkeypatch.setattr(kramer_mesner, "_TABLES", {})
    cap = sizes[29] + sizes[33] + sizes[41]
    monkeypatch.setattr(kramer_mesner, "OPTION_CACHE_BITS", cap)
    held = []
    for v in (29, 33, 37, 41, 29, 33):
        kramer_mesner.option_table(MultiplierGroup.generate(v, [v - 1]))
        held.append([key[0] for key in kramer_mesner._TABLES])
        assert sum(_bits(table) for table in kramer_mesner._TABLES.values()) <= cap
    # the oldest tables go first
    assert held == [[29], [29, 33], [29, 33, 37], [37, 41], [41, 29], [41, 29, 33]]
