from __future__ import annotations

import re
from collections import Counter
from dataclasses import replace
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from designforge.catalog import get
from designforge.core import PairSet
from designforge.designs import (
    INF,
    CdmReport,
    CheckResult,
    CyclicRounds,
    DifferenceMatrix,
    WhistTournament,
    cdm_from_round,
    develop_rounds,
    initial_round,
    verify_cdm,
    verify_whist,
)

PS13 = PairSet(13, ((1, 5), (2, 3), (4, 6)))
PS5 = PairSet(5, ((1, 2),))


def test_initial_round_ps():
    games = initial_round(PS13)
    assert games == ((1, 5, 12, 8), (2, 3, 11, 10), (4, 6, 9, 7))


def test_initial_round_aps():
    games = initial_round(get("aps-27-3-3").pair_set(), alpha=3)
    assert games[0] == (INF, 3, 0, 24)
    assert len(games) == 7
    # round-trip: non-special games give back the pair set up to orientation
    back = {frozenset(g[:2]) for g in games[1:]}
    assert back == {frozenset(p) for p in get("aps-27-3-3").pair_set().pairs}


def test_initial_round_matches_catalog_whist_entries():
    assert initial_round(get("ps-13").pair_set()) == get("wh-13-round").games()
    derived = initial_round(get("aps-27-3-3").pair_set(), alpha=3)
    stored = get("wh-28-round").games()
    assert derived[0] == stored[0]
    # the pair games agree up to in-pair seat orientation
    assert {frozenset(g[:2]) for g in derived[1:]} == \
           {frozenset(g[:2]) for g in stored[1:]}


def test_initial_round_rejects_unequal_parameters():
    with pytest.raises(ValueError):
        initial_round(get("aps-27-3-6").pair_set(), alpha=3)
    with pytest.raises(ValueError):
        initial_round(PairSet(13, ((1, 5),)))  # not a valid PS


def test_develop_rounds_counts():
    t = develop_rounds(initial_round(PS13), 13)
    assert t.v == 13 and len(t.rounds) == 13
    assert all(len(rnd) == 3 for rnd in t.rounds)
    t28 = develop_rounds(initial_round(get("aps-27-3-3").pair_set(), alpha=3), 27)
    assert t28.v == 28 and len(t28.rounds) == 27
    assert all(len(rnd) == 7 for rnd in t28.rounds)
    # degenerate development: structure exists, verification flags it
    empty = develop_rounds([], 5)
    assert len(empty.rounds) == 5
    assert not verify_whist(empty, ("basic",))["basic"].passed


def test_whist_checks_on_classical_rounds():
    t = develop_rounds(initial_round(PS13), 13)
    results = verify_whist(t)
    assert all(r.passed for r in results.values()), results

    t28 = develop_rounds(initial_round(get("aps-27-3-3").pair_set(), alpha=3), 27)
    results = verify_whist(t28, ("basic", "zcps"))
    assert all(r.passed for r in results.values()), results


def test_whist_difference_shortcut_matches_full_count():
    t = develop_rounds(initial_round(PS13), 13)
    shortcut = verify_whist(t, ("directed", "ordered"))
    full = verify_whist(replace(t, rounds=tuple(t.rounds)), ("directed", "ordered"))
    assert {k: v.passed for k, v in shortcut.items()} == \
           {k: v.passed for k, v in full.items()} == \
           {"directed": True, "ordered": True}


# Seat-level references for the whist checks: plain counts over every game,
# sharing nothing with the verifiers in designforge.designs.

def _reference_basic(t: WhistTournament) -> bool:
    players = t.players
    v = len(players)
    if v % 4 not in (0, 1) or len(t.rounds) != (v - 1 if v % 4 == 0 else v):
        return False
    sat_out: Counter = Counter()
    for rnd in t.rounds:
        seats = Counter(seat for g in rnd for seat in g)
        absent = [p for p in players if p not in seats]
        if (len(rnd) != v // 4 or any(c != 1 for c in seats.values())
                or any(seat not in players for seat in seats) or len(absent) != v % 4):
            return False
        sat_out.update(absent)
    if v % 4 == 1 and any(sat_out[p] != 1 for p in players):
        return False
    partners: Counter = Counter()
    opponents: Counter = Counter()
    for rnd in t.rounds:
        for a, b, c, d in rnd:
            partners.update(frozenset(p) for p in ((a, c), (b, d)))
            opponents.update(frozenset(p) for p in ((a, b), (b, c), (c, d), (d, a)))
    return all(partners[frozenset(p)] == 1 and opponents[frozenset(p)] == 2
               for p in combinations(players, 2))


def _reference_cover(t: WhistTournament, rule) -> bool:
    """Each ordered pair of players once among rule(game), over all games."""
    tally = Counter(pair for rnd in t.rounds for g in rnd for pair in rule(*g))
    return all(tally[pair] == 1 for pair in permutations(t.players, 2))


def _left(a, b, c, d):
    return (a, b), (b, c), (c, d), (d, a)


def _first_kind(a, b, c, d):
    return (a, b), (a, d), (c, b), (c, d)


WHIST_STARTS = {
    5: initial_round(PS5),
    13: initial_round(PS13),
    27: initial_round(get("aps-27-3-3").pair_set(), alpha=3),
}


@st.composite
def whist_corpus(draw):
    """A development of PS(5), PS(13) or APS(27,3,3), often corrupted.

    The result passes through the JSON boundary, which works out whether the
    rounds are still a cyclic development.
    """
    u = draw(st.sampled_from(sorted(WHIST_STARTS)))
    r0 = [list(g) for g in WHIST_STARTS[u]]
    kind = draw(st.sampled_from(["none", "swap", "swap-start", "overwrite", "outside"]))
    if kind == "swap-start":  # a corrupted start, developed: still cyclic
        seats = [(g, s) for g in range(len(r0)) for s in range(4)]
        (g1, s1), (g2, s2) = draw(st.lists(st.sampled_from(seats), min_size=2, max_size=2))
        r0[g1][s1], r0[g2][s2] = r0[g2][s2], r0[g1][s1]
    t = develop_rounds(r0, u)
    rounds = [[list(g) for g in rnd] for rnd in t.rounds]
    r = draw(st.integers(0, u - 1))
    g, s = draw(st.integers(0, len(r0) - 1)), draw(st.integers(0, 3))
    if kind == "swap":
        g2, s2 = draw(st.integers(0, len(r0) - 1)), draw(st.integers(0, 3))
        rounds[r][g][s], rounds[r][g2][s2] = rounds[r][g2][s2], rounds[r][g][s]
    elif kind == "overwrite":
        rounds[r] = [list(game) for game in rounds[draw(st.integers(0, u - 1))]]
    elif kind == "outside":
        rounds[r][g][s] = draw(st.sampled_from([-1, u, u + 2, 3 * u]))
    return WhistTournament.from_json({"v": t.v, "rounds": rounds})


@settings(max_examples=300, deadline=None)
@given(whist_corpus())
def test_whist_checks_agree_with_seat_level_reference(t):
    results = verify_whist(t, ("basic", "directed", "ordered"))
    assert results["basic"].passed == _reference_basic(t)
    assert results["directed"].passed == _reference_cover(t, _left)
    assert results["ordered"].passed == _reference_cover(t, _first_kind)
    if not results["basic"].passed:
        assert results["basic"].detail


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([PS5, PS13, get("ps-133").pair_set()]), st.data())
def test_whist_difference_shortcut_agrees_on_developed_starts(s, data):
    games = initial_round(s)
    seats = [seat for g in games for seat in g]
    if data.draw(st.booleans()):
        seats = data.draw(st.permutations(seats))
    t = develop_rounds([tuple(seats[i:i + 4]) for i in range(0, len(seats), 4)], s.v)
    assert t.cyclic and WhistTournament.from_json(t.to_json()).cyclic
    shortcut = verify_whist(t, ("directed", "ordered"))
    full = verify_whist(replace(t, rounds=tuple(t.rounds)), ("directed", "ordered"))
    assert {k: r.passed for k, r in shortcut.items()} == {k: r.passed for k, r in full.items()}


# Rounds on an even u, where the starter holds the class {u/2} as the partner
# pair (u/2, u/2); each partners every class, and u = 12 partners {1, 11} twice.
EVEN_STARTS = {
    8: ((1, 2, 7, 6), (3, 4, 5, 4)),
    12: ((INF, 1, 0, 11), (2, 3, 10, 9), (4, 5, 8, 7), (6, 1, 6, 11)),
}
STARTERS = {**WHIST_STARTS, 133: initial_round(get("ps-133").pair_set()), **EVEN_STARTS}


def _reference_development(r0, u):
    """Round j adds j to every seat but INF, one seat at a time."""
    return tuple(tuple(tuple(seat if seat == INF else (seat + j) % u for seat in g) for g in r0)
                 for j in range(u))


@st.composite
def corrupted_starters(draw):
    """A PS(5), PS(13), PS(133), APS(27,3,3) or even-u starter, as given or corrupted.

    "re-pair" keeps the shape (x, y, -x, -y), so the partner differences still
    tile and only the opponent rule can fail; "drop" leaves a three-seat game,
    which basic's seating rule refuses, and so do directed and ordered;
    "extra" adds a game, which may seat INF twice beside a round that is
    otherwise directed; "repeat" adds a game of two partner pairs the round
    already has, so the set of its partner pairs is unchanged; "move-inf"
    swaps INF with a seat of a plain game, or puts it there when the round
    has none; "grow" gives a game a fifth seat, a player it already seats.
    """
    u = draw(st.sampled_from(sorted(STARTERS)))
    r0 = [list(g) for g in STARTERS[u]]
    kind = draw(st.sampled_from(["none", "swap", "overwrite", "shuffle", "re-pair", "drop",
                                 "extra", "repeat", "move-inf", "grow"]))
    g, s = draw(st.integers(0, len(r0) - 1)), draw(st.integers(0, 3))
    if kind == "swap":
        g2, s2 = draw(st.integers(0, len(r0) - 1)), draw(st.integers(0, 3))
        r0[g][s], r0[g2][s2] = r0[g2][s2], r0[g][s]
    elif kind == "overwrite":
        r0[g][s] = draw(st.sampled_from([INF, -1, u]) | st.integers(0, u - 1))
    elif kind == "shuffle":
        r0[g] = draw(st.permutations(r0[g]))
    elif kind == "re-pair":
        firsts = draw(st.permutations([x for game in r0 if INF not in game for x in game[:2]]))
        r0 = [game for game in r0 if INF in game] + [
            [x, y, -x % u, -y % u] for x, y in zip(firsts[::2], firsts[1::2])]
    elif kind == "drop":
        del r0[g][s]
    elif kind == "extra":
        r0.append(draw(st.lists(st.sampled_from([INF, *range(u)]), min_size=4, max_size=4)))
    elif kind == "repeat":
        pairs = [(game[i], game[i + 2]) for game in r0 for i in (0, 1)]
        (a, c), (b, d) = draw(st.lists(st.sampled_from(pairs), min_size=2, max_size=2))
        r0.append([a, b, c, d] if draw(st.booleans()) else [c, d, a, b])
    elif kind == "move-inf":
        plain = [(i, k) for i, game in enumerate(r0) if INF not in game for k in range(4)]
        i, k = draw(st.sampled_from(plain))
        held = [(j, game.index(INF)) for j, game in enumerate(r0) if INF in game]
        if held:
            (j, w), = held
            r0[i][k], r0[j][w] = INF, r0[i][k]
        else:
            r0[i][k] = INF
    elif kind == "grow":
        r0[g].append(r0[g][s])
    return tuple(map(tuple, r0)), u


def _verdicts(t: WhistTournament) -> dict:
    return verify_whist(t, ("basic", "directed", "ordered"))


@settings(max_examples=300, deadline=None)
@given(corrupted_starters())
def test_starter_level_checks_equal_seat_level_checks(start):
    r0, u = start
    t = develop_rounds(r0, u)
    ref = _reference_development(r0, u)
    assert t.cyclic and t.rounds == ref and t.rounds[0] == ref[0]
    assert _verdicts(t) == _verdicts(replace(t, rounds=tuple(t.rounds)))


# The frozenset and sorting versions of zcps and of the difference-matrix
# checks, kept as references for the mark and set-size versions.

def _frozenset_zcps(t: WhistTournament) -> CheckResult:
    if not t.cyclic:
        return CheckResult(False, "tournament is not cyclically developed")
    for rnd in t.rounds[:1]:
        if any(len(g) != 4 for g in rnd):
            return CheckResult(False, f"a round must have {t.v // 4} games of four seats")
    u = t.u
    starter = {frozenset((x, (-x) % u)) for x in range(1, u)}
    if t.v == u + 1:
        starter.add(frozenset((INF, 0)))
    got = {frozenset(p) for a, b, c, d in t.rounds[0] for p in ((a, c), (b, d))}
    if got != starter:
        return CheckResult(False, "initial-round partner pairs are not the patterned starter")
    return CheckResult(True)


def _sorted_cdm_from_round(r0) -> DifferenceMatrix:
    games = [tuple(g) for g in r0]
    if any(INF in g for g in games):
        raise ValueError("rounds with the adjoined player do not yield difference matrices")
    v = 4 * len(games) + 1
    players = sorted(seat for g in games for seat in g)
    if players != list(range(1, v)):
        raise ValueError("round must contain every player of Z_v except 0 exactly once")
    partner_diffs = sorted(
        diff % v for a, b, c, d in games for diff in (a - c, c - a, b - d, d - b))
    if partner_diffs != list(range(1, v)):
        raise ValueError("partner differences do not tile Z_v - {0}")
    directed_diffs = sorted((b - a) % v for g in games for a, b in _left(*g))
    if directed_diffs != list(range(1, v)):
        raise ValueError("directed condition fails: left-opponent differences do not tile")
    rows = [[0] for _ in range(5)]
    for a, b, c, d in games:
        block = (a, b, c, d)
        rows[0].extend([0, 0, 0, 0])
        for r in range(4):
            rows[r + 1].extend(block[r:] + block[:r])
    return DifferenceMatrix(5, v, tuple(tuple(r) for r in rows))


def _sorted_verify_cdm(d: DifferenceMatrix) -> CdmReport:
    failures = []
    for r in range(d.k):
        for s in range(r + 1, d.k):
            diffs = sorted((d.rows[r][l] - d.rows[s][l]) % d.v for l in range(len(d.rows[r])))
            if diffs != list(range(d.v)):
                failures.append((r, s))
    return CdmReport(not failures, tuple(failures))


@settings(max_examples=300, deadline=None)
@given(st.one_of(corrupted_starters().map(lambda start: develop_rounds(*start)), whist_corpus()),
       st.booleans())
def test_zcps_agrees_with_the_frozenset_reference(t, other_v):
    if other_v:  # v is read off the rounds: no tournament holds the other one
        with pytest.raises(TypeError):
            replace(t, v=2 * t.u + 1 - t.v)
    assert verify_whist(t, ("zcps",))["zcps"] == _frozenset_zcps(t)


def test_zcps_keeps_the_set_rule_on_even_u_and_repeated_pairs():
    for u, r0 in EVEN_STARTS.items():
        assert verify_whist(develop_rounds(r0, u), ("zcps",))["zcps"] == CheckResult(True)
    again = initial_round(PS13) + (initial_round(PS13)[1],)
    assert verify_whist(develop_rounds(again, 13), ("zcps",))["zcps"] == CheckResult(True)
    for lost in (((1, 2, 7, 6), (3, 2, 5, 6)),  # {4} never partnered, {2, 6} twice
                 ((1, 2, 7, 6), (3, 0, 5, 0))):  # {0} in place of {4}
        t = develop_rounds(lost, 8)
        assert verify_whist(t, ("zcps",))["zcps"] == _frozenset_zcps(t)
        assert not _frozenset_zcps(t).passed


def _outcome(f, arg):
    try:
        return f(arg)
    except ValueError as e:
        return str(e)


@settings(max_examples=300, deadline=None)
@given(corrupted_starters())
def test_cdm_from_round_agrees_with_the_sorting_reference(start):
    r0, _ = start
    assert _outcome(cdm_from_round, r0) == _outcome(_sorted_cdm_from_round, r0)


CDM_ROUNDS = (initial_round(PS5), initial_round(PS13), initial_round(get("ps-133").pair_set()))


@st.composite
def moved_matrices(draw):
    """A small random matrix, or one from a directed round, often with one entry moved.

    A move by a multiple of v keeps the entry's residue, so the matrix stays valid.
    """
    if draw(st.booleans()):  # rows may be a column short or long, no row shorter than one above
        k, v = draw(st.integers(0, 5)), draw(st.integers(1, 9))
        lengths = sorted(draw(st.lists(st.sampled_from([v - 1, v, v, v, v + 1]),
                                       min_size=k, max_size=k)))
        return DifferenceMatrix(k, v, tuple(
            tuple(draw(st.lists(st.integers(-v, 2 * v), min_size=n, max_size=n))) for n in lengths))
    m = cdm_from_round(draw(st.sampled_from(CDM_ROUNDS)))
    rows = [list(r) for r in m.rows]
    if draw(st.booleans()):
        r, l = draw(st.integers(0, m.k - 1)), draw(st.integers(0, m.v - 1))
        rows[r][l] += draw(st.integers(-m.v, m.v) | st.sampled_from([-2 * m.v, 3 * m.v]))
    return DifferenceMatrix(m.k, m.v, tuple(map(tuple, rows)))


@settings(max_examples=300, deadline=None)
@given(moved_matrices())
def test_verify_cdm_agrees_with_the_sorting_reference(m):
    assert verify_cdm(m) == _sorted_verify_cdm(m)


APS27_ROUND = initial_round(get("aps-27-3-3").pair_set(), alpha=3)


def test_developed_rounds_index_and_slice_like_the_tuple_of_rounds():
    t = develop_rounds(APS27_ROUND, 27)
    ref = _reference_development(APS27_ROUND, 27)
    assert isinstance(t.rounds, CyclicRounds) and len(t.rounds) == 27
    for j in range(-27, 27):
        assert t.rounds[j] == ref[j]
    for j in (27, 28, -28, -100):
        with pytest.raises(IndexError):
            t.rounds[j]
    for cut in (slice(None), slice(3, 20, 4), slice(None, None, -1), slice(-5, None),
                slice(20, 3, -3), slice(-30, 5, 2), slice(30, 40), slice(5, 5)):
        got = t.rounds[cut]
        assert type(got) is tuple and got == ref[cut]
    assert tuple(t.rounds) == ref and list(t.rounds) == list(ref)
    assert [rnd for rnd in t.rounds] == list(ref)
    with pytest.raises(TypeError):
        t.rounds[0] = ref[1]


def test_developed_rounds_compare_and_hash_as_the_tuple_of_rounds():
    t = develop_rounds(APS27_ROUND, 27)
    ref = _reference_development(APS27_ROUND, 27)
    assert t.rounds == ref and ref == t.rounds
    assert not t.rounds != ref and not ref != t.rounds
    assert hash(t.rounds) == hash(ref)
    for other in (ref[:-1], ref[:-1] + ref[:1], ref[1:] + ref[:1]):
        assert t.rounds != other and other != t.rounds
    assert t.rounds != list(ref)  # a tuple is unequal to a list of the same rounds
    assert t.rounds == develop_rounds(list(APS27_ROUND), 27).rounds
    assert t.rounds != develop_rounds(APS27_ROUND[1:], 27).rounds
    assert t.rounds != develop_rounds(APS27_ROUND, 26).rounds
    assert develop_rounds(APS27_ROUND, 0).rounds == () == develop_rounds((), 0).rounds


def test_developed_rounds_reduce_the_seats_of_round_0():
    unreduced = tuple(tuple(seat if seat == INF else seat + 27 * (1 - 2 * (seat % 2))
                            for seat in g) for g in APS27_ROUND)
    t = develop_rounds(unreduced, 27)
    assert t.rounds[0] == APS27_ROUND and t.rounds == develop_rounds(APS27_ROUND, 27).rounds


def test_a_developed_tournament_equals_its_json_round_trip():
    for r0, u in ((APS27_ROUND, 27), (initial_round(PS13), 13)):
        t = develop_rounds(r0, u)
        back = WhistTournament.from_json(t.to_json())
        assert type(back.rounds) is CyclicRounds and back.cyclic and back.v == t.v
        assert develop_rounds(r0, u) == back and back == t
        assert hash(t) == hash(back)


def test_cyclic_flag_cannot_be_forged():
    # Only CyclicRounds are cyclic, and they hold a development of round 0 over Z_u.
    t = develop_rounds(initial_round(PS13), 13)
    assert not WhistTournament(13, tuple(t.rounds)).cyclic
    assert WhistTournament(13, CyclicRounds(t.rounds[0], 13)) == t
    with pytest.raises(TypeError):
        replace(t, cyclic=False)
    with pytest.raises(AttributeError):
        t.cyclic = False
    # Over another modulus the cyclic checks would read round 0 over Z_u while
    # the rounds develop it over Z_13, and the two would disagree.
    for u in (12, 14, 0, -3):
        with pytest.raises(ValueError, match="over Z_13, not over Z_"):
            WhistTournament(u, CyclicRounds(t.rounds[0], 13))
    assert WhistTournament(-3, CyclicRounds(t.rounds[0], 0)).rounds == ()


def test_directed_names_a_single_miscounted_difference():
    # Every difference of Z_8 - {0} once but 4, twice: the counts alone must not pass it.
    t = develop_rounds(((0, 7, 1, 5), (1, 6, 2, 0)), 8)
    miscount = CheckResult(False, "ordered pair (0, 4) covered 2 times")
    assert verify_whist(t, ("directed",))["directed"] == miscount
    assert verify_whist(replace(t, rounds=tuple(t.rounds)), ("directed",))["directed"] == miscount


def test_whist_detects_perturbation():
    games = [list(g) for g in initial_round(PS13)]
    games[0][0], games[1][0] = games[1][0], games[0][0]
    t = develop_rounds([tuple(g) for g in games], 13)
    result = verify_whist(t, ("basic",))["basic"]
    assert not result.passed
    assert "pair" in result.detail


def test_basic_refuses_a_round_of_games_without_four_seats():
    seats = [seat for g in initial_round(PS13) for seat in g]
    t = develop_rounds((tuple(seats[:3]), tuple(seats[3:8]), tuple(seats[8:])), 13)
    for copy in (t, replace(t, rounds=tuple(t.rounds))):
        result = verify_whist(copy, ("basic",))["basic"]
        assert result == CheckResult(False, "a round must have 3 games of four seats")


@pytest.mark.parametrize("check", ["zcps", "directed", "ordered"])
def test_checks_that_count_seats_refuse_a_game_without_four_seats(check):
    r0 = [list(g) for g in initial_round(PS13)]
    del r0[1][2]
    t = develop_rounds([tuple(g) for g in r0], 13)
    misseated = CheckResult(False, "a round must have 3 games of four seats")
    assert verify_whist(t, (check,))[check] == misseated
    copy = verify_whist(replace(t, rounds=tuple(t.rounds)), (check,))[check]
    assert copy == (CheckResult(False, "tournament is not cyclically developed")
                    if check == "zcps" else misseated)


def test_basic_names_the_partner_pair_that_a_lost_round_leaves_out():
    # Each round is seated correctly, but the pairs of round 5 never meet.
    payload = develop_rounds(initial_round(PS13), 13).to_json()
    payload["rounds"][5] = payload["rounds"][6]
    result = verify_whist(WhistTournament.from_json(payload), ("basic",))["basic"]
    assert result == CheckResult(False, "partner pair (0, 10) covered 0 times")


def _both_ways_basic(t: WhistTournament) -> CheckResult:
    """basic's result from a seat-level tally of every partner and opponent pair both ways."""
    v, players = t.v, t.players
    if v % 4 not in (0, 1):
        return CheckResult(False, f"{v} players is not 0 or 1 modulo 4")
    expected_rounds = v - 1 if v % 4 == 0 else v
    if len(t.rounds) != expected_rounds:
        return CheckResult(False, f"expected {expected_rounds} rounds, got {len(t.rounds)}")
    for rnd in t.rounds[:1] if t.cyclic else t.rounds:
        if len(rnd) != v // 4 or any(len(g) != 4 for g in rnd):
            return CheckResult(False, f"a round must have {v // 4} games of four seats")
        seen = [seat for g in rnd for seat in g]
        if len(set(seen)) != len(seen):
            return CheckResult(False, "a player appears twice in one round")
        if not set(seen) <= set(players):
            return CheckResult(False, "unknown player in a round")
    for name, rule, want in (("partner", lambda a, b, c, d: ((a, c), (b, d)), 1),
                             ("opponent", _left, 2)):
        tally = Counter(pair for rnd in t.rounds for g in rnd for x, y in rule(*g)
                        for pair in ((x, y), (y, x)))
        for x in players:
            for y in players:
                if tally[(x, y)] != (want if x != y else 0):
                    return CheckResult(False, f"{name} pair ({x}, {y}) covered "
                                              f"{tally[(x, y)]} times")
    return CheckResult(True)


@settings(max_examples=300, deadline=None)
@given(st.one_of(corrupted_starters().map(lambda start: develop_rounds(*start)), whist_corpus()))
def test_basic_counts_each_pair_once_as_the_both_ways_tally_does(t):
    """Developed, seat-swapped and one-round-altered schedules, cyclic or read as they are."""
    assert verify_whist(t, ("basic",))["basic"] == _both_ways_basic(t)
    seat_level = replace(t, rounds=tuple(t.rounds))
    assert verify_whist(seat_level, ("basic",))["basic"] == _both_ways_basic(t)


@pytest.mark.parametrize("v, u, start, alpha", [(27, 27, "aps-27-3-3", 3), (14, 13, "ps-13", None)])
def test_tournament_refuses_a_v_its_rounds_contradict(v, u, start, alpha):
    # v = u with INF in every round, or v = u + 1 with INF in none, cannot be
    # built: v is read off the rounds, cyclic or not, and is no field to replace.
    t = develop_rounds(initial_round(get(start).pair_set(), alpha), u)
    for tournament in (t, WhistTournament(u, tuple(t.rounds))):
        assert tournament.v == 2 * u + 1 - v and len(tournament.players) == tournament.v
        with pytest.raises(TypeError):
            replace(tournament, v=v)


def test_whist_json_round_trip():
    t = develop_rounds(initial_round(get("aps-27-3-3").pair_set(), alpha=3), 27)
    back = WhistTournament.from_json(t.to_json())
    assert back.rounds == t.rounds and back.v == t.v and back.u == t.u


def test_zcps_requires_cyclic_flag():
    t = develop_rounds(initial_round(PS13), 13)
    assert not verify_whist(replace(t, rounds=tuple(t.rounds)), ("zcps",))["zcps"].passed


@pytest.mark.parametrize("r0", [(), ((INF, 0, 1, 2),)])
@pytest.mark.parametrize("u", [0, -3])
def test_zcps_fails_in_one_line_on_a_tournament_without_rounds(r0, u):
    t = develop_rounds(r0, u)
    assert t.cyclic and len(t.rounds) == 0 and t.v == u and t.players == []
    results = verify_whist(t)
    for check in ("zcps", "directed", "ordered"):
        assert results[check] == CheckResult(False, "tournament has no initial round")
    assert not results["basic"].passed


@pytest.mark.parametrize("v", [1, 5])
def test_every_check_fails_on_a_tournament_read_with_no_rounds(v):
    t = WhistTournament.from_json({"v": v, "rounds": []})
    assert not t.cyclic
    assert not any(result.passed for result in verify_whist(t).values())
    for check in ("directed", "ordered"):
        assert verify_whist(t)[check] == CheckResult(False, "tournament has no initial round")


def test_from_json_works_out_cyclic_from_the_rounds():
    t = develop_rounds(initial_round(PS13), 13)
    payload = t.to_json()
    assert "cyclic" not in payload and WhistTournament.from_json(payload).cyclic
    payload["rounds"][5] = payload["rounds"][6]
    payload["cyclic"] = True
    assert not WhistTournament.from_json(payload).cyclic
    assert not WhistTournament.from_json({"v": 13, "rounds": payload["rounds"][:1]}).cyclic
    assert not WhistTournament.from_json({"v": 13, "rounds": []}).cyclic


@pytest.mark.parametrize("seat, shown", [
    (True, "True"), (False, "False"), (2.0, "2.0"), ("x", "'x'"), ("INF", "'INF'"), (None, "None"),
])
def test_from_json_rejects_a_seat_that_is_not_an_int_or_inf(seat, shown):
    t = develop_rounds(initial_round(get("aps-27-3-3").pair_set(), alpha=3), 27)
    payload = t.to_json()
    payload["rounds"][3][2][1] = seat
    with pytest.raises(ValueError, match=re.escape(f"seat must be of type int, got {shown}")):
        WhistTournament.from_json(payload)
    payload["rounds"][3][2] = tuple(payload["rounds"][3][2])
    with pytest.raises(ValueError, match="game must be of type list, got"):
        WhistTournament.from_json(payload)


def test_directed_and_ordered_reject_a_player_paired_with_itself():
    # An extra game (0, 0, 0, 0) in every round adds only self-pairs, which
    # the full count must not overlook once the difference shortcut is off.
    t = develop_rounds(initial_round(PS13) + ((0, 0, 0, 0),), 13)
    results = verify_whist(replace(t, rounds=tuple(t.rounds)), ("directed", "ordered"))
    assert not results["directed"].passed and not results["ordered"].passed
    assert "(0, 0)" in results["directed"].detail


def test_cdm_from_ps5():
    matrix = cdm_from_round(initial_round(PS5))
    assert matrix.rows == (
        (0, 0, 0, 0, 0),
        (0, 1, 2, 4, 3),
        (0, 2, 4, 3, 1),
        (0, 4, 3, 1, 2),
        (0, 3, 1, 2, 4),
    )
    assert verify_cdm(matrix).valid


def test_cdm_from_ps13():
    matrix = cdm_from_round(initial_round(PS13))
    assert (matrix.k, matrix.v) == (5, 13)
    assert len(matrix.rows[0]) == 13
    assert verify_cdm(matrix).valid


def test_cdm_rejects_bad_rounds():
    # all partner pairs patterned but a repeated left-difference across games
    bad = ((1, 3, 12, 10), (2, 5, 11, 8), (4, 6, 9, 7))
    with pytest.raises(ValueError, match="directed"):
        cdm_from_round(bad)
    with pytest.raises(ValueError, match="player"):
        cdm_from_round(((1, 2, 4, 3), (1, 2, 4, 3)))
    with pytest.raises(ValueError):
        cdm_from_round(initial_round(get("aps-27-3-3").pair_set(), alpha=3))


def test_verify_cdm_oracles():
    table = DifferenceMatrix(
        5, 5, tuple(tuple(r * l % 5 for l in range(5)) for r in range(5)))
    assert verify_cdm(table).valid  # multiplication table: classical example
    zero = DifferenceMatrix(2, 3, ((0, 0, 0), (0, 0, 0)))
    report = verify_cdm(zero)
    assert not report.valid and report.failures == ((0, 1),)
    json_round = DifferenceMatrix.from_json(table.to_json())
    assert json_round == table
