"""Whist tournaments and cyclic difference matrices.

A game (a, b, c, d) seats four players round a table: a/c are partners (and
first-kind players), b/d are partners (second-kind); every adjacent pair is
an opponent pair.  A pair set gives the initial round (x, y, -x, -y); cyclic
development by +1 then yields the full schedule.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain
from typing import Union

from .core import PairSet, PPSSpec, _trusted, json_field, verify_pps

INF = "inf"  # the adjoined player for tournaments on 4n players; INF + 1 = INF

Seat = Union[int, str]
Game = tuple[Seat, Seat, Seat, Seat]


def partner_pairs(game: Game) -> tuple[tuple[Seat, Seat], ...]:
    a, b, c, d = game
    return (a, c), (b, d)


def opponent_pairs(game: Game) -> tuple[tuple[Seat, Seat], ...]:
    """Each seat with its left-hand opponent, the next seat round the table."""
    a, b, c, d = game
    return (a, b), (b, c), (c, d), (d, a)


def _first_kind_pairs(game: Game) -> tuple[tuple[Seat, Seat], ...]:
    a, b, c, d = game
    return (a, b), (a, d), (c, b), (c, d)


def _pair_counts(players, pairs) -> list[int]:
    """Entry i * n + j counts the pairs (players[i], players[j]), n = len(players).

    A pair with a seat that is no player counts nowhere.
    """
    n = len(players)
    index = {p: i for i, p in enumerate(players)}
    counts = [0] * (n * n)
    for x, y in pairs:
        i, j = index.get(x), index.get(y)
        if i is not None and j is not None:
            counts[i * n + j] += 1
    return counts


def _seat_pairs(t: WhistTournament, pairs_of):
    return (p for rnd in t.rounds for g in rnd for p in pairs_of(g))


def initial_round(s: PairSet, alpha: int | None = None) -> tuple[Game, ...]:
    """Games (x, y, -x, -y) of the starting round.

    Without alpha the pair set must be a valid PS.  With alpha it must be a
    valid APS(v, alpha, alpha) -- equal parameters on both sides -- and the
    round is prefixed with the special game (INF, alpha, 0, -alpha).
    """
    v = s.v
    if alpha is None:
        report = verify_pps(s, PPSSpec.ps(v))
        if not report.valid:
            raise ValueError("pair set is not a valid PS; cannot seed a round")
        games: list[Game] = []
    else:
        report = verify_pps(s, PPSSpec.aps(v, alpha, alpha))
        if not report.valid:
            raise ValueError(
                f"pair set is not a valid APS({v},{alpha},{alpha}); "
                "the special game needs equal parameters on both sides")
        games = [(INF, alpha % v, 0, (-alpha) % v)]
    games.extend((x, y, (-x) % v, (-y) % v) for x, y in s.pairs)
    return tuple(games)


@dataclass(frozen=True)
class WhistTournament:
    """A full schedule; players are Z_u, plus INF when v = u + 1.

    The constructor ties v to the rounds: v = u + 1 exactly when a round
    seats INF, else v = u.  develop_rounds and from_json derive v that way.

    cyclic says that the rounds are the cyclic development of round 0; the
    constructor refuses cyclic=True on any other rounds, so the checks may
    work from round 0 alone.  develop_rounds gives a :class:`CyclicRounds`,
    which develops a round only when it is read; other rounds are a tuple.
    """

    v: int
    u: int
    rounds: Sequence[tuple[Game, ...]]
    cyclic: bool

    def __post_init__(self):
        v, u = self.v, self.u
        if v not in (u, u + 1):
            raise ValueError(f"v = {v} must be u = {u} or u + 1 = {u + 1}")
        if (v > u) != any(INF in g for rnd in self.rounds for g in rnd):
            raise ValueError(f"v = u + 1 = {v}, but no round seats the adjoined player {INF!r}"
                             if v > u else f"v = u = {v}, but a round seats the adjoined "
                             f"player {INF!r}")
        if self.cyclic and not _is_development(self.rounds, self.u):
            raise ValueError("cyclic is set, but the rounds are not the cyclic "
                             "development of round 0")

    @property
    def players(self) -> list[Seat]:
        base: list[Seat] = list(range(self.u))
        return base + [INF] if self.v == self.u + 1 else base

    def to_json(self) -> dict:
        return {"v": self.v,
                "rounds": [[list(g) for g in rnd] for rnd in self.rounds]}

    @classmethod
    def from_json(cls, obj: dict) -> "WhistTournament":
        rounds = tuple(tuple(map(_game_from_json, json_field(rnd, list, "round")))
                       for rnd in json_field(obj.get("rounds"), list, "rounds"))
        v = json_field(obj.get("v"), int, "v")
        if v < 1:
            raise ValueError(f"v must be positive, got {v}")
        u = v - 1 if any(INF in g for rnd in rounds for g in rnd) else v
        return _trusted(cls, v=v, u=u, rounds=rounds, cyclic=_is_development(rounds, u))


def _game_from_json(g) -> Game:
    """A game read from JSON: a list of four seats, each an int or INF, checked in one pass."""
    if (type(g) is not list or len(g) != 4
            or not all(type(seat) is int or seat == INF for seat in g)):
        for seat in json_field(g, list, "game"):  # raises on the first bad seat
            if seat != INF:
                json_field(seat, int, "seat")
        raise ValueError(f"game must have four seats, got {g}")
    return tuple(g)


def _development(r0, u: int, shifts=None):
    """Yield round 0 shifted by each j of shifts over Z_u, INF staying fixed.

    shifts defaults to 0, 1, ..., u - 1; each j must lie in that range.
    """
    if u < 1:
        return
    # Four-seat games of integers are shifted by a lookup in the rotated ring;
    # games with INF (or of another shape) are shifted seat by seat and put
    # back at their place.
    plain = [len(g) == 4 and all(isinstance(seat, int) for seat in g) for g in r0]
    special = [(i, g) for i, g in enumerate(r0) if not plain[i]]
    seats = [seat % u for g, p in zip(r0, plain) if p for seat in g]
    ring = list(range(u))
    for j in range(u) if shifts is None else shifts:
        shifted = map((ring[j:] + ring[:j]).__getitem__, seats)  # a -> (a + j) % u
        rnd = list(zip(shifted, shifted, shifted, shifted))
        for i, g in special:
            rnd.insert(i, tuple(seat if seat == INF else (seat + j) % u for seat in g))
        yield tuple(rnd)


def _is_development(rounds, u: int) -> bool:
    """Whether rounds are the cyclic development of rounds[0], stopping at the first miss."""
    return (bool(rounds) and len(rounds) == u
            and all(rnd == dev for rnd, dev in zip(rounds, _development(rounds[0], u))))


class CyclicRounds(Sequence):
    """The u rounds of a cyclic schedule, each developed from round 0 when it is read.

    A read-only sequence: indexing develops one round, a slice gives a tuple of
    rounds and iteration develops them in turn.  It compares and hashes equal
    to the tuple of its rounds.
    """

    __slots__ = ("_r0", "_u")

    def __init__(self, r0: tuple[Game, ...], u: int):
        """r0 is round 0 as the development gives it, seats reduced modulo u."""
        self._r0, self._u = r0, max(u, 0)

    def __len__(self) -> int:
        return self._u

    def __getitem__(self, j):
        if isinstance(j, slice):
            return tuple(_development(self._r0, self._u, range(self._u)[j]))
        j = range(self._u)[j]  # IndexError past either end
        return self._r0 if j == 0 else next(_development(self._r0, self._u, (j,)))

    def __iter__(self):
        return _development(self._r0, self._u)

    def __eq__(self, other):
        if isinstance(other, CyclicRounds):
            return self._u == other._u and (not self._u or self._r0 == other._r0)
        if isinstance(other, tuple):
            return len(other) == self._u and all(map(operator.eq, self, other))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"CyclicRounds({self._r0!r}, {self._u})"


def develop_rounds(r0: tuple[Game, ...] | list[Game], u: int) -> WhistTournament:
    """Cyclic development: round j adds j to every seat, INF staying fixed.

    Only round 0 is built here; the rounds are a :class:`CyclicRounds`.
    """
    r0 = tuple(tuple(g) for g in r0)
    has_inf = any(INF in g for g in r0)
    reduced = () if u < 1 else tuple([tuple([seat if seat == INF else seat % u for seat in g])
                                      for g in r0])
    rounds = CyclicRounds(reduced, u)
    return _trusted(WhistTournament, v=u + 1 if has_inf else u, u=u, rounds=rounds, cyclic=True)


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    detail: str = ""


def _starter_counts(t: WhistTournament, pairs_of):
    """Count the pairs of round 0: those in Z_u by difference y - x, those with INF by shape.

    In a cyclic tournament round j covers (x + j, y + j) for each pair (x, y)
    of round 0.  So by_diff[d] is how often each pair (z, z + d) is covered,
    and with_inf[(0, INF)] how often each (z, INF) is, whatever z; likewise
    (INF, z).  (INF, INF) is the same pair in all u rounds.
    """
    u = t.u
    by_diff = [0] * u
    with_inf = {(0, INF): 0, (INF, 0): 0, (INF, INF): 0}
    for g in t.rounds[0]:
        inf_game = INF in g  # tested once per game, not twice per pair
        for x, y in pairs_of(g):
            if inf_game and (x == INF or y == INF):
                with_inf[(INF if x == INF else 0, INF if y == INF else 0)] += u if x == y else 1
            else:
                by_diff[(y - x) % u] += 1
    return by_diff, with_inf


def _check_basic(t: WhistTournament) -> CheckResult:
    """The seating rules, then every pair partners once and opposes twice.

    No absentee rule is needed: n four-seat games of distinct players leave v - 4n
    out of each round, and whoever partners the other v - 1 once sits out one round.
    """
    v = t.v
    if v % 4 not in (0, 1):
        return CheckResult(False, f"{v} players is not 0 or 1 modulo 4")
    n = v // 4
    expected_rounds = v - 1 if v % 4 == 0 else v
    if len(t.rounds) != expected_rounds:
        return CheckResult(False, f"expected {expected_rounds} rounds, got {len(t.rounds)}")
    everyone = set(t.players)
    for rnd in _seated_rounds(t):
        if len(rnd) != n or any(len(g) != 4 for g in rnd):
            return CheckResult(False, f"a round must have {n} games of four seats")
        seen = [seat for g in rnd for seat in g]
        if len(set(seen)) != len(seen):
            return CheckResult(False, "a player appears twice in one round")
        if not set(seen) <= everyone:
            return CheckResult(False, "unknown player in a round")
    partners = _check_pair_rule(t, partner_pairs, "partner", 1, unordered=True)
    if not partners.passed:
        return partners
    return _check_pair_rule(t, opponent_pairs, "opponent", 2, unordered=True)


def _seated_rounds(t: WhistTournament):
    """The rounds whose seating the checks read: round 0 alone on cyclic input.

    Round j of a cyclic tournament is round 0 under a bijection of the
    players, so it is seated correctly exactly when round 0 is.
    """
    return (t.rounds[0],) if t.cyclic else t.rounds


def _misseated(t: WhistTournament) -> CheckResult | None:
    """The failure of a tournament with no rounds, or basic's when a game the
    checks read (round 0 on cyclic input) lacks four seats."""
    if not t.rounds:
        return CheckResult(False, "tournament has no initial round")
    for rnd in _seated_rounds(t):
        if any(len(g) != 4 for g in rnd):
            return CheckResult(False, f"a round must have {t.v // 4} games of four seats")
    return None


def _check_zcps(t: WhistTournament) -> CheckResult:
    """Round 0's partner pairs, as a set, are the ±classes of Z_u - {0}, and {INF, 0} with INF.

    For even u the class of u/2 is the pair (u/2, u/2).  A pair may repeat.
    """
    if not t.cyclic:
        return CheckResult(False, "tournament is not cyclically developed")
    misseated = _misseated(t)
    if misseated:
        return misseated
    u = t.u
    miss = CheckResult(False, "initial-round partner pairs are not the patterned starter")
    # marks[x] once x partners -x; the seats of round 0 lie in Z_u.  INF, if the
    # rounds seat it (exactly when v = u + 1), must partner 0.
    marks = bytearray(u)
    for g in t.rounds[0]:
        for x, y in partner_pairs(g):
            if x == INF or y == INF:
                if 0 not in (x, y):
                    return miss
            elif (x + y) % u:
                return miss
            else:
                marks[x] = marks[y] = 1
    if marks[0] or marks.count(0) != 1:
        return miss
    return CheckResult(True)


def _check_pair_rule(t: WhistTournament, pairs_of, name: str, want: int,
                     unordered: bool = False) -> CheckResult:
    """Every ordered pair of distinct players want times among pairs_of(game), none with itself.

    With unordered, pairs_of gives each pair once in one order, and a pair
    (x, y) counts what (x, y) and (y, x) count together: its unordered count.
    """
    if t.cyclic:
        # Every pair (z, z + d) is covered alike, and so is every (z, INF) and
        # every (INF, z): the counts decide, and the first miscount in player
        # order is in row 0 or INF.
        by_diff, with_inf = _starter_counts(t, pairs_of)
        if unordered:  # a pair counted at y - x = d is also (y, x), at x - y = -d
            by_diff = list(map(operator.add, by_diff, by_diff[:1] + by_diff[:0:-1]))
            inf_once = with_inf[(0, INF)] + with_inf[(INF, 0)]
            with_inf = {(0, INF): inf_once, (INF, 0): inf_once,
                        (INF, INF): 2 * with_inf[(INF, INF)]}
        has_inf = t.v == t.u + 1
        if not by_diff[0] and by_diff.count(want) == t.u - 1 and (
                not has_inf or with_inf == {(0, INF): want, (INF, 0): want, (INF, INF): 0}):
            return CheckResult(True)
        covered = [((0, d), by_diff[d]) for d in range(t.u)]
        if has_inf:
            covered += with_inf.items()
    else:
        players = t.players
        n = len(players)
        counts = _pair_counts(players, _seat_pairs(t, pairs_of))
        covered = (((x, y), counts[i * n + j] + counts[j * n + i] if unordered
                    else counts[i * n + j])
                   for i, x in enumerate(players) for j, y in enumerate(players))
    for (x, y), count in covered:
        if count != (want if x != y else 0):
            return CheckResult(False, f"{name} pair ({x}, {y}) covered {count} times")
    return CheckResult(True)


_CHECKS = {
    "basic": _check_basic,
    "zcps": _check_zcps,
    "directed": lambda t: _misseated(t) or _check_pair_rule(t, opponent_pairs, "ordered", 1),
    "ordered": lambda t: _misseated(t) or _check_pair_rule(t, _first_kind_pairs, "ordered", 1),
}


def verify_whist(t: WhistTournament,
                 checks: tuple[str, ...] = ("basic", "zcps", "directed", "ordered"),
                 ) -> dict[str, CheckResult]:
    unknown = set(checks) - set(_CHECKS)
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}")
    return {name: _CHECKS[name](t) for name in checks}


@dataclass(frozen=True)
class DifferenceMatrix:
    """k x v array over Z_v; every row pair's differences tile Z_v once."""

    k: int
    v: int
    rows: tuple[tuple[int, ...], ...]

    def to_json(self) -> dict:
        return {"k": self.k, "v": self.v, "rows": [list(r) for r in self.rows]}

    @classmethod
    def from_json(cls, obj: dict) -> "DifferenceMatrix":
        rows = tuple(tuple(json_field(x, int, "row entry") for x in json_field(r, list, "row"))
                     for r in json_field(obj.get("rows"), list, "rows"))
        k, v = json_field(obj.get("k"), int, "k"), json_field(obj.get("v"), int, "v")
        if v < 1 or len(rows) != k or any(len(r) != v for r in rows):
            raise ValueError(f"rows must form a {k} x {v} array with v positive")
        return cls(k, v, rows)


def cdm_from_round(r0: tuple[Game, ...] | list[Game]) -> DifferenceMatrix:
    """5-row difference matrix from the initial round of a directed schedule.

    Each game contributes a zero row atop its four cyclic seat rotations;
    a leading all-zero column completes the matrix.  This works exactly when
    the round has every nonzero player once, the partner differences tile
    Z_v - {0}, and the left-opponent differences tile Z_v - {0} (the
    directed condition).
    """
    games = [tuple(g) for g in r0]
    if any(INF in g for g in games):
        raise ValueError("rounds with the adjoined player do not yield difference matrices")
    v = 4 * len(games) + 1
    # Once the seats are 1, ..., v - 1, the 4n = v - 1 differences of distinct
    # seats are nonzero, so they tile Z_v - {0} when no two are equal.
    seats = [seat for g in games for seat in g]
    if len(seats) != v - 1 or set(seats) != set(range(1, v)):
        raise ValueError("round must contain every player of Z_v except 0 exactly once")
    if len({diff % v for a, b, c, d in games for diff in (a - c, c - a, b - d, d - b)}) != v - 1:
        raise ValueError("partner differences do not tile Z_v - {0}")
    if len({(b - a) % v for g in games for a, b in opponent_pairs(g)}) != v - 1:
        raise ValueError("directed condition fails: left-opponent differences do not tile")
    # Row r + 1 is 0, then each game's seats rotated left by r.
    columns = [seats[i::4] for i in range(4)]
    rows = [(0,) * v] + [(0, *chain.from_iterable(zip(*columns[r:], *columns[:r])))
                         for r in range(4)]
    return DifferenceMatrix(5, v, tuple(rows))


@dataclass(frozen=True)
class CdmReport:
    valid: bool
    failures: tuple[tuple[int, int], ...]  # row index pairs whose differences misfire


def verify_cdm(d: DifferenceMatrix) -> CdmReport:
    """Each row pair's v differences, one a column, are v distinct residues."""
    v = d.v
    failures = []
    for r in range(d.k):
        for s in range(r + 1, d.k):
            if len(d.rows[r]) != v or len({(x - y) % v for x, y in zip(d.rows[r], d.rows[s])}) != v:
                failures.append((r, s))
    return CdmReport(not failures, tuple(failures))
