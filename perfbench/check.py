"""Independent answer checks, run outside the timed interval.

The counters here are the benchmark's own: no check calls verify_pps,
verify_ooc, verify_cdm or aps_necessary, so a change that breaks one of those
verifiers cannot make a wrong answer pass.  Each check returns None for a
correct answer, or a short reason.
"""

from __future__ import annotations

from collections import Counter

from designforge.designs import INF
from workloads import WHIST_APS, Inputs, pm, sqrt2


def tiles(v: int, pairs, a1: frozenset, a2: frozenset) -> bool:
    """+-{x, y} tiles Z_v - a1 and +-{x+y, x-y} tiles Z_v - a2, once each."""
    seen1, seen2 = set(a1), set(a2)
    for x, y in pairs:
        for z in (x % v, -x % v, y % v, -y % v):
            if z in seen1:
                return False
            seen1.add(z)
        total, diff = (x + y) % v, (x - y) % v
        for z in (total, -total % v, diff, -diff % v):
            if z in seen2:
                return False
            seen2.add(z)
    return len(seen1) == v and len(seen2) == v


def _diagnosis(counts: Counter, v: int, excluded: frozenset) -> tuple[set, set]:
    missing = {z for z in range(v) if z not in excluded and not counts[z]}
    repeated = {z for z, c in counts.items() if c > (0 if z in excluded else 1)}
    return missing, repeated


def diagnose(v: int, pairs, a1: frozenset, a2: frozenset) -> tuple[set, set, set, set]:
    """Residues missed and residues hit too often, on each cover."""
    c1: Counter = Counter()
    c2: Counter = Counter()
    for x, y in pairs:
        total, diff = x + y, x - y
        c1.update((x % v, -x % v, y % v, -y % v))
        c2.update((total % v, -total % v, diff % v, -diff % v))
    return _diagnosis(c1, v, a1) + _diagnosis(c2, v, a2)


def aps_condition(v: int, alpha: int, beta: int) -> bool:
    """2 alpha^2 - beta^2 = v/3 (v = 3 mod 12) or 0 (otherwise) modulo v.

    For v <= 40 an APS(v, alpha, beta) exists exactly when this holds, as
    the exhaustive sweep over every (alpha, beta) at those moduli shows.
    """
    target = v // 3 if v % 12 == 3 else 0
    return (2 * alpha * alpha - beta * beta) % v == target


def ps_exists(v: int) -> bool:
    """For v = 1 (mod 4) up to 41, a PS(v) exists unless v = 9 (mod 12)."""
    return v % 12 != 9


def differences_distinct(n: int, k: int, codewords) -> bool:
    seen: set[int] = set()
    for cw in codewords:
        if len(cw) != k or len({x % n for x in cw}) != k:
            return False
        for a in cw:
            for b in cw:
                if a != b:
                    d = (a - b) % n
                    if d in seen:
                        return False
                    seen.add(d)
    return True


def codeword_bound(n: int, k: int) -> int:
    """Each codeword uses k(k-1) of the n-1 nonzero differences."""
    return (n - 1) // (k * (k - 1))


# -- per request kind ---------------------------------------------------------

def _expected_pps(req: tuple, inputs: Inputs) -> tuple[int, frozenset, frozenset]:
    kind, *a = req
    if kind == "silver_aps":
        p, = a
        return p, pm(p, 1), pm(p, sqrt2(p, p))
    if kind == "aps_with_params":
        p, alpha, beta = a
        return p, pm(p, alpha), pm(p, beta)
    if kind == "silver_pps_p2":
        p, alpha, beta = a
        m = p * p
        return m, pm(m, alpha, p * alpha), pm(m, beta, p * beta)
    if kind == "cyclotomic_pps":
        p, q = a
        excluded = frozenset(z for z in range(p * q) if z % p == 0 or z % q == 0)
        return p * q, excluded, excluded
    if kind == "union_pps_pq":
        p, q = a
        n = p * q
        return n, pm(n, q, p), pm(n, q * sqrt2(p, p), p * sqrt2(q, q))
    if kind == "inflate":
        key, u = a
        v = inputs.sets[key].v
        a1, a2 = inputs.excluded[key]
        return (v * u, frozenset(x + v * k for x in a1 for k in range(u)),
                frozenset(x + v * k for x in a2 for k in range(u)))
    if kind == "compose_ps_aps":
        key, p = a
        v = inputs.sets[key].v
        n = v * p
        return n, pm(n, v), pm(n, v * sqrt2(p, p))
    if kind == "ps_product":
        n = inputs.sets[a[0]].v * inputs.sets[a[1]].v
        return n, pm(n), pm(n)
    raise ValueError(f"no expected pair set for {kind!r}")


def _check_pps(req, answer, inputs) -> str | None:
    s, spec, report = answer
    v, a1, a2 = _expected_pps(req, inputs)
    if s.v != v or spec.v != v:
        return f"modulus {s.v}, expected {v}"
    if spec.a1 != a1 or spec.a2 != a2:
        return "claimed excluded sets differ from the expected ones"
    if not tiles(v, s.pairs, a1, a2):
        return "pairs do not tile the complements of the excluded sets"
    if not report.valid:
        return "verify_pps rejected a valid pair set"
    return None


def _check_corrupt(req, report, inputs) -> str | None:
    key, i, entry, z = req[1:]
    base = inputs.sets[key]
    pairs = list(base.pairs)
    pair = list(pairs[i])
    pair[entry] = z
    pairs[i] = tuple(pair)
    a1, a2 = inputs.excluded[key]
    expected = diagnose(base.v, pairs, a1, a2)
    got = (report.cover1_missing, report.cover1_repeated,
           report.cover2_missing, report.cover2_repeated)
    if report.valid:
        return "verify_pps accepted a corrupted pair set"
    if tuple(map(set, got)) != expected:
        return "diagnostics differ from the independent cover counts"
    return None


def _check_search_result(v, found, a1, a2, should_exist: bool) -> str | None:
    if (found is not None) != should_exist:
        return f"search {'missed a' if should_exist else 'returned a'} set at v={v}"
    if found is not None and (found.v != v or not tiles(v, found.pairs, a1, a2)):
        return "search result does not tile"
    return None


def _check_admissible(req, answer, inputs) -> str | None:
    v = req[1]
    params, alpha, beta, found = answer
    expected = {(a, b) for a in range(1, v) for b in range(1, v) if aps_condition(v, a, b)}
    if len(params) != len(expected) or set(params) != expected:
        return f"admissible_params({v}) differs from the independent scan"
    return _check_search_result(v, found, pm(v, alpha), pm(v, beta), True)


def _check_exhaustive_aps(req, found, inputs) -> str | None:
    v, alpha, beta = req[1:]
    return _check_search_result(v, found, pm(v, alpha), pm(v, beta),
                                aps_condition(v, alpha, beta))


def _check_exhaustive_ps(req, found, inputs) -> str | None:
    v = req[1]
    return _check_search_result(v, found, pm(v), pm(v), ps_exists(v))


def _check_km(req, found, inputs) -> str | None:
    v = req[1]
    a1, a2 = (pm(v), pm(v)) if req[0] == "km_ps" else (pm(v, req[3]), pm(v, req[4]))
    return _check_search_result(v, found, a1, a2, True)


def _check_whist(req, answer, inputs) -> str | None:
    key = req[1]
    s = inputs.sets[key]
    v = s.v
    r0, t, results, matrix, cdm_report = answer
    alpha = WHIST_APS.get(key)
    games = {(x, y, -x % v, -y % v) for x, y in s.pairs}
    if alpha is not None:
        games.add((INF, alpha % v, 0, -alpha % v))
    if set(map(tuple, r0)) != games or len(r0) != len(games):
        return "initial round differs from the pair set's games"
    if t.u != v or len(t.rounds) != v:
        return f"{len(t.rounds)} rounds, expected {v}"
    for j in (1, v // 2, v - 1):
        shifted = [tuple(seat if seat == INF else (seat + j) % v for seat in g) for g in r0]
        if list(map(tuple, t.rounds[j])) != shifted:
            return f"round {j} is not the initial round shifted by {j}"
    failed = [name for name, result in results.items() if not result.passed]
    if failed:
        return f"whist checks failed: {failed}"
    if alpha is not None:
        return None
    # Z-cyclic whist on v players: partner differences cover Z_v - {0} once,
    # opponent differences twice.
    partner: Counter = Counter()
    opponent: Counter = Counter()
    for a, b, c, d in r0:
        partner.update(((a - c) % v, (c - a) % v, (b - d) % v, (d - b) % v))
        for x, y in ((a, b), (c, d), (a, d), (b, c)):
            opponent.update(((x - y) % v, (y - x) % v))
    nonzero = range(1, v)
    if any(partner[z] != 1 for z in nonzero) or any(opponent[z] != 2 for z in nonzero):
        return "round differences do not make a whist tournament"
    if matrix.k != 5 or matrix.v != v or any(len(row) != v for row in matrix.rows):
        return "difference matrix has the wrong shape"
    for r in range(5):
        for q in range(r + 1, 5):
            if len({(x - y) % v for x, y in zip(matrix.rows[r], matrix.rows[q])}) != v:
                return f"difference matrix rows {r}, {q} repeat a difference"
    if not cdm_report.valid:
        return "verify_cdm rejected a valid difference matrix"
    return None


def _check_ooc(req, answer, inputs) -> str | None:
    kind = req[0]
    code, report, maximal = answer
    if kind == "ooc_from_pairs":
        key, k = req[1:]
        n, shortfall = (3 if k == 4 else 5) * inputs.sets[key].v, 0
    elif kind == "ooc_45v":
        k, n, shortfall = 5, 45 * inputs.sets[req[1]].v, 0
    elif kind == "maximal_ooc_pq":
        p, q, k = req[1:]
        n, shortfall = (3 if k == 4 else 5) * p * q, 1
    else:
        p, k = req[1:]
        n, shortfall = (3 if k == 4 else 5) * p * p, 1
    if code.n != n or code.k != k:
        return f"code is ({code.n}, {code.k}), expected ({n}, {k})"
    if not differences_distinct(n, k, code.codewords):
        return "codeword differences repeat"
    if len(code.codewords) != codeword_bound(n, k) - shortfall:
        return f"{len(code.codewords)} codewords, expected {codeword_bound(n, k) - shortfall}"
    if not report.differences_distinct or (shortfall == 0 and not report.is_maximum):
        return "verify_ooc rejected a valid code"
    if maximal is not None and not maximal[0]:
        return "is_maximal denied a maximal code"
    return None


CHECKS = {
    "silver_aps": _check_pps, "aps_with_params": _check_pps, "silver_pps_p2": _check_pps,
    "cyclotomic_pps": _check_pps, "union_pps_pq": _check_pps, "inflate": _check_pps,
    "compose_ps_aps": _check_pps, "ps_product": _check_pps,
    "verify_corrupt": _check_corrupt,
    "exhaustive_admissible": _check_admissible, "exhaustive_aps": _check_exhaustive_aps,
    "exhaustive_ps": _check_exhaustive_ps, "km_ps": _check_km, "km_aps": _check_km,
    "whist": _check_whist,
    "ooc_from_pairs": _check_ooc, "ooc_45v": _check_ooc,
    "maximal_ooc_pq": _check_ooc, "maximal_ooc_p2": _check_ooc,
}


def check(req: tuple, answer, inputs: Inputs) -> str | None:
    return CHECKS[req[0]](req, answer, inputs)
