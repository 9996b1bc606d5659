"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance and runtime bound is asserted, not just reported.
"""

from __future__ import annotations

import math
import random
import time
from collections import Counter

from sympy import primerange

from designforge import catalog
from designforge.construct import aps_with_params, compose_ps_aps, silver_aps
from designforge.core import (
    PairSet,
    PPSSpec,
    admissible_params,
    aps_necessary,
    exhaustive_search,
    scale_set,
    verify_pps,
)
from designforge.designs import cdm_from_round, develop_rounds, initial_round, verify_cdm, verify_whist
from designforge.kramer_mesner import MultiplierGroup, develop, km_search
from designforge.modarith import generates_mod_pm_one, mod_sqrt
from designforge.ooc import (
    SIGMA3,
    SIGMA5,
    SIGMA45,
    OOCode,
    is_maximal,
    max_codeword_bound,
    maximal_ooc_p2,
    maximal_ooc_pq,
    ooc_45v_from_ps,
    ooc_from_pairs,
    verify_ooc,
)
from test_kramer_mesner import _all_pair_orbits, _class_multisets, _element_orbits

PAIR_SET_ENTRIES = ("ps-13", "aps-27-3-6", "aps-27-3-3", "ps-133",
                    "aps-651-217", "aps-243-18", "aps-255-85", "aps-275-110")


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_catalog_fidelity():
    start = time.monotonic()
    for entry_id in PAIR_SET_ENTRIES:
        entry = catalog.get(entry_id)
        assert verify_pps(entry.pair_set(), entry.spec()).valid, entry_id
    assert len(catalog.get("ps-133").pair_set().pairs) == 33
    assert len(catalog.get("aps-651-217").pair_set().pairs) == 162
    elapsed = time.monotonic() - start
    _report(1, elapsed < 1.0,
            f"all 8 published pair sets re-verify exactly in {elapsed:.3f}s")


def test_criterion_2_silver_family():
    start = time.monotonic()
    for p in catalog.SILVER_PRIMES:
        pairs, spec = silver_aps(p)
        assert verify_pps(pairs, spec).valid, p
    generated = tuple(
        p for p in primerange(3, 272)
        if p % 8 == 7 and generates_mod_pm_one(1 + mod_sqrt(2, p), p))
    assert generated == catalog.SILVER_PRIMES, generated
    elapsed = time.monotonic() - start
    _report(2, elapsed < 1.0,
            f"power-chain family verifies and the generator primes below 272 "
            f"are exactly {list(catalog.SILVER_PRIMES)} ({elapsed:.3f}s)")


def test_criterion_3_necessary_conditions_match_search():
    start = time.monotonic()
    exists_at = {}
    for v in range(3, 41):
        if v % 4 != 3:
            continue
        found_any = False
        for alpha in range(1, (v - 1) // 2 + 1):
            for beta in range(1, (v - 1) // 2 + 1):
                spec = PPSSpec.aps(v, alpha, beta)
                found = exhaustive_search(spec)
                necessary = aps_necessary(v, alpha, beta)
                assert (found is not None) == necessary, (v, alpha, beta)
                if found is not None:
                    assert verify_pps(found, spec).valid
                    found_any = True
        exists_at[v] = found_any
    assert {v for v, ok in exists_at.items() if ok} == {3, 7, 23, 27, 31, 35, 39}
    assert {v for v, ok in exists_at.items() if not ok} == {11, 15, 19}
    # 35 is also reachable by composition
    aps7, _ = aps_with_params(7, 2, 1)
    composed, spec35 = compose_ps_aps(PairSet(5, ((1, 2),)), aps7)
    assert spec35 == PPSSpec.aps(35, 10, 5)
    assert verify_pps(composed, spec35).valid
    elapsed = time.monotonic() - start
    _report(3, elapsed < 300.0,
            f"searches at every (alpha, beta) mirror the necessary condition "
            f"for v <= 40 ({elapsed:.1f}s)")


def test_criterion_4_multiplier_group_search():
    start = time.monotonic()
    found = km_search(133, [122], PPSSpec.ps(133))
    km133 = time.monotonic() - start
    assert found is not None and verify_pps(found, PPSSpec.ps(133)).valid
    assert km133 < 60.0

    start = time.monotonic()
    found27 = km_search(27, [1, 26], PPSSpec.aps(27, 3, 6))
    found13 = km_search(13, [1, 12], PPSSpec.ps(13))
    small = time.monotonic() - start
    assert found27 is not None and verify_pps(found27, PPSSpec.aps(27, 3, 6)).valid
    assert found13 is not None and verify_pps(found13, PPSSpec.ps(13)).valid
    assert small < 5.0

    developed = develop(catalog.PS133_INITIAL_PAIRS,
                        MultiplierGroup.generate(133, [122]))
    assert len(developed.pairs) == 33
    assert verify_pps(developed, PPSSpec.ps(133)).valid
    _report(4, True,
            f"group search reproduces PS(133) in {km133:.2f}s, the small cases "
            f"in {small:.2f}s, and the 11 published seeds develop to a PS(133)")


def test_criterion_4b_sweep_spot_check():
    """Stand-in for the full below-300 sweep: three sign-group searches."""
    start = time.monotonic()
    deadline = start + 600.0
    for v in (51, 75, 91):
        alpha, beta = admissible_params(v)[0]
        spec = PPSSpec.aps(v, alpha, beta)
        found = km_search(v, [1, v - 1], spec, deadline=deadline)
        assert found is not None and verify_pps(found, spec).valid, v
    elapsed = time.monotonic() - start
    _report(4, elapsed < 600.0,
            f"sign-group spot check at v in (51, 75, 91) found witnesses "
            f"({elapsed:.1f}s)")


def test_criterion_5_whist_pipeline():
    start = time.monotonic()
    t13 = develop_rounds(initial_round(catalog.get("ps-13").pair_set()), 13)
    results = verify_whist(t13)
    assert all(r.passed for r in results.values()), results

    t28 = develop_rounds(
        initial_round(catalog.get("aps-27-3-3").pair_set(), alpha=3), 27)
    results28 = verify_whist(t28, ("basic", "zcps"))
    assert all(r.passed for r in results28.values()), results28

    for ps in (PairSet(5, ((1, 2),)), catalog.get("ps-13").pair_set()):
        matrix = cdm_from_round(initial_round(ps))
        assert verify_cdm(matrix).valid, ps.v
    elapsed = time.monotonic() - start
    _report(5, elapsed < 1.0,
            f"tournaments pass all seat checks and both derived difference "
            f"matrices verify ({elapsed:.3f}s)")


def test_criterion_6_maximum_codes():
    start = time.monotonic()
    ps13 = catalog.get("ps-13").pair_set()

    code4 = ooc_from_pairs(ps13, 4)
    report4 = verify_ooc(code4)
    assert (code4.n, len(code4)) == (39, 3)
    assert report4.differences_distinct and report4.is_maximum
    assert len(report4.leave) == 3

    code5 = ooc_from_pairs(ps13, 5)
    report5 = verify_ooc(code5)
    assert (code5.n, len(code5)) == (65, 3)
    assert report5.differences_distinct and report5.is_maximum
    assert len(report5.leave) == 5

    code45 = ooc_45v_from_ps(ps13)
    report45 = verify_ooc(code45)
    assert (code45.n, len(code45)) == (585, 29)
    assert len(code45) == max_codeword_bound(585, 5) == 29
    assert report45.differences_distinct and report45.is_maximum
    elapsed = time.monotonic() - start
    _report(6, elapsed < 5.0,
            f"maximum codes at lengths 39, 65 and 585 come out exactly "
            f"({elapsed:.3f}s)")


def test_criterion_7_maximal_codes():
    start = time.monotonic()
    sp, _ = aps_with_params(23, 1, 5)
    sq, _ = aps_with_params(7, 2, 1)

    code = maximal_ooc_pq(23, 7, sp, sq, 4)
    report = verify_ooc(code)
    assert (code.n, len(code)) == (483, 39)
    assert len(code) == max_codeword_bound(483, 4) - 1
    assert report.differences_distinct and len(report.leave) == 15
    maximal, witness = is_maximal(code)
    assert maximal and witness is None

    code147 = maximal_ooc_p2(7, 4)
    report147 = verify_ooc(code147)
    assert (code147.n, len(code147)) == (147, 11)
    assert len(code147) == max_codeword_bound(147, 4) - 1
    assert report147.differences_distinct and len(report147.leave) == 15
    assert is_maximal(code147)[0]

    code245 = maximal_ooc_p2(7, 5)
    report245 = verify_ooc(code245)
    assert (code245.n, len(code245)) == (245, 11)
    assert report245.differences_distinct and len(report245.leave) == 25
    assert is_maximal(code245)[0]

    base = ooc_from_pairs(catalog.get("ps-13").pair_set(), 4)
    for i in range(len(base)):
        sub = OOCode(39, 4, base.codewords[:i] + base.codewords[i + 1:])
        maximal, witness = is_maximal(sub)
        assert not maximal and witness is not None, i
    elapsed = time.monotonic() - start
    _report(7, elapsed < 120.0,
            f"one-short maximal codes confirmed at 483/147/245 and every "
            f"single-codeword removal reopens extension ({elapsed:.2f}s)")


def test_criterion_8_block_pattern_fixtures():
    start = time.monotonic()
    for g, blocks in ((3, SIGMA3), (5, SIGMA5), (45, SIGMA45)):
        differences = Counter((a - b) % g for block in blocks
                              for i, a in enumerate(block) for j, b in enumerate(block) if i != j)
        assert [differences[d] for d in range(g)] == [4] * g
    elapsed = time.monotonic() - start
    _report(8, elapsed < 1.0,
            f"all three fixed block families have every difference exactly "
            f"4 times ({elapsed:.3f}s)")


def test_criterion_9_randomized_properties():
    rng = random.Random(20240817)
    entries = [catalog.get(entry_id) for entry_id in PAIR_SET_ENTRIES]
    scaled = negated = permuted = corrupted = 0

    for _ in range(10000):
        entry = rng.choice(entries)
        pairs = entry.pair_set()
        spec = entry.spec()
        v = pairs.v
        op = rng.randrange(10)
        if op < 3:  # unit scaling with the matching scaled spec
            lam = rng.randrange(2, v)
            while math.gcd(lam, v) != 1:
                lam = rng.randrange(2, v)
            assert verify_pps(
                scale_set(pairs, lam),
                PPSSpec(v,
                        frozenset(lam * a % v for a in spec.a1),
                        frozenset(lam * a % v for a in spec.a2))).valid
            scaled += 1
        elif op < 4:  # global negation keeps the same spec
            negated_pairs = PairSet(v, tuple(((-x) % v, (-y) % v)
                                             for x, y in pairs.pairs))
            assert verify_pps(negated_pairs, spec).valid
            negated += 1
        elif op < 5:  # order shuffling is immaterial
            shuffled = list(pairs.pairs)
            rng.shuffle(shuffled)
            shuffled = [(y, x) if rng.random() < 0.5 else (x, y)
                        for x, y in shuffled]
            assert verify_pps(PairSet(v, tuple(shuffled)), spec).valid
            permuted += 1
        else:  # a single corrupted residue must always be caught
            mutable = [list(p) for p in pairs.pairs]
            i = rng.randrange(len(mutable))
            j = rng.randrange(2)
            old = mutable[i][j]
            new = rng.randrange(v)
            while new in (old, (v - old) % v):
                new = rng.randrange(v)
            mutable[i][j] = new
            try:
                broken = PairSet(v, tuple(tuple(p) for p in mutable))
            except ValueError:
                corrupted += 1  # degenerate pair rejected at construction
                continue
            assert not verify_pps(broken, spec).valid, (entry.id, i, j, new)
            corrupted += 1

    # weight well-definedness on 50 random multiplier groups
    checked = 0
    while checked < 50:
        v = rng.randrange(5, 201, 2)
        units = [x for x in range(2, v - 1) if math.gcd(x, v) == 1]
        gens = [v - 1] + ([rng.choice(units)] if units else [])
        group = MultiplierGroup.generate(v, gens)
        element_orbits, every = _element_orbits(group), _all_pair_orbits(group)
        for col in rng.sample(range(len(every)), min(8, len(every))):
            u_counts, d_counts = _class_multisets(v, every[col])
            for orbit in element_orbits:
                assert len({u_counts.get(z, 0) for z in orbit}) == 1
                assert len({d_counts.get(z, 0) for z in orbit}) == 1
        checked += 1

    _report(9, True,
            f"{scaled} scalings, {negated} negations, {permuted} reorderings "
            f"stayed valid; {corrupted} corruptions caught; 50 orbit systems "
            f"weight-consistent")
