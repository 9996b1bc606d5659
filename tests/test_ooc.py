from __future__ import annotations

import functools
import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from designforge import ooc
from designforge.catalog import SILVER_PRIMES, get
from designforge.construct import (aps_with_params, ps_product, silver_aps, silver_pps_p2,
                                   union_pps_pq)
from designforge.core import BudgetExceededError, PairSet, scale_set
from designforge.modarith import crt_basis, mod_sqrt
from designforge.ooc import (
    LEAVE45,
    SIGMA3,
    SIGMA5,
    SIGMA45,
    OOCode,
    OOCReport,
    is_maximal,
    max_codeword_bound,
    maximal_ooc_p2,
    maximal_ooc_pq,
    ooc_45v_from_ps,
    ooc_from_pairs,
    verify_ooc,
)

PS5 = PairSet(5, ((1, 2),))
PS13 = PairSet(13, ((1, 5), (2, 3), (4, 6)))


def _difference_counts(n: int, blocks) -> list[int]:
    """counts[d]: how often a - b = d (mod n), a and b at two places of one block.

    Blocks may be multisets, so a difference may be 0 or repeat.
    """
    counts = [0] * n
    for block in blocks:
        for i, a in enumerate(block):
            for b in block[i + 1:]:
                counts[(a - b) % n] += 1
                counts[(b - a) % n] += 1
    return counts


def test_sdf_fixtures():
    # each fixed block pattern is a strong difference family: every difference 4 times
    assert _difference_counts(3, SIGMA3) == [4] * 3
    assert _difference_counts(5, SIGMA5) == [4] * 5
    assert _difference_counts(45, SIGMA45) == [4] * 45
    assert _difference_counts(3, ((0, 0, 1, 2),)) == [2, 5, 5]


def test_ooc_code_validation():
    with pytest.raises(ValueError):
        OOCode(10, 3, ((1, 1, 2),))
    for k in (0, 1):  # an empty or one-point codeword has no difference to check
        with pytest.raises(ValueError, match="at least 2"):
            OOCode(39, k, ())
        with pytest.raises(ValueError, match="at least 2"):
            max_codeword_bound(39, k)
    # k distinct residues, but not k entries: a repeated entry is no k-subset either
    for k, cw in ((2, (1, 2, 2, 1)), (4, (1, 2, 3, 4, 4))):
        with pytest.raises(ValueError, match=f"not a {k}-subset of Z_10"):
            OOCode(10, k, (cw,))
    code = OOCode(10, 3, ((5, 1, 9),))
    assert code.codewords == ((1, 5, 9),)
    assert OOCode.from_json(code.to_json()) == code


def test_ooc_from_ps13_k4():
    code = ooc_from_pairs(PS13, 4)
    assert (code.n, code.k, len(code)) == (39, 4, 3)
    assert (1, 5, 8, 25) in code.codewords  # the image of the pair {1, 5}
    report = verify_ooc(code)
    assert report.differences_distinct
    assert report.leave == frozenset({0, 13, 26})
    assert report.is_maximum


def test_ooc_from_ps13_k5():
    code = ooc_from_pairs(PS13, 5)
    assert (code.n, code.k, len(code)) == (65, 5, 3)
    report = verify_ooc(code)
    assert report.differences_distinct and report.is_maximum
    assert len(report.leave) == 5
    assert report.leave == frozenset(z for z in range(65) if z % 13 == 0)


def test_ooc_from_aps():
    aps7, _ = aps_with_params(7, 2, 1)
    code = ooc_from_pairs(aps7, 4)
    assert (code.n, len(code)) == (21, 1)
    report = verify_ooc(code)
    assert report.differences_distinct and len(report.leave) == 9
    assert report.is_maximum  # 9 <= 12


def test_ooc_from_pairs_preconditions():
    with pytest.raises(ValueError):
        ooc_from_pairs(PS13, 6)
    with pytest.raises(ValueError):
        ooc_from_pairs(PairSet(13, ((1, 5),)), 4)  # not a valid PS/APS
    aps27 = get("aps-27-3-6").pair_set()
    with pytest.raises(ValueError):
        ooc_from_pairs(aps27, 4)  # gcd(27, 6) = 3
    ps25 = PairSet(25, ((1, 7), (2, 11), (3, 4), (8, 9), (6, 18), (16, 17),))
    # ps25 here is not verified; the gcd guard fires first for k = 5
    with pytest.raises(ValueError):
        ooc_from_pairs(ps25, 5)


def test_ooc_45v():
    code = ooc_45v_from_ps(PS13)
    assert (code.n, code.k, len(code)) == (585, 5, 29)
    report = verify_ooc(code)
    assert report.differences_distinct
    assert len(report.leave) == 5
    assert report.is_maximum
    assert len(code) == max_codeword_bound(585, 5)

    with pytest.raises(ValueError):
        ooc_45v_from_ps(PairSet(5, ((1, 2),)))  # gcd(5, 45) = 5
    with pytest.raises(ValueError):
        ooc_45v_from_ps(PairSet(13, ((1, 5),)))


def test_ooc_45v_17():
    ps17 = PairSet(17, ((1, 4), (2, 8), (3, 5), (6, 7)))
    code = ooc_45v_from_ps(ps17)
    assert (code.n, len(code)) == (765, 38)
    assert len(code) == max_codeword_bound(765, 5)
    report = verify_ooc(code)
    assert report.differences_distinct and report.is_maximum


def test_maximal_ooc_pq():
    sp, _ = aps_with_params(23, 1, 5)
    sq, _ = aps_with_params(7, 2, 1)
    code = maximal_ooc_pq(23, 7, sp, sq, 4)
    assert (code.n, len(code)) == (483, 39)
    report = verify_ooc(code)
    assert report.differences_distinct
    assert len(report.leave) == 15
    assert not report.is_maximum  # 15 > 12
    assert len(code) == max_codeword_bound(483, 4) - 1
    maximal, witness = is_maximal(code)
    assert maximal and witness is None

    code5 = maximal_ooc_pq(23, 7, sp, sq, 5)
    assert (code5.n, len(code5)) == (805, 39)
    assert len(verify_ooc(code5).leave) == 25
    assert is_maximal(code5)[0]

    with pytest.raises(ValueError):
        maximal_ooc_pq(11, 7, sp, sq, 4)  # moduli mismatch with supplied sets


def test_maximal_ooc_p2():
    code = maximal_ooc_p2(7, 4)
    assert (code.n, len(code)) == (147, 11)
    report = verify_ooc(code)
    assert report.differences_distinct and len(report.leave) == 15
    assert len(code) == max_codeword_bound(147, 4) - 1
    assert is_maximal(code)[0]

    code5 = maximal_ooc_p2(7, 5)
    assert (code5.n, len(code5)) == (245, 11)
    assert len(verify_ooc(code5).leave) == 25
    assert is_maximal(code5)[0]

    with pytest.raises(ValueError, match="does not generate"):
        maximal_ooc_p2(31, 4)  # generation fails over 31^2
    with pytest.raises(ValueError, match="congruent to 7 modulo 8"):
        maximal_ooc_p2(13, 4)  # 2 has no square root modulo 13^2


def test_removing_any_codeword_breaks_maximality():
    code = ooc_from_pairs(PS13, 4)
    for i in range(len(code)):
        sub = OOCode(39, 4, code.codewords[:i] + code.codewords[i + 1:])
        maximal, witness = is_maximal(sub)
        assert not maximal
        # the witness really is an addable codeword
        extended = OOCode(39, 4, sub.codewords + (witness,))
        assert verify_ooc(extended).differences_distinct


def test_repeated_codeword_is_flagged():
    code = ooc_from_pairs(PS13, 4)
    dup = OOCode(39, 4, (code.codewords[0], code.codewords[0]))
    report = verify_ooc(dup)
    assert not report.differences_distinct and report.repeated
    # 5 - 0 and 0 - 5 are both 5 modulo 10: the difference n/2 of one codeword repeats
    assert verify_ooc(OOCode(10, 2, ((0, 5),))).repeated == frozenset({5})


def test_is_maximal_refuses_repeated_differences():
    code = OOCode(39, 4, ((0, 1, 2, 3), (0, 1, 2, 4)))
    assert not verify_ooc(code).differences_distinct
    with pytest.raises(ValueError):
        is_maximal(code)


def test_is_maximal_translation_invariant():
    code = ooc_from_pairs(PS13, 4)
    sub = OOCode(39, 4, code.codewords[1:])
    base = is_maximal(sub)[0]
    for shift in (1, 7, 20):
        translated = OOCode(39, 4, tuple(
            tuple((x + shift) % 39 for x in cw) for cw in sub.codewords))
        assert is_maximal(translated)[0] == base


def test_is_maximal_budget():
    # a single tiny codeword in a large ring leaves nearly everything open
    code = OOCode(997, 4, ((0, 1, 5, 20),))
    with pytest.raises(BudgetExceededError):
        is_maximal(code)


def test_first_coordinate_projections_are_sdfs():
    ps13 = PS13
    code4 = ooc_from_pairs(ps13, 4)
    for cw in code4.codewords:
        assert sorted(x % 3 for x in cw) == sorted(x % 3 for x in SIGMA3[0])
    code5 = ooc_from_pairs(ps13, 5)
    for cw in code5.codewords:
        assert sorted(x % 5 for x in cw) == sorted(x % 5 for x in SIGMA5[0])
    # the 45v code reproduces the full block family once per pair
    code45 = ooc_45v_from_ps(ps13)
    projected = Counter(tuple(sorted(x % 45 for x in cw)) for cw in code45.codewords)
    expected = Counter()
    for block in SIGMA45:
        expected[tuple(sorted(b % 45 for b in block))] += len(ps13.pairs)
    expected[tuple(sorted((0, 1, 3, 29, 35)))] += 1
    expected[tuple(sorted((0, 5, 20, 27, 41)))] += 1
    assert projected == expected


def test_leave_structure_for_pq_code():
    sp, _ = silver_aps(23)
    sq, _ = aps_with_params(7, 2, 1)
    code = maximal_ooc_pq(23, 7, sp, sq, 4)
    leave = verify_ooc(code).leave
    n = 483
    # element of the leave are 0 mod 3 with second coordinate +-2q or +-2p
    # scaled parameters, or +-1 mod 3 with the beta pattern
    by_residue = Counter(z % 3 for z in leave)
    assert by_residue == Counter({0: 5, 1: 5, 2: 5})


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_verify_ooc_agrees_with_reference(data):
    n = data.draw(st.integers(2, 200))
    k = data.draw(st.integers(2, min(n, 5)))
    word = st.lists(st.integers(-n, 2 * n), min_size=k, max_size=k, unique_by=lambda x: x % n)
    code = OOCode(n, k, tuple(map(tuple, data.draw(st.lists(word, max_size=8)))))
    diffs = Counter((a - b) % n for cw in code.codewords for a in cw for b in cw if a != b)
    leave = frozenset(d for d in range(n) if diffs[d] == 0)
    repeated = frozenset(d for d, c in diffs.items() if c > 1)
    assert verify_ooc(code) == OOCReport(not repeated, repeated, leave,
                                         len(leave) <= k * (k - 1))


def _reference_report(code: OOCode) -> OOCReport:
    """The report read off the full tally of differences."""
    counts = _difference_counts(code.n, code.codewords)
    repeated = frozenset(d for d, c in enumerate(counts) if c > 1)
    leave = frozenset(d for d, c in enumerate(counts) if c == 0)
    return OOCReport(not repeated, repeated, leave, len(leave) <= code.k * (code.k - 1))


@pytest.mark.parametrize("n", [1, 2, 13, 36, 585, 1000])
@pytest.mark.parametrize("k", [2, 4, 5, 7])
def test_a_code_with_no_codewords_leaves_all_of_z_n(n, k):
    code = OOCode(n, k, ())
    assert verify_ooc(code) == _reference_report(code)
    assert verify_ooc(code).leave == frozenset(range(n))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_verify_ooc_agrees_with_the_difference_tally_up_to_k_8(data):
    n = data.draw(st.integers(2, 2_000))
    k = data.draw(st.integers(2, min(n, 8)))
    word = st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True)
    code = OOCode(n, k, tuple(map(tuple, data.draw(st.lists(word, max_size=12)))))
    assert verify_ooc(code) == _reference_report(code)


@functools.cache
def _large_codes() -> tuple[OOCode, ...]:
    """Pair-template and 45v codes from n = 665 to n = 77,805, built once."""
    ps1729 = ps_product(PS13, get("ps-133").pair_set())[0]
    return (ooc_from_pairs(get("ps-133").pair_set(), 5),  # n = 665
            ooc_from_pairs(get("aps-275-110").pair_set(), 4),  # n = 825
            maximal_ooc_p2(47, 5),  # n = 11,045
            maximal_ooc_pq(191, 127, silver_aps(191)[0], silver_aps(127)[0], 4),  # n = 72,771
            ooc_45v_from_ps(ps1729))  # n = 77,805


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 4), st.sampled_from(("none", "translate", "move", "drop", "repeat")),
       st.data())
def test_verify_ooc_agrees_with_the_difference_tally_at_large_n(index, edit, data):
    code = _large_codes()[index]
    n, k = code.n, code.k
    words = list(code.codewords)
    i = data.draw(st.integers(0, len(words) - 1))
    if edit == "translate":  # keeps the differences: the code stays an OOC
        t = data.draw(st.integers(1, n - 1))
        words[i] = tuple((x + t) % n for x in words[i])
    elif edit == "move":  # one entry to another residue
        j = data.draw(st.integers(0, k - 1))
        x = data.draw(st.integers(0, n - 1).filter(lambda x: x not in words[i]))
        words[i] = words[i][:j] + (x,) + words[i][j + 1:]
    elif edit == "drop":
        del words[i]
    elif edit == "repeat":
        words.insert(i, words[i])
    edited = OOCode(n, k, tuple(words))
    report = verify_ooc(edited)
    assert report == _reference_report(edited)
    if edit in ("none", "translate", "drop"):
        assert report.differences_distinct
    elif edit == "repeat":
        assert report.repeated


def _even_codes(m: int) -> dict[str, OOCode]:
    """Hand-built codes of even length n = 2m, m >= 10; a difference of m is its own negative.

    The weight-5 codes need m >= 12: no 5-subset of Z_20 or Z_22 has distinct
    differences, and (0, 1, 3, 7, 3 + m) repeats more than m at m = 10 and 11.
    """
    n = 2 * m
    return {
        "distinct": OOCode(n, 3, ((0, 1, 3), (0, 4, 9))),
        "only n/2": OOCode(n, 3, ((0, 1, 3), (0, 4, 4 + m))),
        "only n/2, k = 2": OOCode(n, 2, ((5, 5 + m),)),
        "n/2 and a repeat": OOCode(n, 3, ((0, 1, 3), (0, 1, 1 + m))),
        "distinct, k = 4": OOCode(n, 4, ((0, 1, 3, 7),)),
        "only n/2, k = 4": OOCode(n, 4, ((0, 1, 3, m),)),
        "n/2 and a repeat, k = 4": OOCode(n, 4, ((0, 1, 2, m),)),
        "distinct, k = 5": OOCode(n, 5, ((0, 1, 4, 9, 11),)),
        "only n/2, k = 5": OOCode(n, 5, ((0, 1, 3, 7, 3 + m),)),
        "n/2 and a repeat, k = 5": OOCode(n, 5, ((0, 1, 2, 3, m),)),
    }


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(_even_codes(12))), st.data())
def test_verify_ooc_agrees_with_the_difference_tally_at_even_n(name, data):
    m = data.draw(st.integers(12 if name.endswith("k = 5") else 10, 40_000))
    code = _even_codes(m)[name]
    t = data.draw(st.integers(0, code.n - 1))
    code = OOCode(code.n, code.k, tuple(tuple(x + t for x in cw) for cw in code.codewords))
    report = verify_ooc(code)
    assert report == _reference_report(code)
    assert report.differences_distinct == name.startswith("distinct")



@st.composite
def _struck_codes(draw) -> OOCode:
    """Random codes over odd and even n, 2 <= k <= 6, with upper differences forced onto edges.

    Each edge adds a codeword whose upper differences include n//2 (its own
    negative when n is even), a drawn codeword's upper difference d (one
    residue struck twice), or n - d (both sides of one class).
    """
    n = draw(st.integers(12, 5_000))
    k = draw(st.integers(2, 6))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    words = [sorted(rng.sample(range(n), k)) for _ in range(draw(st.integers(1, 10)))]
    for edge in draw(st.lists(st.sampled_from(("n/2", "d twice", "d and -d")),
                              min_size=1, max_size=3)):
        word = words[rng.randrange(len(words))]
        i, j = sorted(rng.sample(range(k), 2))
        d = {"n/2": n // 2, "d twice": word[j] - word[i], "d and -d": n - word[j] + word[i]}[edge]
        c = rng.randrange(n - d)
        new = {c, c + d}
        while len(new) < k:
            new.add(rng.randrange(n))
        words.append(sorted(new))
    return OOCode(n, k, tuple(map(tuple, words)))


@settings(max_examples=300, deadline=None)
@given(_struck_codes())
def test_verify_ooc_agrees_with_the_difference_tally_on_forced_strikes(code):
    assert verify_ooc(code) == _reference_report(code)


@pytest.mark.parametrize("m", [1, 2, 10, 36_386])
def test_a_difference_of_n_over_2_alone_repeats(m):
    # d = n/2 equals its own negative, so it repeats though no two upper differences agree
    code = OOCode(2 * m, 2, ((0, m),))
    assert verify_ooc(code) == OOCReport(False, frozenset({m}),
                                         frozenset(range(2 * m)) - {m}, 2 * m - 1 <= 2)
    if m >= 10:
        report = verify_ooc(_even_codes(m)["only n/2"])
        assert not report.differences_distinct and report.repeated == {m}


def _pair_rows(pairs, k):
    """(block, second coordinates) of each pair's codeword in the k = 4 or 5 template."""
    if k == 4:
        return [(SIGMA3[0], (x, -x, y, -y)) for x, y in pairs]
    return [(SIGMA5[0], (0, x, -x, y, -y)) for x, y in pairs]


def _rows_45v(pairs):
    """Rows of the 45v code: nine per pair, then the two LEAVE45 codewords."""
    rows = []
    for x, y in pairs:
        rows.append((SIGMA45[0], (0, x, -x, y, -y)))
        for j, z in enumerate((x, -x, y, -y)):
            rows += [(SIGMA45[1 + j], tuple(t * z for t in range(5))),
                     (SIGMA45[5 + j], tuple(t * z for t in range(5)))]
    return rows + [(block, (0,) * 5) for block in LEAVE45]


def _assert_table_rows(code, m, v, rows):
    """Codeword i, read in Z_m x Z_v, is row i's block beside its second coordinates."""
    assert code.n == m * v and len(code.codewords) == len(rows)
    for cw, (block, seconds) in zip(code.codewords, rows):
        assert (Counter((c % m, c % v) for c in cw)
                == Counter((b % m, x % v) for b, x in zip(block, seconds)))


PS133 = get("ps-133").pair_set()
# (pair set, m): the builder that places it in Z_m x Z_v.
PAIR_INPUTS = ((PS13, 3), (PS13, 5), (PS133, 3), (PS133, 5), (get("aps-27-3-3").pair_set(), 5),
               (get("aps-275-110").pair_set(), 3), (silver_aps(7)[0], 3),
               (silver_aps(23)[0], 5), (silver_aps(47)[0], 3), (PS13, 45), (PS133, 45))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PAIR_INPUTS), st.data())
def test_pair_set_codes_are_table_blocks_beside_their_pairs(case, data):
    s, m = case
    lam = data.draw(st.integers(1, s.v - 1).filter(lambda x: math.gcd(x, s.v) == 1))
    s = scale_set(s, lam)
    if m == 45:
        _assert_table_rows(ooc_45v_from_ps(s), m, s.v, _rows_45v(s.pairs))
    else:
        k = 4 if m == 3 else 5
        _assert_table_rows(ooc_from_pairs(s, k), m, s.v, _pair_rows(s.pairs, k))


# (p, q, k) of maximal_ooc_pq, up to the sizes the benchmark's designs deck serves
PQ_CODES = [(23, 7, 4), (23, 7, 5), (71, 23, 4), (71, 23, 5), (191, 127, 4), (151, 31, 5)]


@pytest.mark.parametrize("p, q, k", PQ_CODES)
def test_maximal_pq_codes_are_table_blocks_beside_their_pairs(p, q, k):
    sp, sq = silver_aps(p)[0], silver_aps(q)[0]
    rows = _pair_rows(union_pps_pq(p, q, sp, sq)[0].pairs, k)
    _assert_table_rows(maximal_ooc_pq(p, q, sp, sq, k), 3 if k == 4 else 5, p * q, rows)


@pytest.mark.parametrize("k", [4, 5])
@pytest.mark.parametrize("p", [7, 23, 47])
def test_maximal_p2_codes_are_table_blocks_beside_their_pairs(p, k):
    rows = _pair_rows(silver_pps_p2(p, 1, mod_sqrt(2, p * p))[0].pairs, k)
    _assert_table_rows(maximal_ooc_p2(p, k), 3 if k == 4 else 5, p * p, rows)


def _assert_normalised(code):
    """The public constructor leaves a builder's code as it is, and reports it the same."""
    fresh = OOCode(code.n, code.k, code.codewords)
    assert fresh == code
    assert verify_ooc(code) == verify_ooc(fresh)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PAIR_INPUTS), st.data())
def test_pair_set_builders_emit_normalised_codes(case, data):
    s, m = case
    lam = data.draw(st.integers(1, s.v - 1).filter(lambda x: math.gcd(x, s.v) == 1))
    s = scale_set(s, lam)
    _assert_normalised(ooc_45v_from_ps(s) if m == 45 else ooc_from_pairs(s, 4 if m == 3 else 5))


@pytest.mark.parametrize("p, q, k", PQ_CODES)
def test_maximal_pq_builder_emits_normalised_codes(p, q, k):
    _assert_normalised(maximal_ooc_pq(p, q, silver_aps(p)[0], silver_aps(q)[0], k))


@pytest.mark.parametrize("k", [4, 5])
@pytest.mark.parametrize("p", [7, 23, 47])
def test_maximal_p2_builder_emits_normalised_codes(p, k):
    _assert_normalised(maximal_ooc_p2(p, k))


def _list_sort_template(m, k, pairs, v):
    """The pair template by CRT products, each codeword's four points sorted as a list.

    Each point is e1 +- x*ev or e2 +- y*ev reduced mod n, (e1, ev) the CRT
    basis of Z_m x Z_v and e2 = -e1; (0,) is put in front when k = 5.
    """
    n = m * v
    e1, ev = crt_basis([m, v])
    e2 = n - e1
    codewords = []
    for x, y in pairs:
        xe = x * ev % n
        ye = y * ev % n
        cw = [(e1 + xe) % n, (e1 - xe) % n, (e2 + ye) % n, (e2 - ye) % n]
        cw.sort()
        codewords.append(tuple(cw))
    if k == 5:
        codewords = [(0,) + cw for cw in codewords]
    return tuple(codewords)


@pytest.mark.parametrize("k", [4, 5])
@pytest.mark.parametrize("v", [11, 13, 49, 143])
def test_pair_template_merges_as_the_list_sort_does(v, k):
    # every (x, y), 0 < x, y < v: the points (1, +-x) and (-1, +-y) are then distinct
    m = 3 if k == 4 else 5
    pairs = [(x, y) for x in range(1, v) for y in range(1, v)]
    code = ooc._pair_template_code(m, k, pairs, v)
    assert (code.n, code.k) == (m * v, k)
    assert code.codewords == _list_sort_template(m, k, pairs, v)
    # the merge order: which of the sorted points are (1, +-x), which (-1, +-y)
    orders = {"".join("x" if c % m == 1 else "y" for c in cw[-4:]) for cw in code.codewords}
    assert orders == {"xxyy", "xyxy", "xyyx", "yxxy", "yxyx", "yyxx"}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(("silver_aps", "ps_product", "union_pps_pq", "silver_pps_p2")),
       st.sampled_from((3, 5)), st.data())
def test_pair_template_offsets_give_the_crt_products(builder, m, data):
    """The residue-class offsets place every point where the CRT products do."""
    if builder == "silver_aps":
        s = silver_aps(data.draw(st.sampled_from(SILVER_PRIMES), label="p"))[0]
    elif builder == "ps_product":
        s = ps_product(*data.draw(st.lists(st.sampled_from((PS5, PS13, PS133)), min_size=2,
                                           max_size=2), label="PS inputs"))[0]
    elif builder == "union_pps_pq":
        q, p = sorted(data.draw(st.sets(st.sampled_from(SILVER_PRIMES[:6]), min_size=2,
                                        max_size=2), label="p, q"))
        s = union_pps_pq(p, q, silver_aps(p)[0], silver_aps(q)[0])[0]
    else:
        p = data.draw(st.sampled_from((7, 23, 47)), label="p")
        s = silver_pps_p2(p, 1, mod_sqrt(2, p * p))[0]
    assume(math.gcd(s.v, m) == 1)
    lam = data.draw(st.integers(1, s.v - 1).filter(lambda x: math.gcd(x, s.v) == 1),
                    label="scale")
    s = scale_set(s, lam)
    k = 4 if m == 3 else 5
    code = ooc._pair_template_code(m, k, s.pairs, s.v)
    assert code.codewords == _list_sort_template(m, k, s.pairs, s.v)


def _set_search_is_maximal(code: OOCode) -> tuple[bool, tuple[int, ...] | None]:
    """is_maximal with the used differences held in sets, a fresh set at every node."""
    n, k = code.n, code.k
    report = _reference_report(code)
    if not report.differences_distinct:
        raise ValueError("code differences repeat")
    leave_nz = set(report.leave) - {0}
    if len(leave_nz) < k * (k - 1):
        return True, None
    if len(report.leave) > ooc.MAXIMAL_LEAVE_LIMIT:
        raise BudgetExceededError("leave too large")
    candidates = sorted(x for x in leave_nz if (n - x) % n in leave_nz)

    def extend(start, chosen, diffs):
        if len(chosen) == k:
            return tuple(chosen)
        for idx in range(start, len(candidates)):
            c = candidates[idx]
            fresh = set()
            ok = True
            for b in chosen:
                for d in ((c - b) % n, (b - c) % n):
                    if d not in leave_nz or d in diffs or d in fresh:
                        ok = False
                        break
                    fresh.add(d)
                if not ok:
                    break
            if ok:
                found = extend(idx + 1, chosen + [c], diffs | fresh)
                if found:
                    return found
        return None

    witness = extend(0, [0], set())
    return witness is None, witness


def _brute_force_extends(code: OOCode) -> bool:
    """Whether some k-subset holding 0 has k(k-1) distinct differences, all in the leave."""
    n, k = code.n, code.k
    leave_nz = _reference_report(code).leave - {0}
    for rest in itertools.combinations(sorted(leave_nz), k - 1):
        word = (0,) + rest
        diffs = [(a - b) % n for a in word for b in word if a != b]
        if len(set(diffs)) == len(diffs) and leave_nz.issuperset(diffs):
            return True
    return False


def _search_outcome(search, code):
    try:
        return search(code)
    except BudgetExceededError:
        return "budget"


@functools.cache
def _maximal_codes() -> tuple[OOCode, ...]:
    """Maximal pq and p^2 codes of both weights, one codeword short of the maximum."""
    pq = [maximal_ooc_pq(p, q, silver_aps(p)[0], silver_aps(q)[0], k)
          for p, q in ((23, 7), (71, 23), (127, 7)) for k in (4, 5)]
    return tuple(pq) + tuple(maximal_ooc_p2(p, k) for p in (7, 23, 47) for k in (4, 5))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, len(_maximal_codes()) - 1), st.integers(0, 3), st.data())
def test_is_maximal_agrees_with_the_set_search_on_dropped_codewords(index, drops, data):
    code = _maximal_codes()[index]
    words = list(code.codewords)
    for _ in range(drops):
        del words[data.draw(st.integers(0, len(words) - 1), label="dropped")]
    code = OOCode(code.n, code.k, tuple(words))
    answer = _search_outcome(is_maximal, code)
    assert answer == _search_outcome(_set_search_is_maximal, code)
    if drops == 0:
        assert answer == (True, None) and not _brute_force_extends(code)
    elif answer != "budget":  # a dropped codeword leaves room for one
        assert not answer[0]
        assert verify_ooc(OOCode(code.n, code.k, code.codewords + (answer[1],))).differences_distinct


@settings(max_examples=300, deadline=None)
@given(st.integers(5, 60), st.integers(2, 4), st.randoms(use_true_random=False))
def test_is_maximal_agrees_with_brute_force_on_small_leaves(n, k, rng):
    """Greedy random codes: every leave of 25 or fewer is searched by brute force too."""
    words: list[tuple[int, ...]] = []
    used: set[int] = set()
    for _ in range(rng.randrange(12)):
        word = sorted(rng.sample(range(n), k))
        diffs = [(a - b) % n for a in word for b in word if a != b]
        if len(set(diffs)) == len(diffs) and used.isdisjoint(diffs):
            words.append(tuple(word))
            used.update(diffs)
    code = OOCode(n, k, tuple(words))
    answer = _search_outcome(is_maximal, code)
    assert answer == _search_outcome(_set_search_is_maximal, code)
    if len(verify_ooc(code).leave) <= 25:
        assert answer[0] == (not _brute_force_extends(code))
    if answer != "budget" and not answer[0]:
        assert verify_ooc(OOCode(n, k, code.codewords + (answer[1],))).differences_distinct


def test_verify_then_is_maximal_count_the_differences_once(monkeypatch):
    passes = []
    real_pass = ooc._difference_report

    def counted_pass(code):
        passes.append(code)
        return real_pass(code)

    monkeypatch.setattr(ooc, "_difference_report", counted_pass)
    sp, sq = silver_aps(23)[0], silver_aps(7)[0]
    codes = (maximal_ooc_pq(23, 7, sp, sq, 4), maximal_ooc_p2(7, 5),
             OOCode(39, 4, ooc_from_pairs(PS13, 4).codewords[1:]))  # the last one extends
    for code in codes:
        passes.clear()
        verify_ooc(code)
        answer = is_maximal(code)
        assert len(passes) == 1
        assert answer == is_maximal(OOCode(code.n, code.k, code.codewords))
    assert not answer[0] and answer[1] is not None
