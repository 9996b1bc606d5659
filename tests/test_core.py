from __future__ import annotations

import itertools
import math
import operator
import random
from collections import Counter
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from designforge import construct, core, kramer_mesner
from designforge.core import (
    BudgetExceededError,
    NonexistenceCase,
    PairSet,
    PPSSpec,
    SetKind,
    VerifyReport,
    admissible_params,
    admissible_witness,
    exhaustive_search,
    infer_params,
    nonexistence_case,
    scale_set,
    verify_pps,
)

EXAMPLE_27_3_6 = PairSet(27, ((1, 4), (2, 12), (5, 13), (6, 10), (7, 8), (9, 11)))
PS13 = PairSet(13, ((1, 5), (2, 3), (4, 6)))


def test_pair_set_normalization():
    s = PairSet(7, ((4, 1), (12, 3)))
    assert s.pairs == ((1, 4), (3, 5))
    assert PairSet.from_json(s.to_json()) == s


def test_pair_set_rejects_degenerate_pairs():
    with pytest.raises(ValueError):
        PairSet(7, ((1, 6),))  # 6 = -1, closure would repeat
    with pytest.raises(ValueError):
        PairSet(7, ((3, 3),))
    with pytest.raises(ValueError):
        PairSet(7, ((2, 9),))  # 9 = 2 mod 7


def test_spec_shapes():
    ps = PPSSpec.ps(13)
    assert ps.kind is SetKind.PS and ps.pair_count == 3
    aps = PPSSpec.aps(27, 3, 6)
    assert aps.kind is SetKind.APS and (aps.alpha, aps.beta) == (3, 6)
    assert aps.pair_count == 6
    pps = PPSSpec(35, frozenset(range(0, 35, 5)), frozenset(range(0, 35, 5)))
    assert pps.kind is SetKind.PPS


def test_spec_invariants_enforced():
    with pytest.raises(ValueError):
        PPSSpec.aps(27, 0, 3)
    for v in (0, -5):
        with pytest.raises(ValueError, match="modulus must be positive"):
            PPSSpec.ps(v)
    with pytest.raises(ValueError):
        PPSSpec(9, frozenset({0, 1}), frozenset({0, 8}))  # A1 not negation-closed
    with pytest.raises(ValueError):
        PPSSpec(9, frozenset({0}), frozenset({0, 1, 8}))  # unequal sizes
    with pytest.raises(ValueError):
        PPSSpec(10, frozenset({0}), frozenset({0}))  # v - |A1| not divisible by 4


def test_verify_known_witnesses():
    assert verify_pps(EXAMPLE_27_3_6, PPSSpec.aps(27, 3, 6)).valid
    assert verify_pps(PS13, PPSSpec.ps(13)).valid
    assert verify_pps(PairSet(7, ((1, 4),)), PPSSpec.aps(7, 2, 1)).valid


def test_verify_diagnostics():
    # wrong beta: sums/differences misfire on both sides of the excluded set
    report = verify_pps(EXAMPLE_27_3_6, PPSSpec.aps(27, 3, 5))
    assert not report.valid
    assert report.cover2_missing == frozenset({6, 21})
    assert report.cover2_repeated == frozenset({5, 22})
    assert not report.cover1_missing and not report.cover1_repeated
    # a hit inside the excluded zone shows up as repeated coverage
    report = verify_pps(PairSet(7, ((1, 3),)), PPSSpec.aps(7, 1, 1))
    assert not report.valid
    assert 1 in report.cover1_repeated and 2 in report.cover1_missing
    with pytest.raises(ValueError):
        verify_pps(PS13, PPSSpec.ps(17))


def test_verify_catches_wrong_pair_count():
    # valid pair sets must have exactly (v - |A1|)/4 pairs
    short = PairSet(13, PS13.pairs[:2])
    assert not verify_pps(short, PPSSpec.ps(13)).valid
    long = PairSet(13, PS13.pairs + ((1, 2),))
    assert not verify_pps(long, PPSSpec.ps(13)).valid


def test_infer_params_examples():
    spec = infer_params(PairSet(7, ((1, 4),)))
    assert spec.kind is SetKind.APS and (spec.alpha, spec.beta) == (2, 1)
    spec = infer_params(PairSet(5, ((1, 2),)))
    assert spec.kind is SetKind.PS
    assert infer_params(PairSet(17, ((1, 2), (1, 2)))) is None  # repeated cover
    inferred = infer_params(EXAMPLE_27_3_6)
    assert verify_pps(EXAMPLE_27_3_6, inferred).valid


def _reference_tally(s: PairSet) -> tuple[Counter, Counter]:
    """The two covers of s, counted residue by residue with a Counter."""
    c1, c2 = Counter(), Counter()
    for x, y in s.pairs:
        c1.update(z % s.v for z in (x, y, -x, -y))
        c2.update(z % s.v for z in (x + y, x - y, y - x, -x - y))
    return c1, c2


def _reference_report(s: PairSet, spec: PPSSpec) -> VerifyReport:
    sides = []
    for counts, excluded in zip(_reference_tally(s), (spec.a1, spec.a2)):
        sides.append(frozenset(z for z in range(s.v) if z not in excluded and not counts[z]))
        sides.append(frozenset(z for z in range(s.v) if counts[z] > (z not in excluded)))
    return VerifyReport(not any(sides), *sides)


def _reference_infer(s: PairSet) -> PPSSpec | None:
    c1, c2 = _reference_tally(s)
    if max(c1.values(), default=0) > 1 or max(c2.values(), default=0) > 1:
        return None
    return PPSSpec(s.v, frozenset(z for z in range(s.v) if not c1[z]),
                   frozenset(z for z in range(s.v) if not c2[z]))


@st.composite
def _specs(draw, v: int) -> PPSSpec:
    """Any PPSSpec over Z_v: {0}, v/2 when v is even, and m equal-sized negation classes."""
    base = {0, v // 2} if v % 2 == 0 else {0}
    classes = range(1, (v + 1) // 2)
    m = draw(st.sampled_from(range((v - len(base)) // 2 % 2, len(classes) + 1, 2)))
    a1, a2 = (draw(st.sets(st.sampled_from(classes), min_size=m, max_size=m)) if m else set()
              for _ in range(2))
    return PPSSpec(v, frozenset(base | a1 | {v - c for c in a1}),
                   frozenset(base | a2 | {v - c for c in a2}))


# Valid (pair set, spec) witnesses over small moduli.
_WITNESS_SPECS = (PPSSpec.ps(5), PPSSpec.ps(13), PPSSpec.ps(17), PPSSpec.aps(7, 2, 1),
                  PPSSpec.aps(23, 1, 5), PPSSpec.aps(27, 3, 6), PPSSpec.aps(31, 1, 8),
                  PPSSpec(35, frozenset(range(0, 35, 5)), frozenset(range(0, 35, 5))))
_WITNESSES = [(exhaustive_search(spec), spec) for spec in _WITNESS_SPECS]


@st.composite
def _tally_cases(draw) -> tuple[PairSet, PPSSpec]:
    """Random pair sets, or witnesses with up to two entries moved (some into A1 or A2)."""
    if draw(st.booleans()):
        v = draw(st.integers(1, 30))
        entry = st.integers(-v, 2 * v - 1)
        pairs = draw(st.lists(st.tuples(entry, entry), max_size=(v + 3) // 4 + 1))
        spec = draw(_specs(v))
    else:
        s, spec = draw(st.sampled_from(_WITNESSES))
        v, pairs = s.v, [list(p) for p in s.pairs]
        for _ in range(draw(st.integers(0, 2))):
            i, j = draw(st.integers(0, len(pairs) - 1)), draw(st.integers(0, 1))
            other = pairs[i][1 - j]
            target = draw(st.one_of(
                st.sampled_from(sorted(spec.a1)),
                st.sampled_from([b + sign * other for b in spec.a2 for sign in (1, -1)]),
                st.integers(0, v - 1)))
            pairs[i][j] = target + v * draw(st.integers(-1, 1))
        if draw(st.booleans()):
            spec = draw(_specs(v))
    assume(all((x - y) % v and (x + y) % v for x, y in pairs))
    return PairSet(v, tuple(map(tuple, pairs))), spec


@settings(max_examples=400, deadline=None)
@given(_tally_cases())
def test_cover_tally_agrees_with_reference(case):
    s, spec = case
    report = verify_pps(s, spec)
    assert report == _reference_report(s, spec)
    assert infer_params(s) == _reference_infer(s)
    assert report.valid == (infer_params(s) == spec)


# Valid (pair set, spec) witnesses far above the random cases' moduli.
_LARGE_WITNESSES = (construct.silver_pps_p2(47, 1, 477),  # 477**2 = 2 (mod 47**2)
                    construct.cyclotomic_pps(23, 7),
                    construct.silver_aps(271))


@st.composite
def _large_corruptions(draw) -> tuple[PairSet, PPSSpec]:
    """A large witness with one entry moved, a pair dropped or repeated, or its spec scaled."""
    s, spec = draw(st.sampled_from(_LARGE_WITNESSES))
    v, pairs = s.v, [list(p) for p in s.pairs]
    i = draw(st.integers(0, len(pairs) - 1))
    how = draw(st.sampled_from(("move", "drop", "repeat", "scale spec")))
    if how == "move":
        j = draw(st.integers(0, 1))
        other = pairs[i][1 - j]
        pairs[i][j] = draw(st.one_of(
            st.just(0),
            st.sampled_from(sorted(spec.a1)),
            st.sampled_from([(b + sign * other) % v for b in spec.a2 for sign in (1, -1)]),
            st.integers(0, v - 1)))
        assume((pairs[i][0] - pairs[i][1]) % v and (pairs[i][0] + pairs[i][1]) % v)
    elif how == "drop":
        del pairs[i]
    elif how == "repeat":
        pairs.append(pairs[i])
    else:
        lam = draw(st.integers(2, v - 1).filter(lambda u: math.gcd(u, v) == 1))
        spec = PPSSpec(v, frozenset(lam * a for a in spec.a1),
                       frozenset(lam * a for a in spec.a2))
    return PairSet(v, tuple(map(tuple, pairs))), spec


@settings(max_examples=200, deadline=None)
@given(_large_corruptions())
def test_class_marks_agree_with_reference_at_large_v(case):
    s, spec = case
    assert verify_pps(s, spec) == _reference_report(s, spec)
    assert infer_params(s) == _reference_infer(s)


@st.composite
def _fold_edge_cases(draw) -> PairSet:
    """Random pairs over odd and even v up to 10**4, with hits forced onto the fold's edges.

    Each edge puts a hit on 0 (cover 1 only: cover 2 cannot hit 0), on v//2
    (its own negative when v is even), on both sides z and -z of one class
    of either cover, by an added pair whose entry, sum or difference is the
    negative of a drawn pair's, or twice on one residue z of either cover,
    by an added pair whose entry, sum or difference is a drawn pair's.
    """
    v = draw(st.integers(20, 10_000))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    h = v // 2
    n = draw(st.integers(1, min(12, (v - 2) // 4 - 3)))  # room for three more pairs in the spec
    pairs = []
    while len(pairs) < n:
        x, y = rng.randrange(v), rng.randrange(v)
        if (x - y) % v and (x + y) % v:
            pairs.append((x, y))
    for edge in draw(st.lists(st.sampled_from(("0", "v/2 on cover 1", "v/2 on cover 2",
                                               "+-z on cover 1", "+-z on cover 2",
                                               "z twice on cover 1", "z twice on cover 2")),
                              min_size=1, max_size=3)):
        i = rng.randrange(len(pairs))
        x, y = pairs[i]
        a = rng.randrange(v)
        if edge == "0":
            pairs[i] = (0, y)
        elif edge == "v/2 on cover 1":
            pairs[i] = (h, y)
        elif edge == "v/2 on cover 2":
            pairs[i] = (x, x + h) if rng.random() < 0.5 else (x, h - x)
        elif edge == "+-z on cover 1":
            pairs.append((-x, a))
        elif edge == "z twice on cover 1":
            pairs.append((x, a))
        else:  # the sum or the difference of the new pair is +-(y - x) or +-(x + y)
            z = rng.choice((y - x, x + y)) * (1 if edge == "z twice on cover 2" else -1)
            pairs.append((a, z - a) if rng.random() < 0.5 else (a, a + z))
    assume(all((x - y) % v and (x + y) % v for x, y in pairs))
    return PairSet(v, tuple(pairs))


def _nearest_spec(s: PairSet) -> PPSSpec:
    """The spec with |A1| = |A2| = v - 4n that s comes closest to meeting.

    A1 (A2) holds 0, v/2 for even v, and then the +-classes that cover 1
    (cover 2) leaves unhit before any it hits.  So a set whose only fault is
    a hit on 0, on v/2 or on both sides of one class passes every other
    test of verify_pps's fast path.
    """
    v, n = s.v, len(s.pairs)
    base = {0, v // 2} if v % 2 == 0 else {0}
    size = (v - 4 * n - len(base)) // 2
    excluded = []
    for counts in _reference_tally(s):
        classes = sorted(range(1, (v + 1) // 2), key=lambda c: (counts[c] + counts[v - c] > 0, c))
        excluded.append(frozenset(base.union(*({c, v - c} for c in classes[:size]))))
    return PPSSpec(v, *excluded)


@settings(max_examples=300, deadline=None)
@given(_fold_edge_cases())
def test_fold_edges_agree_with_reference(s):
    assert infer_params(s) == _reference_infer(s)
    spec = _nearest_spec(s)
    assert verify_pps(s, spec) == _reference_report(s, spec)


def _cover_counts(s: PairSet) -> tuple[list[int], list[int]]:
    """Multiplicity of each residue in the unions of +-{x, y} and of +-{x+y, x-y}.

    Tallied per +-class min(z, v - z) of each hit z, then unfolded: residue
    z > v//2 reads class v - z, and the classes 0 and v/2, where z = -z,
    count twice per hit.
    """
    v = s.v
    h = v // 2
    c1, c2 = [0] * (h + 1), [0] * (h + 1)
    for x, y in s.pairs:
        c1[x if x <= h else v - x] += 1
        c1[y if y <= h else v - y] += 1
        t = x + y
        if t >= v:
            t -= v
        c2[t if t <= h else v - t] += 1
        d = y - x
        c2[d if d <= h else v - d] += 1
    tail = slice(v - h - 1, 0, -1)
    for c in (c1, c2):
        c[0] *= 2
        if v % 2 == 0:
            c[h] *= 2
    return c1 + c1[tail], c2 + c2[tail]


def _diagnose(counts: list[int], excluded: frozenset[int]) -> tuple[frozenset, frozenset]:
    """(missing, repeated) of one cover; both empty when it is exactly the 0/1 target."""
    if counts.count(1) == len(counts) - len(excluded) and not any(counts[z] for z in excluded):
        return frozenset(), frozenset()
    missing = frozenset(itertools.compress(range(len(counts)), map(operator.not_, counts)))
    repeated = frozenset(z for z, c in enumerate(counts) if c > 1)
    return missing - excluded, repeated | {z for z in excluded if counts[z]}


def _tally_report(s: PairSet, spec: PPSSpec) -> VerifyReport:
    """verify_pps's report read off a per-residue tally of each cover."""
    c1, c2 = _cover_counts(s)
    (missing1, repeated1), (missing2, repeated2) = _diagnose(c1, spec.a1), _diagnose(c2, spec.a2)
    return VerifyReport(not (missing1 or repeated1 or missing2 or repeated2),
                        missing1, repeated1, missing2, repeated2)


def _with_hit_excluded(s: PairSet, spec: PPSSpec, rng: random.Random) -> PPSSpec:
    """spec with, in each cover, one excluded class other than 0 and v/2 swapped for a hit one."""
    v = s.v
    sides = []
    for counts, excluded in zip(_reference_tally(s), (spec.a1, spec.a2)):
        hit = [c for c in range(1, (v + 1) // 2) if counts[c] and c not in excluded]
        free = [c for c in range(1, (v + 1) // 2) if c in excluded]
        if hit and free:
            c, e = rng.choice(hit), rng.choice(free)
            excluded = excluded - {e, v - e} | {c, v - c}
        sides.append(excluded)
    return PPSSpec(v, *sides)


@settings(max_examples=300, deadline=None)
@given(_fold_edge_cases(), st.booleans(), st.integers(0, 2**32 - 1))
def test_verify_pps_agrees_with_the_per_residue_tally(s, hit_excluded, seed):
    # PPSSpec puts v/2 into both excluded sets for even v (|A1| = v mod 2);
    # the OOC differentials cover n/2 outside any excluded set
    spec = _nearest_spec(s)
    if hit_excluded:
        spec = _with_hit_excluded(s, spec, random.Random(seed))
    report = verify_pps(s, spec)
    assert report == _tally_report(s, spec) == _reference_report(s, spec)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_tally_cases(), _large_corruptions()))
def test_random_and_moved_sets_agree_with_the_per_residue_tally(case):
    s, spec = case
    assert verify_pps(s, spec) == _tally_report(s, spec)


def _reference_classes(marks: bytearray, v: int, mark: int) -> frozenset[int]:
    """core._classes as the marks, flipped when mark is 0, compressed against range(len(marks))."""
    held = marks if mark else marks.translate(bytes.maketrans(b"\x00\x01", b"\x01\x00"))
    classes = frozenset(itertools.compress(range(len(marks)), held))
    return classes | {v - c for c in classes if c}


@st.composite
def _class_mark_cases(draw) -> tuple[bytearray, int]:
    """0/1 marks over the v//2 + 1 classes of Z_v, 1 to 5,000 of them, filled to a drawn density."""
    v = draw(st.integers(1, 9_999))
    size = v // 2 + 1
    fill = draw(st.sampled_from(("all zero", "few marked", "half", "few unmarked", "all one")))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if fill == "half":
        marks = bytearray(rng.getrandbits(1) for _ in range(size))
    else:
        marks = bytearray([fill in ("few unmarked", "all one")]) * size
        if fill.startswith("few"):
            flipped = {rng.randrange(size) for _ in range(draw(st.integers(1, 20)))}
            # the end classes: 0, and v/2 (its own negative) when v is even
            flipped |= {c for c in (0, size - 1) if draw(st.booleans())}
            for c in flipped:
                marks[c] ^= 1
    return marks, v


@settings(max_examples=300, deadline=None)
@given(_class_mark_cases())
def test_unmarked_agrees_with_the_compressed_flip(case):
    marks, v = case
    for mark in (0, 1):
        assert core._classes(marks, v, mark) == _reference_classes(marks, v, mark)


@pytest.mark.parametrize("v", [1, 2, 13, 36, 10_001, 10_000])
def test_an_empty_pair_set_leaves_every_residue_on_both_sides(v):
    spec = infer_params(PairSet(v, ()))
    assert spec == _reference_infer(PairSet(v, ()))
    assert spec.a1 == spec.a2 == frozenset(range(v))


def _aps_necessary(v: int, alpha: int, beta: int) -> bool:
    """The square-sum identity on APS(v, alpha, beta), v = 3 (mod 4), in closed form."""
    lhs = (2 * alpha * alpha - beta * beta) % v
    return lhs == (v // 3 if v % 12 == 3 else 0)


def test_aps_necessary_examples():
    for v, alpha, beta, holds in ((27, 3, 6, True), (7, 2, 1, True), (7, 1, 1, False)):
        assert core.square_sums_agree(PPSSpec.aps(v, alpha, beta)) is holds
        assert _aps_necessary(v, alpha, beta) is holds
    with pytest.raises(ValueError):
        PPSSpec.aps(27, 0, 6)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(range(3, 400, 2)), st.data())
def test_square_sums_agree_matches_the_closed_forms(v, data):
    """The square-sum identity is _aps_necessary on APS specs and v != 9 (mod 12) on PS."""
    if v % 4 == 1:
        assert core.square_sums_agree(PPSSpec.ps(v)) is (v % 12 != 9)
        return
    alpha = data.draw(st.integers(1, v - 1), label="alpha")
    beta = data.draw(st.integers(1, v - 1), label="beta")
    assert core.square_sums_agree(PPSSpec.aps(v, alpha, beta)) is _aps_necessary(v, alpha, beta)


def test_nonexistence_examples():
    assert nonexistence_case(63) is NonexistenceCase.EVEN_THREE_VALUATION
    assert nonexistence_case(15) is NonexistenceCase.NONRESIDUE_PRIMES_TIMES_THREE
    assert nonexistence_case(11) is NonexistenceCase.NONRESIDUE_PRIMES
    assert nonexistence_case(27) is None
    assert nonexistence_case(9) is NonexistenceCase.PS_RESIDUE_CLASS
    assert nonexistence_case(13) is None
    with pytest.raises(ValueError):
        nonexistence_case(12)


def test_nonexistence_classification_below_300():
    """The complete split of v = 3 (mod 4), v < 300 into obstruction cases."""
    case1 = {63, 99, 171, 207, 279}
    case2 = {15, 87, 159, 195}
    case3 = {11, 19, 43, 55, 59, 67, 83, 95, 107, 131, 139, 143, 163, 179,
             211, 215, 227, 247, 251, 283, 295}
    open_or_known = {3, 7, 23, 27, 31, 35, 39, 47, 51, 71, 75, 79, 91, 103,
                     111, 115, 119, 123, 127, 135, 147, 151, 155, 167, 175,
                     183, 187, 191, 199, 203, 219, 223, 231, 235, 239, 243,
                     255, 259, 263, 267, 271, 275, 287, 291, 299}
    for v in range(3, 300, 4):
        got = nonexistence_case(v)
        if v in case1:
            assert got is NonexistenceCase.EVEN_THREE_VALUATION, v
        elif v in case2:
            assert got is NonexistenceCase.NONRESIDUE_PRIMES_TIMES_THREE, v
        elif v in case3:
            assert got is NonexistenceCase.NONRESIDUE_PRIMES, v
        else:
            assert v in open_or_known and got is None, v


def test_admissible_params_examples():
    adm7 = admissible_params(7)
    assert {(2, 1), (1, 3), (1, 4)} <= set(adm7)
    assert all(core.square_sums_agree(PPSSpec.aps(7, a, b)) for a, b in adm7)
    assert admissible_params(11) == []
    adm27 = set(admissible_params(27))
    assert {(3, 6), (3, 3)} <= adm27
    with pytest.raises(ValueError):
        admissible_params(13)
    with pytest.raises(BudgetExceededError):
        admissible_params(100003)  # above ADMISSIBLE_SCAN_LIMIT


def test_admissible_empty_iff_obstructed():
    for v in range(3, 120, 4):
        if v % 4 != 3:
            continue
        empty = not admissible_params(v)
        assert empty == (nonexistence_case(v) is not None), v


def test_admissible_witness_agrees_with_scan():
    for v in range(3, 300, 4):
        if v % 4 != 3:
            continue
        witness = admissible_witness(v)
        full = admissible_params(v)
        if witness is None:
            assert not full, v
        else:
            assert witness in full, (v, witness)


def test_admissible_witness_beyond_scan_range():
    # prime power component
    alpha, beta = admissible_witness(7 ** 5)
    assert core.square_sums_agree(PPSSpec.aps(7 ** 5, alpha, beta))
    # 3 times two large primes, one of them with 2 a square
    v = 3 * 10007 * 10039
    alpha, beta = admissible_witness(v)
    assert alpha % v and beta % v
    assert core.square_sums_agree(PPSSpec.aps(v, alpha, beta))
    # large pure power of 3
    alpha, beta = admissible_witness(3 ** 13)
    assert core.square_sums_agree(PPSSpec.aps(3 ** 13, alpha, beta))
    # an obstructed composite stays empty: squarefree product of 3 (mod 8) primes
    assert admissible_witness(11 * 13 * 29) is None  # 4147 = 7 mod 12, all +-3 mod 8


def test_admissible_witness_exists_exactly_off_the_obstructions():
    for v in range(3, 20_000, 4):
        witness = admissible_witness(v)
        if nonexistence_case(v) is not None:
            assert witness is None, v
        else:
            alpha, beta = witness
            assert alpha % v and beta % v, v
            assert core.square_sums_agree(PPSSpec.aps(v, alpha, beta)), v


def test_admissible_witness_plants_in_the_smallest_prime(monkeypatch):
    v = 3 * 10007 * 10039
    assert admissible_witness(v) == (78484902, 129543256)
    real = core.factorint
    monkeypatch.setattr(core, "factorint", lambda n: dict(reversed(real(n).items())))
    assert admissible_witness(v) == (78484902, 129543256)


def test_admissible_solution_counts_on_silver_primes():
    """2a^2 = b^2 has 2p-1 solutions mod p (with zero), hence 2p-2 admissible.

    The count carries over from p to pq when 2 is a non-square mod q, which
    is what makes the product construction parameter-complete.
    """
    for p in (7, 23, 31):
        assert len(admissible_params(p)) == 2 * p - 2
    for v, p in ((35, 7), (91, 7), (115, 23)):  # q = 5, 13, 5: all 5 (mod 8)
        assert len(admissible_params(v)) == 2 * p - 2, v


def test_exhaustive_search_deadline():
    import time

    with pytest.raises(BudgetExceededError):
        exhaustive_search(PPSSpec.ps(37), deadline=time.monotonic() - 1)


def test_expired_deadline_stops_exhaustive_search_before_its_option_table():
    import time
    import tracemalloc

    # the forced PS(401) option table alone takes tens of MiB
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError):
            exhaustive_search(PPSSpec.ps(401), force=True, deadline=time.monotonic() - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_deadline_stops_exhaustive_search_while_it_builds_its_option_table():
    import time
    import tracemalloc

    # a complete forced PS(601) table takes ~29 MB (its 44,850 options' covered_by masks)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError):
            exhaustive_search(PPSSpec.ps(601), force=True, deadline=time.monotonic() + 0.02)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20
    assert not any(v == 601 for v, _ in kramer_mesner._TABLES)


def test_scale_set():
    assert scale_set(PairSet(7, ((1, 4),)), 3).pairs == ((3, 5),)
    assert scale_set(PS13, 1) == PS13
    scaled = scale_set(PairSet(7, ((1, 4),)), 2)
    assert verify_pps(scaled, PPSSpec.aps(7, 4, 2)).valid
    with pytest.raises(ValueError):
        scale_set(PS13, 0)
    with pytest.raises(ValueError):
        scale_set(PairSet(9, ((1, 2),)), 3)


def test_scaling_preserves_validity():
    rng = random.Random(3)
    for _ in range(50):
        lam = rng.choice([x for x in range(1, 27) if x % 3 != 0])
        scaled = scale_set(EXAMPLE_27_3_6, lam)
        spec = PPSSpec.aps(27, 3 * lam, 6 * lam)
        assert verify_pps(scaled, spec).valid


def test_exhaustive_search_examples():
    found = exhaustive_search(PPSSpec.ps(5))
    assert found.pairs == ((1, 2),)
    assert verify_pps(found, PPSSpec.ps(5)).valid

    # deterministic first solution; the classical one-pair witness {1, 4}
    # is a different, equally valid answer
    found = exhaustive_search(PPSSpec.aps(7, 2, 1))
    assert found.pairs == ((1, 3),)
    assert verify_pps(found, PPSSpec.aps(7, 2, 1)).valid
    assert verify_pps(PairSet(7, ((1, 4),)), PPSSpec.aps(7, 2, 1)).valid

    for alpha in range(1, 6):
        for beta in range(1, 6):
            assert exhaustive_search(PPSSpec.aps(11, alpha, beta)) is None


def test_exhaustive_search_trivial_and_budget():
    assert exhaustive_search(PPSSpec.aps(3, 1, 1)).pairs == ()
    assert exhaustive_search(PPSSpec.ps(1)).pairs == ()  # in Z_1 the unit 1 is 0
    found = exhaustive_search(PPSSpec.ps(13))
    assert verify_pps(found, PPSSpec.ps(13)).valid
    with pytest.raises(BudgetExceededError):
        exhaustive_search(PPSSpec.ps(101))
    # subgroup-shaped excluded sets work too
    h = frozenset(range(0, 35, 5))
    found = exhaustive_search(PPSSpec(35, h, h))
    assert found is not None and verify_pps(found, PPSSpec(35, h, h)).valid


def test_every_valid_set_has_exact_pair_count():
    for spec in (PPSSpec.ps(5), PPSSpec.ps(13), PPSSpec.aps(7, 2, 1),
                 PPSSpec.aps(27, 3, 6)):
        found = exhaustive_search(spec)
        assert found is not None
        assert len(found.pairs) == spec.pair_count


def _class(z: int, v: int) -> int:
    z %= v
    return min(z, v - z)


def _matchings(classes: tuple[int, ...]):
    if not classes:
        yield ()
        return
    a, rest = classes[0], classes[1:]
    for i, b in enumerate(rest):
        for tail in _matchings(rest[:i] + rest[i + 1:]):
            yield ((a, b),) + tail


def _lexmin_by_leave(v: int, free: tuple[int, ...]) -> dict:
    """Brute-force oracle over every perfect matching of the free negation classes.

    Keeps the matchings whose sum/difference classes are pairwise distinct
    and maps the set of classes they leave uncovered to the lexicographically
    least such matching.
    """
    classes = set(range(1, v // 2 + 1))
    best: dict = {}
    for matching in _matchings(free):
        hit = [_class(a + b, v) for a, b in matching] + [_class(a - b, v) for a, b in matching]
        if len(set(hit)) != len(hit):
            continue
        leave = frozenset(classes - set(hit))
        key = tuple(sorted(matching))
        if leave not in best or key < best[leave]:
            best[leave] = key
    return best


def test_exhaustive_search_is_the_lexicographically_least_matching():
    for v in range(3, 28, 4):
        half = (v - 1) // 2
        for alpha in range(1, half + 1):
            best = _lexmin_by_leave(v, tuple(c for c in range(1, half + 1) if c != alpha))
            for beta in range(1, half + 1):
                spec = PPSSpec.aps(v, alpha, beta)
                expected = best.get(frozenset({beta}))
                found = exhaustive_search(spec)
                if expected is None:
                    assert found is None, (v, alpha, beta)
                    continue
                assert verify_pps(PairSet(v, expected), spec).valid
                assert found is not None and found.pairs == expected, (v, alpha, beta)
    for v in range(5, 26, 4):
        expected = _lexmin_by_leave(v, tuple(range(1, (v - 1) // 2 + 1))).get(frozenset())
        found = exhaustive_search(PPSSpec.ps(v))
        assert (None if found is None else found.pairs) == expected, v


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(range(3, 28, 2)), st.data())
def test_exhaustive_search_is_the_least_matching_from_a_cold_or_warm_table(v, data):
    """The sign group's table answers alike cold or warm, and a spec that fails the
    square-sum identity builds none."""
    half = (v - 1) // 2
    if v % 4 == 1:
        spec, free, leave = PPSSpec.ps(v), tuple(range(1, half + 1)), frozenset()
    else:
        alpha = data.draw(st.integers(1, half), label="alpha")
        beta = data.draw(st.integers(1, half), label="beta")
        spec = PPSSpec.aps(v, alpha, beta)
        free, leave = tuple(c for c in range(1, half + 1) if c != alpha), frozenset({beta})
    expected = _lexmin_by_leave(v, free).get(leave)
    agree = core.square_sums_agree(spec)
    answers = []
    for warm in (False, True):
        with patch.dict(kramer_mesner._TABLES, clear=True):
            if warm:
                kramer_mesner.option_table(kramer_mesner.MultiplierGroup.generate(v, [v - 1]))
            found = exhaustive_search(spec)
            assert list(kramer_mesner._TABLES) == ([(v, (1, v - 1))] if warm or agree else [])
        answers.append(None if found is None else found.pairs)
    assert answers == [expected] * 2


def _rejected_specs(max_v: int):
    """PS(v), v = 1 (mod 4), and APS(v, alpha, beta), 1 <= alpha, beta <= v // 2,
    v = 3 (mod 4), for odd v <= max_v, that fail the square-sum identity."""
    for v in range(3, max_v + 1, 2):
        half = v // 2
        specs = ([PPSSpec.ps(v)] if v % 4 == 1 else
                 [PPSSpec.aps(v, a, b) for a in range(1, half + 1) for b in range(1, half + 1)])
        yield from (spec for spec in specs if not core.square_sums_agree(spec))


def test_the_search_itself_finds_no_set_where_the_square_sum_identity_fails():
    """The "none" answers the identity gives are what the search proves without it."""
    rejected = list(_rejected_specs(39))
    assert len(rejected) == 1290
    with patch.dict(kramer_mesner._TABLES, clear=True):
        for spec in rejected:
            assert exhaustive_search(spec, force=True) is None
        assert not kramer_mesner._TABLES  # the identity answered before any table
        with patch.object(kramer_mesner, "square_sums_agree", lambda spec: True), \
                patch.object(kramer_mesner, "build_system",
                             wraps=kramer_mesner.build_system) as build, \
                patch.object(kramer_mesner, "solve_binary",
                             wraps=kramer_mesner.solve_binary) as solve:
            for spec in rejected:
                assert exhaustive_search(spec, force=True) is None, spec
        # The forced pass really searched: one build and one solve a spec, on the
        # sign group's table of every modulus.
        assert build.call_count == solve.call_count == len(rejected)
        assert set(kramer_mesner._TABLES) == {(spec.v, (1, spec.v - 1)) for spec in rejected}
