from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import primerange

from designforge import construct
from designforge.catalog import (
    CYCLOTOMIC_WITNESSES_P,
    CYCLOTOMIC_WITNESSES_Q,
    SILVER_PRIMES,
    SILVER_SQUARE_PRIMES,
    get,
    ids,
)
from designforge.construct import (
    aps_with_params,
    compose_ps_aps,
    cyclotomic_pps,
    cyclotomic_witnesses,
    fill,
    inflate,
    ps_product,
    silver_aps,
    silver_pps_p2,
    silver_witness,
    union_pps_pq,
)
from designforge.core import (PairSet, PPSSpec, admissible_params, infer_params, scale_set,
                              square_sums_agree, verify_pps)
from designforge.modarith import crt_basis, mod_sqrt

PS5 = PairSet(5, ((1, 2),))
PS13 = PairSet(13, ((1, 5), (2, 3), (4, 6)))
BROKEN13 = PairSet(13, ((1, 5), (2, 3), (4, 5)))  # covers 5 twice and 6 never


def test_silver_witness_basics():
    w = silver_witness(7)
    assert (w.theta, w.generates) == (4, True)
    w2 = silver_witness(7, square=True)
    assert (w2.modulus, w2.theta, w2.generates) == (49, 11, True)
    with pytest.raises(ValueError):
        silver_witness(17)  # 17 = 1 mod 8
    with pytest.raises(ValueError):
        silver_witness(15)


def test_silver_aps_examples():
    s, spec = silver_aps(7)
    assert s.pairs == ((2, 4),)
    assert (spec.alpha, spec.beta) == (1, 3)
    assert verify_pps(s, spec).valid

    s23, spec23 = silver_aps(23)
    assert len(s23.pairs) == 5
    assert verify_pps(s23, spec23).valid

    with pytest.raises(ValueError):
        silver_aps(17)


def test_silver_chain_structure():
    for p in (7, 23, 31, 47):
        s, spec = silver_aps(p)
        theta = silver_witness(p).theta
        for a, b in s.pairs:
            assert b == a * theta % p or a == b * theta % p


@pytest.mark.parametrize("p", SILVER_PRIMES)
def test_silver_aps_whole_family(p):
    s, spec = silver_aps(p)
    assert len(s.pairs) == (p - 3) // 4
    assert verify_pps(s, spec).valid


def test_silver_square_prime_table_recomputed():
    """The full below-2000 list of prime-square generator primes, from scratch."""
    candidates = [p for p in primerange(3, 2000) if p % 8 == 7]
    assert len(candidates) == 78
    computed = tuple(p for p in candidates
                     if silver_witness(p, square=True).generates)
    assert computed == SILVER_SQUARE_PRIMES
    assert len(computed) == 59


def test_aps_with_params():
    s, spec = aps_with_params(7, 2, 1)
    assert s.pairs == ((1, 4),)
    assert verify_pps(s, spec).valid

    s, spec = aps_with_params(7, 1, 4)  # beta 4 = -3, same excluded set as beta 3
    assert verify_pps(s, PPSSpec.aps(7, 1, 4)).valid

    with pytest.raises(ValueError):
        aps_with_params(7, 1, 2)  # 2 - 4 is not 0 mod 7
    with pytest.raises(ValueError):
        aps_with_params(7, 0, 1)


@pytest.mark.parametrize("p", [p for p in SILVER_PRIMES if p <= 71])
def test_aps_with_params_on_every_admissible_target(p):
    for alpha, beta in admissible_params(p):
        s, spec = aps_with_params(p, alpha, beta)
        assert spec == PPSSpec.aps(p, alpha, beta)
        assert verify_pps(s, spec).valid, (alpha, beta)


def test_inflate():
    inflated, spec = inflate(PS5, 7)
    assert inflated.v == 35 and len(inflated.pairs) == 7
    h = frozenset(range(0, 35, 5))
    assert spec == PPSSpec(35, h, h)
    assert verify_pps(inflated, spec).valid

    same, spec1 = inflate(PS5, 1)
    assert same.pairs == PS5.pairs

    for bad in (3, 9, 2):
        with pytest.raises(ValueError):
            inflate(PS5, bad)


def test_fill():
    outer, _ = inflate(PS5, 7)
    aps7, aps7_spec = aps_with_params(7, 2, 1)
    filled, spec = fill(outer, aps7, 5)
    assert spec == PPSSpec.aps(35, 10, 5)
    assert verify_pps(filled, spec).valid

    # a PS inner gives a PS outer
    outer65, _ = inflate(PS13, 5)
    filled, spec = fill(outer65, PS5, 13)
    assert spec == PPSSpec.ps(65)
    assert verify_pps(filled, spec).valid

    with pytest.raises(ValueError):
        fill(outer, aps7, 7)  # mismatched index
    with pytest.raises(ValueError):
        fill(outer65, aps7, 13)  # inner modulus mismatch


def test_compose_ps_aps():
    aps7, _ = aps_with_params(7, 2, 1)
    out, spec = compose_ps_aps(PS5, aps7)
    assert spec == PPSSpec.aps(35, 10, 5)
    assert verify_pps(out, spec).valid

    out, spec = compose_ps_aps(PS13, aps7)
    assert spec == PPSSpec.aps(91, 26, 13)
    assert verify_pps(out, spec).valid

    with pytest.raises(ValueError):
        compose_ps_aps(PS5, get("aps-27-3-6").pair_set())  # 27 = 3 mod 12


def test_ps_product():
    for sa, sb, n in ((PS5, PS5, 25), (PS5, PS13, 65), (PS13, PS13, 169)):
        out, spec = ps_product(sa, sb)
        assert spec == PPSSpec.ps(n)
        assert verify_pps(out, spec).valid
    with pytest.raises(ValueError):
        ps_product(PS5, PairSet(7, ((1, 4),)))


def test_compositions_reject_invalid_arguments():
    aps7, _ = aps_with_params(7, 2, 1)
    with pytest.raises(ValueError):
        compose_ps_aps(BROKEN13, aps7)
    with pytest.raises(ValueError):
        compose_ps_aps(PS13, PairSet(7, ((1, 2), (1, 3))))
    for sa, sb in ((BROKEN13, PS5), (PS5, BROKEN13)):
        with pytest.raises(ValueError):
            ps_product(sa, sb)


def test_inflate_and_fill_reject_invalid_arguments():
    with pytest.raises(ValueError, match="fails its stated spec"):
        inflate(BROKEN13, 5, spec=PPSSpec.ps(13))
    with pytest.raises(ValueError, match="not a valid partial pair set"):
        inflate(BROKEN13, 5)
    outer65, _ = inflate(PS13, 5)
    with pytest.raises(ValueError, match="outer pair set"):
        fill(PairSet(65, outer65.pairs[1:]), PS5, 13)
    for d in (0, -3):
        with pytest.raises(ValueError, match=f"^d = {d} must be positive$"):
            fill(outer65, PS5, d)


def test_compositions_check_each_argument_once(monkeypatch):
    aps7, _ = aps_with_params(7, 2, 1)
    checked = []
    for name in ("verify_pps", "infer_params"):
        def record(s, *args, _name=name, _real=getattr(construct, name)):
            checked.append((_name, s.v))
            return _real(s, *args)
        monkeypatch.setattr(construct, name, record)

    compose_ps_aps(PS13, aps7)
    assert sorted(checked) == [("infer_params", 7), ("verify_pps", 13)]
    checked.clear()
    ps_product(PS5, PS13)
    assert sorted(checked) == [("verify_pps", 5), ("verify_pps", 13)]
    checked.clear()
    aps_with_params(23, 2, 10)  # the silver APS scaled by alpha needs no check
    assert checked == []


def test_cyclotomic_witnesses_match_known_table():
    for p, expected in CYCLOTOMIC_WITNESSES_P.items():
        q = 7 if p != 7 else 11
        if p <= q:
            continue
        got_p, _ = cyclotomic_witnesses(p, q)
        assert got_p == expected, p
    for q, expected in CYCLOTOMIC_WITNESSES_Q.items():
        p = 43 if q != 43 else 47
        if p <= q:
            continue
        _, got_q = cyclotomic_witnesses(p, q)
        assert got_q == expected, q


def _first_witness_by_brute_force(m: int, y_square: bool) -> tuple[int, int]:
    """The least (x, y) with x, x+y squares mod m and y, x-y squares (or both nonsquares)."""
    def square(z):
        return z % m != 0 and pow(z, (m - 1) // 2, m) == 1

    def same_class_as_y(z):
        return z % m != 0 and square(z) == y_square

    return min((x, y) for x in range(1, m) for y in range(1, m)
               if square(x) and square(x + y) and same_class_as_y(y) and same_class_as_y(x - y))


def test_cyclotomic_witnesses_match_brute_force():
    primes = [p for p in primerange(5, 150) if p % 4 == 3]
    mod_p = {p: _first_witness_by_brute_force(p, True) for p in primes[1:]}
    mod_q = {q: _first_witness_by_brute_force(q, False) for q in primes[:-1]}
    for p in mod_p:
        for q in mod_q:
            if p > q:
                assert cyclotomic_witnesses(p, q) == (mod_p[p], mod_q[q]), (p, q)


def test_cyclotomic_pps():
    s, spec = cyclotomic_pps(11, 7)
    assert len(s.pairs) == 15
    assert verify_pps(s, spec).valid

    s, spec = cyclotomic_pps(23, 7)
    assert len(s.pairs) == 33
    assert verify_pps(s, spec).valid
    # works above the hand-picked range too
    s, spec = cyclotomic_pps(59, 47)
    assert len(s.pairs) == (59 - 1) * (47 - 1) // 4
    assert verify_pps(s, spec).valid

    with pytest.raises(ValueError):
        cyclotomic_pps(7, 11)  # p > q violated
    with pytest.raises(ValueError):
        cyclotomic_pps(7, 3)
    with pytest.raises(ValueError):
        cyclotomic_pps(13, 7)  # 13 = 1 mod 4


def _cyclotomic_pairs_by_full_lift(p: int, q: int) -> tuple[tuple[int, int], ...]:
    """Each pair lifted whole: (x1*s1*ep + x2*s2*eq, y1*s1*ep + y2*s2*eq) mod pq, smaller first."""
    (x1, y1), (x2, y2) = cyclotomic_witnesses(p, q)
    n = p * q
    ep, eq = crt_basis([p, q])
    squares_p = sorted({x * x % p for x in range(1, p)})
    squares_q = sorted({x * x % q for x in range(1, q)})
    lifts = (((x1 * s1 * ep + x2 * s2 * eq) % n, (y1 * s1 * ep + y2 * s2 * eq) % n)
             for s1 in squares_p for s2 in squares_q)
    return tuple((x, y) if x < y else (y, x) for x, y in lifts)


CYCLOTOMIC_PRIMES = [p for p in primerange(5, 120) if p % 4 == 3]


@pytest.mark.parametrize("p, q", [(p, q) for p in CYCLOTOMIC_PRIMES for q in CYCLOTOMIC_PRIMES
                                  if p > q] + [(191, 127), (263, 71)])
def test_cyclotomic_pps_pairs_are_the_full_lifts_in_order(p, q):
    s, _ = cyclotomic_pps(p, q)
    assert s.pairs == _cyclotomic_pairs_by_full_lift(p, q)


def test_cyclotomic_pps_lifts_every_pair_and_excludes_the_multiples_up_to_300():
    primes = [p for p in primerange(5, 300) if p % 4 == 3]
    for p in primes:
        for q in primes[:primes.index(p)]:
            s, spec = cyclotomic_pps(p, q)
            assert s.pairs == _cyclotomic_pairs_by_full_lift(p, q), (p, q)
            n = p * q
            excluded = {z for z in range(n) if z % p == 0 or z % q == 0}
            assert spec == PPSSpec(n, excluded, excluded), (p, q)


def test_union_pps_pq():
    sp, _ = aps_with_params(23, 1, 5)
    sq, _ = aps_with_params(7, 2, 1)
    out, spec = union_pps_pq(23, 7, sp, sq)
    assert len(out.pairs) == 39
    assert spec.a1 == frozenset({0, 7, 161 - 7, 46, 161 - 46})
    assert spec.a2 == frozenset({0, 35, 161 - 35, 23, 161 - 23})
    assert verify_pps(out, spec).valid

    sp31, _ = silver_aps(31)
    out, spec = union_pps_pq(31, 7, sp31, sq)
    assert verify_pps(out, spec).valid

    with pytest.raises(ValueError):
        union_pps_pq(23, 3, sp, PairSet(3, ()))


def test_union_component_covers_are_disjoint():
    sp, _ = aps_with_params(23, 1, 5)
    sq, _ = aps_with_params(7, 2, 1)
    base, _ = cyclotomic_pps(23, 7)
    units = {z for pair in base.pairs for x in pair for z in (x, (-x) % 161)}
    from_p = {z for x, y in sp.pairs for z in (7 * x % 161, 7 * y % 161,
                                               -7 * x % 161, -7 * y % 161)}
    from_q = {z for x, y in sq.pairs for z in (23 * x % 161, 23 * y % 161,
                                               -23 * x % 161, -23 * y % 161)}
    assert not units & from_p and not units & from_q and not from_p & from_q


def test_silver_pps_p2():
    s, spec = silver_pps_p2(7, 1, 10)
    assert len(s.pairs) == 11
    assert spec.a1 == frozenset({0, 1, 48, 7, 42})
    assert verify_pps(s, spec).valid

    s, spec = silver_pps_p2(23, 1, 156)
    assert len(s.pairs) == 131
    assert verify_pps(s, spec).valid

    with pytest.raises(ValueError):
        silver_pps_p2(7, 1, 1)  # 2 - 1 is not 0 mod 49
    with pytest.raises(ValueError):
        silver_pps_p2(31, 1, 116)  # theta fails to generate over 31^2
    with pytest.raises(ValueError):
        silver_pps_p2(7, 7, 21)  # alpha not a unit


def test_silver_pps_p2_scaled_parameters():
    # beta must be a square root of 2*alpha^2; both signs name the same spec
    s, spec = silver_pps_p2(7, 3, 30 % 49)
    assert verify_pps(s, spec).valid
    assert spec.a1 == frozenset({0, 3, 46, 21, 28})


def test_constructions_verify_on_a_grid():
    """Every constructor output passes verification across a parameter sweep."""
    aps7, _ = aps_with_params(7, 2, 1)
    ps25, _ = ps_product(PS5, PS5)
    for s, spec in (
        silver_aps(31),
        aps_with_params(23, 2, 10),
        aps_with_params(31, 5, 9),   # 2*25 - 81 = -31
        compose_ps_aps(ps25, aps7),
        cyclotomic_pps(19, 11),
        cyclotomic_pps(43, 23),
        union_pps_pq(31, 23, silver_aps(31)[0], silver_aps(23)[0]),
        silver_pps_p2(7, 2, 20),
    ):
        assert verify_pps(s, spec).valid, spec


def test_constructed_aps_always_satisfy_necessary_condition():
    from designforge.core import SetKind, aps_necessary, infer_params

    aps7, _ = aps_with_params(7, 2, 1)
    outputs = [
        silver_aps(7)[0], silver_aps(23)[0], silver_aps(31)[0],
        aps_with_params(23, 2, 10)[0],
        compose_ps_aps(PS5, aps7)[0],
        compose_ps_aps(PS13, aps7)[0],
    ]
    for s in outputs:
        spec = infer_params(s)
        assert spec is not None and spec.kind is SetKind.APS
        assert aps_necessary(spec.v, spec.alpha, spec.beta)


def test_inflate_projection_recovers_input_classes():
    inflated, _ = inflate(PS13, 7)
    assert len(inflated.pairs) == 7 * len(PS13.pairs)
    base_classes = {frozenset((x, 13 - x)) | frozenset((y, 13 - y))
                    for x, y in PS13.pairs}
    for x, y in inflated.pairs:
        cls = frozenset((x % 13, (13 - x) % 13)) | frozenset((y % 13, (13 - y) % 13))
        assert cls in base_classes


def _silver_target(data, p: int, m: int) -> tuple[int, int]:
    """A unit alpha modulo m = p or p**2 and beta = +-alpha*sqrt(2) modulo m."""
    alpha = data.draw(st.integers(1, m - 1).filter(lambda a: a % p), label="alpha")
    sign = data.draw(st.sampled_from((1, -1)), label="sign")
    return alpha, sign * alpha * mod_sqrt(2, m) % m


def _built(builder: str, data) -> tuple[PairSet, PPSSpec]:
    """One output of builder, on silver primes and units alpha drawn from data."""
    primes = [p for p in SILVER_PRIMES if p <= 71]
    p = data.draw(st.sampled_from(primes), label="p")
    aps = aps_with_params(p, *_silver_target(data, p, p))
    ps = data.draw(st.sampled_from((PS5, PS13)), label="ps")
    if builder == "silver_aps":
        return silver_aps(data.draw(st.sampled_from(SILVER_PRIMES), label="p"))
    if builder == "aps_with_params":
        return aps
    if builder == "silver_pps_p2":
        p = data.draw(st.sampled_from((7, 23, 47)), label="p")
        return silver_pps_p2(p, *_silver_target(data, p, p * p))
    if builder == "cyclotomic_pps":
        q, p = sorted(data.draw(st.sets(st.sampled_from((7, 11, 19, 23, 31, 43)),
                                        min_size=2, max_size=2), label="p, q"))
        return cyclotomic_pps(p, q)
    if builder == "union_pps_pq":
        q = data.draw(st.sampled_from([q for q in primes if q != p]), label="q")
        if q > p:
            p, q = q, p
        return union_pps_pq(p, q, aps_with_params(p, *_silver_target(data, p, p))[0],
                            aps_with_params(q, *_silver_target(data, q, q))[0])
    if builder == "inflate":
        return inflate(aps[0], data.draw(st.sampled_from((5, 7, 11, 13)), label="u"))
    if builder == "ps_product":
        return ps_product(ps, data.draw(st.sampled_from((PS5, PS13)), label="second ps"))
    if builder == "compose_ps_aps":
        return compose_ps_aps(ps, aps[0])
    if builder == "fill":
        return fill(inflate(ps, p)[0], aps[0], ps.v)
    assert builder == "scale_set"
    s, spec = aps
    lam = data.draw(st.integers(1, p - 1), label="lambda")
    return scale_set(s, lam), PPSSpec(p, frozenset(lam * a for a in spec.a1),
                                      frozenset(lam * a for a in spec.a2))


BUILDERS = ["silver_aps", "aps_with_params", "silver_pps_p2", "cyclotomic_pps", "union_pps_pq",
            "inflate", "ps_product", "compose_ps_aps", "fill", "scale_set"]


@pytest.mark.parametrize("builder", BUILDERS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_builders_emit_normalised_valid_sets(builder, data):
    """A builder's set is what public PairSet makes of its pairs, and meets its spec."""
    s, spec = _built(builder, data)
    assert PairSet(s.v, s.pairs) == s
    assert verify_pps(s, spec).valid


@pytest.mark.parametrize("builder", BUILDERS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_built_sets_meet_the_square_sum_identity(builder, data):
    """S(A2) = 2 S(A1) (mod v) on the spec read off every set a builder makes."""
    spec = infer_params(_built(builder, data)[0])
    assert spec is not None and square_sums_agree(spec)


def test_catalog_sets_meet_the_square_sum_identity():
    entries = [get(entry_id) for entry_id in ids()]
    pair_sets = [entry.pair_set() for entry in entries if entry.kind in ("PS", "APS", "PPS")]
    assert pair_sets
    for s in pair_sets:
        spec = infer_params(s)
        assert spec is not None and square_sums_agree(spec), s.v
