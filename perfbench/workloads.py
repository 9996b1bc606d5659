"""Seeded request decks for the three workloads, and the calls they make.

A request is a plain tuple ``(kind, *params)`` naming its inputs by value or
by input key, so the request list can be digested and replayed.  Requests
are dealt in decks: every deck of a workload has the same composition, and
the seed picks the order, the parameters that leave a request's cost alone
and the members of cheap slots.  Runs stop at a deck boundary, so the cost
mix of a run does not depend on the seed or on where the clock ran out.

Every call goes through a module attribute (``construct.silver_aps``), never
through a name bound here, so the tracer's wrappers see it.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from designforge import catalog, construct, core, designs, kramer_mesner, ooc

WORKLOADS = ("construct", "search", "designs")
DECKS = 256  # generated per run; the loop cycles through them if it runs out
BUDGET_S = 10.0  # per-request limit; a request that takes longer has failed

SILVER = catalog.SILVER_PRIMES

# Fixed cost ladders, each ordered by cost.  Every deck serves each rung once,
# so a deck's cost mix is the same for every seed.  A deck holds 35 requests.
# Sorted by cost, the run's median then falls in the middle of the samples of
# the 17th to 19th cheapest requests, and its 90th percentile in the middle
# of those of the 31st to 33rd.  Each of these two triples is three copies of
# one request, so either percentile is the median of one request's samples,
# whatever the tail of its neighbours.  construct's triples are silver_pps_p2
# at p = 47 and p = 383, designs' are whist on APS(27, 3, 3) and
# maximal_ooc_pq(191, 127, 4).  (Times: 2-vCPU x86_64 VM.)
P2_LADDER = (47, 47, 47, 127, 191, 271, 383, 383, 383, 439,
             503)  # silver_pps_p2, v = p**2: 1.2 ms to 0.2 s
CYCLOTOMIC_LADDER = ((127, 23), (191, 71), (263, 71))  # 6 to 30 ms
UNION_LADDER = ((71, 23), (263, 71))  # 3 to 26 ms
CONSTRUCT_FIXED = (("ps_product", "ps-13", "ps-13"), ("inflate", "ps-133", 5),
                   ("compose_ps_aps", "ps-13", 47), ("ps_product", "ps-65", "ps-133"),
                   ("compose_ps_aps", "ps-133", 71))  # 0.3 to 11 ms

WHIST_LADDER = ("ps-13", "aps-27-3-3", "aps-27-3-3", "aps-27-3-3", "ps-65", "ps-133", "ps-169",
                "ps-325")  # 0.5 ms to 0.5 s; then one 652- or 666-player schedule, 2.5 s
OOC_PAIRS_LADDER = (("silver-7", 4), ("ps-13", 5), ("silver-23", 5), ("silver-31", 4),
                    ("aps-27-3-3", 5), ("ps-25", 4), ("silver-47", 5), ("silver-71", 4),
                    ("ps-65", 4), ("ps-169", 4), ("ps-133", 5), ("silver-127", 4),
                    ("silver-191", 4), ("ps-1729", 4))  # ooc_from_pairs (key, k): 0.04 to 9 ms
OOC45_LADDER = ("ps-13", "ps-133", "ps-1729")  # 0.9 to 140 ms
PQ_LADDER = ((127, 7, 4), (71, 23, 4), (151, 31, 5), (191, 127, 4), (191, 127, 4),
             (191, 127, 4))  # 6 ms to 0.3 s
P2_OOC_LADDER = ((7, 4), (47, 5), (127, 4))  # 0.5 to 160 ms

# APS(v, alpha, alpha) witnesses that seed whist rounds on v + 1 players.
WHIST_APS = {"aps-27-3-3": 3, "aps-651-217": 217}

# (alpha, beta) for the sign-group searches at v = 51 and 75: each finds a
# witness, and each takes within a factor of about 1.6 of the others, so a
# seed changes the parameters without changing the cost of a deck much.
KM_SIGN_PARAMS = {
    51: ((6, 2), (9, 20), (11, 15), (12, 4), (13, 24), (14, 18), (21, 10), (24, 8)),
    75: ((5, 5), (10, 10), (20, 5), (35, 5), (35, 10)),
}


def sqrt2(m: int, p: int) -> int:
    """A square root of 2 modulo m = p or p**2, for a prime p = 7 (mod 8)."""
    r = pow(2, (p + 1) // 4, p)
    if m == p:
        return r
    return (r - (r * r - 2) * pow(2 * r, -1, m)) % m


def pm(v: int, *xs: int) -> frozenset[int]:
    """{0, +-x, ...} modulo v."""
    return frozenset({0} | {x % v for x in xs} | {-x % v for x in xs})


@dataclass
class Inputs:
    """Pair sets the requests refer to by key, with their excluded sets."""

    sets: dict[str, core.PairSet] = field(default_factory=dict)
    excluded: dict[str, tuple[frozenset[int], frozenset[int]]] = field(default_factory=dict)

    def add(self, key: str, s: core.PairSet, a1: frozenset, a2: frozenset) -> None:
        self.sets[key] = s
        self.excluded[key] = (a1, a2)


def build_inputs(workload: str) -> Inputs:
    """Witnesses from the catalog, the silver family and ps_product."""
    inputs = Inputs()
    for entry_id in ("ps-13", "ps-133", "aps-27-3-6", "aps-27-3-3", "aps-651-217",
                     "aps-243-18", "aps-255-85", "aps-275-110"):
        entry = catalog.get(entry_id)
        v = entry.params["v"]
        if entry.kind == "PS":
            inputs.add(entry_id, entry.pair_set(), pm(v), pm(v))
        else:
            inputs.add(entry_id, entry.pair_set(),
                       pm(v, entry.params["alpha"]), pm(v, entry.params["beta"]))
    inputs.add("ps-5", core.PairSet(5, ((1, 2),)), pm(5), pm(5))
    for p in SILVER:
        s, _ = construct.silver_aps(p)
        inputs.add(f"silver-{p}", s, pm(p, 1), pm(p, sqrt2(p, p)))
    if workload == "construct":
        for p in (71, 151, 271):
            m = p * p
            s, _ = construct.silver_pps_p2(p, 1, sqrt2(m, p))
            inputs.add(f"p2-{p}", s, pm(m, 1, p), pm(m, sqrt2(m, p), p * sqrt2(m, p)))
    for key, (u, v) in {"ps-25": ("ps-5", "ps-5"), "ps-65": ("ps-5", "ps-13"),
                        "ps-169": ("ps-13", "ps-13"), "ps-665": ("ps-5", "ps-133"),
                        "ps-1729": ("ps-13", "ps-133")}.items():
        s, _ = construct.ps_product(inputs.sets[u], inputs.sets[v])
        inputs.add(key, s, pm(s.v), pm(s.v))
    s, _ = construct.ps_product(inputs.sets["ps-5"], inputs.sets["ps-65"])
    inputs.add("ps-325", s, pm(325), pm(325))
    return inputs


# -- deck generation ----------------------------------------------------------

class Dealer:
    """Deals items without replacement, reshuffling when a round is spent.

    Every run then draws each item of a stratum about equally often, whatever
    the seed, which keeps the cost mix of runs with different seeds close.
    """

    def __init__(self, rng: random.Random, items) -> None:
        self.rng = rng
        self.items = list(items)
        self.pool: list = []

    def __call__(self):
        if not self.pool:
            self.pool = self.items[:]
            self.rng.shuffle(self.pool)
        return self.pool.pop()


def strata(rng: random.Random, items: list, n: int) -> list[Dealer]:
    """Dealers over n contiguous, near-equal slices of a cost-ordered list."""
    bounds = [round(i * len(items) / n) for i in range(n + 1)]
    return [Dealer(rng, items[bounds[i]:bounds[i + 1]]) for i in range(n)]


def _unit(rng: random.Random, m: int, p: int) -> int:
    while True:
        x = rng.randrange(1, m)
        if x % p:
            return x


def _corruption(rng: random.Random, s: core.PairSet) -> tuple[int, int, int]:
    """(pair index, entry, new value): one entry moved off +-both entries."""
    i = rng.randrange(len(s.pairs))
    entry = rng.randrange(2)
    x, y = s.pairs[i]
    banned = {x, -x % s.v, y, -y % s.v}
    while True:
        z = rng.randrange(s.v)
        if z not in banned:
            return i, entry, z


def construct_decks(rng: random.Random, inputs: Inputs, tiny: bool):
    silver_p = Dealer(rng, SILVER[:4] if tiny else SILVER)
    inflate = Dealer(rng, [(key, u) for key in ("ps-13", "aps-27-3-6", "aps-27-3-3", "silver-23")
                           for u in (5, 7, 11, 13, 17, 19)])
    bases = Dealer(rng, ["ps-13", "ps-133", "ps-169"] +
                   [k for k in inputs.sets if k.startswith(("silver-", "aps-"))])
    ladders = [(lst[:1] if tiny else lst)
               for lst in (P2_LADDER, CYCLOTOMIC_LADDER, UNION_LADDER, CONSTRUCT_FIXED)]
    p2, cyclotomic, union, fixed = ladders

    def deck() -> list[tuple]:
        out: list[tuple] = [("silver_aps", silver_p()) for _ in range(4)]
        for _ in range(4):
            p = silver_p()
            alpha = rng.randrange(1, p)
            out.append(("aps_with_params", p, alpha,
                        alpha * sqrt2(p, p) * rng.choice((1, -1)) % p))
        for p in p2:
            m = p * p
            alpha = _unit(rng, m, p)
            out.append(("silver_pps_p2", p, alpha,
                        alpha * sqrt2(m, p) * rng.choice((1, -1)) % m))
        out += [("cyclotomic_pps",) + pq for pq in cyclotomic]
        out += [("union_pps_pq",) + pq for pq in union]
        out += [("inflate",) + inflate()] + list(fixed)
        corrupt = [bases() for _ in range(4)] + ([] if tiny else ["p2-151"])
        out += [("verify_corrupt", key) + _corruption(rng, inputs.sets[key]) for key in corrupt]
        return out

    return deck


def search_decks(rng: random.Random, inputs: Inputs, tiny: bool):
    moduli = (23, 27) if tiny else (23, 27, 31, 35)
    ps = strata(rng, [5, 9, 13, 17, 21, 25] if tiny else list(range(5, 42, 4)), 2 if tiny else 3)
    km_sign = {v: Dealer(rng, params) for v, params in KM_SIGN_PARAMS.items()}

    def deck() -> list[tuple]:
        out: list[tuple] = []
        for v in moduli:
            for _ in range(2):
                out.append(("exhaustive_admissible", v, rng.randrange(1 << 16)))
                out.append(("exhaustive_aps", v, rng.randrange(1, v), rng.randrange(1, v)))
        out += [("exhaustive_ps", stratum()) for stratum in ps]
        out.append(("km_ps", 13, (1, 12)))
        out.append(("km_aps", 27, (1, 26), 3, 6))
        if not tiny:
            out.append(("km_ps", 133, (122,)))
            for v, params in km_sign.items():
                out.append(("km_aps", v, (1, v - 1)) + params())
        return out

    return deck


def designs_decks(rng: random.Random, inputs: Inputs, tiny: bool):
    large = Dealer(rng, ("ps-665", "aps-651-217"))  # two 2.5 s schedules of the same size
    ladders = [(lst[:2] if tiny else lst)
               for lst in (WHIST_LADDER, OOC_PAIRS_LADDER, OOC45_LADDER, PQ_LADDER, P2_OOC_LADDER)]
    whist, pairs, ooc45, pq, p2 = ladders

    def deck() -> list[tuple]:
        out: list[tuple] = [("whist", key) for key in whist]
        out += [] if tiny else [("whist", large())]
        out += [("ooc_from_pairs",) + key_k for key_k in pairs]
        out += [("ooc_45v", key) for key in ooc45]
        out += [("maximal_ooc_pq",) + pqk for pqk in pq]
        out += [("maximal_ooc_p2",) + pk for pk in p2]
        return out

    return deck


DECK_SOURCES = {"construct": construct_decks, "search": search_decks, "designs": designs_decks}


def generate(workload: str, seed: int, inputs: Inputs, tiny: bool = False) -> list[list[tuple]]:
    """The run's decks, each shuffled; the same seed gives the same decks."""
    rng = random.Random(f"{workload}:{seed}")
    deck = DECK_SOURCES[workload](rng, inputs, tiny)
    decks = []
    for _ in range(1 if tiny else DECKS):
        cards = deck()
        rng.shuffle(cards)
        decks.append(cards)
    return decks


def digest(decks: list[list[tuple]]) -> str:
    return hashlib.sha256(repr(decks).encode()).hexdigest()[:16]


# -- executing requests -------------------------------------------------------

def _pps(build, *args):
    s, spec = build(*args)
    return s, spec, core.verify_pps(s, spec)


def execute(req: tuple, inputs: Inputs, deadline: float):
    """Serve one request and return its answer; the caller checks it."""
    kind, *a = req
    sets = inputs.sets
    if kind == "silver_aps":
        return _pps(construct.silver_aps, *a)
    if kind == "aps_with_params":
        return _pps(construct.aps_with_params, *a)
    if kind == "silver_pps_p2":
        return _pps(construct.silver_pps_p2, *a)
    if kind == "cyclotomic_pps":
        return _pps(construct.cyclotomic_pps, *a)
    if kind == "union_pps_pq":
        p, q = a
        return _pps(construct.union_pps_pq, p, q, sets[f"silver-{p}"], sets[f"silver-{q}"])
    if kind == "inflate":
        return _pps(construct.inflate, sets[a[0]], a[1])
    if kind == "compose_ps_aps":
        return _pps(construct.compose_ps_aps, sets[a[0]], sets[f"silver-{a[1]}"])
    if kind == "ps_product":
        return _pps(construct.ps_product, sets[a[0]], sets[a[1]])
    if kind == "verify_corrupt":
        key, i, entry, z = a
        base = sets[key]
        pairs = list(base.pairs)
        pair = list(pairs[i])
        pair[entry] = z
        pairs[i] = tuple(pair)
        a1, a2 = inputs.excluded[key]
        return core.verify_pps(core.PairSet(base.v, tuple(pairs)), core.PPSSpec(base.v, a1, a2))
    if kind == "exhaustive_admissible":
        v, pick = a
        params = core.admissible_params(v)
        alpha, beta = params[pick % len(params)]
        found = core.exhaustive_search(core.PPSSpec.aps(v, alpha, beta), deadline=deadline)
        return params, alpha, beta, found
    if kind == "exhaustive_aps":
        v, alpha, beta = a
        return core.exhaustive_search(core.PPSSpec.aps(v, alpha, beta), deadline=deadline)
    if kind == "exhaustive_ps":
        return core.exhaustive_search(core.PPSSpec.ps(a[0]), force=True, deadline=deadline)
    if kind == "km_ps":
        v, gens = a
        return kramer_mesner.km_search(v, gens, core.PPSSpec.ps(v), deadline=deadline)
    if kind == "km_aps":
        v, gens, alpha, beta = a
        return kramer_mesner.km_search(v, gens, core.PPSSpec.aps(v, alpha, beta),
                                       deadline=deadline)
    if kind == "whist":
        s = sets[a[0]]
        alpha = WHIST_APS.get(a[0])
        r0 = designs.initial_round(s, alpha)
        t = designs.develop_rounds(r0, s.v)
        checks = ("basic", "zcps") if alpha else ("basic", "zcps", "directed", "ordered")
        results = {c: designs.verify_whist(t, (c,))[c] for c in checks}
        if alpha:
            return r0, t, results, None, None
        matrix = designs.cdm_from_round(r0)
        return r0, t, results, matrix, designs.verify_cdm(matrix)
    if kind == "ooc_from_pairs":
        code = ooc.ooc_from_pairs(sets[a[0]], a[1])
        return code, ooc.verify_ooc(code), None
    if kind == "ooc_45v":
        code = ooc.ooc_45v_from_ps(sets[a[0]])
        return code, ooc.verify_ooc(code), None
    if kind == "maximal_ooc_pq":
        p, q, k = a
        code = ooc.maximal_ooc_pq(p, q, sets[f"silver-{p}"], sets[f"silver-{q}"], k)
        return code, ooc.verify_ooc(code), ooc.is_maximal(code)
    if kind == "maximal_ooc_p2":
        code = ooc.maximal_ooc_p2(*a)
        return code, ooc.verify_ooc(code), ooc.is_maximal(code)
    raise ValueError(f"unknown request kind {kind!r}")
