"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 search
exhausted (or out of budget, or out of memory).  Machine-readable output via
--json.  Search budgets honor the DESIGNFORGE_BUDGET_SECS environment variable.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

from . import catalog as cat
from .construct import (
    aps_with_params,
    compose_ps_aps,
    cyclotomic_pps,
    inflate,
    ps_product,
    silver_aps,
    silver_pps_p2,
    silver_witness,
    union_pps_pq,
)
from .core import (
    BudgetExceededError,
    PairSet,
    PPSSpec,
    json_field,
    verify_pps,
)
from .designs import (
    DifferenceMatrix,
    WhistTournament,
    cdm_from_round,
    develop_rounds,
    initial_round,
    verify_cdm,
    verify_whist,
)
from .kramer_mesner import exhaustive_search, km_search
from .modarith import isprime
from .ooc import (
    OOCode,
    is_maximal,
    maximal_ooc_p2,
    maximal_ooc_pq,
    ooc_45v_from_ps,
    ooc_from_pairs,
    verify_ooc,
)

OK, INVALID, USAGE, EXHAUSTED = 0, 1, 2, 3


def _deadline() -> float | None:
    """Now plus DESIGNFORGE_BUDGET_SECS (inf: no cap; 0 or less: already expired), or None."""
    secs = os.environ.get("DESIGNFORGE_BUDGET_SECS")
    if not secs:
        return None
    try:
        budget = float(secs)
    except ValueError:
        budget = math.nan
    if math.isnan(budget):
        raise ValueError(f"DESIGNFORGE_BUDGET_SECS must be a number of seconds, got {secs!r}")
    return time.monotonic() + budget


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json_field(json.load(fh), dict, f"the top level of {path}")


def _emit(obj: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(obj, sort_keys=True))
        return
    for key, value in obj.items():
        print(f"{key}: {value}")


def _require(args, command: str, *flags: str) -> None:
    """Raise ValueError naming the first of ``flags`` that was not given."""
    for flag in flags:
        if getattr(args, flag) is None:
            raise ValueError(f"--{flag} is required for {command}")


def _spec_from_args(args, v: int) -> PPSSpec:
    if args.type == "ps":
        return PPSSpec.ps(v)
    if args.type == "aps":
        if args.alpha is None or args.beta is None:
            raise ValueError("--alpha and --beta are required for type aps")
        return PPSSpec.aps(v, args.alpha, args.beta)
    if args.a1 is None or args.a2 is None:
        raise ValueError("--a1 and --a2 are required for type pps")
    parse = lambda text: frozenset(int(x) for x in text.split(","))
    return PPSSpec(v, parse(args.a1), parse(args.a2))


def _cmd_verify(args) -> int:
    pairs = PairSet.from_json(_load_json(args.file))
    spec = _spec_from_args(args, pairs.v)
    report = verify_pps(pairs, spec)
    _emit(report.to_json(), args.json)
    return OK if report.valid else INVALID


def _cmd_search(args) -> int:
    spec = _spec_from_args(args, args.v)
    if args.engine == "km":
        _require(args, "search km", "generators")
        if args.force:
            raise ValueError("--force is for the exhaustive engine, not km")
        gens = [int(g) for g in args.generators.split(",")]
        found = km_search(args.v, gens, spec, deadline=_deadline())
    elif args.generators is not None:
        raise ValueError("--generators is for the km engine, not exhaustive")
    else:
        found = exhaustive_search(spec, force=args.force, deadline=_deadline())
    if found is None:
        print("no solution exists", file=sys.stderr)
        return EXHAUSTED
    _emit(found.to_json(), args.json)
    return OK


def _aps_file_or_silver(path: str | None, v: int, flag: str) -> PairSet:
    """The pair set in the file at ``path``, or the silver APS of ``v`` if no file is given.

    ``v`` is the value of ``--flag``, which an error about it names.
    """
    if path is not None:
        return PairSet.from_json(_load_json(path))
    if not isprime(v) or v % 8 != 7:
        raise ValueError(f"{flag} must be a prime congruent to 7 modulo 8, got {v}")
    return silver_aps(v)[0]


def _print_construction(result: tuple[PairSet, PPSSpec], as_json: bool) -> int:
    pairs, spec = result
    payload = {"pairs": pairs.to_json(), "spec": spec.to_json(),
               "valid": verify_pps(pairs, spec).valid}
    _emit(payload if as_json else
          {"spec": spec.to_json(), "pairs": pairs.to_json()["pairs"],
           "valid": payload["valid"]}, as_json)
    return OK if payload["valid"] else INVALID


_CONSTRUCT_FLAGS = {
    "silver": ("p",), "silver-square": ("p",), "inflate": ("file", "u"),
    "compose": ("ps", "aps"), "product": ("ps", "ps2"), "cyclotomic": ("p", "q"),
    "union": ("p", "q"),
}


def _cmd_construct(args) -> int:
    command = f"construct {args.what}"
    _require(args, command, *_CONSTRUCT_FLAGS[args.what])
    if args.what == "silver":
        if args.alpha is None and args.beta is None:
            result = silver_aps(args.p)
        else:
            _require(args, f"{command} with --alpha or --beta", "alpha", "beta")
            result = aps_with_params(args.p, args.alpha, args.beta)
    elif args.what == "silver-square":
        alpha = 1 if args.alpha is None else args.alpha
        # theta - 1 is sqrt(2) mod p^2, so alpha * sqrt(2) meets 2 alpha^2 = beta^2.
        beta = (args.beta if args.beta is not None
                else alpha * (silver_witness(args.p, square=True).theta - 1))
        result = silver_pps_p2(args.p, alpha, beta)
    elif args.what == "inflate":
        result = inflate(PairSet.from_json(_load_json(args.file)), args.u)
    elif args.what == "compose":
        result = compose_ps_aps(PairSet.from_json(_load_json(args.ps)),
                                PairSet.from_json(_load_json(args.aps)))
    elif args.what == "product":
        result = ps_product(PairSet.from_json(_load_json(args.ps)),
                            PairSet.from_json(_load_json(args.ps2)))
    elif args.what == "cyclotomic":
        result = cyclotomic_pps(args.p, args.q)
    else:  # union
        result = union_pps_pq(args.p, args.q, _aps_file_or_silver(args.sp, args.p, "p"),
                              _aps_file_or_silver(args.sq, args.q, "q"))
    return _print_construction(result, args.json)


def _cmd_whist(args) -> int:
    if args.action == "verify":
        tournament = WhistTournament.from_json(_load_json(args.file))
        results = verify_whist(tournament, tuple(args.checks.split(",")))
        _emit({name: res.passed if args.json else f"{res.passed} {res.detail}".strip()
               for name, res in results.items()}, args.json)
        return OK if all(r.passed for r in results.values()) else INVALID
    pairs = PairSet.from_json(_load_json(args.file))
    r0 = initial_round(pairs, args.alpha)
    if args.action == "round":
        _emit({"round": [list(g) for g in r0]}, args.json)
        return OK
    tournament = develop_rounds(r0, pairs.v)
    results = verify_whist(tournament, tuple(args.checks.split(",")))
    payload = tournament.to_json()
    payload["checks"] = {name: res.passed for name, res in results.items()}
    _emit(payload, args.json)
    return OK if all(r.passed for r in results.values()) else INVALID


def _cmd_cdm(args) -> int:
    if args.action == "verify":
        matrix = DifferenceMatrix.from_json(_load_json(args.file))
    else:
        pairs = PairSet.from_json(_load_json(args.file))
        matrix = cdm_from_round(initial_round(pairs))
    report = verify_cdm(matrix)
    payload = {"valid": report.valid, "failures": [list(f) for f in report.failures]}
    if args.action == "from-pairs":
        payload["matrix"] = matrix.to_json()
    _emit(payload, args.json)
    return OK if report.valid else INVALID


_OOC_BUILD_FLAGS = {"pairs": ("file",), "block45": ("file",), "pq": ("p", "q"), "p2": ("p",)}


def _cmd_ooc(args) -> int:
    if args.action == "build":
        _require(args, "ooc build", "kind")
        _require(args, f"ooc build --kind {args.kind}", *_OOC_BUILD_FLAGS[args.kind])
        if args.kind == "pairs":
            code = ooc_from_pairs(PairSet.from_json(_load_json(args.file)), args.k)
        elif args.kind == "block45":
            code = ooc_45v_from_ps(PairSet.from_json(_load_json(args.file)))
        elif args.kind == "pq":
            code = maximal_ooc_pq(args.p, args.q, _aps_file_or_silver(args.sp, args.p, "p"),
                                  _aps_file_or_silver(args.sq, args.q, "q"), args.k)
        else:
            code = maximal_ooc_p2(args.p, args.k)
        _emit(code.to_json(), args.json)
        return OK
    _require(args, f"ooc {args.action}", "file")
    code = OOCode.from_json(_load_json(args.file))
    if args.action == "verify":
        report = verify_ooc(code)
        _emit(report.to_json(), args.json)
        return OK if report.differences_distinct else INVALID
    maximal, witness = is_maximal(code)
    _emit({"is_maximal": maximal,
           "witness": list(witness) if witness else None}, args.json)
    return OK


def _cmd_catalog(args) -> int:
    if (args.id is not None) + args.list + args.check > 1:
        raise ValueError("catalog takes one of an entry id, --list and --check")
    if args.check:
        results = cat.check_all()
        _emit(results if args.json else
              {k: ("ok" if v else "FAIL") for k, v in results.items()}, args.json)
        return OK if all(results.values()) else INVALID
    if args.id is None:
        for entry_id in cat.ids():
            entry = cat.get(entry_id)
            print(f"{entry_id}\t{entry.kind}\t{entry.provenance}")
        return OK
    entry = cat.get(args.id)
    _emit(entry.to_json(), args.json)
    return OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="designforge",
        description="Construct, search and verify partitionable pair sets "
                    "and the designs built from them.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec_flags(p):
        p.add_argument("--type", choices=["ps", "aps", "pps"], required=True)
        p.add_argument("--alpha", type=int)
        p.add_argument("--beta", type=int)
        p.add_argument("--a1", help="comma-separated excluded residues, element side")
        p.add_argument("--a2", help="comma-separated excluded residues, sum/diff side")

    p = sub.add_parser("verify", help="verify a pair-set file against a spec")
    p.add_argument("--file", required=True)
    add_spec_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("search", help="search for a pair set")
    p.add_argument("engine", choices=["km", "exhaustive"])
    p.add_argument("--v", type=int, required=True)
    add_spec_flags(p)
    p.add_argument("--generators", help="comma-separated multiplier-group generators")
    p.add_argument("--force", action="store_true",
                   help="ignore the size budget of the exhaustive engine")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("construct", help="run a direct or recursive construction")
    p.add_argument("what", choices=["silver", "silver-square", "inflate", "compose",
                                    "product", "cyclotomic", "union"])
    p.add_argument("--p", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--u", type=int)
    p.add_argument("--alpha", type=int)
    p.add_argument("--beta", type=int)
    p.add_argument("--file", help="input pair-set file (inflate)")
    p.add_argument("--ps", help="PS input file (compose/product)")
    p.add_argument("--ps2", help="second PS input file (product)")
    p.add_argument("--aps", help="APS input file (compose)")
    p.add_argument("--sp", help="APS file for the larger prime (union)")
    p.add_argument("--sq", help="APS file for the smaller prime (union)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("whist", help="derive or verify whist schedules")
    p.add_argument("action", choices=["round", "develop", "verify"])
    p.add_argument("--file", required=True,
                   help="pair-set file (round/develop) or tournament file (verify)")
    p.add_argument("--alpha", type=int, help="special-game parameter for APS input")
    p.add_argument("--checks", default="basic,zcps,directed,ordered")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_whist)

    p = sub.add_parser("cdm", help="difference matrices from pair sets")
    p.add_argument("action", choices=["from-pairs", "verify"])
    p.add_argument("--file", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_cdm)

    p = sub.add_parser("ooc", help="optical orthogonal codes")
    p.add_argument("action", choices=["build", "verify", "maximal"])
    p.add_argument("--kind", choices=["pairs", "block45", "pq", "p2"])
    p.add_argument("--file")
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--p", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--sp")
    p.add_argument("--sq")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_ooc)

    p = sub.add_parser("catalog", help="embedded witnesses")
    p.add_argument("id", nargs="?")
    p.add_argument("--list", action="store_true")
    p.add_argument("--check", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_catalog)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        # str() of a KeyError is the repr of its message, quotes included
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return USAGE
    except BudgetExceededError as exc:
        print(f"search aborted: {exc}", file=sys.stderr)
        return EXHAUSTED
    except (MemoryError, OverflowError):  # O(v) marks too large for memory or for an index
        print(f"{args.command} aborted: out of memory", file=sys.stderr)
        return EXHAUSTED


if __name__ == "__main__":
    sys.exit(main())
