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


# For every command, the flags it requires and the other flags it reads.  A flag
# given to a command that does not read it, while another command of its group
# (the commands that share its first word) does, is a usage error: no flag is
# parsed and then ignored.  Each subparser takes the flags of its group, those
# of the --type group too when it takes --type, and requires a flag when every
# command of its group does.  A flag is given when its value is not None.
_FLAGS = {
    "verify": ("file type", ""),
    "search km": ("v type generators", ""),
    "search exhaustive": ("v type", "force"),
    "--type ps": ("", ""),
    "--type aps": ("alpha beta", ""),
    "--type pps": ("a1 a2", ""),
    "construct silver": ("p", ""),
    "construct silver with --alpha or --beta": ("p alpha beta", ""),
    "construct silver-square": ("p", "alpha beta"),
    "construct inflate": ("file u", ""),
    "construct compose": ("ps aps", ""),
    "construct product": ("ps ps2", ""),
    "construct cyclotomic": ("p q", ""),
    "construct union": ("p q", "sp sq"),
    "whist round": ("file", "alpha"),
    "whist develop": ("file", "alpha checks"),
    "whist verify": ("file", "checks"),
    "cdm from-pairs": ("file", ""),
    "cdm verify": ("file", ""),
    "ooc build": ("kind", ""),
    "ooc build --kind pairs": ("kind file", "k"),
    "ooc build --kind block45": ("kind file", ""),
    "ooc build --kind pq": ("kind p q", "sp sq k"),
    "ooc build --kind p2": ("kind p", "k"),
    "ooc verify": ("file", ""),
    "ooc maximal": ("file", ""),
}
_DEFAULT_CHECKS = "basic,zcps,directed,ordered"
_DEFAULT_K = 4


def _readers(group: str) -> dict[str, dict[str, bool]]:
    """Each flag read in ``group``: the commands that read it, and whether each requires it."""
    readers: dict[str, dict[str, bool]] = {}
    for command, (required, other) in _FLAGS.items():
        if command.split()[0] == group:
            for flag in required.split() + other.split():
                readers.setdefault(flag, {})[command] = flag in required.split()
    return readers


def _check_flags(args, command: str) -> None:
    """Raise ValueError naming a flag ``command`` requires and was not given, or one
    that it does not read and another command of its group does."""
    for flag in _FLAGS[command][0].split():
        if getattr(args, flag) is None:
            raise ValueError(f"--{flag} is required for {command}")
    for flag, commands in _readers(command.split()[0]).items():
        if command not in commands and getattr(args, flag) is not None:
            raise ValueError(f"--{flag} is not read by {command}")


def _ints(args, flag: str) -> list[int]:
    """The comma-separated integers given to --flag; an error about them names the flag."""
    text = getattr(args, flag)
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag} must be comma-separated integers, got {text!r}") from None


def _spec_from_args(args, v: int) -> PPSSpec:
    _check_flags(args, f"--type {args.type}")
    if args.type == "ps":
        return PPSSpec.ps(v)
    if args.type == "aps":
        return PPSSpec.aps(v, args.alpha, args.beta)
    return PPSSpec(v, frozenset(_ints(args, "a1")), frozenset(_ints(args, "a2")))


def _cmd_verify(args) -> int:
    pairs = PairSet.from_json(_load_json(args.file))
    spec = _spec_from_args(args, pairs.v)
    report = verify_pps(pairs, spec)
    _emit(report.to_json(), args.json)
    return OK if report.valid else INVALID


def _cmd_search(args) -> int:
    spec = _spec_from_args(args, args.v)
    _check_flags(args, f"search {args.engine}")
    if args.engine == "km":
        found = km_search(args.v, _ints(args, "generators"), spec, deadline=_deadline())
    else:
        found = exhaustive_search(spec, force=bool(args.force), deadline=_deadline())
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


def _cmd_construct(args) -> int:
    command = f"construct {args.what}"
    if args.what == "silver" and (args.alpha is not None or args.beta is not None):
        command += " with --alpha or --beta"
    _check_flags(args, command)
    if args.what == "silver":
        result = (silver_aps(args.p) if args.alpha is None else
                  aps_with_params(args.p, args.alpha, args.beta))
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
    _check_flags(args, f"whist {args.action}")
    checks = tuple((_DEFAULT_CHECKS if args.checks is None else args.checks).split(","))
    if args.action == "verify":
        tournament = WhistTournament.from_json(_load_json(args.file))
        results = verify_whist(tournament, checks)
        _emit({name: res.passed if args.json else f"{res.passed} {res.detail}".strip()
               for name, res in results.items()}, args.json)
        return OK if all(r.passed for r in results.values()) else INVALID
    pairs = PairSet.from_json(_load_json(args.file))
    r0 = initial_round(pairs, args.alpha)
    if args.action == "round":
        _emit({"round": [list(g) for g in r0]}, args.json)
        return OK
    tournament = develop_rounds(r0, pairs.v)
    results = verify_whist(tournament, checks)
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


def _cmd_ooc(args) -> int:
    command = f"ooc {args.action}"
    if args.action == "build" and args.kind is not None:
        command += f" --kind {args.kind}"
    _check_flags(args, command)
    if args.action == "build":
        k = _DEFAULT_K if args.k is None else args.k
        if args.kind == "pairs":
            code = ooc_from_pairs(PairSet.from_json(_load_json(args.file)), k)
        elif args.kind == "block45":
            code = ooc_45v_from_ps(PairSet.from_json(_load_json(args.file)))
        elif args.kind == "pq":
            code = maximal_ooc_pq(args.p, args.q, _aps_file_or_silver(args.sp, args.p, "p"),
                                  _aps_file_or_silver(args.sq, args.q, "q"), k)
        else:
            code = maximal_ooc_p2(args.p, k)
        _emit(code.to_json(), args.json)
        return OK
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
        entries = [cat.get(entry_id) for entry_id in cat.ids()]
        if args.json:
            print(json.dumps([{"id": e.id, "kind": e.kind, "provenance": e.provenance}
                              for e in entries], sort_keys=True))
        else:
            for e in entries:
                print(f"{e.id}\t{e.kind}\t{e.provenance}")
        return OK
    entry = cat.get(args.id)
    _emit(entry.to_json(), args.json)
    return OK


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors, like every other error, are one line."""

    def error(self, message: str):
        self.exit(USAGE, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="designforge",
        description="Construct, search and verify partitionable pair sets "
                    "and the designs built from them.")
    sub = parser.add_subparsers(dest="command", required=True)

    def words(prefix: str) -> list[str]:
        """The word after ``prefix`` in each command of the table, in order."""
        return list(dict.fromkeys(command[len(prefix):].split()[0]
                                  for command in _FLAGS if command.startswith(prefix)))

    declared = {
        "file": {"help": "input file: a pair set, or the tournament, matrix or code to verify"},
        "type": {"choices": words("--type ")},
        "v": {"type": int}, "p": {"type": int}, "q": {"type": int}, "u": {"type": int},
        "alpha": {"type": int, "help": "the APS parameter alpha"},
        "beta": {"type": int},
        "a1": {"help": "comma-separated excluded residues, element side"},
        "a2": {"help": "comma-separated excluded residues, sum/diff side"},
        "generators": {"help": "comma-separated multiplier-group generators"},
        "force": {"action": "store_true", "default": None,
                  "help": "ignore the size budget of the exhaustive engine"},
        "ps": {"help": "PS input file"}, "ps2": {"help": "second PS input file"},
        "aps": {"help": "APS input file"},
        "sp": {"help": "APS file for the larger prime (default: its silver APS)"},
        "sq": {"help": "APS file for the smaller prime (default: its silver APS)"},
        "checks": {"help": f"comma-separated checks (default {_DEFAULT_CHECKS})"},
        "kind": {"choices": words("ooc build --kind ")},
        "k": {"type": int, "help": f"codeword weight (default {_DEFAULT_K})"},
    }
    for name, text, func, positional in (
            ("verify", "verify a pair-set file against a spec", _cmd_verify, None),
            ("search", "search for a pair set", _cmd_search, "engine"),
            ("construct", "run a direct or recursive construction", _cmd_construct, "what"),
            ("whist", "derive or verify whist schedules", _cmd_whist, "action"),
            ("cdm", "difference matrices from pair sets", _cmd_cdm, "action"),
            ("ooc", "optical orthogonal codes", _cmd_ooc, "action")):
        p = sub.add_parser(name, help=text)
        if positional:
            p.add_argument(positional, choices=words(f"{name} "))
        for group in [name] + ["--type"] * ("type" in _readers(name)):
            size = sum(command.split()[0] == group for command in _FLAGS)
            for flag, commands in _readers(group).items():
                kwargs = dict(declared[flag])
                if len(commands) < size:  # name the commands that read it
                    read_by = ", ".join(dict.fromkeys(
                        command.removeprefix(f"{name} ").split(" with ")[0] for command in commands))
                    kwargs["help"] = f"{kwargs.get('help', '')} ({read_by})".lstrip()
                every = len(commands) == size and all(commands.values())
                p.add_argument(f"--{flag}", required=every, **kwargs)
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=func)

    p = sub.add_parser("catalog", help="embedded witnesses")
    p.add_argument("id", nargs="?")
    p.add_argument("--list", action="store_true")
    p.add_argument("--check", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_catalog)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
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
