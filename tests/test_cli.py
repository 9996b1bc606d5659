from __future__ import annotations

import json
import time

import pytest

from designforge.catalog import get
from designforge.cli import main
from designforge.construct import silver_pps_p2
from designforge.core import PairSet


@pytest.fixture()
def example_file(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)
    return write


def test_verify_exit_codes(example_file, capsys):
    path = example_file("ex.json", get("aps-27-3-6").pair_set().to_json())
    assert main(["verify", "--type", "aps", "--alpha", "3", "--beta", "6",
                 "--file", path]) == 0
    assert main(["verify", "--type", "aps", "--alpha", "3", "--beta", "5",
                 "--file", path, "--json"]) == 1
    out = capsys.readouterr().out.strip().splitlines()[-1]
    report = json.loads(out)
    assert report["valid"] is False and report["cover2_missing"] == [6, 21]


def test_usage_errors(example_file):
    path = example_file("ex.json", get("ps-13").pair_set().to_json())
    assert main(["verify", "--type", "aps", "--file", path]) == 2
    assert main(["verify", "--type", "ps", "--file", "/nonexistent.json"]) == 2
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_search_km(capsys):
    assert main(["search", "km", "--v", "13", "--type", "ps",
                 "--generators", "12", "--json"]) == 0
    found = json.loads(capsys.readouterr().out)
    assert found["v"] == 13 and len(found["pairs"]) == 3


def test_search_exhausted(capsys):
    assert main(["search", "exhaustive", "--v", "11", "--type", "aps",
                 "--alpha", "1", "--beta", "1"]) == 3


def test_search_requires_generators_for_km():
    assert main(["search", "km", "--v", "13", "--type", "ps"]) == 2


def test_construct_silver(capsys):
    assert main(["construct", "silver", "--p", "7", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pairs"]["pairs"] == [[2, 4]] and payload["valid"] is True
    assert main(["construct", "silver", "--p", "7",
                 "--alpha", "2", "--beta", "1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pairs"]["pairs"] == [[1, 4]]


def test_construct_cyclotomic(capsys):
    assert main(["construct", "cyclotomic", "--p", "11", "--q", "7", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["pairs"]["pairs"]) == 15 and payload["valid"]


def test_construct_recursive_commands(example_file, capsys):
    ps5 = example_file("ps5.json", PairSet(5, ((1, 2),)).to_json())
    ps13 = example_file("ps13.json", get("ps-13").pair_set().to_json())
    aps7 = example_file("aps7.json", PairSet(7, ((1, 4),)).to_json())

    assert main(["construct", "inflate", "--file", ps5, "--u", "7", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["pairs"]["pairs"]) == 7 and payload["valid"]

    assert main(["construct", "compose", "--ps", ps5, "--aps", aps7, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["spec"] == {"type": "APS", "v": 35, "alpha": 10, "beta": 5}

    assert main(["construct", "product", "--ps", ps5, "--ps2", ps13, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["spec"] == {"type": "PS", "v": 65} and payload["valid"]

    assert main(["construct", "silver-square", "--p", "7", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["pairs"]["pairs"]) == 11 and payload["valid"]

    assert main(["construct", "inflate", "--file", ps5, "--u", "3"]) == 2


def test_construct_silver_square_default_beta_follows_alpha(capsys):
    assert main(["construct", "silver-square", "--p", "23", "--alpha", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["valid"] is True
    assert payload["pairs"]["pairs"] == silver_pps_p2(23, 2, 312)[0].to_json()["pairs"]


def test_construct_union_with_default_silver_inputs(capsys):
    assert main(["construct", "union", "--p", "23", "--q", "7", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["pairs"]["pairs"]) == 39 and payload["valid"]


def test_whist_pipeline(example_file, capsys):
    path = example_file("ps13.json", get("ps-13").pair_set().to_json())
    assert main(["whist", "round", "--file", path, "--json"]) == 0
    round_payload = json.loads(capsys.readouterr().out)
    assert round_payload["round"][0] == [1, 5, 12, 8]

    assert main(["whist", "develop", "--file", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["checks"] == {"basic": True, "zcps": True,
                                 "directed": True, "ordered": True}

    tournament_path = example_file("t13.json", {k: payload[k] for k in ("v", "rounds")})
    assert main(["whist", "verify", "--file", tournament_path,
                 "--checks", "basic,zcps"]) == 0


@pytest.mark.parametrize("check", ["basic", "zcps", "directed", "ordered"])
def test_whist_verify_works_out_cyclic_from_the_rounds(example_file, capsys, check):
    # Round 5 overwritten with round 6: no longer a cyclic development, so the
    # round-0 shortcuts must not vouch for it, whatever the file claims.
    path = example_file("ps13.json", get("ps-13").pair_set().to_json())
    assert main(["whist", "develop", "--file", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    payload["rounds"][5] = payload["rounds"][6]
    bad = example_file("bad.json", {"v": payload["v"], "rounds": payload["rounds"],
                                    "cyclic": True})
    assert main(["whist", "verify", "--file", bad, "--checks", check]) == 1


def test_whist_verify_failure(example_file):
    broken = {"v": 5, "rounds": [[[0, 1, 2, 3]]]}
    path = example_file("bad.json", broken)
    assert main(["whist", "verify", "--file", path, "--checks", "basic"]) == 1


def test_cdm_commands(example_file, capsys):
    path = example_file("ps5.json", PairSet(5, ((1, 2),)).to_json())
    assert main(["cdm", "from-pairs", "--file", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["valid"] and payload["matrix"]["k"] == 5

    matrix_path = example_file("m.json", payload["matrix"])
    assert main(["cdm", "verify", "--file", matrix_path]) == 0

    zero_path = example_file("z.json", {"k": 2, "v": 3, "rows": [[0, 0, 0], [0, 0, 0]]})
    assert main(["cdm", "verify", "--file", zero_path]) == 1


def test_ooc_pipeline(example_file, capsys):
    path = example_file("ps13.json", get("ps-13").pair_set().to_json())
    assert main(["ooc", "build", "--kind", "pairs", "--file", path,
                 "--k", "4", "--json"]) == 0
    code = json.loads(capsys.readouterr().out)
    assert code["n"] == 39 and len(code["codewords"]) == 3

    code_path = example_file("ooc.json", code)
    assert main(["ooc", "verify", "--file", code_path, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["leave"] == [0, 13, 26]

    assert main(["ooc", "maximal", "--file", code_path, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["is_maximal"] is True

    # drop one codeword: no longer maximal
    partial = dict(code)
    partial["codewords"] = code["codewords"][1:]
    partial_path = example_file("partial.json", partial)
    assert main(["ooc", "maximal", "--file", partial_path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["is_maximal"] is False and payload["witness"]


def test_ooc_build_p2(capsys):
    assert main(["ooc", "build", "--kind", "p2", "--p", "7", "--k", "4",
                 "--json"]) == 0
    code = json.loads(capsys.readouterr().out)
    assert code["n"] == 147 and len(code["codewords"]) == 11


@pytest.mark.parametrize("p", [0, 1, 2, 8, 9, 13, 15, 17, 49, -7])
def test_ooc_build_p2_names_the_p_it_was_given(capsys, p):
    # p is checked before sqrt(2) mod p^2 is taken, so no error names the modulus p^2
    assert main(["ooc", "build", "--kind", "p2", "--p", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: p must be a prime congruent to 7 modulo 8, got {p}\n"
    assert not captured.out


@pytest.mark.parametrize("command", [["ooc", "build", "--kind", "pq"], ["construct", "union"]])
@pytest.mark.parametrize("flag", ["p", "q"])
def test_a_bad_default_aps_modulus_is_named_by_its_flag(capsys, command, flag):
    # with no --sp/--sq file, each of p and q gets its silver APS, and a bad one is named
    values = {"p": "191", "q": "127", flag: "9"}
    assert main(command + ["--p", values["p"], "--q", values["q"]]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {flag} must be a prime congruent to 7 modulo 8, got 9\n"
    assert not captured.out


def test_catalog_commands(capsys):
    assert main(["catalog", "--list"]) == 0
    listing = capsys.readouterr().out
    assert "ps-133" in listing

    assert main(["catalog", "ps-133", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["data"]) == 33

    assert main(["catalog", "--check"]) == 0
    assert main(["catalog", "nope"]) == 2


def test_commands_are_deterministic(capsys):
    outputs = []
    for _ in range(2):
        assert main(["search", "km", "--v", "27", "--type", "aps",
                     "--alpha", "3", "--beta", "6", "--generators", "26",
                     "--json"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_budget_env_respected(example_file, monkeypatch, capsys):
    monkeypatch.setenv("DESIGNFORGE_BUDGET_SECS", "0")
    # a zero budget forces the km engine to give up immediately
    code = main(["search", "km", "--v", "133", "--type", "ps",
                 "--generators", "122"])
    assert code == 3


@pytest.mark.parametrize("budget", ["nan", "abc"])
def test_budget_env_must_be_a_number(monkeypatch, capsys, budget):
    monkeypatch.setenv("DESIGNFORGE_BUDGET_SECS", budget)
    assert main(["search", "km", "--v", "133", "--type", "ps", "--generators", "122"]) == 2
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: DESIGNFORGE_BUDGET_SECS"), captured.err
    assert repr(budget) in lines[0] and not captured.out


@pytest.mark.parametrize("engine", [["km", "--generators", "100000000"], ["exhaustive", "--force"],
                                    ["km", "--generators", "100000000,3"]])
def test_a_modulus_too_large_for_its_pair_marks_is_refused_at_once(monkeypatch, capsys, engine):
    # (v//2 + 1)**2 ~ 2.5 * 10**15 bytes of pair marks exceed any 64-bit user address
    # space; km refuses the modulus before it generates <-1, 3>, with its millions of elements
    monkeypatch.delenv("DESIGNFORGE_BUDGET_SECS", raising=False)
    started = time.monotonic()
    assert main(["search", engine[0], "--v", "100000001", "--type", "ps", *engine[1:]]) == 3
    assert time.monotonic() - started < 1
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("search aborted:"), captured.err
    assert not captured.out


def test_a_km_search_over_a_large_group_stops_at_its_budget(monkeypatch, capsys):
    # the modulus is refused for its pair marks before the group is generated, well
    # within the budget
    monkeypatch.setenv("DESIGNFORGE_BUDGET_SECS", "1")
    started = time.monotonic()
    assert main(["search", "km", "--v", "100000001", "--type", "ps",
                 "--generators", "100000000,3"]) == 3
    assert time.monotonic() - started < 1
    captured = capsys.readouterr()
    assert captured.err.strip().splitlines() == [
        "search aborted: the pair orbits of Z_100000001 need 2500000100000001 bytes"]
    assert not captured.out


def test_a_km_search_with_no_set_and_no_budget_ends_at_once(monkeypatch, capsys):
    # APS(59, 1, 1) fails the square-sum identity; a full sign-group tree takes minutes
    monkeypatch.delenv("DESIGNFORGE_BUDGET_SECS", raising=False)
    started = time.monotonic()
    assert main(["search", "km", "--v", "59", "--type", "aps", "--alpha", "1", "--beta", "1",
                 "--generators", "58"]) == 3
    assert time.monotonic() - started < 1
    captured = capsys.readouterr()
    assert captured.err.strip().splitlines() == ["no solution exists"], captured.err
    assert not captured.out


def test_budget_env_inf_is_no_cap(monkeypatch, capsys):
    monkeypatch.setenv("DESIGNFORGE_BUDGET_SECS", "inf")
    assert main(["search", "km", "--v", "133", "--type", "ps", "--generators", "122"]) == 0


@pytest.mark.parametrize("command, payload, message", [
    (["verify", "--type", "ps"], {"v": 13, "pairs": [[1]]}, "pair must have two entries, got [1]"),
    (["verify", "--type", "ps"], {"v": 13, "pairs": [[1, 5, 7]]},
     "pair must have two entries, got [1, 5, 7]"),
    (["whist", "verify"], {"v": 13, "rounds": [[[1, 5, 12]]]},
     "game must have four seats, got [1, 5, 12]"),
], ids=["pair-of-one", "pair-of-three", "game-of-three-seats"])
def test_malformed_pair_or_game_is_named_in_one_line(example_file, capsys, command, payload,
                                                      message):
    assert main(command + ["--file", example_file("bad.json", payload)]) == 2
    captured = capsys.readouterr()
    assert captured.err.strip().splitlines() == [f"error: {message}"], captured.err
    assert not captured.out


@pytest.mark.parametrize("command, payload", [
    (["verify", "--type", "ps"], [1, 2]),
    (["verify", "--type", "ps"], {"v": 13, "pairs": [[1, None]]}),
    (["verify", "--type", "ps"], {"v": 13, "pairs": 5}),
    (["verify", "--type", "ps"], {"v": 13, "pairs": [[1, 2, 3]]}),
    (["verify", "--type", "ps"], {"v": "13", "pairs": []}),
    (["whist", "round"], None),
    (["whist", "verify"], {"v": 13, "rounds": [[[0, 1, 2, None]]]}),
    (["cdm", "verify"], {"k": 5, "v": 13, "rows": [[0, 1], None]}),
    (["cdm", "verify"], {"k": 5, "v": 13, "rows": [[0, 1]]}),
    (["ooc", "verify"], {"n": 39, "k": 4, "codewords": "0123"}),
    (["ooc", "verify"], {"n": 0, "k": 4, "codewords": [[0, 1, 2, 3]]}),
    (["ooc", "verify"], {"n": 39, "k": 0, "codewords": []}),
    (["ooc", "maximal"], {"n": 39, "k": 4, "codewords": [[0, 1, 2, 3], [0, 1, 2, 4]]}),
    (["whist", "verify", "--checks", "directed,ordered"], {"v": 0, "rounds": []}),
    (["whist", "verify"], {"v": -3, "rounds": []}),
])
def test_malformed_input_is_a_usage_error(example_file, capsys, command, payload):
    path = example_file("bad.json", payload)
    assert main(command + ["--file", path]) == 2
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), captured.err
    assert "Traceback" not in captured.err and not captured.out


@pytest.mark.parametrize("command, payload, field", [
    (["verify", "--type", "ps"], {"v": 13}, "pairs"),
    (["verify", "--type", "ps"], {"pairs": []}, "v"),
    (["whist", "verify"], {"v": 13}, "rounds"),
    (["cdm", "verify"], {"k": 5, "v": 13}, "rows"),
    (["cdm", "verify"], {"v": 13, "rows": []}, "k"),
    (["ooc", "verify"], {"n": 39, "codewords": []}, "k"),
    (["catalog", "nope"], None, "nope"),
])
def test_missing_field_is_named_in_one_line(example_file, capsys, command, payload, field):
    if payload is not None:
        command = command + ["--file", example_file("partial.json", payload)]
    assert main(command) == 2
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    message = lines[0].removeprefix("error: ")
    assert field in message and message[0] not in "'\"" and message[-1] not in "'\"", message
    assert not captured.out


@pytest.mark.parametrize("command, needle", [
    (["construct", "silver", "--p", "23", "--alpha", "1"], "--beta"),
    (["construct", "silver"], "--p"),
    (["construct", "silver", "--p", "23", "--beta", "5"], "--alpha"),
    (["construct", "silver-square"], "--p"),
    (["construct", "silver-square", "--p", "13"], "got 13"),
    (["construct", "inflate", "--u", "5"], "--file"),
    (["construct", "inflate", "--file", "ps.json"], "--u"),
    (["construct", "compose"], "--ps"),
    (["construct", "product"], "--ps"),
    (["construct", "cyclotomic"], "--p"),
    (["ooc", "build", "--kind", "pairs"], "--file"),
    (["ooc", "build", "--kind", "p2"], "--p"),
    (["ooc", "build", "--kind", "pq"], "--p"),
    (["ooc", "verify"], "--file"),
    (["ooc", "maximal"], "--file"),
    (["search", "exhaustive", "--v", "0", "--type", "ps"], "got 0"),
    (["search", "km", "--v", "0", "--type", "ps", "--generators", "1"], "got 0"),
    (["search", "exhaustive", "--v", "13", "--type", "ps", "--generators", "4"], "--generators"),
    (["search", "km", "--v", "13", "--type", "ps", "--generators", "12", "--force"], "--force"),
    (["catalog", "--list", "ps-13"], "--list"),
    (["catalog", "--list", "--check"], "--list"),
    (["catalog", "ps-13", "--check"], "--check"),
])
def test_missing_flag_is_a_usage_error(capsys, command, needle):
    assert main(command) == 2
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and needle in lines[0], captured.err
    assert "Traceback" not in captured.err and not captured.out


_OVERSIZED_PAIRS = {"v": 10**15 + 1, "pairs": [[1, 2]]}
_OVERSIZED_CODE = {"n": 10**15 + 1, "k": 4, "codewords": [[0, 1, 3, 7]]}
# past 2**63 the size of the marks overflows an index before it can fail to allocate
_UNINDEXABLE_PAIRS = {"v": 10**20 + 1, "pairs": [[1, 2]]}
_UNINDEXABLE_CODE = {"n": 10**20 + 1, "k": 4, "codewords": [[0, 1, 3, 7]]}


@pytest.mark.parametrize("command, payload", [
    (["verify", "--type", "ps"], _OVERSIZED_PAIRS),
    (["whist", "develop"], _OVERSIZED_PAIRS),
    (["cdm", "from-pairs"], _OVERSIZED_PAIRS),
    (["ooc", "verify"], _OVERSIZED_CODE),
    (["ooc", "maximal"], _OVERSIZED_CODE),
    (["verify", "--type", "ps"], _UNINDEXABLE_PAIRS),
    (["whist", "develop"], _UNINDEXABLE_PAIRS),
    (["cdm", "from-pairs"], _UNINDEXABLE_PAIRS),
    (["ooc", "verify"], _UNINDEXABLE_CODE),
    (["ooc", "maximal"], _UNINDEXABLE_CODE),
], ids=["verify", "whist-develop", "cdm-from-pairs", "ooc-verify", "ooc-maximal",
        "verify-1e20", "whist-develop-1e20", "cdm-from-pairs-1e20", "ooc-verify-1e20",
        "ooc-maximal-1e20"])
def test_a_modulus_too_large_for_its_marks_is_out_of_memory_in_one_line(
        example_file, capsys, command, payload):
    # the +-class marks of Z_v alone would take v//2 + 1 ~ 5 * 10**14 bytes, or more
    # than an index can hold
    assert main(command + ["--file", example_file("big.json", payload)]) == 3
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert lines == [f"{command[0]} aborted: out of memory"], captured.err
    assert "Traceback" not in captured.err and not captured.out
