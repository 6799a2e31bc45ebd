"""Command-line behavior: output shapes, exit codes, determinism."""

import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import orituran
from orituran import cli, extremal, patterns, regularize
from orituran.cli import main
from orituran.extremal import PatternSpec
from orituran.graphs import VertexCapError, decode
from test_exceptions import SAMPLES


@pytest.fixture
def og_dir(tmp_path):
    (tmp_path / "p4.og").write_text("4\n0 1\n1 2\n2 3\n")
    (tmp_path / "c3.og").write_text("3\n0 1\n1 2\n2 0\n")
    (tmp_path / "arc.og").write_text("2\n0 1\n")
    (tmp_path / "bad.og").write_text("3\n0 x\n")
    (tmp_path / "big.og").write_text("65\n")
    k24 = ["undirected", "6"]
    k24 += [f"{a} {b}" for a in (0, 1) for b in (2, 3, 4, 5)]
    k24.append("2 3")
    (tmp_path / "k24plus.og").write_text("\n".join(k24) + "\n")
    return tmp_path


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compress_path(og_dir, capsys):
    code, out, _ = _run(capsys, ["compress", str(og_dir / "p4.og")])
    assert code == 0
    assert out.splitlines()[0] == "z = 4"


def test_compress_infinite(og_dir, capsys):
    code, out, _ = _run(capsys, ["compress", str(og_dir / "c3.og")])
    assert code == 0
    assert "z = infinite" in out


def test_compress_json_roundtrips(og_dir, capsys):
    code, out, _ = _run(capsys, ["compress", str(og_dir / "arc.og"), "--json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["z"] == 2
    assert decode(obj["witness"]).n == 1


def test_compress_parse_error(og_dir, capsys):
    code, _, err = _run(capsys, ["compress", str(og_dir / "bad.og")])
    assert code == 2 and "line 2" in err


def test_compress_cap_error(og_dir, capsys):
    code, _, err = _run(capsys, ["compress", str(og_dir / "big.og")])
    assert code == 3


def test_compress_missing_file(capsys):
    code, _, err = _run(capsys, ["compress", "/nonexistent/x.og"])
    assert code == 2


def test_exo_single(capsys):
    code, out, _ = _run(capsys, ["exo", "--n", "3", "--pattern", "dpath3"])
    assert code == 0
    assert out.splitlines()[0] == "pattern dpath3"
    assert any(line.split()[:2] == ["3", "2"] for line in out.splitlines()[2:])


def test_exo_verify_formula(capsys):
    code, out, _ = _run(
        capsys, ["exo", "--n", "5", "--pattern", "adpath4", "--verify-formula"]
    )
    assert code == 0
    assert "MATCH" in out and " 7" in out


def test_exo_range_json(capsys):
    code, out, _ = _run(
        capsys,
        ["exo", "--n", "3..5", "--pattern", "dpath3", "--verify-formula", "--json"],
    )
    assert code == 0
    obj = json.loads(out)
    assert [row["n"] for row in obj["rows"]] == [3, 4, 5]
    assert all(row["status"] == "MATCH" for row in obj["rows"])


def test_exo_pattern_file(og_dir, capsys):
    code, out, _ = _run(
        capsys,
        ["exo", "--n", "4", "--pattern-file", str(og_dir / "arc.og"), "--json"],
    )
    assert code == 0
    assert json.loads(out)["rows"][0]["value"] == 0


def test_exo_pattern_flags_are_exclusive(og_dir, capsys):
    code, _, err = _run(
        capsys,
        [
            "exo", "--n", "4",
            "--pattern", "dpath3",
            "--pattern-file", str(og_dir / "arc.og"),
        ],
    )
    assert code == 2


def test_exo_budget_exit(capsys):
    code, _, err = _run(
        capsys, ["exo", "--n", "8", "--pattern", "dpath4", "--budget", "50"]
    )
    assert code == 4
    assert "lower bound" in err


@pytest.mark.parametrize("budget, want", [(50, 4), (63, 4), (64, 0)])
def test_exo_budget_dpath3_needs_64_nodes(capsys, budget, want):
    # the benchmark's exo --n 8 --pattern dpath3 --budget 50 must run out
    code, out, err = _run(
        capsys, ["exo", "--n", "8", "--pattern", "dpath3", "--budget", str(budget), "--json"]
    )
    assert code == want
    if want == 4:
        assert "lower bound" in err
    else:
        assert json.loads(out)["rows"][0]["nodes"] == 64


@pytest.mark.parametrize(
    "argv",
    [
        ["exo", "--n", "3", "--pattern", "dpath3", "--jobs", "0"],
        ["exo", "--n", "4", "--pattern", "dpath3", "--budget", "-1"],
        ["check-hypothesis", "all-tournaments", "--k", "0", "--pattern", "dpath3"],
        ["embed", "--host", "h.og", "--pattern", "dpath2", "--r", "0", "--seed", "1"],
        *(
            ["embed", "--host", "h.og", "--pattern", "dpath2", "--r", "1", "--seed", "1",
             "--t-override", t]
            for t in ("0", "-5")
        ),
    ],
)
def test_integer_flags_out_of_range(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == "" and "must be at least" in err


def test_exo_cap_exit(capsys):
    code, _, _ = _run(capsys, ["exo", "--n", "11", "--pattern", "dpath3"])
    assert code == 3


_PATH12 = "12\n" + "".join(f"{i} {i + 1}\n" for i in range(11))


@pytest.mark.parametrize("pattern", [["--pattern", "dpath12"], ["--pattern-file", "p12.og"]])
def test_exo_on_a_pattern_past_the_code_cap_is_transitive(tmp_path, monkeypatch, capsys,
                                                          pattern):
    # a pattern with more vertices than the order fits in no graph of it
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p12.og").write_text(_PATH12)
    code, out, _ = _run(capsys, ["exo", *pattern, "--n", "3..5", "--json"])
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [(r["value"], r["nodes"]) for r in rows] == [(3, 0), (6, 0), (10, 0)]
    assert [decode(r["witness"]).arc_count for r in rows] == [3, 6, 10]


@pytest.mark.parametrize("argv, want, last", [
    (["exo", "--pattern", "matching6", "--n", "7", "--verify-formula"], 0,
     ["7", "21", "21", "MATCH", "all", "n"]),
    (["exo", "--pattern", "star:0,11", "--n", "9", "--budget", "30"], 0, ["9", "36", "0"]),
    (["exo", "--pattern", "adpath12", "--n", "5", "--verify-formula"], 2, None),
    (["compress", "p12.og"], 3, None),
    (["check-hypothesis", "all-tournaments", "--k", "7", "--pattern", "dpath12"], 1, None),
    (["construct", "turan", "--n", "12", "--r", "3", "--pattern", "dpath12"], 3, None),
])
def test_patterns_past_the_code_cap_end_in_an_exit_code(tmp_path, monkeypatch, capsys,
                                                        argv, want, last):
    # last: the words of the last stdout line, where the value is checked
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p12.og").write_text(_PATH12)
    code, out, _ = _run(capsys, argv)
    assert code == want
    if last is not None:
        assert out.splitlines()[-1].split() == last


@pytest.mark.parametrize("extra", [[], ["--verify-formula"]])
def test_exo_huge_range_is_refused_at_once(capsys, extra):
    argv = ["exo", "--pattern", "dpath3", "--n", "1..1000000000", *extra]
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        code, out, _ = _run(capsys, argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and out == ""
    assert time.perf_counter() - t0 < 1.0
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "token", ["star:99999999,1", "matching1000000000", "ttour1000000", "dpath1000000000"]
)
def test_huge_pattern_tokens_are_refused_before_building_arcs(capsys, token):
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        with pytest.raises(VertexCapError, match="exceeds cap 64"):
            PatternSpec.parse(token)
        code, out, err = _run(capsys, ["exo", "--n", "5", "--pattern", token])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and out == "" and "exceeds cap 64" in err
    assert time.perf_counter() - t0 < 1.0
    assert peak < 1 << 20


@pytest.mark.parametrize("extra", [[], ["--verify-formula"]])
def test_exo_range_checks_its_ends_before_the_oracle(capsys, monkeypatch, extra):
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle ran")

    monkeypatch.setattr(extremal, "oracle_exo", refuse)
    code, out, err = _run(capsys, ["exo", "--pattern", "dpath3", "--n", "5..8", *extra])
    assert code == 3 and out == "" and "exhaustive cap 7" in err
    code, _, err = _run(capsys, ["exo", "--pattern", "dpath3", "--n", "0..3", *extra])
    assert code == 2 and "n >= 1" in err


# numerals that int() reads but the program does not: a sign, an underscore
# and an Arabic-Indic digit
MALFORMED_NUMERALS = ("+3", "3_0", "\u0663")
# more digits than int() reads
OVER_LONG = "9" * 5000


def _malformed_argvs(d):
    """Malformed values for every subcommand: bad or out-of-range integers,
    bad tokens, and missing, empty, binary or malformed .og files."""
    files = {
        "empty.og": "", "junk.og": "x\n", "arcs.og": "3\n0 1 2\n", "range.og": "3\n0 5\n",
        "loop.og": "3\n1 1\n", "anti.og": "3\n0 1\n1 0\n", "neg.og": "-1\n",
        "huge.og": "99999999999999999999\n", "zero.og": "0\n", "undirected.og": "undirected\n3\n0 1\n",
    }
    for i, x in enumerate((*MALFORMED_NUMERALS, OVER_LONG)):
        files[f"count{i}.og"] = f"{x}\n0 1\n"
        files[f"arc{i}.og"] = f"3\n0 {x}\n"
        files[f"ucount{i}.og"] = f"undirected\n{x}\n0 1\n"
        files[f"uarc{i}.og"] = f"undirected\n3\n{x} 1\n"
    for name, text in files.items():
        (d / name).write_text(text, encoding="utf-8")
    (d / "binary.og").write_bytes(b"\xff\xfe\x00\n")
    paths = [str(d / name) for name in [*files, "binary.og", "missing.og"]] + [str(d)]
    ints = ["x", "", "-1", "0", "2.5", "1e3", "99999999999999999999", *MALFORMED_NUMERALS,
            OVER_LONG]
    tokens = ["", "zzz", "star:", "star:a,b", "star:-1,2", "star:0,0", "dpath1", "dcycle2",
              "matching0", "ttour99", "c1", "dpath" + "9" * 30]
    tokens += [token for x in (*MALFORMED_NUMERALS, OVER_LONG)
               for token in (x, f"dpath{x}", f"star:{x},1")]
    ok = str(d / "p4.og")
    for path in paths:
        yield ["compress", path, "--json"]
        yield ["exo", "--n", "3", "--pattern-file", path]
        yield ["embed", "--host", path, "--pattern", "dpath2", "--r", "1", "--seed", "1"]
        yield ["embed", "--host", ok, "--pattern-file", path, "--r", "1", "--seed", "1"]
        yield ["check-hypothesis", "all-orientations", "--host", path, "--pattern", "dpath3"]
        yield ["check-hypothesis", "all-tournaments", "--k", "3", "--pattern-file", path]
    for v in ints:
        yield ["exo", "--n", v, "--pattern", "dpath3"]
        yield ["exo", "--n", "3.." + v, "--pattern", "dpath3"]
        yield ["exo", "--n", "3", "--pattern", "dpath3", "--budget", v]
        yield ["exo", "--n", "3", "--pattern", "dpath3", "--jobs", v]
        for name in ["turan", "cyclepower", "starpartition", "thm32", "prop26", "prop27"]:
            yield ["construct", name, "--n", v, "--r", "2", "--p", "1", "--q", "2"]
            yield ["construct", name, "--n", "6", "--r", v, "--p", v, "--q", v, "--d", v]
        yield ["check-hypothesis", "all-tournaments", "--k", v, "--pattern", "dpath3"]
        yield ["embed", "--host", ok, "--pattern", "dpath2", "--r", v, "--seed", "1"]
        yield ["embed", "--host", ok, "--pattern", "dpath2", "--r", "1", "--seed", v]
        yield ["embed", "--host", ok, "--pattern", "dpath2", "--r", "1", "--seed", "1",
               "--t-override", v]
    for token in tokens:
        yield ["exo", "--n", "3", "--pattern", token]
        yield ["construct", "turan", "--n", "5", "--r", "2", "--pattern", token]
        yield ["check-hypothesis", "all-tournaments", "--k", "3", "--pattern", token]
        yield ["embed", "--host", ok, "--pattern", token, "--r", "1", "--seed", "1"]
    yield from ([], ["nope"], ["exo"], ["embed"], ["check-hypothesis", "bad"], ["construct"])


def test_malformed_values_end_in_a_documented_exit_code(og_dir, capsys):
    argvs = list(_malformed_argvs(og_dir))
    assert len(argvs) > 250
    for argv in argvs:
        code, _, err = _run(capsys, argv)
        assert code in range(5), argv
        assert "Traceback" not in err, argv


def _og_file(d, text):
    path = d / "numeral.og"
    path.write_text(text, encoding="utf-8")
    return str(path)


# each place a numeral is read from a file, a token or --n: the argv that puts
# numeral x there (files go in directory d) and the message a malformed x gets
READ_POSITIONS = {
    ".og count": (lambda d, x: ["compress", _og_file(d, f"{x}\n0 1\n")],
                  lambda x: f"line 1, col 1: expected vertex count, got {x!r}"),
    ".og endpoint": (lambda d, x: ["compress", _og_file(d, f"3\n0 {x}\n")],
                     lambda x: f"line 2, col 3: non-integer endpoint {x!r}"),
    "undirected count": (
        lambda d, x: ["check-hypothesis", "all-orientations", "--pattern", "dpath3",
                      "--host", _og_file(d, f"undirected\n{x}\n0 1\n")],
        lambda x: f"line 2, col 1: expected vertex count, got {x!r}"),
    "undirected endpoint": (
        lambda d, x: ["check-hypothesis", "all-orientations", "--pattern", "dpath3",
                      "--host", _og_file(d, f"undirected\n3\n{x} 1\n")],
        lambda x: f"line 3, col 1: non-integer endpoint {x!r}"),
    "dpathK": (lambda d, x: ["exo", "--n", "3", "--pattern", f"dpath{x}"],
               lambda x: f"unknown pattern token {'dpath' + x!r}"),
    "star p": (lambda d, x: ["exo", "--n", "3", "--pattern", f"star:{x},1"],
               lambda x: f"bad star parameters in {f'star:{x},1'!r}"),
    "star q": (lambda d, x: ["exo", "--n", "3", "--pattern", f"star:1,{x}"],
               lambda x: f"bad star parameters in {f'star:1,{x}'!r}"),
    "--n A": (lambda d, x: ["exo", "--pattern", "dpath3", "--n", x],
              lambda x: f"--n takes N or A..B, got {x!r}"),
    "--n B": (lambda d, x: ["exo", "--pattern", "dpath3", "--n", f"3..{x}"],
              lambda x: f"--n takes N or A..B, got {f'3..{x}'!r}"),
}


def _option(argv):
    """The position of the integer option last in argv, an argv valid without it."""
    return (lambda d, x: [*argv, x],
            lambda x: f"argument {argv[-1]}: invalid int value: {x!r}")


EMBED = ["embed", "--host", "h.og", "--pattern", "dpath2"]
OPTION_POSITIONS = {f"{argv[0]} {argv[-1]}": _option(argv) for argv in [
    ["exo", "--n", "3", "--pattern", "dpath3", "--budget"],
    ["exo", "--n", "3", "--pattern", "dpath3", "--jobs"],
    ["construct", "turan", "--n"],
    *(["construct", "turan", "--n", "6", option] for option in ("--r", "--p", "--q", "--d")),
    [*EMBED, "--seed", "1", "--r"],
    [*EMBED, "--r", "1", "--seed"],
    [*EMBED, "--r", "1", "--seed", "1", "--t-override"],
    ["check-hypothesis", "all-tournaments", "--pattern", "dpath3", "--k"],
]}


def _numeral_cases():
    ids = {"+3": "plus", "3_0": "underscore", "\u0663": "arabic-indic", " 3": "space",
           OVER_LONG: "5000-digits"}
    for position in [*READ_POSITIONS, *OPTION_POSITIONS]:
        # files and tokens strip spaces; --n and the options do not
        spaced = (" 3",) if position.startswith("--n") or position in OPTION_POSITIONS else ()
        for x in (*MALFORMED_NUMERALS, *spaced, OVER_LONG):
            yield pytest.param(position, x, id=f"{position}-{ids[x]}")


@pytest.mark.parametrize("position, numeral", _numeral_cases())
def test_each_numeral_position_has_one_exit_code(tmp_path, capsys, position, numeral):
    # a malformed numeral exits 2 with its position's message; one too long for
    # int() exceeds every cap (3), except as an option, where argparse refuses
    # it as a usage error (2)
    argv_of, message_of = {**READ_POSITIONS, **OPTION_POSITIONS}[position]
    code, out, err = _run(capsys, argv_of(tmp_path, numeral))
    if numeral == OVER_LONG and position in READ_POSITIONS:
        assert code == 3 and err == "error: a number of 5000 digits exceeds every size cap\n"
    else:
        assert code == 2 and err.endswith(f"error: {message_of(numeral)}\n")
    assert out == ""
    assert "Traceback" not in err and "Exceeds the limit" not in err


HANDLER_ARGVS = (
    ["exo", "--n", "3", "--pattern", "dpath3"],
    ["embed", "--host", "h.og", "--pattern", "dpath2", "--r", "1", "--seed", "1"],
)


def test_every_package_exception_maps_to_a_documented_exit_code(capsys, monkeypatch):
    # SAMPLES holds one instance of every exception class of the package
    raising = []

    def fail(*args, **kwargs):
        raise raising[-1]

    # the handlers look these up when they run, so patching the library suffices
    monkeypatch.setattr(extremal, "_records", fail)
    monkeypatch.setattr(regularize, "faks_pipeline", fail)
    monkeypatch.setattr(cli, "_read_file", lambda path: "2\n")
    for exc in SAMPLES:
        raising.append(exc)
        for argv in HANDLER_ARGVS:
            code, out, err = _run(capsys, argv)
            assert code in (1, 2, 3, 4) and out == "" and "Traceback" not in err, (exc, argv)


@pytest.mark.parametrize("argv", HANDLER_ARGVS)
def test_an_exception_from_outside_the_package_propagates(monkeypatch, argv):
    # a bug is a traceback, never one of the documented exit codes
    def fail(*args, **kwargs):
        raise RuntimeError("a bug")

    monkeypatch.setattr(extremal, "_records", fail)
    monkeypatch.setattr(regularize, "faks_pipeline", fail)
    monkeypatch.setattr(cli, "_read_file", lambda path: "2\n")
    with pytest.raises(RuntimeError, match="a bug"):
        main(argv)


def test_construct_og_output(capsys):
    code, out, _ = _run(capsys, ["construct", "thm32", "--n", "6"])
    assert code == 0
    g = decode(out)
    assert g.n == 6 and g.arc_count == 12


def test_construct_with_params(capsys):
    code, out, _ = _run(capsys, ["construct", "cyclepower", "--n", "5", "--q", "3"])
    assert code == 0
    assert decode(out).arc_count == 10


def test_construct_bad_params(capsys):
    code, _, err = _run(capsys, ["construct", "thm32", "--n", "4"])
    assert code == 2
    code, _, _ = _run(capsys, ["construct", "nosuch", "--n", "4"])
    assert code == 2


@pytest.mark.parametrize("p, q, part, need", [("3", "3", "C has 2 vertices, but p=3", 5),
                                              ("1", "3", "D has 4 vertices, but q=3", 5)])
def test_construct_starpartition_names_its_small_part(capsys, p, q, part, need):
    code, out, err = _run(capsys, ["construct", "starpartition", "--n", "5", "--p", p, "--q", q])
    assert code == 2 and out == ""
    assert err == f"error: starpartition part {part} needs at least {need}\n"


def test_construct_cap(capsys):
    code, _, _ = _run(capsys, ["construct", "thm32", "--n", "100"])
    assert code == 3
    # the cap is checked before any arc list, so a huge n exits at once
    code, out, err = _run(capsys, ["construct", "thm32", "--n", "100000"])
    assert code == 3
    assert out == "" and err == "error: vertex count 100000 exceeds cap 64\n"


@pytest.mark.parametrize("argv, param", [
    (["cyclepower", "--n", "7", "--q", "2", "--r", "5"], "r"),
    (["turan", "--n", "7", "--r", "2", "--p", "1"], "p"),
    (["thm32", "--n", "7", "--q", "2"], "q"),
    (["cyclepower", "--n", "7", "--q", "2", "--d", "3"], "d"),
    (["thm32", "--n", "5", "--pattern", "dpath3"], "pattern"),
    # several: the first in the order r, p, q, d, pattern is named
    (["cyclepower", "--n", "7", "--q", "2", "--r", "5", "--d", "3", "--p", "9"], "r"),
])
def test_construct_refuses_an_option_its_construction_does_not_read(capsys, argv, param):
    code, out, err = _run(capsys, ["construct", *argv])
    assert code == 2 and out == ""
    assert err == f"error: the {argv[0]} construction takes no {param}\n"


def test_construct_choices_are_the_named_constructions(capsys):
    subs = next(a for a in cli.build_parser()._actions if a.dest == "command")
    name = next(a for a in subs.choices["construct"]._actions if a.dest == "name")
    assert tuple(name.choices) == cli._CONSTRUCTIONS == tuple(patterns._PARAMETERS)
    # the kwargs the construction tests use
    kwargs = {"turan": {"r": 3}, "cyclepower": {"q": 3}, "starpartition": {"p": 1, "q": 2}}
    for construction in cli._CONSTRUCTIONS:
        g = patterns.build_construction(construction, 6, **kwargs.get(construction, {}))
        assert g.n == 6 and g.arc_count > 0, construction
    with pytest.raises(patterns.BadParamsError, match="unknown construction 'nosuch'"):
        patterns.build_construction("nosuch", 6)
    code, _, err = _run(capsys, ["construct", "nosuch", "--n", "4"])
    assert code == 2
    assert ("invalid choice: 'nosuch' (choose from 'turan', 'cyclepower', "
            "'starpartition', 'thm32', 'prop26', 'prop27')") in err


def test_embed_diagnostic_and_determinism(og_dir, capsys):
    import random

    from orituran.graphs import OrientedGraph, encode

    rng = random.Random(12)
    arcs = []
    for i in range(40):
        for j in range(i + 1, 40):
            roll = rng.random()
            if roll < 0.4:
                arcs.append((i, j))
            elif roll < 0.8:
                arcs.append((j, i))
    host = og_dir / "host.og"
    host.write_text(encode(OrientedGraph.from_arcs(40, arcs)))
    argv = [
        "embed", "--host", str(host),
        "--pattern-file", str(og_dir / "arc.og"),
        "--r", "1", "--seed", "5", "--t-override", "2",
    ]
    code1, out1, _ = _run(capsys, argv)
    code2, out2, _ = _run(capsys, argv)
    assert code1 == code2 == 1
    assert out1 == out2
    obj = json.loads(out1)
    assert obj["embedding"] is None
    assert obj["stages"][0]["stage"] == "extract"
    assert obj["failure"]


def test_embed_empty_host(og_dir, capsys):
    (og_dir / "empty.og").write_text("0\n")
    code, out, _ = _run(
        capsys,
        [
            "embed", "--host", str(og_dir / "empty.og"),
            "--pattern", "dpath2", "--r", "1", "--seed", "5",
        ],
    )
    assert code == 1
    obj = json.loads(out)
    assert obj["embedding"] is None
    assert obj["failure"].startswith("regularize: ")


def test_embed_rejects_two_way_pattern(og_dir, capsys):
    (og_dir / "p3.og").write_text("3\n0 1\n1 2\n")
    code, _, err = _run(
        capsys,
        [
            "embed", "--host", str(og_dir / "arc.og"),
            "--pattern-file", str(og_dir / "p3.og"),
            "--r", "1", "--seed", "0",
        ],
    )
    assert code == 2
    assert "source side to sink side" in err


def test_embed_requires_seed(og_dir, capsys):
    code, _, _ = _run(
        capsys,
        [
            "embed", "--host", str(og_dir / "arc.og"),
            "--pattern-file", str(og_dir / "arc.og"),
            "--r", "1",
        ],
    )
    assert code == 2


def test_check_all_tournaments_true(capsys):
    code, out, _ = _run(
        capsys, ["check-hypothesis", "all-tournaments", "--k", "4", "--pattern", "oc4"]
    )
    assert code == 0 and out.strip() == "true"


def test_check_all_tournaments_false_with_counterexample(capsys):
    code, out, _ = _run(
        capsys, ["check-hypothesis", "all-tournaments", "--k", "3", "--pattern", "c3"]
    )
    assert code == 1
    body = out.split(":", 1)[1]
    cx = decode(body)
    assert cx.n == 3 and cx.arc_count == 3


def test_check_all_orientations(og_dir, capsys):
    code, out, _ = _run(
        capsys,
        [
            "check-hypothesis", "all-orientations",
            "--host", str(og_dir / "k24plus.og"),
            "--pattern", "prop23", "--json",
        ],
    )
    assert code == 0
    assert json.loads(out) == {"counterexample": None, "holds": True}


def test_check_hypothesis_has_no_jobs_flag(capsys):
    code, out, err = _run(
        capsys,
        ["check-hypothesis", "all-tournaments", "--k", "3", "--pattern", "dpath3", "--jobs", "2"],
    )
    assert code == 2
    assert out == "" and "unrecognized arguments: --jobs 2" in err


@pytest.mark.parametrize("argv", [
    ["check-hypothesis", "all-orientations", "--host", "tri.og", "--pattern", "dpath3",
     "--k", "5"],
    ["check-hypothesis", "all-tournaments", "--k", "3", "--pattern", "dpath3",
     "--host", "/nonexistent"],
])
def test_check_refuses_the_other_modes_option(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err


def test_check_missing_mode_args(capsys):
    code, _, err = _run(
        capsys, ["check-hypothesis", "all-tournaments", "--pattern", "oc4"]
    )
    assert code == 2 and "--k" in err
    code, _, err = _run(
        capsys, ["check-hypothesis", "all-orientations", "--pattern", "oc4"]
    )
    assert code == 2 and "--host" in err


def test_unknown_command(capsys):
    assert main(["frobnicate"]) == 2


def test_json_outputs_are_canonical(og_dir, capsys):
    # keys sorted, no whitespace: byte-stable across repeats
    code, out1, _ = _run(capsys, ["compress", str(og_dir / "p4.og"), "--json"])
    code, out2, _ = _run(capsys, ["compress", str(og_dir / "p4.og"), "--json"])
    assert out1 == out2
    assert json.dumps(json.loads(out1), sort_keys=True, separators=(",", ":")) + "\n" == out1


def _run_fresh(argv):
    """Run python argv in a fresh interpreter on the source under test."""
    src = str(Path(orituran.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *argv], capture_output=True, env=dict(os.environ, PYTHONPATH=path)
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cold_import_and_jobs_skip_process_pool():
    # --jobs is accepted and ignored: the oracle starts no process pool
    script = (
        "import sys, orituran.cli\n"
        "pool = ('concurrent.futures', 'multiprocessing')\n"
        "print(any(m in sys.modules for m in pool))\n"
        "from orituran.extremal import PatternSpec, oracle_exo\n"
        "oracle_exo(7, PatternSpec.parse('prop23'), jobs=2)\n"
        "print(any(m in sys.modules for m in pool))\n"
    )
    assert _run_fresh(["-c", script]).split() == [b"False", b"False"]


@pytest.mark.parametrize("extra", [[], ["--json"]])
def test_exo_jobs_output_bytes_match_serial(extra):
    # --jobs is accepted and ignored, so its output is the serial bytes
    argv = ["-m", "orituran.cli", "exo", "--pattern", "dpath3", "--n", "4..7", *extra]
    serial = _run_fresh(argv + ["--jobs", "1"])
    assert _run_fresh(argv + ["--jobs", "2"]) == serial
    lines = serial.splitlines()
    assert len(lines) == (1 if extra else 6) and len(set(lines)) == len(lines)


@pytest.mark.parametrize("text", ["3..x", "x", "3..", "..5", "", "3..5..7"])
def test_exo_bad_n_names_the_forms(capsys, text):
    code, out, err = _run(capsys, ["exo", "--pattern", "dpath3", "--n", text])
    assert code == 2 and out == ""
    assert err == f"error: --n takes N or A..B, got {text!r}\n"
