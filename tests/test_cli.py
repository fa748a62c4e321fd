import hashlib
import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from corematch import cli
from corematch.flawed import COUNTEREXAMPLE_TEXT

CORE_ALLOC = "0 0\n1 0\n2 2\n3 10\n4 0\n"
PATH_ALLOC = "0 0\n1 0\n2 1\n3 11\n4 0\n"
DATA = pathlib.Path(__file__).resolve().parent.parent / "data"


@pytest.fixture
def files(tmp_path: pathlib.Path):
    game = tmp_path / "demo.game"
    game.write_text(COUNTEREXAMPLE_TEXT)
    core = tmp_path / "core.alloc"
    core.write_text(CORE_ALLOC)
    bad = tmp_path / "bad.alloc"
    bad.write_text(PATH_ALLOC)
    return tmp_path, game, core, bad


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_value(files, capsys):
    _, game, _, _ = files
    code, out, _ = run(capsys, "value", "-i", str(game))
    assert code == 0 and out == "12\n"


def test_separate_in_core(files, capsys):
    _, game, core, _ = files
    code, out, _ = run(capsys, "separate", "-i", str(game), "-a", str(core))
    assert code == 0
    assert out.splitlines()[0] == "IN_CORE"


def test_separate_violated_first_line_format(files, capsys):
    _, game, _, bad = files
    code, out, _ = run(capsys, "separate", "-i", str(game), "-a", str(bad))
    assert code == 10
    lines = out.splitlines()
    assert lines[0] == "VIOLATED kind=Path S={0,1,2} p(S)=1 bound=2"
    assert lines[1] == "witness: 0-2 1-2"
    assert lines[2] == "reverified: yes"


def test_separate_all_mode(files, capsys):
    _, game, _, bad = files
    code, out, _ = run(capsys, "separate", "-i", str(game), "-a", str(bad), "--all")
    assert code == 10
    assert "also:" in out


def test_check_verdict_only(files, capsys):
    _, game, _, bad = files
    code, out, _ = run(capsys, "check", "-i", str(game), "-a", str(bad))
    assert code == 10
    assert out == "VIOLATED kind=Path S={0,1,2} p(S)=1 bound=2\n"


def test_flaw_demo(files, capsys):
    code, out, _ = run(capsys, "flaw")
    assert code == 0
    assert "weight -8" in out
    assert "(s,u,v,u,t)" in out


def test_flaw_on_files(files, capsys):
    _, game, core, _ = files
    code, out, _ = run(capsys, "flaw", "-i", str(game), "-a", str(core))
    assert code == 10
    assert out.startswith("NEGATIVE_PATH (0,2,3,2,1) weight -8")


def test_extform_check_and_size(files, capsys):
    _, game, core, bad = files
    code, out, _ = run(capsys, "extform", "-i", str(game), "--check", "-a", str(core))
    assert code == 0 and out == "IN_CORE\n"
    code, out, _ = run(capsys, "extform", "-i", str(game), "--check", "-a", str(bad))
    assert code == 10 and out == "NOT_IN_CORE\n"
    code, out, _ = run(capsys, "extform", "-i", str(game), "--size")
    assert code == 0 and out.startswith("family:")


def test_extform_emit_roundtrip(files, capsys, tmp_path):
    from corematch import extform, linsys, model

    _, game, _, _ = files
    target = tmp_path / "system.lp"
    code, out, _ = run(capsys, "extform", "-i", str(game), "--emit", str(target))
    assert code == 0 and target.exists()
    parsed = linsys.parse_lp(target.read_text())
    built = extform.build_extended_formulation(
        model.parse_instance(COUNTEREXAMPLE_TEXT)
    )
    assert parsed == built


def test_random_deterministic(capsys, tmp_path):
    code, out1, _ = run(capsys, "random", "--seed", "9", "--n", "6", "--density", "1/2")
    code2, out2, _ = run(capsys, "random", "--seed", "9", "--n", "6", "--density", "1/2")
    assert code == code2 == 0 and out1 == out2
    assert out1.startswith("game 6 ")


def test_oracle_subcommands(files, capsys, tmp_path):
    _, game, core, _ = files
    code, out, _ = run(capsys, "oracle", "nu", "-i", str(game), "-S", "2,3,4")
    assert code == 0 and out == "11\n"
    code, out, _ = run(capsys, "oracle", "core-check", "-i", str(game), "-a", str(core))
    assert code == 0 and out == "IN_CORE\n"
    code, out, _ = run(capsys, "oracle", "constraint-check", "-i", str(game), "-a", str(core))
    assert code == 0 and out == "IN_CORE\n"
    code, out, _ = run(capsys, "oracle", "constraints", "-i", str(game))
    assert code == 0 and "paths:" in out

    costs = tmp_path / "neg.costs"
    costs.write_text("costs 3 3\nedge 0 1 -3\nedge 1 2 1\nedge 0 2 1\n")
    code, out, _ = run(capsys, "oracle", "negcycle", "-c", str(costs))
    assert code == 10 and out.startswith("NEGATIVE_CYCLE (0-1-2) cost -1")

    xfile = tmp_path / "x.vec"
    xfile.write_text("1\n1\n1\n")
    code, out, _ = run(capsys, "oracle", "cut-check", "-c", str(costs), "-x", str(xfile))
    assert code == 0 and out == "HOLDS\n"


def test_output_byte_deterministic(files, capsys):
    _, game, _, bad = files
    runs = [
        run(capsys, "separate", "-i", str(game), "-a", str(bad)) for _ in range(2)
    ]
    assert runs[0] == runs[1]
    sizes = [run(capsys, "extform", "-i", str(game), "--size") for _ in range(2)]
    assert sizes[0] == sizes[1]


# SHA-256 of the exact stdout for the shipped data files; any byte change in
# verdicts, certificates, scan order or size tallies shows up here.
GOLDEN_STDOUT = [
    (
        ("separate", "-i", "counterexample.game", "-a", "counterexample.alloc"),
        0,
        "c09c1ef51bad88d17e91d48ed3f2c1082fe894085aa08f8460c1bd342dcb3307",
    ),
    (
        ("separate", "-i", "square.game", "-a", "square-low.alloc"),
        10,
        "c338c6367750b3a1e1594203fea1abc00cf7e0772bc49460737af8132084660f",
    ),
    (
        # each violation once: the cycle stage's Cycle is not repeated by the
        # endpoint variants that contain it
        ("separate", "-i", "square.game", "-a", "square-low.alloc", "--all"),
        10,
        "452e86dfb3fe1ecbffa1b397654959cefd3c499a739ff98eb2c9e2a8c242becb",
    ),
    (
        ("extform", "-i", "counterexample.game", "--size"),
        0,
        "ef69be1bc3925cb2a99b8322160c5b6ba7d78b6a6978d44754aa126bb3cb79ed",
    ),
    (
        ("extform", "-i", "square.game", "--size"),
        0,
        "a667b1916b84deda859f65df357385371ea471aaec98d0b209f28c3dc419dd97",
    ),
    (
        ("check", "-i", "path.game", "-a", "path-core.alloc"),
        0,
        "c09c1ef51bad88d17e91d48ed3f2c1082fe894085aa08f8460c1bd342dcb3307",
    ),
    (
        # a Path certificate whose witness holds the kept edges at both
        # capacity-1 ends: edge 0 before G2's edges 1, 2, 3, 6 and edge 7
        # after them
        ("separate", "-i", "path.game", "-a", "path-low.alloc"),
        10,
        "e9152cfecfd4e4f9323fae2078fd542224cc0477e62861d225c139900ae661fd",
    ),
    (
        ("separate", "-i", "path.game", "-a", "path-low.alloc", "--all"),
        10,
        "819afee2de23d1d806a350b56cad88b717494213c93a8035b606dbbb5abab5a4",
    ),
    (
        ("check", "-i", "path.game", "-a", "path-low.alloc"),
        10,
        "50a04870cd39404e868fb68bb45a552a623b625fe8f4b450852d3c4597763357",
    ),
    (
        ("extform", "-i", "path.game", "--size"),
        0,
        "16018bf58c3ea216b8998be0ca3c4cc098161ee2bfbd867cf1725cedf9aa3df3",
    ),
    (
        # IN_CORE: one edge, and p pays it in full
        ("check", "-i", "one-edge.game", "-a", "one-edge.alloc"),
        0,
        "c09c1ef51bad88d17e91d48ed3f2c1082fe894085aa08f8460c1bd342dcb3307",
    ),
    (
        # the legacy scan rejects it all the same: NEGATIVE_PATH (0,1,0,1)
        # weight -10 k=3, a walk that runs the one edge three times
        ("flaw", "-i", "one-edge.game", "-a", "one-edge.alloc"),
        10,
        "8e3c74452e021d42a2d7eedf60138df08c0439bc65e30fdc1c33cbfce2e3f37e",
    ),
]

GOLDEN_EMIT = {
    "counterexample.game": "0f9a035e64d0095fcd60589370b92502ad803e737f20f7f352e6198d88e857d6",
    "path.game": "89ded308219126c7c028a6f79b5099226170b753df779875173e715434f33c30",
    "square.game": "685697f0136b382c6a3fb3e56cccfa37b30b02b9ffe7d9d98c19f73004daa844",
}


@pytest.mark.parametrize("argv, exit_code, digest", GOLDEN_STDOUT)
def test_golden_stdout(capsys, argv, exit_code, digest):
    argv = [str(DATA / a) if a.endswith((".game", ".alloc")) else a for a in argv]
    code, out, _ = run(capsys, *argv)
    assert code == exit_code
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("game, digest", sorted(GOLDEN_EMIT.items()))
def test_golden_emit(capsys, tmp_path, game, digest):
    target = tmp_path / "system.lp"
    code, _, _ = run(capsys, "extform", "-i", str(DATA / game), "--emit", str(target))
    assert code == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == digest


# `extform --emit` of the game that `random --seed 4 --n 10 --density 1/2`
# writes: a formulation of 16 561 rows, past the reach of GOLDEN_EMIT
GOLDEN_EMIT_N10 = "7b3f8b96696d6d0f5e7a6ab95fcb6b23c5b46e271f8a692a72035f9bf48e1fee"


def test_golden_emit_at_scale(capsys, tmp_path):
    code, game, _ = run(capsys, "random", "--seed", "4", "--n", "10", "--density", "1/2")
    assert code == 0
    path, target = tmp_path / "random10.game", tmp_path / "system.lp"
    path.write_text(game)
    code, _, _ = run(capsys, "extform", "-i", str(path), "--emit", str(target))
    assert code == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == GOLDEN_EMIT_N10


# Run the CLI in a fresh interpreter in which `import networkx` fails.
WITHOUT_NETWORKX = """
import contextlib, io, json, sys
sys.modules["networkx"] = None
from corematch import cli
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    runs.append([code, out.getvalue()])
print(json.dumps(runs))
"""


def run_fresh(code, *args):
    env = dict(os.environ)
    src = str(DATA.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env, timeout=120, check=True)


def test_golden_stdout_without_networkx():
    argvs = [["value", "-i", str(DATA / "counterexample.game")]]
    argvs += [[str(DATA / a) if a.endswith((".game", ".alloc")) else a for a in argv]
              for argv, _, _ in GOLDEN_STDOUT]
    runs = json.loads(run_fresh(WITHOUT_NETWORKX, json.dumps(argvs)).stdout)
    assert runs[0] == [0, "12\n"]
    for (code, out), (_, exit_code, digest) in zip(runs[1:], GOLDEN_STDOUT):
        assert code == exit_code
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_import_leaves_networkx_unloaded():
    out = run_fresh("import sys, corematch; print('networkx' in sys.modules)")
    assert out.stdout == "False\n"


def test_file_error_exit_code(capsys):
    code, _, err = run(capsys, "value", "-i", "/nonexistent/file.game")
    assert code == 3 and "error" in err


def test_format_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.game"
    bad.write_text("game 1 0\nvertex 0 7\n")
    code, _, err = run(capsys, "value", "-i", str(bad))
    assert code == 3 and "capacity out of range" in err


def test_non_utf8_input_exits_3_naming_the_line(files, capsys):
    # a byte that is not UTF-8 is a format error on its line, counted as the
    # parsers count lines (CRLF is one break)
    tmp, game, _, _ = files
    bad_game = tmp / "latin1.game"
    bad_game.write_bytes(b"game 2 1\nvertex 0 2\nvertex 1 2\nedge 0 1 \xff\n")
    bad_alloc = tmp / "latin1.alloc"
    bad_alloc.write_bytes(b"0 0\r\n1 0\r\n2 \xc3\n3 10\n4 0\n")
    for argv, line in ((["value", "-i", str(bad_game)], 4),
                       (["check", "-i", str(game), "-a", str(bad_alloc)], 3)):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.startswith(f"error: line {line}: not UTF-8 text")


COSTS = "costs 3 3\nedge 0 1 -3\nedge 1 2 1\nedge 0 2 1\n"


@pytest.mark.parametrize(
    "costs, xvector, message",
    [
        (COSTS.replace("edge 1 2 1", "edge 0 0 1"), None, "line 3: loop at vertex 0"),
        (COSTS.replace("edge 1 2 1", "edge 1 0 1"), None, "line 3: duplicate edge 1-0"),
        (COSTS.replace("costs 3", "costs x"), None, "line 1: malformed integer 'x'"),
        (COSTS.replace("costs 3", "costs 99999999999999999999"), None,
         "line 1: 99999999999999999999 vertices, more than 65536"),
        (COSTS.replace("costs 3", "costs " + "9" * 5000), None,
         "line 1: integer with too many digits (5000)"),
        (COSTS, "1\n# comment\n-1\n1\n", "line 3: negative x entry -1"),
        (COSTS, "1\n1\n٣\n", "line 3: malformed rational"),
    ],
    ids=["loop", "duplicate-edge", "header-count", "vertex-count", "long-count", "negative-x",
         "non-ascii-x"],
)
def test_malformed_cost_files_exit_3(capsys, tmp_path, costs, xvector, message):
    cfile = tmp_path / "g.costs"
    cfile.write_text(costs, encoding="utf-8")
    argv = ["oracle", "negcycle", "-c", str(cfile)]
    if xvector is not None:
        xfile = tmp_path / "x.vec"
        xfile.write_text(xvector, encoding="utf-8")
        argv = ["oracle", "cut-check", "-c", str(cfile), "-x", str(xfile)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert message in err


def test_values_past_pythons_digit_limit_print_in_full(tmp_path, capsys):
    # nu(N) over two disjoint edges of weight 1/(10^3000 + 1) and
    # 1/(10^3000 + 3) has a 6 001-digit denominator, past the 4 300 digits
    # Python turns into text by default; the parsers keep their own cap
    a, b = 10**3000 + 1, 10**3000 + 3
    head = "game 4 2\n" + "".join(f"vertex {v} 1\n" for v in range(4))
    game = tmp_path / "long.game"
    game.write_text(head + f"edge 0 1 1/{a}\nedge 2 3 1/{b}\n")
    alloc = tmp_path / "zero.alloc"
    alloc.write_text("".join(f"{v} 0\n" for v in range(4)))
    lp = tmp_path / "long.lp"
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        nu = str(Fraction(1, a) + Fraction(1, b))
    finally:
        sys.set_int_max_str_digits(limit)
    violated = f"VIOLATED kind=TotalValue S={{0,1,2,3}} p(S)=0 bound={nu}"
    for argv, code, out in (
        (["value", "-i", str(game)], 0, f"{nu}\n"),
        (["check", "-i", str(game), "-a", str(alloc)], 10, f"{violated}\n"),
        (["separate", "-i", str(game), "-a", str(alloc)], 10,
         f"{violated}\nwitness: -\nreverified: yes\n"),
        (["oracle", "nu", "-i", str(game), "-S", "0,1,2,3"], 0, f"{nu}\n"),
        (["extform", "-i", str(game), "--emit", str(lp)], 0, f"wrote {lp}\n"),
    ):
        assert run(capsys, *argv) == (code, out, "")
        assert sys.get_int_max_str_digits() == limit
    assert f"\\X total: p_0 + p_1 + p_2 + p_3 = {nu}\n" in lp.read_text()
    for digits, code in ((4300, 0), (4301, 3), (5000, 3)):
        game.write_text(head + f"edge 0 1 {'9' * digits}\nedge 2 3 1\n")
        got = run(capsys, "value", "-i", str(game))
        assert got[0] == code and sys.get_int_max_str_digits() == limit
        if code == 3:
            assert got[2] == f"error: line 6: integer with too many digits ({digits})\n"


@pytest.mark.parametrize("coalition", ["0_0", "+0", "٣", "1,+2", "2,0_3"])
def test_coalition_ids_are_ascii_integers(files, capsys, coalition):
    _, game, _, _ = files
    code, out, err = run(capsys, "oracle", "nu", "-i", str(game), "-S", coalition)
    assert (code, out) == (3, "") and "malformed integer" in err


def test_size_guard_exit_code(capsys, tmp_path):
    from corematch import model
    from fractions import Fraction

    big = tmp_path / "big.game"
    big.write_text(model.emit_instance(model.random_instance(1, 13, Fraction(0), 1)))
    alloc = tmp_path / "big.alloc"
    alloc.write_text("".join(f"{v} 0\n" for v in range(13)))
    code, _, err = run(capsys, "oracle", "core-check", "-i", str(big), "-a", str(alloc))
    assert code == 4 and "guard" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["separate", "--bogus"])
    assert exc.value.code == 2


def test_missing_required_combo(files, capsys):
    _, game, _, _ = files
    code, _, err = run(capsys, "extform", "-i", str(game), "--check")
    assert code == 3 and "--alloc" in err


@pytest.mark.parametrize("argv, code, text, broken", [
    (["random", "--seed", "1", "--n", "0"], 2, "error: instance needs at least one vertex", False),
    (["random", "--seed", "1", "--n", "3", "--density", "2"], 2,
     "error: density must lie in [0, 1]", False),
    (["random", "--seed", "1", "--n", "3", "--wmax", "-1"], 2, "error: wmax must be >= 0", False),
    (["check", "-i", "{data}/counterexample.game", "-a", "{data}/counterexample.alloc"], 5,
     "internal error: stage failed", True),
    (["oracle", "nu", "-i", "{data}/counterexample.game", "-S", "9"], 3,
     "error: coalition out of range: '9'", False),
    (["extform", "-i", "{data}/square.game"], 3, "error: extform needs one of", False),
    (["flaw", "-i", "{data}/square.game"], 3, "error: flaw on an instance requires --alloc",
     False),
    (["oracle", "nu", "-i", "{data}/square.game"], 3, "error: oracle nu requires --coalition",
     False),
    (["oracle", "cut-check", "-c", "{tmp}/neg.costs", "-x", "{tmp}/x2.vec"], 3,
     "error: x-vector has 2 entries, graph has 3 edges", False),
    (["flaw", "-i", "{data}/square.game", "-a", "{data}/square-core.alloc"], 0,
     "NO_NEGATIVE_PATH\n", False),
    (["oracle", "negcycle", "-c", "{tmp}/pos.costs"], 0, "NO_NEGATIVE_CYCLE\n", False),
    (["oracle", "cut-check", "-c", "{tmp}/neg.costs", "-x", "{tmp}/x511.vec"], 10,
     "VIOLATED cut X={{0}} edge 0-1\n", False),
    (["random", "--seed", "7", "--n", "6", "-o", "{tmp}/r.game"], 0,
     "wrote {tmp}/r.game (6 vertices, 10 edges)\n", False),
    (["oracle", "constraints", "-i", "{data}/square.game"], 0, "cycles: 1\n  C 0-1-2-3\n",
     False),
], ids=["n-0", "density-2", "wmax-negative", "invariant", "coalition-9", "extform-no-mode",
        "flaw-no-alloc", "nu-no-coalition", "x-too-short", "no-negative-path",
        "no-negative-cycle", "cut-violated", "random-to-file", "constraints-square"])
def test_exit_code_contract(capsys, tmp_path, monkeypatch, argv, code, text, broken):
    # an error prints nothing on stdout and one "error:" (or "internal
    # error:") line on stderr; a result prints on stdout only
    from corematch import separation
    from corematch.model import InvariantError

    (tmp_path / "neg.costs").write_text(COSTS)
    (tmp_path / "pos.costs").write_text(COSTS.replace("-3", "3"))
    (tmp_path / "x2.vec").write_text("1\n1\n")
    (tmp_path / "x511.vec").write_text("5\n1\n1\n")
    if broken:
        def failing(*args, **kwargs):
            raise InvariantError("stage failed")

        monkeypatch.setattr(separation, "separate_cycles", failing)
    text = text.format(tmp=tmp_path)
    got, out, err = run(capsys, *(a.format(data=DATA, tmp=tmp_path) for a in argv))
    assert got == code
    if code in (cli.EXIT_USAGE, cli.EXIT_FILE, cli.EXIT_INVARIANT):
        assert out == "" and err.startswith(text) and err.count("\n") == 1
    else:
        assert out.startswith(text) and err == ""


@pytest.mark.parametrize("kind, text, message", [
    ("game", "game 2 1\nvertex 0 2\nvertex 1 2\nedge 0 1\n",
     "line 4: expected 'edge <u> <v> <w>'"),
    ("game", "# comments only\n", "empty instance file"),
    ("game", "game 0 0\n", "line 1: instance needs at least one vertex"),
    ("game", "game 2 1\nvertex 0 2\nvertex 1 2\n", "expected 2 vertex and 1 edge lines, found 2"),
    ("game", "game 2 0\nvertex 0\nvertex 1 2\n", "line 2: expected 'vertex <id> <b>'"),
    ("game", "game 2 0\nvertex 0 2\nvertex 2 2\n", "line 3: vertex id 2 out of range"),
    ("alloc", "0 0 1\n1 1\n2 1\n3 1\n", "line 1: expected '<id> <rational>'"),
    ("costs", "costs 3 2\nedge 0 1 1\n", "expected 2 edge lines, found 1"),
    ("costs", "", "empty cost-graph file"),
], ids=["edge-3-fields", "comments-only", "no-vertex", "line-count", "vertex-2-fields",
        "vertex-id-n", "alloc-3-fields", "costs-line-count", "costs-empty"])
def test_parser_grammar_errors_exit_3(capsys, tmp_path, kind, text, message):
    bad = tmp_path / f"bad.{kind}"
    bad.write_text(text, encoding="utf-8")
    argv = {
        "game": ["value", "-i", str(bad)],
        "alloc": ["check", "-i", str(DATA / "square.game"), "-a", str(bad)],
        "costs": ["oracle", "negcycle", "-c", str(bad)],
    }[kind]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (3, "", f"error: {message}\n")
