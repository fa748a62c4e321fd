import hashlib
import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from corematch import cli, model
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


COSTS = "costs 3 3\nedge 0 1 -3\nedge 1 2 1\nedge 0 2 1\n"


def contract_commands() -> list[str]:
    """The CLI byte contract: every command whose exit code, stdout, stderr
    and LP file must not change under `python -O` with networkx blocked.
    {data} stands for data/ and {tmp} for the directory that the `contract`
    fixture fills; a new subcommand joins by one entry here."""
    commands = [
        "flaw",
        "random --seed 7 --n 6 --density 1/2",
        # the costed-graph commands: a negative cycle, an x-vector on which
        # the cut system holds and one with a negative entry, a format error
        "oracle negcycle -c {tmp}/neg.costs",
        "oracle cut-check -c {tmp}/neg.costs -x {tmp}/holds.vec",
        "oracle cut-check -c {tmp}/neg.costs -x {tmp}/negative.vec",
        # value, check and separate at the gadget sizes of one-shot use: the
        # all-zero allocation stops at the total value (kind=TotalValue), the
        # egalitarian one, p_v = nu(N)/40, at the cycle stage (kind=Cycle)
        "value -i {tmp}/random40.game",
        *(f"{cmd} -i {{tmp}}/random40.game -a {{tmp}}/{alloc}40.alloc"
          for alloc in ("zero", "egal") for cmd in ("check", "separate")),
        # a formulation of 16 480 rows, past the data/ games
        "extform -i {tmp}/random10.game --emit {tmp}/core.lp",
    ]
    for game in sorted(DATA.glob("*.game")):
        g = "{data}/" + game.name
        commands += [f"value -i {g}", f"oracle nu -i {g} -S 0,1", f"extform -i {g} --size",
                     f"extform -i {g} --emit {{tmp}}/core.lp", f"oracle constraints -i {g}"]
        for alloc in sorted(DATA.glob(game.stem + "*.alloc")):
            ga = f"-i {g} -a {{data}}/{alloc.name}"
            commands += [f"check {ga}", f"separate {ga}", f"separate --all {ga}",
                         f"extform --check {ga}", f"flaw {ga}", f"oracle core-check {ga}",
                         f"oracle constraint-check {ga}"]
    return commands


CONTRACT = contract_commands()

# The exit code and the SHA-256 of the exact stdout or, for a command that
# writes {tmp}/core.lp, of that file; any byte change in verdicts,
# certificates, scan order, size tallies or LP text shows up here.
GOLDEN = {
    "separate -i {data}/counterexample.game -a {data}/counterexample.alloc": (
        0, "c09c1ef51bad88d17e91d48ed3f2c1082fe894085aa08f8460c1bd342dcb3307"),
    "separate -i {data}/square.game -a {data}/square-low.alloc": (
        10, "c338c6367750b3a1e1594203fea1abc00cf7e0772bc49460737af8132084660f"),
    # each violation once: the cycle stage's Cycle is not repeated by the
    # endpoint variants that contain it
    "separate --all -i {data}/square.game -a {data}/square-low.alloc": (
        10, "452e86dfb3fe1ecbffa1b397654959cefd3c499a739ff98eb2c9e2a8c242becb"),
    "extform -i {data}/counterexample.game --size": (
        0, "ef69be1bc3925cb2a99b8322160c5b6ba7d78b6a6978d44754aa126bb3cb79ed"),
    "extform -i {data}/square.game --size": (
        0, "10ef7e599b984e01f4c9ba915db42a4e78601c2c4fbec56a95e772ffd8f428c1"),
    "check -i {data}/path.game -a {data}/path-core.alloc": (
        0, "c09c1ef51bad88d17e91d48ed3f2c1082fe894085aa08f8460c1bd342dcb3307"),
    # a Path certificate whose witness holds the kept edges at both
    # capacity-1 ends: edge 0 before G2's edges 1, 2, 3, 6 and edge 7 after
    # them
    "separate -i {data}/path.game -a {data}/path-low.alloc": (
        10, "e9152cfecfd4e4f9323fae2078fd542224cc0477e62861d225c139900ae661fd"),
    "separate --all -i {data}/path.game -a {data}/path-low.alloc": (
        10, "819afee2de23d1d806a350b56cad88b717494213c93a8035b606dbbb5abab5a4"),
    "check -i {data}/path.game -a {data}/path-low.alloc": (
        10, "50a04870cd39404e868fb68bb45a552a623b625fe8f4b450852d3c4597763357"),
    "extform -i {data}/path.game --size": (
        0, "671cb0841e08dea3451da8760d6cd67b1f467e689cc22f3f3b9771da0af0fc41"),
    # IN_CORE: one edge, and p pays it in full
    "check -i {data}/one-edge.game -a {data}/one-edge.alloc": (
        0, "c09c1ef51bad88d17e91d48ed3f2c1082fe894085aa08f8460c1bd342dcb3307"),
    # the legacy scan rejects it all the same: NEGATIVE_PATH (0,1,0,1)
    # weight -10 k=3, a walk that runs the one edge three times
    "flaw -i {data}/one-edge.game -a {data}/one-edge.alloc": (
        10, "8e3c74452e021d42a2d7eedf60138df08c0439bc65e30fdc1c33cbfce2e3f37e"),
    "extform -i {data}/counterexample.game --emit {tmp}/core.lp": (
        0, "0f9a035e64d0095fcd60589370b92502ad803e737f20f7f352e6198d88e857d6"),
    "extform -i {data}/path.game --emit {tmp}/core.lp": (
        0, "1ee6731e6f060440c122e2718eb5b5ee67160d04762af3703be01c38ba9aa662"),
    "extform -i {data}/square.game --emit {tmp}/core.lp": (
        0, "e6ea292e605fb10a46c0038007243b4a90241ea1af589afd1341c7bed04f6648"),
    "extform -i {tmp}/random10.game --emit {tmp}/core.lp": (
        0, "18b51c19dfee276f5cd56f5fd6b05fdad8ed8ecc24bf12fc58d9ee824c4ff4e1"),
    "oracle negcycle -c {tmp}/neg.costs": (
        10, "478791910552db9f5298fa82405edaf9357531e5675ec9caa18aff7c418504ba"),
}

# Run each command of the JSON list sys.argv[2] as `python -m corematch.cli`
# runs it, in an interpreter in which `import networkx` fails, and print per
# command its exit code, stdout, stderr and the SHA-256 of the LP file
# sys.argv[1], which is removed before each command (None if none is written).
WITHOUT_NETWORKX = """
import contextlib, hashlib, io, json, os, runpy, sys
sys.modules["networkx"] = None
lp, runs = sys.argv[1], []
for argv in json.loads(sys.argv[2]):
    sys.argv = ["corematch", *argv]
    out, err, code, digest = io.StringIO(), io.StringIO(), None, None
    if os.path.exists(lp):
        os.remove(lp)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            runpy.run_module("corematch.cli", run_name="__main__")
        except SystemExit as exc:
            code = exc.code
    if os.path.exists(lp):
        with open(lp, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
    runs.append([code, out.getvalue(), err.getvalue(), digest])
print(json.dumps(runs))
"""


def run_fresh(code, *args):
    """Run `code` in a fresh interpreter under python -O (asserts stripped)."""
    env = dict(os.environ)
    src = str(DATA.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-O", "-c", code, *args], capture_output=True,
                          text=True, env=env, timeout=120, check=True)


def contract_argv(command: str, tmp: pathlib.Path) -> list[str]:
    return [a.format(data=DATA, tmp=tmp) for a in command.split()]


@pytest.fixture(scope="module")
def contract(tmp_path_factory):
    """The {tmp} directory, filled with the contract's input files, and each
    command's run under WITHOUT_NETWORKX, by command."""
    assert GOLDEN.keys() <= set(CONTRACT)  # every pin is checked
    tmp = tmp_path_factory.mktemp("contract")
    big = model.random_instance(7, 40, Fraction(1, 2), 10)
    inputs = {
        "neg.costs": COSTS,
        "holds.vec": "1\n1\n1\n",
        "negative.vec": "1\n# comment\n-1\n1\n",
        "random40.game": model.emit_instance(big),
        "zero40.alloc": "".join(f"{v} 0\n" for v in range(40)),
        "egal40.alloc": "".join(f"{v} {big.grand_value / 40}\n" for v in range(40)),
        "random10.game": model.emit_instance(model.random_instance(4, 10, Fraction(1, 2), 10)),
    }
    for name, text in inputs.items():
        (tmp / name).write_text(text)
    argvs = [contract_argv(command, tmp) for command in CONTRACT]
    runs = run_fresh(WITHOUT_NETWORKX, str(tmp / "core.lp"), json.dumps(argvs))
    return tmp, dict(zip(CONTRACT, json.loads(runs.stdout)))


@pytest.mark.parametrize("command", CONTRACT)
def test_cli_contract(capsys, contract, command):
    # in-process with asserts on, against python -O with networkx blocked:
    # the same exit code, stdout, stderr and LP bytes, and the pin if any
    tmp, optimized = contract
    lp = tmp / "core.lp"
    lp.unlink(missing_ok=True)
    code, out, err = run(capsys, *contract_argv(command, tmp))
    digest = hashlib.sha256(lp.read_bytes()).hexdigest() if lp.exists() else None
    if command in GOLDEN:
        pinned = digest if "--emit" in command else hashlib.sha256(out.encode()).hexdigest()
        assert (code, pinned) == GOLDEN[command]
    assert [code, out, err, digest] == optimized[command]


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
    (["flaw", "-a", "{data}/square-core.alloc"], 3, "error: flaw --alloc requires --instance",
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
    (["oracle", "cut-check", "-c", "{tmp}/none.costs", "-x", "{tmp}/x0.vec"], 0, "HOLDS\n",
     False),
    (["random", "--seed", "7", "--n", "6", "-o", "{tmp}/r.game"], 0,
     "wrote {tmp}/r.game (6 vertices, 10 edges)\n", False),
    (["oracle", "constraints", "-i", "{data}/square.game"], 0, "cycles: 1\n  C 0-1-2-3\n",
     False),
    # extform rejects its flags and reads --alloc before it prints or writes
    (["extform", "-i", "{data}/square.game", "--size", "--check"], 3,
     "error: --check requires --alloc", False),
    (["extform", "-i", "{data}/square.game", "--emit", "{tmp}/out.lp", "--check"], 3,
     "error: --check requires --alloc", False),
    (["extform", "-i", "{data}/square.game", "--size", "--check", "-a", "{tmp}/bad.alloc"], 3,
     "error: line 1: expected '<id> <rational>'", False),
    (["extform", "-i", "{data}/square.game", "--size", "--emit", "{tmp}/missing/out.lp"], 3,
     "error: [Errno 2] No such file or directory", False),
    (["extform", "-i", "{data}/square.game", "--size", "--emit", "{tmp}"], 3,
     "error: [Errno 21] Is a directory", False),
], ids=["n-0", "density-2", "wmax-negative", "invariant", "coalition-9", "extform-no-mode",
        "flaw-no-alloc", "flaw-alloc-no-instance", "nu-no-coalition", "x-too-short",
        "no-negative-path", "no-negative-cycle", "cut-violated", "cut-no-vertices",
        "random-to-file",
        "constraints-square", "extform-size-check-no-alloc", "extform-emit-check-no-alloc",
        "extform-size-check-bad-alloc", "extform-size-emit-missing-dir",
        "extform-size-emit-directory"])
def test_exit_code_contract(capsys, tmp_path, monkeypatch, argv, code, text, broken):
    # an error prints nothing on stdout, writes no LP file and prints one
    # "error:" (or "internal error:") line on stderr; a result prints on
    # stdout only
    from corematch import separation
    from corematch.model import InvariantError

    (tmp_path / "neg.costs").write_text(COSTS)
    (tmp_path / "pos.costs").write_text(COSTS.replace("-3", "3"))
    (tmp_path / "x2.vec").write_text("1\n1\n")
    (tmp_path / "x511.vec").write_text("5\n1\n1\n")
    (tmp_path / "none.costs").write_text("costs 0 0\n")
    (tmp_path / "x0.vec").write_text("")
    (tmp_path / "bad.alloc").write_text("0 0 1\n")
    if broken:
        def failing(*args, **kwargs):
            raise InvariantError("stage failed")

        monkeypatch.setattr(separation, "separate_cycles", failing)
    text = text.format(tmp=tmp_path)
    got, out, err = run(capsys, *(a.format(data=DATA, tmp=tmp_path) for a in argv))
    assert got == code
    if code in (cli.EXIT_USAGE, cli.EXIT_FILE, cli.EXIT_INVARIANT):
        assert out == "" and err.startswith(text) and err.count("\n") == 1
        assert not list(tmp_path.glob("*.lp"))
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
