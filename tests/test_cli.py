import hashlib
import pathlib

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
]

GOLDEN_EMIT = {
    "counterexample.game": "0f9a035e64d0095fcd60589370b92502ad803e737f20f7f352e6198d88e857d6",
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


def test_file_error_exit_code(capsys):
    code, _, err = run(capsys, "value", "-i", "/nonexistent/file.game")
    assert code == 3 and "error" in err


def test_format_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.game"
    bad.write_text("game 1 0\nvertex 0 7\n")
    code, _, err = run(capsys, "value", "-i", str(bad))
    assert code == 3 and "capacity out of range" in err


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
