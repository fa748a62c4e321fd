"""The exit-code contract under mutated input files: every subcommand that
reads a file, fed a mutated copy of a data/ game or allocation (or of a
small costed graph and x-vector), exits with a code README lists, lets no
exception escape `cli.main`, and prints nothing on stdout when it fails."""

import contextlib
import io
import pathlib

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from corematch import cli

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"
COSTS = b"costs 3 3\nedge 0 1 -3\nedge 1 2 1\nedge 0 2 1\n"
XVECTOR = b"5\n1\n1\n"

# (file kind, argv); the keys of PATHS stand for the files in argv
PATHS = {"GAME": "game", "ALLOC": "alloc", "COSTS": "costs", "XVEC": "xvec", "LP": "out.lp"}
COMMANDS = [
    ("game", ["value", "-i", "GAME"]),
    ("game", ["extform", "-i", "GAME", "--size"]),
    ("game", ["extform", "-i", "GAME", "--emit", "LP"]),
    ("game", ["oracle", "nu", "-i", "GAME", "-S", "0,1"]),
    ("game", ["oracle", "constraints", "-i", "GAME"]),
] + [
    (kind, argv)
    for kind in ("game", "alloc")
    for argv in (
        ["check", "-i", "GAME", "-a", "ALLOC"],
        ["separate", "-i", "GAME", "-a", "ALLOC"],
        ["separate", "--all", "-i", "GAME", "-a", "ALLOC"],
        ["extform", "-i", "GAME", "--check", "-a", "ALLOC"],
        ["flaw", "-i", "GAME", "-a", "ALLOC"],
        ["oracle", "core-check", "-i", "GAME", "-a", "ALLOC"],
        ["oracle", "constraint-check", "-i", "GAME", "-a", "ALLOC"],
    )
] + [
    ("costs", ["oracle", "negcycle", "-c", "COSTS"]),
    ("costs", ["oracle", "cut-check", "-c", "COSTS", "-x", "XVEC"]),
    ("xvec", ["oracle", "cut-check", "-c", "COSTS", "-x", "XVEC"]),
]

# each game with each of its allocations
PAIRS = [
    (game.read_bytes(), alloc.read_bytes())
    for game in sorted(DATA.glob("*.game"))
    for alloc in sorted(DATA.glob(f"{game.stem}*.alloc"))
]

STRAY = [b"x", b"-", b"+", b"/", b"1/0", b"#", b"edge", b"vertex 0 1", b"game 1 0",
         b"0", b"-1", b"1/2", b"\t", b"\xc3\xa9", b"\x00", b"\n", b" 7"]


@st.composite
def mutated(draw, data: bytes) -> bytes:
    """`data` after one to three mutations: a byte flip, a truncation, CRLF
    line ends, a BOM, a huge numerator in place of a number, or a stray
    token."""
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["flip", "truncate", "crlf", "bom", "huge", "stray"]))
        at = draw(st.integers(0, len(data)))
        if kind == "flip" and data:
            at = min(at, len(data) - 1)
            data = data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1:]
        elif kind == "truncate":
            data = data[:at]
        elif kind == "crlf":
            data = data.replace(b"\n", b"\r\n")
        elif kind == "bom":
            data = b"\xef\xbb\xbf" + data
        elif kind == "huge":
            digits = draw(st.sampled_from([20, 400, 2000, 4301, 6000]))
            numbers = [k for k in range(len(data)) if data[k:k + 1].isdigit()]
            k = numbers[at % len(numbers)] if numbers else at
            data = data[:k] + b"9" * digits + data[k + 1:]
        else:
            data = data[:at] + draw(st.sampled_from(STRAY)) + data[at:]
    return data


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(st.sampled_from(COMMANDS), st.sampled_from(PAIRS), st.data())
def test_mutated_files_keep_the_exit_code_contract(fuzz_dir, command, pair, data):
    kind, argv = command
    files = {"game": pair[0], "alloc": pair[1], "costs": COSTS, "xvec": XVECTOR}
    files[kind] = data.draw(mutated(files[kind]), label=kind)
    for name, text in files.items():
        (fuzz_dir / name).write_bytes(text)
    argv = [str(fuzz_dir / PATHS[a]) if a in PATHS else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)  # an exception here is a traceback in the shell
    # README's exit codes, less 5: a failed exactness check is a bug, and
    # a file, however malformed, is a format error (3), not a usage error (2)
    assert code in (cli.EXIT_OK, cli.EXIT_VIOLATED, cli.EXIT_FILE, cli.EXIT_GUARD), err.getvalue()
    if code in (cli.EXIT_FILE, cli.EXIT_GUARD):
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        assert out.getvalue() and err.getvalue() == ""
