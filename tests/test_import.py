"""`import corematch` loads no code that its queries do not run."""

import pathlib
import subprocess
import sys

import pytest

import corematch
from corematch import model

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
DATA = SRC.parent / "data"

# dataclasses (with inspect, which it imports) would generate and exec
# methods for each class at import; the brute-force desk oracles and
# networkx serve only the CLI's oracle commands and the tests; the extended
# formulation, its LP stack and the flawed replication load on first use;
# the CLI loads only when it runs
UNLOADED = ("dataclasses", "inspect", "corematch.oracle", "networkx", "corematch.linsys",
            "corematch.extform", "corematch.flawed", "corematch.cli")
# the separation core, which the package imports to export its names
SEPARATION = ("_edmonds", "matching", "model", "negcycle", "separation")


def fresh(code: str, *args: str) -> str:
    """Stdout of `code` in a fresh `python -S` interpreter with src/ first
    on its path."""
    probe = "import sys; sys.path.insert(0, sys.argv[1])\n" + code
    out = subprocess.run([sys.executable, "-S", "-c", probe, str(SRC), *args],
                         capture_output=True, text=True, check=True, timeout=120)
    return out.stdout


def test_import_loads_no_dataclass_machinery_oracle_or_networkx():
    code = f"import corematch\nprint(*(m for m in {UNLOADED!r} if m in sys.modules))"
    assert fresh(code).split() == []


def test_import_loads_exactly_the_separation_core():
    code = "import corematch\nprint(*sorted(m for m in sys.modules if m.startswith('corematch')))"
    assert fresh(code).split() == ["corematch", *(f"corematch.{m}" for m in SEPARATION)]


def test_lazy_submodules_and_star_import_resolve_in_a_fresh_interpreter():
    code = (
        "import corematch\n"
        "print(corematch.extform.__name__, corematch.linsys.__name__, corematch.flawed.__name__)\n"
    )
    assert fresh(code).split() == ["corematch.extform", "corematch.linsys", "corematch.flawed"]
    code = (
        "from corematch import *\n"
        "import corematch\n"
        "print(*(n for n in corematch.__all__ if globals()[n] is not getattr(corematch, n)))\n"
    )
    assert fresh(code).split() == []


def test_every_public_name_is_its_defining_modules_own_object():
    wrong = []
    for name in corematch.__all__:
        value = getattr(corematch, name)
        home = getattr(value, "__module__", "")
        module = sys.modules[home] if home.startswith("corematch.") else model  # Rational
        if getattr(module, name) is not value:
            wrong.append(name)
    assert wrong == []


def test_dir_lists_every_public_name_and_an_unknown_name_raises():
    assert set(corematch.__all__) <= set(dir(corematch))
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        corematch.no_such_name


# (argv, the corematch modules the command loads, besides the package and cli)
COMMANDS = [
    (["value", "-i", "{data}/path.game"], SEPARATION),
    (["check", "-i", "{data}/path.game", "-a", "{data}/path-core.alloc"], SEPARATION),
    (["separate", "-i", "{data}/path.game", "-a", "{data}/path-core.alloc"], SEPARATION),
    (["separate", "--all", "-i", "{data}/square.game", "-a", "{data}/square-low.alloc"],
     SEPARATION),
    (["random", "--seed", "1", "--n", "4"], SEPARATION),
    (["extform", "-i", "{data}/square.game", "--size"], SEPARATION + ("extform", "linsys")),
    (["flaw", "-i", "{data}/counterexample.game", "-a", "{data}/counterexample.alloc"],
     SEPARATION + ("flawed",)),
]


@pytest.mark.parametrize("argv, loaded", COMMANDS, ids=[" ".join(c[0][:2]) for c in COMMANDS])
def test_cli_command_loads_only_what_it_runs(argv, loaded):
    code = (
        "from corematch import cli\n"
        "cli.main(sys.argv[2:])\n"
        "print('loaded:', *sorted(m for m in sys.modules if m.startswith('corematch.')))\n"
    )
    out = fresh(code, *(a.format(data=DATA) for a in argv))
    last = out.splitlines()[-1].split()
    assert last[0] == "loaded:"
    assert sorted(last[1:]) == sorted(f"corematch.{m}" for m in loaded + ("cli",))
