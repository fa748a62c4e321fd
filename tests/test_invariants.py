"""Internal exactness checks stay on under `python -O` and map to exit 5."""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# Break the T-join path expansion so the parity check must fire.
BREAK = "from corematch import negcycle\nnegcycle._path_edges = lambda g, pred, a, b: set()\n"


def run_optimized(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-O", "-c", BREAK + code, *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_invariant_raises_under_dash_o():
    out = run_optimized(
        "from fractions import Fraction\n"
        "from corematch.model import InvariantError\n"
        "from corematch.negcycle import CostEdge, CostedGraph\n"
        "assert False, 'asserts must be stripped here'\n"
        "g = CostedGraph((0, 1, 2), (CostEdge(0, 1, Fraction(1)), CostEdge(1, 2, Fraction(1))))\n"
        "try:\n"
        "    negcycle.min_t_join(g, [1, 1], [0, 2])\n"
        "except InvariantError as exc:\n"
        "    print('raised:', exc)\n"
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "raised: T-join parity broken\n"


def test_cli_exits_5_without_traceback(tmp_path):
    # the capacity-2 edge 2-3 gets a negative transfer cost, so the cycle
    # stage runs a T-join on T = {2, 3}
    alloc = tmp_path / "path.alloc"
    alloc.write_text("0 0\n1 0\n2 1\n3 11\n4 0\n")
    game = SRC.parent / "data" / "counterexample.game"
    out = run_optimized(
        "import sys\nfrom corematch import cli\nsys.exit(cli.main(sys.argv[1:]))\n",
        "separate", "-i", str(game), "-a", str(alloc),
    )
    assert out.returncode == 5
    assert out.stdout == ""
    assert "T-join parity broken" in out.stderr
    assert "Traceback" not in out.stderr


def test_bad_simplex_witness_raises_under_dash_o():
    out = run_optimized(
        "from fractions import Fraction\n"
        "from corematch import linsys\n"
        "from corematch.model import InvariantError\n"
        "assert False, 'asserts must be stripped here'\n"
        "s = linsys.ConstraintSystem(variables=['x', 'y'])\n"
        "s.add_constraint('c0', {'x': 1, 'y': 1}, '=', 1)\n"
        "s.add_constraint('c1', {'x': 1}, '>=', 0)\n"
        "print(linsys.simplex_feasible(s).status)\n"
        "# x + y = 2 breaks the row c0\n"
        "linsys._Tableau.witness = lambda self: {'x': Fraction(1), 'y': Fraction(1)}\n"
        "try:\n"
        "    linsys.simplex_feasible(s)\n"
        "except InvariantError as exc:\n"
        "    print('raised:', exc)\n"
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "feasible\nraised: simplex witness failed re-verification\n"
