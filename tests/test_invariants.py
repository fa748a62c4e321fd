"""Internal exactness checks stay on under `python -O` and map to exit 5."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# Break the T-join path expansion so the parity check must fire.
BREAK = "from corematch import negcycle\nnegcycle._path_edges = lambda g, pred, a, b: set()\n"


def run_optimized(code: str, *args: str, prelude: str = BREAK) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-O", "-c", prelude + code, *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_src_has_no_assert_statements():
    # `python -O` strips asserts, so every exactness check must be a raise
    found = []
    for path in sorted((SRC / "corematch").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not found, found


def test_src_imports_only_names_it_uses():
    # an import left behind by a removal is dead code that still loads; the
    # tests are read too (perfbench/ is the benchmark's own code)
    found = []
    paths = sorted((SRC / "corematch").rglob("*.py")) + sorted((SRC.parent / "tests").glob("*.py"))
    for path in paths:
        if path.name == "__init__.py":
            continue  # the package imports the core's names only to export them
        nodes = list(ast.walk(ast.parse(path.read_text(), str(path))))
        used = {node.id for node in nodes if isinstance(node, ast.Name)}
        for node in nodes:
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                                and node.module != "__future__"):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in used:
                        found.append(f"{path.relative_to(SRC.parent)}:{node.lineno} {name}")
    assert not found, found


def test_invariant_raises_under_dash_o():
    out = run_optimized(
        "from fractions import Fraction\n"
        "from corematch.model import InvariantError\n"
        "from corematch.negcycle import CostEdge, CostedGraph\n"
        "assert False, 'asserts must be stripped here'\n"
        "g = CostedGraph((0, 1, 2), (CostEdge(0, 1, Fraction(1)), CostEdge(1, 2, Fraction(1))))\n"
        "try:\n"
        "    negcycle.min_t_join(g, [0, 2])\n"
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
        "# x + y = 2 breaks the row c0 (a witness is keyed by column: x, y)\n"
        "linsys._Tableau.witness = lambda self: {0: Fraction(1), 1: Fraction(1)}\n"
        "try:\n"
        "    linsys.simplex_feasible(s)\n"
        "except InvariantError as exc:\n"
        "    print('raised:', exc)\n"
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "feasible\nraised: simplex witness failed re-verification\n"


def test_bad_membership_witness_raises_under_dash_o():
    # check_membership solves each dual block from its indexed form and
    # makes no named witness, but still re-verifies the tableau's point;
    # every block of the counterexample at its core allocation has a cost
    # row with a negative rhs, so each one reaches the tableau
    out = run_optimized(
        "from corematch import extform, linsys, parse_instance\n"
        "from corematch.model import Allocation, InvariantError\n"
        "assert False, 'asserts must be stripped here'\n"
        "inst = parse_instance('game 5 4\\n' + ''.join(f'vertex {v} {b}\\n' for v, b in enumerate((1, 1, 2, 2, 1)))\n"
        "    + 'edge 0 2 1\\nedge 1 2 1\\nedge 2 3 10\\nedge 3 4 1\\n')\n"
        "p = Allocation((0, 0, 2, 10, 0))\n"
        "print(extform.check_membership(inst, p))\n"
        "# the last column of a block with edges is a lam, which is >= 0\n"
        "real = linsys._Tableau.witness\n"
        "def negated(self):\n"
        "    point = real(self)\n"
        "    point[self.cols[-1][0]] = -1\n"
        "    return point\n"
        "linsys._Tableau.witness = negated\n"
        "try:\n"
        "    extform.check_membership(inst, p)\n"
        "except InvariantError as exc:\n"
        "    print('raised:', exc)\n"
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "True\nraised: simplex witness failed re-verification\n"


def test_bad_slack_point_raises_under_dash_o():
    # every block of the 4-cycle at p = (1, 1, 1, 1) has only "<=" rows with
    # rhs >= 0, so its point is the origin and no tableau is built; a
    # corrupted origin is still re-verified
    out = run_optimized(
        "from corematch import extform, linsys, parse_instance\n"
        "from corematch.model import Allocation, InvariantError\n"
        "assert False, 'asserts must be stripped here'\n"
        "inst = parse_instance('game 4 4\\n' + ''.join(f'vertex {v} 2\\n' for v in range(4))\n"
        "    + 'edge 0 1 1\\nedge 1 2 1\\nedge 2 3 1\\nedge 3 0 1\\n')\n"
        "p = Allocation((1, 1, 1, 1))\n"
        "linsys._Tableau = None\n"
        "print(extform.check_membership(inst, p))\n"
        "# the last column of a block with edges is a lam, which is >= 0\n"
        "real = linsys._slack_point\n"
        "linsys._slack_point = lambda lp: None if real(lp) is None else {lp.ncols - 1: -1}\n"
        "try:\n"
        "    extform.check_membership(inst, p)\n"
        "except InvariantError as exc:\n"
        "    print('raised:', exc)\n"
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "True\nraised: simplex witness failed re-verification\n"


def test_gadget_identity_raises_under_dash_o():
    # K4 with every capacity 2: a best b-matching is a 4-cycle, so the two
    # unused edges each leave their gadget's middle edge e_u - e_v matched.
    # Dropping one of those (weight 1) from the blossom's matching breaks
    # maxWeight(G*) = w(E22) + nu.
    out = run_optimized(
        "from corematch import matching, parse_instance\n"
        "from corematch.model import InvariantError\n"
        "assert False, 'asserts must be stripped here'\n"
        "inst = parse_instance('game 4 6\\n' + ''.join(f'vertex {v} 2\\n' for v in range(4))\n"
        "    + 'edge 0 1 1\\nedge 0 2 1\\nedge 0 3 1\\nedge 1 2 1\\nedge 1 3 1\\nedge 2 3 1\\n')\n"
        "print(matching.b_matching_value(inst))\n"
        "real = matching.warm_matched_edges\n"
        "def corrupted(edges, int_weights):\n"
        "    matched = real(edges, int_weights)\n"
        "    # nodes 0..7 are the vertex copies, 8 and up the gadget nodes\n"
        "    middle = [k for k in matched if min(edges[k]) >= 8 and int_weights[k] > 0]\n"
        "    matched.remove(middle[0])\n"
        "    return matched\n"
        "matching.warm_matched_edges = corrupted\n"
        "try:\n"
        "    matching.b_matching_value(inst)\n"
        "except InvariantError as exc:\n"
        "    print('raised:', exc)\n"
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "4\nraised: gadget identity violated\n"


# Find no negative cycle in any variant (the graphs with a synthetic st edge),
# so a variant that the G2-distance test flags yields no violated path.
NO_VARIANT_CYCLES = (
    "from corematch import negcycle, separation\n"
    "real = negcycle.find_negative_cycle\n"
    "negcycle.find_negative_cycle = (\n"
    "    lambda g: None if any(e.orig is None for e in g.edges) else real(g))\n"
)


def test_flagged_pair_without_a_path_raises_under_dash_o(tmp_path):
    # on the counterexample, p = (0, 0, 1, 11, 0) passes the total value, the
    # edges and the cycles and violates the path 0-2-1, so the filter flags
    # a variant of pair {0, 1}
    out = run_optimized(
        "from corematch import flawed\n"
        "from corematch.model import Allocation, InvariantError\n"
        "assert False, 'asserts must be stripped here'\n"
        "inst = flawed.counterexample_instance()\n"
        "try:\n"
        "    separation.separate(inst, Allocation((0, 0, 1, 11, 0)))\n"
        "except InvariantError as exc:\n"
        "    print('raised:', exc)\n",
        prelude=NO_VARIANT_CYCLES,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "raised: flagged variant holds no negative cycle\n"

    alloc = tmp_path / "path.alloc"
    alloc.write_text("0 0\n1 0\n2 1\n3 11\n4 0\n")
    game = SRC.parent / "data" / "counterexample.game"
    out = run_optimized(
        "import sys\nfrom corematch import cli\nsys.exit(cli.main(sys.argv[1:]))\n",
        "separate", "-i", str(game), "-a", str(alloc), prelude=NO_VARIANT_CYCLES,
    )
    assert out.returncode == 5
    assert out.stdout == ""
    assert "flagged variant holds no negative cycle" in out.stderr
    assert "Traceback" not in out.stderr



# Corrupt the blossom engine's final state just before its certificate check,
# at the matched vertex v with the largest dual: lower that dual by 2 (an edge
# at v gets negative slack), raise it by 2 (v's matched edge is no longer
# tight), or unmatch v and its mate (v is single with a positive dual). Each
# entry holds the corrupting lines and the check that fails on the path
# 0-1-2-3 with weights 3, 5, 3.
CORRUPTIONS = {
    "lower_dual": ("    dualvar[v] -= 2\n", "negative edge slack"),
    "raise_dual": ("    dualvar[v] += 2\n", "matched edge not tight"),
    "unmatch": ("    mate[mate[v]] = -1\n    mate[v] = -1\n", "single vertex with nonzero dual"),
}


def corrupt_certificate(how: str) -> str:
    return (
        "from corematch import _edmonds\n"
        "real = _edmonds.verify_optimum\n"
        "def corrupted(endpoint, w2, mate, dualvar, *rest):\n"
        "    v = max((d, i) for i, d in enumerate(dualvar) if mate[i] != -1)[1]\n"
        + CORRUPTIONS[how][0]
        + "    real(endpoint, w2, mate, dualvar, *rest)\n"
    )


# The solve on the path under each start: the cold and the warm one.
SOLVES = {
    "cold": "_edmonds.matched_edges(path, [3, 5, 3], False)",
    "warm": "_edmonds.warm_matched_edges(path, [3, 5, 3])",
}


@pytest.mark.parametrize("how, start", [
    pytest.param(how, start, id=how if start == "cold" else f"{how}-{start}")
    for start in SOLVES for how in sorted(CORRUPTIONS)
])
def test_blossom_certificate_raises_under_dash_o(how, start):
    out = run_optimized(
        "from corematch.model import InvariantError\n"
        "assert False, 'asserts must be stripped here'\n"
        "path = [(0, 1), (1, 2), (2, 3)]\n"
        f"print({SOLVES[start]})\n"
        "_edmonds.verify_optimum = corrupted\n"
        "try:\n"
        f"    {SOLVES[start]}\n"
        "except InvariantError as exc:\n"
        "    print('raised:', exc)\n",
        prelude=corrupt_certificate(how),
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == f"[0, 2]\nraised: blossom optimum: {CORRUPTIONS[how][1]}\n"


@pytest.mark.parametrize("how", sorted(CORRUPTIONS))
def test_cli_value_exits_5_on_a_broken_certificate(how):
    game = SRC.parent / "data" / "counterexample.game"
    out = run_optimized(
        "_edmonds.verify_optimum = corrupted\n"
        "import sys\nfrom corematch import cli\nsys.exit(cli.main(sys.argv[1:]))\n",
        "value", "-i", str(game), prelude=corrupt_certificate(how),
    )
    assert out.returncode == 5
    assert out.stdout == ""
    assert "internal error: blossom optimum: " in out.stderr
    assert "Traceback" not in out.stderr


# A graph on 7 vertices whose final state, from either start, nests three
# blossoms: one of positive dual inside one of dual 0 inside one of positive
# dual. The certificate check walks only the positive-dual blossoms holding
# an edge, so each corruption of the inner positive-dual blossom b must still
# fail: raising its dual by 1 (the matched edge inside is no longer tight),
# lowering it by 1 (a tight edge inside gets negative slack), or unmatching
# the matched edge inside (its ends are single with positive duals).
NESTED = ("[(0, 3), (0, 4), (1, 4), (1, 5), (1, 6), (2, 4), (2, 5), (3, 4), (3, 5), (4, 6)], "
          "[3, 3, 6, 6, 6, 5, 6, 5, 1, 6]")
BLOSSOM_CORRUPTIONS = {
    "raise_blossom_dual": ("        blossomdual[b] += 1\n", "matched edge not tight"),
    "lower_blossom_dual": ("        blossomdual[b] -= 1\n", "negative edge slack"),
    "unmatch_inside": ("        d = blossomedges[b][1]\n"
                       "        mate[endpoint[d]] = mate[endpoint[d ^ 1]] = -1\n",
                       "single vertex with nonzero dual"),
}


def corrupt_blossom(how: str) -> str:
    return (
        "from corematch import _edmonds\n"
        "real = _edmonds.verify_optimum\n"
        "CORRUPT = False\n"
        "def corrupted(endpoint, w2, mate, dualvar, blossomdual, blossomparent,\n"
        "              blossomedges, live, maxcardinality):\n"
        "    b = next(b for b in live if blossomdual[b] > 0 and blossomparent[b] != -1\n"
        "             and blossomdual[blossomparent[b]] == 0)\n"
        "    print('positive dual under dual 0:', blossomdual[b] > 0)\n"
        "    if CORRUPT:\n"
        + BLOSSOM_CORRUPTIONS[how][0]
        + "    real(endpoint, w2, mate, dualvar, blossomdual, blossomparent,\n"
          "         blossomedges, live, maxcardinality)\n"
        "_edmonds.verify_optimum = corrupted\n"
    )


NESTED_SOLVES = {
    "cold": f"_edmonds.matched_edges({NESTED}, False)",
    "warm": f"_edmonds.warm_matched_edges({NESTED})",
}


@pytest.mark.parametrize("how", sorted(BLOSSOM_CORRUPTIONS))
@pytest.mark.parametrize("start", sorted(NESTED_SOLVES))
def test_positive_dual_blossom_corruption_raises_under_dash_o(how, start):
    out = run_optimized(
        "from corematch.model import InvariantError\n"
        "assert False, 'asserts must be stripped here'\n"
        f"print({NESTED_SOLVES[start]})\n"
        "CORRUPT = True\n"
        "try:\n"
        f"    {NESTED_SOLVES[start]}\n"
        "except InvariantError as exc:\n"
        "    print('raised:', exc)\n",
        prelude=corrupt_blossom(how),
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == (
        "positive dual under dual 0: True\n[4, 6, 7]\n"
        "positive dual under dual 0: True\n"
        f"raised: blossom optimum: {BLOSSOM_CORRUPTIONS[how][1]}\n"
    )
