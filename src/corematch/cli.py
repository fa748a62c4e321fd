"""Command-line front end.

Output is deterministic and script-friendly: membership verdicts start with
exactly "IN_CORE" or "VIOLATED kind=<K> S={ids} p(S)=<r> bound=<r>". Exit
codes: 0 success / in core, 10 violated, 2 usage, 3 file or format error,
4 size-guard refusal, 5 internal invariant failure (a bug).
"""

import argparse
import sys

from . import extform, flawed, linsys, model, negcycle, oracle, separation
from .model import FormatError, InvariantError

EXIT_OK = 0
EXIT_VIOLATED = 10
EXIT_USAGE = 2
EXIT_FILE = 3
EXIT_GUARD = 4
EXIT_INVARIANT = 5


def _read(path: str) -> str:
    """The file as text; a byte that is not UTF-8 is a format error naming
    its line, counted as the parsers count lines (`str.splitlines`, which
    also reads CRLF and CR as one break)."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start].decode("utf-8")
        line = len((head + "x").splitlines())  # "x" stands for the bad byte
        raise FormatError(f"not UTF-8 text ({exc.reason})", line) from None


def _load_instance(path: str) -> model.Instance:
    return model.parse_instance(_read(path))


def _load_allocation(path: str, inst: model.Instance) -> model.Allocation:
    return model.parse_allocation(_read(path), inst)


def _verdict_line(violation) -> str:
    if violation is None:
        return "IN_CORE"
    return "VIOLATED " + violation.describe()


def _witness_line(inst: model.Instance, violation) -> str:
    edges = " ".join(
        f"{inst.edges[i].u}-{inst.edges[i].v}" for i in violation.witness_edges
    )
    return f"witness: {edges}" if edges else "witness: -"


def _parse_coalition(text: str, inst: model.Instance):
    ids = sorted({model.parse_uint(x.strip()) for x in text.split(",") if x.strip()})
    if not ids or not all(model._is_index(v, range(inst.n)) for v in ids):
        raise FormatError(f"coalition out of range: {text!r}")
    return tuple(ids)


# -- subcommands ------------------------------------------------------------


def _cmd_value(args) -> int:
    inst = _load_instance(args.instance)
    print(inst.grand_value)
    return EXIT_OK


def _cmd_check(args) -> int:
    inst = _load_instance(args.instance)
    p = _load_allocation(args.alloc, inst)
    verdict = separation.separate(inst, p)
    print(_verdict_line(verdict.violation))
    return EXIT_OK if verdict.in_core else EXIT_VIOLATED


def _cmd_separate(args) -> int:
    inst = _load_instance(args.instance)
    p = _load_allocation(args.alloc, inst)
    if args.all:
        violations = separation.separate_all(inst, p)
        print(_verdict_line(violations[0] if violations else None))
        for v in violations:
            print("also: " + v.describe())
            print("  " + _witness_line(inst, v))
        return EXIT_VIOLATED if violations else EXIT_OK
    verdict = separation.separate(inst, p)
    print(_verdict_line(verdict.violation))
    if verdict.violation is not None:
        print(_witness_line(inst, verdict.violation))
        ok = separation.verify_violation(inst, p, verdict.violation)
        print(f"reverified: {'yes' if ok else 'NO'}")
        return EXIT_VIOLATED
    return EXIT_OK


def _cmd_extform(args) -> int:
    inst = _load_instance(args.instance)
    did = False
    code = EXIT_OK
    if args.size:
        rep = extform.size_report(inst)
        print(f"family: {rep.family_size} (bound {rep.family_bound})")
        print(
            f"variables: {rep.total_vars} "
            f"(p {rep.p_vars}, gamma {rep.gamma_vars}, lambda {rep.lambda_vars})"
        )
        print(
            f"constraints: {rep.total_constraints} "
            f"(base {rep.base_constraints}, arc {rep.arc_constraints}, "
            f"cost {rep.cost_constraints}, nonneg {rep.nonneg_constraints})"
        )
        print(
            f"envelopes: vars <= {rep.var_envelope}, "
            f"constraints <= {rep.constraint_envelope}"
        )
        did = True
    if args.emit is not None:
        system = extform.build_extended_formulation(inst)
        with open(args.emit, "w", encoding="utf-8") as fh:
            linsys.emit_lp(system, fh)
        print(f"wrote {args.emit}")
        did = True
    if args.check:
        if args.alloc is None:
            raise FormatError("--check requires --alloc")
        p = _load_allocation(args.alloc, inst)
        if extform.check_membership(inst, p):
            print("IN_CORE")
        else:
            print("NOT_IN_CORE")
            code = EXIT_VIOLATED
        did = True
    if not did:
        raise FormatError("extform needs one of --size, --emit FILE, --check")
    return code


def _cmd_flaw(args) -> int:
    if args.instance is None:
        print(flawed.demo_counterexample(), end="")
        return EXIT_OK
    inst = _load_instance(args.instance)
    if args.alloc is None:
        raise FormatError("flaw on an instance requires --alloc")
    p = _load_allocation(args.alloc, inst)
    result = flawed.flawed_separate_paths(inst, p)
    if result is None:
        print("NO_NEGATIVE_PATH")
        return EXIT_OK
    walk = ",".join(str(v) for v in result.vertices)
    print(f"NEGATIVE_PATH ({walk}) weight {result.weight} k={result.k}")
    return EXIT_VIOLATED


def _cmd_random(args) -> int:
    density = model.parse_rational(args.density)
    inst = model.random_instance(args.seed, args.n, density, args.wmax)
    text = model.emit_instance(inst)
    if args.output is None:
        print(text, end="")
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.output} ({inst.n} vertices, {inst.m} edges)")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    op = args.op
    needs = {
        "nu": ("instance", "coalition"),
        "core-check": ("instance", "alloc"),
        "constraint-check": ("instance", "alloc"),
        "constraints": ("instance",),
        "negcycle": ("costs",),
        "cut-check": ("costs", "xvector"),
    }
    for attr in needs[op]:
        if getattr(args, attr) is None:
            raise FormatError(f"oracle {op} requires --{attr}")
    if op == "nu":
        inst = _load_instance(args.instance)
        S = _parse_coalition(args.coalition, inst)
        print(oracle.nu_bruteforce(inst, S))
        return EXIT_OK
    if op == "core-check":
        inst = _load_instance(args.instance)
        p = _load_allocation(args.alloc, inst)
        violation = oracle.core_check_bruteforce(inst, p)
        print(_verdict_line(violation))
        return EXIT_OK if violation is None else EXIT_VIOLATED
    if op == "constraint-check":
        inst = _load_instance(args.instance)
        p = _load_allocation(args.alloc, inst)
        violation = oracle.constraint_check_bruteforce(inst, p)
        print(_verdict_line(violation))
        return EXIT_OK if violation is None else EXIT_VIOLATED
    if op == "constraints":
        inst = _load_instance(args.instance)
        fam = oracle.enumerate_constraints(inst)
        print(f"cycles: {len(fam.cycles)}")
        for verts, _ in fam.cycles:
            print("  C " + "-".join(str(v) for v in verts))
        print(f"paths: {len(fam.paths)}")
        for verts, _ in fam.paths:
            print("  P " + "-".join(str(v) for v in verts))
        return EXIT_OK
    if op == "negcycle":
        graph = negcycle.parse_cost_graph(_read(args.costs))
        cycle = oracle.negative_cycle_bruteforce(graph)
        if cycle is None:
            print("NO_NEGATIVE_CYCLE")
            return EXIT_OK
        verts = "-".join(str(v) for v in cycle.vertices)
        print(f"NEGATIVE_CYCLE ({verts}) cost {cycle.cost}")
        return EXIT_VIOLATED
    if op == "cut-check":
        graph = negcycle.parse_cost_graph(_read(args.costs))
        lines = list(model._content_lines(_read(args.xvector)))
        values = [model.parse_rational(tok, no) for no, tok in lines]
        if len(values) != len(graph.edges):
            raise FormatError(
                f"x-vector has {len(values)} entries, graph has {len(graph.edges)} edges"
            )
        with model.lines_blamed(lines, lines):
            violation = oracle.check_cut_system(graph, values)
        if violation is None:
            print("HOLDS")
            return EXIT_OK
        e = graph.edges[violation.edge]
        print(
            f"VIOLATED cut X={{{','.join(str(v) for v in violation.side)}}} "
            f"edge {e.u}-{e.v}"
        )
        return EXIT_VIOLATED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corematch",
        description="Exact core membership and separation for 2-matching games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("value", help="print nu(N), the grand-coalition value")
    sp.add_argument("-i", "--instance", required=True)
    sp.set_defaults(func=_cmd_value)

    sp = sub.add_parser("check", help="core membership verdict only")
    sp.add_argument("-i", "--instance", required=True)
    sp.add_argument("-a", "--alloc", required=True)
    sp.set_defaults(func=_cmd_check)

    sp = sub.add_parser("separate", help="membership verdict plus certificate")
    sp.add_argument("-i", "--instance", required=True)
    sp.add_argument("-a", "--alloc", required=True)
    sp.add_argument("--all", action="store_true", help="list every violated family member")
    sp.set_defaults(func=_cmd_separate)

    sp = sub.add_parser("extform", help="extended formulation: emit/check/size")
    sp.add_argument("-i", "--instance", required=True)
    sp.add_argument("-a", "--alloc")
    sp.add_argument("--emit", metavar="FILE", help="write the LP file")
    sp.add_argument("--check", action="store_true", help="LP-based membership check")
    sp.add_argument("--size", action="store_true", help="print the size report")
    sp.set_defaults(func=_cmd_extform)

    sp = sub.add_parser("flaw", help="flawed layered path separation (demo without args)")
    sp.add_argument("-i", "--instance")
    sp.add_argument("-a", "--alloc")
    sp.set_defaults(func=_cmd_flaw)

    sp = sub.add_parser("random", help="generate a reproducible random instance")
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--density", default="1/2", help="edge probability, rational")
    sp.add_argument("--wmax", type=int, default=10)
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=_cmd_random)

    sp = sub.add_parser("oracle", help="brute-force oracles (desk scale)")
    sp.add_argument(
        "op",
        choices=[
            "nu", "core-check", "constraint-check", "constraints",
            "negcycle", "cut-check",
        ],
    )
    sp.add_argument("-i", "--instance")
    sp.add_argument("-a", "--alloc")
    sp.add_argument("-S", "--coalition", help="comma-separated vertex ids")
    sp.add_argument("-c", "--costs", help="costed-graph file (costs <n> <m>)")
    sp.add_argument("-x", "--xvector", help="one rational per edge, edge order")
    sp.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # a value derived from the files (nu(N) over many edges, say) may have
    # more digits than Python turns into text by default; the parsers cap
    # their input at model.MAX_DIGITS, so the command runs without the
    # interpreter's limit, which is restored on return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FILE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FILE
    except oracle.SizeGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
