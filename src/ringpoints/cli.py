"""Command line interface: values, table harness, verification, export, constructions.

Exit codes: 0 success, 1 invalid input or table mismatch, 2 incomplete
exactness (budget ran out, or verification left entries open).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .cache import ResultCache, ResultRecord
from .cliquegraph import DistanceGraph, build_full, build_rooted
from .errors import (
    InvalidInputError,
    NotApplicableError,
    ResourceLimitError,
    RingpointsError,
    SearchTimeout,
)
from .geometry import point_index
from .orderly import max_cardinality_witness
from .reductions import (
    I_of,
    best_construction,
    conjectured_I2,
    even_reduction_value,
    ilig_set,
    lemma1_points,
    lemma2_points,
    verify_conjecture,
)
from .tables import TABLE1, TABLE1_COLUMNS, TABLE2, TABLE3

MODE_NAMES = ("I", "semi-general", "general")


def _compute_value(args) -> tuple[int, list | None]:
    """(value, witness) for the requested mode; a search out of budget raises."""
    if args.mode == "I":
        return I_of(args.n, args.m, budget=args.budget), None
    if args.m != 2:
        raise InvalidInputError("position-filtered maxima are only computed over Z_n^2")
    value, witness = max_cardinality_witness(args.n, args.mode, budget=args.budget)
    return value, [list(p) for p in witness]


def cmd_value(args) -> int:
    cache = ResultCache(args.cache)
    rec = cache.get(args.n, args.m, args.mode)
    code = 0
    if rec is None or not rec.exact:
        t0 = time.monotonic()
        try:
            value, witness = _compute_value(args)
        except SearchTimeout as exc:
            print(f"timeout: best lower bound {exc.lower_bound}", file=sys.stderr)
            # the incumbent is a proven lower bound: reported, never cached
            value, witness, code = exc.lower_bound, [list(p) for p in exc.witness] or None, 2
        rec = ResultRecord(
            n=args.n,
            m=args.m,
            mode=args.mode,
            value=value,
            exact=code == 0,
            witness=witness,
            elapsed_ms=int((time.monotonic() - t0) * 1000),
        )
        if rec.exact:
            cache.put(rec)
            cache.save()
    if args.json:
        payload = rec.payload()
        payload["version"] = __version__
        print(json.dumps(payload, sort_keys=True))
    else:
        print(rec.value)
    return code


def _table_rows(args):
    """Yield (label, expected (value, exact) or None, computer) per requested cell."""
    if args.which == 1:
        for m in range(2, args.max_m + 1):
            for n in TABLE1_COLUMNS:
                if n > args.max_n:
                    continue
                yield (
                    f"I({n},{m})",
                    TABLE1.get((n, m)),
                    lambda n=n, m=m: I_of(n, m, budget=args.budget),
                )
    else:
        table = TABLE2 if args.which == 2 else TABLE3
        mode = "semi-general" if args.which == 2 else "general"
        sym = "semi" if args.which == 2 else "general"
        for n in range(1, args.max_n + 1):
            yield (
                f"{sym}({n},2)",
                table.get(n),
                lambda n=n: max_cardinality_witness(n, mode, budget=args.budget)[0],
            )


def cmd_table(args) -> int:
    mismatches = 0
    incomplete = 0
    for label, expected, compute in _table_rows(args):
        try:
            value = compute()
            status = ""
            if expected is None:
                status = "(no reference)"
            elif expected[1] and value != expected[0]:
                status = f"MISMATCH expected {expected[0]}"
                mismatches += 1
            elif not expected[1]:
                status = f"(reference is a lower bound {expected[0]})"
                if value < expected[0]:
                    status += " MISMATCH"
                    mismatches += 1
            print(f"{label} = {value} {status}".rstrip())
        except SearchTimeout as exc:
            print(f"{label} >= {exc.lower_bound} (budget exhausted)")
            incomplete += 1
    if mismatches:
        print(f"{mismatches} mismatches", file=sys.stderr)
        return 1
    if incomplete:
        return 2
    return 0


def cmd_verify(args) -> int:
    if not (args.conjecture or args.theorems):
        raise InvalidInputError("verify needs --conjecture or --theorems")
    failures = 0
    unverified = 0
    if args.conjecture:
        report = verify_conjecture(args.max_n, budget=args.budget)
        for entry in report.entries:
            if entry.tight is False:
                print(
                    f"n={entry.n}: exact {entry.exact} != construction bound "
                    f"{entry.conjectured} ({entry.tag})"
                )
                failures += 1
            elif entry.tight is None:
                print(f"n={entry.n}: unverified (budget)")
                unverified += 1
        print(
            f"construction bound tight for {sum(1 for e in report.entries if e.tight)} of "
            f"{len(report.entries)} moduli"
        )
    if args.theorems:
        failures += _verify_theorems(args)
    if failures:
        return 1
    return 2 if unverified else 0


def _verify_theorems(args) -> int:
    checks: list[tuple[str, bool]] = []

    i_4_2 = I_of(4, 2, budget=args.budget)
    i_3_2 = I_of(3, 2, budget=args.budget)
    i_12_2 = I_of(12, 2, use_cartesian=False, budget=args.budget)
    checks.append((f"I(12,2) = I(4,2) * I(3,2) = {i_12_2}", i_12_2 == i_4_2 * i_3_2))

    i_2_3, i_4_3, i_8_3 = I_of(2, 3), I_of(4, 3), I_of(8, 3, budget=args.budget)
    checks.append(
        (
            f"I(2,3) * I(4,3) = {i_2_3 * i_4_3} > I(8,3) = {i_8_3} (product rule fails "
            "for non-coprime factors)",
            i_2_3 * i_4_3 > i_8_3,
        )
    )
    i_3_3, i_9_3 = I_of(3, 3), I_of(9, 3, budget=args.budget)
    checks.append(
        (f"I(3,3) = {i_3_3} does not divide I(9,3) = {i_9_3}", i_9_3 % i_3_3 != 0)
    )

    for two_n, m in ((4, 2), (6, 2), (8, 2), (8, 3), (10, 2)):
        val = even_reduction_value(two_n, m, budget=args.budget)
        checks.append((f"2^{m} divides I({two_n},{m}) = {val}", val % (2**m) == 0))

    for p in (7, 11):
        val = max_cardinality_witness(p, "semi-general", budget=args.budget)[0]
        checks.append((f"semi-general max over Z_{p} = (p+1)/2 = {val}", val == (p + 1) // 2))

    for p in (3, 5, 7):
        checks.append((f"I({p},2) = {p}", I_of(p, 2, budget=args.budget) == p))
    for p in (3, 5):
        checks.append(
            (f"I({p * p},2) = {p ** 3}", I_of(p * p, 2, budget=args.budget) == p**3)
        )

    failures = 0
    for label, ok in checks:
        print(("ok   " if ok else "FAIL ") + label)
        failures += 0 if ok else 1
    return failures


def export_dimacs(graph: DistanceGraph, out_path: str) -> None:
    """Standard DIMACS: 1-based vertices, each edge listed once with i < j."""
    v = graph.num_vertices
    lines = [f"p edge {v} {graph.num_edges}"]
    for i in range(v):
        row = graph.adj[i] >> (i + 1) << (i + 1)  # keep j > i
        while row:
            b = row & -row
            j = b.bit_length() - 1
            row ^= b
            lines.append(f"e {i + 1} {j + 1}")
    with open(out_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(out_path + ".map", "w") as fh:
        for i, label in enumerate(graph.labels):
            coords = ",".join(str(c) for c in label)
            fh.write(f"{i + 1} {coords} {point_index(label, graph.n)}\n")


def cmd_export_dimacs(args) -> int:
    if args.variant == "full":
        graph = build_full(args.n, args.m)
    else:
        graph = build_rooted(args.n, args.m)
    export_dimacs(graph, args.out)
    print(f"wrote {graph.num_vertices} vertices, {graph.num_edges} edges to {args.out}")
    return 0


def _render_grid(points, n: int) -> str:
    marked = set(points)
    rows = []
    for y in range(n - 1, -1, -1):
        rows.append("".join("*" if (x, y) in marked else "." for x in range(n)))
    return "\n".join(rows)


def cmd_construct(args) -> int:
    n = args.n
    if args.lemma == "1":
        points, bound = lemma1_points(n)
    elif args.lemma == "2":
        points, bound = lemma2_points(n)
    elif args.lemma == "ilig":
        points = ilig_set(n)
        bound = len(points)
    else:  # auto: best applicable construction
        points, bound = best_construction(n)
    print(f"{len(points)} points (bound {bound}, best construction bound {conjectured_I2(n)})")
    for p in points:
        print(f"{p[0]} {p[1]}")
    if args.grid:
        print(_render_grid(points, n))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringpoints",
        description="Exact maxima of integral point sets over the rings Z_n^m",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_value = sub.add_parser("value", help="compute one maximum cardinality")
    p_value.add_argument("--n", type=int, required=True)
    p_value.add_argument("--m", type=int, default=2)
    p_value.add_argument("--mode", choices=MODE_NAMES, default="I")
    p_value.add_argument("--budget", type=float, default=None, help="seconds per search")
    p_value.add_argument("--json", action="store_true")
    p_value.add_argument("--cache", default=None, help="cache file path")
    p_value.set_defaults(func=cmd_value)

    p_table = sub.add_parser("table", help="reproduce a reference table and diff it")
    p_table.add_argument("--which", type=int, choices=(1, 2, 3), required=True)
    p_table.add_argument("--max-n", type=int, default=None)
    p_table.add_argument("--max-m", type=int, default=3)
    p_table.add_argument("--budget", type=float, default=None)
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser("verify", help="run the construction-bound and theorem checks")
    p_verify.add_argument("--conjecture", action="store_true")
    p_verify.add_argument("--theorems", action="store_true")
    p_verify.add_argument("--max-n", type=int, default=30)
    p_verify.add_argument("--budget", type=float, default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_dimacs = sub.add_parser("export-dimacs", help="write a distance graph in DIMACS format")
    p_dimacs.add_argument("--n", type=int, required=True)
    p_dimacs.add_argument("--m", type=int, default=2)
    p_dimacs.add_argument("--variant", choices=("full", "rooted"), default="full")
    p_dimacs.add_argument("--out", required=True)
    p_dimacs.set_defaults(func=cmd_export_dimacs)

    p_construct = sub.add_parser("construct", help="print a constructed integral point set")
    p_construct.add_argument("--n", type=int, required=True)
    p_construct.add_argument("--lemma", choices=("1", "2", "ilig", "auto"), default="auto")
    p_construct.add_argument("--grid", action="store_true")
    p_construct.set_defaults(func=cmd_construct)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "table" and args.max_n is None:
        args.max_n = {1: 9, 2: 20, 3: 13}[args.which]
    try:
        return args.func(args)
    except (InvalidInputError, NotApplicableError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SearchTimeout as exc:
        print(f"timeout: best lower bound {exc.lower_bound}", file=sys.stderr)
        return 2
    except RingpointsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
