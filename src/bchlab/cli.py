"""Command-line interface.

Subcommands: cosets, leaders, code-info, bound, dually, verify, sweep.
JSON output is schema-stable (top-level "schema": 1) and fully
deterministic; numbers that can outgrow double precision (lengths,
residues, bounds, distances) are emitted as decimal strings, while q, m
and element counts stay plain integers.  Usage errors exit 2 (argparse),
computation errors exit 1 with an error object on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from . import closed_forms, code_core, cyclotomic, examples, oracle
from .cyclotomic import CYCLIC, FAMILIES, NEGACYCLIC
from .errors import (
    BCHLabError,
    DeltaOutOfRange,
    Phi3Unavailable,
    UnsupportedM,
    UnsupportedQ,
)
from .finite_field import TABLE_CAP


def _s(value):
    return None if value is None else str(value)


def _emit(args, payload: dict, lines: list[str]) -> None:
    if getattr(args, "format", "json") == "json":
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(lines))


def _delta_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    try:
        if not sep:
            raise ValueError
        lo_i, hi_i = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected A..B with integers, got {text!r}")
    if lo_i > hi_i:
        raise argparse.ArgumentTypeError(f"empty delta range {text!r}")
    return lo_i, hi_i


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}")


# ---------------------------------------------------------------------------
# cosets


def _cmd_cosets(args) -> int:
    if args.odd and args.modulus % 2:
        raise BCHLabError(
            f"odd residue classes need an even modulus, got {args.modulus}")
    leaders = cyclotomic.coset_leaders(args.q, args.modulus,
                                       odd_only=args.odd)
    rows = []
    for lead in leaders:
        members = cyclotomic.coset(lead, args.q, args.modulus)
        rows.append({"leader": str(lead), "size": len(members),
                     "elements": [str(x) for x in members]})
    payload = {"schema": 1, "command": "cosets", "q": args.q,
               "modulus": str(args.modulus), "odd": bool(args.odd),
               "count": len(rows), "cosets": rows}
    lines = [f"{len(rows)} cosets of q={args.q} mod {args.modulus}"
             + (" (odd class)" if args.odd else "")]
    for row in rows:
        lines.append(f"  leader {row['leader']:>6}  size {row['size']:>3}  "
                     + "{" + ",".join(row["elements"]) + "}")
    _emit(args, payload, lines)
    return 0


# ---------------------------------------------------------------------------
# leaders


def _cmd_leaders(args) -> int:
    family = NEGACYCLIC if args.odd else CYCLIC
    _, _, rn = cyclotomic.family_parameters(args.q, args.m, family)
    count = args.count or (3 if args.odd else 2)
    leaders = cyclotomic.coset_leaders(args.q, rn, odd_only=args.odd)
    rows = []
    for k in range(1, count + 1):
        formula: str | None = None
        if args.odd:
            if k <= 3:
                try:
                    formula = str(closed_forms.phi_leaders_formula(
                        args.q, args.m, count=k)[k - 1])
                except Phi3Unavailable:
                    formula = "unavailable (q^m < 25)"
        else:
            if k <= 2:
                try:
                    formula = str(closed_forms.delta_leaders_formula(
                        args.q, args.m, count=k)[k - 1])
                except UnsupportedM:
                    formula = "unsupported (m % 4 == 0)"
        sweep = cyclotomic.kth_largest_leader(leaders, k)
        agree = (formula == str(sweep)) if (formula is not None
                                            and formula.isdigit()) else None
        rows.append({"k": k, "formula": formula, "sweep": str(sweep),
                     "agree": agree})
    payload = {"schema": 1, "command": "leaders", "q": args.q, "m": args.m,
               "odd": bool(args.odd), "modulus": str(rn), "rows": rows}
    lines = [f"largest coset leaders, q={args.q} m={args.m} mod {rn}"
             + (" (odd class)" if args.odd else "")]
    for row in rows:
        mark = {True: "ok", False: "MISMATCH", None: "-"}[row["agree"]]
        lines.append(f"  k={row['k']}  formula={row['formula']}  "
                     f"sweep={row['sweep']}  [{mark}]")
    _emit(args, payload, lines)
    return 0


# ---------------------------------------------------------------------------
# code-info


def _cmd_code_info(args) -> int:
    # every check before T is built: a large T takes seconds and memory
    n, r, rn, _ = cyclotomic.defining_set_parameters(
        args.q, args.m, args.family, args.delta, args.b)
    ext = cyclotomic.ord_mod(args.q, rn)
    spec = code_core.CodeSpec(args.q, args.m, args.family, args.delta,
                              b=args.b)
    tset = spec.defining_set
    dim = n - len(tset)
    designed = code_core.run_bound(tset, n)
    realized = False
    gen: list[str] | None = None
    lcd: bool | None = None
    note: str | None = None
    if args.q ** ext <= TABLE_CAP:
        inst = code_core.realize(spec)
        realized = True
        gen = [str(c) for c in inst.gen_poly]
        lcd = code_core.is_lcd(inst)
    else:
        note = (f"extension field of order {args.q}^{ext} is above "
                f"TABLE_CAP = {TABLE_CAP} elements; combinatorial view only")
    payload = {"schema": 1, "command": "code-info", "q": args.q, "m": args.m,
               "family": args.family, "delta": str(args.delta),
               "b": _s(args.b), "n": str(n), "modulus": str(rn), "r": r,
               "defining_size": str(len(tset)), "dimension": str(dim),
               "bch_bound": str(designed), "extension_degree": ext,
               "realized": realized, "generator_poly": gen, "lcd": lcd,
               "note": note}
    lines = [f"{args.family} BCH code, q={args.q} m={args.m} "
             f"delta={args.delta}" + (f" b={args.b}" if args.b else ""),
             f"  n={n}  |T|={len(tset)}  dim={dim}  "
             f"designed distance>={designed}  extension degree {ext}"]
    if realized:
        lines.append(f"  generator poly coeffs (ascending): "
                     + ",".join(gen))
        lines.append(f"  lcd={lcd}")
    if note:
        lines.append(f"  note: {note}")
    _emit(args, payload, lines)
    return 0


# ---------------------------------------------------------------------------
# bound


def _case_dict(case) -> dict:
    return {"table": case.table, "row": case.row,
            "params": {k: str(v) for k, v in sorted(case.params.items())},
            "value": str(case.value)}


def _cmd_bound(args) -> int:
    report = closed_forms.dual_bound(args.q, args.m, args.family,
                                     args.delta)
    if not args.no_oracle:
        oracle.check_bound_report(report)
    payload = {"schema": 1, "command": "bound", "q": args.q, "m": args.m,
               "family": args.family, "delta": str(args.delta),
               "n": str(report.n), "lower_bound": str(report.lower_bound),
               "cases": [_case_dict(c) for c in report.cases],
               "gap_low": _s(report.gap_low),
               "gap_high": _s(report.gap_high),
               "oracle_gap_low": _s(report.oracle_gap_low),
               "oracle_gap_high": _s(report.oracle_gap_high),
               "agrees": report.agrees, "warning": report.warning}
    lines = [f"dual-distance bound, {args.family} q={args.q} m={args.m} "
             f"delta={args.delta}",
             f"  lower bound {report.lower_bound} "
             f"(gaps {report.gap_low}/{report.gap_high})"]
    for case in report.cases:
        params = " ".join(f"{k}={v}" for k, v in sorted(case.params.items()))
        lines.append(f"  via {case.table}[{case.row}] {params} "
                     f"-> {case.value}")
    if report.agrees is not None:
        lines.append(f"  oracle gaps {report.oracle_gap_low}/"
                     f"{report.oracle_gap_high} agree={report.agrees}")
    if report.warning:
        lines.append(f"  WARNING: {report.warning}")
    _emit(args, payload, lines)
    return 0


# ---------------------------------------------------------------------------
# dually


def _cmd_dually(args) -> int:
    even_like = args.family == CYCLIC
    lo, hi = args.delta_range
    deltas = list(range(lo, hi + 1))
    verdicts = None
    if not args.no_oracle:
        # T(delta) starts at delta = 2 and T_perp ends at max_delta
        profile = oracle.gap_profile(args.q, args.m, args.family)
        swept = [d for d in deltas if 2 <= d <= profile.max_delta]
        verdicts = dict(zip(swept, oracle.dually_sweep(profile, swept)))
    rows = []
    for delta in deltas:
        try:
            formula = closed_forms.dually_bch(args.q, args.m, args.family,
                                              delta)
        except (UnsupportedM, UnsupportedQ) as exc:
            formula = f"unsupported ({type(exc).__name__})"
        except DeltaOutOfRange:
            formula = "undefined (DeltaOutOfRange)"
        row = {"delta": str(delta), "formula": formula}
        if verdicts is not None:
            verdict = verdicts.get(delta, "undefined (BadDelta)" if delta < 2
                                   else "undefined (EmptySet)")
            row["oracle"] = verdict
            row["agree"] = (formula == verdict
                            if isinstance(formula, bool)
                            and isinstance(verdict, bool) else None)
        rows.append(row)
    payload = {"schema": 1, "command": "dually", "q": args.q, "m": args.m,
               "family": args.family, "even_like": even_like, "rows": rows}
    lines = [f"dually-BCH check, {args.family} q={args.q} m={args.m} "
             f"delta in [{lo}, {hi}]"
             + (" (even-like subcode)" if even_like else "")]
    for row in rows:
        part = f"  delta={row['delta']:>6}  formula={row['formula']}"
        if "oracle" in row:
            part += f"  oracle={row['oracle']}  agree={row['agree']}"
        lines.append(part)
    _emit(args, payload, lines)
    return 0


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args) -> int:
    if args.all == bool(args.example_id):
        args.parser.error("pass exactly one of an example id or --all")
    ids = examples.all_example_ids() if args.all else (args.example_id,)
    reports = [examples.verify_example(i) for i in ids]
    payload = {"schema": 1, "command": "verify",
               "examples": [
                   {"id": rep.example_id, "passed": rep.passed,
                    "claims": [{"name": c.name, "expected": c.expected,
                                "computed": c.computed, "ok": c.ok}
                               for c in rep.claims]}
                   for rep in reports],
               "checked": len(reports),
               "passed": all(rep.passed for rep in reports)}
    lines = []
    for rep in reports:
        lines.append(f"{'PASS' if rep.passed else 'FAIL'}  {rep.example_id}")
        for c in rep.claims:
            if not c.ok or args.verbose:
                lines.append(f"    {'ok ' if c.ok else 'BAD'} {c.name}: "
                             f"expected {c.expected}, computed {c.computed}")
    lines.append(f"{sum(r.passed for r in reports)}/{len(reports)} examples "
                 "passed")
    _emit(args, payload, lines)
    return 0 if payload["passed"] else 1


# ---------------------------------------------------------------------------
# sweep


_SWEEP_COLUMNS = ["family", "q", "m", "delta", "n", "mode",
                  "formula_gap_low", "oracle_gap_low", "formula_gap_high",
                  "oracle_gap_high", "formula_bound", "gaps_agree",
                  "dually_formula", "dually_oracle", "dually_agree"]


def _sweep_deltas(max_delta: int) -> tuple[list[int], str]:
    if max_delta - 1 <= 62:
        return list(range(2, max_delta + 1)), "full"
    step = max(1, (max_delta - 1) // 20)
    picks = sorted(set([2, 3, 4, 5, max_delta])
                   | set(range(2, max_delta + 1, step)))
    return picks, "sample"


def _sweep_point(q: int, m: int, family: str) -> list[list[str]]:
    rows = []
    profile = oracle.gap_profile(q, m, family)
    deltas, mode = _sweep_deltas(profile.max_delta)
    dually = oracle.dually_sweep(profile, deltas)
    for delta, dual_oracle in zip(deltas, dually):
        cells = {"family": family, "q": q, "m": m, "delta": delta,
                 "n": profile.n, "mode": mode}
        try:
            report = closed_forms.dual_bound(q, m, family, delta)
            cells["formula_gap_low"] = report.gap_low
            cells["formula_gap_high"] = report.gap_high
            cells["formula_bound"] = report.lower_bound
        except UnsupportedM:
            report = None
        low, high = profile.low(delta), profile.high(delta)
        if family == CYCLIC or m % 2 == 0:
            high = None  # one-gap families report only the low edge
        cells["oracle_gap_low"] = low
        cells["oracle_gap_high"] = high
        if report is not None:
            cells["gaps_agree"] = (report.gap_low == low
                                   and report.gap_high == high)
        try:
            formula = closed_forms.dually_bch(q, m, family, delta)
            cells["dually_formula"] = formula
            cells["dually_agree"] = formula == dual_oracle
        except (UnsupportedM, UnsupportedQ):
            pass
        cells["dually_oracle"] = dual_oracle
        rows.append([_csv_cell(cells.get(col)) for col in _SWEEP_COLUMNS])
    return rows


def _csv_cell(value):
    if value is None:
        return ""
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


def _cmd_sweep(args) -> int:
    families = [args.family] if args.family != "both" else list(FAMILIES)
    # (q, m) outer: both families of a cell read one leader map
    cells = {}  # all computed first: a failing cell leaves stdout empty
    for q in args.q_list:
        for m in args.m_list:
            for family in families:
                try:
                    cyclotomic.family_parameters(q, m, family)
                except BCHLabError:
                    continue  # family undefined at this point, e.g. q=5 odd
                cells[family, q, m] = _sweep_point(q, m, family)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(_SWEEP_COLUMNS)
    for family in families:
        for q in args.q_list:
            for m in args.m_list:
                writer.writerows(cells.get((family, q, m), []))
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bchlab",
        description="BCH codes of length q^m+1 and (q^m+1)/2: closed-form "
                    "bounds, dually-BCH predicates, and brute-force checks")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=["json", "text"], default="json",
                       help="output format (default json)")

    p = sub.add_parser("cosets", help="list q-cyclotomic cosets mod N")
    p.add_argument("q", type=int)
    p.add_argument("modulus", type=int)
    p.add_argument("--odd", action="store_true",
                   help="restrict to odd residues")
    add_format(p)
    p.set_defaults(func=_cmd_cosets)

    p = sub.add_parser("leaders",
                       help="largest coset leaders: formula vs sweep")
    p.add_argument("q", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--odd", action="store_true",
                   help="odd class mod q^m+1 (negacyclic view)")
    p.add_argument("--count", type=_positive_int, default=None,
                   help="how many leaders, at least 1 (default 2, or 3 "
                        "with --odd)")
    add_format(p)
    p.set_defaults(func=_cmd_leaders)

    p = sub.add_parser("code-info",
                       help="dimension, generator polynomial, LCD check")
    p.add_argument("q", type=int)
    p.add_argument("m", type=int)
    p.add_argument("family", choices=list(FAMILIES))
    p.add_argument("delta", type=int)
    p.add_argument("b", type=int, nargs="?", default=None)
    add_format(p)
    p.set_defaults(func=_cmd_code_info)

    p = sub.add_parser("bound",
                       help="closed-form dual-distance bound + oracle check")
    p.add_argument("q", type=int)
    p.add_argument("m", type=int)
    p.add_argument("family", choices=list(FAMILIES))
    p.add_argument("delta", type=int)
    p.add_argument("--no-oracle", action="store_true",
                   help="skip the brute-force gap scan")
    add_format(p)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("dually",
                       help="dually-BCH predicate over a delta range")
    p.add_argument("q", type=int)
    p.add_argument("m", type=int)
    p.add_argument("family", choices=list(FAMILIES))
    p.add_argument("--delta-range", type=_delta_range, required=True,
                   metavar="A..B")
    p.add_argument("--no-oracle", action="store_true",
                   help="skip the brute-force coverage search")
    add_format(p)
    p.set_defaults(func=_cmd_dually)

    p = sub.add_parser("verify", help="recompute pinned worked examples")
    p.add_argument("example_id", nargs="?", default=None)
    p.add_argument("--all", action="store_true")
    p.add_argument("--verbose", action="store_true",
                   help="text format: show passing claims too")
    add_format(p)
    p.set_defaults(func=_cmd_verify, parser=p)

    p = sub.add_parser("sweep",
                       help="CSV of formula-vs-oracle rows over a grid")
    p.add_argument("q_list", type=_int_list, metavar="q,q,...")
    p.add_argument("m_list", type=_int_list, metavar="m,m,...")
    p.add_argument("family", choices=list(FAMILIES) + ["both"])
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BCHLabError as exc:
        err = {"schema": 1,
               "error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(err, indent=2), file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader left (`| head`): point stdout at devnull so the
        # flush at exit cannot raise again, and exit 1 as on EPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
