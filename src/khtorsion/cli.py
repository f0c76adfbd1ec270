"""Command-line front end.

Subcommands: `table` (integer Khovanov homology in the two-variable
grid), `certify` (order-two torsion certificates from the ladder
patterns), `grid` (the torsion-class grid of a monocircular diagram)
and `bound` (family lower bounds).  All JSON payloads carry
"schema": 1 and are deterministic.

Exit codes: 0 success or report, 2 parse/usage error (a bad state mask
included), 3 hypothesis rejection (blue scars that do not form ladders
included), 4 size guard exceeded.  A reader that closes stdout early
is not an error: the command stops and exits 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import diagram as dg
from .homology import DEFAULT_CROSSING_LIMIT, SizeGuardError, khovanov_table
from .ladders import LadderError, ladder_first
from .smoothing import SmoothingError, signed_state, state_A
from .torsion import (HypothesisRejected, TorsionError, admissible_classes,
                      all_even_tuples, certify_torsion, checked_hypotheses,
                      family_lower_bound, grid as torsion_grid,
                      rational_torsion_exists, route_setup)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_REJECTED = 3
EXIT_GUARD = 4


def _int_list(text: str) -> list[int]:
    try:
        return [int(p) for p in text.replace(",", " ").split()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer list: {text!r}")


def _count(text: str) -> int:
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"not an integer >= 0: {text!r}")
    return int(text)


def _add_diagram_args(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--pd", metavar="FILE", help="PD code file")
    g.add_argument("--pd-inline", metavar="STR", help="PD code string")
    g.add_argument("--pretzel", type=_int_list, metavar="A1,A2,...")
    g.add_argument("--monocircular", type=_int_list, metavar="H1,H2")
    g.add_argument("--braid3", type=_int_list, metavar="A1,A2,...")
    g.add_argument("--rational", type=_int_list, metavar="A1,A2,...")
    p.add_argument("--mirror", action="store_true",
                   help="mirror the diagram after construction")
    p.add_argument("--order", choices=("input", "ladder-first"),
                   default="input",
                   help="crossing order (ladder-first reorders along the "
                        "all-A ladders)")


def _family(args) -> tuple[str, list[int]]:
    """The family flag that was given, with its parameters."""
    name = next(f for f in ("pretzel", "monocircular", "braid3", "rational")
                if getattr(args, f, None) is not None)
    return name, getattr(args, name)


def _family_diagram(family: str, params: list[int]) -> dg.Diagram:
    if family == "monocircular":
        if len(params) != 2:
            raise dg.DiagramError("--monocircular takes exactly two heights")
        return dg.monocircular(*params)
    build = {"pretzel": dg.pretzel, "braid3": dg.braid3_closure,
             "rational": dg.rational}[family]
    return build(params)


def _build_diagram(args) -> dg.Diagram:
    if args.pd is not None:
        # utf-8-sig drops a leading byte-order mark, which would otherwise
        # hide a JSON PD code from the parser
        with open(args.pd, encoding="utf-8-sig") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise dg.DiagramError(
                    f"{args.pd}: not UTF-8 text ({exc.reason} at byte "
                    f"{exc.start})")
        d = dg.parse_pd(text)
    elif args.pd_inline is not None:
        d = dg.parse_pd(args.pd_inline)
    else:
        d = _family_diagram(*_family(args))
    if args.mirror:
        d = d.mirror()
    if args.order == "ladder-first":
        d, _, _ = ladder_first(d, 0)
    return d


def _state_mask(d: dg.Diagram, spec: str) -> int:
    if spec == "sA":
        return state_A(d)
    if spec == "signed":
        if d.family_negative is not None:
            return d.family_negative
        return signed_state(d)
    try:
        mask = int(spec, 16)
    except ValueError:
        mask = -1
    if mask < 0:
        raise dg.DiagramError(
            f"--state must be sA, signed or a hex mask; got {spec!r}")
    return mask


def cmd_table(args) -> int:
    d = _build_diagram(args)
    table = khovanov_table(d, limit=args.limit)
    if args.json:
        print(json.dumps(table.to_json(), indent=2, sort_keys=True))
    else:
        p, n, w = d.stats()
        print(f"# {d.n_total} crossings, p={p}, n={n}, w={w}")
        print(table.render_text())
    return EXIT_OK


def cmd_certify(args) -> int:
    d = _build_diagram(args)
    s0 = _state_mask(d, args.state)
    if args.all_even:
        # the setup every certificate below reuses
        mus = all_even_tuples(route_setup(d, s0).report.mu_heights())
    else:
        mus = [tuple(args.mu)]
    out = []
    for mu in mus:
        cert = certify_torsion(d, s0, mu, verify_even=args.verify_even,
                               oracle=args.verify_oracle)
        if args.json:  # encoded now: X and V are freed before the next
            cert = json.dumps(cert.to_json(), indent=2, sort_keys=True)
        out.append(cert)
    if args.json:  # json.dumps(indent=2) of {"certificates": out, "schema": 1}
        body = ",\n".join("    " + c.replace("\n", "\n    ") for c in out)
        print('{\n  "certificates": [' + (f"\n{body}\n  " if out else "")
              + '],\n  "schema": 1\n}')
    else:
        for c in out:
            flags = ", ".join(f"{k}={v}" for k, v in sorted(c.flags.items()))
            print(f"mu={list(c.mu)} route={c.route} order=2 "
                  f"(i,j)=({c.i},{c.j}) (h,q)=({c.h},{c.q}) [{flags}]")
    return EXIT_OK


def cmd_grid(args) -> int:
    g = torsion_grid(args.h1, args.h2)
    if args.json:
        print(json.dumps(g.to_json(), indent=2, sort_keys=True))
    else:
        print(g.render_text())
    return EXIT_OK


def cmd_bound(args) -> int:
    family, params = _family(args)
    d = _family_diagram(family, params)
    report = family_lower_bound(family, params)
    payload = report.to_json()
    if report.applicable:
        s0 = d.family_negative if d.family_negative is not None else 0
        rep = checked_hypotheses(d, s0)
        if rep.route != "rejected":
            classes = admissible_classes(rep.mu_heights())
            payload["admissible_classes"] = len(classes)
            payload["class_representatives"] = [list(c[0]) for c in classes]
    if family == "rational":
        payload["torsion_exists"] = rational_torsion_exists(
            params, diagram=d).to_json()
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        if report.applicable:
            print(f"{family}{tuple(report.params)}: at least {report.bound} "
                  "distinct Z2 torsion subgroups "
                  f"(product over qualifying entries {list(report.qualifying)})")
            if "admissible_classes" in payload:
                print(f"exhaustive admissible count: "
                      f"{payload['admissible_classes']} distinct classes")
        else:
            print(f"{family}{tuple(report.params)}: bound not applicable")
            for f in report.failures:
                print(" -", f)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="khtorsion",
        description="Integer Khovanov homology and explicit order-two "
                    "torsion certificates from ladder patterns.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="integer Khovanov homology table")
    _add_diagram_args(p)
    p.add_argument("--json", action="store_true")
    p.add_argument("--limit", type=_count, default=DEFAULT_CROSSING_LIMIT,
                   help="crossing guard for full enumeration "
                        f"(default {DEFAULT_CROSSING_LIMIT})")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("certify", help="order-two torsion certificates")
    _add_diagram_args(p)
    p.add_argument("--state", default="sA",
                   help="initial Kauffman state: sA (default), signed, or a "
                        "hex B-mask")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--mu", type=_int_list,
                   help="subset sizes, one per periphery-one ladder")
    g.add_argument("--all-even", action="store_true",
                   help="emit certificates for every all-even admissible "
                        "tuple")
    p.add_argument("--verify-oracle", action="store_true",
                   help="confirm the order through the integral exactness "
                        "oracle")
    p.add_argument("--verify-even", action="store_true",
                   help="check that the certificate module is even, "
                        "walking the generators one B label below it")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("grid", help="torsion-class grid of D(h1,h2)")
    p.add_argument("h1", type=int)
    p.add_argument("h2", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("bound", help="family lower bounds on Z2 subgroups")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--pretzel", type=_int_list, metavar="A1,A2,...")
    g.add_argument("--braid3", type=_int_list, metavar="A1,A2,...")
    g.add_argument("--rational", type=_int_list, metavar="A1,A2,...")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bound)
    return ap


_LIST_FLAGS = ("--pretzel", "--monocircular", "--braid3", "--rational", "--mu")


def _merge_list_flags(argv: list[str]) -> list[str]:
    """Fold `--pretzel -1,3` into `--pretzel=-1,3` so argparse does not
    mistake a leading-minus value for an option."""
    out = []
    k = 0
    while k < len(argv):
        tok = argv[k]
        if tok in _LIST_FLAGS and k + 1 < len(argv):
            out.append(f"{tok}={argv[k + 1]}")
            k += 2
        else:
            out.append(tok)
            k += 1
    return out


def main(argv=None) -> int:
    ap = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = ap.parse_args(_merge_list_flags(list(argv)))
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader stopped early; what is still buffered goes to
        # devnull, so the final flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except (HypothesisRejected, LadderError) as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return EXIT_REJECTED
    except SizeGuardError as exc:
        print(f"size guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (dg.DiagramError, SmoothingError, TorsionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
