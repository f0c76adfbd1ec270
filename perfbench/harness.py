"""Workloads, seeded inputs, output checks and the measuring loop.

Every item is one in-process `khtorsion.cli.main(argv)` call with stdout
captured, because the CLI and its schema-1 JSON are what users run.  The
seed picks a random crossing order for each diagram; the item then passes
the reordered diagram as `--pd-inline` (plus a hex `--state` for certify),
so every item builds a fresh diagram and starts with cold caches, as one
CLI call does.  The checks compare against goldens that do not depend on
the crossing order (see `check`).
"""

from __future__ import annotations

import io
import json
import random
import resource
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path
from typing import NamedTuple

GOLDENS = Path(__file__).resolve().with_name("goldens.json")
BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


class Item(NamedTuple):
    name: str
    source: str       # constructor flag without "--", or "pd" for knotdata
    params: str       # family parameters, or the knotdata constant's name
    mirror: bool = False
    state: str = ""   # certify only: "sA" or "signed"


COMMANDS = {
    "table": ("table", "--json"),
    "certify": ("certify", "--all-even", "--verify-even", "--json"),
    "oracle": ("certify", "--all-even", "--verify-oracle", "--json"),
}

WORKLOADS = {
    "table": (
        Item("6_1", "pd", "KNOT_6_1"),
        Item("9_42", "pd", "KNOT_9_42"),
        Item("9_42-mirror", "pd", "KNOT_9_42", mirror=True),
        Item("D(3,6)", "monocircular", "3,6"),
        Item("P(-3,3,-3)", "pretzel", "-3,3,-3"),
        Item("rational(4,2,3)", "rational", "4,2,3"),
        Item("braid3(3,2,3,2)", "braid3", "3,2,3,2"),
        Item("D(5,5)", "monocircular", "5,5"),
    ),
    "certify": (
        Item("D(6,7)", "monocircular", "6,7", state="sA"),
        Item("D(7,7)", "monocircular", "7,7", state="sA"),
        Item("P(5,-3,2,3,-2)", "pretzel", "5,-3,2,3,-2", state="signed"),
        Item("braid3(7,2)", "braid3", "7,2", state="sA"),
    ),
    "oracle": (
        Item("P(5,-3,2,3,-2)", "pretzel", "5,-3,2,3,-2", state="signed"),
        Item("D(5,5)", "monocircular", "5,5", state="sA"),
        Item("D(3,6)", "monocircular", "3,6", state="sA"),
    ),
}


def canonical_argv(kh, workload: str, item: Item) -> list[str]:
    """The command a user would type for the item, crossings unpermuted."""
    cmd, *rest = COMMANDS[workload]
    if item.source == "pd":
        argv = [cmd, "--pd-inline", getattr(kh.knotdata, item.params)]
    else:
        argv = [cmd, f"--{item.source}", item.params]
    if item.mirror:
        argv.append("--mirror")
    if item.state:
        argv += ["--state", item.state]
    return argv + rest


def _diagram(kh, item: Item):
    dg = kh.diagram
    if item.source == "pd":
        return dg.parse_pd(getattr(kh.knotdata, item.params))
    params = [int(p) for p in item.params.split(",")]
    if item.source == "monocircular":
        return dg.monocircular(*params)
    return {"pretzel": dg.pretzel, "rational": dg.rational,
            "braid3": dg.braid3_closure}[item.source](params)


def seeded_argv(kh, workload: str, item: Item, seed: int,
                rnd: int = 0) -> list[str]:
    """The item with its crossings in a random order drawn from the seed
    and the round."""
    d = _diagram(kh, item)
    perm = list(range(d.n_total))
    random.Random(f"{seed}/{rnd}/{item.name}").shuffle(perm)
    d = kh.diagram.reorder_crossings(d, perm)
    cmd, *rest = COMMANDS[workload]
    argv = [cmd, "--pd-inline", d.pd_text()]
    if item.mirror:
        argv.append("--mirror")
    if item.state == "signed":
        argv += ["--state", format(d.family_negative, "x")]
    elif item.state:
        argv += ["--state", "0"]
    return argv + rest


def metric_units(kind: str) -> dict[str, str]:
    """The metrics BENCHMARK.json declares under `kind` ("end_to_end" or
    "per_layer"), name -> unit, in declaration order."""
    with open(BENCHMARK) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def load_goldens(path=GOLDENS) -> dict:
    with open(path) as fh:
        return json.load(fh)


def certificate_summary(stdout: str) -> dict:
    """What a certify payload must keep under any crossing order: the
    multisets of sorted mu, of (h, q), of (|X|, |V|) and of flag names."""
    certs = json.loads(stdout)["certificates"]
    return {
        "mu": sorted(sorted(c["mu"]) for c in certs),
        "hq": sorted([c["degrees"]["h"], c["degrees"]["q"]] for c in certs),
        "sizes": sorted([len(c["X"]), len(c["V"])] for c in certs),
        "flags": sorted(sorted(c["flags"]) for c in certs),
    }


def _flags_hold(stdout: str) -> bool:
    for c in json.loads(stdout)["certificates"]:
        want = dict.fromkeys(c["flags"], True)
        if "oracle_order" in want:
            want["oracle_order"] = 2
        if c["flags"] != want or c["order"] != 2:
            return False
    return True


def check(workload: str, golden, rc, stdout: str) -> bool:
    """Table output must be byte-identical to the unpermuted diagram's;
    certify output must match the order-independent summary, with every
    flag true and every order 2."""
    if rc != 0:
        return False
    if workload == "table":
        return stdout == golden
    return certificate_summary(stdout) == golden and _flags_hold(stdout)


def run_pass(kh, workload: str, items, goldens: dict, tracer=None,
             first_id: int = 0) -> tuple[float, int]:
    """Run the items back to back; return (seconds inside the CLI calls,
    number of failed items)."""
    busy = 0.0
    failed = 0
    for k, (item, argv) in enumerate(items):
        if tracer is not None:
            tracer.begin_item(first_id + k)
        out = io.StringIO()
        t0 = time.perf_counter()
        try:
            with redirect_stdout(out):
                rc = kh.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            traceback.print_exc()
            rc = None
        busy += time.perf_counter() - t0
        try:
            ok = check(workload, goldens[workload][item.name], rc,
                       out.getvalue())
        except (ValueError, KeyError, TypeError):
            ok = False
        if not ok:
            failed += 1
            print(f"item {item.name} failed (exit {rc})", file=sys.stderr)
    return busy, failed


def measure(kh, workload: str, rounds, goldens: dict, seconds: float,
            tracer=None) -> dict:
    """Run passes over the item lists in `rounds`, cycling, until
    `seconds` would be exceeded (at least one pass).  With a tracer,
    untraced and traced passes alternate, at least one of each, all on
    the first round, so that counts repeat exactly and the overhead
    compares equal inputs.  Returns pass times, attempts, failures and,
    when traced, the per-layer metrics of each traced pass."""
    if tracer is not None:
        rounds = rounds[:1]
    plain, traced, layers = [], [], []
    attempted = failed = 0
    began = time.perf_counter()
    while True:
        use_tracer = tracer is not None and len(traced) < len(plain)
        items = rounds[(len(plain) + len(traced)) % len(rounds)]
        if use_tracer:
            with tracer.installed(kh):
                wall, bad = run_pass(kh, workload, items, goldens, tracer,
                                     attempted)
            traced.append(wall)
            layers.append(tracer.pass_metrics())
        else:
            wall, bad = run_pass(kh, workload, items, goldens)
            plain.append(wall)
        attempted += len(items)
        failed += bad
        done = tracer is None or traced
        if done and time.perf_counter() - began + wall > seconds:
            break
    return {"plain": plain, "traced": traced, "layers": layers,
            "attempted": attempted, "failed": failed}


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
