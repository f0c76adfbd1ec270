"""Benchmark of the khtorsion CLI: one workload, one seed, one process.

    python3 perfbench/run.py --workload table --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; khtorsion is imported from its
`src/`.  The process is a closed loop with one client: the workload's
items run back to back, and the item list repeats until the time is used.
The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics of the traced passes with `--trace 1`, whose spans are
written to `perfbench/out/trace-<workload>.spans`.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import sys
import time
from pathlib import Path

import harness
import spans

SRC = Path(__file__).resolve().parents[1] / "src"
SETUP_REPEATS = 11
# distinct crossing orders per item; pass k uses round k mod ROUNDS, so
# one run averages over several inputs drawn from its seed
ROUNDS = 16


def setup(workload: str, seed: int):
    """Import khtorsion afresh, build the seeded argv lists, load the
    goldens.  Returns (package, rounds of items, goldens)."""
    for name in [n for n in sys.modules
                 if n == "khtorsion" or n.startswith("khtorsion.")]:
        del sys.modules[name]
    kh = importlib.import_module("khtorsion")
    for sub in ("cli", "knotdata"):
        importlib.import_module(f"khtorsion.{sub}")
    rounds = [[(item, harness.seeded_argv(kh, workload, item, seed, rnd))
               for item in harness.WORKLOADS[workload]]
              for rnd in range(ROUNDS)]
    return kh, rounds, harness.load_goldens()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=harness.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "khtorsion" / "__init__.py").is_file():
        print(f"khtorsion sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        kh, rounds, goldens = setup(args.workload, args.seed)
        setup_times.append(time.perf_counter() - t0)
    if Path(kh.__file__).resolve().parent != SRC / "khtorsion":
        print(f"imported khtorsion from {kh.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    tracer = spans.Tracer() if args.trace else None
    run = harness.measure(kh, args.workload, rounds, goldens, args.seconds,
                          tracer)
    attempted, failed = run["attempted"], run["failed"]
    wall = statistics.median(run["plain"])
    if tracer is None:
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mib": harness.peak_rss_mib(),
            "success_rate": 1 - failed / attempted,
        }
        units = harness.metric_units("end_to_end")
    else:
        values = {name: statistics.median(p[name] for p in run["layers"])
                  for name in run["layers"][0]}
        traced = statistics.median(run["traced"])
        values["trace.wall_s"] = traced
        values["trace.overhead_s"] = traced - wall
        units = harness.metric_units("per_layer")
        out = Path(__file__).resolve().with_name("out")
        out.mkdir(exist_ok=True)
        tracer.save(out / f"trace-{args.workload}.spans")

    print(f"# {args.workload} seed={args.seed}: {len(run['plain'])} untraced "
          f"+ {len(run['traced'])} traced passes of {len(rounds[0])} items, "
          f"error_rate {failed / attempted:.4f} ({failed}/{attempted})")
    for name, unit in units.items():
        print(f"# {name:36s} {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
