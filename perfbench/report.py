"""Run every workload, untraced then traced, and print all metrics.

    python3 perfbench/report.py --seed 1 --seconds 40

Each run is its own `run.py` process, one after another.  Prints every
end-to-end metric (with `error_rate`) and every per-layer metric by name
and unit, one column per workload, then the trace attribution: the share
of the traced pass time spent in SNF, and in chain arithmetic plus
`differential`.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import harness

RUN = Path(__file__).resolve().with_name("run.py")


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False)
    if not proc.stdout.strip():
        raise SystemExit(f"{workload}: no result\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    args = ap.parse_args(argv)

    workloads = list(harness.WORKLOADS)
    rows = {}
    for trace in (0, 1):
        for w in workloads:
            res = run(w, args.seed, args.seconds, trace)
            for name, m in res["metrics"].items():
                rows.setdefault((name, m["unit"]), {})[w] = m["value"]
            if not trace:
                rows.setdefault(("error_rate", "ratio"), {})[w] = \
                    res["failed"] / res["attempted"]

    print(f"{'metric':36s} {'unit':6s}" + "".join(f"{w:>12s}" for w in workloads))
    for (name, unit), vals in rows.items():
        print(f"{name:36s} {unit:6s}"
              + "".join(f"{vals.get(w, float('nan')):12.5g}" for w in workloads))

    print("\nshare of traced pass time")
    for w in workloads:
        v = {name: vals[w] for (name, _), vals in rows.items()}
        total = v["trace.wall_s"]
        snf = (v["homology.snf_s"] + v["homology.snf_t_s"]) / total
        chains = (v["smoothing.chain_s"]
                  + v["chaincomplex.differential_s"]) / total
        print(f"{w:8s} snf {snf:6.1%}  chain+differential {chains:6.1%}  "
              f"snf_repeat {v['homology.snf_repeat']:.0f} of "
              f"{v['homology.snf_calls'] + v['homology.snf_t_calls']:.0f} "
              "SNF calls")
    return 0


if __name__ == "__main__":
    sys.exit(main())
