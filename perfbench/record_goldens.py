"""Record perfbench/goldens.json from the CLI at the current commit.

    python3 perfbench/record_goldens.py

Each golden comes from the item's canonical command (crossings in
constructor order): the exact stdout for `table`, the order-independent
certificate summary for `certify` and `oracle`.  Before writing, the
script confirms that the seeded inputs of the first `CHECK_SEEDS` seeds
pass the same checks, so a golden that depends on the crossing order is
never stored.  Re-record only when a change is meant to alter outputs.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout

import harness
from run import SRC

CHECK_SEEDS = 5


def cli_stdout(kh, argv) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        rc = kh.cli.main(argv)
    if rc != 0:
        raise SystemExit(f"{' '.join(argv[:3])}... exited {rc}")
    return out.getvalue()


def main() -> int:
    sys.path.insert(0, str(SRC))
    import khtorsion as kh
    import khtorsion.cli  # noqa: F401  (binds kh.cli)
    import khtorsion.knotdata  # noqa: F401

    goldens = {}
    for workload, items in harness.WORKLOADS.items():
        goldens[workload] = {}
        for item in items:
            text = cli_stdout(kh, harness.canonical_argv(kh, workload, item))
            goldens[workload][item.name] = (
                text if workload == "table"
                else harness.certificate_summary(text))
    for seed in range(CHECK_SEEDS):
        for workload, items in harness.WORKLOADS.items():
            for item in items:
                argv = harness.seeded_argv(kh, workload, item, seed, seed)
                out = io.StringIO()
                with redirect_stdout(out):
                    rc = kh.cli.main(argv)
                if not harness.check(workload, goldens[workload][item.name],
                                     rc, out.getvalue()):
                    raise SystemExit(
                        f"{workload}/{item.name} seed {seed}: output depends "
                        "on the crossing order; golden not written")
    with open(harness.GOLDENS, "w") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {harness.GOLDENS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
