"""Self-check of the benchmark: its measuring loop, goldens and tracer."""

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for p in (str(ROOT / "src"), str(BENCH)):
    if p not in sys.path:
        sys.path.insert(0, p)

import harness  # noqa: E402
import spans  # noqa: E402
import khtorsion  # noqa: E402
import khtorsion.cli  # noqa: E402,F401
import khtorsion.knotdata  # noqa: E402,F401

SMALL = {"table": "6_1", "certify": "braid3(7,2)", "oracle": "D(3,6)"}


def small_items(workload, seed=0):
    item = next(i for i in harness.WORKLOADS[workload]
                if i.name == SMALL[workload])
    return [[(item, harness.seeded_argv(khtorsion, workload, item, seed))]]


@pytest.fixture(scope="module")
def goldens():
    return harness.load_goldens()


def wrapped_bindings():
    """Every attribute of a khtorsion module or class still bound to a
    span wrapper."""
    found = []
    for name, mod in list(sys.modules.items()):
        if name != "khtorsion" and not name.startswith("khtorsion."):
            continue
        for attr, value in vars(mod).items():
            owners = [(f"{name}.{attr}", value)]
            if isinstance(value, type):
                owners += [(f"{name}.{attr}.{a}", v)
                           for a, v in vars(value).items()]
            found += [where for where, v in owners
                      if hasattr(v, "perfbench_span")]
    return found


@pytest.mark.parametrize("workload", sorted(harness.WORKLOADS))
@pytest.mark.parametrize("seed", [0, 7])
def test_small_item_has_no_errors(workload, seed, goldens):
    run = harness.measure(khtorsion, workload, small_items(workload, seed),
                          goldens, seconds=0)
    assert run["attempted"] == 1
    assert run["failed"] == 0


def test_altered_torsion_golden_is_caught(goldens):
    payload = json.loads(goldens["table"]["6_1"])
    redumped = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert redumped == goldens["table"]["6_1"]
    entry = next(e for e in payload["table"].values() if e["torsion"])
    entry["torsion"][0] *= 2
    altered = copy.deepcopy(goldens)
    altered["table"]["6_1"] = json.dumps(payload, indent=2,
                                         sort_keys=True) + "\n"
    run = harness.measure(khtorsion, "table", small_items("table"), altered,
                          seconds=0)
    assert run["failed"] == 1


def test_altered_certificate_golden_is_caught(goldens):
    altered = copy.deepcopy(goldens)
    altered["oracle"]["D(3,6)"]["hq"][0][1] += 2
    run = harness.measure(khtorsion, "oracle", small_items("oracle"),
                          altered, seconds=0)
    assert run["failed"] == 1


def test_traced_run_restores_every_binding(goldens, tmp_path):
    tracer = spans.Tracer()
    run = harness.measure(khtorsion, "oracle", small_items("oracle"),
                          goldens, seconds=0, tracer=tracer)
    assert run["failed"] == 0 and len(run["traced"]) == 1
    layer = run["layers"][0]
    assert set(layer) | {"trace.wall_s", "trace.overhead_s"} \
        == set(harness.metric_units("per_layer"))
    assert layer["homology.snf_repeat"] > 0
    assert wrapped_bindings() == []

    recorded = len(tracer.start)
    run = harness.measure(khtorsion, "oracle", small_items("oracle"),
                          goldens, seconds=0)
    assert run["failed"] == 0
    assert len(tracer.start) == recorded

    tracer.save(tmp_path / "t.spans")
    names, columns = spans.load(tmp_path / "t.spans")
    assert names == tracer.names
    assert list(columns["end"]) == list(tracer.end)
    assert all(p < k for k, p in enumerate(columns["parent"]))


def test_run_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
