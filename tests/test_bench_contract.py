"""The benchmark's must-call contract, checked on the library as it is.

``perfbench/run.py --trace 1`` exits 3 when a layer that
``perfbench/layers.json`` says must serve a workload records no call on it,
or when the matcher is called on ``numeric_mix``.  This runs every
``cull_pool`` pool of seed 1 and one ``numeric_mix`` round traced, each in a
fork of a fresh interpreter that has imported hyp321 and called nothing, as
``run.py`` does, and asks ``run.check_layers`` for its verdict.  A fresh
interpreter matters: the library's caches, warm in this process, would
hide calls that a benchmark run makes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json
import os
from collections import Counter

import hyp321.cli  # the state every fork starts from
import run
import tracing
from workloads import WORKLOADS

with open(os.path.join(run.ROOT, "perfbench", "layers.json")) as fh:
    layer_map = json.load(fh)
out = {}
for name, rounds in (("cull_pool", None), ("numeric_mix", 1)):
    workload = WORKLOADS[name]
    inputs = run.in_fork(workload.generate, 1, 40.0)
    keys = range(len(inputs) if rounds is None else rounds)
    calls = Counter()
    for key in keys:
        result = run.in_fork(run._run_op, workload, inputs, key, True,
                             next(run.CPUS))
        for metric, value in tracing.layer_metrics(result["spans"]).items():
            if metric.endswith(".calls"):
                calls[metric] += value
    metrics = {metric: {"value": n} for metric, n in calls.items()}
    out[name] = {"operations": len(keys),
                 "problems": run.check_layers(name, metrics, layer_map)}
print(json.dumps(out))
"""


def test_traced_runs_call_every_required_layer():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]))
    out = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=600,
                         check=True).stdout
    report = json.loads(out.strip().splitlines()[-1])
    assert report["cull_pool"]["operations"] > 1
    assert report["numeric_mix"]["operations"] == 1
    for name, result in report.items():
        assert result["problems"] == [], name
