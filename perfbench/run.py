"""hyp321 benchmark: identify, cull and numeric workloads, end to end and per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload cull_pool --seed 1 --seconds 40 --trace 0

Workloads: cull_pool and numeric_mix (the two in BENCHMARK.json) and
identify_stream (runs the same way; too noisy from seed to seed to gate).

Inputs are generated from ``--seed``; every unit of work runs once, and
the units run again in turn until ``--seconds`` of measurement are used up;
every output is checked against an independent reference afterwards, once
per distinct operation, so ``attempted`` and ``failed`` depend only on the
seed.  One closed-loop caller: each operation runs alone in a fresh fork of
a process that has imported hyp321 and called nothing, so no library cache
survives from one operation to the next, as for a CLI user.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Earlier lines carry the workload's own named figures and
output checks.  See ``perfbench/layers.json`` for what each metric means.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import pickle
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback

import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "perfbench", "out")

#: BLAS/OpenMP pools pinned to one thread, here and in every child
THREAD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}

#: fresh interpreters timed for setup_s: one before the measurement, one
#: after each further 1/SETUP_RUNS of it, and more after it up to this
#: count.  Spread out like this, a burst of load elsewhere on the host
#: moves few of them; the median of all is reported
SETUP_RUNS = 12

SETUP_SNIPPET = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import hyp321.cli\n"
    "from hyp321.database import seed_db\n"
    "seed_db()\n"
    "print(repr(time.perf_counter() - t0))\n")

#: a forked operation that runs longer than this is killed
CHILD_TIMEOUT_S = 150

#: every operation and every set-up interpreter is pinned to the next CPU
#: of this process in turn.  On a shared 2-CPU host, runs left to the
#: scheduler fell into two modes 20-25% apart for minutes at a time; runs
#: that take turns on every CPU measure their average
CPUS = itertools.cycle(sorted(os.sched_getaffinity(0)))


class ChildFailed(RuntimeError):
    pass


def in_fork(fn, *args):
    """Run ``fn(*args)`` in a forked child and return its result.

    The child inherits this process's imported but unused modules, so it
    starts with every library cache empty.  Forking is safe here because
    this process runs no other thread (checked).
    """
    if threading.active_count() != 1:
        raise RuntimeError("refusing to fork a process with threads")
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: never returns
        status = 1
        try:
            os.close(r)
            signal.alarm(CHILD_TIMEOUT_S)
            try:
                payload = ("ok", fn(*args))
            except Exception:
                payload = ("error", traceback.format_exc())
            with os.fdopen(w, "wb") as fh:
                pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
            status = 0 if payload[0] == "ok" else 1
        finally:
            os._exit(status)
    os.close(w)
    with os.fdopen(r, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if not data:
        raise ChildFailed(f"child exited with status {status} and no result")
    kind, value = pickle.loads(data)  # written by our own child
    if kind != "ok":
        raise ChildFailed(value)
    return value


def measure_setup(runs: int) -> list[float]:
    """Times of import hyp321 + first seed_db() in ``runs`` fresh
    interpreters."""
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    times = []
    for _ in range(runs):
        pin = functools.partial(os.sched_setaffinity, 0, {next(CPUS)})
        out = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], cwd=ROOT,
                             env=env, capture_output=True, text=True,
                             timeout=60, check=True, preexec_fn=pin)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def host_facts() -> dict:
    import mpmath
    import numpy

    sha = "unknown (not a git checkout)"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head) as fh:
            ref = fh.read().strip()
        sha = ref
        if ref.startswith("ref: "):
            path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.exists(path):
                with open(path) as fh:
                    sha = fh.read().strip()
    return {"git_sha": sha, "python": sys.version.split()[0],
            "numpy": numpy.__version__, "mpmath": mpmath.__version__,
            "nproc": os.cpu_count()}


def _run_op(workload, inputs, key, traced: bool, cpu: int):
    """Body of one forked operation, pinned to ``cpu``."""
    os.sched_setaffinity(0, {cpu})
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracer.install()
    result = workload.op(inputs, key, tracer)
    if tracer is not None:
        tracer.uninstall()
        result["spans"] = tracer.spans
    result["rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def run_units(workload, inputs, seconds: float, traced: bool,
              setup_times: list[float]):
    """Run every unit once, then the units again in the same order until
    ``seconds`` are used up, timing a fresh interpreter into
    ``setup_times`` after every 1/SETUP_RUNS of them (not counted in
    ``seconds``).

    Every unit runs at least once, however long that takes, so the outputs
    checked, and so ``attempted`` and ``failed``, depend only on the seed;
    the repeats add timings, and their outputs must equal the first ones.

    Returns (untraced results, traced results) as lists of (key, result);
    with ``traced`` every operation runs once untraced and once traced.
    """
    plain, with_trace = [], []
    units = workload.units(inputs)
    start = time.perf_counter()
    paused = 0.0
    walls: list[float] = []
    for i, unit in enumerate(itertools.cycle(units)):
        elapsed = time.perf_counter() - start - paused
        if i >= len(units) and elapsed + statistics.fmean(walls) > seconds:
            break
        t0, p0 = time.perf_counter(), paused
        for key in unit:
            cpu = next(CPUS)
            plain.append((key, in_fork(_run_op, workload, inputs, key, False,
                                       cpu)))
            if traced:  # on the same CPU, so the overhead is like for like
                with_trace.append((key, in_fork(_run_op, workload, inputs,
                                                key, True, cpu)))
            now = time.perf_counter()
            measured = now - start - paused
            if len(setup_times) < SETUP_RUNS and \
                    measured * SETUP_RUNS > seconds * len(setup_times):
                setup_times += measure_setup(1)
                paused += time.perf_counter() - now
        walls.append(time.perf_counter() - t0 - (paused - p0))
    return plain, with_trace


def end_to_end(results, setup_s: float) -> dict:
    ops = [r["op_s"] for _, r in results]
    return {
        "op_mean_ms": {"value": statistics.fmean(ops) * 1e3, "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": statistics.median([r["rss_mb"]
                                               for _, r in results]),
                        "unit": "MB"},
    }


def per_layer(workload_name: str, traced, plain, spec) -> dict:
    """Per-layer metrics of the traced operations, in BENCHMARK.json order;
    the spans go to perfbench/out/trace-<workload>.jsonl."""
    spans = []
    for _, r in traced:
        offset = len(spans)
        for s in r["spans"]:
            if s[tracing.PARENT] >= 0:
                s[tracing.PARENT] += offset
            spans.append(s)
    values = tracing.layer_metrics(spans)
    t_plain = sum(r["op_s"] for _, r in plain)
    t_traced = sum(r["op_s"] for _, r in traced)
    values["trace.overhead_share"] = t_traced / t_plain - 1.0
    os.makedirs(OUT_DIR, exist_ok=True)
    tracing.write_jsonl(
        os.path.join(OUT_DIR, f"trace-{workload_name}.jsonl"), spans)
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"per-layer metrics not produced: {missing}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items()}


def check_layers(workload_name: str, metrics: dict, layer_map: dict) -> list:
    """Layers meant to move this workload's metrics that recorded no call,
    and matcher calls on a workload that must make none."""
    problems = []
    for layer, funcs in tracing.LAYERS.items():
        info = layer_map["layers"][layer]
        for func in funcs:
            calls = metrics[f"{layer}.{func}.calls"]["value"]
            if workload_name in info.get("must_call", {}).get(func, []) \
                    and calls == 0:
                problems.append(f"{layer}.{func} recorded no calls")
            if workload_name in info.get("must_not_call", []) and calls:
                problems.append(f"{layer}.{func} called {calls} times")
    return problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hyp321", "__init__.py")):
        print(f"error: no hyp321 sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, SRC)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(ROOT, "perfbench", "layers.json")) as fh:
        layer_map = json.load(fh)

    import hyp321.cli  # the state every fork starts from
    from workloads import WORKLOADS

    if not hyp321.cli.__file__.startswith(SRC):
        print("error: hyp321 imported from outside this checkout",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    setup_times = measure_setup(1)
    inputs = in_fork(workload.generate, args.seed, args.seconds)
    plain, traced = run_units(workload, inputs, args.seconds,
                              bool(args.trace), setup_times)
    setup_times += measure_setup(max(0, SETUP_RUNS - len(setup_times)))
    setup_s = statistics.median(setup_times)
    outcome = workload.check(inputs, plain, traced)

    report = {"workload": workload.name, "seed": args.seed,
              "operations": len(plain), "host": host_facts(),
              "setup_runs_s": setup_times,
              **outcome.report}
    e2e = end_to_end(plain, setup_s)
    if args.trace:
        metrics = per_layer(workload.name, traced, plain, spec)
        report["traced_end_to_end"] = end_to_end(traced, setup_s)
        report["untraced_end_to_end"] = e2e
        problems = check_layers(workload.name, metrics, layer_map)
        if problems:
            print(json.dumps({"report": report}, default=str))
            print("error: " + "; ".join(problems), file=sys.stderr)
            return 3
    else:
        metrics = e2e
    print(json.dumps({"report": report}, default=str))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for err in outcome.errors:
        print(f"error: {err}", file=sys.stderr)
    print(json.dumps({"correct": not outcome.errors,
                      "attempted": outcome.attempted,
                      "failed": outcome.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
