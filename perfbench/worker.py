"""One benchmark pass in a fresh interpreter.

Imports the package from ``<root>/src``, builds the seeded inputs, prints
``ready <operations>`` and ``reference <seconds>`` (the median timing of
reference.py's work just after set-up), runs the operations once in order
and prints one JSON line with the pass's timings, failures, cache state
and peak RSS. With ``--setup-only`` it stops after the reference line. A
traced pass also writes its spans to ``out/spans-<workload>.json`` beside
this file. run.py starts it; see run.py for the arguments.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import signal
import sys
from pathlib import Path
from types import SimpleNamespace
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MODULES = ("permutation", "rationals", "group_ring", "linalg", "tableaux", "dft",
           "littlewood_richardson", "tensor", "verify", "cli")

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import reference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def import_package():
    """The package's modules by short name, imported from SRC only."""
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("symcurv")
    if Path(package.__file__).resolve().parent != SRC / "symcurv":
        raise ImportError(f"symcurv imported from {package.__file__}, not from {SRC}")
    modules = {"symcurv": package}
    for name in MODULES:
        try:
            modules[name] = importlib.import_module(f"symcurv.{name}")
        except ImportError:
            pass
    return modules


def pass_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def run_ops(ops, tracer=None):
    """Run every operation once; a mismatch or exception is a failure, never an abort.

    Returns the summed operation time, each operation's time, the failures,
    and each operation's median reference timing (see reference.py).
    """
    latencies, failures, window_starts = [], [], []
    with reference.Sampler() as sampler:
        for k, op in enumerate(ops):
            if tracer is not None:
                tracer.op = k
            result, raised, seconds, window_start = reference.time_operation(sampler, op.run)
            latencies.append(seconds)
            window_starts.append(window_start)
            if raised is not None:
                failures.append(f"{op.name}#{k}: raised {type(raised).__name__}: {raised}")
                continue
            try:
                ok = op.check(result, op.expected)
            except Exception as exc:  # a malformed result fails its oracle
                ok = False
                failures.append(f"{op.name}#{k}: oracle raised {type(exc).__name__}: {exc}")
                continue
            if not ok:
                failures.append(f"{op.name}#{k}: result disagrees with the oracle")
        sampler.take(reference.TIMINGS_BEFORE)
        end = perf_counter()
    references = reference.operation_references(sampler.timings, window_starts, end)
    return sum(latencies), latencies, failures, references


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--deadline", type=int, required=True,
                        help="seconds after which the pass kills itself")
    args = parser.parse_args(argv)
    signal.alarm(max(1, args.deadline))

    modules = import_package()
    rng = pass_rng(args.workload, args.seed, args.pass_index)
    ops, inputs = WORKLOADS[args.workload](SimpleNamespace(**modules), rng)
    print("ready", len(ops), flush=True)
    print("reference", reference.reference_median(), flush=True)
    if args.setup_only:
        return 0

    caches = tracing.cache_functions(modules)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(modules, tracer)
    wall, latencies, failures, references = run_ops(ops, tracer)
    out = {
        "wall_s": wall,
        "latencies_s": latencies,
        "op_names": [op.name for op in ops],
        "failures": failures,
        "reference_s": references,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "caches": tracing.cache_state(caches),
        "inputs": inputs,
    }
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer, caches)
        out["spans"] = len(tracer.spans)
        tracing.write_spans(HERE / "out" / f"spans-{args.workload}.json", tracer.spans)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
