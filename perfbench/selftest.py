"""Self-test of the benchmark itself; takes a few seconds.

    python3 perfbench/selftest.py

Checks that a corrupted expected value and a raising operation are each
counted as one failure without stopping the pass, that the tracer yields
every per-layer metric, that times scale to reference speed, and that
BENCHMARK.json names the metrics the code reports. Exits 0 and prints "selftest ok" when all hold.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def expect(condition: bool, message: str) -> None:
    if not condition:
        print(f"selftest FAILED: {message}", file=sys.stderr)
        sys.exit(1)


def check_benchmark_json() -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    expect([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END),
           "end_to_end in BENCHMARK.json differs from run.END_TO_END")
    expect([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.LAYER_METRICS),
           "per_layer in BENCHMARK.json differs from tracing.LAYER_METRICS")
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
           "workloads in BENCHMARK.json differ from workloads.WORKLOADS")


def check_failures_are_counted(sc) -> list:
    ops, _ = workloads.classes_workload(sc, worker.pass_rng("classes", 0, 0))
    symmetrizer = ops[0]
    rank = next(op for op in ops if op.name == "classes.projector_rank")
    fops, _ = workloads.fourier_workload(sc, worker.pass_rng("fourier", 0, 0))
    lr5 = next(op for op in fops if op.name == "lr.cross_check5")
    left_dim, right_dim, weight, left_weight = lr5.expected
    batch = [
        symmetrizer,
        rank,
        replace(rank, expected=rank.expected + 1),
        lr5,
        replace(lr5, expected=(left_dim + 1, right_dim, weight, left_weight)),
        workloads.Op("selftest.raises", lambda: 1 // 0, None, lambda result, expected: True),
        rank,
    ]
    wall, latencies, failures, references = worker.run_ops(batch)
    expect(len(latencies) == len(batch), "every operation must run despite failures")
    expect(len(references) == len(batch) and min(references) > 0, "one reference timing per operation")
    expect(wall == sum(latencies), "wall_s is the summed operation time")
    expect(len(failures) == 3, f"expected 3 failures, got {failures}")
    expect(failures[0].startswith("classes.projector_rank#2: result disagrees"), failures[0])
    expect(failures[1].startswith("lr.cross_check5#4: result disagrees"), failures[1])
    expect(failures[2].startswith("selftest.raises#5: raised ZeroDivisionError"), failures[2])
    return [symmetrizer, rank]


def check_tracer(modules, ops) -> None:
    caches = tracing.cache_functions(modules)
    expect(tracing.SPECHT_CACHE in caches and tracing.SLOT_LOOKUP_CACHE in caches,
           "named caches not found")
    tracer = tracing.Tracer()
    tracing.install(modules, tracer)
    missing = {name for name, _, _ in tracing.SPAN_TARGETS + tracing.COUNT_TARGETS} - tracer.installed
    expect(not missing, f"targets not found in the package: {sorted(missing)}")
    _, _, failures, _ = worker.run_ops(ops, tracer)
    expect(not failures, f"traced operations failed: {failures}")
    metrics = tracing.layer_metrics(tracer, caches)
    expect(set(metrics) | {"trace.overhead_s"} == {name for name, _, _ in tracing.LAYER_METRICS},
           "layer_metrics does not fill every per-layer metric")
    expect(all(v is not None for v in metrics.values()), "a per-layer metric is absent")
    expect(metrics["tensor.projector_rank.self_s"] > 0, "projector_rank span has no self time")
    expect(metrics["linalg.rowbasis.rows_offered"] >= metrics["linalg.rowbasis.rows_kept"] > 0,
           "RowBasis counters are inconsistent")
    expect(metrics["group_ring.mul.pair_products"] > 0, "mul operands were not counted")
    expect(all(s[3] < i for i, s in enumerate(tracer.spans)), "a span's parent must start before it")


def main() -> int:
    expect(run.tail_percentile(120) == 90 and run.tail_percentile(99) == 75
           and run.tail_percentile(5) == 50, "tail percentile rule")
    slow = 2 * reference.REFERENCE_S
    expect([round(t, 12) for t in reference.scaled([1.0, 3.0], [slow, 3 * slow])] == [0.5, 0.5],
           "an operation's time scales by its reference timing")
    timings = [(0.0, 1.0), (1.0, 9.0), (2.0, 2.0), (3.0, 3.0), (4.0, 4.0)]
    expect(reference.operation_references(timings, [0.0, 2.0], 5.0) == [3.0, 3.0],
           "an operation's window holds the timings before, during and after it")
    check_benchmark_json()
    modules = worker.import_package()
    ops = check_failures_are_counted(SimpleNamespace(**modules))
    check_tracer(modules, ops)
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
