"""Benchmark for symcurv: three seeded workloads measured end to end.

    python3 perfbench/run.py --workload {verify,fourier,classes} --seed N \
        --seconds S --trace {0,1}

Closed loop: one caller, one process at a time, no threads. Each pass is
a fresh interpreter (worker.py), so the package's caches start empty, as
they do for every CLI call, and filling them is part of the pass. Passes
repeat until the next one would overrun --seconds, with a floor of
MIN_PASSES. Eleven more interpreters only set up, so that set-up time has
enough samples.

Times are reported at reference speed (reference.py): each operation's
time is scaled by the timings of a fixed stdlib-only workload taken just
before, during and after it, and each set-up time by the mean of timings
taken just before the interpreter starts and by the interpreter just
after. That cancels the drift in speed of a shared machine; the times as
measured are printed too.

--trace 0 reports the end-to-end metrics; --trace 1 runs one untraced pass
and then traced passes, and reports the per-layer metrics of tracing.py
plus the tracing overhead. Lines before the last are for people; the last
line is one JSON object with the keys correct, attempted, failed and
metrics. Exit code 2 means the package source is missing and nothing ran.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC_PACKAGE = ROOT / "src" / "symcurv"
WORKER = HERE / "worker.py"

sys.path.insert(0, str(HERE))
from reference import REFERENCE_S, reference_median, scaled  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Passes per run at least, so that op_tail_ms always rests on the same
# percentile (see tail_percentile); verify passes are short, so it gets more.
MIN_PASSES = {"verify": 4, "fourier": 3, "classes": 4}
SETUP_ONLY_SAMPLES = 11
HARD_LIMIT_S = 165.0
PERCENTILES = (50, 75, 90, 95, 99, 99.9)

END_TO_END = (
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def tail_percentile(samples: int) -> float:
    """Highest of PERCENTILES with at least ten of `samples` beyond it."""
    best = PERCENTILES[0]
    for p in PERCENTILES:
        if samples * (100 - p) / 100 >= 10:
            best = p
    return best


def percentile(values: list[float], p: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=1000, method="inclusive")[round(p * 10) - 1]


def commit_id() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        loose = ROOT / ".git" / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC_PACKAGE.rglob("*.py"))


def spawn(args, index: int, trace: bool, setup_only: bool, deadline: float) -> dict:
    """Start one worker and wait for it; returns what it reported."""
    cmd = [sys.executable, "-s", str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--pass-index", str(index),
           "--trace", "1" if trace else "0",
           "--deadline", str(max(1, int(deadline - perf_counter())))]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0")
    reference = reference_median()
    start = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env) as proc:
        ready = proc.stdout.readline().split()
        setup = perf_counter() - start
        after = proc.stdout.readline().split()
        rest = proc.stdout.read().strip().splitlines()
    out = {"duration_s": perf_counter() - start, "returncode": proc.returncode}
    if len(ready) == 2 and ready[0] == "ready" and len(after) == 2 and after[0] == "reference":
        out["setup_s"] = setup
        out["setup_reference_s"] = (reference + float(after[1])) / 2
        out["ops"] = int(ready[1])
    if not setup_only and rest and proc.returncode == 0:
        out["result"] = json.loads(rest[-1])
    return out


def run_passes(args) -> tuple[list[dict], list[tuple[float, float]]]:
    """The passes run, and (set-up time, reference timing) per interpreter."""
    start = perf_counter()
    hard_stop = start + HARD_LIMIT_S
    setups = []
    for i in range(SETUP_ONLY_SAMPLES):
        got = spawn(args, i, False, True, hard_stop)
        if "setup_s" not in got:
            return [], []
        setups.append((got["setup_s"], got["setup_reference_s"]))
    budget_end = perf_counter() + args.seconds
    passes: list[dict] = []
    while True:
        now = perf_counter()
        if passes:
            expected = statistics.median(p["duration_s"] for p in passes)
            if now + expected > hard_stop:
                break
            if len(passes) >= MIN_PASSES[args.workload] and now + expected > budget_end:
                break
        traced = bool(args.trace) and len(passes) > 0
        index = len(passes) - 1 if traced else len(passes)
        got = spawn(args, index, traced, False, hard_stop)
        got["traced"] = traced
        passes.append(got)
        if "setup_s" in got:
            setups.append((got["setup_s"], got["setup_reference_s"]))
    return passes, setups


def op_medians_ms(results: list[dict], key: str) -> list[float]:
    """Each operation's median latency in ms over the passes.

    The latency percentiles are taken over these, so that every operation
    weighs the same whatever the number of passes: a pooled percentile
    would move to another operation when a run fits one pass more.
    """
    if not results:
        return []
    return [statistics.median(r[key][k] for r in results) * 1000
            for k in range(len(results[0][key]))]


def median_of(values, pick=statistics.median):
    values = [v for v in values if v is not None]
    return pick(values) if values else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="symcurv benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC_PACKAGE / "__init__.py").is_file():
        print(f"error: package source not found at {SRC_PACKAGE}", file=sys.stderr)
        return 2

    meta = {
        "python": platform.python_version(),
        "commit": commit_id(),
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        "src_lines": source_lines(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    passes, setups = run_passes(args)
    if not setups:
        print("error: no worker finished set-up; see the messages above", file=sys.stderr)
        return 1

    attempted = failed = 0
    failures: list[str] = []
    for p in passes:
        ops = p.get("ops", 1)
        attempted += ops
        if "result" not in p:
            failed += ops
            failures.append(f"pass exited with code {p['returncode']} before reporting")
        else:
            failed += len(p["result"]["failures"])
            failures += p["result"]["failures"]
    done = [p for p in passes if "result" in p]
    for p in done:
        r = p["result"]
        r["scaled_s"] = scaled(r["latencies_s"], r["reference_s"])
        r["scaled_wall_s"] = sum(r["scaled_s"])
    plain = [p["result"] for p in done if not p["traced"]]
    traced = [p["result"] for p in done if p["traced"]]

    print(f"# symcurv benchmark: {json.dumps(meta)}")
    if done:
        print(f"# inputs of the first pass: {json.dumps(done[0]['result']['inputs'])}")
        print(f"# caches after the last pass: {json.dumps(done[-1]['result']['caches'])}")
    print(f"# passes: {len(passes)} ({len(traced)} traced); pass walls (s) as measured: "
          + " ".join(f"{p['result']['wall_s']:.3f}" for p in done)
          + "; at reference speed: "
          + " ".join(f"{p['result']['scaled_wall_s']:.3f}" for p in done))
    references = [x for r in plain + traced for x in r["reference_s"]]
    if references:
        print(f"# reference_work took {statistics.median(references) * 1000:.3f} ms "
              f"(median over operations); times below are scaled to {REFERENCE_S * 1000:g} ms")
    print(f"# attempted {attempted}, failed {failed}, failed_ratio {failed / max(attempted, 1)}")
    for message in failures[:20]:
        print(f"# FAILED {message}", file=sys.stderr)

    metrics: dict = {}
    if not args.trace:
        latencies = op_medians_ms(plain, "scaled_s")
        ops_per_pass = done[0]["ops"] if done else 1
        tail_p = tail_percentile(ops_per_pass * MIN_PASSES[args.workload])
        setup_scaled = [t * REFERENCE_S / ref for t, ref in setups]
        values = {
            "wall_s": median_of(r["scaled_wall_s"] for r in plain),
            "op_p50_ms": percentile(latencies, 50) if latencies else None,
            "op_tail_ms": percentile(latencies, tail_p) if latencies else None,
            "peak_rss_mb": median_of(r["peak_rss_kb"] / 1024 for r in plain),
            "setup_s": statistics.median(setup_scaled),
        }
        raw = op_medians_ms(plain, "latencies_s")
        if raw:
            print(f"# as measured: wall_s {median_of(r['wall_s'] for r in plain):.4f}, "
                  f"op_p50_ms {percentile(raw, 50):.4f}, op_tail_ms {percentile(raw, tail_p):.4f}; "
                  f"setup_s {statistics.median(t for t, _ in setups):.4f}")
        print(f"# op_tail_ms is p{tail_p} of {len(latencies)} operations "
              f"x {len(plain)} passes = {len(latencies) * len(plain)} samples; "
              f"setup_s is the median of {len(setups)} interpreters")
        for name, unit in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
    else:
        overhead = None
        if plain and traced:
            overhead = (statistics.median(r["scaled_wall_s"] for r in traced)
                        - statistics.median(r["scaled_wall_s"] for r in plain))
        for name, unit, _ in LAYER_METRICS:
            value = overhead if name == "trace.overhead_s" else median_of(
                (r["layers"][name] for r in traced), statistics.median_low)
            metrics[name] = {"value": value, "unit": unit}
        if traced:
            print(f"# spans per traced pass: {[r['spans'] for r in traced]}")
    for name, entry in metrics.items():
        value = "absent" if entry["value"] is None else entry["value"]
        print(f"{name:60s} {value} {entry['unit']}")

    correct = failed == 0 and len(done) == len(passes) and bool(done)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
