"""Benchmark of the spectile checker, end to end and per layer.

    python3 bench/run.py --workload spectral_pairs --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from `src/`.
One run sets up the workload several times (fresh import of the program
plus seeded input generation), then repeats whole rounds of the workload's
operations for about `--seconds` seconds (a fixed number of rounds per
workload, from its nominal round length).  Every round starts with the
program's caches cleared, as each `spectile` command-line call starts cold.
After the timed rounds every result is judged by `checks`.

With `--trace 0` the run reports the end-to-end metrics; with `--trace 1`
untraced and traced rounds alternate, and the run reports per-layer self
times and counts from the traced rounds plus the tracing overhead.  The last
line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Raw per-operation timings and spans are written under `bench/out/`.
"""

from __future__ import annotations

import os

# One thread for numpy's libraries too: the benchmark measures one process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import gc
import gzip
import importlib
import io
import json
import resource
import statistics
import sys
import time
import types
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
sys.path.insert(0, str(BENCH_DIR))

import spans  # noqa: E402
import workloads  # noqa: E402

PROGRAM_MODULES = ("cyclotomic", "intervals", "spectra", "ztiling", "vansum", "jsonio", "cli")
SETUP_REPEATS = 5
MIN_OPERATIONS = 1000


def import_program() -> dict:
    """Import the package afresh, as a new process would."""
    for name in [m for m in sys.modules if m == "spectile" or m.startswith("spectile.")]:
        del sys.modules[name]
    return load_program()


def load_program() -> dict:
    """The program's modules by short name ("" is the package)."""
    mods = {"": importlib.import_module("spectile")}
    for name in PROGRAM_MODULES:
        mods[name] = importlib.import_module(f"spectile.{name}")
    return mods


def program_caches(mods: dict) -> list:
    """Every memo the program keeps at module level (anything with cache_clear)."""
    caches = []
    for name, mod in mods.items():
        if not name:
            continue
        for value in vars(mod).values():
            if hasattr(value, "cache_clear") and getattr(value, "__module__", None) == mod.__name__:
                caches.append(value)
    return caches


def resolve(mods: dict, target: str):
    parts = target.split(".")
    obj = mods[parts[0]]
    for part in parts[1:]:
        obj = getattr(obj, part)
    return obj


def run_op(mods: dict, op: workloads.Op, recorder):
    fn = resolve(mods, op.target)
    if op.target != workloads.CLI:
        return fn(*op.args)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            status = fn(*op.args)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            status = exc.code
    text = buf.getvalue()
    if recorder is not None:
        recorder.counts["cli.main.report_bytes"] += len(text.encode())
    return status, text


def run_round(mods: dict, ops: list, caches: list, recorder):
    """(wall seconds, per-op seconds, results) of one pass over the operations."""
    for cache in caches:
        cache.cache_clear()
    gc.collect()
    restore = spans.install(recorder, mods) if recorder is not None else None
    results, times = [], []
    clock = time.perf_counter
    try:
        start = clock()
        for op in ops:
            t0 = clock()
            try:
                result = run_op(mods, op, recorder)
            except Exception as exc:  # a raised error is a result the check judges
                result = exc
            times.append(clock() - t0)
            results.append(result)
        wall = clock() - start
    finally:
        if restore is not None:
            restore()
    return wall, times, results


def same_result(a, b) -> bool:
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and a.args == b.args
    return a == b


def judge(ops: list, rounds: list, mods: dict) -> tuple[int, list]:
    """Number of failed operations over all rounds, and a note for each."""
    import checks  # loads numpy and sympy, so only after peak RSS was read

    notes: list[str] = []

    def verdict(i: int, results: list, r: int) -> bool:
        ctx = types.SimpleNamespace(results=results, program=mods)
        try:
            return bool(getattr(checks, ops[i].check)(ops[i], results[i], ctx))
        except Exception as exc:  # a malformed result fails its check
            notes.append(f"{ops[i].kind}#{i} round {r}: check raised {exc!r}")
            return False

    first = rounds[0]["results"]
    verdicts = [verdict(i, first, 0) for i in range(len(ops))]
    failed = 0
    for r, rnd in enumerate(rounds):
        for i, op in enumerate(ops):
            result = rnd["results"][i]
            ok = verdicts[i] if same_result(result, first[i]) else verdict(i, rnd["results"], r)
            if not ok:
                failed += 1
                notes.append(f"{op.kind}#{i} round {r}: {result!r}"[:400])
    return failed, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "spectile" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        mods = import_program()
        ops = workloads.build(args.workload, mods, args.seed)
        setup_times.append(time.perf_counter() - t0)
    caches = program_caches(mods)

    # Whole rounds only, their number fixed by --seconds (at least enough for
    # MIN_OPERATIONS operations, and one traced round when tracing).
    n_rounds = max(int(args.seconds // workloads.ROUND_SECONDS[args.workload]),
                   -(-MIN_OPERATIONS // len(ops)), 1 + args.trace)
    recorder = spans.SpanRecorder() if args.trace else None
    rounds = []
    for r in range(n_rounds):
        traced = bool(args.trace) and r % 2 == 1
        wall, times, results = run_round(mods, ops, caches, recorder if traced else None)
        rounds.append({"traced": traced, "wall": wall, "times": times, "results": results})
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed, notes = judge(ops, rounds, mods)
    attempted = len(ops) * len(rounds)
    plain = [r for r in rounds if not r["traced"]]
    if args.trace:
        traced_rounds = [r for r in rounds if r["traced"]]
        layers = spans.layer_metrics(recorder, len(traced_rounds))
        metrics = {name: {"value": value, "unit": _unit(name)} for name, value in layers.items()}
        overhead = (statistics.median(r["wall"] for r in traced_rounds)
                    - statistics.median(r["wall"] for r in plain))
        metrics["trace.overhead_ms"] = {"value": overhead * 1e3, "unit": "ms"}
    else:
        latencies = [t * 1e3 for r in plain for t in r["times"]]
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "wall_s": {"value": statistics.median(r["wall"] for r in plain), "unit": "s"},
            "op_p50_ms": {"value": statistics.median(latencies), "unit": "ms"},
            "op_p99_ms": {"value": statistics.quantiles(latencies, n=100)[98], "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    write_raw(args, ops, rounds, setup_times, notes, recorder)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_ms") or "self_ms" in name:
        return "ms"
    if name.endswith("repeat_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def write_raw(args, ops, rounds, setup_times, notes, recorder) -> None:
    """Per-operation timings, failures and (when tracing) spans, for inspection."""
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    raw = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "setup_s": setup_times,
        "rounds": [{"traced": r["traced"], "wall_s": r["wall"]} for r in rounds],
        "ops": [{"kind": op.kind, "ms": [r["times"][i] * 1e3 for r in rounds]}
                for i, op in enumerate(ops)],
        "failures": notes,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(raw))
    if recorder is not None:
        with gzip.open(OUT_DIR / f"{stem}-spans.json.gz", "wt") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent"],
                       "dropped": recorder.dropped, "spans": recorder.spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
