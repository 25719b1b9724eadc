#!/usr/bin/env python3
"""CosmicDance benchmark: one command for every workload.

Run from the repository root::

    python3 bench/run.py                      # every workload, seed 0
    python3 bench/run.py --workload batch --seed 3 --seconds 15 --trace 0
    python3 bench/run.py --trace              # also a traced run per workload

Each workload runs in a fresh interpreter.  A run prints every metric as
``<workload> <metric> <value> <unit> (n=<samples>)``, writes its details
to ``bench/out/``, checks the program's outputs and ends with one JSON
line ``{"correct", "attempted", "failed", "metrics"}``.  Untraced runs
report the end-to-end metrics of ``BENCHMARK.json``; traced runs
(``--trace``) report its per-layer metrics and write their spans to
``bench/out/trace-<workload>.jsonl``.  The exit code is 1 when any
operation or check failed.  See ``bench/README.md``.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402  (the clock above starts before any import)
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SPEC = ROOT / "BENCHMARK.json"
BASELINE = BENCH / "baseline.json"

import data  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

#: Absolute floors under the relative bounds of ``BENCHMARK.json``: a
#: metric never counts as worse by less than this.
FLOORS = {"setup_s": 0.1, "peak_rss_mb": 5.0, "light_op_ms": 0.5}

#: Longest a workload's interpreter may run in the all-workloads mode.
CHILD_TIMEOUT_S = 900

#: Latency metric -> the operation kind it summarises.
OP_KINDS = {"heavy_op_ms": "heavy", "light_op_ms": "light"}


# --- statistics ----------------------------------------------------------------
def tail_percentile(n: int) -> float | None:
    """The highest of p90/p99/p99.9 with at least ten samples beyond it."""
    supported = [p for p in (90.0, 99.0, 99.9) if n * (100.0 - p) / 100.0 >= 10.0 - 1e-9]
    return supported[-1] if supported else None


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def regressed(base: float, new: float, better: str, bound: float, floor: float = 0.0) -> bool:
    """Whether *new* is worse than *base* by more than the relative
    *bound* and by more than the absolute *floor*."""
    worse = new - base if better == "lower" else base - new
    return worse > max(bound * abs(base), floor)


# --- one workload, in this interpreter -------------------------------------------
def end_to_end(run: "workloads.Run") -> dict[str, tuple[float, int]]:
    """``metric -> (value, samples)`` from an untraced run."""
    heavy, light = run.samples["heavy"], run.samples["light"]
    operations, seconds = run.throughput
    return {
        "heavy_op_ms": (1000.0 * statistics.median(heavy), len(heavy)),
        "light_op_ms": (1000.0 * statistics.median(light), len(light)),
        "ops_per_s": (operations / seconds, operations),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "setup_s": (run.setup_s, 1),
    }


def per_layer(run: "workloads.Run") -> dict[str, tuple[float, int]]:
    """``metric -> (value, timed operations)`` from a traced run."""
    values = spans.layer_metrics(run.recorder, run.measured)
    for name in ("io.stage_cache_mb", "serve.busy_pct", "serve.queue_wait_pct",
                 "serve.coalesced", "serve.rejected"):
        values[name] = run.layer.get(name, 0.0)
    values["trace.heavy_op_ms"] = 1000.0 * statistics.median(run.samples["heavy"])
    values["trace.timed_s"] = run.measured
    operations = sum(map(len, run.samples.values()))
    return {name: (value, operations) for name, value in values.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload here; returns its detail record."""
    import repro  # noqa: F401  (bind every public name before wrapping)
    import repro.cli  # noqa: F401

    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "tmp").mkdir(exist_ok=True)
    scratch = pathlib.Path(tempfile.mkdtemp(dir=OUT / "tmp", prefix=f"{name}-"))
    recorder = spans.Recorder() if trace else None
    run = workloads.Run(seconds, STARTED, scratch, recorder)
    with run.loading():
        inputs = data.inputs_dir(seed)
    patch = spans.install(recorder) if trace else None
    try:
        workloads.WORKLOADS[name](run, inputs, seed)
    finally:
        if patch is not None:
            patch.restore()
        shutil.rmtree(scratch, ignore_errors=True)
    if run.reference is not None:
        others = data.record_digest(inputs, name, run.reference)
        for other, digest in others.items():
            run.check(f"{name} digest == {other} digest on the same inputs",
                      digest == run.reference)
    if trace:
        recorder.dump(OUT / f"trace-{name}.jsonl")
    metrics = per_layer(run) if trace else end_to_end(run)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "reference_digest": run.reference,
        "metrics": {key: {"value": value, "n": n} for key, (value, n) in metrics.items()},
        "samples_ms": {
            kind: [1000.0 * s for s in samples] for kind, samples in run.samples.items()
        },
        "layers_s_per_op": spans.op_breakdown(recorder.spans) if trace else {},
    }


def metric_specs(spec: dict, trace: bool) -> list[dict]:
    return spec["per_layer" if trace else "end_to_end"]


def report_lines(detail: dict, spec: dict) -> list[str]:
    """One line per metric, with its sample count and, for a latency with
    enough samples, the highest percentile they support."""
    lines = []
    name = detail["workload"]
    for metric in metric_specs(spec, detail["trace"]):
        entry = detail["metrics"][metric["name"]]
        line = f"{name} {metric['name']} {entry['value']:.6g} {metric['unit']} (n={entry['n']})"
        samples = detail["samples_ms"].get(OP_KINDS.get(metric["name"]), [])
        tail = tail_percentile(len(samples))
        if tail is not None:
            line += f" p{tail:g}={percentile(samples, tail):.6g}"
        lines.append(line)
    attempted = max(1, detail["attempted"])
    lines.append(
        f"{name} failed_ratio {detail['failed'] / attempted:.6g} ratio (n={attempted})"
    )
    lines.extend(f"{name} FAILED {failure}" for failure in detail["failures"])
    return lines


def result_line(detail: dict, spec: dict) -> str:
    metrics = {
        metric["name"]: {
            "value": detail["metrics"][metric["name"]]["value"],
            "unit": metric["unit"],
        }
        for metric in metric_specs(spec, detail["trace"])
    }
    return json.dumps({
        "correct": detail["failed"] == 0,
        "attempted": max(1, detail["attempted"]),
        "failed": detail["failed"],
        "metrics": metrics,
    })


def detail_path(name: str, seed: int, trace: bool) -> pathlib.Path:
    return OUT / f"{name}-seed{seed}{'-trace' if trace else ''}.json"


# --- every workload, each in a fresh interpreter -----------------------------------
def run_all(names: list[str], args, spec: dict) -> int:
    """Run each workload in its own interpreter (untraced, and traced too
    with ``--trace``) and print every metric; 1 when anything failed."""
    results: dict[str, dict[str, dict]] = {}
    broken = 0  # runs that raised or printed no result
    for name in names:
        for trace in ([False, True] if args.trace else [False]):
            command = [sys.executable, str(pathlib.Path(__file__).resolve()),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(int(trace))]
            path = detail_path(name, args.seed, trace)
            path.unlink(missing_ok=True)
            child = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                                   timeout=CHILD_TIMEOUT_S)
            if child.returncode not in (0, 1) or not path.exists():
                broken += 1
                print(f"{name} ERROR exit {child.returncode}\n{child.stderr[-2000:]}",
                      file=sys.stderr)
                continue
            detail = json.loads(path.read_text())
            results.setdefault(name, {})["trace" if trace else "plain"] = detail
            print("\n".join(report_lines(detail, spec)), flush=True)
        pair = results.get(name, {})
        if "trace" in pair and "plain" in pair:
            plain = pair["plain"]["metrics"]["heavy_op_ms"]["value"]
            traced = pair["trace"]["metrics"]["trace.heavy_op_ms"]["value"]
            print(f"{name} trace.overhead_pct {100.0 * (traced / plain - 1.0):.3g} % (n=1)")
    for note in compare_baseline(results, spec):
        print(note)
    out = pathlib.Path(args.out) if args.out else OUT / f"results-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n")
    details = [detail for pair in results.values() for detail in pair.values()]
    failed = broken + sum(detail["failed"] for detail in details)
    unit = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(1, broken + sum(detail["attempted"] for detail in details)),
        "failed": failed,
        "metrics": {
            f"{detail['workload']}.{metric}": {"value": entry["value"], "unit": unit[metric]}
            for detail in details
            for metric, entry in detail["metrics"].items()
        },
    }))
    return 1 if failed else 0


def compare_baseline(results: dict, spec: dict) -> list[str]:
    """Lines naming each end-to-end metric worse than ``baseline.json``'s
    median by more than its bound (and floor).  Baselines are measured
    on one machine, so this is a hint, never a failure."""
    if not BASELINE.exists():
        return []
    baseline = json.loads(BASELINE.read_text())
    notes = []
    for name, pair in results.items():
        plain = pair.get("plain")
        recorded = baseline.get("workloads", {}).get(name)
        if plain is None or recorded is None:
            continue
        for metric in spec["end_to_end"]:
            base = recorded.get(metric["name"], {}).get("median")
            new = plain["metrics"][metric["name"]]["value"]
            if base is not None and regressed(base, new, metric["better"], metric["bound"],
                                              FLOORS.get(metric["name"], 0.0)):
                notes.append(f"{name} {metric['name']} {new:.6g} is worse than the "
                             f"baseline median {base:.6g} (nproc {baseline.get('nproc')})")
    return notes


# --- entry point -------------------------------------------------------------------
def parse_args(argv: list[str] | None, spec: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=list(workloads.WORKLOADS),
                        help="workload to run (repeatable; default: every workload)")
    parser.add_argument("--seed", type=int, default=0, help="scenario seed")
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="measured seconds per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="report per-layer metrics from a traced run")
    parser.add_argument("--out", default=None, help="JSON file for the results")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    spec = json.loads(SPEC.read_text())
    args = parse_args(argv, spec)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = args.workload or list(workloads.WORKLOADS)
    if len(names) > 1 or args.workload is None:
        return run_all(names, args, spec)
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    name = names[0]
    try:
        detail = run_workload(name, args.seed, args.seconds, bool(args.trace))
    except Exception:
        traceback.print_exc()
        print(f"error: workload {name} raised; no result", file=sys.stderr)
        return 1
    path = pathlib.Path(args.out) if args.out else detail_path(name, args.seed, bool(args.trace))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(detail, indent=1) + "\n")
    print("\n".join(report_lines(detail, spec)))
    print(result_line(detail, spec), flush=True)
    return 0 if detail["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
