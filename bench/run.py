"""End-to-end serving benchmark: four workloads, seven metrics, one trace.

Run from the repository root::

    python bench/run.py --seed 1                        # all four workloads
    python bench/run.py --seed 1 --workload bulk-quac   # one workload
    python bench/run.py --seed 1 --trace                # per-layer metrics
    python bench/run.py --seed 1 --smoke                # about 1 s per workload

Each workload runs in a fresh ``python bench/workloads.py`` process with
``PYTHONPATH`` set to ``--src`` (default: ``src`` next to this
directory) and one thread for numeric libraries, so the only threads are
the caller and the pool's refill thread.  End-to-end metrics come from
untraced runs only.  ``--trace`` first makes the untraced run, then a
traced one, and reports the per-layer metrics plus ``trace.overhead``:
the traced headline over the untraced one, minus 1.

Every metric is printed by name with its unit.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a record of each run is also written to
``--out``.  The exit code is 0 only when every output check passed, and
2, with no result printed, when the sources under test are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Dict, List, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SMOKE_SECONDS = 1.0
#: Seconds a workload process may take beyond twice its measured window.
CHILD_SLACK_S = 45.0
CHILD_MIN_TIMEOUT_S = 85.0


def load_spec() -> dict:
    """``BENCHMARK.json``: the workload names and the measured window length."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def child(
    workload: str, seed: int, seconds: float, trace: bool, smoke: bool, src: str, out: str
) -> dict:
    """Run one workload in a fresh process; its run record."""
    command = [
        sys.executable,
        os.path.join(BENCH_DIR, "workloads.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", repr(seconds),
        "--out", out,
    ]
    if trace:
        command.append("--trace")
    if smoke:
        command += ["--setups", "1"]
    env = dict(os.environ)
    env.update(
        PYTHONPATH=src,
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    timeout = max(CHILD_MIN_TIMEOUT_S, 2 * seconds + CHILD_SLACK_S)
    done = subprocess.run(
        command, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout, check=False
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} run failed with exit code {done.returncode}")
    return json.loads(lines[-1])


def trace_overhead(untraced: dict, traced: dict) -> float:
    """How much tracing slowed the workload's headline metric (0.1 = 10%)."""
    if untraced["open_loop"]:
        name = "latency_p50_ms"
        return traced["metrics"][name]["value"] / untraced["metrics"][name]["value"] - 1.0
    name = "throughput_mbps"
    return untraced["metrics"][name]["value"] / traced["metrics"][name]["value"] - 1.0


def measure(workload: str, args: argparse.Namespace) -> dict:
    """One workload's result: untraced, or untraced then traced."""
    untraced = child(workload, args.seed, args.seconds, False, args.smoke, args.src, args.out)
    if not args.trace:
        return untraced
    traced = child(workload, args.seed, args.seconds, True, args.smoke, args.src, args.out)
    traced["layers"]["trace.overhead"] = {
        "value": trace_overhead(untraced, traced),
        "unit": args.units["trace.overhead"],
    }
    traced["correct"] = untraced["correct"] and traced["correct"]
    traced["problems"] = untraced["problems"] + traced["problems"]
    traced["metrics"] = traced.pop("layers")
    return traced


def report(result: dict) -> None:
    """Print one workload's metrics by name, with units, and its checks."""
    info = result["info"]
    mode = "traced" if result["trace"] else "untraced"
    verdict = "correct" if result["correct"] else "INCORRECT: " + "; ".join(result["problems"])
    print(f"{result['workload']}  seed={result['seed']}  {result['seconds']:g} s  {mode}  {verdict}")
    for name, metric in result["metrics"].items():
        print(f"  {name:34s} {metric['value']:14.6g} {metric['unit']}")
    supported = info["supported_percentile"]
    print(
        f"  latency samples {info['latency_samples']}"
        f" (highest supported percentile: {supported if supported is not None else 'none'})"
        f"  attempted={result['attempted']} failed={result['failed']}"
        f"  outcomes={info['outcomes']}"
    )
    print(
        f"  ones_ratio={info['ones_ratio']:.5f}  alarms={info['alarms']}"
        f"  recoveries={info['recoveries']}  lag_p99_ms={info['lag_p99_ms']:.4f}"
    )
    if "stream_sha256" in info:
        print(f"  stream_sha256 {info['stream_sha256']}")
    for thread, shares in info.get("self_share_by_thread", {}).items():
        ranked = sorted(shares.items(), key=lambda item: -item[1])
        print(f"  self share on {thread} thread: " + ", ".join(
            f"{layer} {share:.3f}" for layer, share in ranked
        ))


def parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", choices=names, help="default: all of them")
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="report per-layer metrics from an extra traced run",
    )
    parser.add_argument("--smoke", action="store_true", help="about 1 s per workload")
    parser.add_argument("--out", default=os.path.join(BENCH_DIR, "out"))
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = SMOKE_SECONDS
    elif args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    args.workloads = [args.workload] if args.workload else names
    args.units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    args.src = os.path.abspath(args.src)
    args.out = os.path.abspath(args.out)
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse(argv)
    if not os.path.isfile(os.path.join(args.src, "repro", "__init__.py")):
        print(f"no sources to benchmark under {args.src}", file=sys.stderr)
        return 2
    os.makedirs(args.out, exist_ok=True)
    results = []
    for workload in args.workloads:
        try:
            result = measure(workload, args)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"{workload}: {exc}", file=sys.stderr)
            return 1
        report(result)
        result["recorded_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        suffix = "-trace" if result["trace"] else ""
        path = os.path.join(args.out, f"{workload}-seed{args.seed}{suffix}.json")
        with open(path, "w") as handle:
            json.dump(result, handle, indent=1)
        results.append(result)
    if len(results) == 1:
        metrics: Dict[str, dict] = results[0]["metrics"]
    else:
        metrics = {
            f"{r['workload']}/{name}": metric
            for r in results
            for name, metric in r["metrics"].items()
        }
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
