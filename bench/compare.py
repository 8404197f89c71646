"""Compare a parent and a change by the benchmark's own bounds.

Two ways to run it, from the repository root::

    python bench/compare.py PARENT_DIR CHANGE_DIR
    python bench/compare.py --pairs 10 PARENT_SRC CHANGE_SRC [--workload NAME]

The first reads the untraced run records ``bench/run.py`` wrote to two
``--out`` directories.  The second makes them: for each of N seeds it
runs this checkout's ``bench/run.py`` against both source trees (each a
``src`` directory), alternating which side runs first, then compares.
It writes into a new directory and refuses one that already holds
records, so no earlier comparison's runs are mixed in.

For every end-to-end metric of ``BENCHMARK.json`` and every workload it
prints each side's median and quartiles, the share of seed-paired runs
the change wins (ties count for neither side), and one verdict:

* ``improved``   the change wins at least 9 in 10 pairs, and its median
  is better by more than the parent's inter-quartile distance;
* ``regressed``  the change's median is worse than the parent's by more
  than the metric's bound (a share of the parent's median);
* ``unresolved`` either side's inter-quartile distance, as a share of its
  median, exceeds the bound, and not every change run beats every
  parent run;
* ``no worse``   otherwise.

It also counts paired runs whose ``stream_sha256`` differs.  The exit
code is 1 when any verdict is ``regressed``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import percentiles

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WIN_SHARE = 0.9

Records = Dict[Tuple[str, int], dict]


@dataclass(frozen=True)
class Judgement:
    """One metric on one workload, parent against change."""

    parent: Tuple[float, float, float]
    change: Tuple[float, float, float]
    win_share: float
    verdict: str


def judge(
    parent: Sequence[float], change: Sequence[float], better: str, bound: float
) -> Judgement:
    """The verdict for values paired by position (``parent[i]`` with ``change[i]``)."""
    sign = 1.0 if better == "higher" else -1.0
    p = percentiles.quartiles(parent)
    c = percentiles.quartiles(change)
    wins = sum(1 for a, b in zip(parent, change) if sign * (b - a) > 0)
    win_share = wins / min(len(parent), len(change))
    gain = sign * (c[1] - p[1])
    scale = abs(p[1]) or 1.0
    if win_share >= WIN_SHARE and gain > p[2] - p[0]:
        verdict = "improved"
    elif -gain / scale > bound:
        verdict = "regressed"
    elif max(percentiles.relative_spread(parent), percentiles.relative_spread(change)) > bound and (
        min(sign * v for v in change) <= max(sign * v for v in parent)
    ):
        verdict = "unresolved"
    else:
        verdict = "no worse"
    return Judgement(p, c, win_share, verdict)


def load(directory: str) -> Records:
    """Untraced run records in ``directory``, keyed by (workload, seed)."""
    records: Records = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as handle:
            record = json.load(handle)
        if isinstance(record, dict) and not record.get("trace", True):
            records[(record["workload"], int(record["seed"]))] = record
    return records


def pair(parent: Records, change: Records, workload: str) -> List[Tuple[dict, dict]]:
    """Runs of ``workload`` paired by seed; by seed order when no seed is shared."""
    p = {seed: r for (w, seed), r in parent.items() if w == workload}
    c = {seed: r for (w, seed), r in change.items() if w == workload}
    shared = sorted(set(p) & set(c))
    if shared:
        return [(p[s], c[s]) for s in shared]
    return list(zip((p[s] for s in sorted(p)), (c[s] for s in sorted(c))))


def compare(parent: Records, change: Records, spec: dict) -> int:
    """Print the comparison table; the number of regressed verdicts."""
    workloads = [w["name"] for w in spec["workloads"]]
    regressed = 0
    print(
        f"{'workload':12s} {'metric':16s} {'parent median [q1, q3]':>34s} "
        f"{'change median [q1, q3]':>34s} {'wins':>5s}  verdict"
    )
    for workload in workloads:
        pairs = pair(parent, change, workload)
        if not pairs:
            print(f"{workload:12s} no paired runs")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p_values = [a["metrics"][name]["value"] for a, _ in pairs]
            c_values = [b["metrics"][name]["value"] for _, b in pairs]
            j = judge(p_values, c_values, metric["better"], metric["bound"])
            regressed += j.verdict == "regressed"
            print(
                f"{workload:12s} {name:16s} "
                f"{j.parent[1]:12.5g} [{j.parent[0]:9.5g}, {j.parent[2]:9.5g}] "
                f"{j.change[1]:12.5g} [{j.change[0]:9.5g}, {j.change[2]:9.5g}] "
                f"{j.win_share:5.2f}  {j.verdict}"
            )
        streams = [
            (a["info"].get("stream_sha256"), b["info"].get("stream_sha256")) for a, b in pairs
        ]
        streams = [(a, b) for a, b in streams if a is not None and b is not None]
        if streams:
            differ = sum(a != b for a, b in streams)
            print(f"{workload:12s} stream_sha256 differs in {differ} of {len(streams)} pairs")
    return regressed


def run_pairs(
    n: int, sources: Dict[str, str], out: str, seed: int, workload: Optional[str]
) -> None:
    """Run both sides on ``n`` seeds, alternating which side goes first."""
    sides = ["parent", "change"]
    for i in range(n):
        order = sides if i % 2 == 0 else sides[::-1]
        for side in order:
            command = [
                sys.executable, os.path.join(BENCH_DIR, "run.py"),
                "--seed", str(seed + i),
                "--src", sources[side],
                "--out", os.path.join(out, side),
            ]
            if workload:
                command += ["--workload", workload]
            print(f"pair {i + 1}/{n}: {side}", file=sys.stderr)
            done = subprocess.run(command, stdout=subprocess.DEVNULL, check=False)
            if done.returncode != 0:
                raise SystemExit(f"{side} run on seed {seed + i} failed ({done.returncode})")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("parent", help="result directory, or a src tree with --pairs")
    parser.add_argument("change", help="result directory, or a src tree with --pairs")
    parser.add_argument("--pairs", type=int, help="run N seed pairs first")
    parser.add_argument("--seed", type=int, default=1, help="first seed of --pairs")
    parser.add_argument("--workload", help="only this workload (with --pairs)")
    parser.add_argument(
        "--out",
        help="where --pairs writes its runs; must hold no records yet"
        " (default: a new bench/out/compare-<UTC time>)",
    )
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    parent_dir, change_dir = args.parent, args.change
    if args.pairs:
        out = args.out or os.path.join(
            BENCH_DIR, "out", time.strftime("compare-%Y%m%dT%H%M%SZ", time.gmtime())
        )
        parent_dir = os.path.join(out, "parent")
        change_dir = os.path.join(out, "change")
        if glob.glob(os.path.join(parent_dir, "*.json")) or glob.glob(
            os.path.join(change_dir, "*.json")
        ):
            parser.error(f"{out} already holds run records; give --pairs a fresh --out")
        sources = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
        run_pairs(args.pairs, sources, out, args.seed, args.workload)
    regressed = compare(load(parent_dir), load(change_dir), spec)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
