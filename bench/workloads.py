"""The benchmark's four workloads, one run per fresh process.

``bench/run.py`` is the entry point; it starts this module once per
workload with ``PYTHONPATH`` pointing at the sources under test::

    PYTHONPATH=src python bench/workloads.py --workload bulk-drange --seed 1 --seconds 20

A run sets the stack up several times (``setup_s`` is the median),
measures the last stack for ``--seconds``, checks every response, and
prints one JSON run record as the last line of standard output.  With
``--trace`` it also wraps each layer's public methods (see
``spans.py``), enables ``repro.obs`` for its counters, writes the spans
to ``<out>/<workload>.spans.jsonl`` and adds the per-layer metrics.

``--seed`` seeds the arrival gaps, the tenant mix and the device's
``noise_seed``.  The chip itself is fixed: ``master_seed=2019``,
manufacturer A.  The program under test sees only the generated inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

import percentiles
import spans

from repro import obs
from repro.backends.quac import QuacBackend
from repro.core.drange import BackendSampler, DRange
from repro.core.integration import DRangeService, RecoveryPolicy
from repro.core.profiling import Region
from repro.core.sampler import DRangeSampler
from repro.dram.device import DeviceFactory
from repro.drbg import HashDrbg
from repro.errors import QuotaExceededError, ServingError
from repro.faults import BiasDriftFault, FaultInjector
from repro.health import HealthMonitor
from repro.serving import (
    AdmissionController,
    BufferedRngService,
    DegradedPolicy,
    EntropyPool,
    TenantQuota,
)

MASTER_SEED = 2019
MANUFACTURER = "A"
REGION = Region(banks=(0, 1), row_start=0, row_count=256)
PREPARE_ITERATIONS = 100
#: Recovery re-identifies over a small region so that a stall stays
#: short; the policy of ``benchmarks/bench_service.py``.
RECOVERY = RecoveryPolicy(
    max_retries=3,
    region=Region(banks=(0,), row_start=0, row_count=64),
    iterations=40,
    identify_samples=400,
    max_cells=128,
)

#: Open loop: the paper's 64-bit request (Section 7.3) at a fixed rate.
OPEN_RATE_RPS = 10_000
SMALL_BITS = 64
DEADLINE_S = 0.010
OPEN_WARMUP_REQUESTS = 1_000
#: fault-open: share of requests from the rate-limited tenant, and the
#: share of that tenant's offered load its quota grants.
LIMITED_SHARE = 0.10
LIMITED_QUOTA_FACTOR = 0.25
#: fault-open: (share of the arrival schedule, fault window length in
#: harvested bits) of each injected bias-drift fault.
FAULT_WINDOWS = ((0.25, 60_000), (0.60, 60_000))
DEGRADED = DegradedPolicy(budget_bits=1 << 21, max_pool_wait_s=0.002)

#: Closed loop: one client, 64 Kib requests into one reused buffer.
BULK_BITS = 1 << 16
BULK_DEADLINE_S = 5.0
BULK_WARMUP_REQUESTS = 8
#: Served bits hashed into ``stream_sha256`` on the closed-loop workloads,
#: whose stream is a pure function of the seed.
STREAM_HASH_BITS = 1 << 20

#: Setups per run; ``setup_s`` is their median.  ``prepare`` alone varies
#: by up to 1.7x between identical calls on a shared 2-vCPU machine, so
#: the median needs five to stay put when two of them are slow.
SETUP_REPEATS = 5
#: A value no served bit can take; buffers hold it before each request.
SENTINEL = 0xA5
ONES_TOLERANCE = 0.01
#: The caller and the pool's refill thread.
MAX_THREADS = 2

SPEC_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")
with open(SPEC_PATH) as _handle:
    _spec = json.load(_handle)
#: Unit of every metric, by name; ``BENCHMARK.json`` is the one list of metrics.
UNITS: Dict[str, str] = {m["name"]: m["unit"] for m in _spec["end_to_end"] + _spec["per_layer"]}


@dataclass(frozen=True)
class Workload:
    """One fixed traffic shape over one backend."""

    name: str
    backend: str
    open_loop: bool
    faults: bool = False


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("small-open", "drange", open_loop=True),
        Workload("bulk-drange", "drange", open_loop=False),
        Workload("bulk-quac", "quac", open_loop=False),
        Workload("fault-open", "drange", open_loop=True, faults=True),
    )
}

# Outcomes of one open-loop request.
POOL, DEGRADED_SERVED, REFUSED, SHED, ERROR = 1, 2, 3, 4, 5


@dataclass
class Stack:
    """Everything one setup builds."""

    device: object
    injector: Optional[FaultInjector]
    service: DRangeService
    buffered: BufferedRngService
    sim_mbps: float


@dataclass
class Run:
    """What one measured window produced."""

    attempted: int
    elapsed_s: float
    #: Latency of each served request.
    latencies_s: np.ndarray
    request_bits: int
    deadline_s: float
    outcomes: Dict[str, int]
    pool_ones: int
    pool_bits: int
    unfilled: int
    errors: List[str]
    lag_s: np.ndarray
    caller_thread: int
    threads_seen: int
    stream_sha256: Optional[str] = None

    @property
    def served(self) -> int:
        return int(self.latencies_s.size)

    @property
    def failed(self) -> int:
        """Requests that did not get their bits, quota refusals excepted.

        Refusing the over-quota tenant is the answer the admission layer
        owes it; refusing the unmetered one is a failure.
        """
        owed = self.outcomes.get("refused", 0) - self.outcomes.get("refused_unmetered", 0)
        return self.attempted - self.served - owed


def build(workload: Workload, seed: int) -> Stack:
    """Device, ``prepare``, service, precharge and warm-up."""
    device = DeviceFactory(master_seed=MASTER_SEED, noise_seed=seed).make_device(
        MANUFACTURER, 0
    )
    injector = FaultInjector(device) if workload.faults else None
    drange = DRange(injector if injector is not None else device, backend=workload.backend)
    if not drange.prepare(region=REGION, iterations=PREPARE_ITERATIONS):
        raise RuntimeError("prepare identified no harvest sites")
    sim_mbps = drange.estimated_throughput_mbps()
    if workload.open_loop:
        service = DRangeService(health_monitor=HealthMonitor(), drange=drange, recovery=RECOVERY)
        quotas = {}
        if workload.faults:
            quotas["limited"] = TenantQuota(
                rate_bits_per_s=OPEN_RATE_RPS * LIMITED_SHARE * SMALL_BITS * LIMITED_QUOTA_FACTOR,
                burst_bits=4.0 * SMALL_BITS,
            )
        buffered = BufferedRngService(
            service,
            clock=time.monotonic,
            default_deadline_s=DEADLINE_S,
            quotas=quotas,
            degraded=DEGRADED if workload.faults else None,
        )
        buffered.start()
        for _ in range(OPEN_WARMUP_REQUESTS):
            buffered.request(SMALL_BITS)
        # Start the measured window from a full pool.  The warm-up can
        # leave the level between the watermarks, where the refill thread
        # stays idle, so stop it, top the pool up, and start it again.
        buffered.stop()
        buffered.start()
    else:
        service = DRangeService(
            health_monitor=HealthMonitor(),
            drange=drange,
            recovery=RECOVERY,
            queue_bits=1 << 17,
            refill_batch_bits=BULK_BITS,
        )
        buffered = BufferedRngService(
            service,
            capacity_bits=1 << 18,
            refill_batch_bits=BULK_BITS,
            clock=time.monotonic,
            default_deadline_s=BULK_DEADLINE_S,
        )
        buffered.start(background=False)
        out = np.empty(BULK_BITS, dtype=np.uint8)
        for _ in range(BULK_WARMUP_REQUESTS):
            buffered.request(BULK_BITS, out=out)
    return Stack(device, injector, service, buffered, sim_mbps)


def drive_open(stack: Stack, workload: Workload, seed: int, seconds: float) -> Run:
    """Seeded Poisson arrivals; latency runs from each request's due time."""
    rng = np.random.default_rng([seed, 1])
    n = max(int(OPEN_RATE_RPS * seconds), 1)
    due = np.cumsum(rng.exponential(1.0 / OPEN_RATE_RPS, n)).tolist()
    limited = (rng.random(n) < LIMITED_SHARE) if workload.faults else np.zeros(n, dtype=bool)
    tenants = ["limited" if flag else "default" for flag in limited.tolist()]
    faults_at = {int(n * share): bits for share, bits in FAULT_WINDOWS} if workload.faults else {}
    served = np.full((n, SMALL_BITS), SENTINEL, dtype=np.uint8)
    latency = np.full(n, np.nan)
    lag = np.zeros(n)
    outcome = np.zeros(n, dtype=np.int8)
    errors: List[str] = []
    request = stack.buffered.request
    clock = time.perf_counter
    start = clock()
    for i in range(n):
        window_bits = faults_at.get(i)
        if window_bits is not None:
            injector = stack.injector
            injector.inject(
                BiasDriftFault(target=1, rate_per_bit=1e-3),
                end_bit=injector.bits_elapsed + window_bits,
            )
        scheduled = start + due[i]
        now = clock()
        if scheduled > now:
            time.sleep(scheduled - now)
            now = clock()
        # A request sent late still goes out, with its deadline counted
        # from the send; the lateness itself lands in its latency.
        lag[i] = now - scheduled
        try:
            result = request(SMALL_BITS, tenant=tenants[i], out=served[i])
        except QuotaExceededError:
            outcome[i] = REFUSED
            continue
        except ServingError:
            outcome[i] = SHED
            continue
        except Exception:  # noqa: BLE001 - counted and reported, the run goes on
            errors.append(traceback.format_exc())
            outcome[i] = ERROR
            continue
        latency[i] = clock() - scheduled
        outcome[i] = DEGRADED_SERVED if result.degraded else POOL
    elapsed = clock() - start
    threads = threading.active_count()
    is_served = (outcome == POOL) | (outcome == DEGRADED_SERVED)
    pool_rows = served[outcome == POOL]
    counts = {
        name: int(np.count_nonzero(outcome == code))
        for name, code in (
            ("pool", POOL), ("degraded", DEGRADED_SERVED), ("refused", REFUSED),
            ("shed", SHED), ("error", ERROR),
        )
    }
    counts["refused_unmetered"] = int(np.count_nonzero((outcome == REFUSED) & ~limited))
    return Run(
        attempted=n,
        elapsed_s=elapsed,
        latencies_s=latency[is_served],
        request_bits=SMALL_BITS,
        deadline_s=DEADLINE_S,
        outcomes=counts,
        pool_ones=int(np.count_nonzero(pool_rows)),
        pool_bits=int(pool_rows.size),
        unfilled=int(np.count_nonzero(served[is_served] > 1)),
        errors=errors,
        lag_s=lag,
        caller_thread=threading.get_ident(),
        threads_seen=threads,
    )


def drive_closed(stack: Stack, seconds: float) -> Run:
    """One client, back-to-back 64 Kib requests into one reused buffer."""
    out = np.empty(BULK_BITS, dtype=np.uint8)
    head = np.empty(STREAM_HASH_BITS, dtype=np.uint8)
    head_filled = 0
    latencies: List[float] = []
    errors: List[str] = []
    shed = unfilled = ones = 0
    request = stack.buffered.request
    clock = time.perf_counter
    start = clock()
    stop = start + seconds
    while True:
        out.fill(SENTINEL)
        sent = clock()
        if sent >= stop:
            break
        try:
            request(BULK_BITS, out=out)
        except ServingError:
            shed += 1
            continue
        except Exception:  # noqa: BLE001 - counted and reported, the run goes on
            errors.append(traceback.format_exc())
            continue
        latencies.append(clock() - sent)
        unfilled += int(np.count_nonzero(out > 1))
        ones += int(np.count_nonzero(out))
        if head_filled < STREAM_HASH_BITS:
            take = min(BULK_BITS, STREAM_HASH_BITS - head_filled)
            head[head_filled : head_filled + take] = out[:take]
            head_filled += take
    elapsed = clock() - start
    served = len(latencies)
    stream = None
    if head_filled == STREAM_HASH_BITS:
        stream = hashlib.sha256(np.packbits(head).tobytes()).hexdigest()
    return Run(
        attempted=served + shed + len(errors),
        elapsed_s=elapsed,
        latencies_s=np.asarray(latencies),
        request_bits=BULK_BITS,
        deadline_s=BULK_DEADLINE_S,
        outcomes={"pool": served, "shed": shed, "error": len(errors)},
        pool_ones=ones,
        pool_bits=served * BULK_BITS,
        unfilled=unfilled,
        errors=errors,
        lag_s=np.zeros(1),
        caller_thread=threading.get_ident(),
        threads_seen=threading.active_count(),
        stream_sha256=stream,
    )


def checks(workload: Workload, run: Run, alarms: int) -> List[str]:
    """Every way this run's outputs can be wrong; empty when correct."""
    problems = []
    if run.errors:
        problems.append(f"{len(run.errors)} unhandled exceptions")
    if run.unfilled:
        problems.append(f"{run.unfilled} served bits outside {{0,1}} (sentinel left)")
    if not run.served:
        problems.append("no request was served")
    elif run.pool_bits:
        ratio = run.pool_ones / run.pool_bits
        if abs(ratio - 0.5) > ONES_TOLERANCE:
            problems.append(f"ones ratio {ratio:.4f} outside 0.5 +- {ONES_TOLERANCE}")
    if run.threads_seen > MAX_THREADS:
        problems.append(f"{run.threads_seen} threads alive, expected at most {MAX_THREADS}")
    if workload.faults:
        if run.outcomes.get("refused_unmetered", 0):
            problems.append("the unmetered tenant was refused by quota")
        if not run.outcomes.get("refused", 0):
            problems.append("the over-quota tenant was never refused")
        if not alarms:
            problems.append("the injected faults raised no health alarm")
    return problems


def end_to_end(run: Run, setup_s: List[float]) -> Dict[str, float]:
    """The end-to-end metrics of one measured window, each over the whole window."""
    p50 = p99 = 0.0
    if run.served:
        p50, p99 = np.percentile(run.latencies_s, (50, 99)) * 1e3
    return {
        "setup_s": statistics.median(setup_s),
        "latency_p50_ms": float(p50),
        "latency_p99_ms": float(p99),
        "throughput_mbps": run.served * run.request_bits / run.elapsed_s / 1e6,
        "on_time_ratio": int(np.count_nonzero(run.latencies_s <= run.deadline_s)) / run.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------


def _arg(index: int, name: str) -> Callable[..., int]:
    def bits_of(*args: object, **kwargs: object) -> int:
        return int(kwargs[name] if name in kwargs else args[index])

    return bits_of


def _size_of_first(*args: object, **kwargs: object) -> int:
    return int(np.size(args[1]))


def install_trace(recorder: spans.SpanRecorder) -> None:
    """Wrap each layer's public entry points; a span is named ``layer:method``."""
    num_bits = _arg(1, "num_bits")
    recorder.wrap(BufferedRngService, "request", "serving.service:request", num_bits)
    recorder.wrap_enter(
        AdmissionController, "admit", "serving.admission:admit", _arg(2, "num_bits")
    )
    recorder.wrap(EntropyPool, "take", "serving.pool:take", num_bits)
    recorder.wrap(DRangeService, "request_into", "core.integration:request_into", _size_of_first)
    recorder.wrap(BackendSampler, "generate_fast", "core.drange:generate_fast", num_bits)
    recorder.wrap(DRange, "prepare", "core.drange:prepare")
    recorder.wrap(DRangeSampler, "generate_fast", "core.sampler:generate_fast", num_bits)
    recorder.wrap(QuacBackend, "sample", "backends.quac:sample", _arg(2, "num_bits"))
    recorder.wrap(HealthMonitor, "feed", "health:feed", _size_of_first)
    recorder.wrap(HealthMonitor, "startup", "health:startup", _size_of_first)
    recorder.wrap(HashDrbg, "generate_bits", "drbg:generate_bits", num_bits)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    table: spans.Table,
    names: List[str],
    run: Run,
    sim_mbps: float,
    plane_hits: int,
    plane_misses: int,
) -> Dict[str, float]:
    """The per-layer metrics of one traced window.

    ``sim_mbps`` is the paper's clock: Eq. 1 for drange, the compiled
    plan's modelled rate for QUAC, for the cells ``prepare`` found.
    """
    summary = spans.summarize(table, names)
    window_ns = run.elapsed_s * 1e9
    registry = obs.get_registry()
    empty = {"calls": 0, "bits": 0, "total_ns": 0, "self_ns": 0}

    def span(name: str) -> Dict[str, int]:
        return summary.get(name, empty)

    def events(component: str, kind: str) -> float:
        return registry.value("drange_events_total", component=component, kind=kind)

    def per_call_us(s: Dict[str, int]) -> float:
        return _ratio(s["self_ns"], s["calls"]) / 1e3

    sampler = span("core.sampler:generate_fast")
    quac = span("backends.quac:sample")
    feed, startup = span("health:feed"), span("health:startup")
    health_self = feed["self_ns"] + startup["self_ns"]
    prepare = span("core.drange:prepare")
    integration = span("core.integration:request_into")
    service = span("serving.service:request")
    take = span("serving.pool:take")
    admit = span("serving.admission:admit")
    copies = registry.value("drange_serving_pool_refill_writes_total", path="copy")
    zero_copies = registry.value("drange_serving_pool_refill_writes_total", path="zero_copy")
    caller_root = spans.root_ns(table, run.caller_thread)
    return {
        "core.throughput.sim_mbps": sim_mbps,
        "core.sampler.calls": sampler["calls"],
        "core.sampler.bits_per_call": _ratio(sampler["bits"], sampler["calls"]),
        "core.sampler.ns_per_bit": _ratio(sampler["self_ns"], sampler["bits"]),
        "core.sampler.self_share": sampler["self_ns"] / window_ns,
        "core.sampler.plan_compiles": registry.value("drange_sampler_plan_compiles_total"),
        "dram.plane.hit_ratio": _ratio(plane_hits, plane_hits + plane_misses),
        "backends.quac.calls": quac["calls"],
        "backends.quac.ns_per_bit": _ratio(quac["self_ns"], quac["bits"]),
        "backends.quac.self_share": quac["self_ns"] / window_ns,
        "health.calls": feed["calls"] + startup["calls"],
        "health.ns_per_bit": _ratio(health_self, feed["bits"] + startup["bits"]),
        "health.self_share": health_self / window_ns,
        "health.alarms": events("service", "alarm"),
        "core.drange.prepare_calls": prepare["calls"],
        "core.drange.prepare_s": prepare["total_ns"] / 1e9,
        "core.drange.adapter_self_us": per_call_us(span("core.drange:generate_fast")),
        "core.integration.calls": integration["calls"],
        "core.integration.self_us": per_call_us(integration),
        "core.integration.self_share": integration["self_ns"] / window_ns,
        "core.integration.recoveries": events("service", "recovered"),
        "core.integration.bits_discarded": events("service", "bits_discarded"),
        "serving.service.calls": service["calls"],
        "serving.service.self_us": per_call_us(service),
        "serving.service.self_share": service["self_ns"] / window_ns,
        "serving.pool.take_calls": take["calls"],
        "serving.pool.self_us": per_call_us(take),
        "serving.pool.self_share": take["self_ns"] / window_ns,
        "serving.pool.copy_refill_ratio": _ratio(copies, copies + zero_copies),
        "serving.pool.quarantines": events("serving", "pool_quarantine"),
        "serving.pool.bits_discarded": registry.value("drange_serving_pool_bits_discarded_total"),
        "serving.admission.calls": admit["calls"],
        "serving.admission.self_us": per_call_us(admit),
        "serving.admission.shed": (
            registry.value("drange_serving_shed_total", reason="quota")
            + registry.value("drange_serving_shed_total", reason="queue_full")
        ),
        "drbg.calls": span("drbg:generate_bits")["calls"],
        "drbg.degraded_ratio": _ratio(run.outcomes.get("degraded", 0), run.served),
        "loadgen.attempted": run.attempted,
        "loadgen.served": run.served,
        "loadgen.failed": run.failed,
        "loadgen.lag_p99_ms": float(np.percentile(run.lag_s, 99)) * 1e3,
        "loadgen.self_share": max(window_ns - caller_root, 0) / window_ns,
        "trace.spans": int(table["id"].size),
    }


def self_share_by_thread(
    table: spans.Table, names: List[str], run: Run
) -> Dict[str, Dict[str, float]]:
    """Each layer's self share of the window, on the caller and on other threads."""
    window_ns = run.elapsed_s * 1e9
    out: Dict[str, Dict[str, float]] = {}
    for thread in sorted(set(table["thread"].tolist())):
        shares = out.setdefault("caller" if thread == run.caller_thread else "other", {})
        for layer, ns in spans.layer_self_ns(table, names, thread).items():
            if ns:
                shares[layer] = shares.get(layer, 0.0) + ns / window_ns
    return out


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------


def with_units(values: Dict[str, float]) -> Dict[str, dict]:
    return {name: {"value": value, "unit": UNITS[name]} for name, value in values.items()}


def run_workload(
    workload: Workload, seed: int, seconds: float, trace: bool, out_dir: str, setups: int
) -> dict:
    """Set up ``setups`` times, measure the last stack, check and report."""
    setup_s: List[float] = []
    stack: Optional[Stack] = None
    for _ in range(setups):
        if stack is not None:
            stack.buffered.stop()
        began = time.perf_counter()
        stack = build(workload, seed)
        setup_s.append(time.perf_counter() - began)
    assert stack is not None
    events = stack.service.event_log
    alarms_before, recoveries_before = events.count("alarm"), events.count("recovered")
    plane = stack.device.plane
    plane_before = (plane.hits, plane.misses)
    recorder = None
    if trace:
        obs.enable()
        recorder = spans.SpanRecorder()
        install_trace(recorder)
    origin_ns = time.perf_counter_ns()
    try:
        if workload.open_loop:
            run = drive_open(stack, workload, seed, seconds)
        else:
            run = drive_closed(stack, seconds)
    finally:
        if recorder is not None:
            recorder.uninstall()
        # Joins the refill thread, so no span is recorded after this.
        stack.buffered.stop()
    alarms = events.count("alarm") - alarms_before
    problems = checks(workload, run, alarms)
    record = {
        "workload": workload.name,
        "open_loop": workload.open_loop,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": not problems,
        "problems": problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": with_units(end_to_end(run, setup_s)),
        "info": {
            "setup_runs_s": setup_s,
            "latency_samples": run.served,
            "supported_percentile": percentiles.supported_percentile(run.served),
            "ones_ratio": _ratio(run.pool_ones, run.pool_bits),
            "outcomes": run.outcomes,
            "alarms": alarms,
            "recoveries": events.count("recovered") - recoveries_before,
            "lag_p99_ms": float(np.percentile(run.lag_s, 99)) * 1e3,
            "elapsed_s": run.elapsed_s,
            "threads": run.threads_seen,
        },
        "env": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }
    if run.stream_sha256 is not None:
        record["info"]["stream_sha256"] = run.stream_sha256
    if recorder is not None:
        table, names = recorder.table(), list(recorder.names)
        layers = layer_metrics(
            table, names, run, stack.sim_mbps,
            plane.hits - plane_before[0], plane.misses - plane_before[1],
        )
        record["layers"] = with_units(layers)
        record["info"]["self_share_by_thread"] = self_share_by_thread(table, names, run)
        os.makedirs(out_dir, exist_ok=True)
        recorder.write_jsonl(os.path.join(out_dir, f"{workload.name}.spans.jsonl"), origin_ns)
    for error in run.errors[:3]:
        print(error, file=sys.stderr)
    return record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setups", type=int, default=SETUP_REPEATS)
    parser.add_argument("--out", default=os.path.join(os.path.dirname(__file__), "out"))
    args = parser.parse_args(argv)
    record = run_workload(
        WORKLOADS[args.workload], args.seed, args.seconds, args.trace, args.out, args.setups
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
