"""designforge benchmark: one closed-loop client over seeded request decks.

Run from the repository root:

    python3 perfbench/run.py --workload construct --seed 1 --seconds 25 --trace 0

One process, one thread, one client that waits for each answer before it
sends the next request.  Every answer is checked by the benchmark's own
counters outside the timed interval.  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it serves half the time untraced, then
replays the same requests with spans around every call into designforge's
public API, and reports per-layer metrics and the tracing overhead.  The
end-to-end timing metrics are scaled to a nominal machine speed measured by a
reference probe (see ``speed.py``); the line ``raw:`` prints them unscaled.
The last line of standard output is the JSON result.
"""

import time

STARTED = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import gc  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 4  # fresh processes timed besides this one; setup_s is the median of all
SETUP_SPEED_PROBES = 10  # speed probes taken right after each set-up


def load_program() -> None:
    """Put the checkout's own sources first on the path, or stop."""
    if not (SRC / "designforge" / "__init__.py").is_file():
        sys.exit(f"perfbench: no designforge sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import designforge

    if Path(designforge.__file__).resolve().parent != SRC / "designforge":
        sys.exit(f"perfbench: imported designforge from {designforge.__file__}, not {SRC}")


@dataclass
class Served:
    latencies: list[float] = field(default_factory=list)  # seconds; inf if failed
    busy_s: float = 0.0  # summed service time of every request
    attempted: int = 0
    passed: int = 0
    wrong: int = 0  # raised or answered wrongly; over-budget requests are failed, not wrong
    decks: int = 0


def serve(decks, inputs, seconds=None, tracer=None, gauge=None) -> Served:
    """Closed loop over whole decks: each deck once, or cycling until `seconds` pass.

    A `gauge` takes its speed probes between requests, outside the timed intervals.
    Each request starts from a fresh collector state (a collection of the
    unfrozen heap, untimed), so the cyclic collections that a request's own
    allocations set off do not depend on which requests came before it.
    """
    import workloads
    from check import check
    from designforge.core import BudgetExceededError

    stats = Served()
    started = time.perf_counter()
    source = decks if seconds is None else itertools.cycle(decks)
    for deck in source:
        if seconds is not None and stats.decks and time.perf_counter() - started >= seconds:
            break
        for req in deck:
            if tracer is not None:
                tracer.request = stats.attempted
            if gauge is not None:
                gauge.tick()
            gc.collect()
            problem = None
            t0 = time.perf_counter()
            try:
                answer = workloads.execute(req, inputs, time.monotonic() + workloads.BUDGET_S)
            except BudgetExceededError:
                problem = "over budget"
            except Exception:
                problem = "raised:\n" + traceback.format_exc()
                stats.wrong += 1
            elapsed = time.perf_counter() - t0
            stats.attempted += 1
            stats.busy_s += elapsed
            if problem is None and elapsed > workloads.BUDGET_S:
                problem = "over budget"
            if problem is None:
                problem = check(req, answer, inputs)
                stats.wrong += problem is not None
            answer = None  # let a large answer go before the next request
            if problem is None:
                stats.passed += 1
                stats.latencies.append(elapsed)
            else:
                stats.latencies.append(math.inf)
                if stats.attempted - stats.passed <= 5:
                    print(f"perfbench: request {req!r} failed: {problem}", file=sys.stderr)
        stats.decks += 1
    return stats


def setup(workload: str, seed: int, tiny: bool):
    """Inputs, the seeded decks, one warm-up pass over a tiny deck, and a frozen heap.

    What set-up leaves alive (modules, inputs, decks) is frozen, so the
    collections in `serve` and inside requests do not scan it again and again.
    """
    import workloads

    inputs = workloads.build_inputs(workload)
    decks = workloads.generate(workload, seed, inputs, tiny)
    gc.collect()
    gc.freeze()  # before the warm-up too, or each of its collections scans all of this
    serve(workloads.generate(workload, seed, inputs, tiny=True), inputs)
    gc.collect()
    gc.freeze()
    return inputs, decks


def setup_scale() -> float:
    """The speed scale right after a set-up, in the same process."""
    from speed import Gauge

    return Gauge().sample(SETUP_SPEED_PROBES).scale


def probe_setup(workload: str, seed: int, tiny: bool) -> list[tuple[float, float]]:
    """(set-up seconds, speed scale) from each of SETUP_PROBES fresh processes."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(int(tiny))],
            capture_output=True, text=True, timeout=120, check=True)
        result = json.loads(done.stdout.splitlines()[-1])
        samples.append((result["setup_s"], result["scale"]))
    return samples


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def context() -> str:
    import sympy

    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"sympy={sympy.__version__} machine={platform.machine()}")


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one tiny deck of the smallest sizes, for the smoke test")
    args = parser.parse_args(argv)

    inputs, decks = setup(args.workload, args.seed, args.smoke)
    setup_s = time.perf_counter() - STARTED
    requests = sum(map(len, decks))
    print(f"inputs: workload={args.workload} seed={args.seed} decks={len(decks)} "
          f"requests={requests} sha256={workloads.digest(decks)}")
    print(f"context: {context()}")

    if args.trace:
        from spans import Tracer

        plain = serve(decks, inputs, seconds=args.seconds / 2)
        replay = [decks[i % len(decks)] for i in range(plain.decks)]
        tracer = Tracer()
        tracer.install()
        try:
            traced = serve(replay, inputs, tracer=tracer)
        finally:
            tracer.uninstall()
        runs = (plain, traced)
        metrics = tracer.metrics(traced.busy_s, plain.busy_s)
        tracer.write(OUT / f"trace-{args.workload}",
                     {"workload": args.workload, "seed": args.seed, "decks": plain.decks})
        print(f"trace: untraced={plain.busy_s:.3f}s traced={traced.busy_s:.3f}s "
              f"spans={len(tracer.span_start)} written to {OUT}")
    else:
        from speed import Gauge

        setup_samples = [(setup_s, setup_scale())]
        setup_samples += probe_setup(args.workload, args.seed, args.smoke)
        gauge = Gauge()
        stats = serve(decks, inputs, seconds=args.seconds, gauge=gauge)
        runs = (stats,)
        lat = stats.latencies
        raw = {
            "throughput_rps": stats.passed / stats.busy_s,
            "latency_p50_ms": 1000 * statistics.median(lat),
            "latency_p90_ms": 1000 * percentile(lat, 0.9),
            "setup_s": statistics.median(s for s, _ in setup_samples),
        }
        scale = gauge.scale
        metrics = {
            "throughput_rps": (raw["throughput_rps"] / scale, "1/s"),
            "latency_p50_ms": (raw["latency_p50_ms"] * scale, "ms"),
            "latency_p90_ms": (raw["latency_p90_ms"] * scale, "ms"),
            "setup_s": (statistics.median(s * k for s, k in setup_samples), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        print(f"served: decks={stats.decks} requests={stats.attempted} "
              f"busy={stats.busy_s:.3f}s setup_samples={[round(s, 3) for s, _ in setup_samples]}")
        print(f"speed: scale={scale:.4f} from {len(gauge.samples)} probes; "
              f"set-up scales={[round(k, 4) for _, k in setup_samples]}")
        print("raw: " + " ".join(f"{name}={value:.6g}" for name, value in raw.items()))

    attempted = sum(r.attempted for r in runs)
    failed = attempted - sum(r.passed for r in runs)
    print(f"error_rate={failed / attempted} ({failed} of {attempted} requests failed)")
    print(json.dumps({
        "correct": not any(r.wrong for r in runs),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    load_program()
    sys.exit(main())
