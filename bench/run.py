"""Benchmark of the unionbounds library, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the library is imported from the
checkout's ``src/``. Workloads: report_corpus, cli_wide, bc_grid (see
workloads.py and BENCHMARK.json for why each exists).

One process, no threads; the CLI subprocesses of cli_wide run one at a time.
Each run is a closed loop with one caller: it repeats whole rounds of
operations while another round fits in ``--seconds``, checks every
operation's output, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones. With ``--trace 1`` the run spends half
its time untraced and half with the layer wrappers of layers.py installed,
and the metrics are the per-layer ones, normalised per operation, plus the
tracing overhead. The line before it records the environment the result was
measured in.

Times are reported at a fixed reference speed. The host's speed drifts by
tens of percent over minutes, for every process alike, so a run times a
fixed reference kernel (pure standard library) after every quarter second
of workload and around its set-up probes, and scales its times by
REFERENCE_NS over the kernel's time: each stretch of operations by the
kernel's mean time just before and after it, the set-up probes by its
median around them. The run and every process it starts are pinned to one
CPU, so that the kernel feels the same CPU as the work it scales. The
library never runs in the kernel, so a change to the library
moves the scaled times as it moves the raw ones. The unscaled rate and the
kernel's median go to standard error and to the environment line.

The run refuses to start (exit 2, no result) when UNION_BOUNDS_TOL is set,
since it changes every float check, and when the checkout has no library to
measure. It exits 1 after printing a result whose checks failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter, perf_counter_ns

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TOLERANCE_ENV = "UNION_BOUNDS_TOL"
SETUP_REPEATS = 5
MAX_REPORTED_ERRORS = 3
# Latencies are kept as a uniform sample of at most this many operations, so
# the harness's memory, and with it peak_rss_mb, does not grow with the
# number of operations a run completes.
LATENCY_SAMPLE = 100_000
# The reference speed: reference_kernel()'s median time on a shared 2-core
# Intel Xeon host under CPython 3.11.
REFERENCE_NS = 5_000_000
REFERENCE_EVERY_NS = 250_000_000
NPROC = PINNED_CPU = None  # set by pin_to_one_cpu()


@dataclass
class Phase:
    """What one timed phase measured. Times are kept unscaled."""

    ops: int = 0
    failed: int = 0
    exact: int = 0
    eligible: int = 0
    rounds: int = 0
    # Per stretch of operations between two reference timings: its length,
    # the kernel time just before it and those just after it; ns.
    segments: list = field(default_factory=list)
    references: list = field(default_factory=list)  # every kernel time, ns
    op_ns: int = 0
    latencies_ns: array = field(default_factory=lambda: array("q"))  # a sample
    latency_segments: array = field(default_factory=lambda: array("l"))  # of each
    sampler: random.Random = field(default_factory=lambda: random.Random(0))

    def record_latency(self, ns: int) -> None:
        """Reservoir sampling: every operation is in the sample with equal
        chance; all of them while there are at most LATENCY_SAMPLE."""
        segment = len(self.segments)  # the stretch the operation is in
        if len(self.latencies_ns) < LATENCY_SAMPLE:
            self.latencies_ns.append(ns)
            self.latency_segments.append(segment)
        else:
            slot = int(self.sampler.random() * self.ops)
            if slot < LATENCY_SAMPLE:
                self.latencies_ns[slot] = ns
                self.latency_segments[slot] = segment

    def scales(self) -> list[float]:
        """Factor from each stretch's times to times at the reference speed:
        REFERENCE_NS over the mean kernel time just before and after it."""
        return [REFERENCE_NS * (1 + len(after)) / (before + sum(after)) for _, before, after in self.segments]

    def scaled_latencies_ns(self) -> list[float]:
        scales = self.scales()
        return [ns * scales[s] for ns, s in zip(self.latencies_ns, self.latency_segments)]

    @property
    def ops_per_s(self) -> float:
        """Correct operations over the whole phase's time, at the reference
        speed. A phase is whole rounds of one fixed mix, and the whole-phase
        rate averages the host's changes of speed over the run, where a
        median over a few long rounds would follow whichever speed held in
        most of them."""
        scaled = sum(ns * scale for (ns, _, _), scale in zip(self.segments, self.scales()))
        return (self.ops - self.failed) / (scaled / 1e9)

    @property
    def unscaled_ops_per_s(self) -> float:
        return (self.ops - self.failed) / (sum(ns for ns, _, _ in self.segments) / 1e9)


def report_error(phase: Phase, what: str) -> None:
    if phase.failed <= MAX_REPORTED_ERRORS:
        print(f"operation {phase.ops} failed: {what}", file=sys.stderr)


def reference_kernel() -> None:
    """Fixed work on the interpreter and the standard library alone, of the
    kind the library does most: products and sums of small fractions. Its
    time tracks the host's changes of speed as the workloads feel them."""
    total = Fraction(0)
    for i in range(1, 540):
        total += Fraction(i % 7 + 1, i + 1) * Fraction(i + 2, i % 5 + 3)


def time_reference() -> int:
    start = perf_counter_ns()
    reference_kernel()
    return perf_counter_ns() - start


class HostClock:
    """Times the reference kernel once per REFERENCE_EVERY_NS of workload,
    evenly through the phase, and keeps the kernel's time out of the
    phase's."""

    def __init__(self, phase: Phase):
        self.phase = phase
        self.last = time_reference()
        phase.references.append(self.last)
        self.since = perf_counter_ns()

    def tick(self, force: bool = False) -> None:
        """Called between operations; ``force`` ends the phase."""
        now = perf_counter_ns()
        due = (now - self.since) // REFERENCE_EVERY_NS
        if due or force:
            after = [time_reference() for _ in range(max(1, min(due, 8)))]
            self.phase.segments.append((now - self.since, self.last, after))
            self.phase.references += after
            self.last = after[-1]
            self.since = perf_counter_ns()


def timed_phase(workload, seconds: float, first_round: int, tracer=None, inject=False) -> Phase:
    """Closed loop: run whole rounds while one more round, as long as the
    longest so far, still fits in ``seconds``; at least one round."""
    phase = Phase()
    clock = HostClock(phase)
    start = perf_counter()
    longest = 0.0
    r = first_round
    while True:
        round_start = perf_counter()
        for op, check in workload.round(r):
            if tracer is not None:
                tracer.active = True
            t0 = perf_counter_ns()
            try:
                result = op()
                error = None
            except Exception:  # a failing operation is counted, not fatal
                error = traceback.format_exc()
            elapsed = perf_counter_ns() - t0
            if tracer is not None:
                tracer.active = False
            phase.ops += 1
            phase.op_ns += elapsed
            phase.record_latency(elapsed)
            if error is None:
                if inject and phase.ops == 1:
                    result = workload.corrupt(result)
                try:
                    outcome = check(result)
                except Exception:
                    error = traceback.format_exc()
            if error is not None:
                phase.failed += 1
                report_error(phase, error)
            else:
                phase.exact += outcome.exact
                phase.eligible += outcome.eligible
                if not outcome.ok:
                    phase.failed += 1
                    report_error(phase, f"check failed in round {r}")
            clock.tick()
        now = perf_counter()
        longest = max(longest, now - round_start)
        r += 1
        phase.rounds += 1
        if now - start + longest > seconds:
            break
    clock.tick(force=True)
    return phase


def probe_setup(args) -> float:
    """Seconds from starting a fresh process to its first timed operation:
    interpreter, imports, input generation and warm-up."""
    argv = [
        sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
        "--setup-probe",
    ] + (["--tiny"] if args.tiny else [])
    start = perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, cwd=ROOT)
    with proc.stdout:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
    if proc.wait() != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def measure_setup(args, repeats: int) -> float:
    """The median of ``repeats`` set-up probes, scaled to the reference speed
    by the median of the reference kernel's times around the probes."""
    references = [time_reference()]
    times = []
    for _ in range(repeats):
        times.append(probe_setup(args))
        references.append(time_reference())
    return statistics.median(times) * REFERENCE_NS / statistics.median(references)


def commit_id() -> str | None:
    """HEAD of the checkout's git directory, read as files; None outside git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "unionbounds").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": NPROC,
        "pinned_cpu": PINNED_CPU,
        "cpu_count": os.cpu_count(),
        "commit": commit_id(),
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "tiny": args.tiny,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end_metrics(phase: Phase, setup_s: float, workload) -> dict:
    latencies = sorted(phase.scaled_latencies_ns())
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8] if len(latencies) > 1 else latencies[0]
    peak_kb = getattr(workload, "children_peak_kb", None) or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "ops_per_s": metric(phase.ops_per_s, "1/s"),
        "latency_p50_ms": metric(statistics.median(latencies) / 1e6, "ms"),
        "latency_p90_ms": metric(p90 / 1e6, "ms"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(peak_kb / 1024, "MiB"),
        "success_rate": metric((phase.ops - phase.failed) / phase.ops, "ratio"),
        "exact_result_share": metric(phase.exact / phase.eligible if phase.eligible else 0.0, "ratio"),
    }


BOUND_FUNCTIONS = (
    "lower_bound_two_moments",
    "upper_bound_two_moments",
    "lower_bound_two_moments_simple",
    "lower_bound_three_moments",
    "upper_bound_three_moments",
)


def per_layer_metrics(tracer, base: Phase, traced: Phase, workload) -> dict:
    import layers

    ops = max(traced.ops, 1)
    out: dict[str, dict] = {}

    def calls(name, span):
        out[name] = metric(tracer.calls(span) / ops, "1/op")

    def self_ms(name, span):
        out[name] = metric(tracer.self_ns(span) / 1e6 / ops, "ms/op")

    def per_op(name, counter, unit):
        out[name] = metric(tracer.counters.get(counter, 0) / ops, unit)

    calls("events.per_event_moments.calls", "events.per_event_moments")
    self_ms("events.per_event_moments.self_ms", "events.per_event_moments")
    per_op("events.incidences", "events.incidences", "1/op")
    calls("events.occupancy_profile.calls", "events.occupancy_profile")
    self_ms("events.occupancy_profile.self_ms", "events.occupancy_profile")
    self_ms("events.power_moments.self_ms", "events.power_moments")
    self_ms("events.build_system.self_ms", "events.build_system")

    self_ms("unions.compare_bounds.self_ms", "unions.compare_bounds")
    calls("unions.occupancy_moment_vector.calls", "unions.occupancy_moment_vector")
    self_ms("unions.occupancy_moment_vector.self_ms", "unions.occupancy_moment_vector")
    per_op("unions.entries", "unions.entries", "1/op")
    per_op("unions.entries_failed", "unions.entries_failed", "1/op")

    for fn in BOUND_FUNCTIONS:
        calls(f"bounds.{fn}.calls", f"bounds.{fn}")
        self_ms(f"bounds.{fn}.self_ms", f"bounds.{fn}")
    results = tracer.counters.get("bounds.results", 0)
    exact = tracer.counters.get("bounds.exact_results", 0)
    out["bounds.exact_share"] = metric(exact / results if results else 0.0, "ratio")
    out["bounds.max_denominator_bits"] = metric(tracer.maxima.get("bounds.max_denominator_bits", 0), "bits")

    calls("numeric.rpow.calls", "numeric.rpow")
    self_ms("numeric.rpow.self_ms", "numeric.rpow")

    self_ms("borel_cantelli.window_moments.self_ms", "borel_cantelli.window_moments")
    per_op("borel_cantelli.window_rows", "borel_cantelli.window_rows", "1/op")
    rows = tracer.counters.get("borel_cantelli.window_rows", 0)
    largest = traced.rounds * getattr(workload, "largest_horizons", 0)
    out["borel_cantelli.rows_reuse_ratio"] = metric(largest / rows if rows else 0.0, "ratio")
    self_ms("borel_cantelli.alpha_moments.self_ms", "borel_cantelli.alpha_moments")
    self_ms("borel_cantelli.estimators.self_ms", "borel_cantelli.estimators")
    out["borel_cantelli.max_denominator_bits"] = metric(
        tracer.maxima.get("borel_cantelli.max_denominator_bits", 0), "bits"
    )

    out["cli.process_ms"] = metric(tracer.counters.get("cli.process_ns", 0) / 1e6 / ops, "ms/op")
    out["cli.startup_ms"] = metric(getattr(workload, "startup_ms", 0.0), "ms")
    self_ms("cli.load_system.self_ms", "cli.load_system")
    self_ms("cli.emit.self_ms", "cli.emit")
    per_op("cli.output_bytes", "cli.output_bytes", "B/op")

    for layer in layers.LAYERS:
        layer_calls, layer_ns = tracer.layer_totals(layer)
        if layer in ("events", "unions", "bounds", "borel_cantelli"):
            out[f"{layer}.calls"] = metric(layer_calls / ops, "1/op")
        out[f"{layer}.self_share"] = metric(layer_ns / traced.op_ns if traced.op_ns else 0.0, "ratio")

    out["trace.op_ms"] = metric(traced.op_ns / 1e6 / ops, "ms/op")
    out["trace.ops_per_s"] = metric(traced.ops_per_s, "1/s")
    out["trace.untraced_ops_per_s"] = metric(base.ops_per_s, "1/s")
    out["trace.overhead_share"] = metric(1 - traced.ops_per_s / base.ops_per_s, "ratio")
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for selfcheck.py")
    parser.add_argument(
        "--inject-fault", action="store_true",
        help="corrupt the first result before its check; the run must then fail",
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run(args, workdir: Path) -> int:
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    make = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        make(args.seed, args.tiny, workdir).warm_up()
        print("ready", flush=True)
        return 0

    repeats = 1 if args.tiny else SETUP_REPEATS
    setup_s = None if args.trace else measure_setup(args, repeats)
    workload = make(args.seed, args.tiny, workdir)
    workload.warm_up()
    if args.trace:
        base = timed_phase(workload, args.seconds / 2, 0, None, args.inject_fault)
        tracer = layers.Tracer()
        layers.install(tracer)
        workload.tracer = tracer
        if hasattr(workload, "measure_startup"):
            workload.measure_startup(repeats)
        traced = timed_phase(workload, args.seconds / 2, base.rounds, tracer)
        phases = [base, traced]
        metrics = per_layer_metrics(tracer, base, traced, workload)
    else:
        phase = timed_phase(workload, args.seconds, 0, None, args.inject_fault)
        phases = [phase]
        metrics = end_to_end_metrics(phase, setup_s, workload)

    attempted = sum(p.ops for p in phases)
    failed = sum(p.failed for p in phases)
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: {attempted} ops in "
        f"{sum(p.rounds for p in phases)} rounds, {failed} failed "
        f"(error_rate {failed / attempted:.6g}); latency quantiles are taken over "
        f"{len(phases[0].latencies_ns)} sampled operations",
        file=sys.stderr,
    )
    host = [
        {
            "unscaled_ops_per_s": p.unscaled_ops_per_s,
            "reference_ms_median": statistics.median(p.references) / 1e6,
            "reference_timings": len(p.references),
        }
        for p in phases
    ]
    for h in host:
        print(
            f"unscaled {h['unscaled_ops_per_s']:.6g} ops/s; reference kernel median "
            f"{h['reference_ms_median']:.4g} ms over {h['reference_timings']} timings, "
            f"scaled to {REFERENCE_NS / 1e6:g} ms",
            file=sys.stderr,
        )
    print(json.dumps({"env": environment(args), "host_speed": host}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def pin_to_one_cpu() -> None:
    """Runs this process, and the CLI and set-up processes it starts, on one
    CPU: the host's CPUs differ in speed by up to 1.7 times at a moment, so
    the reference kernel must feel the same CPU as the work it scales."""
    global NPROC, PINNED_CPU
    cpus = os.sched_getaffinity(0)
    NPROC, PINNED_CPU = len(cpus), min(cpus)
    os.sched_setaffinity(0, {PINNED_CPU})


def main(argv=None) -> int:
    args = parse_args(argv)
    if os.environ.get(TOLERANCE_ENV) is not None:
        print(
            f"error: {TOLERANCE_ENV} is set; it changes every float check, so "
            "results would not compare across commits. Unset it to benchmark.",
            file=sys.stderr,
        )
        return 2
    if not (SRC / "unionbounds" / "__init__.py").is_file():
        print(f"error: no library to benchmark at {SRC / 'unionbounds'}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    sys.path.insert(0, str(SRC))
    import unionbounds

    if Path(unionbounds.__file__).resolve().parent != (SRC / "unionbounds").resolve():
        print(f"error: imported unionbounds from {unionbounds.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_build" / "bench" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
