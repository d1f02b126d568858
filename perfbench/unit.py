"""One benchmark unit: run one tsvplan command in this process and record it.

    python3 unit.py RECORD_JSON LAUNCH TRACE -- <tsvplan arguments>

LAUNCH is the parent's time.monotonic() just before it started this process;
on Linux both processes read the same CLOCK_MONOTONIC, so wall and set-up
times count interpreter start and imports. TRACE is 1 to record per-module
spans (see spans.py). The command runs through the tsvplan CLI entry point,
exactly as `tsvplan <arguments>` would; the record (timings, results,
fingerprint, spans) is written to RECORD_JSON after the command has returned.
"""

from __future__ import annotations

import hashlib
import json
import resource
import signal
import statistics
import sys
import time

PROBE_INTERVAL_S = 0.02


class SpeedProbe:
    """Samples how fast this process's CPU runs while the unit runs.

    Every PROBE_INTERVAL_S of wall time a SIGALRM handler runs a fixed
    pure-Python kernel twice and times the second pass. The handler runs in
    this process between byte codes, so it sees the CPU at that moment; the
    first pass reloads the kernel into the caches, so the timed pass does not
    depend on what the unit had just evicted. It costs under 1% of the unit.
    """

    def __init__(self):
        self.samples = []   # (monotonic time, kernel seconds)

    @staticmethod
    def _kernel():
        total = 0
        for i in range(1000):
            total += i * i
        return total

    def _tick(self, signum, frame):
        self._kernel()
        start = time.perf_counter()
        self._kernel()
        self.samples.append((time.monotonic(), time.perf_counter() - start))

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)

    def mean_kernel_s(self, until=float("inf")):
        """Kernel time at the unit's average speed: the harmonic mean of the
        samples, since speed is the reciprocal of kernel time."""
        values = [s for t, s in self.samples if t <= until]
        return statistics.harmonic_mean(values) if values else float("nan")


def summary(s) -> dict:
    """The DesignSummary fields the benchmark reports and fingerprints."""
    return {"avgT": s.average, "peakT": s.peak, "core_peakT": s.layer_peaks[0],
            "wirelength": s.wirelength, "area": s.area}


def main() -> None:
    probe = SpeedProbe()
    probe.start()
    record_path, launch, traced = sys.argv[1], float(sys.argv[2]), sys.argv[3] == "1"
    args = sys.argv[sys.argv.index("--") + 1:]

    import tsvplan.anneal as anneal
    import tsvplan.cli as cli
    import tsvplan.sweeps as sweeps
    from tsvplan.design_io import format_trace

    tracer = None
    if traced:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    runs = []       # (OptimizeResult, seconds) per optimize_stack call
    marks = {}

    def timed_optimize(inner):
        def optimize_stack(*a, **k):
            start = time.perf_counter()
            result = inner(*a, **k)
            runs.append((result, time.perf_counter() - start))
            return result
        return optimize_stack

    cli.optimize_stack = timed_optimize(cli.optimize_stack)
    sweeps.optimize_stack = timed_optimize(sweeps.optimize_stack)

    # set-up ends at the first annealing move; the hook removes itself then
    gen_move = anneal.gen_move

    def first_move(*a, **k):
        marks["first_move"] = time.monotonic()
        anneal.gen_move = gen_move
        return gen_move(*a, **k)

    anneal.gen_move = first_move

    code = 0
    try:
        cli.main(args, prog_name="tsvplan", standalone_mode=False)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        done = time.monotonic()
        probe.stop()

    traces = "".join(format_trace(result.trace) for result, _ in runs)
    record = {
        "exit_code": code,
        "wall_s": done - launch,
        "setup_s": marks.get("first_move", done) - launch,
        "probe_s": probe.mean_kernel_s(),
        "setup_probe_s": probe.mean_kernel_s(marks.get("first_move", done)),
        "optimize_s": sum(seconds for _, seconds in runs),
        "moves": sum(len(result.trace.moves) for result, _ in runs),
        "null_moves": sum(m.kind == "null" for result, _ in runs for m in result.trace.moves),
        "accepted": sum(m.accepted for result, _ in runs
                        for m in result.trace.moves if m.kind != "null"),
        "evaluations": sum(result.evaluations for result, _ in runs),
        "trace_sha256": hashlib.sha256(traces.encode()).hexdigest(),
        "points": [{"before": summary(r.before), "after": summary(r.after)}
                   for r, _ in runs],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "spans": tracer.report() if tracer else None,
    }
    with open(record_path, "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
