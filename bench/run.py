"""poplaw benchmark: one workload, one seed, one closed loop with one caller.

From the root of a checkout:

    python3 bench/run.py --workload synth-roundtrip --seed 1 --seconds 20 --trace 0

The script imports poplaw from the checkout's ``src`` directory and builds the
workload's inputs from the seed, SETUP_REPEATS times, reporting the median as
``setup_s``. It then runs whole passes over the inputs until the ops have
taken ``--seconds`` seconds, to the nearest whole pass, and at least MIN_OPS
ops have run. Every op's output is checked after its timer stops; a failed
check or an exception counts as a failed op. Times are scaled to a reference
host speed by an interleaved calibration loop (see `Calibrator`).

With ``--trace 0`` the last line of standard output reports the end-to-end
metrics. With ``--trace 1`` untraced and traced passes alternate, until the traced
ones have taken ``--seconds``, and the last line reports the per-layer metrics
of the traced passes (see `tracer`). The
line before it carries the op count, the error rate and ``output_digest``, a
sha256 over the canonical JSON of every op's checked result in the first
pass, for comparing two commits' outputs.

Metric names and units come from ``BENCHMARK.json`` at the checkout root;
README.md beside this script says what each one should move, on which workload.
"""

import argparse
import gc
import hashlib
import importlib
import json
import resource
import statistics
import sys
import traceback
from collections import deque
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

SETUP_REPEATS = 5
MIN_OPS = 100
WALL_LIMIT_S = 150.0
CAL_EVERY_S = 0.05
CAL_MAX_SAMPLES = 25
CAL_WINDOW = 5
# about the calibration loop's time on the 2-core reference host (Python 3.11)
CAL_REF_S = 0.004


def import_poplaw():
    for name in [m for m in sys.modules if m.split(".")[0] == "poplaw"]:
        del sys.modules[name]
    P = importlib.import_module("poplaw")
    importlib.import_module("poplaw.jsonio")
    if Path(P.__file__).resolve().parent != SRC / "poplaw":
        raise ImportError(f"poplaw imported from {P.__file__}, not from {SRC}")
    return P


def set_up(workload, seed, calibrator):
    """Import poplaw and build the inputs SETUP_REPEATS times; keep the last.

    Returns the median set-up time, scaled like the op latencies."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        P = import_poplaw()
        cases = workload.setup(P, seed)
        elapsed = perf_counter() - start
        times.append(elapsed * calibrator.factor(elapsed))
    return P, cases, statistics.median(times)


def calibration_s():
    """Wall time of a fixed loop of Fraction, dict and integer work.

    Run between operations, it tracks how fast the host is running Python at
    that moment; shared hosts drift by tens of percent over seconds.
    """
    start = perf_counter()
    table = {}
    x = Fraction(1, 3)
    for j in range(1, 400):
        x = (x * Fraction(j + 2, j)) % 5 + Fraction(1, j)
        table[(j, x.denominator % 97)] = x
    acc = 0
    for j in range(4000):
        acc += (j * 2654435761) & 0xFFFFFFFF
    return perf_counter() - start


class Calibrator:
    """Scale factors that turn measured seconds into reference-host seconds.

    Each factor is CAL_REF_S over the median of the calibration samples taken
    right after the timed work (more after long work) and the CAL_WINDOW
    samples before it, which together span the work.
    """

    def __init__(self):
        self.recent = deque(maxlen=CAL_WINDOW)

    def factor(self, seconds):
        count = min(CAL_MAX_SAMPLES, max(1, round(seconds / CAL_EVERY_S)))
        now = [calibration_s() for _ in range(count)]
        reference = statistics.median([*self.recent, *now])
        self.recent.extend(now)
        return CAL_REF_S / reference


def plain_timer(op, *args):
    start = perf_counter()
    result = op(*args)
    return result, perf_counter() - start


class Pass:
    """One pass over every input: per-op latencies, failures and checked outputs.

    Each op's output is checked right after its timer stops. Latencies are
    scaled by a `Calibrator` at least every CAL_EVERY_S of op time, so that
    they read as on a host running at the reference speed; `on_calibrate`,
    when given, receives each scale factor for the ops since the last one.
    """

    def __init__(self, P, workload, cases, calibrator, timer, after_op=None, on_calibrate=None):
        self.latencies = []
        self.raw_time = 0.0
        self.failed = 0
        # per-op sha256 of the checked output, and one over all of them in order
        self.payloads = []
        self.digest = hashlib.sha256()
        self._calibrator = calibrator
        self._on_calibrate = on_calibrate
        self._unscaled = []
        results = []
        for case in cases:
            try:
                result, elapsed = timer(workload.op, P, case)
            except Exception:
                self.fail("operation raised")
                self.payloads.append(None)
                continue
            finally:
                if after_op is not None:
                    after_op()
            self._unscaled.append(elapsed)
            self.check(P, workload, case, result)
            if workload.check_all is not None:
                results.append(result)
            if sum(self._unscaled) >= CAL_EVERY_S:
                self.calibrate()
        self.calibrate()
        if workload.check_all is not None and len(results) == len(cases):
            if not workload.check_all(P, cases, results):
                self.fail("cross-operation check failed", count=len(cases))

    def check(self, P, workload, case, result):
        try:
            ok, payload = workload.check(P, case, result)
            text = P.jsonio.dumps(payload).encode()
        except Exception:
            self.fail(f"check raised on {case!r:.200}")
            self.payloads.append(None)
            return
        if not ok:
            self.fail(f"check failed on {case!r:.200}")
        self.digest.update(text)
        self.payloads.append(hashlib.sha256(text).digest())

    def calibrate(self):
        factor = self._calibrator.factor(sum(self._unscaled))
        self.raw_time += sum(self._unscaled)
        self.latencies.extend(t * factor for t in self._unscaled)
        self._unscaled.clear()
        if self._on_calibrate is not None:
            self._on_calibrate(factor)

    def fail(self, message, count=1):
        """Count failed ops; report the first, with its traceback if any."""
        if self.failed == 0:
            print(f"bench: {message}", file=sys.stderr)
            if sys.exc_info()[0] is not None:
                traceback.print_exc(file=sys.stderr)
        self.failed += count

    @property
    def op_time(self):
        return sum(self.latencies)


class Runs:
    """Accumulates passes; later passes must reproduce the first pass's outputs."""

    def __init__(self, passes=()):
        self.passes = []
        self.mismatched = 0
        for one_pass in passes:
            self.add(one_pass)

    def add(self, one_pass):
        if self.passes:
            first = self.passes[0].payloads
            self.mismatched += sum(
                1
                for a, b in zip(first, one_pass.payloads)
                if a is not None and b is not None and a != b
            )
        self.passes.append(one_pass)

    @property
    def attempted(self):
        return sum(len(p.payloads) for p in self.passes)

    @property
    def failed(self):
        return sum(p.failed for p in self.passes) + self.mismatched

    @property
    def latencies(self):
        return [t for p in self.passes for t in p.latencies]

    @property
    def op_time(self):
        return sum(p.op_time for p in self.passes)

    @property
    def raw_time(self):
        return sum(p.raw_time for p in self.passes)

    def digest(self):
        return self.passes[0].digest.hexdigest()


def more_passes(runs, seconds, started, min_ops=0):
    """Whether to run another pass: the op time is still nearer `seconds`
    after one more pass than now, or too few ops have run."""
    if not runs.passes:
        return True
    if perf_counter() - started > WALL_LIMIT_S:
        return False
    per_pass = runs.raw_time / len(runs.passes)
    return runs.raw_time + per_pass / 2 < seconds or len(runs.latencies) < min_ops


def measure(P, workload, cases, calibrator, seconds, started):
    runs = Runs()
    while more_passes(runs, seconds, started, MIN_OPS):
        runs.add(Pass(P, workload, cases, calibrator, plain_timer))
    latencies = runs.latencies
    metrics = {
        "ops_per_s": (len(latencies) / runs.op_time, "1/s"),
        "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "op_p90_ms": (1e3 * statistics.quantiles(latencies, n=10)[8], "ms"),
    }
    return runs, metrics


def measure_traced(P, workload, cases, calibrator, seconds, started):
    tracer = Tracer()
    plain, traced = Runs(), Runs()
    while more_passes(traced, seconds, started):
        # alternate which side goes first, so neither gains from running second
        for side in ("plain", "traced") if len(traced.passes) % 2 == 0 else ("traced", "plain"):
            if side == "plain":
                plain.add(Pass(P, workload, cases, calibrator, plain_timer))
                continue
            tracer.install()
            try:
                traced.add(Pass(P, workload, cases, calibrator, tracer.run_op, tracer.drain, tracer.rescale))
            finally:
                tracer.restore()
    overhead = traced.op_time / plain.op_time - 1
    runs = Runs(plain.passes + traced.passes)
    return runs, tracer.metrics(len(traced.passes), overhead)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = perf_counter()

    if not (SRC / "poplaw" / "__init__.py").is_file():
        print(f"bench: no poplaw sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    calibrator = Calibrator()
    P, cases, setup_s = set_up(workload, args.seed, calibrator)
    # the inputs live for the whole run: keep the collector from rescanning them
    gc.collect()
    gc.freeze()

    if args.trace:
        runs, metrics = measure_traced(P, workload, cases, calibrator, args.seconds, started)
        wanted = spec["per_layer"]
    else:
        runs, metrics = measure(P, workload, cases, calibrator, args.seconds, started)
        metrics["setup_s"] = (setup_s, "s")
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (rss_kb / 1024, "MB")
        wanted = spec["end_to_end"]
    names = [m["name"] for m in wanted]
    if set(names) != set(metrics):
        raise SystemExit(f"bench: metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(names)}")

    attempted, failed = runs.attempted, runs.failed
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "trace": args.trace,
                "cases_per_pass": len(cases),
                "passes": len(runs.passes),
                "ops": attempted,
                "op_time_s": runs.op_time,
                "unscaled_op_time_s": runs.raw_time,
                "error_rate": failed / attempted,
                "output_digest": runs.digest(),
            }
        )
    )
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in names
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
