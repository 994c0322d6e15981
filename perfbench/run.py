"""Benchmark of the transurf toolkit: one workload, one seed, one run.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload classify_corpus --seed 1 --seconds 25 --trace 0

A run builds round 0 of the workload from the seed, warms up on two
surfaces of a separate warm-up round, then times whole rounds of ops until
the timed ops add up to ``--seconds``.  Every op's outputs are checked right
after it, outside its timing, against values computed apart from the
program (see checks.py).  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: the end-to-end metrics: ops_per_s, the median over rounds
  of a round's ops over its summed op time; op_p50_ms, the median op; both
  with op times scaled to the machine's nominal speed (see run_untraced);
  setup_s, the median over fresh processes of the time from process start
  to the end of set-up; peak_rss_mb, the peak RSS when the last round ends;
* ``--trace 1``: the per-layer metrics of spans.py plus the tracing
  overhead; every round runs once untraced and once traced, and the
  overhead is the traced passes' op time over the untraced passes' op time.

Results and spans are also written under ``.perfbench/``, as is the OBJ file
the numeric_grid ops export.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 7
# reference_seconds() on the 2-core VM the bounds were set on, at its usual speed.
REFERENCE_NOMINAL_S = 0.024
WORKLOAD_NAMES = ("classify_corpus", "cross_check", "numeric_grid")

# One BLAS thread: the fits are 3-column SVDs, and idle BLAS threads only
# add contention on a small machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


class Runner:
    """The ops and checks of one workload, with the run-level state its checks need."""

    def __init__(self, name: str, seed: int):
        import checks
        import workloads

        self.checks, self.workloads = checks, workloads
        self.name = name
        self.seed = seed
        self.spec = workloads.WORKLOADS[name]
        self.mesh_path = str(OUT_DIR / f"mesh-{name}.obj")
        self.relations = set()  # (ratio, power) relating the two Weingarten routes
        self.sympy_cases = {}   # position -> (item, output, point index) checked against sympy
        # Two cross_check surfaces of degree <= (4, 4) from round 0, one point each.
        rng = random.Random(f"sympy:{seed}")
        self.sympy_picks = {i: rng.randrange(workloads.CROSS_POINTS) for i in rng.sample(range(8), 2)}

    def make_round(self, index):
        return self.spec.make_round(self.seed, index)

    def op(self, item):
        if self.name == "classify_corpus":
            return self.workloads.classify_op(item)
        if self.name == "cross_check":
            return self.workloads.cross_op(item)
        return self.workloads.numeric_op(item, self.mesh_path)

    def check(self, item, out, round_index: int, position: int) -> None:
        checks, workloads = self.checks, self.workloads
        if self.name == "classify_corpus":
            checks.check_classify(item, out)
        elif self.name == "cross_check":
            relation = checks.route_relation(item, out)
            if relation is not None:
                self.relations.add(relation)
                checks.require(len(self.relations) == 1, f"routes related by more than one constant: {self.relations}")
            checks.check_cross_values(item, out)
            if round_index == 0 and position in self.sympy_picks:
                self.sympy_cases.setdefault(position, (item, out, self.sympy_picks[position]))
        else:
            with open(self.mesh_path) as fh:
                mesh_text = fh.read()
            checks.check_numeric(item, out, mesh_text, workloads.WEINGARTEN_N, workloads.SAMPLE_N, workloads.MESH_N)

    def final_checks(self) -> None:
        """Checks that need sympy, run after the timed rounds."""
        for item, out, point_index in self.sympy_cases.values():
            self.checks.check_sympy_sample(item, out, point_index)

    def warm_up(self) -> None:
        warm = self.make_round("warmup")
        for position in self.spec.warmup_kinds:
            self.op(warm[position])


def set_up(name: str, seed: int):
    """Imports, round 0 and warm-up: everything before the first timed op."""
    for path in (str(Path(__file__).resolve().parent), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    OUT_DIR.mkdir(exist_ok=True)
    runner = Runner(name, seed)
    first_round = runner.make_round(0)
    runner.warm_up()
    return runner, first_round


def measure_setup(name: str, seed: int) -> float:
    """Median wall time from process start to the end of set-up, over fresh processes."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--setup-only"],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = child.stdout.readline()
            times.append(time.perf_counter() - start)
            child.stdout.read()
            code = child.wait(timeout=120)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
            child.stdout.close()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up process failed with exit code {code}")
    return statistics.median(times)


class Tally:
    def __init__(self):
        self.op_seconds: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.check_failures = 0

    def report_check(self, exc: Exception) -> None:
        self.check_failures += 1
        if self.check_failures <= 5:
            print(f"check failed: {exc}", file=sys.stderr)


def run_round(runner, items, round_index, tally, tracer=None) -> float:
    """Time every op of one round; check each right after it.  Returns the
    round's summed op time in seconds."""
    total = 0.0
    for position, item in enumerate(items):
        tally.attempted += 1
        if tracer is not None:
            tracer.begin_op(tally.attempted)
        start = time.perf_counter()
        try:
            out = runner.op(item)
        except (Exception, SystemExit):  # the CLI exits on a usage error
            tally.failed += 1
            if tally.failed <= 5:
                traceback.print_exc()
            continue
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end_op()
        total += elapsed
        tally.op_seconds.append(elapsed)
        try:
            runner.check(item, out, round_index, position)
        except AssertionError as exc:
            tally.report_check(exc)
    if total == 0.0:
        raise RuntimeError(f"every op of round {round_index} failed")
    return total


def _reference_slice() -> None:
    """Fixed pure-Python work like the program's: a product of two
    24-term rational polynomials held in dicts."""
    a = {(i, j): Fraction(i - 3, j + 2) for i in range(6) for j in range(4)}
    out: dict = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in a.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2


def reference_seconds() -> float:
    """Median time of five runs of eight reference slices: how fast the
    machine runs Python right now."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(8):
            _reference_slice()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_untraced(runner, first_round, seconds: float):
    """Whole rounds until the timed ops add up to ``seconds``.

    The reference is timed before and after every round.  Each op time of a
    round is scaled by REFERENCE_NOMINAL_S over the mean of the two, so that
    the result reads as wall time on the machine at its nominal speed and a
    change in the machine's own speed during or between runs cancels out.
    Returns the tally, the scaled op times, the scaled throughput of each
    round and the peak RSS so far."""
    tally = Tally()
    timed, index, items = 0.0, 0, first_round
    scaled, throughputs = [], []
    reference = reference_seconds()
    while True:
        done = len(tally.op_seconds)
        round_seconds = run_round(runner, items, index, tally)
        after = reference_seconds()
        scale = REFERENCE_NOMINAL_S / ((reference + after) / 2)
        reference = after
        scaled += [t * scale for t in tally.op_seconds[done:]]
        throughputs.append((len(tally.op_seconds) - done) / (round_seconds * scale))
        timed += round_seconds
        if timed >= seconds:
            break
        index += 1
        items = runner.make_round(index)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return tally, scaled, throughputs, peak_rss_mb


def run_traced(runner, first_round, seconds: float):
    import spans

    tracer = spans.Tracer()
    tally = Tally()
    plain = traced = 0.0
    counts_from = None
    index, items = 0, first_round
    while True:
        # Each round runs twice, untraced and traced, in alternating order so
        # that what the first pass leaves in the program's caches favours
        # neither side of the overhead.
        for traced_pass in (index % 2 == 1, index % 2 == 0):
            if not traced_pass:
                plain += run_round(runner, items, index, tally)
                continue
            tracer.install()
            try:
                traced += run_round(runner, items, index, tally, tracer)
            finally:
                tracer.uninstall()
            if counts_from is None:
                counts_from = tracer.snapshot()
        if plain + traced >= seconds:
            break
        index += 1
        items = runner.make_round(index)
    metrics = tracer.metrics(counts_from)
    name, unit = spans.OVERHEAD
    metrics[name] = {"value": (traced / plain - 1) * 100, "unit": unit}
    path = OUT_DIR / f"trace-{runner.name}-seed{runner.seed}.json"
    with open(path, "w") as fh:
        json.dump({"workload": runner.name, "seed": runner.seed, "dropped_spans": tracer.dropped,
                   "fields": ["id", "parent", "op", "name", "start_ns", "end_ns"], "spans": tracer.spans}, fh)
    return tally, metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0, help="summed op time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready' and exit (used to time set-up)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "transurf").is_dir():
        print(f"error: no transurf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    runner, first_round = set_up(args.workload, args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    if args.trace:
        tally, metrics = run_traced(runner, first_round, args.seconds)
    else:
        tally, op_seconds, throughputs, peak_rss_mb = run_untraced(runner, first_round, args.seconds)
    try:
        runner.final_checks()
    except AssertionError as exc:
        tally.report_check(exc)
    if not args.trace:
        metrics = {
            "ops_per_s": {"value": statistics.median(throughputs), "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(op_seconds) * 1e3, "unit": "ms"},
            "setup_s": {"value": measure_setup(args.workload, args.seed), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        print(f"unscaled op_p50_ms {statistics.median(tally.op_seconds) * 1e3:.4f}, "
              f"mean scale {statistics.fmean(op_seconds) / statistics.fmean(tally.op_seconds):.4f}", file=sys.stderr)
    result = {
        "correct": tally.check_failures == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    line = json.dumps(result)
    with open(OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        fh.write(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
