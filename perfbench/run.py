"""Benchmark of the `qkt verify` entry point.

Run from the repository root:

    python3 perfbench/run.py --workload conf8_all --seed 1 --seconds 35 --trace 0

One operation is one ``qkt.cli.main(["verify", ..., "--report", path])``
call, made in-process.  Operations run one after another from this single
process (a closed loop with one client); each draws a different Halton
seed from ``--seed``, and every report is checked against the committed
reference for its seed.  Each run also makes one ``--j2-tilt 5``
operation, which must exit 1.

``--trace 0`` measures the end-to-end metrics:
  report_s     median wall seconds of one operation (sample count printed);
  setup_s      median seconds from a fresh interpreter to a structure ready
               to verify, over several cold starts;
  peak_rss_mb  peak resident memory of this process, which runs the
               operations (no forced garbage collection in between);
  ok_share     share of operations that returned the expected exit code
               and a report matching the reference.

``--trace 1`` runs each seed untraced and then traced, checks that the two
reports are byte-identical apart from ``meta.timestamp``, and reports the
per-layer metrics of the traced operations (see layertrace.py) as medians per
operation: counts, and times as shares of the operation in %.  It prints
each layer's seconds beside them.  Counts must repeat exactly across
operations.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# Every array is at most 12x12: pin BLAS to one thread before numpy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

from workloads import HERE, TILT_ARGS, WORKLOADS, check, load_reference, seed_stream, verify_argv  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"

# Cold starts per run for setup_s; one more, untimed, warms the file cache.
# They are spread evenly over the run, between operations, so that setup_s
# averages over the same host noise as report_s.
SETUP_STARTS = 9
# Reports keep their structures alive through a reference cycle until a gen-2
# collection, so peak memory grows with the number of operations run.  Peak
# RSS is read after a fixed number of timed operations, so that a faster
# program, which fits more operations into a run, does not read as bigger.
MEMORY_OPS = 8
END_TO_END = {"report_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_share": "share"}
TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
    }


def cold_start(workload: str, halton_seed: int) -> float:
    """Seconds from a fresh interpreter to a structure ready to verify."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_child.py"), workload, str(halton_seed)],
        capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


class Runner:
    """Runs operations and applies the correctness gate to each."""

    def __init__(self, workload: str, seed: int):
        from qkt import cli

        self.cli = cli
        self.workload = workload
        self.reference = load_reference(workload)
        self.seeds = seed_stream(workload, seed)
        self.attempted = 0
        self.failed = 0
        WORK.mkdir(exist_ok=True)

    def verify(self, halton_seed: int, name: str, extra=()):
        """One operation: (exit code or None if it raised, seconds, report text)."""
        path = WORK / f"{self.workload}_{name}.json"
        if path.exists():
            path.unlink()
        argv = verify_argv(self.workload, halton_seed, path, extra)
        self.attempted += 1
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.cli.main(argv)
        except Exception:  # an operation that raises counts as failed
            traceback.print_exc(file=sys.stderr)
            return None, time.perf_counter() - start, None
        elapsed = time.perf_counter() - start
        text = path.read_text(encoding="utf-8") if path.exists() else None
        return code, elapsed, text

    def fail(self, halton_seed: int, problem: str):
        self.failed += 1
        print(f"FAILED {self.workload} seed {halton_seed}: {problem}", file=sys.stderr)

    def gated(self, halton_seed: int, name: str = "op"):
        """An operation checked against the reference; (seconds, report text)."""
        code, elapsed, text = self.verify(halton_seed, name)
        if code is None or text is None:
            self.fail(halton_seed, "raised or wrote no report")
            return elapsed, None
        problem = check(self.reference, halton_seed, json.loads(text), code)
        if problem:
            self.fail(halton_seed, problem)
        return elapsed, text

    def negative_control(self):
        halton_seed = next(self.seeds)
        code, _, text = self.verify(halton_seed, "tilt", TILT_ARGS)
        if code != 1 or text is None:
            self.fail(halton_seed, f"--j2-tilt 5 exited {code}, expected 1")
            return
        if all(row["pass"] for row in json.loads(text)["results"]):
            self.fail(halton_seed, "--j2-tilt 5 report has no failing row")


def median_line(name: str, values: list, unit: str) -> str:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return (f"{name}: median {statistics.median(values):.4f} {unit} over {len(values)} "
            f"(quartiles {q[0]:.4f} .. {q[2]:.4f}, min {min(values):.4f}, "
            f"max {max(values):.4f})")


def end_to_end(workload: str, seed: int, seconds: float):
    setup_seeds = seed_stream(workload, seed)
    cold_start(workload, next(setup_seeds))      # warms the file cache
    setup = []

    runner = Runner(workload, seed)
    runner.gated(next(runner.seeds))     # warm-up: checked, not timed
    times = []
    start = time.perf_counter()
    deadline = start + seconds
    while len(times) < MEMORY_OPS or time.perf_counter() < deadline:
        if time.perf_counter() - start >= seconds * len(setup) / SETUP_STARTS:
            setup.append(cold_start(workload, next(setup_seeds)))
        elapsed, _ = runner.gated(next(runner.seeds))
        times.append(elapsed)
        if len(times) == MEMORY_OPS:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            peak_ops = runner.attempted
    while len(setup) < SETUP_STARTS:
        setup.append(cold_start(workload, next(setup_seeds)))
    runner.negative_control()

    print(median_line("setup_s", setup, "s"))
    print(median_line("report_s", times, "s"))
    print(f"peak_rss_mb: {peak_mb:.2f} MB over the first {peak_ops} operations")
    values = {
        "report_s": statistics.median(times),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_mb,
        "ok_share": (runner.attempted - runner.failed) / runner.attempted,
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    return runner, metrics, True


def layers(workload: str, seed: int, seconds: float):
    from layertrace import LAYERS, Tracer, layer_metrics, metric_names

    runner = Runner(workload, seed)
    runner.gated(next(runner.seeds), "plain")   # warm-up: checked, not traced
    tracer = Tracer()
    plain_times, traced_times, per_op, per_op_seconds = [], [], [], []
    differing = 0
    deadline = time.perf_counter() + seconds
    while not per_op or time.perf_counter() < deadline:
        halton_seed = next(runner.seeds)
        plain_s, plain_text = runner.gated(halton_seed, "plain")
        tracer.reset()
        tracer.install()
        try:
            traced_s, traced_text = runner.gated(halton_seed, "traced")
        finally:
            tracer.uninstall()
        plain_times.append(plain_s)
        traced_times.append(traced_s)
        per_op_seconds.append(tracer.layer_seconds())
        per_op.append(layer_metrics(per_op_seconds[-1], tracer.cache_sizes(), traced_s))
        if plain_text and traced_text and \
                TIMESTAMP.sub("", plain_text) != TIMESTAMP.sub("", traced_text):
            differing += 1
            runner.fail(halton_seed, "traced report differs from the untraced one")
    runner.negative_control()

    units = dict(metric_names())
    counts_repeat = all(
        op[name] == per_op[0][name] for op in per_op for name, unit in units.items()
        if unit == "count")
    if not counts_repeat:
        print("per-layer counts differ between operations", file=sys.stderr)
    metrics = {name: (per_op[0][name] if unit == "count"
                      else statistics.median(op[name] for op in per_op), unit)
               for name, unit in units.items()}

    def median_s(prefix: str, column: int) -> float:
        return statistics.median(op[prefix][column] for op in per_op_seconds)

    overhead = statistics.median(traced_times) - statistics.median(plain_times)
    print(median_line("report_s untraced", plain_times, "s"))
    print(median_line("report_s traced", traced_times, "s"))
    print(f"tracing overhead: {overhead:.4f} s per operation; traced reports "
          f"{'match' if not differing else 'differ from'} the untraced ones "
          f"apart from meta.timestamp ({differing} differ)")
    print("seconds per traced operation (medians over operations):")
    for prefix, _ in LAYERS:
        print(f"  {prefix}: calls {per_op_seconds[0][prefix][0]}, "
              f"self_s {median_s(prefix, 1):.4f}, s {median_s(prefix, 2):.4f}")
    print("known limit: qkt_connection._section2_bundle runs behind closures, so "
          "its time is charged to the first traced function to touch a point: "
          f"torsion_one_forms self_s {median_s('qkt_connection.torsion_one_forms', 1):.4f}, "
          f"partial_derivative self_s {median_s('tensor_core.partial_derivative', 1):.4f}, "
          f"with {metrics['qkt_connection.cache.bundle'][0]} bundle-cache entries")
    spans_path = WORK / f"spans_{workload}.json"
    spans_path.write_text(json.dumps(tracer.spans, separators=(",", ":")), encoding="utf-8")
    print(f"spans of the last traced operation written to {spans_path.relative_to(ROOT)}")
    return runner, metrics, counts_repeat


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qkt" / "__init__.py").is_file():
        print(f"error: no qkt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    print("env: " + json.dumps(environment()))
    measure = layers if args.trace else end_to_end
    runner, metrics, consistent = measure(args.workload, args.seed, args.seconds)
    result = {
        "correct": runner.failed == 0 and consistent,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
