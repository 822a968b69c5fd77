"""atomfringe benchmark: timed closed-loop workloads with output checks.

    python3 benchmarks/run.py --workload recovery --seed 0 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One caller in one process runs operations back to back for
``--seconds`` with BLAS pinned to one thread.  Inputs come from
``--seed`` alone.  Every operation's outputs are checked; with the
default seed the first operations are also compared with the values
recorded in ``reference.json``.

With ``--trace 0`` the run reports end-to-end metrics measured with
tracing off: operations per second, the median operation time and
``setup_s`` (median over fresh interpreters of importing
atomfringe plus the first ``averaged_fringe`` call), each scaled to a
nominal host speed (see ``NOMINAL_PROBE_S``); the summary lines give
them as measured too.  The tail operation time is a summary line, not
a metric (see ``TAIL_PCTS``).  With
``--trace 1`` it runs each input twice, untraced and with spans
recorded around the public functions of each module (see
``tracing.py``), alternating which goes first, and reports per-layer
metrics per operation plus the tracing overhead (traced minus
untraced time); the spans are written to ``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before
it restate the metrics under the names each workload uses (for
example ``fits_per_s`` on recovery).  ``--smoke`` runs four operations
and few set-up samples with the same checks.  ``--record PATH`` appends
the result, summary and environment as one JSON line (the input of
``sweep.py`` and ``compare.py``).  ``--write-reference`` re-records
``reference.json`` from the default seed.
"""

from __future__ import annotations

import os

# pinned before numpy loads: one caller, one BLAS thread
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 0
REFERENCE_OPS = 3  # leading operations of the default seed compared with reference.json
SMOKE_OPS = 4
# Fresh-interpreter set-up samples are taken before, between and after
# SLICES slices of the timed loop, so that they meet the same host
# states as the operations.
SLICES = 4
SETUP_PER_SLICE = 2  # fresh interpreters timed for setup_s at each slice boundary

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_s_p50", "s"),
    ("setup_s", "s"),
)
# The tail operation time is the highest of these percentiles with at
# least ten samples beyond it.  It is printed, not gated: in two sets of
# ten runs of the same code on a loaded 2-core host the p90 medians, as
# measured, differed by 38% (deep_sweep) and 54% (recovery), past the
# largest bound allowed, while the p50 medians differed by at most 15%.
TAIL_PCTS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# The shared 2-core host this benchmark was built on drifts between
# speeds up to 1.8x apart over tens of seconds, so whole runs of the
# same code differed by that much.  Next to each operation a fixed
# pure-Python loop of PROBE_LOOPS iterations is timed (the lesser of one
# run just before and one just after), and every reported time is
# multiplied by NOMINAL_PROBE_S over the run's median probe (rates
# divided by it).  Over six runs per workload this cut the spread (IQR
# over median) of the median operation time from 0.05-0.27 to 0.02-0.04.
PROBE_LOOPS = 3000
NOMINAL_PROBE_S = 250e-6  # the loop's usual time on that host
# the names each workload's summary lines use for the generic metrics
ALIASES = {
    "recovery": {"ops_per_s": "fits_per_s", "op_s_p50": "fit_s_p50", "op_s_tail": "fit_s_tail"},
    "deep_sweep": {"ops_per_s": "curves_per_s", "op_s_p50": "curve_s_p50", "op_s_tail": "curve_s_tail"},
    "null_design": {"ops_per_s": "designs_per_s", "op_s_p50": "design_s_p50", "op_s_tail": "design_s_tail"},
}

SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import atomfringe as af
beam = af.BeamModel(u=1065.7, s_parallel=7.67)
af.averaged_fringe([af.DispersivePhaseTerm(-25.0, 1), af.DispersivePhaseTerm(0.646, 1)], beam)
print(repr(time.perf_counter() - t0))
"""


def _import_package():
    if not (SRC / "atomfringe" / "__init__.py").is_file():
        sys.exit(f"error: no atomfringe sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    global af, workloads, tracing, stats
    import atomfringe as af

    if Path(af.__file__).resolve().parent != SRC / "atomfringe":
        sys.exit(f"error: imported atomfringe from {af.__file__}, not from {SRC}")
    import stats
    import tracing
    import workloads


def environment() -> dict:
    import ctypes
    import glob

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        try:
            fn = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        threads = fn()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": BLAS_THREADS,
        "blas_threads": threads,
        "machine": platform.machine(),
    }


def probe() -> float:
    """Seconds for a fixed pure-Python loop that calls no atomfringe code."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i
    return time.perf_counter() - t0


def setup_samples(count: int) -> list[float]:
    """Seconds to import atomfringe and make the first average, each in a fresh interpreter."""
    samples = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC)], cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout))
    return samples


class Runner:
    """Runs one workload's operations, timing them and counting failures."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def one(self, inp, tracer=None, op_id=None):
        """Run and check one operation: (seconds, Outcome, probe seconds), or None if it failed."""
        self.attempted += 1
        try:
            prepared = self.workload.prepare(inp)
            if tracer is not None:
                tracer.op = op_id
            before = probe()
            t0 = time.perf_counter()
            result = self.workload.run(prepared)
            elapsed = time.perf_counter() - t0
            host = min(before, probe())
            outcome = self.workload.check(prepared, result)
        except Exception as exc:  # every failure is counted and reported, the loop goes on
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append("".join(traceback.format_exception_only(exc)).strip())
            return None
        return elapsed, outcome, host

    def slices(self, inputs, seconds: float, max_ops: int | None, between) -> list[tuple]:
        """New inputs for ``seconds`` (or max_ops), in SLICES equal slices with ``between`` around each.

        Returns one() of every operation that succeeded.
        """
        done = []
        for _ in range(SLICES):
            between()
            deadline = time.perf_counter() + seconds / SLICES
            n = 0
            while (time.perf_counter() < deadline) if max_ops is None else (n < max_ops // SLICES):
                n += 1
                r = self.one(next(inputs))
                if r is not None:
                    done.append(r)
        between()
        return done


def check_reference(name: str, outcomes, write: bool) -> str | None:
    """Compare (or with write, record) the default seed's leading digests."""
    digests = [o.digest for o in outcomes[:REFERENCE_OPS]]
    doc = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    if write:
        doc[name] = digests
        REFERENCE.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        return None
    if name not in doc:
        return f"reference.json has no {name} entry"
    for i, (got, ref) in enumerate(zip(digests, doc[name])):
        problem = workloads.compare_digest(got, ref)
        if problem:
            return f"operation {i} differs from reference.json: {problem}"
    return None


def end_to_end(workload, done, setup) -> tuple[dict, list[str]]:
    """End-to-end metrics, scaled to the nominal host speed, from one() results and set-up samples."""
    if not done:
        raise RuntimeError("no operation succeeded")
    durations = [r[0] for r in done]
    host = statistics.median(r[2] for r in done)
    scale = NOMINAL_PROBE_S / host
    measured = {
        "ops_per_s": len(durations) / sum(durations),
        "op_s_p50": stats.percentile(durations, 50.0),
        "setup_s": statistics.median(setup),
    }
    values = {k: v / scale if k == "ops_per_s" else v * scale for k, v in measured.items()}
    alias = ALIASES[workload.name]
    lines = [f"{alias.get(k, k)} {values[k]!r} {unit} (as measured {measured[k]!r})"
             for k, unit in END_TO_END]
    for pct in TAIL_PCTS:
        tail = stats.percentile(durations, pct)
        beyond = sum(d > tail for d in durations)
        if beyond >= 10:
            break
    lines.append(f"{alias['op_s_tail']} {tail * scale!r} s (as measured {tail!r}; p{pct:g} of "
                 f"{len(durations)} samples, {beyond} beyond it)")
    lines.append(f"host probe median {host * 1e6:.1f} us, nominal {NOMINAL_PROBE_S * 1e6:.0f} us")
    lines.append(f"setup_s is the median of {len(setup)} fresh interpreters")
    if workload.name == "deep_sweep":
        points = sum(r[1].points for r in done)
        rate = points / sum(durations)
        lines.append(f"curve_points_per_s {rate / scale!r} 1/s (as measured {rate!r})")
    if workload.name == "recovery":
        fits = [r[1].in_3sigma for r in done]
        lines.append(f"recovery_in_3sigma_frac {sum(fits) / len(fits)!r} 1 ({len(fits)} fits)")
    return {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END}, lines


def traced(workload, runner, inputs, seconds, max_ops, spans_path) -> tuple[dict, list[str], str | None]:
    """Each input untraced and traced, alternating which goes first: per-layer metrics per operation."""
    tracer = tracing.Tracer()
    pairs = []  # (untraced s, traced s)
    ops = 0
    deadline = time.perf_counter() + seconds
    while (time.perf_counter() < deadline) if max_ops is None else (ops < max_ops):
        inp = next(inputs)
        pair = {}
        for tracing_on in ((False, True) if ops % 2 == 0 else (True, False)):
            if tracing_on:
                tracer.install()
                try:
                    pair[True] = runner.one(inp, tracer, ops)
                finally:
                    tracer.uninstall()
            else:
                pair[False] = runner.one(inp)
        if None not in pair.values():
            pairs.append((pair[False][0], pair[True][0]))
        ops += 1
    values = tracing.layer_metrics(tracer.spans, ops)
    values["fringe.unwrap_share"] = tracing.unwrap_share(
        tracer.spans, af.fringe.averaged_fringe, max_calls=20 if max_ops else 200)
    if pairs:
        plain, traced_total = sum(p[0] for p in pairs), sum(p[1] for p in pairs)
        values["trace.overhead_s"] = (traced_total - plain) / len(pairs)
        values["trace.overhead_frac"] = traced_total / plain - 1.0
    spans_path.parent.mkdir(exist_ok=True)
    tracer.write(spans_path)
    missing = sorted(set(workload.layers) - tracer.layers())
    problem = f"layers recorded no spans: {', '.join(missing)}" if missing else None
    units = dict(tracing.LAYER_METRICS)
    lines = [f"{k} {v!r} {units[k]}" for k, v in values.items()]
    lines.append(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}, lines, problem


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("recovery", "deep_sweep", "null_design"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="four operations, few set-up samples")
    parser.add_argument("--record", help="append result and environment as a JSON line here")
    parser.add_argument("--write-reference", action="store_true",
                        help="record the default seed's outputs into reference.json")
    args = parser.parse_args(argv)
    if args.write_reference and (args.seed != DEFAULT_SEED or args.trace):
        parser.error("--write-reference needs the default seed and --trace 0")

    _import_package()
    import numpy as np

    workload = workloads.WORKLOADS[args.workload]
    max_ops = SMOKE_OPS if args.smoke or args.write_reference else None
    runner = Runner(workload)
    problems = []
    with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=ROOT) as tmp:
        workload.setup(Path(tmp))
        # warm-up on its own input stream: node cache, imports, first files
        runner.one(next(workload.inputs(np.random.default_rng([args.seed, 1]))))
        inputs = workload.inputs(np.random.default_rng(args.seed))
        if args.trace:
            spans_path = ROOT / ".bench_out" / f"spans-{workload.name}-seed{args.seed}.jsonl"
            metrics, lines, problem = traced(workload, runner, inputs, args.seconds, max_ops, spans_path)
            if problem:
                problems.append(problem)
        else:
            setup_samples(1)  # discarded: the first interpreter also fills file caches
            setup = []
            per_slice = 1 if max_ops else SETUP_PER_SLICE
            done = runner.slices(inputs, args.seconds, max_ops,
                                 lambda: setup.extend(setup_samples(per_slice)))
            metrics, lines = end_to_end(workload, done, setup)
            outcomes = [r[1] for r in done]
    if args.seed == DEFAULT_SEED and not args.trace:
        problem = check_reference(workload.name, outcomes, args.write_reference)
        if problem:
            problems.append(problem)
    problems.extend(runner.errors)
    env = environment()
    correct = runner.failed == 0 and not problems
    result = {"correct": correct, "attempted": runner.attempted, "failed": runner.failed,
              "metrics": metrics}
    for line in lines:
        print(f"# {workload.name} {line}")
    print(f"# {workload.name} failed_frac {runner.failed / runner.attempted!r} "
          f"({runner.failed} of {runner.attempted})")
    print(f"# environment {json.dumps(env, sort_keys=True)}")
    for problem in problems:
        print(f"# problem: {problem}")
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": workload.name, "seed": args.seed, "trace": args.trace,
                                 "seconds": args.seconds, "environment": env,
                                 "summary": lines, "result": result}) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
