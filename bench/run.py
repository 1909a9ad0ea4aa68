"""Seeded benchmark of the cutoffmatch library.

    python3 bench/run.py --workload solve-cohort --seed 0 --seconds 20 --trace 0

Runs one workload (see ``workloads.py``) in a closed loop: one process, one
thread, one input at a time.  Inputs are built from ``--seed`` during
set-up; the loop then calls the library on them, in pool order, until
``--seconds`` of measured call time have passed.  Every output is checked
by an independent correctness gate that is timed apart from the measured
call, and, for the default seed, compared with the golden digests in
``golden.json``.

Times are reported in reference seconds.  The machine's speed drifts by
tens of percent over seconds to minutes when other work shares its cores,
so right after each call (and around each set-up step) the run times a
fixed reference loop for a few milliseconds.  A call's reference time is
its wall time divided by the slowdown the reference saw around it,
relative to ``REF_UNIT_S``; on an idle machine of the kind the bounds were
set on, reference seconds and wall seconds agree.  The table also prints
the wall-clock figures.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it calls each of the pool's first ``TRACED_INPUTS`` inputs
once untraced and once traced, reports the per-layer metrics in wall
seconds, and writes the spans to
``.bench_trace/`` at the root of the checkout.  Both modes print a
human-readable table and end with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.

``--smoke`` runs every workload, untraced and traced, on a few inputs;
``--write-golden`` rewrites ``golden.json`` from the default seed.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"
TRACE_DIR = ROOT / ".bench_trace"

DEFAULT_SEED = 0
SETUP_REPEATS = 3
SMOKE_UNITS = 4
TRACED_INPUTS = 100

# One reference unit takes about this long on the 2-core machine the bounds
# were set on, under light load; a sample lasts at least REF_SAMPLE_S.  A
# call's slowdown is the median of the REF_WINDOW samples around it.
REF_UNIT_S = 0.0008
REF_SAMPLE_S = 0.002
REF_WINDOW = 6
# A run also ends once its calls have taken this many times --seconds of
# wall time, so that a slow machine cannot stretch it without limit.
WALL_CAP = 1.2

END_TO_END = (
    ("instances_per_s", "1/s"),
    ("instance_s.p50", "s"),
    ("instance_s.p90", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def import_program():
    """Import the library from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "cutoffmatch" / "__init__.py").is_file():
        sys.exit(f"run.py: {SRC / 'cutoffmatch'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import cutoffmatch
    if Path(cutoffmatch.__file__).resolve().parent != SRC / "cutoffmatch":
        sys.exit(f"run.py: imported cutoffmatch from {cutoffmatch.__file__}, not {SRC}")
    import tracing
    import workloads
    return workloads, tracing


def environment() -> str:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return f"python {platform.python_version()}, nproc {nproc}, commit {commit()}"


def commit() -> str:
    """HEAD of the checkout's git repository, when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def load_golden(workload_name: str, seed: int) -> list:
    if seed != DEFAULT_SEED or not GOLDEN.is_file():
        return []
    return json.loads(GOLDEN.read_text()).get(workload_name, [])


# -- reference speed -----------------------------------------------------------


def _reference_unit() -> Fraction:
    """Fixed interpreter work of the library's kind: small Fractions in a dict."""
    table: dict[tuple[int, int], Fraction] = {}
    acc = Fraction(0)
    for i in range(100):
        q = Fraction(i % 7 + 1, i % 5 + 2)
        key = (i % 13, i % 3)
        table[key] = table.get(key, Fraction(0)) + q
        acc += q - table[key] / 3
    return acc


def slowdown() -> float:
    """The machine's slowdown now: the reference unit's time over REF_UNIT_S."""
    t0 = time.perf_counter()
    units = 0
    while True:
        _reference_unit()
        units += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= REF_SAMPLE_S:
            return elapsed / units / REF_UNIT_S


# -- measurement -------------------------------------------------------------


def setup(wl, workload, seed: int, size: int, repeats: int):
    """Build the input pool ``repeats`` times; keep the last one.

    Returns the pool, its set-up clock, and each build's reference time.
    """
    builds = []
    pool = clock = None
    before = slowdown()
    for _ in range(repeats):
        pool = clock = None
        t0 = time.perf_counter()
        pool, clock = wl.build_pool(workload, seed, size)
        elapsed = time.perf_counter() - t0
        after = slowdown()
        builds.append(elapsed / ((before + after) / 2))
        before = after
    return pool, clock, builds


class Checker:
    """Runs the correctness gates and counts failures."""

    def __init__(self, wl, workload, golden: list):
        self.wl, self.workload, self.golden = wl, workload, golden
        self.failed = 0

    def fail(self, index: int, what: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            sys.stderr.write(f"{self.workload.name} input {index}: {what}\n")

    def check(self, index: int, inp, out, error: str | None) -> str | None:
        """Gate one output; return its digest, or None if it failed."""
        if error is not None:
            self.fail(index, error)
            return None
        try:
            got = self.wl.check_output(self.workload, inp, out)
        except Exception as exc:  # a gate that cannot run counts as failed
            self.fail(index, f"gate: {type(exc).__name__}: {exc}")
            return None
        if self.golden and got != self.golden[index]:
            self.fail(index, f"digest {got} differs from golden {self.golden[index]}")
            return None
        return got


def timed_call(workload, ctx, inp):
    """One measured call: (seconds, output, error text or None)."""
    t0 = time.perf_counter()
    try:
        out = workload.run(inp, ctx)
    except Exception:  # the loop goes on; the failure is counted and shown
        elapsed = time.perf_counter() - t0
        return elapsed, None, traceback.format_exc(limit=3).strip().replace("\n", " | ")
    return time.perf_counter() - t0, out, None


def measure(workload, ctx, pool, seconds: float, checker: Checker, min_calls: int):
    """Closed loop over the pool until ``seconds`` of reference call time
    (or WALL_CAP times as much wall time) have passed.

    Returns the wall time and the reference time of every call.
    """
    wall = []
    samples = [slowdown()]  # samples[i] and samples[i + 1] bracket call i
    ref_total = 0.0
    while ((ref_total < seconds and sum(wall) < WALL_CAP * seconds)
           or len(wall) < min_calls):
        index = len(wall) % len(pool)
        dt, out, error = timed_call(workload, ctx, pool[index])
        samples.append(slowdown())
        wall.append(dt)
        ref_total += dt / ((samples[-2] + samples[-1]) / 2)
        checker.check(index, pool[index], out, error)
    half = REF_WINDOW // 2
    ref = [dt / statistics.median(samples[max(0, i + 1 - half):i + 1 + half])
           for i, dt in enumerate(wall)]
    return wall, ref


def traced_pass(workload, wl, tracer, pool, checker: Checker) -> tuple[float, float]:
    """Call each input untraced, then traced; return both total call times.

    Pairing the calls input by input keeps slow spells of the machine from
    landing on one side only.
    """
    untraced = traced = 0.0
    for i, inp in enumerate(pool):
        untraced += timed_call(workload, wl.Context(), inp)[0]
        with tracer.installed(i):
            dt, out, error = timed_call(workload, tracer, inp)
        traced += dt
        checker.check(i, inp, out, error)
    return untraced, traced


def timing(times: list) -> tuple[float, float, float]:
    """Calls per second, median and 90th percentile of per-call times."""
    p90 = times[0]
    if len(times) > 1:
        p90 = statistics.quantiles(times, n=10, method="inclusive")[8]
    return len(times) / sum(times), statistics.median(times), p90


def run_workload(wl, tracing, name: str, seed: int, seconds: float, trace: bool,
                 import_s: float, size: int | None = None,
                 repeats: int = SETUP_REPEATS) -> dict:
    """Set up, measure and check one workload; print its table; return the result."""
    workload = wl.WORKLOADS[name]
    size = size or workload.pool_size
    if trace:  # a fixed prefix of the pool, built once: enough for the layer counts
        size, repeats = min(size, TRACED_INPUTS), 1
    import_ref = import_s / slowdown()
    pool, clock, builds = setup(wl, workload, seed, size, repeats)
    # the pool lives for the whole run: keep the collector from rescanning it
    gc.collect()
    gc.freeze()
    checker = Checker(wl, workload, load_golden(name, seed)[:size])
    print(f"# {name}, seed {seed}, {len(pool)} inputs: {workload.shape}")
    print(f"# {environment()}")

    if not trace:
        # a shortened pool (smoke runs) is run through once, whatever the time
        min_calls = 1 if size == workload.pool_size else len(pool)
        wall, ref = measure(workload, wl.Context(), pool, seconds, checker, min_calls)
        per_s, p50, p90 = timing(ref)
        metrics = {
            "instances_per_s": per_s,
            "instance_s.p50": p50,
            "instance_s.p90": p90,
            "setup_s": import_ref + statistics.median(builds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)
        wall_per_s, wall_p50, wall_p90 = timing(wall)
        samples = {
            "instances_per_s": f"{len(ref)} calls; wall {wall_per_s:.6g}",
            "instance_s.p50": f"{len(ref)} calls; wall {wall_p50:.6g}",
            "instance_s.p90": f"{len(ref)} calls; wall {wall_p90:.6g}",
            "setup_s": f"median of {len(builds)} builds",
            "peak_rss_mb": "ru_maxrss",
        }
        attempted = len(ref)
        print(f"{'metric':<28} {'reference':>14} {'unit':<6} samples")
        for key, value in metrics.items():
            print(f"{key:<28} {value:>14.6g} {units[key]:<6} {samples[key]}")
        print(f"{'failed_frac':<28} {checker.failed / attempted:>14.6g} {'ratio':<6} "
              f"{attempted} calls")
        print(f"# mean slowdown {sum(wall) / sum(ref):.3f} (wall time / reference time)")
    else:
        tracer = tracing.Tracer()
        untraced_s, traced_s = traced_pass(workload, wl, tracer, pool, checker)
        metrics = tracer.metrics(clock, untraced_s, traced_s)
        units = dict(tracing.PER_LAYER)
        attempted = len(pool)
        for key, value in metrics.items():
            print(f"{key:<28} {value:>14.6g} {units[key]}")
        TRACE_DIR.mkdir(exist_ok=True)
        out = TRACE_DIR / f"{name}-seed{seed}.tsv"
        tracer.write(out)
        print(f"# {len(tracer.spans)} spans written to {out.relative_to(ROOT)}")
    gc.unfreeze()
    return {
        "correct": checker.failed == 0,
        "attempted": attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def write_golden(wl) -> None:
    """Record the digest of every default-seed output, after its gate passes."""
    golden = {}
    for name, workload in wl.WORKLOADS.items():
        pool, _ = wl.build_pool(workload, DEFAULT_SEED, workload.pool_size)
        checker = Checker(wl, workload, [])
        digests = []
        for i, inp in enumerate(pool):
            _, out, error = timed_call(workload, wl.Context(), inp)
            digests.append(checker.check(i, inp, out, error))
        if checker.failed:
            sys.exit(f"run.py: {name}: {checker.failed} outputs failed their gates")
        golden[name] = digests
        print(f"{name}: {len(digests)} digests")
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")


def smoke(wl, tracing, import_s: float) -> int:
    """Every workload, untraced and traced, on its first few default-seed inputs."""
    ok = True
    for name in wl.WORKLOADS:
        for trace in (False, True):
            result = run_workload(wl, tracing, name, DEFAULT_SEED, 0.0, trace, import_s,
                                  size=SMOKE_UNITS, repeats=1)
            print(json.dumps(result))
            ok = ok and result["correct"]
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="workload name")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="reference seconds of measured calls per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload on a few inputs, untraced and traced")
    parser.add_argument("--write-golden", action="store_true",
                        help="rewrite golden.json from the default seed")
    args = parser.parse_args(argv)

    wl, tracing = import_program()
    import_s = time.perf_counter() - PROCESS_START
    if args.write_golden:
        write_golden(wl)
        return 0
    if args.smoke:
        return smoke(wl, tracing, import_s)
    if args.workload not in wl.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(wl.WORKLOADS)}")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    result = run_workload(wl, tracing, args.workload, args.seed, args.seconds,
                          bool(args.trace), import_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
