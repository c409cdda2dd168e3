"""The ntl benchmark: one closed-loop caller driving the engine in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the engine is imported from `src/`.
Workloads are described in perfbench/README.md.  The run first times
several fresh processes that import `ntl` and realize the catalog corpus
(`setup_s`), then prepares the engine in this process and repeats whole
passes over the workload's fixed query set, in an order drawn from the seed,
for about S seconds (always at least the workload's minimum number of
passes).  A query's latency is its best time over the run's passes.  Every
answer is checked.
With `--trace 1` the engine's layers are wrapped in spans (see spans.py) and
the per-layer metrics are printed instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it give
per-pass detail and the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import ctypes.util
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from spans import Tracer, layer_metrics, realize_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected" / "square_queries.json"

SETUP_SAMPLES = 11
THMC_MAX_ORDER = 6
VERIFY_CHECKS = 15

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import ntl
from ntl.catalog import finite_corpus, realize_entry
for entry in finite_corpus():
    realize_entry(entry)
print(time.perf_counter() - t0)
"""


@dataclass(frozen=True)
class Query:
    argv: tuple[str, ...]
    # (exit code, stdout) -> (operations attempted, operations failed)
    check: Callable[[int | None, str], tuple[int, int]]


def _result_of(rc, out):
    if rc != 0:
        return None
    try:
        return json.loads(out)["result"]
    except (ValueError, KeyError, TypeError):
        return None


def _expect(result: dict) -> Callable[[int | None, str], tuple[int, int]]:
    def check(rc, out):
        return 1, int(_result_of(rc, out) != result)
    return check


def _verify_check(rc, out):
    try:
        checks = json.loads(out)["checks"] if rc is not None else []
    except (ValueError, KeyError, TypeError):
        checks = []
    failed = sum(not c.get("passed") for c in checks)
    failed += max(VERIFY_CHECKS - len(checks), 0)
    if rc != 0 and failed == 0:
        failed = 1
    return max(VERIFY_CHECKS, len(checks)), failed


def square_argvs() -> list[tuple[str, ...]]:
    """`nu` on every corpus group of order <= 12, and `thmc` on those of
    order <= THMC_MAX_ORDER."""
    from ntl.verification import nu_corpus
    corpus = nu_corpus()
    return ([("nu", "--group", e.name) for e in corpus]
            + [("thmc", "--group", e.name) for e in corpus
               if e.known_facts["order"] <= THMC_MAX_ORDER])


def query_key(argv) -> str:
    return " ".join(argv)


def square_queries(expected: dict | None = None) -> list[Query]:
    if expected is None:
        expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    return [Query(argv, _expect(expected[query_key(argv)]))
            for argv in square_argvs()]


def verify_catalog() -> list[Query]:
    return [Query(("verify",), _verify_check)]


# workload -> (its queries, the fewest passes a run makes)
WORKLOADS = {
    "square_queries": (square_queries, 2),
    "verify_catalog": (verify_catalog, 1),
}


# -- measuring -----------------------------------------------------------------


def measure_setup() -> list[float]:
    """Import-and-realize time of fresh processes; one unmeasured warm-up
    process first, so bytecode compilation is not counted."""
    times = []
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                              capture_output=True, text=True, timeout=120,
                              check=True)
        if i:
            times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def _libc_malloc_trim() -> Callable[[int], int] | None:
    try:
        return ctypes.CDLL(ctypes.util.find_library("c")).malloc_trim
    except (OSError, AttributeError, TypeError):
        return None


MALLOC_TRIM = _libc_malloc_trim()


def fresh_heap():
    """Collect the garbage of earlier queries and hand the freed memory back
    to the system, so a query starts from the heap a fresh CLI process would
    have and peak RSS does not depend on the order of the queries."""
    gc.collect()
    if MALLOC_TRIM is not None:
        MALLOC_TRIM(0)


def call_cli(argv) -> tuple[int | None, str, float]:
    """One query through the public entry point; (exit code, stdout, s).
    The heap is cleared first, untimed (see fresh_heap)."""
    from ntl import cli
    fresh_heap()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        try:
            rc = cli.main(list(argv) + ["--json"])
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed query, not a dead benchmark
            rc = None
        dt = time.perf_counter() - t0
    return rc, out.getvalue(), dt


def hd_quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: the mean of the order
    statistics weighted by a Beta(q(n+1), (1-q)(n+1)) distribution.

    The best latencies of a fixed, very uneven query set are few, and the
    ones next to a given rank often differ by 20 %.  Weighting all of them, instead of
    interpolating between two, spreads less from run to run (the figures
    are in perfbench/README.md).
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    if n == 1:
        return float(x[0])
    a, b = q * (n + 1), (1 - q) * (n + 1)
    steps = 200  # integration points per order statistic
    grid = np.linspace(0.0, 1.0, steps * n + 1)[1:-1]
    logpdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    pdf = np.concatenate([[0.0], np.exp(logpdf - logpdf.max()), [0.0]])
    cdf = np.concatenate([[0.0], np.cumsum(pdf[1:] + pdf[:-1])])
    weights = np.diff(cdf[::steps]) / cdf[-1]
    return float(weights @ x)


@dataclass
class Pass:
    latencies_ms: dict[str, float]  # query key -> latency
    wall_s: float
    completed: int
    attempted: int
    failed: int
    layers: dict | None = None


def run_pass(queries: list[Query], rng: random.Random, tracer=None) -> Pass:
    order = list(queries)
    rng.shuffle(order)
    latencies, attempted, failed, completed = {}, 0, 0, 0
    unreported = 0
    before = tracer.snapshot() if tracer else None
    t0 = time.perf_counter()
    for q in order:
        cosets0 = tracer.counts["coset.cosets_defined"] if tracer else 0
        rc, out, dt = call_cli(q.argv)
        latencies[query_key(q.argv)] = dt * 1000.0
        a, f = q.check(rc, out)
        attempted += a
        failed += f
        completed += f == 0
        if tracer:
            # only queries whose report has a stats block say how many
            # cosets they defined; `verify --json` has none
            try:
                reported = json.loads(out)["stats"]["cosets_defined"]
            except (ValueError, KeyError, TypeError):
                reported = None
            if reported is not None:
                traced = tracer.counts["coset.cosets_defined"] - cosets0
                unreported += traced - reported
    wall = time.perf_counter() - t0
    p = Pass(latencies, wall, completed, attempted, failed)
    if tracer:
        p.layers = layer_metrics(tracer.snapshot() - before)
        p.layers["cli.cosets_unreported"] = unreported
        p.layers["trace.pass_s"] = wall
    return p


def run_passes(queries, seed: int, seconds: float, min_passes: int,
               tracer=None) -> list[Pass]:
    """Whole passes until another one would overrun `seconds`, and at
    least `min_passes`."""
    rng = random.Random(seed)
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(run_pass(queries, rng, tracer))
        elapsed = time.perf_counter() - t0
        if (len(passes) >= min_passes
                and elapsed + elapsed / len(passes) > seconds):
            return passes


def prepare_engine():
    """What every workload process does before its first query."""
    from ntl.catalog import finite_corpus, realize_entry
    for entry in finite_corpus():
        realize_entry(entry)


# -- reporting -----------------------------------------------------------------


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "ntl").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except OSError:
            pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "commit": commit,
            "src_sha256": digest.hexdigest()[:16]}


def best_latencies(passes: list[Pass]) -> dict[str, float]:
    """Each query's best latency over the passes.  Other tenants of the
    host only ever add time to a query, in stretches of a few seconds, so
    the best of passes spread over the run is the steadiest estimate of
    what the code costs."""
    return {key: min(p.latencies_ms[key] for p in passes)
            for key in passes[0].latencies_ms}


def end_to_end(passes: list[Pass], setup: list[float]) -> dict:
    best = list(best_latencies(passes).values())
    # the fewest queries a pass completed, per second of best latency
    completed = min(p.completed for p in passes)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "query_p50_ms": (hd_quantile(best, 0.5), "ms"),
        "query_p90_ms": (hd_quantile(best, 0.9), "ms"),
        "queries_per_s": (completed / (sum(best) / 1000.0), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


PER_LAYER_UNITS = {"_s": "s", "useful_ratio": "ratio",
                   "table_bytes": "bytes"}


def _unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def per_layer(passes: list[Pass], setup_layers: dict) -> dict:
    """The lower median over passes, so a count stays a measured whole
    number; the catalog layer is measured during set-up, where the corpus
    is realized."""
    out = {}
    for name in passes[0].layers:
        values = [p.layers[name] for p in passes]
        out[name] = (statistics.median_low(values), _unit(name))
    out.update((k, (v, _unit(k))) for k, v in setup_layers.items())
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ntl" / "__init__.py").is_file():
        print(f"no engine sources under {SRC}", file=sys.stderr)
        return 2
    load_before = os.getloadavg()

    setup = [] if args.trace else measure_setup()
    sys.path.insert(0, str(SRC))
    make_queries, min_passes = WORKLOADS[args.workload]
    queries = make_queries()
    tracer = None
    setup_layers = {}
    if args.trace:
        tracer = Tracer()
        tracer.install()
        before = tracer.snapshot()
        prepare_engine()
        setup_layers = realize_metrics(tracer.snapshot() - before)
    else:
        prepare_engine()

    passes = run_passes(queries, args.seed, args.seconds, min_passes,
                        tracer)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    metrics = (per_layer(passes, setup_layers) if tracer
               else end_to_end(passes, setup))

    env = environment()
    env["loadavg_before"] = load_before
    env["loadavg_after"] = os.getloadavg()
    print("env " + json.dumps(env, sort_keys=True))
    for i, p in enumerate(passes):
        lat = list(p.latencies_ms.values())
        print(f"pass {i}: {len(lat)} queries in {p.wall_s:.3f} s, "
              f"p50 {hd_quantile(lat, 0.5):.2f} ms, "
              f"p90 {hd_quantile(lat, 0.9):.2f} ms, "
              f"{p.failed}/{p.attempted} failed")
    print(f"failed_frac {failed / attempted:.6f} ({failed}/{attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
