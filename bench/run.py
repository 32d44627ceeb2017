"""Benchmark of the treemajority command line, driven in-process.

    python3 bench/run.py --workload phase_diagram --seed 1 --seconds 20 --trace 0

One client sends ``treemajority.cli.main`` requests in a closed loop: the
next request goes out when the previous one returns.  A round is the
workload's fixed request list, generated from ``--seed``; rounds repeat while
one more round fits in ``--seconds``, and at least three run.  Each answer is
checked against an independent oracle right after its request returns,
outside the request's timed interval.  The workload's edge requests, where
the program's answers are known to be fragile, are sent once after the timed
rounds and checked by the same oracles; they count in the printed
``error_rate`` but not in the result line.

The host's speed drifts by tens of percent over seconds to minutes, and CPU
time drifts with it.  So a fixed reference kernel (hostref.py) is timed
before and after every request.  Each latency is scaled to a host on which
that kernel takes ``hostref.NOMINAL_S``: by the median kernel time over a
few requests either side of it, to the power ``hostref.HOST_EXPONENT``.
Each request's latency is then the median of its scaled latencies over the
rounds.  ``wall_norm_s`` is the sum of these over the request list,
``req_p50_norm_ms`` their median and ``req_tail_norm_ms`` the value at the
highest percentile with at least ten requests beyond it.  The same figures
unscaled (``wall_s``, ``req_p50_ms``, ``req_tail_ms``) are printed too.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with ``--trace 0``, and
with ``--trace 1`` the per-layer metrics of a run whose second half is traced.
The lines before it name every metric with its unit and report the
environment, the workload's computed properties and each failed request.
Exits 2 without a result line when the package or an oracle is unavailable.
"""

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:  # before numpy is imported
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import mpmath  # noqa: E402
import numpy as np  # noqa: E402

import hostref  # noqa: E402
import oracles  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 7
MIN_ROUNDS = 3
TRACED_MIN_ROUNDS = 2  # per half of a traced run
ROUNDS_DEADLINE_S = 120.0  # rounds end by then, whatever --seconds says
REF_WINDOW = 2  # host reference samples either side of a request that scale its latency


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def check_spec() -> None:
    """BENCHMARK.json must name the workloads and per-layer metrics this code produces."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    spec = json.loads(path.read_text())
    if sorted(w["name"] for w in spec["workloads"]) != sorted(workloads.BY_NAME):
        raise BenchError("BENCHMARK.json workloads differ from bench/workloads.py")
    if [m["name"] for m in spec["per_layer"]] != tracing.per_layer_names():
        raise BenchError("BENCHMARK.json per_layer metrics differ from bench/tracer.py")


def import_package():
    """Import treemajority from this checkout's src/, never from elsewhere."""
    if not (SRC / "treemajority" / "__init__.py").is_file():
        raise BenchError(f"no treemajority package under {SRC}")
    sys.path.insert(0, str(SRC))
    import treemajority
    import treemajority.cli  # noqa: F401  (loads every layer module)

    if SRC.resolve() not in Path(treemajority.__file__).resolve().parents:
        raise BenchError(f"treemajority imported from {treemajority.__file__}, not {SRC}")
    return treemajority


def measure_setup(warmups: list) -> list:
    """(seconds, host reference seconds) of set-up in fresh processes: imports, parser, warm-ups."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), json.dumps(warmups)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
        elapsed, ref = proc.stdout.split()[-2:]
        samples.append((float(elapsed), float(ref)))
    return samples


def _git_commit():
    if not (ROOT / ".git").exists():
        return None  # an exported checkout; src_sha256 identifies the code
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(package, seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "treemajority": package.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "workload_seed": seed,
    }


def send(cli, argv: list):
    """One request: (exit code, seconds, stdout, stderr).  Exit code None means it raised."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed request, not the end of the benchmark
        rc = None
        err.write(traceback.format_exc())
    return rc, time.perf_counter() - t0, out.getvalue(), err.getvalue()


def verdict(request, rc, out: str, err: str):
    """Failure reason, or None when the request succeeded and its answer agrees with the oracle."""
    if rc != 0:
        lines = err.strip().splitlines()
        return f"exit {rc}: {lines[-1] if lines else ''}"
    try:
        return request.check(json.loads(out))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed report: {exc!r}"


@dataclass
class Round:
    latencies: list  # seconds, one per request
    failures: list  # (request index, reason)
    refs: list  # host_reference() seconds before each request and after the last

    @property
    def host_ref(self) -> float:
        return statistics.median(self.refs)

    def local_refs(self) -> np.ndarray:
        """Per request, the median reference over the REF_WINDOW samples either side of it."""
        refs = np.array(self.refs)
        return np.array([np.median(refs[max(0, i - REF_WINDOW): i + REF_WINDOW + 2])
                         for i in range(len(self.latencies))])


def run_rounds(cli, wl, seconds: float, min_rounds: int, tracer=None) -> list:
    """Closed-loop rounds, with a host reference sample before each request.

    After ``min_rounds``, a round starts only if a round as long as the last
    one still ends within ``seconds``.
    """
    rounds = []
    start = time.perf_counter()
    budget = min(seconds, ROUNDS_DEADLINE_S)
    last = 0.0
    while len(rounds) < min_rounds or time.perf_counter() - start + last <= budget:
        round_start = time.perf_counter()
        latencies, failures, refs = [], [], []
        for i, request in enumerate(wl.requests):
            refs.append(hostref.host_reference())
            if tracer is not None:
                tracer.request_id = len(rounds) * len(wl.requests) + i
            rc, seconds_taken, out, err = send(cli, request.argv)
            latencies.append(seconds_taken)
            reason = verdict(request, rc, out, err)
            if reason is not None:
                failures.append((i, reason))
        refs.append(hostref.host_reference())
        rounds.append(Round(latencies, failures, refs))
        last = time.perf_counter() - round_start
    return rounds


def check_edge(cli, wl) -> list:
    """Failure reason, or None, of each edge request: sent once, untimed."""
    reasons = []
    for request in wl.edge:
        rc, _, out, err = send(cli, request.argv)
        reasons.append(verdict(request, rc, out, err))
    return reasons


def tail_percentile(n: int) -> float:
    """The highest percentile of n requests with at least ten requests beyond it."""
    if n < 11:
        raise BenchError(f"{n} requests per round leave no tail with ten beyond it")
    return 100.0 * (n - 11) / (n - 1)


def tail(latencies: np.ndarray) -> float:
    return float(np.sort(latencies)[latencies.size - 11])


def timings(rounds, scaled: bool) -> dict:
    """Request-list figures from each request's median latency over the rounds."""
    lat = np.array([r.latencies for r in rounds])
    if scaled:
        lat = lat * (hostref.NOMINAL_S / np.array([r.local_refs() for r in rounds])) ** hostref.HOST_EXPONENT
    per_request = np.median(lat, axis=0)
    suffix = "_norm" if scaled else ""
    return {
        f"wall{suffix}_s": (float(per_request.sum()), "s"),
        f"req_p50{suffix}_ms": (float(np.median(per_request)) * 1e3, "ms"),
        f"req_tail{suffix}_ms": (tail(per_request) * 1e3, "ms"),
    }


def setup_seconds(samples, scaled: bool) -> float:
    """Median set-up time of the probes, each scaled by its own host reference if ``scaled``."""
    return statistics.median(t * hostref.NOMINAL_S / ref if scaled else t for t, ref in samples)


def per_layer(wl, tracer, untraced, traced) -> tuple:
    """Per-layer metrics of the traced rounds, and the median per-round wall time the spans miss."""
    own = tracer.self_seconds(len(wl.requests), len(traced))  # (rounds, layers)
    out = {}
    for metric in tracing.per_layer_names():
        layer, key = metric.rsplit(".", 1)
        if layer not in tracer.layers:
            continue  # the trace.* figures below
        nid = tracer.layers.index(layer)
        if key == "self_ms":
            out[metric] = (float(np.median(own[:, nid])) * 1e3, "ms")
        elif key == "rebuild_ratio":
            out[metric] = (tracer.rebuild_ratio(), "ratio")
        else:
            out[metric] = (tracer.counts[nid][key] / len(traced), "count")
    traced_walls = np.array([sum(r.latencies) for r in traced])
    untraced_wall = statistics.median(sum(r.latencies) for r in untraced)
    self_sum = own.sum(axis=1)
    out["trace.wall_s"] = (float(np.median(traced_walls)), "s")
    out["trace.untraced_wall_s"] = (untraced_wall, "s")
    out["trace.overhead_s"] = (float(np.median(traced_walls)) - untraced_wall, "s")
    out["trace.self_sum_s"] = (float(np.median(self_sum)), "s")
    return out, float(np.median(traced_walls - self_sum))


def report(args, wl, env, metrics, shown, rounds, edge, extra) -> None:
    """Print every metric by name with its unit, the details and failures, then the result line.

    ``metrics`` go into the result line; ``shown`` are printed beside them
    only.  ``edge`` holds the edge requests' failure reasons: they count in
    ``error_rate``, not in the result line.
    """
    attempted = sum(len(r.latencies) for r in rounds)
    failed = sum(len(r.failures) for r in rounds)
    edge_failed = sum(reason is not None for reason in edge)
    shown = dict(shown, error_rate=((failed + edge_failed) / (attempted + len(edge)), "1"))
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  rounds {len(rounds)}"
          f"  requests/round {len(wl.requests)}  failed {failed} of {attempted}"
          f"  edge failed {edge_failed} of {len(edge)}")
    for name, (value, unit) in {**metrics, **shown}.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    if not args.trace:
        print(f"  req_tail is the p{tail_percentile(len(wl.requests)):.1f} of {len(wl.requests)}"
              f" per-request medians over {len(rounds)} rounds")
    for key, value in extra.items():
        print(f"  {key:<40} {value}")
    seen = set()
    for rnd in rounds:
        for idx, reason in rnd.failures:
            if idx not in seen:
                seen.add(idx)
                print(f"  FAILED {' '.join(wl.requests[idx].argv)}: {reason}")
    for request, reason in zip(wl.edge, edge):
        print(f"  edge {'ok    ' if reason is None else 'FAILED'} {' '.join(request.argv)}"
              + ("" if reason is None else f": {reason}"))
    detail = {
        "environment": env,
        "workload_properties": wl.properties,
        "rounds": len(rounds),
        "requests_per_round": len(wl.requests),
        "edge_failures": {" ".join(req.argv): reason for req, reason in zip(wl.edge, edge)},
        "shown": {name: value for name, (value, _) in shown.items()},
        **extra,
    }
    print("DETAIL " + json.dumps(detail, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


def run(args) -> None:
    check_spec()
    package = import_package()

    t0 = time.perf_counter()
    with tracing.forbid(package.__name__, workloads.CHECKED):
        wl = workloads.BY_NAME[args.workload](args.seed, package)
    oracle_s = time.perf_counter() - t0

    setup_samples = measure_setup(wl.warmups)
    for argv in wl.warmups:
        rc, _, _, err = send(package.cli, argv)
        if rc != 0:
            raise BenchError(f"warm-up request {argv} failed: {err.strip()}")

    if not args.trace:
        rounds = run_rounds(package.cli, wl, args.seconds, MIN_ROUNDS)
        metrics = {
            "setup_s": (setup_seconds(setup_samples, scaled=True), "s"),
            **timings(rounds, scaled=True),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        shown = {
            "setup_unscaled_s": (setup_seconds(setup_samples, scaled=False), "s"),
            **timings(rounds, scaled=False),
        }
        extra = {}
    else:
        untraced = run_rounds(package.cli, wl, args.seconds / 2, TRACED_MIN_ROUNDS)
        tracer = tracing.Tracer(package.__name__)
        tracer.install()
        try:
            traced = run_rounds(package.cli, wl, args.seconds / 2, TRACED_MIN_ROUNDS, tracer)
        finally:
            tracer.uninstall()
        rounds = untraced + traced
        metrics, unaccounted = per_layer(wl, tracer, untraced, traced)
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{wl.name}.npz"
        tracer.write(spans_path)
        shown = {"trace_unaccounted_s": (unaccounted, "s")}
        extra = {"spans_file": str(spans_path.relative_to(ROOT)), "spans": len(tracer.start)}

    edge = check_edge(package.cli, wl)
    shown["host_ref_ms"] = (statistics.median(r.host_ref for r in rounds) * 1e3, "ms")
    extra.update({"oracle_s": oracle_s, "setup_samples": setup_samples})
    report(args, wl, environment(package, args.seed), metrics, shown, rounds, edge, extra)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        run(args)
    except (BenchError, oracles.OracleError, tracing.OracleDependenceError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
