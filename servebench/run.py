"""Serving benchmark: a ``repro serve`` process driven over real HTTP.

Run from the repository root::

    python3 servebench/run.py --workload warm-panels --seed 1 --seconds 12 --trace 0
    python3 servebench/run.py --workload all --seed 1          # every workload

Each run builds a matrix store from ``--seed``, boots ``python -m repro
serve <store> --store --mmap`` as a separate process, and drives it from
this process over at most two keep-alive connections in closed loops
(each caller waits for its reply, like a training loop, batch scorer or
solver).  Every answer is checked against dense numpy.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs the timed phase
with client spans and the server's ``/trace/<id>`` trees, then times
each layer's public functions in process (``layers.py``) and reports
the per-layer metrics.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
nonzero on any wrong answer, failed request or failed job, and when the
server dies or logs a traceback.

Why each workload exists and which end-to-end metric each per-layer
metric should move is recorded in ``layers.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = Path.cwd()
SRC = CHECKOUT / "src"

#: Workload → whether set-up warms the server (budgets: inputs.budget_mb).
WORKLOADS = {"warm-panels": True, "cold-rotate": False, "jobs-beside-multiply": True}

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Minimum k=1 samples per run (p90 then has >= 10 samples beyond it),
#: and the cap on how far past ``--seconds`` a run may go to reach it.
MIN_K1 = 100
MAX_OVERRUN = 3.0
#: PageRank iterations per ``/jobs`` request (fixed, ``tol: null``).
JOB_ITERATIONS = 100
#: Right-k=64 requests sent after the traced pass on every workload, for
#: ``server.outside_root_ms.right64``.
OUTSIDE_ROOT_PROBES = 3


def fail(message: str, code: int = 1) -> None:
    print(f"servebench: {message}", file=sys.stderr)
    sys.exit(code)


def units(kind: str) -> dict[str, str]:
    """Metric name → unit: ``end_to_end`` and ``per_layer`` come from
    BENCHMARK.json (the gated and traced metrics); ``reported`` are the
    end-to-end metrics printed but not gated (layers.json says why)."""
    if kind == "reported":
        reported = json.loads((HERE / "layers.json").read_text())["end_to_end_reported"]
        return {name: m["unit"] for name, m in reported["metrics"].items()}
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())[kind]
    return {m["name"]: m["unit"] for m in declared}


def percentile_support(n: int) -> float | None:
    """Highest of p50/p90/p99/p99.9 with >= 10 samples beyond it."""
    best = None
    for p in (50.0, 90.0, 99.0, 99.9):
        if n * (1.0 - p / 100.0) >= 10.0:
            best = p
    return best


def provenance(args, inputs, server_argv) -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=CHECKOUT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    cpu = next(
        (line.split(":", 1)[1].strip()
         for line in Path("/proc/cpuinfo").read_text().splitlines()
         if line.startswith("model name")),
        platform.processor() or None,
    )
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "git_commit": commit,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "server_argv": server_argv,
        "matrix_shapes": inputs.shapes(),
        "store_bytes": inputs.store_bytes,
        "dense_bytes": inputs.dense_bytes,
    }


# -- one timed pass -------------------------------------------------------------------


class Pass:
    """One closed-loop timed phase against a running server."""

    def __init__(self, server, inputs, workload: str, seconds: float, rec=None):
        from inputs import dense_pagerank
        from serving import Client, JobStream, Stream

        self.seconds = seconds
        self.clients = [Client(server.host, server.port) for _ in range(2)]
        a, b = self.clients
        if workload == "warm-panels":
            self.k1 = Stream(a, inputs.k1, rec)
            self.other = Stream(b, inputs.panels, rec, defer=("right64", "left64"))
        elif workload == "cold-rotate":
            self.k1 = Stream(a, inputs.k1, rec)
            self.other = None
        else:
            name = inputs.job_matrix
            self.other = JobStream(
                a, name, JOB_ITERATIONS, dense_pagerank(inputs.dense[name], JOB_ITERATIONS), rec
            )
            self.k1 = Stream(b, inputs.k1, rec)

    def run(self) -> None:
        k1_done = threading.Event()
        start = time.perf_counter()
        deadline = start + self.seconds
        cap = start + self.seconds * MAX_OVERRUN

        def k1_going(stream) -> bool:
            now = time.perf_counter()
            return now < deadline or (stream.count("k1") < MIN_K1 and now < cap)

        errors: list[BaseException] = []

        def drive(stream, keep_going, done=None):
            try:
                stream.run(keep_going)
            except BaseException as exc:  # noqa: BLE001 — re-raised below
                errors.append(exc)
            finally:
                if done is not None:
                    done.set()

        threads = [threading.Thread(target=drive, args=(self.k1, k1_going, k1_done))]
        if self.other is not None:
            threads.append(threading.Thread(
                target=drive, args=(self.other, lambda _s: not k1_done.is_set())
            ))
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]
        self.start = start
        self.end = max(s.end for s in self.samples)
        for stream in self.streams:
            if hasattr(stream, "finish_checks"):
                stream.finish_checks()

    @property
    def streams(self):
        return [s for s in (self.k1, self.other) if s is not None]

    @property
    def samples(self):
        return [s for stream in self.streams for s in stream.samples]

    def close(self) -> None:
        for c in self.clients:
            c.close()

    # -- results ----------------------------------------------------------------------

    def latencies(self, cls: str) -> list[float]:
        """Latencies of answered requests (wrong answers count as failed
        but still took this long)."""
        return [s.latency for s in self.samples if s.cls == cls and s.status < 300]

    def metrics(self) -> dict[str, float]:
        import numpy as np

        out: dict[str, float] = {}
        elapsed = self.end - self.start
        out["vectors_per_s"] = sum(s.vectors for s in self.samples if s.ok and s.cls != "job") / elapsed
        k1 = np.array(self.latencies("k1")) * 1000.0
        if k1.size:
            out["k1_p50_ms"] = float(np.percentile(k1, 50))
            out["k1_p90_ms"] = float(np.percentile(k1, 90))
        # Per op: on cold-rotate right and left k=1 latencies form two
        # clusters, and the median of their 50/50 mix falls between them.
        for op in ("right", "left"):
            lat = [s.latency for s in self.samples if s.cls == "k1" and s.op == op and s.status < 300]
            if lat:
                out[f"k1_{op}_p50_ms"] = statistics.median(lat) * 1000.0
        for cls in ("right64", "left64"):
            lat = self.latencies(cls)
            if lat:
                out[f"{cls}_p50_ms"] = statistics.median(lat) * 1000.0
        jobs = [s for s in self.samples if s.cls == "job" and s.iterations]
        if jobs:
            out["job_p50_s"] = statistics.median(s.latency for s in jobs)
            job_span = max(s.end for s in jobs) - min(s.start for s in jobs)
            out["solve_iters_per_s"] = sum(s.iterations for s in jobs) / job_span
        out["failed_share"] = self.failed / max(1, self.attempted)
        return out

    @property
    def attempted(self) -> int:
        return len(self.samples)

    @property
    def failed(self) -> int:
        return sum(not s.ok for s in self.samples)

    def classes(self) -> dict:
        counts = Counter(s.cls for s in self.samples)
        counts.update(f"k1_{s.op}" for s in self.samples if s.cls == "k1")
        return {
            cls: {"samples": n, "highest_percentile": percentile_support(n)}
            for cls, n in sorted(counts.items())
        }

    def non_2xx(self) -> dict:
        return dict(Counter(str(s.status) for s in self.samples if s.status >= 300))


# -- set-up ---------------------------------------------------------------------------


def set_up(workload: str, seed: int, scale: str, work: Path, rep: int, requests=None):
    """Generate the matrices, compress them into a store, boot the server
    and warm it where the workload warms.  ``requests`` are the
    ``(k1, panels)`` of an earlier set-up of the same seed; without them
    they are made here.  Making requests and checking the warm-up
    replies happen outside the timed window: encoding bodies, computing
    dense references and parsing replies is the benchmark's work, not
    the program's.  Returns ``(inputs, server, seconds, warm_checks,
    warm_failures)``."""
    from inputs import budget_mb, build, make_requests
    from serving import Client, ServerProcess, check_multiply

    rep_dir = work / f"setup{rep}"
    rep_dir.mkdir(parents=True)
    start = time.perf_counter()
    inputs = build(workload, seed, scale, rep_dir / "store")
    built = time.perf_counter() - start
    inputs.k1, inputs.panels = requests or make_requests(inputs, seed, workload)
    start = time.perf_counter()
    server = ServerProcess(SRC, inputs.root, rep_dir, budget_mb(workload, scale))
    replies = []
    try:
        server.wait_ready()
        if WORKLOADS[workload]:
            warm = inputs.panels + [
                next(r for r in inputs.k1 if r.matrix == name and r.op == op)
                for name in inputs.names for op in ("right", "left")
            ]
            with Client(server.host, server.port) as client:
                for req in warm:
                    status, data, *_ = client.call("POST", "/multiply", req.body)
                    replies.append((req, status, data))
    except BaseException:
        server.stop()
        raise
    seconds = built + time.perf_counter() - start
    failures = sum(
        not (status == 200 and check_multiply(req, data)) for req, status, data in replies
    )
    return inputs, server, seconds, len(replies), failures


# -- one workload ---------------------------------------------------------------------


def traced_pass(server, inputs, workload: str, seconds: float):
    """The traced run's HTTP part: the timed phase with client spans,
    ``/stats`` deltas around it, right-k=64 probes, and the server's
    ``/trace/<id>`` trees read back afterwards.  Returns ``(rec,
    per_layer, pass, extra_samples, stats_delta)``.

    The server traces every request in traced and untraced runs alike
    (it has no switch), so ``bench.trace_overhead_pct`` is the client
    side alone: the time the pass's streams spent recording spans, as a
    share of the time its requests took."""
    from serving import Client, Sample, check_multiply, fetch_traces
    from spans import SpanRecorder

    rec = SpanRecorder()
    with Client(server.host, server.port) as control:
        before = control.get_json("/stats")["registry"]
    traced = Pass(server, inputs, workload, seconds, rec)
    traced.run()
    traced.close()
    recording_s = rec.cost
    with Client(server.host, server.port) as control:
        after = control.get_json("/stats")["registry"]
        # Right-k=64 requests on every workload: the outside-root share
        # of a panel reply, also where the traffic sends no panels.
        probes = []
        panel_reqs = [r for r in inputs.panels if r.cls == "right64"]
        for i in range(OUTSIDE_ROOT_PROBES):
            req = panel_reqs[i % len(panel_reqs)]
            status, data, start, end, wall, trace_id = control.call("POST", "/multiply", req.body)
            sample = Sample("right64", status, start, end, wall, req.k, trace_id=trace_id)
            sample.ok = status == 200 and check_multiply(req, data)
            sample.span = rec.add("client:right64.probe", start, end, request=trace_id)
            probes.append(sample)
        samples = traced.samples + probes
        traces = fetch_traces(control, samples)
    outside: dict[str, list[float]] = {"k1": [], "right64": []}
    for s in samples:
        if s.trace_id in traces and s.span is not None:
            root_s = rec.add_server_trace(traces[s.trace_id], s.start, s.end, s.wall, s.span, s.trace_id)
            if s.cls in outside:
                outside[s.cls].append(s.latency - root_s)
    requests = traced.attempted
    delta = {
        k: after[k] - before[k]
        for k in ("hits", "misses", "evictions", "shard_loads", "shard_evictions")
    }
    per_layer = {
        "server.outside_root_ms.k1": statistics.median(outside["k1"]) * 1000.0,
        "server.outside_root_ms.right64": statistics.median(outside["right64"]) * 1000.0,
        "registry.hit_ratio": delta["hits"] / max(1, delta["hits"] + delta["misses"]),
        "registry.evictions_per_req": delta["evictions"] / requests,
        "shard.loads_per_req": delta["shard_loads"] / requests,
        "shard.evictions_per_req": delta["shard_evictions"] / requests,
        "bench.trace_overhead_pct": 100.0 * recording_s / sum(s.latency for s in traced.samples),
    }
    return rec, per_layer, traced, probes, delta


def run_workload(args, workload: str, out_dir: Path) -> dict:
    from inputs import budget_mb
    from layers import LayerProbe

    work = out_dir / f"work-{workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    server = None
    attempted = failed = 0
    setups: list[float] = []
    per_layer: dict[str, float] = {}
    requests = None
    try:
        for rep in range(1 if args.trace else SETUP_REPS):
            if server is not None:
                server.stop()
                shutil.rmtree(work / f"setup{rep - 1}", ignore_errors=True)
            inputs, server, seconds, checks, failures = set_up(
                workload, args.seed, args.scale, work, rep, requests
            )
            requests = inputs.k1, inputs.panels
            setups.append(seconds)
            attempted += checks
            failed += failures
        if args.trace:
            # One pass, with client spans on: the gated end-to-end
            # metrics come from untraced runs.
            rec, per_layer, timed, probes, delta = traced_pass(
                server, inputs, workload, args.seconds
            )
        else:
            timed = Pass(server, inputs, workload, args.seconds)
            timed.run()
            timed.close()
            probes = []
        for sample in timed.samples + probes:
            attempted += 1
            failed += not sample.ok
        e2e = timed.metrics()
        e2e["setup_s"] = statistics.median(setups)
        e2e["store_ratio_pct"] = 100.0 * inputs.store_bytes / inputs.dense_bytes
        result = {
            "provenance": provenance(args, inputs, server.argv),
            "classes": timed.classes(),
            "non_2xx": timed.non_2xx(),
            "setup_s_all": setups,
            "latencies_s": {
                cls: timed.latencies(cls) for cls in ("k1", "right64", "left64", "job")
            },
        }
        if args.trace:
            result["traced_stats_delta"] = delta
        e2e["server_peak_rss_mb"] = server.peak_rss_mb()
        server.stop()
        server = None
        if args.trace:
            # With the server stopped: time each layer in this process.
            budget = budget_mb(workload, args.scale)
            probe = LayerProbe(
                inputs, int(budget * 1024 * 1024) if budget else None, WORKLOADS[workload], rec
            )
            per_layer.update(probe.run([s.queue_wait for s in timed.samples if s.queue_wait is not None]))
            attempted += probe.attempted
            failed += probe.failed
            rec.write(out_dir / "spans" / f"{workload}-seed{args.seed}.jsonl")
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(work, ignore_errors=True)

    gated = units("end_to_end")
    if args.trace:
        metrics = {name: {"value": per_layer[name], "unit": unit} for name, unit in units("per_layer").items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in gated.items()}
    result.update({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "end_to_end": {
            name: {"value": e2e[name], "unit": unit}
            for name, unit in {**gated, **units("reported")}.items()
            if name in e2e
        },
    })
    return result


def print_report(workload: str, result: dict) -> None:
    print(f"== {workload} (seed {result['provenance']['seed']})")
    for name, m in result["end_to_end"].items():
        print(f"  {name:<24} {m['value']:>14.4f} {m['unit']}")
    if "traced_stats_delta" in result:
        for name, m in result["metrics"].items():
            print(f"  {name:<32} {m['value']:>14.4f} {m['unit']}")
    for cls, info in result["classes"].items():
        print(f"  class {cls:<8} samples={info['samples']} highest_percentile={info['highest_percentile']}")
    verdict = "CORRECT" if result["correct"] else "WRONG"
    print(f"  verdict: {verdict} ({result['failed']} failed of {result['attempted']})")
    print("provenance: " + json.dumps(result["provenance"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "small"), default="full",
        help="matrix sizes; 'small' is for the self-test only",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        fail(f"no repro package under {SRC}; run from the repository root", code=2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from serving import ServerError

    out_dir = CHECKOUT / ".servebench"
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for workload in workloads:
            results[workload] = run_workload(args, workload, out_dir)
            print_report(workload, results[workload])
    except ServerError as exc:
        fail(str(exc))
    results_dir = out_dir / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results_dir / f"{tag}.json").write_text(json.dumps(results, indent=2, sort_keys=True))
    correct = all(r["correct"] for r in results.values())
    line = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": (
            results[args.workload]["metrics"] if args.workload != "all" else {
                f"{w}/{name}": m for w, r in results.items() for name, m in r["metrics"].items()
            }
        ),
    }
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
