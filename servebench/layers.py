"""In-process layer probe for the traced run.

Each probe times calls into one layer's public functions, from this
process, on the workload's own store and matrices, inside a span of the
:class:`~spans.SpanRecorder`.  Nothing here instruments ``src/``.  The
probe runs after the HTTP passes, with the server idle.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

import repro
from inputs import Inputs, Request, close_enough
from repro.core.gcm import plan_cache
from repro.core.multiply import MvmPlan
from repro.io import load_matrix
from repro.serve.batch import batch_left_multiply, batch_right_multiply
from repro.serve.jobs import JobManager
from repro.serve.registry import MatrixRegistry
from repro.serve.server import MatrixServer
from repro.store import MatrixStore
from spans import SpanRecorder

#: Repetitions per probe: cheap calls, and calls that take ~0.1-1 s.
CHEAP_REPS = 15
HEAVY_REPS = 3
#: Iterations of the in-process solve and of each probe job.
SOLVE_ITERS = 20
PROBE_JOBS = 5


def _ms(seconds: list[float]) -> float:
    return statistics.median(seconds) * 1000.0


class LayerProbe:
    """Times each layer on one workload's store; counts wrong answers."""

    def __init__(self, inputs: Inputs, budget_bytes: int | None, warm: bool, rec: SpanRecorder):
        self.inputs = inputs
        self.budget = budget_bytes
        self.warm = warm
        self.rec = rec
        self.root_span = rec.add("probe", time.perf_counter(), 0.0)
        self.name = inputs.names[0]
        self.path = inputs.root / f"{self.name}.gcmx"
        self.metrics: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0

    # -- helpers ---------------------------------------------------------------

    def _time(self, name: str, fn, reps: int) -> tuple[object, list[float]]:
        out, times = None, []
        for _ in range(reps):
            out, seconds = self.rec.timed(name, fn, parent=self.root_span)
            times.append(seconds)
        return out, times

    def _check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def _registry(self) -> MatrixRegistry:
        """A registry configured like the served one (mmap, plans retained)."""
        return MatrixRegistry(
            store=MatrixStore(self.inputs.root, create=False),
            mmap=True,
            byte_budget=self.budget,
        )

    def _kernel(self, matrix, req: Request) -> np.ndarray:
        fn = batch_right_multiply if req.op == "right" else batch_left_multiply
        return fn(matrix, np.ascontiguousarray(req.vectors.T)).T

    # -- layers ----------------------------------------------------------------

    def store_open(self) -> None:
        """``MatrixStore(root)`` + ``MatrixRegistry.register_store``."""
        times = []
        for _ in range(CHEAP_REPS):
            registry = MatrixRegistry(mmap=True, byte_budget=self.budget)
            _, seconds = self.rec.timed(
                "probe:store.open",
                lambda reg=registry: reg.register_store(MatrixStore(self.inputs.root, create=False)),
                parent=self.root_span,
            )
            times.append(seconds)
        self.metrics["store.open_ms"] = _ms(times)

    def io_load(self) -> None:
        _, times = self._time("probe:io.load", lambda: load_matrix(self.path, mmap=True), CHEAP_REPS)
        self.metrics["io.load_ms"] = _ms(times)

    def decode_and_plan(self) -> None:
        """rANS decode and plan build on one unit: the matrix itself, or
        shard 0 of a sharded container; plan bytes over every unit."""
        loaded = load_matrix(self.path, mmap=True)
        units = list(getattr(loaded, "shards", [loaded]))
        unit = units[0]
        grammar, times = self._time("probe:rans.decode", unit.decode_grammar, HEAVY_REPS)
        self.metrics["rans.decode_ms"] = _ms(times)
        self.metrics["rans.symbols_per_s"] = unit.c_length / statistics.median(times)
        _, times = self._time(
            "probe:plan.build",
            lambda: MvmPlan.from_grammar(grammar, unit.shape[1]),
            HEAVY_REPS,
        )
        self.metrics["plan.build_ms"] = _ms(times)
        self.metrics["plan.bytes"] = float(sum(
            MvmPlan.from_grammar(u.decode_grammar(), u.shape[1]).nbytes for u in units
        ))

    def kernels(self) -> None:
        resident = load_matrix(self.path, mmap=True)
        resident.enable_plan_retention(True)
        for cls, op, label, reps in (
            ("k1", "right", "right_k1", CHEAP_REPS),
            ("k1", "left", "left_k1", CHEAP_REPS),
            ("right64", "right", "right_k64", HEAVY_REPS),
            ("left64", "left", "left_k64", HEAVY_REPS),
        ):
            req = next(
                r for r in (self.inputs.k1 if cls == "k1" else self.inputs.panels)
                if r.matrix == self.name and r.op == op
            )
            self._check(close_enough(self._kernel(resident, req), req.expected))  # warm
            got, times = self._time(f"probe:kernel.{label}", lambda r=req: self._kernel(resident, r), reps)
            self._check(close_enough(got, req.expected))
            self.metrics[f"kernel.{label}_ms"] = _ms(times)
        # First multiply after a fresh open: decode + plan + kernel.
        req = next(r for r in self.inputs.k1 if r.matrix == self.name and r.op == "right")
        times = []
        for _ in range(HEAVY_REPS):
            plan_cache().clear()
            fresh = load_matrix(self.path, mmap=True)
            fresh.enable_plan_retention(True)
            got, seconds = self.rec.timed(
                "probe:kernel.cold_right_k1", lambda m=fresh: self._kernel(m, req),
                parent=self.root_span,
            )
            self._check(close_enough(got, req.expected))
            times.append(seconds)
        self.metrics["kernel.cold_right_k1_ms"] = _ms(times)
        self._resident = resident

    def registry_get(self) -> None:
        registry = self._registry()
        hits, misses = [], []
        for _ in range(HEAVY_REPS):
            registry.evict(self.name)
            _, seconds = self.rec.timed(
                "probe:registry.get.miss", lambda: registry.get(self.name), parent=self.root_span
            )
            misses.append(seconds)
            for _ in range(CHEAP_REPS):
                _, seconds = self.rec.timed(
                    "probe:registry.get.hit", lambda: registry.get(self.name), parent=self.root_span
                )
                hits.append(seconds)
        self.metrics["registry.get_miss_ms"] = _ms(misses)
        self.metrics["registry.get_hit_ms"] = _ms(hits)

    def server_multiply(self) -> None:
        """``MatrixServer.multiply`` and the ``json.dumps`` of its reply,
        on a registry configured like the served one; k=1 requests walk
        the workload's own order (rotating on ``cold-rotate``)."""
        # Started (on an unused ephemeral port) only so close() can shut
        # it down: socketserver's shutdown() waits for serve_forever().
        server = MatrixServer(self._registry(), port=0).start()
        try:
            if self.warm:
                for req in self.inputs.panels:
                    server.multiply(json.loads(req.body))
            for cls, reps in (("k1", CHEAP_REPS), ("right64", HEAVY_REPS), ("left64", HEAVY_REPS)):
                pool = [r for r in (self.inputs.k1 if cls == "k1" else self.inputs.panels) if r.cls == cls]
                mult, enc = [], []
                size = 0
                for i in range(reps):
                    req = pool[i % len(pool)]
                    payload = json.loads(req.body)
                    reply, seconds = self.rec.timed(
                        f"probe:server.multiply.{cls}", lambda p=payload: server.multiply(p),
                        parent=self.root_span,
                    )
                    mult.append(seconds)
                    body, seconds = self.rec.timed(
                        f"probe:server.encode.{cls}", lambda r=reply: json.dumps(r).encode(),
                        parent=self.root_span,
                    )
                    enc.append(seconds)
                    size = len(body)
                    self._check(close_enough(np.asarray(reply["result"]), req.expected))
                self.metrics[f"server.multiply_ms.{cls}"] = _ms(mult)
                self.metrics[f"server.encode_ms.{cls}"] = _ms(enc)
                self.metrics[f"server.response_bytes.{cls}"] = float(size)
        finally:
            server.close()

    def solve(self, job_queue_waits: list[float]) -> None:
        """Per-iteration solve time: PageRank on a square matrix, the
        paper's Eq. (4) power loop otherwise.  Queue wait comes from the
        workload's own HTTP job records when it sends jobs, else from
        probe jobs on an in-process :class:`JobManager`."""
        algorithm = "pagerank" if self._resident.shape[0] == self._resident.shape[1] else "power"
        result, _ = self.rec.timed(
            "probe:solve",
            lambda: repro.solve(self._resident, algorithm, iterations=SOLVE_ITERS, tol=None),
            parent=self.root_span,
        )
        self.metrics["solve.iter_ms"] = _ms(list(result.trace.seconds))
        waits = list(job_queue_waits)
        if not waits:
            manager = JobManager(self._registry(), workers=1)
            try:
                for _ in range(PROBE_JOBS):
                    job = manager.submit(algorithm, self.name, {"iterations": 2, "tol": None})
                    start = time.perf_counter()
                    while job.status not in ("done", "failed"):
                        time.sleep(0.001)
                    self.rec.add("probe:jobs.run", start, time.perf_counter(), self.root_span)
                    self._check(job.status == "done")
                    waits.append(job.started_at - job.submitted_at)
            finally:
                manager.close()
        self.metrics["jobs.queue_wait_ms"] = _ms(waits)

    def run(self, job_queue_waits: list[float]) -> dict[str, float]:
        self.store_open()
        self.io_load()
        self.decode_and_plan()
        self.kernels()
        self.registry_get()
        self.server_multiply()
        self.solve(job_queue_waits)
        self.rec.finish(self.root_span)
        return self.metrics
