"""The served side of the benchmark: a ``repro serve`` child process and
closed-loop HTTP streams that drive it.

The server is a separate process started with ``python -m repro serve
<store> --store --mmap``.  The client is this process; each stream owns
one keep-alive connection and sends its next request only after the
previous reply has been read to the last byte (closed loop).
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from inputs import Request, close_enough
from spans import SpanRecorder

#: Seconds to wait for the child to print its address and answer /healthz.
BOOT_TIMEOUT = 60.0
#: Seconds between ``GET /jobs/<id>`` polls of a running job.
JOB_POLL_INTERVAL = 0.005
#: Newest traces read back after a traced pass; below the server's ring
#: of 256, which a job fills twice (its submission and its run).
TRACES_FETCHED = 120


class ServerError(RuntimeError):
    """The server process died, failed to boot, or logged a traceback."""


class ServerProcess:
    """One ``repro serve`` child process over a store directory."""

    def __init__(self, src: Path, root: Path, log_dir: Path, budget_mb: float | None):
        self.argv = [
            sys.executable, "-u", "-m", "repro", "serve", str(root),
            "--store", "--mmap", "--port", "0",
        ]
        if budget_mb is not None:
            self.argv += ["--budget-mb", str(budget_mb)]
        self._stdout_path = log_dir / "server.out"
        self._stderr_path = log_dir / "server.err"
        env = dict(os.environ, PYTHONPATH=str(src))
        with open(self._stdout_path, "wb") as out, open(self._stderr_path, "wb") as err:
            self.proc = subprocess.Popen(
                self.argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL, env=env
            )
        self.host = "127.0.0.1"
        self.port = 0

    def wait_ready(self) -> None:
        """Block until the child printed its address and /healthz answers."""
        deadline = time.monotonic() + BOOT_TIMEOUT
        while not self.port:
            self.check_alive()
            text = self._stdout_path.read_text(errors="replace")
            for line in text.splitlines():
                if line.startswith("serving ") and " on http://" in line:
                    address = line.rsplit("http://", 1)[1].strip()
                    host, port = address.rsplit(":", 1)
                    self.host, self.port = host, int(port)
            if time.monotonic() > deadline:
                raise ServerError("server printed no address within the boot timeout")
            time.sleep(0.005)
        while True:
            self.check_alive()
            try:
                conn = http.client.HTTPConnection(self.host, self.port, timeout=5)
                try:
                    conn.request("GET", "/healthz")
                    resp = conn.getresponse()
                    resp.read()  # closing with unread bytes would reset the connection
                    if resp.status == 200:
                        return
                finally:
                    conn.close()
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise ServerError("/healthz did not answer within the boot timeout")
            time.sleep(0.005)

    def check_alive(self) -> None:
        if self.proc.poll() is not None:
            raise ServerError(
                f"server exited early with code {self.proc.returncode}: "
                f"{self.stderr_text()[-2000:]}"
            )

    def stderr_text(self) -> str:
        return self._stderr_path.read_text(errors="replace")

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server process (its peak resident set)."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise ServerError("no VmHWM line in /proc/<pid>/status")

    def stop(self) -> None:
        """Interrupt the child (clean shutdown), kill it if it hangs, and
        raise if it logged a traceback."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if "Traceback" in self.stderr_text():
            raise ServerError(f"server wrote a traceback:\n{self.stderr_text()[-4000:]}")


@dataclass
class Sample:
    """One completed client request."""

    cls: str
    status: int
    start: float  # perf_counter at send
    end: float  # perf_counter at the last response byte
    wall: float  # time.time() at send (aligns server spans)
    vectors: int = 0
    ok: bool = False
    trace_id: str | None = None
    iterations: int = 0
    queue_wait: float | None = None
    span: int | None = None  # client span id in a traced pass
    op: str = ""  # "right" or "left" for /multiply

    @property
    def latency(self) -> float:
        return self.end - self.start


class Client:
    """One keep-alive HTTP connection with send→last-byte timing."""

    def __init__(self, host: str, port: int):
        self.conn = http.client.HTTPConnection(host, port, timeout=120)

    def call(self, method: str, path: str, body: bytes | None = None):
        headers = {"Content-Type": "application/json"} if body is not None else {}
        wall = time.time()
        start = time.perf_counter()
        self.conn.request(method, path, body=body, headers=headers)
        resp = self.conn.getresponse()
        data = resp.read()
        end = time.perf_counter()
        return resp.status, data, start, end, wall, resp.getheader("X-Repro-Trace-Id")

    def get_json(self, path: str) -> dict:
        status, data, *_ = self.call("GET", path)
        if status != 200:
            raise ServerError(f"GET {path} answered {status}: {data[:200]!r}")
        return json.loads(data)

    def close(self) -> None:
        self.conn.close()

    def __enter__(self) -> Client:
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def fetch_traces(client: Client, samples: list[Sample]) -> dict[str, dict]:
    """Server trace trees of the newest samples still in the server's
    trace ring (fetched after the pass, so tracing adds no requests to
    the timed phase)."""
    traces = {}
    for sample in sorted(samples, key=lambda s: s.end, reverse=True)[:TRACES_FETCHED]:
        if sample.trace_id is None:
            continue
        status, data, *_ = client.call("GET", f"/trace/{sample.trace_id}")
        if status == 200:
            traces[sample.trace_id] = json.loads(data)
    return traces


def check_multiply(req: Request, data: bytes) -> bool:
    return close_enough(np.asarray(json.loads(data)["result"]), req.expected)


@dataclass
class Stream:
    """A closed loop over ``requests`` on one connection.

    Bodies of classes in ``defer`` are kept raw and checked after the
    timed phase, so parsing a multi-megabyte reply never holds this
    process's interpreter lock while the other stream is being timed.
    """

    client: Client
    requests: list[Request]
    rec: SpanRecorder | None = None
    defer: tuple[str, ...] = ()
    samples: list[Sample] = field(default_factory=list)
    deferred: list[tuple[Sample, Request, bytes]] = field(default_factory=list)

    def run(self, keep_going) -> None:
        i = 0
        while keep_going(self):
            req = self.requests[i % len(self.requests)]
            i += 1
            status, data, start, end, wall, trace_id = self.client.call(
                "POST", "/multiply", req.body
            )
            sample = Sample(req.cls, status, start, end, wall, req.k, trace_id=trace_id, op=req.op)
            self.samples.append(sample)
            if self.rec is not None:
                sample.span = self.rec.add(f"client:{req.cls}", start, end, request=trace_id)
            if status != 200:
                continue
            if req.cls in self.defer:
                self.deferred.append((sample, req, data))
            else:
                sample.ok = check_multiply(req, data)

    def finish_checks(self) -> None:
        for sample, req, data in self.deferred:
            sample.ok = check_multiply(req, data)
        self.deferred.clear()

    def count(self, cls: str) -> int:
        return sum(s.cls == cls for s in self.samples)


@dataclass
class JobStream:
    """Closed-loop PageRank jobs: submit, poll until finished, repeat."""

    client: Client
    matrix: str
    iterations: int
    expected: np.ndarray
    rec: SpanRecorder | None = None
    samples: list[Sample] = field(default_factory=list)

    def body(self) -> bytes:
        return json.dumps({
            "algorithm": "pagerank",
            "matrix": self.matrix,
            "params": {"iterations": self.iterations, "tol": None},
        }).encode()

    def run(self, keep_going) -> None:
        body = self.body()
        while keep_going(self):
            status, data, start, end, wall, _ = self.client.call("POST", "/jobs", body)
            sample = Sample("job", status, start, end, wall)
            self.samples.append(sample)
            if status != 202:
                continue
            job = json.loads(data)["job"]
            sample.trace_id = job.get("trace_id")
            while job["status"] not in ("done", "failed"):
                time.sleep(JOB_POLL_INTERVAL)
                status, data, _, end, _, _ = self.client.call("GET", f"/jobs/{job['id']}")
                if status != 200:
                    sample.status = status
                    break
                job = json.loads(data)["job"]
            sample.end = end
            if self.rec is not None:
                sample.span = self.rec.add("client:job", start, end, request=sample.trace_id)
            if job["status"] != "done":
                continue
            result = job["result"]
            sample.iterations = int(result["iterations"])
            sample.queue_wait = job["started_at"] - job["submitted_at"]
            sample.ok = close_enough(np.asarray(result["x"]), self.expected)
