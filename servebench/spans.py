"""In-memory span recorder for the benchmark's traced run.

Spans are recorded by the benchmark process around its calls into each
layer, and imported from the server's ``/trace/<id>`` payloads.  Each
span has a name, start, end (``perf_counter`` seconds), parent and
request id.  They stay in memory and are written out once, at the end
of the run.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path


class SpanRecorder:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._next = 1
        self.spans: list[dict] = []
        #: Seconds spent inside :meth:`add` (the recording cost).
        self.cost = 0.0

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: int | None = None,
        request: str | None = None,
    ) -> int:
        entered = time.perf_counter()
        with self._lock:
            span_id = self._next
            self._next += 1
            self.spans.append({
                "id": span_id, "name": name, "start": start, "end": end,
                "parent": parent, "request": request,
            })
            self.cost += time.perf_counter() - entered
        return span_id

    def finish(self, span_id: int) -> None:
        """Close a span opened with ``add(name, start, 0.0)``."""
        with self._lock:
            self.spans[span_id - 1]["end"] = time.perf_counter()

    def timed(self, name: str, fn, parent: int | None = None, request: str | None = None):
        """Call ``fn()`` inside a span; return ``(result, seconds)``."""
        start = time.perf_counter()
        result = fn()
        end = time.perf_counter()
        self.add(name, start, end, parent, request)
        return result, end - start

    def add_server_trace(
        self, payload: dict, client_start: float, client_end: float,
        client_wall: float, parent: int, request: str,
    ) -> float:
        """Import one server trace under the client span ``parent``.

        Server offsets are relative to the trace's own start; the trace's
        wall-clock ``started_at`` places it on this process's clock (same
        host).  The root is clamped into the client interval, which it
        must lie in, so small clock-conversion error cannot break
        nesting.  Returns the server root duration in seconds.
        """
        spans = payload["spans"]
        root = next(s for s in spans if s["parent_id"] is None)
        root_s = (root["duration_ms"] or 0.0) / 1000.0
        origin = client_start + (payload["started_at"] - client_wall)
        origin = min(max(origin, client_start), max(client_start, client_end - root_s))
        placed: dict[str, tuple[int, float, float]] = {}
        for s in spans:  # parents precede children in trace order
            if s["duration_ms"] is None or (
                s["parent_id"] is not None and s["parent_id"] not in placed
            ):
                continue
            start = origin + s["start_ms"] / 1000.0
            end = start + s["duration_ms"] / 1000.0
            span_parent, p_start, p_end = (
                (parent, client_start, client_end)
                if s["parent_id"] is None
                else placed[s["parent_id"]]
            )
            start = min(max(start, p_start), p_end)
            end = max(start, min(end, p_end))
            span_id = self.add("server:" + s["name"], start, end, span_parent, request)
            placed[s["span_id"]] = (span_id, start, end)
        return root_s

    def self_times(self) -> dict[int, float]:
        """Span duration minus the part of it its children cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append((s["start"], s["end"]))
        out = {}
        for s in self.spans:
            covered = 0.0
            cursor = s["start"]
            for start, end in sorted(children.get(s["id"], ())):
                start, end = max(start, cursor), min(end, s["end"])
                if end > start:
                    covered += end - start
                    cursor = end
            out[s["id"]] = (s["end"] - s["start"]) - covered
        return out

    def write(self, path: Path) -> None:
        self_times = self.self_times()
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(s, self=self_times[s["id"]])) + "\n")
