"""In-memory span tracer that observes the program from outside.

Spans carry a name, start, end, parent span and campaign id.  They are
kept in memory and written as JSONL when the benchmark ends.  Probes
are installed by replacing public entry points of the program's modules
with wrappers for the duration of one traced campaign, and removed
again before the next untraced one, so untraced campaigns run the
program's own code paths untouched.
"""

from __future__ import annotations

import gc
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: "int | None"
    campaign: "str | None"
    thread: str
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counters per campaign.

    The benchmark is a closed loop with one campaign in flight, so every
    span opened while a campaign is in flight belongs to it, whichever
    thread (server, worker, HTTP handler) opened it.  A span opened on a
    thread with no open span of its own gets the campaign's root span as
    its parent.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._gc_started: dict[int, float] = {}
        self.campaign: "str | None" = None
        self._root: "int | None" = None

    # -- spans and counters ---------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        record = Span(
            id=next(self._ids),
            name=name,
            start=time.perf_counter(),
            parent=stack[-1] if stack else self._root,
            campaign=self.campaign,
            thread=threading.current_thread().name,
            attrs=attrs,
        )
        stack.append(record.id)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[self.campaign][name] += amount

    @contextmanager
    def campaign_span(self, campaign_id: str):
        """The root span of one campaign; every probe reports under it."""
        self.campaign = campaign_id
        cpu = time.process_time()
        try:
            with self.span("campaign") as root:
                self._root = root.id
                yield root
        finally:
            self._root = None
            self.count("runtime.cpu_s", time.process_time() - cpu)
            self.campaign = None

    # -- probes -----------------------------------------------------------

    def patch(self, owner: object, attr: str, make_wrapper) -> None:
        """Replace ``owner.attr`` by ``make_wrapper(original)`` until
        :meth:`uninstall`."""
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def replace_item(self, mapping: dict, key: object, value: object) -> None:
        """Replace ``mapping[key]`` by *value* until :meth:`uninstall`."""
        self._patches.append((mapping, key, mapping[key]))
        mapping[key] = value

    def traced(self, name: str, original):
        """A wrapper of *original* that records one span per call."""

        def wrapper(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        return wrapper

    def install_gc_probe(self) -> None:
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        ident = threading.get_ident()
        if phase == "start":
            self._gc_started[ident] = time.perf_counter()
            return
        started = self._gc_started.pop(ident, None)
        if started is not None and self.campaign is not None:
            self.count("runtime.gc_s", time.perf_counter() - started)
            self.count("runtime.gc_n")

    def uninstall(self) -> None:
        """Restore every patched entry point and remove the GC probe."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        self._gc_started.clear()

    # -- analysis ---------------------------------------------------------

    def campaign_spans(self, campaign_id: str) -> list[Span]:
        with self._lock:
            return [s for s in self.spans if s.campaign == campaign_id]

    def write_jsonl(self, path) -> None:
        with open(path, "w") as handle:
            for s in sorted(self.spans, key=lambda s: s.start):
                record = {
                    "id": s.id,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": s.parent,
                    "campaign": s.campaign,
                    "thread": s.thread,
                }
                record.update(s.attrs)
                handle.write(json.dumps(record, sort_keys=True) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it its children cover.

    Children may run on other threads and overlap each other, so the
    covered part is the length of the union of the children's intervals,
    clipped to the parent's.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for child in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo = max(child.start, cursor)
            hi = min(child.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = s.duration - covered
    return out
