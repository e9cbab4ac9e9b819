"""In-memory spans around calls into the program's layers.

The benchmark never edits the program: a traced pass patches public
entry points (module functions and class methods) with wrappers that
open a span per call, runs the same pass as the untraced one, and puts
everything back.  Spans stay in memory; a forked worker process (the
sweep pool) appends its spans to a per-process spill file instead,
which the parent folds back in after the pass.

A span's *self time* is its duration minus the part of it covered by
its child spans in the same process.  Within one process, sibling spans
never overlap, so the self times of a root and everything under it sum
to the root's duration.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Union


@dataclass
class Span:
    span_id: str
    parent: Optional[str]
    name: str
    start: float
    end: float
    pid: int
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


SpanName = Union[str, Callable[..., str]]


class Tracer:
    """Nested spans for one process tree; forked children spill to files."""

    def __init__(
        self,
        spill_dir: Optional[Union[str, Path]] = None,
        enabled: bool = True,
    ) -> None:
        #: A disabled tracer records nothing; patches still apply, so an
        #: untraced pass can keep the same result-capturing hooks.
        self.enabled = enabled
        self.pid = os.getpid()
        self.spans: List[Span] = []
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None
        self._stack: List[str] = []
        self._ids = itertools.count(1)
        self._patches: List[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Dict[str, Any]]:
        """Time the body as one span; the yielded dict becomes its attrs."""
        attrs: Dict[str, Any] = {}
        if not self.enabled:
            yield attrs
            return
        span_id = f"{os.getpid()}:{next(self._ids)}"
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._emit(Span(span_id, parent, name, start, end, os.getpid(), attrs))

    def _emit(self, span: Span) -> None:
        if span.pid == self.pid:
            self.spans.append(span)
            return
        if self.spill_dir is None:
            return
        # A forked worker: its memory dies with it, so write through.
        with open(self.spill_dir / f"spans-{span.pid}.jsonl", "a") as handle:
            handle.write(json.dumps(asdict(span)) + "\n")

    def collect_spills(self) -> None:
        """Fold every worker's spilled spans into :attr:`spans`."""
        if self.spill_dir is None:
            return
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            for line in path.read_text().splitlines():
                if line.strip():
                    self.spans.append(Span(**json.loads(line)))
            path.unlink()

    # ------------------------------------------------------------------
    # Patching entry points

    def patch(
        self,
        owner: Any,
        attr: str,
        name: SpanName,
        on_result: Optional[Callable[..., None]] = None,
    ) -> None:
        """Route ``owner.attr`` through a span until :meth:`patched` exits.

        ``name`` may be a callable of the call's ``(args, kwargs)``;
        ``on_result(attrs, args, kwargs, result)`` records counts on the
        span after the call returns.
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            label = name(args, kwargs) if callable(name) else name
            with tracer.span(label) as attrs:
                result = original(*args, **kwargs)
                if on_result is not None:
                    on_result(attrs, args, kwargs, result)
                return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    @contextlib.contextmanager
    def patched(self) -> Iterator["Tracer"]:
        """Undo every :meth:`patch` made so far when the block exits."""
        try:
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Accounting

    def self_times(self) -> Dict[str, float]:
        """span_id -> duration minus the union of same-process children."""
        children: Dict[str, List[Span]] = {}
        by_id = {span.span_id: span for span in self.spans}
        for span in self.spans:
            parent = by_id.get(span.parent) if span.parent else None
            if parent is not None and parent.pid == span.pid:
                children.setdefault(parent.span_id, []).append(span)
        result = {}
        for span in self.spans:
            covered = 0.0
            cursor = span.start
            for child in sorted(children.get(span.span_id, ()), key=lambda s: s.start):
                lo, hi = max(child.start, cursor), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            result[span.span_id] = span.seconds - covered
        return result

    def descendants(self, root: Span) -> List[Span]:
        """``root`` and every span below it, in any process."""
        below: Dict[Optional[str], List[Span]] = {}
        for span in self.spans:
            below.setdefault(span.parent, []).append(span)
        found, todo = [], [root]
        while todo:
            span = todo.pop()
            found.append(span)
            todo.extend(below.get(span.span_id, ()))
        return found

    def root(self, name: str) -> Span:
        """The last finished span called ``name``."""
        for span in reversed(self.spans):
            if span.name == name:
                return span
        raise KeyError(name)


def self_seconds_by_name(tracer: Tracer, root: Span) -> Dict[str, float]:
    """Summed self time per span name under ``root`` (same process only)."""
    selfs = tracer.self_times()
    totals: Dict[str, float] = {}
    for span in tracer.descendants(root):
        if span.pid == root.pid:
            totals[span.name] = totals.get(span.name, 0.0) + selfs[span.span_id]
    return totals


def sum_check(tracer: Tracer, root_name: str) -> Dict[str, float]:
    """Traced wall vs the summed self times of the layers under a root.

    The root's own self time is harness glue between layer calls; with
    it excluded, the layer sum falls short of the wall by exactly that.
    """
    root = tracer.root(root_name)
    selfs = self_seconds_by_name(tracer, root)
    harness = selfs.pop(root_name, 0.0)
    return {
        "traced_wall_s": root.seconds,
        "layer_self_sum_s": sum(selfs.values()),
        "harness_self_s": harness,
    }
