"""Span tracing at pgee's module boundaries, from outside the package.

``Tracer.install`` replaces a public function under the name its caller
looks it up by (``pgee.harness.fit`` is the ``fit`` that
``harness.run_replication`` calls) with a wrapper that records one span
per call: name, start, end, parent span and the benchmark operation it
belongs to.  Spans stay in memory; a process forked by ``pgee simulate
--workers`` inherits the wrappers and appends its spans to a spool file
after each top-level call in that process, which ``collect`` merges.
Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import functools
import json
import os
from pathlib import Path
from time import perf_counter

#: (module, attribute) pairs wrapped in a traced run.  Each is a public
#: function looked up by name from the module that calls it.
BOUNDARIES = (
    ("pgee.cli", "main"),
    ("pgee.cli", "read_csv"),
    ("pgee.cli", "fit"),
    ("pgee.cli", "estimate_variance"),
    ("pgee.cli", "wald_test"),
    ("pgee.cli", "overcorrection_diagnostic"),
    ("pgee.cli", "parse_config"),
    ("pgee.cli", "run_grid"),
    ("pgee.cli", "results_csv"),
    ("pgee.cli", "summary_json"),
    ("pgee.harness", "run_scenario"),
    ("pgee.harness", "run_replication"),
    ("pgee.harness", "aggregate"),
    ("pgee.harness", "calibrate_intercept"),
    ("pgee.harness", "generate_dataset"),
    ("pgee.harness", "fit"),
    ("pgee.harness", "estimate_all"),
    ("pgee.harness", "wald_test"),
    ("pgee.fitting", "assemble_kernel"),
    ("pgee.fitting", "gee_score"),
    ("pgee.fitting", "firth_penalty"),
    ("pgee.variance", "estimate_variance"),
)


def _fit_attrs(result) -> dict:
    """Counts recorded from the PgeeFit a ``fit`` call returns."""
    return {
        "iterations": int(result.iterations),
        "converged": bool(result.converged),
        "reason": result.diverged_reason,
    }


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "op", "attrs")

    def __init__(self, id, parent, name, start, end, op, attrs=None):
        self.id, self.parent, self.name = id, parent, name
        self.start, self.end, self.op, self.attrs = start, end, op, attrs

    @property
    def func(self) -> str:
        return self.name.rsplit(".", 1)[1]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> str:
        return json.dumps([self.id, self.parent, self.name, self.start, self.end,
                           self.op, self.attrs])


class Tracer:
    """Records spans for the calls made through the installed wrappers."""

    def __init__(self, spool_dir: Path):
        self.owner = self.pid = os.getpid()
        self.spool_dir = Path(spool_dir)
        self.spans: list = []
        self.stack: list = []
        self.op = None
        self._next = 0
        self._installed: list = []

    def install(self, modules: dict) -> None:
        for mod_name, attr in BOUNDARIES:
            module = modules[mod_name]
            original = getattr(module, attr)
            recorder = _fit_attrs if attr == "fit" else None
            setattr(module, attr, self._wrap(f"{mod_name}.{attr}", original, recorder))
            self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _wrap(self, name, original, recorder):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self._call(name, original, recorder, args, kwargs)
        return traced

    def _call(self, name, original, recorder, args, kwargs):
        if os.getpid() != self.pid:  # first call in a forked worker
            self.pid, self.spans = os.getpid(), []
        span_id = f"{self.pid}:{self._next}"
        self._next += 1
        parent = self.stack[-1] if self.stack else None
        self.stack.append(span_id)
        result = None
        start = perf_counter()
        try:
            result = original(*args, **kwargs)
            return result
        finally:
            end = perf_counter()
            self.stack.pop()
            attrs = recorder(result) if recorder and result is not None else None
            self.spans.append(Span(span_id, parent, name, start, end, self.op, attrs))
            if self.pid != self.owner and (
                parent is None or not parent.startswith(f"{self.pid}:")
            ):
                self._flush()

    def _flush(self) -> None:
        with open(self.spool_dir / f"{self.pid}.jsonl", "a", encoding="utf-8") as fh:
            fh.writelines(s.to_json() + "\n" for s in self.spans)
        self.spans = []

    def collect(self) -> None:
        """Merge the spans that forked workers spooled."""
        for path in sorted(self.spool_dir.glob("*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                self.spans.extend(Span(*json.loads(line)) for line in fh)
            path.unlink()


def self_time(span: Span, children: list) -> float:
    """Duration minus the part of it that child spans cover (union)."""
    covered, cursor = 0.0, span.start
    for c in sorted(children, key=lambda s: s.start):
        lo, hi = max(c.start, cursor), min(c.end, span.end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return span.duration - covered
