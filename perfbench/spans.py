"""In-memory spans around calls into reliroute's layers.

The traced run replaces public functions with timing wrappers at the place
where the calling module looks them up: ``compute_policy`` as both the
benchmark and ``reliroute.potentials`` call it, ``compute_realizability`` and
``sota_path_report`` as ``reliroute.potentials`` calls them, and so on.  No
file under ``src/`` is touched, so every count comes from outside the
library.  Spans stay in memory and are written out once the run ends.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    op: int | None = None
    phase: str = ""
    data: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; ``phase`` and ``op`` tag every span opened
    while they are set, so spans of one operation share an identifier."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = ""
        self.op: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str, **data):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, 0.0, parent=parent, op=self.op, phase=self.phase, data=data))
        self._stack.append(idx)
        self.spans[idx].start = time.perf_counter()
        try:
            yield self.spans[idx]
        finally:
            self.spans[idx].end = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str, name: str, annotate=None) -> None:
        """Replace ``module.attr`` by a traced version; ``annotate(span, args,
        kwargs, result)`` may attach counts read off the call."""
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = original(*args, **kwargs)
            if annotate is not None:
                annotate(sp, args, kwargs, result)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [sp.seconds for sp in self.spans]
        for sp in self.spans:
            if sp.parent >= 0:
                own[sp.parent] -= sp.seconds
        return own

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([asdict(sp) for sp in self.spans], fh)


class NullTracer:
    """Stands in for :class:`Tracer` in the untraced run."""

    phase = ""
    op = None

    @contextlib.contextmanager
    def span(self, name: str, **data):
        yield None
