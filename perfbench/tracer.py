"""Span tracer that observes hindcaus from outside.

`Tracer.installed()` replaces the public functions and methods listed in
`TARGETS` with wrappers that record one span per call and then call the
original. Nothing under `src/` is edited, and leaving the context restores
every original. Spans are kept in memory as (name, parent, start, end) and
aggregated only after the run, so the wrappers do no work beyond reading the
clock and appending to a list.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import hindcaus.env as env_api
import hindcaus.env.dataset as dataset_mod
import hindcaus.graph as graph_mod
import hindcaus.models as models_api
import hindcaus.numcore as numcore_api
import hindcaus.objective as objective_mod
from hindcaus.graph import CmiMatrix
from hindcaus.models import MaskedTransition, ParameterStore, RewardHead
from hindcaus.numcore import Adam

# (owner, attribute, span name). Module attributes cover both the benchmark's
# own calls (it calls through these modules) and the package's internal
# calls (generate_dataset looks `rollout` up in its module, cmi_from_batch
# looks up `estimate_cmi`). Class attributes cover method calls on every
# instance. The encoder unroll is wrapped per instance in `watch_bundle`,
# because phi and phi_bar are the same class.
TARGETS = (
    (dataset_mod, "rollout", "env.rollout"),
    (env_api, "save_dataset", "env.dataset.save"),
    (env_api, "load_dataset", "env.dataset.load"),
    (env_api, "stack_episodes", "env.dataset.stack"),
    (models_api, "save_checkpoint", "models.store.save"),
    (models_api, "load_checkpoint", "models.store.load"),
    (ParameterStore, "sync_target", "models.store.sync_target"),
    (MaskedTransition, "features", "models.transition.features"),
    (MaskedTransition, "logits_from_features", "models.transition.pool_head"),
    (RewardHead, "__call__", "models.reward"),
    (objective_mod, "total_objective", "objective"),
    (numcore_api, "backward", "numcore.backward"),
    (Adam, "step", "numcore.optim.adam"),
    (graph_mod, "cmi_from_batch", "graph.cmi"),
    (graph_mod, "estimate_cmi", "graph.estimate"),
    (CmiMatrix, "update_ema", "graph.ema"),
)


@dataclass
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 for a root
    start: float
    end: float = 0.0


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    gc_events: list[tuple[float, int, str | None]] = field(default_factory=list)
    _open: list[int] = field(default_factory=list)
    _gc_start: float = 0.0

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        clock = time.perf_counter
        idx = len(self.spans)
        self.spans.append(Span(name, self._open[-1] if self._open else -1, clock()))
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx].end = clock()

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _wrap(self, fn, name: str):
        span = self.span

        def traced(*args, **kwargs):
            with span(name):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def _on_gc(self, phase: str, info: dict) -> None:
        """Record (pause, objects collected, root span open at the time)."""
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            root = self.spans[self._open[0]].name if self._open else None
            self.gc_events.append((time.perf_counter() - self._gc_start, info["collected"], root))

    @contextmanager
    def installed(self):
        """Wrap every target and watch the collector until the block ends."""
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in TARGETS]
        try:
            for owner, attr, name in TARGETS:
                setattr(owner, attr, self._wrap(owner.__dict__[attr], name))
            gc.callbacks.append(self._on_gc)
            yield self
        finally:
            if self._on_gc in gc.callbacks:
                gc.callbacks.remove(self._on_gc)
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def watch_bundle(self, bundle) -> None:
        """Wrap the two encoder instances of a bundle under distinct names."""
        bundle.encoder.unroll = self._wrap(bundle.encoder.unroll, "models.encoders.unroll")
        bundle.encoder_target.unroll = self._wrap(
            bundle.encoder_target.unroll, "models.encoders.target_unroll"
        )

    # -- aggregation -------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.end - s.start
        return out

    def ancestry(self, idx: int) -> list[str]:
        names = []
        while idx >= 0:
            names.append(self.spans[idx].name)
            idx = self.spans[idx].parent
        return names


def count_tape_nodes(loss) -> int:
    """Nodes reachable from `loss` that backward will visit.

    Reads the tape links (`_parents`) directly: the engine exposes no public
    walk, and counting must not change what backward does.
    """
    seen = {id(loss)}
    todo = [loss]
    while todo:
        node = todo.pop()
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                todo.append(p)
    return len(seen)
