"""Spans recorded around pqsim's public functions, from outside the package.

A :class:`Tracer` replaces functions at the names their callers look up
(``pqsim.sampler.sample_source_pqd``, not ``pqsim.states.sample_source_pqd``)
with wrappers that record one span per call: name, start, end, parent span
and the operation it belongs to. Spans stay in memory until the run ends.
Self time is a span's duration minus the time its child spans cover; calls
run on one thread, so children nest strictly inside their parent.
"""

from __future__ import annotations

import functools
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

#: The repository's modules; every span name starts with one of these or
#: with "bench" (the benchmark's own work).
LAYERS = (
    "presets", "experiment", "simulability", "processes", "states",
    "linalg", "sampler", "oracle", "rng", "cli",
)


class MissingSite(LookupError):
    """A function the tracer wraps is no longer where its callers look it up."""


@dataclass
class Span:
    """One wrapped call. ``size`` is the batch's row count for sampler
    batches and the returned byte count for serializers; ``peak_bytes`` is
    a batch's tracemalloc peak."""

    name: str
    start_ns: int
    parent: int | None
    op: int
    end_ns: int = 0
    child_ns: int = 0
    size: int = 0
    peak_bytes: int = 0

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def self_ns(self) -> int:
        return self.duration_ns - self.child_ns


@dataclass
class Tracer:
    """Records spans for wrapped functions until :meth:`restore` is called."""

    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _undo: list = field(default_factory=list)
    _op: int = 0

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self._op += 1
        index = len(self.spans)
        record = Span(name, time.perf_counter_ns(), parent, self._op)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record.end_ns = time.perf_counter_ns()
            self._stack.pop()
            if parent is not None:
                self.spans[parent].child_ns += record.duration_ns

    def wrap(self, owner, attr: str, name: str, sized: bool = False) -> None:
        """Route calls of ``owner.attr`` through a span named ``name``;
        with ``sized`` the span also records ``len()`` of the result.

        A name the program no longer has stops the run (:func:`install`),
        because the metrics behind it would read zero, which looks like a gain.
        """
        original = owner.__dict__.get(attr)
        if original is None:
            raise MissingSite(f"{owner.__module__}.{owner.__name__}.{attr}"
                              if isinstance(owner, type) else f"{owner.__name__}.{attr}")

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = original(*args, **kwargs)
                if sized:
                    record.size = len(result)
                return result

        self._patch(owner, attr, original, traced)

    def wrap_batches(self, sampler_module) -> None:
        """Give every sampling batch its own span and tracemalloc peak.

        The engine's batch loop receives the per-batch draw function as its
        first argument; that closure has no module-level name to wrap.
        """
        original = sampler_module.__dict__.get("_run_batched")
        if original is None:
            raise MissingSite("pqsim.sampler._run_batched")

        @functools.wraps(original)
        def traced_loop(draw_batch, *args, **kwargs):
            def traced_batch(gen, n):
                tracemalloc.start()
                try:
                    with self.span("sampler.batch") as record:
                        record.size = n
                        return draw_batch(gen, n)
                finally:
                    record.peak_bytes = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()

            with self.span("sampler.batch_loop"):
                return original(traced_batch, *args, **kwargs)

        self._patch(sampler_module, "_run_batched", original, traced_loop)

    def _patch(self, owner, attr, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # summaries
    # ------------------------------------------------------------------

    def select(self, name: str, ops=None) -> list[Span]:
        """Spans called ``name``, optionally only those of operations ``ops``."""
        return [s for s in self.spans if s.name == name and (ops is None or s.op in ops)]

    def ops_of(self, name: str) -> set[int]:
        return {s.op for s in self.spans if s.name == name}

    def calls(self, name: str, ops=None) -> int:
        return len(self.select(name, ops))

    def self_s(self, name: str, ops=None) -> float:
        return sum(s.self_ns for s in self.select(name, ops)) / 1e9

    def total_s(self, name: str, ops=None) -> float:
        return sum(s.duration_ns for s in self.select(name, ops)) / 1e9

    def layer_self_s(self) -> dict[str, float]:
        out = defaultdict(float)
        for s in self.spans:
            out[s.name.split(".", 1)[0]] += s.self_ns / 1e9
        return {layer: out.get(layer, 0.0) for layer in LAYERS}

    def to_records(self) -> list[dict]:
        return [
            {"name": s.name, "op": s.op, "parent": s.parent,
             "start_ns": s.start_ns, "end_ns": s.end_ns, "self_ns": s.self_ns}
            for s in self.spans
        ]


def install(tracer: Tracer, pqsim) -> None:
    """Wrap the public functions of each layer at their call sites.

    Stops the run, with nothing wrapped, if any site is missing: a program
    change that moves one updates this table in a change of its own.
    """
    sites = {
        "presets.build": [(pqsim.presets, "single_photon_config"),
                          (pqsim.presets, "spdc_config")],
        "linalg.haar_unitary": [(pqsim.presets, "haar_unitary"),
                                (pqsim.experiment, "haar_unitary")],
        "linalg.validate_transfer": [(pqsim.experiment, "validate_transfer"),
                                     (pqsim.processes, "validate_transfer"),
                                     (pqsim.linalg, "validate_transfer")],
        "experiment.parse_config": [(pqsim.experiment, "parse_config"),
                                    (pqsim.cli, "parse_config")],
        "experiment.config_hash": [(pqsim.experiment.ExperimentConfig, "config_hash")],
        "simulability.check_second_condition": [
            (pqsim.simulability, "check_second_condition"),
            (pqsim.sampler, "check_second_condition"),
            (pqsim.cli, "check_second_condition")],
        "processes.sigma_matrix": [(pqsim.simulability, "sigma_matrix"),
                                   (pqsim.sampler, "sigma_matrix")],
        "processes.propagate_gaussian": [(pqsim.sampler, "propagate_gaussian")],
        "linalg.psd_factor": [(pqsim.sampler, "psd_factor_complex"),
                              (pqsim.sampler, "psd_factor_real"),
                              (pqsim.states, "psd_factor_real")],
        "linalg.standard_complex_normal": [(pqsim.sampler, "standard_complex_normal")],
        "states.sample_source_pqd": [(pqsim.sampler, "sample_source_pqd")],
        "sampler.run_experiment": [(pqsim.sampler, "run_experiment"),
                                   (pqsim.cli, "run_experiment")],
        "sampler.run_condition1": [(pqsim.sampler, "run_condition1")],
        "sampler.run_condition2": [(pqsim.sampler, "run_condition2")],
        "sampler.output_gaussian": [(pqsim.sampler, "output_gaussian")],
        "sampler.empirical_stats": [(pqsim.sampler, "empirical_stats"),
                                    (pqsim.cli, "empirical_stats")],
        "sampler.to_csv_bytes": [(pqsim.sampler.SampleBatch, "to_csv_bytes")],
        "sampler.to_jsonl_bytes": [(pqsim.sampler.SampleBatch, "to_jsonl_bytes")],
        "oracle.exact_distribution": [(pqsim.oracle, "exact_distribution")],
        "oracle.permanent_batch": [(pqsim.oracle, "permanent_batch")],
        "oracle.tv_distance": [(pqsim.oracle, "tv_distance")],
        "rng.generator": [(pqsim.rng.RngStream, "generator")],
    }
    try:
        for name, owners in sites.items():
            for owner, attr in owners:
                tracer.wrap(owner, attr, name, sized=name.startswith("sampler.to_"))
        tracer.wrap_batches(pqsim.sampler)
    except MissingSite as missing:
        tracer.restore()
        raise SystemExit(f"error: cannot trace {missing}: the program no longer has it; "
                         "update perfbench/tracing.py") from None
