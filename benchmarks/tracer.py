"""Span tracer for the benchmark's traced batch.

`install` wraps the public functions and methods of each colourgame layer by
rebinding them in the running process; the package source is never edited,
and an untraced process never imports this module. Every call through a
wrapper records one span: its name, start, end and parent (the span open
when it began, kept on a stack). Spans stay in memory until `dump` writes
them out when the batch ends. A wrapper consumes no randomness, so a traced
batch writes the same output bytes as an untraced one.

A span name covers a whole layer boundary rather than a single function
where the layer is a set of thin calls: every capability call the engine
makes on a body (`embody`, `observe_world`, `speak`, `hear`, `point`, `nod`)
records as `embodiment.dispatch`, with `world.perceive` as its child.

The self time of a span is its duration minus the time its child spans
cover. `summary` turns the spans and the counts gathered by the observers
below into the per-layer metrics `<module>.<function>.<stat>`.
"""
from __future__ import annotations

import functools
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter
from typing import Callable

# (module, attribute, span name) for module-level functions. Every module of
# the package that imported the function by name is rebound as well.
FUNCTIONS = (
    ("world", "perceive", "world.perceive"),
    ("world", "sample_scene", "world.sample_scene"),
    ("embodiment", "embody", "embodiment.dispatch"),
    ("embodiment", "observe_world", "embodiment.dispatch"),
    ("embodiment", "speak", "embodiment.dispatch"),
    ("embodiment", "hear", "embodiment.dispatch"),
    ("embodiment", "point", "embodiment.dispatch"),
    ("embodiment", "nod", "embodiment.dispatch"),
    ("lexicon", "invent_word_form", "lexicon.invent_word_form"),
    ("engine", "run_experiment", "engine.run_experiment"),
    ("engine", "run_interaction", "engine.run_interaction"),
    ("engine", "align", "engine.align"),
    ("monitors", "compute_series_point", "monitors.compute_series_point"),
    ("monitors", "take_snapshot", "monitors.take_snapshot"),
    ("monitors", "export_run", "monitors.export_run"),
    ("monitors", "aggregate_runs", "monitors.aggregate_runs"),
    ("monitors", "export_aggregate", "monitors.export_aggregate"),
    ("cli", "parse_config", "cli.parse_config"),
    ("cli", "run_command", "cli.run_command"),
)

# (module, class, method, span name) for methods, rebound on the class.
METHODS = (
    ("conceptual", "Ontology", "conceptualise", "conceptual.conceptualise"),
    ("conceptual", "Ontology", "invent_category", "conceptual.invent_category"),
    ("conceptual", "Ontology", "interpret", "conceptual.interpret"),
    ("conceptual", "Ontology", "shift_prototype", "conceptual.shift_prototype"),
    ("lexicon", "ConstructionInventory", "produce", "lexicon.produce"),
    ("lexicon", "ConstructionInventory", "comprehend", "lexicon.comprehend"),
    (
        "lexicon",
        "ConstructionInventory",
        "reward_and_inhibit",
        "lexicon.reward_and_inhibit",
    ),
    ("lexicon", "ConstructionInventory", "punish", "lexicon.punish"),
    (
        "lexicon",
        "ConstructionInventory",
        "add_construction",
        "lexicon.add_construction",
    ),
)

PACKAGE = "colourgame"


class Tracer:
    """Records nested spans in flat arrays, plus named counts."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.missing: list[str] = []

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(
        self,
        name: str,
        fn: Callable,
        observe: Callable[[object, tuple, dict], None] | None = None,
    ) -> Callable:
        """Return `fn` wrapped so that each call records a span `name`.

        `observe(result, args, kwargs)` runs after the span has closed, so
        its own cost is not charged to `name`.
        """
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(result, args, kwargs)
            return result

        return traced

    def summary(self) -> dict[str, float]:
        """Calls and self time per span name, plus the observed counts."""
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        covered = [0.0] * len(self.span_name)
        # A child span is always recorded after its parent, so walking
        # backwards closes every child before its parent is visited.
        for i in range(len(self.span_name) - 1, -1, -1):
            duration = self.span_end[i] - self.span_start[i]
            name_id = self.span_name[i]
            calls[name_id] += 1
            self_s[name_id] += duration - covered[i]
            parent = self.span_parent[i]
            if parent >= 0:
                covered[parent] += duration
        stats: dict[str, float] = {}
        for name_id, name in enumerate(self.names):
            stats[f"{name}.calls"] = calls[name_id]
            stats[f"{name}.self_s"] = self_s[name_id]
        stats.update(self.counts)
        return _with_ratios(stats)

    def dump(self, path: Path) -> None:
        """Write every span: one JSON header line, then the raw arrays."""
        header = {
            "names": self.names,
            "spans": len(self.span_name),
            "arrays": [
                ["name", "i"], ["parent", "i"], ["start", "d"], ["end", "d"],
            ],
        }
        with path.open("wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (
                self.span_name, self.span_parent, self.span_start, self.span_end
            ):
                arr.tofile(fh)


def _rebind(original: Callable, replacement: Callable) -> None:
    """Point every package module's reference to `original` at `replacement`."""
    for module_name, module in list(sys.modules.items()):
        if module is None:
            continue
        if module_name != PACKAGE and not module_name.startswith(PACKAGE + "."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _observers(tracer: Tracer) -> dict[str, Callable]:
    def found(key: str) -> Callable:
        def observe(result, args, kwargs) -> None:
            if result is not None:
                tracer.count(key)
        return observe

    def interaction(record, args, kwargs) -> None:
        if record.success:
            tracer.count("engine.successes")

    def experiment(result, args, kwargs) -> None:
        # Records are kept until the run's result is dropped, so the
        # longest run sets how many are held at once.
        records = len(result.records)
        tracer.counts["engine.records.count"] = max(
            tracer.counts.get("engine.records.count", 0), records
        )
        for agent in result.population:
            tracer.count("lexicon.inventory_size.total", len(agent.inventory))
            tracer.count("lexicon.inventory_size.agents")

    def exported(result, args, kwargs) -> None:
        out_dir = Path(kwargs["out_dir"] if "out_dir" in kwargs else args[2])
        tracer.count(
            "monitors.export_run.bytes",
            sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file()),
        )

    return {
        "conceptual.conceptualise": found("conceptual.conceptualise.found"),
        "conceptual.interpret": found("conceptual.interpret.found"),
        "lexicon.comprehend": found("lexicon.comprehend.found"),
        "engine.run_interaction": interaction,
        "engine.run_experiment": experiment,
        "monitors.export_run": exported,
    }


def install(tracer: Tracer) -> None:
    """Wrap every function and method in FUNCTIONS and METHODS.

    The package must already be imported. A target the package no longer
    has is listed in `tracer.missing` and left untraced.
    """
    observers = _observers(tracer)
    package = sys.modules[PACKAGE]
    for module_name, attr, span in FUNCTIONS:
        module = getattr(package, module_name, None)
        original = getattr(module, attr, None)
        if original is None:
            tracer.missing.append(f"{module_name}.{attr}")
            continue
        _rebind(original, tracer.wrap(span, original, observers.get(span)))
    for module_name, class_name, method, span in METHODS:
        cls = getattr(getattr(package, module_name, None), class_name, None)
        original = vars(cls).get(method) if cls is not None else None
        if original is None:
            tracer.missing.append(f"{module_name}.{class_name}.{method}")
            continue
        setattr(cls, method, tracer.wrap(span, original, observers.get(span)))


def _with_ratios(stats: dict[str, float]) -> dict[str, float]:
    """Add the ratios and means derived from the raw counts."""

    def ratio(numerator: str, denominator: str) -> float:
        base = stats.get(denominator, 0)
        return stats.get(numerator, 0) / base if base else 0.0

    metrics = dict(stats)
    metrics["conceptual.conceptualise.discriminate_rate"] = ratio(
        "conceptual.conceptualise.found", "conceptual.conceptualise.calls"
    )
    metrics["conceptual.interpret.resolve_rate"] = ratio(
        "conceptual.interpret.found", "conceptual.interpret.calls"
    )
    metrics["lexicon.comprehend.hit_rate"] = ratio(
        "lexicon.comprehend.found", "lexicon.comprehend.calls"
    )
    metrics["engine.success_rate"] = ratio(
        "engine.successes", "engine.run_interaction.calls"
    )
    metrics["lexicon.inventory_size.mean"] = ratio(
        "lexicon.inventory_size.total", "lexicon.inventory_size.agents"
    )
    return metrics
