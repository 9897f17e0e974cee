"""Per-interaction measurements, lexicon snapshots, and file export.

Derives five time series from the game outcomes and the live population:
windowed communicative success, mean ontology size, mean inventory size, the
number of distinct forms alive in the population, and the two form/meaning
ratio series. Ratio fields with an empty denominator (no agent holding any
construction) are reported as 0 by convention.

The population counts are incremental. A `PopulationMonitor` caches each
agent's ontology size, inventory size, form/meaning ratios and form set, plus
a population-wide count of the agents holding each form. Only a game's
speaker and hearer can change, so the monitor marks those two stale after
every game, and a series point recounts the stale agents alone: its cost
grows with the agents that played since the last row, not with the whole
population's inventories. Each mean is the exact sum (`math.fsum`) of one
value per agent over their count, as `statistics.fmean` computes it, so the
result does not depend on the order in which agents were recounted.

Most games change no count at all. Score updates move no series field; only
an added or pruned construction or an invented category does. So the monitor
remembers, per agent, the pair (ontology size, inventory edits) it last
counted, and skips a stale agent whose pair has not moved.
`ConstructionInventory.edits` goes up with every construction added or
pruned; categories are never deleted, so the ontology's size serves as its
version. At pop 5 about one recount in fifteen changes anything, at pop 50
about three in ten. Windowed success is incremental too: the monitor
keeps the outcomes of the last `window` games and a running count of their
successes, so a series point reads it without rescanning any record.

Exports per run: `series.csv` (one row per sampled interaction),
`snapshots.json`, and `snapshots.html` (one colour swatch per category,
labelled with its scored forms). Multi-run aggregation writes
`aggregate.csv` with the per-interaction mean and sample standard deviation
of every series field.

The standard deviation is the correctly rounded square root of the exact
sample variance, the value `statistics.stdev` returns from CPython 3.11 on,
computed by `_stdev` in integers. Every float is a dyadic rational, so the
values are put over one power-of-two denominator 2**shift as integers i, and
the variance is exactly (n*sum(i*i) - sum(i)**2) / (n*(n-1) * 4**shift). The
square root of that fraction is taken with `math.isqrt` on a radicand scaled
to at least 2*53+3 bits, rounded to odd (a sticky bit for an inexact root),
and turned into a float by one correctly rounded division.
"""
from __future__ import annotations

import csv
import html
import json
import math
import operator
import sys
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Collection, Iterable, Sequence

from .errors import ConfigurationError

if TYPE_CHECKING:  # imported only for annotations; engine imports this module
    from .engine import Agent, InteractionRecord

SERIES_FIELDS = (
    "success_window_avg",
    "mean_ontology_size",
    "mean_inventory_size",
    "distinct_forms_population",
    "mean_forms_per_meaning",
    "mean_meanings_per_form",
)

SERIES_HEADER = ("interaction",) + SERIES_FIELDS

SERIES_CSV = "series.csv"
SNAPSHOTS_JSON = "snapshots.json"
SNAPSHOTS_HTML = "snapshots.html"
AGGREGATE_CSV = "aggregate.csv"


@dataclass(frozen=True)
class SeriesPoint:
    """All monitored values at one interaction."""

    interaction: int
    success_window_avg: float
    mean_ontology_size: float
    mean_inventory_size: float
    distinct_forms_population: int
    mean_forms_per_meaning: float
    mean_meanings_per_form: float


@dataclass(frozen=True)
class LexiconSnapshot:
    """Deep copy of one agent's categories and their scored forms."""

    interaction_number: int
    agent_id: int
    entries: tuple[dict, ...]


class PopulationMonitor:
    """Per-agent counts behind the series, recounted only where play happened.

    A game changes no agent but its speaker and hearer, so `observe` marks
    those two stale and `recount` rescans the stale agents alone, skipping
    one whose ontology size and inventory edit count are those it last
    counted. Every agent starts stale. `holders` maps each form alive in the
    population to the number of agents holding it. `observe` also keeps the outcomes of the
    last `window` games and a running count of the successes among them.
    """

    def __init__(self, population: Sequence["Agent"], window: int) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.population = population
        self._recent: deque[bool] = deque(maxlen=window)
        self._successes = 0
        self._agents = {agent.agent_id: agent for agent in population}
        self._stale = set(self._agents)
        self.ontology_sizes: dict[int, int] = {}
        self.inventory_sizes: dict[int, int] = {}
        # Only agents holding at least one construction have a ratio entry.
        self.forms_per_meaning: dict[int, float] = {}
        self.meanings_per_form: dict[int, float] = {}
        self._forms: dict[int, set[str]] = {}
        self._versions: dict[int, tuple[int, int]] = {}
        self.holders: dict[str, int] = {}

    def observe(self, record: "InteractionRecord") -> None:
        """Mark the two agents that played `record` as needing a recount, and
        slide the success window over its outcome."""
        self._stale.add(record.speaker_id)
        self._stale.add(record.hearer_id)
        recent = self._recent
        if len(recent) == recent.maxlen:
            self._successes -= recent[0]
        recent.append(record.success)
        self._successes += record.success

    def windowed_success(self) -> float:
        """Fraction of successes among the last min(window, games observed)
        games; zero games observed means zero success by definition."""
        recent = self._recent
        return self._successes / len(recent) if recent else 0.0

    def recount(self) -> None:
        """Bring every stale agent's counts and the form holders up to date."""
        for agent_id in self._stale:
            agent = self._agents[agent_id]
            ontology_size = len(agent.ontology)
            version = (ontology_size, agent.inventory.edits)
            if self._versions.get(agent_id) == version:
                continue
            self._versions[agent_id] = version
            constructions = agent.inventory.constructions
            self.ontology_sizes[agent_id] = ontology_size
            self.inventory_sizes[agent_id] = len(constructions)
            forms = {c.form for c in constructions}
            old_forms = self._forms.get(agent_id, set())
            for form in old_forms - forms:
                if self.holders[form] == 1:
                    del self.holders[form]
                else:
                    self.holders[form] -= 1
            for form in forms - old_forms:
                self.holders[form] = self.holders.get(form, 0) + 1
            self._forms[agent_id] = forms
            if constructions:
                n = len(constructions)
                categories = {c.category_id for c in constructions}
                self.forms_per_meaning[agent_id] = n / len(categories)
                self.meanings_per_form[agent_id] = n / len(forms)
            else:
                self.forms_per_meaning.pop(agent_id, None)
                self.meanings_per_form.pop(agent_id, None)
        self._stale.clear()


def _mean(values: Collection[float]) -> float:
    # The exact sum (math.fsum) over the count, which is how statistics.fmean
    # computes it, so the order of the agents cannot move a result; an empty
    # collection reads 0 by convention.
    return math.fsum(values) / len(values) if values else 0.0


def compute_series_point(monitor: PopulationMonitor, at: int) -> SeriesPoint:
    """Derive every monitored value at interaction `at` from the monitor."""
    monitor.recount()
    return SeriesPoint(
        interaction=at,
        success_window_avg=monitor.windowed_success(),
        mean_ontology_size=_mean(monitor.ontology_sizes.values()),
        mean_inventory_size=_mean(monitor.inventory_sizes.values()),
        distinct_forms_population=len(monitor.holders),
        mean_forms_per_meaning=_mean(monitor.forms_per_meaning.values()),
        mean_meanings_per_form=_mean(monitor.meanings_per_form.values()),
    )


def take_snapshot(agent: "Agent", at: int) -> LexiconSnapshot:
    """Copy an agent's categories with their scored forms at interaction `at`.

    Later mutation of the agent leaves the snapshot untouched.
    """
    entries = []
    for category in sorted(agent.ontology.categories, key=lambda c: c.category_id):
        forms = [
            {"form": c.form, "score": c.score}
            for c in agent.inventory.constructions
            if c.category_id == category.category_id
        ]
        forms.sort(key=lambda f: (-f["score"], f["form"]))
        entries.append(
            {
                "category_id": category.category_id,
                "prototype": [
                    category.prototype.r,
                    category.prototype.g,
                    category.prototype.b,
                ],
                "forms": forms,
            }
        )
    return LexiconSnapshot(
        interaction_number=at, agent_id=agent.agent_id, entries=tuple(entries)
    )


def _format_row(point: SeriesPoint) -> list[str]:
    return [
        str(point.interaction),
        f"{point.success_window_avg:.6f}",
        f"{point.mean_ontology_size:.6f}",
        f"{point.mean_inventory_size:.6f}",
        str(point.distinct_forms_population),
        f"{point.mean_forms_per_meaning:.6f}",
        f"{point.mean_meanings_per_form:.6f}",
    ]


def export_run(
    series: Sequence[SeriesPoint],
    snapshots: Sequence[LexiconSnapshot],
    out_dir: str | Path,
) -> list[Path]:
    """Write series.csv, snapshots.json and snapshots.html into `out_dir`."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    series_path = out / SERIES_CSV
    with series_path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SERIES_HEADER)
        for point in series:
            writer.writerow(_format_row(point))

    json_path = out / SNAPSHOTS_JSON
    with json_path.open("w") as fh:
        # take_snapshot already copied the entries, so no deep copy here.
        json.dump(
            [
                {
                    "interaction_number": s.interaction_number,
                    "agent_id": s.agent_id,
                    "entries": s.entries,
                }
                for s in snapshots
            ],
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")

    html_path = out / SNAPSHOTS_HTML
    html_path.write_text(render_snapshots_html(snapshots))
    return [series_path, json_path, html_path]


def render_snapshots_html(snapshots: Sequence[LexiconSnapshot]) -> str:
    """Static page: one swatch per category, labelled with forms and scores."""
    parts = [
        "<!doctype html>",
        "<html><head><meta charset='utf-8'><title>Lexicon snapshots</title>",
        "<style>",
        "body { font-family: sans-serif; }",
        ".category { display: inline-block; margin: 6px; text-align: center; }",
        ".swatch { width: 72px; height: 48px; border: 1px solid #444; }",
        ".label { font-size: 12px; max-width: 110px; }",
        "</style></head><body>",
        "<h1>Lexicon snapshots</h1>",
    ]
    for snapshot in snapshots:
        parts.append(
            f"<section><h2>interaction {snapshot.interaction_number} "
            f"&mdash; agent {snapshot.agent_id}</h2>"
        )
        for entry in snapshot.entries:
            r, g, b = (round(v) for v in entry["prototype"])
            forms = "<br>".join(
                f"{html.escape(f['form'])} ({f['score']:.2f})"
                for f in entry["forms"]
            )
            parts.append(
                "<div class='category'>"
                f"<div class='swatch' style='background: rgb({r},{g},{b})'></div>"
                f"<div class='label'>category {entry['category_id']}"
                f"{'<br>' + forms if forms else ''}</div>"
                "</div>"
            )
        parts.append("</section>")
    parts.append("</body></html>")
    return "\n".join(parts) + "\n"


# Bits kept in the radicand of `_stdev`'s integer square root: the root then
# carries at least 53 + 2 bits, enough for rounding to odd and then to nearest
# to round correctly.
_RADICAND_BITS = 2 * sys.float_info.mant_dig + 3


def _stdev(values: Sequence[float]) -> float:
    """Correctly rounded sample standard deviation of two or more finite
    floats; equal to `statistics.stdev` on CPython 3.11 and later."""
    n = len(values)
    # The variance is zero exactly when every value is equal, as in a quarter
    # of the ensemble's aggregate columns; answer those without the integers.
    if min(values) == max(values):
        return 0.0
    ratios = [v.as_integer_ratio() for v in values]
    # Every denominator is a power of two; over the largest, 2**shift, every
    # value is an integer.
    unit = max([den for _, den in ratios])
    scaled = [num * (unit // den) for num, den in ratios]
    shift = unit.bit_length() - 1
    total = sum(scaled)
    num = n * sum(map(operator.mul, scaled, scaled)) - total * total
    den = n * (n - 1)
    # stdev = sqrt(num / den) / 2**shift = sqrt(num * 4**k / den) / 2**(shift + k)
    k = (_RADICAND_BITS + den.bit_length() - num.bit_length() + 1) // 2
    if k >= 0:
        top, bottom = num << 2 * k, den
    else:
        top, bottom = num, den << -2 * k
    root = math.isqrt(top // bottom)
    root |= root * root * bottom != top
    exponent = shift + k
    if exponent >= 0:
        return root / (1 << exponent)
    return float(root << -exponent)


# Each series field with its two aggregate keys, in aggregate.csv's order.
_AGGREGATE_KEYS = tuple((f"{f}_mean", f"{f}_std") for f in SERIES_FIELDS)
_series_values = operator.attrgetter(*SERIES_FIELDS)


def aggregate_runs(
    series_per_run: Sequence[Sequence[SeriesPoint]],
) -> list[dict[str, float]]:
    """Per-interaction mean and sample standard deviation across runs.

    All runs must share the same interaction grid. A single run aggregates to
    itself with zero deviation.
    """
    if not series_per_run:
        raise ConfigurationError("nothing to aggregate: no runs given")
    lengths = {len(series) for series in series_per_run}
    if len(lengths) != 1:
        raise ConfigurationError(
            f"runs disagree on series length: {sorted(lengths)}"
        )
    n = len(series_per_run)
    rows: list[dict[str, float]] = []
    for i, points in enumerate(zip(*series_per_run)):
        interactions = {point.interaction for point in points}
        if len(interactions) != 1:
            raise ConfigurationError(
                f"runs disagree on interaction numbering at row {i}: "
                f"{sorted(interactions)}"
            )
        row: dict[str, float] = {"interaction": interactions.pop()}
        # One tuple of field values per run, transposed to one per field.
        columns = zip(*map(_series_values, points))
        for (mean_key, std_key), column in zip(_AGGREGATE_KEYS, columns):
            values = list(map(float, column))
            row[mean_key] = math.fsum(values) / n
            row[std_key] = _stdev(values) if n > 1 else 0.0
        rows.append(row)
    return rows


def export_aggregate(
    rows: Iterable[dict[str, float]], out_dir: str | Path
) -> Path:
    """Write the aggregated series as aggregate.csv in `out_dir`."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / AGGREGATE_CSV
    header = ["interaction"]
    for mean_key, std_key in _AGGREGATE_KEYS:
        header.extend([mean_key, std_key])
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            formatted = [str(int(row["interaction"]))]
            for mean_key, std_key in _AGGREGATE_KEYS:
                formatted.append(f"{row[mean_key]:.6f}")
                formatted.append(f"{row[std_key]:.6f}")
            writer.writerow(formatted)
    return path
