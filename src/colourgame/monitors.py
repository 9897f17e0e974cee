"""Per-game measurements, lexicon snapshots, and file export.

`compute_series_point` reads a `SeriesPoint` off a `PopulationMonitor`, and
`take_snapshot` copies one agent's lexicon. A run exports `series.csv`,
`snapshots.json` and `snapshots.html` (`export_run`); a batch exports
`aggregate.csv`, the per-game mean and sample standard deviation of every
series field across its runs (`export_aggregate`).

Invariants, each explained where it is kept: a series row costs what changed
since the last one (`PopulationMonitor`); every mean of the values a run
makes (`SeriesPoint`) is `math.fsum` of them over their count, bit for bit,
in any order of agents or runs (`_RATIO_UNIT`, `_RunSums`); every deviation
is correctly rounded (`_deviation`); and no memory grows with a batch's run
count (`aggregate_runs`) or a file's length (`_write_rows`).
"""
from __future__ import annotations

import json
import math
import operator
import sys
from collections import deque
from itertools import chain, compress, count, groupby, islice
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

from .errors import ConfigurationError

if TYPE_CHECKING:  # imported only for annotations; engine imports this module
    from .engine import Agent, InteractionRecord

SERIES_CSV = "series.csv"
SNAPSHOTS_JSON = "snapshots.json"
SNAPSHOTS_HTML = "snapshots.html"
AGGREGATE_CSV = "aggregate.csv"


class SeriesPoint(NamedTuple):
    """All monitored values at one interaction, in series.csv's order. The
    windowed success reads 0 before any game, and the two ratio fields
    while no agent holds a construction. These values, the only ones the
    exporters take, are of one kind whatever the body backend: the
    interaction and the form count are ints below 2**53, and every other
    field is a finite float >= 0, never -0.0 (an int / int quotient of
    counts, `_RATIO_UNIT`s over a count, or 0.0). So is each value of an
    aggregate row: a mean of such floats, or a deviation (`_RunSums`)."""

    interaction: int
    success_window_avg: float
    mean_ontology_size: float
    mean_inventory_size: float
    distinct_forms_population: int
    mean_forms_per_meaning: float
    mean_meanings_per_form: float


SERIES_HEADER = SeriesPoint._fields
SERIES_FIELDS = SERIES_HEADER[1:]


class LexiconSnapshot(NamedTuple):
    """Deep copy of one agent's categories and their scored forms."""

    interaction_number: int
    agent_id: int
    entries: tuple[dict, ...]


# As `engine._new_tuple`, for the series point built per row.
_new_tuple = tuple.__new__

# The fixed point of the form/meaning ratio totals, and why every series mean
# is `math.fsum` of one value per agent over their count (`statistics.fmean`)
# bit for bit, whatever order the agents were recounted in. The totals are
# exact ints. A size is an int, and int / int rounds the exact quotient once,
# as fsum's exact sum over the count does. A ratio n/k has 1 <= k <= n (an
# inventory keeps no empty bucket, so k distinct categories or forms take k
# constructions), so as a float it lies in [1, n]: its last mantissa bit is
# worth at least 2**-52, and the ratio times 2**52 is a whole float, exactly.
# The ratio totals are kept in those units. A total times 2**-52 rounds it to
# a float once and scales that exactly, so it is the correctly rounded exact
# sum, which is what fsum returns, and over the count it is fsum's mean.
_RATIO_UNIT = float(1 << (sys.float_info.mant_dig - 1))
_UNIT_VALUE = 1.0 / _RATIO_UNIT

# What an agent not yet counted contributes: nothing. Its version never
# matches, because an ontology's size and an inventory's edits start at 0, so
# every agent's first recount counts its sizes.
_UNCOUNTED = (-1, 0, 0, 0, 0)


class PopulationMonitor:
    """Running totals behind the series, recounted only where play happened.

    A game changes no agent but its speaker and hearer, so `observe` marks
    those two stale, and `compute_series_point` recounts the stale agents
    alone, moving each total by the difference between an agent's new and
    old counts. Per agent, `counted` keeps what it last counted; over the
    population, the totals of ontology sizes, inventory sizes and (in
    `_RATIO_UNIT`s) the two form/meaning ratios, the number of agents
    holding any construction, and `holders`, which maps each form alive to
    the number of agents holding it. `counts` holds the last point's five
    population values.

    Most games change no count, since a score update moves no series field.
    Neither an ontology's size nor an inventory's `edits` (constructions
    added or pruned) ever falls, so their sum, the agent's version, moves
    exactly when either does. A recount skips an agent whose version has
    not moved, and a point derives the five values again only when some
    version moved. At pop 5 about one recount in fifteen moves a version,
    at pop 50 about three in ten.

    `holders` is counted whole when the monitor is made, which clears every
    inventory's `form_changes`, and is moved from then on by those notes,
    which a recount applies and clears. So a recount costs the forms that
    changed, not the forms held, and a monitor made over a population that
    has already played counts it exactly; but two monitors side by side
    would each miss the notes the other cleared.

    `observe` also keeps the outcomes of the last `window` games and a
    running count of their successes, so no point rescans a record.
    """

    def __init__(self, population: Sequence["Agent"], window: int) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self._recent: deque[bool] = deque(maxlen=window)
        self._successes = 0
        self._agents = {agent.agent_id: agent for agent in population}
        self._stale = set(self._agents)
        # agent id -> (version, ontology size, inventory size,
        # forms-per-meaning units, meanings-per-form units) as last counted.
        self.counted = dict.fromkeys(self._agents, _UNCOUNTED)
        self.ontology_total = 0
        self.inventory_total = 0
        # Agents holding at least one construction: the ratios' count.
        self.ratio_agents = 0
        self.forms_per_meaning_units = 0
        self.meanings_per_form_units = 0
        self.holders: dict[str, int] = {}
        for agent in population:
            inventory = agent.inventory
            for form in inventory.by_form:
                self.holders[form] = self.holders.get(form, 0) + 1
            inventory.form_changes.clear()
        # The values of a population no agent of which holds anything.
        self.counts: tuple = (0.0, 0.0, 0, 0.0, 0.0)

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


def compute_series_point(monitor: PopulationMonitor, at: int) -> SeriesPoint:
    """Every monitored value at interaction `at`, after recounting the stale
    agents (see `PopulationMonitor`). The windowed success is the fraction
    of successes among the last min(window, games observed) games."""
    counted = monitor.counted
    agents = monitor._agents
    moved = False
    for agent_id in monitor._stale:
        agent = agents[agent_id]
        ontology_size = len(agent.ontology.prototypes)
        inventory = agent.inventory
        version = ontology_size + inventory.edits
        old = counted[agent_id]
        if old[0] == version:
            continue
        moved = True
        _, old_ontology_size, old_size, old_fpm, old_mpf = old
        size = inventory.size
        if size:
            # A whole float of units (see `_RATIO_UNIT`).
            fpm = int(size / len(inventory.by_category) * _RATIO_UNIT)
            mpf = int(size / len(inventory.by_form) * _RATIO_UNIT)
        else:
            fpm = mpf = 0
        counted[agent_id] = (version, ontology_size, size, fpm, mpf)
        monitor.ontology_total += ontology_size - old_ontology_size
        monitor.inventory_total += size - old_size
        monitor.ratio_agents += (size > 0) - (old_size > 0)
        monitor.forms_per_meaning_units += fpm - old_fpm
        monitor.meanings_per_form_units += mpf - old_mpf
        holders = monitor.holders
        changes = inventory.form_changes
        for form, change in changes.items():
            count = holders.get(form, 0) + change
            if count:
                holders[form] = count
            else:
                del holders[form]
        changes.clear()
    monitor._stale.clear()
    if moved:
        population = len(counted)
        ratio_agents = monitor.ratio_agents
        # units * 2**-52 is fsum of the ratios (see `_RATIO_UNIT`).
        if ratio_agents:
            forms_per_meaning = (
                monitor.forms_per_meaning_units * _UNIT_VALUE / ratio_agents
            )
            meanings_per_form = (
                monitor.meanings_per_form_units * _UNIT_VALUE / ratio_agents
            )
        else:
            forms_per_meaning = meanings_per_form = 0.0
        monitor.counts = (
            monitor.ontology_total / population,
            monitor.inventory_total / population,
            len(monitor.holders),
            forms_per_meaning,
            meanings_per_form,
        )
    games = len(monitor._recent)
    success = monitor._successes / games if games else 0.0
    return _new_tuple(SeriesPoint, (at, success, *monitor.counts))


def take_snapshot(agent: "Agent", at: int) -> LexiconSnapshot:
    """Copy an agent's categories with their scored forms at interaction `at`.

    Later mutation of the agent leaves the snapshot untouched.
    """
    by_category = agent.inventory.by_category
    entries = []
    # Categories are listed in id order, which is their creation order.
    for category_id, prototype in enumerate(agent.ontology.prototypes, 1):
        forms = [
            {"form": c.form, "score": c.score}
            for c in by_category.get(category_id, ())
        ]
        forms.sort(key=lambda f: (-f["score"], f["form"]))
        entries.append(
            {
                "category_id": category_id,
                "prototype": list(prototype),
                "forms": forms,
            }
        )
    return LexiconSnapshot(
        interaction_number=at, agent_id=agent.agent_id, entries=tuple(entries)
    )


# A CSV row's text after its interaction number, `%d`: series.csv's from a
# point's other values, aggregate.csv's from a row's other values, and a
# one-run aggregate.csv's from a point's other values with zero deviations.
_SERIES_TAIL = ",%.6f,%.6f,%.6f,%d,%.6f,%.6f\n"
_AGGREGATE_TAIL = ",%.6f" * 2 * len(SERIES_FIELDS) + "\n"
_ONE_RUN_TAIL = ",%.6f,0.000000" * len(SERIES_FIELDS) + "\n"
# A row's values after its interaction number.
_REST = operator.itemgetter(slice(1, None))


def _write_rows(fh, rows: Iterable[Sequence], tail: str) -> None:
    """Write each row as its interaction number through `%d`, then `tail`
    formatted with the rest of its values.

    Consecutive rows often repeat every value but the interaction (80% of
    the rows of the default 20-run ensemble, 43% at pop 50), so the rest is
    formatted once for each stretch of rows that repeat it: the values a
    run makes (`SeriesPoint`) print alike when ==. Lines are written one at
    a time, and no text outlives its stretch or grows with the file.
    """
    write = fh.write
    for values, stretch in groupby(rows, _REST):
        # Formatted numbers hold no %, so the text is a format of its own.
        line = "%d" + tail % values
        for row in stretch:
            write(line % row[0])


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
        fh.write(",".join(SERIES_HEADER) + "\n")
        _write_rows(fh, series, _SERIES_TAIL)

    json_path = out / SNAPSHOTS_JSON
    with json_path.open("w") as fh:
        write_snapshots_json(snapshots, fh)

    html_path = out / SNAPSHOTS_HTML
    html_path.write_text(render_snapshots_html(snapshots))
    return [series_path, json_path, html_path]


# A string as json.dump's default ensure_ascii=True writes it, quotes included.
_json_string = json.encoder.encode_basestring_ascii
# How json spells the floats it has no literal for.
_NON_FINITE = {math.inf: "Infinity", -math.inf: "-Infinity"}


def _json_number(value: float) -> str:
    """A float, int or bool as `json.dumps` spells it."""
    if isinstance(value, float):
        if value != value:
            return "NaN"
        return _NON_FINITE.get(value) or float.__repr__(value)
    if value is True or value is False:
        return "true" if value else "false"
    return int.__repr__(value)


def _json_list(items: list[str], indent: str) -> str:
    """A list of already encoded items laid out as `json.dump(indent=2)`
    does, where `indent` is the indent of the line that opens it."""
    if not items:
        return "[]"
    inner = "\n  " + indent
    return "[" + inner + ("," + inner).join(items) + "\n" + indent + "]"


# The objects of take_snapshot's schema at their depth in snapshots.json,
# keys sorted: one form, one entry, one snapshot.
_FORM_JSON = '{\n            "form": %s,\n            "score": %s\n          }'
_ENTRY_JSON = (
    '{\n        "category_id": %s,\n        "forms": %s,'
    '\n        "prototype": %s\n      }'
)
_SNAPSHOT_JSON = (
    '  {\n    "agent_id": %s,\n    "entries": %s,'
    '\n    "interaction_number": %s\n  }'
)


def _entry_json(entry: dict) -> str:
    forms = [
        _FORM_JSON % (_json_string(f["form"]), _json_number(f["score"]))
        for f in entry["forms"]
    ]
    prototype = list(map(_json_number, entry["prototype"]))
    return _ENTRY_JSON % (
        _json_number(entry["category_id"]),
        _json_list(forms, "        "),
        _json_list(prototype, "        "),
    )


def write_snapshots_json(snapshots: Sequence[LexiconSnapshot], fh) -> None:
    """Write `snapshots` to the text file `fh` as snapshots.json: exactly
    the text `json.dump(..., indent=2, sort_keys=True)` plus a newline
    writes for them, one snapshot at a time."""
    if not snapshots:
        fh.write("[]\n")
        return
    opening = "[\n"
    for s in snapshots:
        entries = [_entry_json(entry) for entry in s.entries]
        fh.write(
            opening
            + _SNAPSHOT_JSON
            % (
                _json_number(s.agent_id),
                _json_list(entries, "    "),
                _json_number(s.interaction_number),
            )
        )
        opening = ",\n"
    fh.write("\n]\n")


# Each character `html.escape(s, quote=True)` replaces, and what with.
_HTML_ESCAPES = str.maketrans(
    {"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;", "'": "&#x27;"}
)


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
                f"{f['form'].translate(_HTML_ESCAPES)} ({f['score']:.2f})"
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


# Bits kept in the radicand of `_deviation`'s integer square root: the root
# then carries at least 53 + 2 bits, enough for rounding to odd and then to
# nearest to round correctly.
_RADICAND_BITS = 2 * sys.float_info.mant_dig + 3


def _deviation(n: int, total: int, squares: int, shift: int) -> float:
    """The sample standard deviation of n >= 2 values from the exact sums of
    the values and of their squares, as integers over 2**shift and 4**shift:
    the correctly rounded root of the exact sample variance, as
    `statistics.stdev` returns it from CPython 3.11 on. The root is taken
    with `math.isqrt` on the variance scaled by a power of 4 to at least
    `_RADICAND_BITS` bits, rounded to odd (a sticky bit for an inexact
    root), and made a float by one correctly rounded division. Any shift
    that makes every value an integer gives the same float: a finer one
    scales the radicand by a power of 4 and the root's exponent to match.
    """
    num = n * squares - total * total
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


AGGREGATE_HEADER = ("interaction",) + tuple(
    f"{field}_{stat}" for field in SERIES_FIELDS for stat in ("mean", "std")
)


class _RunSums:
    """Runs' values folded into exact integer sums, field by field, so no
    order in which the runs arrive can move a result.

    Every value a run makes (`SeriesPoint`) is a dyadic rational, so a
    field's values are integers i over one denominator 2**shift, the finest
    any of its values has needed so far; a value that needs a finer one
    shifts the field's sums left. Per row, `totals` sums i and `squares`
    i*i over the runs. Each is a difference array: a row's entry is its sum
    minus the previous row's. So a run adds to a row only where its value
    is != its value at the row before (in the default 20-run ensemble at
    seeds 0-19, 62% of the 6,000 columns repeat the row before); == values,
    an int and the equal float included, are the same integer.
    """

    def __init__(self, length: int) -> None:
        fields = range(len(SERIES_FIELDS))
        self.runs = 0
        self.shifts = [0 for _ in fields]
        self.totals = [[0] * length for _ in fields]
        self.squares = [[0] * length for _ in fields]

    def add(self, columns: Sequence[Sequence[float]]) -> None:
        """Fold one run, given as one column of values per field."""
        self.runs += 1
        for field, column in enumerate(columns):
            # Row 0 moves from nothing; after it, the rows whose value moved.
            rows = [0, *compress(count(1), map(operator.ne, column[1:], column))]
            ratios = [column[k].as_integer_ratio() for k in rows]
            finer = max([den for _, den in ratios]).bit_length() - 1
            if finer > self.shifts[field]:
                self._refine(field, finer - self.shifts[field])
            shift = self.shifts[field]
            totals, squares = self.totals[field], self.squares[field]
            old = old_square = 0
            for k, (num, den) in zip(rows, ratios):
                i = num << shift + 1 - den.bit_length()
                square = i * i
                totals[k] += i - old
                squares[k] += square - old_square
                old, old_square = i, square

    def _refine(self, field: int, bits: int) -> None:
        """Put a field's sums over a denominator 2**bits times finer."""
        self.shifts[field] += bits
        self.totals[field][:] = [t << bits for t in self.totals[field]]
        self.squares[field][:] = [q << 2 * bits for q in self.squares[field]]

    def _stats(self, field: int) -> Iterator[tuple[float, float]]:
        """A field's (mean, deviation), row by row, summing down the rows;
        a row whose sums did not move keeps the previous row's pair."""
        n, shift = self.runs, self.shifts[field]
        unit = 1 << shift
        total = square = 0
        stats = None
        for d_total, d_square in zip(self.totals[field], self.squares[field]):
            if d_total or d_square or stats is None:
                total += d_total
                square += d_square
                # The exact sum rounded once, as math.fsum returns it; over
                # n, fsum's mean.
                stats = (
                    total / unit / n,
                    _deviation(n, total, square, shift) if n > 1 else 0.0,
                )
            yield stats

    def rows(self, interactions: Sequence[int]) -> Iterator[tuple]:
        """The aggregate rows over the interaction numbers, one at a time."""
        columns = [self._stats(field) for field in range(len(SERIES_FIELDS))]
        for interaction, *stats in zip(interactions, *columns):
            yield (interaction, *chain.from_iterable(stats))


def aggregate_runs(
    series_per_run: Iterable[Sequence[SeriesPoint]],
) -> Iterator[tuple]:
    """Per-interaction mean and sample standard deviation across runs.

    Each row is a tuple in `AGGREGATE_HEADER`'s order. The runs may be any
    iterable, such as one that yields each run as it ends: the call reads
    them all, folds each into exact sums (`_RunSums`) as it arrives, and
    keeps none, so its memory does not grow with the runs. All runs must
    share the same interaction grid; that is checked over every run at the
    call, before any row is produced. The rows themselves are produced
    lazily, one per step of the returned iterator.
    """
    runs = 0
    lengths = set()
    grid = sums = None
    # Grids that differ from the first run's; an error, told once every
    # run has been read.
    strays = []
    for series in series_per_run:
        runs += 1
        lengths.add(len(series))
        if len(lengths) > 1 or not series:
            continue
        interactions, *columns = zip(*series)
        if sums is None:
            grid, sums = interactions, _RunSums(len(interactions))
        if interactions != grid:
            strays.append(interactions)
        elif not strays:
            sums.add(columns)
    if not runs:
        raise ConfigurationError("nothing to aggregate: no runs given")
    if len(lengths) != 1:
        raise ConfigurationError(
            f"runs disagree on series length: {sorted(lengths)}"
        )
    if strays:
        at = min(list(map(operator.ne, grid, stray)).index(True) for stray in strays)
        interactions = {grid[at], *(stray[at] for stray in strays)}
        raise ConfigurationError(
            f"runs disagree on interaction numbering at row {at}: "
            f"{sorted(interactions)}"
        )
    if sums is None:  # runs without rows
        return iter(())
    return sums.rows(grid)


def export_aggregate(
    series_per_run: Iterable[Sequence[SeriesPoint]], out_dir: str | Path
) -> Path:
    """Write the runs' aggregated series as aggregate.csv in `out_dir`: any
    number of runs but one row by row from `aggregate_runs`, which reads and
    checks every run before any write. A single run aggregates to itself
    with zero deviation, each value as `fsum([v]) / 1` spells it, which for
    the values a run makes (`SeriesPoint`) prints as `v`. The fold gives
    exactly that at several times the cost, so one run is written straight
    from its points, the deviations as the literal text 0.000000.
    """
    runs = iter(series_per_run)
    head = list(islice(runs, 2))
    one_run = len(head) == 1
    rows = head[0] if one_run else chain(iter(head), runs)
    # The list's iterator lets go of the list once it is past both runs, so
    # no run outlives its fold once this name is gone.
    del head
    if not one_run:
        rows = aggregate_runs(rows)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / AGGREGATE_CSV
    with path.open("w", newline="") as fh:
        fh.write(",".join(AGGREGATE_HEADER) + "\n")
        _write_rows(fh, rows, _ONE_RUN_TAIL if one_run else _AGGREGATE_TAIL)
    return path
