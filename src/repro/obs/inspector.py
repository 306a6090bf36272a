"""Offline inspection of telemetry streams — ``repro trace summary|compare|diff``.

Rebuilds the span tree from a JSONL telemetry file (spans are emitted on
*close*, children before parents, each carrying its parent id) and renders

* a **span tree** with sibling spans of the same name collapsed into one
  row (``bl/round ×41``) carrying count / wall / CPU / PRAM rollups,
* a flat **per-phase rollup table** including the resource attribution
  (CPU time, GC pauses, allocation peaks) captured by the tracer, and
* **sparklines** of per-round wall-times (via
  :mod:`repro.analysis.sparkline`) so hot rounds are visible at a glance.

``compare`` renders two streams side by side with wall-time deltas; the
structural ``diff`` (:func:`render_diff`) goes further for regression
forensics: span groups are keyed by their *path* in the tree
(``sbl/solve>bl/solve>bl/round``), so the same span name in different
phases stays separate, and groups are ranked by wall/CPU delta — the top
row names the culprit phase of a perf regression.

Loading is tolerant of damaged streams (the truncated last line a crashed
worker leaves behind): bad lines are skipped and counted, and the
renderers surface the count instead of refusing the whole file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Union

from repro.analysis.sparkline import trajectory
from repro.analysis.tables import render_table
from repro.obs.events import read_events

__all__ = [
    "SpanNode",
    "TraceDoc",
    "TraceError",
    "load_trace",
    "render_summary",
    "render_compare",
    "render_diff",
]


class TraceError(ValueError):
    """A trace operation cannot produce a meaningful result (clean CLI error)."""


@dataclass
class SpanNode:
    """One span event, linked into the reconstructed tree."""

    span_id: int
    name: str
    wall_ns: int
    parent_id: int | None = None
    cpu_ns: int | None = None
    pram: dict[str, int] | None = None
    gc_pauses: dict[str, int] | None = None
    mem: dict[str, int] | None = None
    attrs: dict[str, Any] = field(default_factory=dict)
    children: list["SpanNode"] = field(default_factory=list)


@dataclass
class TraceDoc:
    """A parsed telemetry stream: run preamble, span forest, metric flushes."""

    run: dict[str, Any] | None
    spans: list[SpanNode]
    roots: list[SpanNode]
    metrics: dict[str, Any] | None
    profiles: list[dict[str, Any]] = field(default_factory=list)
    #: ``(lineno, reason)`` for every line skipped by the tolerant reader.
    skipped: list[tuple[int, str]] = field(default_factory=list)


def load_trace(path: Union[str, Path]) -> TraceDoc:
    """Parse a telemetry JSONL file and rebuild the span tree.

    Damaged lines (truncated JSON, unknown versions) are skipped and
    recorded in ``doc.skipped`` rather than raising — a crashed worker's
    partial flush should not make its own post-mortem unreadable.
    """
    run: dict[str, Any] | None = None
    metrics: dict[str, Any] | None = None
    spans: list[SpanNode] = []
    profiles: list[dict[str, Any]] = []
    skipped: list[tuple[int, str]] = []
    events = read_events(
        path, errors="skip", on_bad_line=lambda n, why: skipped.append((n, why))
    )
    for event in events:
        kind = event.get("type")
        if kind == "span":
            spans.append(
                SpanNode(
                    span_id=event["id"],
                    name=event["name"],
                    wall_ns=event["wall_ns"],
                    parent_id=event.get("parent"),
                    cpu_ns=event.get("cpu_ns"),
                    pram=event.get("pram"),
                    gc_pauses=event.get("gc"),
                    mem=event.get("mem"),
                    attrs=event.get("attrs", {}),
                )
            )
        elif kind == "run" and run is None:
            run = event
        elif kind == "metrics":
            metrics = event.get("metrics")  # last flush wins
        elif kind == "profile":
            profiles.append(event)
    by_id = {s.span_id: s for s in spans}
    roots: list[SpanNode] = []
    for s in spans:
        parent = by_id.get(s.parent_id) if s.parent_id is not None else None
        if parent is None:
            roots.append(s)
        else:
            parent.children.append(s)
    # Children accumulated in close order (deepest first); restore open order.
    for s in spans:
        s.children.sort(key=lambda c: c.span_id)
    roots.sort(key=lambda s: s.span_id)
    return TraceDoc(
        run=run, spans=spans, roots=roots, metrics=metrics,
        profiles=profiles, skipped=skipped,
    )


def _fmt_ms(ns: float) -> str:
    return f"{ns / 1e6:.3f}"


@dataclass
class _Group:
    """Same-named sibling spans merged into one tree row."""

    name: str
    spans: list[SpanNode]

    @property
    def count(self) -> int:
        return len(self.spans)

    @property
    def wall_ns(self) -> int:
        return sum(s.wall_ns for s in self.spans)

    @property
    def cpu_ns(self) -> int | None:
        cpus = [s.cpu_ns for s in self.spans if s.cpu_ns is not None]
        return sum(cpus) if cpus else None

    def pram_totals(self) -> tuple[int, int] | None:
        prams = [s.pram for s in self.spans if s.pram is not None]
        if not prams:
            return None
        return sum(p["depth"] for p in prams), sum(p["work"] for p in prams)

    def gc_totals(self) -> tuple[int, int] | None:
        pauses = [s.gc_pauses for s in self.spans if s.gc_pauses is not None]
        if not pauses:
            return None
        return sum(p["count"] for p in pauses), sum(p["pause_ns"] for p in pauses)

    def mem_peak(self) -> int | None:
        peaks = [s.mem["peak"] for s in self.spans if s.mem is not None]
        return max(peaks) if peaks else None


def _group_by_name(spans: list[SpanNode]) -> list[_Group]:
    order: dict[str, _Group] = {}
    for s in spans:
        g = order.get(s.name)
        if g is None:
            order[s.name] = _Group(s.name, [s])
        else:
            g.spans.append(s)
    return list(order.values())


def _render_tree(groups: list[_Group], lines: list[str], indent: int) -> None:
    for g in groups:
        pram = g.pram_totals()
        pram_txt = f"  depth {pram[0]}  work {pram[1]}" if pram else ""
        cpu = g.cpu_ns
        cpu_txt = f"  cpu {_fmt_ms(cpu)}" if cpu is not None else ""
        label = f"{'  ' * indent}{g.name}"
        lines.append(
            f"{label:<34} ×{g.count:<5} {_fmt_ms(g.wall_ns):>10} ms{cpu_txt}{pram_txt}"
        )
        _render_tree(
            _group_by_name([c for s in g.spans for c in s.children]), lines, indent + 1
        )


def _flat_rollup(spans: list[SpanNode]) -> list[_Group]:
    return _group_by_name(spans)


def _skip_warning(doc: TraceDoc) -> str | None:
    if not doc.skipped:
        return None
    first = doc.skipped[0]
    return (
        f"warning: skipped {len(doc.skipped)} unparseable line(s) "
        f"(first: line {first[0]}: {first[1]})"
    )


def render_summary(path: Union[str, Path], *, width: int = 60) -> str:
    """Human-readable summary of one telemetry stream."""
    doc = load_trace(path)
    lines: list[str] = []
    warn = _skip_warning(doc)
    if warn:
        lines.append(warn)
    if doc.run is not None:
        bits = [
            f"{k}={doc.run[k]}"
            for k in ("command", "algorithm", "instance", "seed", "n", "m")
            if k in doc.run
        ]
        lines.append(f"run: {'  '.join(bits)}")
    if not doc.spans:
        lines.append("no spans recorded")
        return "\n".join(lines)

    lines.append("")
    lines.append("span tree (siblings collapsed by name):")
    _render_tree(_group_by_name(doc.roots), lines, 1)

    rollup = _flat_rollup(doc.spans)
    has_gc = any(g.gc_totals() for g in rollup)
    has_mem = any(g.mem_peak() is not None for g in rollup)
    headers = ["span", "count", "total ms", "cpu ms", "mean ms", "pram depth", "pram work"]
    if has_gc:
        headers.append("gc ms")
    if has_mem:
        headers.append("peak KiB")
    rows = []
    for g in sorted(rollup, key=lambda g: -g.wall_ns):
        pram = g.pram_totals()
        cpu = g.cpu_ns
        row = [
            g.name,
            g.count,
            _fmt_ms(g.wall_ns),
            _fmt_ms(cpu) if cpu is not None else "—",
            _fmt_ms(g.wall_ns / g.count),
            pram[0] if pram else "—",
            pram[1] if pram else "—",
        ]
        if has_gc:
            gc = g.gc_totals()
            row.append(_fmt_ms(gc[1]) if gc else "—")
        if has_mem:
            peak = g.mem_peak()
            row.append(f"{peak / 1024:.1f}" if peak is not None else "—")
        rows.append(row)
    lines.append("")
    lines.append(render_table(headers, rows, title="per-phase rollup"))

    spark_rows = [
        trajectory(g.name, [s.wall_ns / 1e6 for s in g.spans], width=width)
        for g in rollup
        if g.count >= 2
    ]
    if spark_rows:
        lines.append("")
        lines.append("per-span wall-time trajectories (ms):")
        lines.extend(spark_rows)

    if doc.profiles:
        n = sum(p.get("samples", 0) for p in doc.profiles)
        lines.append("")
        lines.append(
            f"{len(doc.profiles)} profile event(s), {n} samples — "
            f"render with 'repro trace flame'"
        )

    if doc.metrics:
        counters = doc.metrics.get("counters", {})
        shape: dict[tuple[str, str], Any] = {}
        for key, value in counters.items():
            if key.startswith("kernels/dispatch_shape/"):
                _, bucket, backend = key.rsplit("/", 2)
                shape[(bucket, backend)] = value
        if shape:
            lines.append("")
            lines.append(
                render_table(
                    ["shape bucket", "backend", "decisions"],
                    [[b, be, v] for (b, be), v in sorted(shape.items())],
                    title="kernel dispatch (backend x shape bucket)",
                )
            )
        repair: dict[tuple[str, str], Any] = {}
        for key, value in counters.items():
            if key.startswith("dynamic/decision/"):
                _, cell, strategy = key.rsplit("/", 2)
                repair[(cell, strategy)] = value
        if repair:
            # Repair-vs-recompute provenance: which delta band each
            # decision landed in.
            lines.append("")
            lines.append(
                render_table(
                    ["shape:delta band", "strategy", "decisions"],
                    [[c, s, v] for (c, s), v in sorted(repair.items())],
                    title="repair decisions (strategy x shape:delta band)",
                )
            )
        if counters:
            lines.append("")
            lines.append(
                render_table(
                    ["counter", "value"],
                    [[k, v] for k, v in counters.items()],
                    title="counters",
                )
            )
    return "\n".join(lines)


def render_compare(path_a: Union[str, Path], path_b: Union[str, Path]) -> str:
    """Side-by-side per-phase wall-time comparison of two telemetry streams.

    Raises :class:`TraceError` when the two streams share no span names —
    comparing disjoint traces produces only noise, and the CLI turns this
    into a clean nonzero exit instead of a misleading table.
    """
    a = {g.name: g for g in _flat_rollup(load_trace(path_a).spans)}
    b = {g.name: g for g in _flat_rollup(load_trace(path_b).spans)}
    if not set(a) & set(b):
        raise TraceError(
            f"traces share no span names (A has {sorted(a) or 'none'}, "
            f"B has {sorted(b) or 'none'}) — nothing comparable"
        )
    names = sorted(set(a) | set(b), key=lambda n: -(a[n].wall_ns if n in a else 0))
    rows = []
    for name in names:
        ga, gb = a.get(name), b.get(name)
        wa = ga.wall_ns if ga else 0
        wb = gb.wall_ns if gb else 0
        delta = f"{(wb - wa) / wa * 100:+.1f}%" if wa else "—"
        rows.append(
            [
                name,
                ga.count if ga else 0,
                gb.count if gb else 0,
                _fmt_ms(wa),
                _fmt_ms(wb),
                delta,
            ]
        )
    return render_table(
        ["span", "count A", "count B", "ms A", "ms B", "Δ wall"],
        rows,
        title=f"trace compare: A={path_a}  B={path_b}",
    )


# ---------------------------------------------------------------------------
# structural diff (regression forensics)
# ---------------------------------------------------------------------------
def _path_groups(roots: list[SpanNode]) -> dict[str, dict[str, Any]]:
    """Aggregate spans by tree path (``parent>child>…``, names collapsed).

    ``self_ns`` is the group's wall time exclusive of its children — the
    ranking metric for the diff, since inclusive deltas propagate to every
    ancestor and would let the root eclipse the actual culprit phase.
    """
    acc: dict[str, dict[str, Any]] = {}

    def walk(nodes: list[SpanNode], prefix: str) -> None:
        for g in _group_by_name(nodes):
            path = f"{prefix}>{g.name}" if prefix else g.name
            entry = acc.setdefault(
                path, {"count": 0, "wall_ns": 0, "self_ns": 0, "cpu_ns": 0}
            )
            children = [c for s in g.spans for c in s.children]
            entry["count"] += g.count
            entry["wall_ns"] += g.wall_ns
            entry["self_ns"] += g.wall_ns - sum(c.wall_ns for c in children)
            entry["cpu_ns"] += g.cpu_ns or 0
            walk(children, path)

    walk(roots, "")
    return acc


def render_diff(
    path_a: Union[str, Path], path_b: Union[str, Path], *, top: int = 0
) -> str:
    """Structural span-tree diff of two traces, ranked by self-time delta.

    Span groups are keyed by their full path in the tree, so ``bl/round``
    under ``sbl/outer_round`` and ``bl/round`` under a direct ``bl/solve``
    are distinct rows.  Rows sort by Δself (wall time exclusive of
    children) descending — the top row is the phase that itself regressed
    hardest from A to B, not merely an ancestor of one (negative deltas
    are improvements).  Groups present on only one side count the other
    side as zero.  ``top`` limits the table to the N largest absolute
    deltas.

    Raises :class:`TraceError` when the traces share no span paths.
    """
    doc_a, doc_b = load_trace(path_a), load_trace(path_b)
    ga, gb = _path_groups(doc_a.roots), _path_groups(doc_b.roots)
    if not set(ga) & set(gb):
        raise TraceError(
            "traces share no span paths — the runs have disjoint structure; "
            "use 'trace summary' on each instead"
        )

    def dself(p: str) -> int:
        return gb.get(p, {}).get("self_ns", 0) - ga.get(p, {}).get("self_ns", 0)

    paths = sorted(set(ga) | set(gb), key=lambda p: -dself(p))
    if top > 0:
        paths = sorted(paths, key=lambda p: -abs(dself(p)))[:top]
        paths = sorted(paths, key=lambda p: -dself(p))
    rows = []
    empty = {"count": 0, "wall_ns": 0, "self_ns": 0, "cpu_ns": 0}
    for path in paths:
        ea = ga.get(path, empty)
        eb = gb.get(path, empty)
        dwall = eb["wall_ns"] - ea["wall_ns"]
        dcpu = eb["cpu_ns"] - ea["cpu_ns"]
        ratio = f"{eb['wall_ns'] / ea['wall_ns']:.2f}x" if ea["wall_ns"] else "new"
        rows.append(
            [
                path,
                f"{ea['count']}→{eb['count']}",
                _fmt_ms(ea["wall_ns"]),
                _fmt_ms(eb["wall_ns"]),
                f"{dwall / 1e6:+.3f}",
                f"{dself(path) / 1e6:+.3f}",
                f"{dcpu / 1e6:+.3f}",
                ratio,
            ]
        )
    title = f"trace diff (ranked by Δself): A={path_a}  B={path_b}"
    table = render_table(
        ["span path", "count", "ms A", "ms B", "Δwall ms", "Δself ms", "Δcpu ms", "ratio"],
        rows,
        title=title,
    )
    lines = [table]
    for doc, label in ((doc_a, "A"), (doc_b, "B")):
        warn = _skip_warning(doc)
        if warn:
            lines.append(f"[{label}] {warn}")
    return "\n".join(lines)
