"""Per-layer metrics from the spans that ``tracer.py`` writes.

Traced function names are folded into layer groups (``GROUPS``); a group's
self time is the time its spans ran minus the time of their direct child
spans, and its calls are the spans entered from outside the group.
"""

from __future__ import annotations

import statistics
from collections import Counter
from dataclasses import dataclass, field

STAGES = ("encode", "channel", "decode")

# Traced name -> layer group.  Names not listed are a group of their own.
GROUPS = {
    "words.Word.from_dna": "words.parse",
    "words.Word.from_string": "words.parse",
    "words.find_tandem_repeat": "words.is_irreducible",
    "ranking.unrank_irr": "ranking.unrank",
    "ranking.unrank_irr_with_cost": "ranking.unrank",
    "ranking.rank_irr": "ranking.rank",
    "ranking.rank_irr_with_cost": "ranking.rank",
    "fse.FseCodec.__init__": "fse.init",
    "fse.FseCodec.encode": "fse.encode",
    "fse.FseCodec.decode": "fse.decode",
    "cli._cmd_encode": "cli.encode",
    "cli._cmd_channel": "cli.channel",
    "cli._cmd_decode": "cli.decode",
    "cli._split_chunks": "cli.split_chunks",
    "cli._join_chunks": "cli.join_chunks",
}

# Counted functions -> counter group.
COUNT_GROUPS = {
    "enumeration.CountTable.count": "enumeration.count",
    "enumeration.count_irr": "enumeration.count",
    "enumeration.code_size": "enumeration.count",
    "words.Word.__post_init__": "words.word_new",
}

# Groups whose span durations are kept for percentiles.
KEEP_DURATIONS = ("codec.decode_codeword",)


@dataclass
class Group:
    calls: int = 0
    self_ns: int = 0
    failed: int = 0
    sizes: list[int] = field(default_factory=list)
    durations_ns: list[int] = field(default_factory=list)

    def add(self, other: "Group") -> None:
        self.calls += other.calls
        self.self_ns += other.self_ns
        self.failed += other.failed
        self.sizes = _add_sizes(self.sizes, other.sizes)
        self.durations_ns += other.durations_ns


def _add_sizes(a: list[int], b: list[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    return [x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)]


def stage_groups(doc: dict) -> tuple[dict[str, Group], Counter]:
    """Fold one stage's spans into groups; return them with the call counts."""
    names = [GROUPS.get(n, n) for n in doc["names"]]
    spans = doc["spans"]
    child_ns = [0] * len(spans)
    for _nid, start, end, parent, _ok, _size in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    groups: dict[str, Group] = {}
    for i, (nid, start, end, parent, ok, size) in enumerate(spans):
        name = names[nid]
        g = groups.setdefault(name, Group())
        g.self_ns += end - start - child_ns[i]
        if parent >= 0 and names[spans[parent][0]] == name:
            continue
        g.calls += 1
        g.failed += not ok
        if size:
            g.sizes = _add_sizes(g.sizes, size)
        if name in KEEP_DURATIONS:
            g.durations_ns.append(end - start)
    counts: Counter = Counter()
    for name, n in doc["counts"].items():
        counts[COUNT_GROUPS.get(name, name)] += n
    return groups, counts


def _pct_us(durations_ns: list[int], pct: int) -> float:
    if len(durations_ns) < 2:
        return durations_ns[0] / 1e3 if durations_ns else 0.0
    return statistics.quantiles(durations_ns, n=100)[pct - 1] / 1e3


def layer_metrics(
    stage_docs: list[dict], overhead: dict[str, float]
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of one traced round, as name -> (value, unit)."""
    groups: dict[str, Group] = {}
    counts: Counter = Counter()
    for doc in stage_docs:
        got, cnt = stage_groups(doc)
        for name, g in got.items():
            groups.setdefault(name, Group()).add(g)
        counts.update(cnt)
    out: dict[str, tuple[float, str]] = {}

    def g(name: str) -> Group:
        return groups.get(name, Group())

    def size(name: str, i: int) -> int:
        sizes = g(name).sizes
        return sizes[i] if len(sizes) > i else 0

    def calls(*names: str) -> None:
        for name in names:
            out[f"{name}.calls"] = (g(name).calls, "count")

    def self_s(*names: str) -> None:
        for name in names:
            out[f"{name}.self_s"] = (g(name).self_ns / 1e9, "s")

    def per_symbol(name: str, symbols: int) -> None:
        out[f"{name}.ns_per_symbol"] = (g(name).self_ns / symbols if symbols else 0.0, "ns/symbol")

    root_in = size("words.root", 0)
    calls("words.root")
    self_s("words.root")
    out["words.root.in_symbols"] = (root_in, "count")
    out["words.root.stripped_symbols"] = (root_in - size("words.root", 1), "count")
    per_symbol("words.root", root_in)
    calls("words.parse")
    self_s("words.parse")
    out["words.word_new.count"] = (counts["words.word_new"], "count")
    calls("words.random_descendant")
    self_s("words.random_descendant")
    out["words.random_descendant.dups"] = (size("words.random_descendant", 0), "count")
    calls("words.is_irreducible")
    self_s("words.is_irreducible")
    for name in ("ranking.unrank", "ranking.rank"):
        calls(name)
        self_s(name)
        out[f"{name}.symbols"] = (size(name, 0), "count")
        per_symbol(name, size(name, 0))
    out["enumeration.count.calls"] = (counts["enumeration.count"], "count")
    calls("enumeration.kth_extension")
    self_s("enumeration.kth_extension")
    calls("enumeration.extension_index")
    self_s("enumeration.extension_index")
    self_s("enumeration.choose_params", "fse.init", "fse.encode", "fse.decode")
    out["fse.blocks"] = (size("fse.encode", 0) + size("fse.decode", 0), "count")
    calls("codec.encode_codeword")
    self_s("codec.encode_codeword")
    decode = g("codec.decode_codeword")
    calls("codec.decode_codeword")
    self_s("codec.decode_codeword")
    out["codec.decode_codeword.p50_us"] = (_pct_us(decode.durations_ns, 50), "us")
    out["codec.decode_codeword.p99_us"] = (_pct_us(decode.durations_ns, 99), "us")
    out["codec.decode_codeword.failed"] = (decode.failed, "count")
    self_s(*(f"cli.{stage}" for stage in STAGES), "cli.split_chunks", "cli.join_chunks")
    for stage in STAGES:
        out[f"trace.overhead_frac.{stage}"] = (overhead[stage], "ratio")
    return out


def top_self_times(doc: dict, limit: int) -> list[tuple[str, float]]:
    """The groups with the largest self time in one stage, in seconds."""
    groups, _ = stage_groups(doc)
    ranked = sorted(groups.items(), key=lambda item: item[1].self_ns, reverse=True)
    return [(name, grp.self_ns / 1e9) for name, grp in ranked[:limit]]
