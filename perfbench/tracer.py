"""Run one ``tdcode`` CLI command with the package's public functions traced.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``):

    python3 perfbench/tracer.py SPANS_JSON STAGE -- CLI_ARG...

Before the command runs, every public function of the layer modules
(``words``, ``enumeration``, ``ranking``, ``fse``, ``codec``, ``cli``) is
replaced by a wrapper in every module namespace that bound it, and public
methods are replaced on their class.  The CLI's stage commands and payload
framing helpers are wrapped as well.  A wrapper records one span
(name, start, end, parent, ok, size) in memory; the spans are written to
SPANS_JSON, tagged with STAGE, after the command returns.

Functions called once per symbol or per small count lookup are only
counted, so tracing overhead stays bounded; their time is charged to the
calling span.  ``tdcode.oracle`` is brute-force reference code and is not
traced.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter
from typing import Callable, Optional

LAYERS = ("words", "enumeration", "ranking", "fse", "codec", "cli")

# Private CLI functions traced because their cost is a layer of its own:
# the three stage commands (I/O, line parsing, rendering) and the framing.
CLI_PRIVATE = ("cli._cmd_encode", "cli._cmd_channel", "cli._cmd_decode", "cli._split_chunks",
               "cli._join_chunks")

# Dunder methods that are traced; every other dunder is left alone.
DUNDERS = ("fse.FseCodec.__init__", "words.Word.__post_init__")

# Counted, never spanned: called per symbol, per count lookup or per
# rendered strand.  Rendering stays in the CLI stage's self time.
COUNT_ONLY = (
    "enumeration.CountTable.count",
    "enumeration.count_irr",
    "enumeration.code_size",
    "words.Word.__post_init__",
    "words.Word.to_dna",
)


def _arg(args: tuple, kwargs: dict, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


# Work sizes attached to a span: a function of (args, kwargs, result).
SIZES: dict[str, Callable[[tuple, dict, object], list[int]]] = {
    "words.root": lambda a, kw, r: [len(_arg(a, kw, 0, "y")), len(r)],
    "words.random_descendant": lambda a, kw, r: [_arg(a, kw, 1, "t")],
    "ranking.unrank_irr": lambda a, kw, r: [len(r)],
    "ranking.rank_irr": lambda a, kw, r: [len(_arg(a, kw, 0, "x"))],
    "fse.FseCodec.encode": lambda a, kw, r: [len(_arg(a, kw, 1, "blocks"))],
    "fse.FseCodec.decode": lambda a, kw, r: [len(r)],
}


class Tracer:
    """In-memory span and call-count recorder."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[Optional[list]] = []
        self.counts: Counter[str] = Counter()
        self._stack = [-1]

    def span(self, name: str, fn: Callable) -> Callable:
        nid = len(self.names)
        self.names.append(name)
        size = SIZES.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            ok, result = False, None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                sized = size(args, kwargs, result) if size is not None and ok else None
                spans[idx] = [nid, start, end, parent, ok, sized]

        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def wrap(self, name: str, fn: Callable) -> Callable:
        if name in COUNT_ONLY or inspect.isgeneratorfunction(fn):
            return self.counter(name, fn)
        return self.span(name, fn)

    def dump(self, path: str, stage: str) -> None:
        doc = {"stage": stage, "names": self.names, "spans": self.spans, "counts": self.counts}
        with open(path, "w", encoding="ascii") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _is_traced(name: str) -> bool:
    """Whether `layer.function` or `layer.Class.method` gets a wrapper."""
    attr = name.rsplit(".", 1)[1]
    if attr.startswith("__"):
        return name in DUNDERS
    return not attr.startswith("_") or name in CLI_PRIVATE


def install(tracer: Tracer) -> None:
    """Wrap the layer modules' functions and methods in place."""
    import tdcode

    modules = {layer: importlib.import_module(f"tdcode.{layer}") for layer in LAYERS}
    wrapped: dict[int, Callable] = {}  # id(original function) -> wrapper
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) and _is_traced(f"{layer}.{attr}"):
                wrapped[id(obj)] = tracer.wrap(f"{layer}.{attr}", obj)
            elif inspect.isclass(obj) and not attr.startswith("_"):
                for meth, member in list(vars(obj).items()):
                    name = f"{layer}.{attr}.{meth}"
                    if not _is_traced(name):
                        continue
                    if inspect.isfunction(member):
                        setattr(obj, meth, tracer.wrap(name, member))
                    elif isinstance(member, classmethod):
                        setattr(obj, meth, classmethod(tracer.wrap(name, member.__func__)))
    # Rebind every name that refers to a wrapped function, in the package
    # namespace and in each module that imported it.
    for mod in (tdcode, *modules.values()):
        for attr, obj in list(vars(mod).items()):
            replacement = wrapped.get(id(obj))
            if replacement is not None:
                setattr(mod, attr, replacement)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py SPANS_JSON STAGE -- CLI_ARG...", file=sys.stderr)
        return 2
    spans_path, stage, cli_args = argv[0], argv[1], argv[3:]
    tracer = Tracer()
    install(tracer)
    from tdcode import cli

    code = cli.main(cli_args)
    tracer.dump(spans_path, stage)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
