"""tdcode benchmark: encode, channel and decode through the CLI.

Run from the repository root:

    python3 perfbench/run.py --workload code-short --seed 1 --seconds 40 --trace 0

Each stage runs as its own ``python -m tdcode.cli`` child process, one at
a time, exactly as a user would run it.  Every output is checked.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
each stage runs once plain and once under ``tracer.py``, and the run
reports per-layer metrics.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  See README.md beside this file for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import layers

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# A run must end well inside three minutes; a child still running at this
# point is killed and its stage counts as failed.
HARD_LIMIT_S = 170.0

# Timings are scaled to a host on which the reference probe's 10th-percentile
# time is REFERENCE_S: about what it is on the 2-vCPU Xeon guest where the
# benchmark was defined, so that there the scaled figures are near the raw ones.
REFERENCE_S = 0.0125


@dataclass(frozen=True)
class Workload:
    name: str
    flags: tuple[str, ...]  # tdcode encode flags
    payload_bytes: int
    dups: int  # duplications per strand, in channel and in the decode input


# Payloads keep one stage invocation near 0.2-1.2 s on a 2-vCPU Xeon guest,
# so that a run holds enough invocations of each stage for a steady 10th
# percentile.
WORKLOADS = {w.name: w for w in (
    Workload("code-short", ("--mode", "code", "-q", "4", "-k", "3", "-n", "32", "--dna"),
             30_000, 8),
    Workload("code-long", ("--mode", "code", "-q", "4", "-k", "2", "-n", "4000", "--dna"),
             25_000, 400),
    Workload("fse-long", ("--mode", "fse", "-q", "4", "-k", "3", "-e", "0.05", "--dna"),
             30_000, 6_000),
)}


OUTPUTS = {"setup": "setup.seq", "encode": "encoded.seq", "channel": "channel.seq",
           "decode": "decoded.bin"}


class CheckError(Exception):
    """A stage's output is wrong."""


def reference_probe() -> float:
    """Wall seconds of a fixed pure-Python loop, a sample of the host's speed.

    The loop mixes small and big integer arithmetic, dict stores, list
    indexing and string slicing; it is the same in every commit.
    """
    start = time.perf_counter()
    table, acc, big, mod = {}, 0, 3**400, 3**401
    items, text = list(range(64)), "ACGT" * 16
    for i in range(24_000):
        acc = (acc * 31 + items[i & 63]) & 0xFFFFFFFF
        table[i & 255] = acc
        big = (big * 7 + i) % mod
        text[i & 31:(i & 31) + 8]
    return time.perf_counter() - start


def make_payload(seed: int, size: int) -> bytes:
    return random.Random(f"perfbench-payload:{seed}").randbytes(size)


def duplicate(strands: list[str], t: int, k: int, seed: int) -> list[str]:
    """t random tandem duplications per strand, independent of tdcode.

    Each draws its length uniformly from 1..min(k, length) and its start
    uniformly over the valid positions; the copy goes right after the
    original block.
    """
    rng = random.Random(f"perfbench-dups:{seed}")
    out = []
    for s in strands:
        b = bytearray(s, "ascii")
        for _ in range(t):
            length = rng.randint(1, min(k, len(b)))
            pos = rng.randint(0, len(b) - length)
            b[pos + length:pos + length] = b[pos:pos + length]
        out.append(b.decode("ascii"))
    return out


def parse_stream(text: str) -> tuple[str, dict[str, str], list[str]]:
    """Header line, its key=value fields and the strand lines of a stream."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# tdcode "):
        raise CheckError("stream does not start with a '# tdcode' header")
    try:
        fields = dict(tok.split("=", 1) for tok in lines[0].split()[2:])
    except ValueError:
        raise CheckError(f"malformed header {lines[0]!r}") from None
    strands = [ln for ln in lines[1:] if ln]
    if any(ln.strip("ACGT") for ln in strands):
        raise CheckError("a strand holds a letter outside ACGT")
    return lines[0], fields, strands


def check_encoded(text: str, payload_bytes: int) -> tuple[str, int, list[str]]:
    """Check an encoded stream; return its header line, k and strands."""
    header, fields, strands = parse_stream(text)
    try:
        mode, chunk, k = fields["mode"], int(fields["chunk"]), int(fields["k"])
        size = int(fields["n"] if mode == "code" else fields["m"])
    except (KeyError, ValueError):
        raise CheckError(f"header {header!r} lacks mode, chunk, k, or n / m") from None
    chunks = -(-(64 + 8 * payload_bytes) // chunk) if payload_bytes else 0
    if mode == "code":
        if len(strands) != chunks:
            raise CheckError(f"{len(strands)} strands, expected {chunks}")
        bad = [i for i, s in enumerate(strands) if len(s) != size]
        if bad:
            raise CheckError(f"strand {bad[0]} has length {len(strands[bad[0]])}, not n={size}")
    else:
        expect = [size * chunks] if chunks else []
        if [len(s) for s in strands] != expect:
            raise CheckError(f"fse strand lengths {[len(s) for s in strands]}, expected {expect}")
    return header, k, strands


def check_channel(text: str, header: str, strands: list[str], t: int, k: int) -> None:
    got_header, _, got = parse_stream(text)
    if got_header != header:
        raise CheckError(f"channel changed the header to {got_header!r}")
    if len(got) != len(strands):
        raise CheckError(f"channel gave {len(got)} strands for {len(strands)}")
    for i, (before, after) in enumerate(zip(strands, got)):
        if not len(before) + t <= len(after) <= len(before) + k * t:
            raise CheckError(
                f"strand {i}: length {len(before)} -> {len(after)} after {t} duplications"
            )


class Run:
    """One benchmark run: child processes, their checks and their tallies."""

    def __init__(self, wl: Workload, seed: int, work: Path, deadline: float):
        self.wl = wl
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.peak_rss_kb = 0
        self.walls: dict[str, list[float]] = {stage: [] for stage in ("setup", *layers.STAGES)}
        self.probes: list[float] = []  # reference_probe() times
        self.payload = make_payload(seed, wl.payload_bytes)
        self.payload_path = work / "payload.bin"
        self.payload_path.write_bytes(self.payload)
        self.empty_path = work / "empty.bin"
        self.empty_path.write_bytes(b"")
        self.expected: Optional[tuple[str, int, list[str]]] = None  # header, k, strands
        self.encoded_text = ""
        self.noisy_path = work / "noisy.seq"

    def fresh_output(self, stage: str) -> str:
        """Path of a stage's output file, removed first so that a stale file
        cannot pass a check."""
        path = self.work / OUTPUTS[stage]
        path.unlink(missing_ok=True)
        return str(path)

    def cli_args(self, stage: str) -> list[str]:
        out = self.fresh_output(stage)
        if stage == "setup":
            return ["encode", *self.wl.flags, "-i", str(self.empty_path), "-o", out]
        if stage == "encode":
            return ["encode", *self.wl.flags, "-i", str(self.payload_path), "-o", out]
        if stage == "channel":
            return ["channel", "-t", str(self.wl.dups), "--seed", str(self.seed),
                    "-i", str(self.work / OUTPUTS["encode"]), "-o", out]
        return ["decode", "-i", str(self.noisy_path), "-o", out]

    def child(self, argv: list[str]) -> tuple[float, int, str]:
        """Run argv to completion: wall seconds, exit status, stderr tail."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        err_path = self.work / "stderr.txt"
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            killer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return wall, proc.returncode, err_path.read_text(errors="replace")[-400:]

    def stage(self, name: str, argv: list[str], check: Callable[[], None]) -> Optional[float]:
        """Run and check one stage invocation; its wall time, or None if it failed."""
        self.attempted += 1
        wall, code, err = self.child(argv)
        try:
            if code != 0:
                raise CheckError(f"exit status {code}: {err.strip()}")
            check()
        except (CheckError, OSError, UnicodeDecodeError) as exc:
            self.failed += 1
            self.errors.append(f"{name}: {exc}")
            return None
        return wall

    def check_setup(self) -> None:
        _, _, strands = check_encoded((self.work / OUTPUTS["setup"]).read_text(), 0)
        if strands:
            raise CheckError("empty payload encoded to strands")

    def check_encode(self) -> None:
        text = (self.work / OUTPUTS["encode"]).read_text()
        if self.expected is None:
            self.expected = check_encoded(text, self.wl.payload_bytes)
            self.encoded_text = text
            header, k, strands = self.expected
            noisy = duplicate(strands, self.wl.dups, k, self.seed)
            self.noisy_path.write_text("\n".join([header, *noisy]) + "\n")
        elif text != self.encoded_text:
            raise CheckError("encode output differs between invocations")

    def check_channel(self) -> None:
        header, k, strands = self.expected
        check_channel((self.work / OUTPUTS["channel"]).read_text(), header, strands,
                      self.wl.dups, k)

    def check_decode(self) -> None:
        if (self.work / OUTPUTS["decode"]).read_bytes() != self.payload:
            raise CheckError("decoded bytes differ from the payload")

    def checks(self) -> dict[str, Callable[[], None]]:
        return {"setup": self.check_setup, "encode": self.check_encode,
                "channel": self.check_channel, "decode": self.check_decode}

    def warm_up(self) -> bool:
        """One untimed set-up invocation, which also writes the bytecode cache."""
        return self.stage("warm-up", self.plain("setup"), self.check_setup) is not None

    def plain(self, stage: str) -> list[str]:
        return [sys.executable, "-m", "tdcode.cli", *self.cli_args(stage)]

    def measure(self, stage: str) -> bool:
        """One plain invocation of a stage, its wall time kept; False if it failed."""
        wall = self.stage(stage, self.plain(stage), self.checks()[stage])
        if wall is None:
            return False
        self.walls[stage].append(wall)
        return True

    def traced(self, stage: str, spans: Path) -> list[str]:
        return [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans), stage, "--",
                *self.cli_args(stage)]


def low_decile(values: list[float]) -> float:
    """The 10th percentile: a time taken while the host ran at its faster speed."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[0]


def end_to_end(run: Run, seconds: float) -> dict[str, tuple[float, str]]:
    """Untraced stage throughputs and set-up time.

    Rounds of encode, channel, decode and one set-up invocation run until
    the next round would end after `seconds`, so every stage gets the same
    number of invocations, spread over the whole run.  A reference probe
    runs before each invocation.  Each timing is the 10th percentile of its
    invocations, scaled by REFERENCE_S over the probes' 10th percentile (see
    README.md, "Run-to-run spread").
    """
    if not run.warm_up():
        return {}
    start = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        for stage in (*layers.STAGES, "setup"):
            run.probes.append(reference_probe())
            if not run.measure(stage):
                return {}
        now = time.perf_counter()
        if now - start + (now - r0) > seconds:
            break
    kb = run.wl.payload_bytes / 1000
    scale = REFERENCE_S / low_decile(run.probes)
    metrics = {"setup_s": (low_decile(run.walls["setup"]) * scale, "s")}
    for stage in layers.STAGES:
        metrics[f"{stage}_kBps"] = (kb / (low_decile(run.walls[stage]) * scale), "kB/s")
    metrics["peak_rss_mb"] = (run.peak_rss_kb / 1024, "MB")
    return metrics


def per_layer(run: Run, seconds: float, trace_path: Path) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: rounds of each stage run plain, then traced, until
    the next round would end after `seconds`; medians over rounds."""
    if not run.warm_up():
        return {}
    start = time.perf_counter()
    rounds = []
    while True:
        r0 = time.perf_counter()
        docs, overhead = [], {}
        for stage in layers.STAGES:
            spans = run.work / f"spans-{stage}.json"
            if not run.measure(stage):
                return {}
            traced = run.stage(f"{stage} (traced)", run.traced(stage, spans), run.checks()[stage])
            if traced is None:
                return {}
            docs.append(json.loads(spans.read_text()))
            overhead[stage] = traced / run.walls[stage][-1] - 1
        if not rounds:
            with open(trace_path, "w", encoding="ascii") as fh:
                json.dump({"workload": run.wl.name, "seed": run.seed, "stages": docs}, fh,
                          separators=(",", ":"))
            for doc in docs:
                top = ", ".join(f"{n} {s:.3f}s" for n, s in layers.top_self_times(doc, 6))
                print(f"# self time, {doc['stage']}: {top}")
        rounds.append(layers.layer_metrics(docs, overhead))
        now = time.perf_counter()
        if now - start + (now - r0) > seconds:
            break
    return {name: (statistics.median(r[name][0] for r in rounds), unit)
            for name, (_, unit) in rounds[0].items()}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tdcode" / "cli.py").is_file():
        print(f"error: no tdcode sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{wl.name}-{args.seed}-{os.getpid()}"
    work.mkdir()
    label = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    try:
        run = Run(wl, args.seed, work, time.monotonic() + HARD_LIMIT_S)
        if args.trace:
            trace_path = OUT / f"trace-{label}.json"
            metrics = per_layer(run, args.seconds, trace_path)
        else:
            metrics = end_to_end(run, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    strands = len(run.expected[2]) if run.expected else 0
    meta = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "payload_bytes": wl.payload_bytes, "strands": strands,
        "strand_symbols": sum(len(s) for s in run.expected[2]) if run.expected else 0,
        "invocations": {stage: len(walls) for stage, walls in run.walls.items()},
        "probe_p10_s": low_decile(run.probes) if run.probes else None,
    }
    correct = run.failed == 0 and bool(metrics)
    for err in run.errors:
        print(f"# FAIL {err}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"fail_frac {run.failed / max(run.attempted, 1):.6g} ratio")
    print("# meta " + json.dumps(meta))
    result = {
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {"meta": meta, **result, "walls": run.walls, "probes": run.probes}
    (OUT / f"result-{label}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
