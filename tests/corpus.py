"""The behaviour corpus of the stream commands: encode, channel and decode.

Each row of corpus.json is one run of tdcode.cli.main: a name, its argv,
its input file, and what a user sees of the run: the exit code, stderr
exactly, and the sha256 of stdout and of the output file (null when the
run writes none).  In argv, INPUT and OUTPUT stand for the two files.
test_corpus.py replays every row in-process and compares.  A change that
moves a row writes the file again, and the diff names each moved row, one
row a line:

    PYTHONPATH=src python tests/corpus.py --write

Rows hold their inputs (zlib-compressed, as hex), so a replay reads no
random draws.  The rows cover the stream commands:
- clean, duplicated and damaged streams of both modes, --dna and --digits;
- every HEADER_PROBES case of test_cli.py, for decode and for channel;
- each _FIELDS field missing, repeated, unknown, at its least value and
  one below, for decode and for channel;
- header-only streams;
- every flag_probes.PROBES argv of encode, decode and channel at its
  bounds and past them;
- the --digits message faults, and flags that contradict each other.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import zlib
from pathlib import Path

from flag_probes import PROBES, cases
from tdcode.cli import _FIELDS, main

PATH = Path(__file__).with_name("corpus.json")
COMMANDS = ("encode", "decode", "channel")


def seen(err: str) -> str:
    """stderr as a row keeps it: argparse's usage lines and its list of
    choices differ between Python versions, so a usage error keeps its
    last line up to the choices."""
    if not err.startswith("usage:"):
        return err
    return err.splitlines()[-1].split(" (choose from")[0] + "\n"


def digest(data: bytes | None) -> str | None:
    return None if data is None else hashlib.sha256(data).hexdigest()


def run(argv: list[str], data: bytes, workdir: Path) -> dict:
    """One run of main on data as INPUT, in workdir: what a row records."""
    files = {"INPUT": workdir / "input", "OUTPUT": workdir / "output"}
    files["INPUT"].write_bytes(data)
    files["OUTPUT"].unlink(missing_ok=True)
    out, err = io.BytesIO(), io.StringIO()
    stdout = io.TextIOWrapper(out, encoding="ascii")
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
        rc = main([str(files.get(a, a)) for a in argv])
        stdout.flush()
    written = files["OUTPUT"].read_bytes() if files["OUTPUT"].exists() else None
    return {"rc": rc, "stderr": seen(err.getvalue()), "stdout": digest(out.getvalue()),
            "output": digest(written)}


def load() -> list[dict]:
    return json.loads(PATH.read_text())


def unpack(row: dict) -> bytes:
    return zlib.decompress(bytes.fromhex(row["input"]))


# --- the generator ----------------------------------------------------------

# encode flags of the streams the rows start from
SYSTEMS = {
    "code": "--mode code -q 3 -k 2 -n 10",
    "code-dna": "--mode code -q 4 -k 3 -n 12 --dna",
    "code-k2": "--mode code -q 4 -k 2 -n 40",
    "fse": "--mode fse -q 3 -k 2 --ell 1 --m 3",
    "fse-dna": "--mode fse -q 4 -k 3 -e 0.2 --dna",
    "fse-e": "--mode fse -q 5 -k 2 -e 0.1",
}
PAYLOADS = {"empty": b"", "one": b"\x00", "text": b"tandem duplications",
            "bytes64": bytes(range(64))}
DIGITS = {"empty": b"", "one": b"21", "blocks": b"0120\n2101\n", "long": b"21" * 40}
IO = ["-i", "INPUT", "-o", "OUTPUT"]


class Corpus:
    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.rows: dict[str, dict] = {}

    def add(self, name: str, argv: str | list[str], data: bytes) -> dict:
        argv = argv.split() if isinstance(argv, str) else argv
        assert name not in self.rows, name
        row = {"name": name, "argv": argv, **run(argv, data, self.workdir),
               "input": zlib.compress(data, 9).hex()}
        self.rows[name] = row
        return row

    def output(self) -> bytes:
        return (self.workdir / "output").read_bytes()

    def stream(self, name: str, argv: str, data: bytes) -> bytes:
        """Add an encode or channel row that must succeed: its output."""
        row = self.add(name, argv.split() + IO, data)
        assert row["rc"] == 0, row
        return self.output()

    def decode(self, name: str, data: bytes, payload: bytes | None = None) -> None:
        row = self.add(name, ["decode", *IO], data)
        if payload is not None:  # a clean or duplicated stream round-trips
            assert row["rc"] == 0 and self.output() == payload, row

    def write(self) -> None:
        rows = sorted(self.rows.values(), key=lambda row: row["name"])
        lines = ",\n".join(json.dumps(row) for row in rows)
        PATH.write_text(f"[\n{lines}\n]\n")


def edit_header(text: bytes, change) -> bytes:
    """text with its first line, the header, as change maps its tokens."""
    header, rest = text.split(b"\n", 1)
    tokens = change(header.decode().split()[2:])
    return " ".join(["# tdcode", *tokens]).encode() + b"\n" + rest


def damaged(text: bytes) -> dict[str, bytes]:
    """A clean stream, damaged in each way a strand can be."""
    header, *strands = text.decode().splitlines()
    first = strands[0]
    swap = {"0": "1", "1": "0", "A": "C", "C": "A"}
    out = {
        "substituted": [swap.get(first[0], "0") + first[1:], *strands[1:]],
        "truncated": [first[:-1], *strands[1:]],
        "wrong-alphabet": [first[:2] + "x" + first[3:], *strands[1:]],
        "blank-lines": ["", *strands[:1], "   ", *strands[1:], ""],
        "dropped": strands[1:],
        "repeated": [first, *strands],
    }
    return {name: "\n".join([header, *lines]).encode() + b"\n" for name, lines in out.items()}


def round_trips(c: Corpus) -> dict[str, bytes]:
    """Encode, channel and decode rows of every system; the text payload's
    stream of each."""
    bases = {}
    for system, flags in SYSTEMS.items():
        for pname, payload in PAYLOADS.items():
            enc = c.stream(f"encode/{system}/{pname}", f"encode {flags}", payload)
            c.decode(f"decode/{system}/{pname}/clean", enc, payload)
            for t, seed in ((1, 0), (5, 3)):
                noisy = c.stream(f"channel/{system}/{pname}/t{t}", f"channel -t {t} --seed {seed}",
                                 enc)
                c.decode(f"decode/{system}/{pname}/t{t}", noisy, payload)
            if pname == "text":
                bases[system] = enc
                for how, text in damaged(enc).items():
                    c.decode(f"decode/{system}/{pname}/{how}", text)
                    c.add(f"channel/{system}/{pname}/{how}", ["channel", "-t", "2", *IO], text)
    for dname, digits in DIGITS.items():
        flags = "encode --mode fse -q 3 -k 2 --ell 2 --m 6 --digits"
        enc = c.stream(f"encode/fse-digits/{dname}", flags, digits)
        text = b"".join(digits.split())
        c.decode(f"decode/fse-digits/{dname}/clean", enc, text + b"\n" if text else b"")
        noisy = c.stream(f"channel/fse-digits/{dname}/t4", "channel -t 4 --seed 1", enc)
        c.decode(f"decode/fse-digits/{dname}/t4", noisy, text + b"\n" if text else b"")
    return bases


def field_rows(c: Corpus, bases: dict[str, bytes]) -> None:
    """Each field of _FIELDS missing, repeated, unknown, at its least
    value and one below, in the header of a clean stream of each mode,
    and each such header alone."""
    least = {"mode": ("fse", "xyz"), "q": (3, 2), "k": (2, 1), "n": (1, 0), "ell": (1, 0),
             "m": (3, 2), "chunk": (1, 0), "digits": (0, -1), "dna": (0, -1)}
    for system in ("code", "fse"):
        base = bases[system]
        texts = {}
        for key in _FIELDS:
            given = {tok.split("=")[0]: tok for tok in base.split(b"\n")[0].decode().split()[2:]}
            if key in given:
                texts[f"{key}-missing"] = edit_header(base, lambda t: [x for x in t
                                                                      if x != given[key]])
                texts[f"{key}-repeated"] = edit_header(base, lambda t: t + [given[key]])
            texts[f"{key}-unknown"] = edit_header(base, lambda t: t + [f"{key}x=1"])
            for value in least[key]:
                texts[f"{key}-{value}"] = edit_header(
                    base, lambda t: [x for x in t if not x.startswith(f"{key}=")] + [f"{key}={value}"])
        texts["no-fields"] = edit_header(base, lambda t: [])
        for name, text in texts.items():
            for only, body in (("", text), ("/header-only", text.split(b"\n")[0] + b"\n")):
                c.add(f"decode/field/{system}/{name}{only}", ["decode", *IO], body)
                c.add(f"channel/field/{system}/{name}{only}", ["channel", "-t", "1", *IO], body)


def header_probe_rows(c: Corpus) -> None:
    from test_cli import HEADER_PROBES, probe_stream

    for p in HEADER_PROBES:
        mode, edits, flag, length = p.values[:4]
        for command, argv in (("decode", ["decode"]), ("channel", ["channel", "-t", "1"])):
            flags, text = probe_stream(mode, edits, flag, length, command)
            c.add(f"{command}/probe/{p.id}", argv + IO + flags, text.encode())


def flag_probe_rows(c: Corpus) -> None:
    for key, probes in PROBES.items():
        for flag, argv, at in probes:
            if not flag.startswith(COMMANDS):
                continue
            for value, _ in cases(key, at):
                words = argv(value).split() + ["-o", "OUTPUT"]
                c.add(f"probe/{flag}/{value}", words, b"")


def fault_rows(c: Corpus) -> None:
    """The --digits message's faults, and faults whose values come from
    both a header and flags, or from flags that contradict each other."""
    digits = "encode --mode fse -q 3 -k 2 --ell {} --m {} --digits".format
    for name, (ell, m, data) in {
        "digit-past-q": (1, 3, b"0132\n"), "bad-char": (2, 6, b"0120\n" * 100 + b"0x12\n"),
        "ragged": (2, 6, b"01 2\n"), "non-ascii": (2, 6, b"01\xff2\n"),
        "fullwidth": (1, 3, "0１".encode()), "ell-not-below-m": (6, 6, b"012012"),
    }.items():
        c.add(f"encode/digits/{name}", digits(ell, m).split() + IO, data)
    fse43 = "--mode fse -q 4 -k 3"
    for command in ("encode", "decode"):
        data = PAYLOADS["text"] if command == "encode" else b""
        for name, flags in {"e-and-ell": "-e 0.05 --ell 1", "e-and-m": "-e 0.05 --m 19",
                            "e-and-both": "-e 0.05 --ell 1 --m 5", "ell-5-m-5": "--ell 5 --m 5",
                            "ell-past-m": "--ell 1000000000 --m 5", "e-past-rate": "-e 0.9",
                            "no-ell": "--m 5", "q-2": "--ell 1 --m 5 -q 2"}.items():
            c.add(f"{command}/flags/{name}", f"{command} {fse43} {flags}".split() + IO, data)
    strand = b"0123" * 30 + b"\n"
    c.add("decode/flags/ell-5-m-5-strand", f"decode {fse43} --ell 5 --m 5".split() + IO, strand)
    c.add("decode/flags/e-and-ell-strand", f"decode {fse43} -e 0.05 --ell 1".split() + IO, strand)
    c.add("decode/flags/no-mode", ["decode", *IO], strand)
    c.add("decode/flags/no-q", ["decode", "--mode", "code", *IO], strand)
    c.add("channel/flags/no-q", ["channel", "-t", "1", *IO], strand)
    c.add("channel/flags/q-2", ["channel", "-t", "1", "-q", "2", "-k", "2", *IO], strand)
    for name, header in {
        "fse-ell-10-m-11": "mode=fse q=4 k=3 ell=10 m=11",
        "fse-ell-10-m-11-chunk": "mode=fse q=4 k=3 ell=10 m=11 chunk=20 digits=0 dna=0",
        "fse-m-3-k-3": "mode=fse q=4 k=3 ell=1 m=3", "fse-m-4-k-3": "mode=fse q=4 k=3 ell=1 m=4",
        "code-q-2": "mode=code q=2 k=2 n=5", "code-k-4": "mode=code q=4 k=4 n=5",
        "code-n-0": "mode=code q=4 k=2 n=0", "fse-m-2-k-3": "mode=fse q=4 k=3 ell=1 m=2",
        "code-q-40": "mode=code q=40 k=2 n=5", "code-q-11-k-3": "mode=code q=11 k=3 n=5",
        "code-digits-1": "mode=code q=4 k=2 n=5 digits=1", "dna-q-3": "mode=code q=3 k=2 n=5 dna=1",
    }.items():
        text = f"# tdcode {header}\n".encode() + strand
        c.add(f"decode/header/{name}", ["decode", *IO], text)
        c.add(f"channel/header/{name}", ["channel", "-t", "1", *IO], text)
        c.add(f"decode/header/{name}/header-only", ["decode", *IO], text.split(b"\n")[0])
        c.add(f"channel/header/{name}/header-only", ["channel", "-t", "1", *IO],
              text.split(b"\n")[0])
    # a header's fields and a flag's together: the check reads both
    c.add("decode/mixed/header-m-flag-ell-0", ["decode", "--ell", "0", *IO],
          b"# tdcode mode=fse q=3 k=2 m=3\n012\n")
    c.add("decode/mixed/header-q-3-flag-dna", ["decode", "--dna", *IO],
          b"# tdcode mode=code q=3 k=2 n=5\n01201\n")
    c.add("decode/mixed/header-k-3-flag-m-3", ["decode", "--ell", "1", "--m", "3", *IO],
          b"# tdcode mode=fse q=4 k=3\n0120\n")
    c.add("decode/mixed/flag-q-2-header-k", ["decode", "-q", "2", *IO],
          b"# tdcode mode=code k=2 n=5\n01201\n")


def generate(workdir: Path) -> Corpus:
    c = Corpus(workdir)
    bases = round_trips(c)
    field_rows(c, bases)
    header_probe_rows(c)
    flag_probe_rows(c)
    fault_rows(c)
    return c


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        raise SystemExit(f"usage: {sys.argv[0]} --write")
    with tempfile.TemporaryDirectory() as tmp:
        corpus = generate(Path(tmp))
        corpus.write()
    print(f"{len(corpus.rows)} rows written to {PATH}")
