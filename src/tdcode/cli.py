"""Command line interface for the tandem duplication code toolkit."""

from __future__ import annotations

import _random
import argparse
import random
import sys as _sys
from contextlib import contextmanager
from math import isqrt
from typing import TYPE_CHECKING, Optional, Sequence

from .errors import BudgetExceededError, CorruptInputError, DomainError, TandemCodeError, show_int
from .words import DupSystem, Word, _duplicate, _text_codec, random_descendant, root

# Each command imports the counting, ranking, codec and FSE modules it
# runs, so a channel process loads (and compiles) none of them.
if TYPE_CHECKING:
    from .enumeration import FseParams

HEADER_PREFIX = "# tdcode"

# The longest class a command may count.  A CountTable keeps every count up
# to its length n, about rate * log2(q) * n**2 / 2 bits (100 MB at q = 4,
# k = 2, n = 2**15).  It also caps channel -t: each duplication moves the
# strand's tail, so the channel's time grows as t**2 (-t 32768 on a
# 175k-symbol strand: 0.08 s of work, 0.19 s in a fresh process).
MAX_TABLE_LENGTH = 1 << 15

# The longest FSE state a flag, -e or a header may ask for.  FseCodec counts to m per window
# pattern (at most 21) and for delta_min_degree: at the cap, 0.1 s and 43 MB RSS (q = 8, k = 3).
MAX_STATE_LENGTH = 1 << 11

# The most full suffix windows (irreducible words of length 2k - 1) a command may build
# the window DP over, whose time and memory grow with them (q = 8, k = 3: 18480 windows,
# 0.3 s with the walk tables): q <= 8 at k = 3, q <= 27 at k = 2.  Rates take any q.
MAX_WINDOWS = 20_000

# The most root samples verify may draw.  Each costs an unrank, a channel
# draw and two roots at length up to min(-n, --budget // --samples), and
# the oracle's search, which the budget bounds over all samples (10000
# samples at -n 8: about 0.6 s).
_MAX_SAMPLES = 10_000


# Every bounded number a command reads, declared once: its noun; its least
# value (None where a record holds a flag's: q >= 3, k in {2, 3}, n >= 1,
# ell >= 1, m >= 2k - 1, and unrank_irr a rank's range; _FIELDS a header's);
# its greatest, a number or a function of what the command read before it;
# and the greatest's name.  _check holds each before anything counts or reads.
_BOUNDS: dict[str, tuple] = {
    # count, unrank, encode and decode -n, rank -w, a header's n, rate -e's state length.
    # A table of length n holds about n * n * log2(q) bits: n * n * max(q.bit_length(), 5)
    # <= 5 * MAX_TABLE_LENGTH**2, so n <= 2**15 below q = 32 (only count and rate take more)
    "n": ("length", None, lambda q: isqrt(5 * MAX_TABLE_LENGTH**2 // max(q.bit_length(), 5)),
          "counting cap"),
    # --m, a header's m, encode and decode -e's state length (the window cap keeps q <= 27)
    "m": ("state length", None, MAX_STATE_LENGTH, "counting cap"),
    # set by -q and -k or a header's q and k, where a command builds the window DP
    "q": ("full window count", None, MAX_WINDOWS, "window cap"),
    # unrank -j's digits, read before int() parses them: every rank of a length-n class
    # is at most count_irr(n) < q**max(n, 1), so it has at most max(n, 1) * len(str(q))
    "j": ("rank digits", None, lambda q, n: max(n, 1) * len(str(q)), "digit cap"),
    "t": ("duplication count", 0, MAX_TABLE_LENGTH, "duplication cap"),
    # verify's flags: -n, and the oracle's budgets
    "max_n": ("maximum word length", 1, MAX_TABLE_LENGTH, "counting cap"),
    "budget": ("budget", 1, lambda oracle: oracle.max_words, "oracle's word budget"),
    "depth": ("depth", 0, lambda oracle: oracle.max_depth, "oracle's search depth"),
    "samples": ("samples", 1, _MAX_SAMPLES, "sample cap"),
}


@contextmanager
def _source(header=(), *reads: str):
    """The one exit rule: a check failing on a field the header gave (of reads,
    or any) is corrupt input that says so (exit 1), else a domain error (2)."""
    try:
        yield
    except DomainError as exc:
        if any(key in header for key in reads or header):
            raise CorruptInputError(f"header {exc}") from exc
        raise


def _check(key: str, value: int, header=(), *reads: str, of: str = "", **given) -> None:
    """Hold value to its entry of _BOUNDS, given what the entry's greatest value
    depends on; of names what it belongs to, and key and reads go to _source."""
    noun, least, greatest, name = _BOUNDS[key]
    high = greatest(**given) if callable(greatest) else greatest
    if (least is None or least <= value) and value <= high:
        return
    past = (f"exceeds the {name} {high}" if least is None
            else f"outside [{least}, {high}], the {name}")
    with _source(header, key, *reads):
        raise DomainError(f"{of}{noun} {show_int(value)} {past}")


def _window_count(sys_: DupSystem) -> int:
    from .enumeration import count_table

    return count_table(sys_).count(2 * sys_.k - 1)  # a pattern DP seed: no window built


# The stream header's fields, declared once in the order encode writes them:
# the type of a value, and the values a header may give it or its least value
# (else exit 1).  _BOUNDS caps n, m and q; _code and _fse check the rest.
_FIELDS: dict[str, tuple] = {
    "mode": (str, ("fse", "code")),
    "q": (int, 3),
    "k": (int, (2, 3)),
    "n": (int, 1),
    "ell": (int, 1),
    "m": (int, 3),
    "chunk": (int, 1),
    "digits": (int, (0, 1)),
    "dna": (int, (0, 1)),
}


def parse_header(line: str) -> Optional[dict[str, object]]:
    """Parse a stream header line, or return None for ordinary comments.
    Each token must set a field of _FIELDS, once, to a value it may take."""
    if line.split()[:2] != HEADER_PREFIX.split():
        return None
    fields: dict[str, object] = {}
    for tok in line.split()[2:]:
        key, sep, val = tok.partition("=")
        if not sep:
            raise CorruptInputError(f"malformed header token {tok!r}")
        if key not in _FIELDS:
            raise CorruptInputError(f"unknown header field {tok!r}")
        kind, values = _FIELDS[key]
        try:
            value = kind(val)
        except ValueError as exc:
            raise CorruptInputError(f"malformed header token {tok!r}") from exc
        if value not in values if isinstance(values, tuple) else value < values:
            allowed = " or ".join(map(str, values)) if isinstance(values, tuple) else f">= {values}"
            raise CorruptInputError(f"header field {tok!r} is not {allowed}")
        if key in fields:
            raise CorruptInputError(f"repeated header field {tok!r}")
        fields[key] = value
    return fields


def _strand_codec(q: int, dna: bool, noun: str = "strand"):
    """A stream's strand codec: the text codec's render table, and its
    parser, for which a bad strand (or digit block) is corrupt input."""
    render, parse_text = _text_codec(q, dna)

    def parse(text: str) -> bytes:
        try:
            return parse_text(text)
        except DomainError as exc:
            raise CorruptInputError(f"cannot parse {noun} {text!r}: {exc}") from exc

    return render, parse


def _read_bytes(path: str) -> bytes:
    if path == "-":
        return _sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _write_bytes(path: str, data: bytes) -> None:
    if path == "-":
        _sys.stdout.buffer.write(data)
        _sys.stdout.buffer.flush()
    else:
        with open(path, "wb") as fh:
            fh.write(data)


def _read_text(path: str) -> str:
    data = _read_bytes(path)
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise CorruptInputError(
            f"input is not ASCII text: byte 0x{data[exc.start]:02x} at offset {exc.start}"
        ) from None


def _frame_bits(data: bytes) -> tuple[int, int]:
    """Prefix the payload with its 64 bit big-endian bit length."""
    bit_len = 8 * len(data)
    return (bit_len << bit_len) | int.from_bytes(data, "big"), 64 + bit_len


def _split_chunks(value: int, nbits: int, chunk: int) -> list[int]:
    """MSB-first chunk values, the last one zero padded.

    Slices one binary string, so the cost is linear in nbits.
    """
    width = -(-nbits // chunk) * chunk
    bits = format(value << (width - nbits), f"0{width}b")
    return [int(bits[i:i + chunk], 2) for i in range(0, width, chunk)]


def _join_chunks(values: list[int], chunk: int) -> bytes:
    """Inverse of _split_chunks after _frame_bits: the framed payload.

    Whole bytes leave the accumulator after every chunk, so it stays under
    chunk + 8 bits and the cost is linear in the stream's bit count.
    """
    nbits = chunk * len(values)
    if nbits < 64:
        raise CorruptInputError("stream too short to hold a payload length field")
    buf = bytearray()
    acc = width = 0
    for v in values:
        acc = (acc << chunk) | v
        width += chunk
        buf += (acc >> (width % 8)).to_bytes(width // 8, "big")
        width %= 8
        acc &= (1 << width) - 1
    acc = (int.from_bytes(buf, "big") << width) | acc
    bit_len = acc >> (nbits - 64)
    if bit_len % 8 != 0 or bit_len > nbits - 64:
        raise CorruptInputError(f"invalid payload bit length {bit_len}")
    payload = (acc >> (nbits - 64 - bit_len)) & ((1 << bit_len) - 1)
    return payload.to_bytes(bit_len // 8, "big")


def _choose_params(epsilon: float, sys_: DupSystem, key: str) -> FseParams:
    # the state length choose_params starts its search from, held to _BOUNDS[key] first
    from .enumeration import _estimate, asymptotic_rate, choose_params

    info = asymptotic_rate(sys_)
    if 0 < epsilon < info.rate:  # else choose_params rejects epsilon
        _check(key, _estimate(epsilon, info)[1], of=f"epsilon {epsilon}: ", q=sys_.q)
    return choose_params(epsilon, sys_)


def _stream(args, header: dict):
    """The checks every stream command shares, made before anything counts:
    the stream's fields (a header field wins, a flag fills its gap), its
    system, and its strand codec's render table and parser.  channel needs
    no mode and builds no window DP."""
    flags, channel = vars(args), args.command == "channel"
    if flags.get("epsilon") is not None and (flags["ell"], flags["m"]) != (None, None):
        raise DomainError("-e picks ell and m: give -e, or --ell and --m, not both")
    f = {key: header[key] if key in header else flags.get(key) for key in _FIELDS}
    f["digits"], f["dna"] = int(bool(f["digits"])), int(bool(f["dna"]))
    _need(f, header, "q k" if channel else "mode q k", "no flag or stream header gives one")
    sys_ = DupSystem(f["q"], f["k"])  # a header's q and k are in the records' domain
    if not channel:  # duplicating strands builds no window DP
        _check("q", _window_count(sys_), header, "k", of=f"q={show_int(sys_.q)}, k={sys_.k}: ")
    with _source(header, "q", "dna"):  # the text codec's rule
        render, parse = _strand_codec(sys_.q, f["dna"])
    return f, sys_, render, parse


def _need(f: dict, header: dict, keys: str, how: str) -> None:
    missing = [key for key in keys.split() if f[key] is None]
    with _source(header):  # any header is at fault for a field no flag fills
        if missing:
            raise DomainError(f"{', '.join(missing)} missing: {how}")


@contextmanager
def _all_digits():
    # count and rank print exact values; header parsing keeps the digit limit
    if not hasattr(_sys, "get_int_max_str_digits"):  # before 3.10.7: no limit
        yield
        return
    limit = _sys.get_int_max_str_digits()
    _sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        _sys.set_int_max_str_digits(limit)


def _cmd_count(args) -> int:
    import json

    from .enumeration import count_irr

    sys_ = DupSystem(args.q, args.k)
    _check("n", args.n, q=args.q)
    value = count_irr(args.n, sys_)
    with _all_digits():
        if args.json:
            print(json.dumps({"n": args.n, "q": args.q, "k": args.k, "count": value}))
        else:
            print(value)
    return 0


def _cmd_rate(args) -> int:
    import json

    from .enumeration import asymptotic_rate

    sys_ = DupSystem(args.q, args.k)
    try:  # lambda and kappa are floats: past q = 10**44 at k = 3, one overflows
        info = asymptotic_rate(sys_)
        out: dict[str, object] = {
            "q": args.q,
            "k": args.k,
            "lambda": info.lam,
            "rate": info.rate,
            "kappa": info.kappa,
        }
        if args.epsilon is not None:
            params = _choose_params(args.epsilon, sys_, "n")
            out.update({"epsilon": args.epsilon, "ell": params.ell, "m": params.m})
    except OverflowError:
        raise DomainError(f"q={show_int(args.q)} is too large for a float rate") from None
    print(json.dumps(out))
    return 0


def _cmd_rank(args) -> int:
    from .ranking import rank_irr

    sys_ = DupSystem(args.q, args.k)
    _check("q", _window_count(sys_), of=f"q={show_int(args.q)}, k={args.k}: ")
    word = Word(tuple(_text_codec(args.q, args.dna)[1](args.word)), args.q)
    _check("n", len(word), of="word ", q=args.q)
    with _all_digits():
        print(rank_irr(word, sys_))
    return 0


def _cmd_unrank(args) -> int:
    from .ranking import unrank_irr

    sys_ = DupSystem(args.q, args.k)
    _check("q", _window_count(sys_), of=f"q={show_int(args.q)}, k={args.k}: ")
    render = _text_codec(args.q, args.dna)[0]
    _check("n", args.n, q=args.q)
    _check("j", len(args.j), q=args.q, n=args.n)  # before int() reads the digits
    with _all_digits():
        try:
            j = int(args.j)
        except ValueError:
            raise DomainError(f"rank {args.j!r} is not an integer") from None
    print(bytes(unrank_irr(args.n, j, sys_).symbols).translate(render).decode("ascii"))
    return 0


def _code(f: dict, sys_: DupSystem, header: dict, epsilon, strands=None, parse=None):
    """Code mode: value v travels as the codeword of index v + 1, one strand
    each.  strands is None when encoding; decoding parses and decodes them
    lazily, so the first bad strand fails in stream order."""
    from .codec import CodeSpec, decode_codewords, encode_codewords
    from .enumeration import code_size

    with _source(header, "mode", "digits"):
        if f["digits"]:  # encode writes digits=0
            raise DomainError("digits=1 applies only to mode=fse")
    _need(f, header, "n", "code mode needs -n" + ("" if strands is None else " or a stream header"))
    spec = CodeSpec(sys_, f["n"])
    # a header's chunk is at least 1; code_size(n) < q**(n + 1) bounds every chunk encode writes
    if f["chunk"] is not None and f["chunk"] > (cap := (spec.n + 1) * sys_.q.bit_length()):
        raise CorruptInputError(f"header chunk={f['chunk']} outside [1, {cap}]")
    # duplications only lengthen strands; check before code_size(n) costs O(n**2) bits
    if strands and spec.n > min(map(len, strands)):
        raise CorruptInputError(f"code length n={spec.n} exceeds the shortest strand")
    _check("n", spec.n, header, of="code ", q=sys_.q)
    if f["chunk"] is None and strands != []:  # a stream without strands counts nothing
        f["chunk"] = code_size(spec.n, sys_).bit_length() - 1
    chunk = f["chunk"]

    def to_values():
        for j in decode_codewords(map(parse, strands), spec):
            if j - 1 >= 1 << chunk:
                raise CorruptInputError(
                    f"decoded index {show_int(j)} does not fit in a {chunk} bit chunk"
                )
            yield j - 1

    return (lambda values: encode_codewords([v + 1 for v in values], spec)), to_values


def _fse(f: dict, sys_: DupSystem, header: dict, epsilon, strands=None, parse=None):
    """Fse mode: the values are the blocks of the encoder's one walk, one
    strand.  strands is None when encoding; -e fills a header's gap."""
    from .enumeration import FseParams
    from .fse import FseCodec

    if epsilon is not None and not ("ell" in header and "m" in header):
        chosen = _choose_params(epsilon, sys_, "m")
        f["ell"], f["m"] = header.get("ell", chosen.ell), header.get("m", chosen.m)
    _need(f, header, "ell m", "fse mode needs -e, or both --ell and --m")
    ell, m = f["ell"], f["m"]
    _check("m", m, header)
    with _source(header if ell >= 1 else (), "m", "k"):  # an ell below 1 is a flag's
        params = FseParams(sys_, ell, m)
    with _source(header, "ell", "m"):
        if ell >= m:  # q**ell <= delta_min_degree(m) < q**m: checked before q**ell is formed
            raise DomainError(f"ell={ell} must be below m={m}; no labeling exists")
    if strands:
        if len(strands) != 1:
            raise CorruptInputError(f"fse mode expects one strand, found {len(strands)}")
        received = parse(strands[0])
        if m > len(received):  # the strand holds a state
            raise CorruptInputError(f"state length m={m} exceeds the strand length {len(received)}")
    chunk = (sys_.q**ell).bit_length() - 1
    if f["chunk"] not in (None, chunk):
        raise CorruptInputError(
            f"header chunk={f['chunk']} is not {chunk}, the width for ell={ell}")
    f["chunk"] = chunk
    with _source(header, "q", "k", "ell", "m"):  # q**ell <= delta_min_degree(m)
        codec = None if strands == [] else FseCodec(params)  # no strand: nothing counts

    def to_values():
        values = codec._decode_received(received)
        for v in () if f["digits"] else values:
            if v >= 1 << chunk:
                raise CorruptInputError(
                    f"decoded block value {show_int(v)} does not fit in a {chunk} bit chunk"
                )
        return values

    return (lambda values: [bytes(codec.encode_values(values).symbols)]), to_values


# each mode's set-up, the one place its mode is checked and set up, returning
# (values -> strands, () -> the strands' values); and the fields its header omits
_MODES = {"code": (_code, ("ell", "m")), "fse": (_fse, ("n",))}


def _block_digits(values: list[int], q: int, ell: int) -> bytearray:
    """The --digits blocks of values: ell base-q digits each, most
    significant first, as symbol bytes; int(digit text, q) inverts it."""
    digits = bytearray(ell * len(values))
    for end, v in zip(range(ell, len(digits) + 1, ell), values):
        for i in range(end - 1, end - ell - 1, -1):
            v, digits[i] = divmod(v, q)
    return digits


def _frame(path: str, f: dict) -> list[int]:
    """The message's values: the framed payload's chunks, or --digits blocks."""
    if f["digits"]:
        text, q, ell = "".join(_read_text(path).split()), f["q"], f["ell"]
        if len(text) % ell != 0:
            raise CorruptInputError(f"digit message length must be a multiple of ell={ell}")
        parse = _strand_codec(q, False, "digit block")[1]
        try:  # every character a digit below q
            parse(text)
        except CorruptInputError:  # name the first ell-digit block that holds a bad one
            for i in range(0, len(text), ell):
                parse(text[i:i + ell])
            raise
        return [int(text[i:i + ell], q) for i in range(0, len(text), ell)]
    data = _read_bytes(path)
    return _split_chunks(*_frame_bits(data), f["chunk"]) if data else []


def _unframe(values, f: dict) -> bytes | bytearray:
    """Inverse of _frame: the payload, or the digit text of the blocks."""
    if f["digits"]:
        q = f["q"]
        return _block_digits(values, q, f["ell"]).translate(_text_codec(q, False)[0]) + b"\n"
    return _join_chunks(list(values), f["chunk"])


def _cmd_encode(args) -> int:
    f, sys_, render, _ = _stream(args, {})
    setup, left_out = _MODES[f["mode"]]
    to_strands, _ = setup(f, sys_, {}, args.epsilon)
    header = " ".join([HEADER_PREFIX, *(f"{k}={f[k]}" for k in _FIELDS if k not in left_out)])
    values = _frame(args.input, f)
    strands = [s.translate(render) for s in to_strands(values)] if values else []
    _write_bytes(args.output, b"\n".join([header.encode(), *strands]) + b"\n")
    return 0


def _read_stream(path: str) -> tuple[dict, list[str], dict[int, str]]:
    """Split a strand stream into its header fields, its lines, and its
    strands (stripped) by line number: the first `# tdcode` line anywhere
    is the header, later `#` lines are comments, and every other line that
    is not blank is a strand."""
    header: Optional[dict] = None
    lines = _read_text(path).splitlines()
    strands: dict[int, str] = {}
    for i, raw in enumerate(lines):
        line = raw.strip()
        if line.startswith("#"):
            header = parse_header(line) if header is None else header
        elif line:
            strands[i] = line
    return header or {}, lines, strands


def _cmd_decode(args) -> int:
    header, _, at = _read_stream(args.input)
    strands = list(at.values())
    f, sys_, _, parse = _stream(args, header)
    _, to_values = _MODES[f["mode"]][0](f, sys_, header, args.epsilon, strands, parse)
    # a stream without strands decodes to nothing
    _write_bytes(args.output, _unframe(to_values(), f) if strands else b"")
    return 0


def _cmd_channel(args) -> int:
    try:  # the interpreter's own sha256: hashlib would load OpenSSL, about 3.5 MB
        from _sha2 import sha256  # Python 3.12+
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256

    _check("t", args.t)
    header, lines, strands = _read_stream(args.input)
    # every line that is not a strand as it was; strands fill their slots below
    out = [None if i in strands else raw.encode() for i, raw in enumerate(lines)]
    if strands:
        _, sys_, render, parse = _stream(args, header)
    # one generator, reseeded per strand: random.Random's C core, whose seed(int)
    # sets the state Random(int) starts in, without Random.seed's type checks
    rng = _random.Random()
    reseed, bits = rng.seed, rng.getrandbits
    for idx, (i, line) in enumerate(strands.items()):
        # duplicate the symbols: the draws depend only on lengths
        buf = bytearray(parse(line))
        reseed(int.from_bytes(sha256(f"{args.seed}:{idx}".encode()).digest()[:8], "big"))
        _duplicate(buf, args.t, sys_.k, bits)
        out[i] = buf.translate(render)
    _write_bytes(args.output, b"\n".join(out) + (b"\n" if out else b""))
    return 0


def _default_delta_lengths(sys_: DupSystem) -> tuple[int, ...]:
    return (3, 4, 5) if sys_.k == 2 else (5, 6)


def _cmd_verify(args) -> int:
    import json

    from .enumeration import _dp, code_size, count_irr, delta_min_degree
    from .oracle import (
        OracleBudget,
        RootOracle,
        enumerate_irr_bruteforce,
        min_outdegree_bruteforce,
    )
    from .ranking import rank_irr, unrank_irr

    sys_ = DupSystem(args.q, args.k)
    _check("q", _window_count(sys_), of=f"q={show_int(args.q)}, k={args.k}: ")
    _check("max_n", args.n)
    _check("budget", args.budget, oracle=OracleBudget())
    budget = OracleBudget(max_words=args.budget)
    _check("depth", args.depth, oracle=budget)
    _check("samples", args.samples)
    checks: list[dict] = []

    def record(name: str, ok: bool, detail: str) -> None:
        checks.append({"check": name, "ok": ok, "detail": detail})

    if args.scope in ("counts", "all"):
        skip_from, power = 1, sys_.q  # the first n with q**n > budget, and its q**n
        while power <= args.budget:
            skip_from, power = skip_from + 1, power * sys_.q
        words = 0  # the brute-force words of lengths 1 .. n: code_size(n)
        for n in range(1, args.n + 1):
            if n >= skip_from:
                record(f"counts n={n}", True, "skipped: budget")
                continue
            brute = enumerate_irr_bruteforce(n, sys_, budget)
            words += len(brute)
            fast_n = count_irr(n, sys_)
            if fast_n != len(brute):
                record(f"counts n={n}", False, f"count {fast_n} vs brute {len(brute)}")
                continue
            size = code_size(n, sys_)
            if size != words:
                record(f"counts n={n}", False, f"code size {size} vs brute {words}")
                continue
            ranks = [rank_irr(w, sys_) for w in brute]
            ok = sorted(ranks) == list(range(1, fast_n + 1)) and all(
                unrank_irr(n, r, sys_) == w for r, w in zip(ranks, brute)
            )
            record(f"counts n={n}", ok,
                   f"{fast_n} words, bijection {'ok' if ok else 'mismatch'}")
    if args.scope in ("delta", "all"):
        for m in _default_delta_lengths(sys_):
            if count_irr(m, sys_) ** 2 > args.budget or sys_.q**m > args.budget:
                record(f"delta m={m}", True, "skipped: budget")
                continue
            brute = min_outdegree_bruteforce(m, sys_, budget)
            fast = delta_min_degree(m, sys_)
            record(f"delta m={m}", fast == brute, f"degree {fast} vs brute {brute}")
    if args.scope in ("roots", "all"):
        rng, walk, q = random.Random(args.seed), _dp(sys_).reduce, sys_.q
        oracle = RootOracle(sys_, budget)  # one memo: the budget bounds every sample's search
        ok, detail = True, f"{args.samples} samples at depth {args.depth}"
        longest = max(1, min(args.n, args.budget // args.samples))  # unranks within the budget
        for i in range(args.samples):
            n = rng.randint(1, longest)
            x = unrank_irr(n, rng.randint(1, count_irr(n, sys_)), sys_)
            y, _ = random_descendant(x, args.depth, sys_, rng.getrandbits(48))
            try:  # words.root, decode's window walk, and the oracle
                ok = (root(y, sys_) == x and tuple(c % q for c in walk(y.symbols)) == x.symbols
                      and oracle.roots(y) == {x})
            except BudgetExceededError:
                detail = f"skipped: budget after {i} of {args.samples} samples"
                break
            if not ok:
                detail = f"root mismatch for a descendant of {x}"
                break
        record("roots", ok, detail)
    passed = all(c["ok"] for c in checks)
    if args.json:
        print(json.dumps({"passed": passed, "checks": checks}))
    else:
        for c in checks:
            print(f"{'ok' if c['ok'] else 'FAIL'} {c['check']}: {c['detail']}")
        print("all checks passed" if passed else "verification failed")
    return 0 if passed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tdcode",
        description="Codes correcting short tandem duplications, built on irreducible words.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_system(p: argparse.ArgumentParser, required: bool = True) -> None:
        p.add_argument("-q", type=int, required=required, help="alphabet size (>= 3)")
        p.add_argument("-k", type=int, required=required, choices=(2, 3),
                       help="maximum duplication length")

    p = sub.add_parser("count", help="count irreducible words of a given length")
    p.add_argument("-n", type=int, required=True, help="word length")
    add_system(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("rate", help="asymptotic code rate and encoder parameters")
    add_system(p)
    p.add_argument("-e", "--epsilon", type=float, default=None,
                   help="also pick (ell, m) within this rate gap")
    p.set_defaults(func=_cmd_rate)

    p = sub.add_parser("rank", help="position of an irreducible word in its length class")
    p.add_argument("-w", "--word", required=True)
    add_system(p)
    p.add_argument("--dna", action="store_true", help="read the word as ACGT (q=4)")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("unrank", help="irreducible word at a given position")
    p.add_argument("-n", type=int, required=True, help="word length")
    p.add_argument("-j", required=True, help="1-indexed position")
    add_system(p)
    p.add_argument("--dna", action="store_true", help="write the word as ACGT (q=4)")
    p.set_defaults(func=_cmd_unrank)

    for name, fn in (("encode", _cmd_encode), ("decode", _cmd_decode)):
        p = sub.add_parser(name, help=f"{name} a message stream")
        p.add_argument("--mode", choices=("fse", "code"), default=None,
                       required=(name == "encode"))
        add_system(p, required=(name == "encode"))
        p.add_argument("-e", "--epsilon", type=float, default=None,
                       help="pick fse parameters for this rate gap")
        p.add_argument("--ell", type=int, default=None, help="message digits per block (fse)")
        p.add_argument("--m", type=int, default=None, help="encoder state length (fse)")
        p.add_argument("-n", type=int, default=None, help="codeword length (code)")
        p.add_argument("-i", "--input", default="-", help="input file, - for stdin")
        p.add_argument("-o", "--output", default="-", help="output file, - for stdout")
        p.add_argument("--dna", action="store_true", help="render strands as ACGT (q=4)")
        p.add_argument("--digits", action="store_true",
                       help="treat the message as base-q digit text (fse)")
        p.set_defaults(func=fn)

    p = sub.add_parser("channel", help="apply random tandem duplications to each strand")
    p.add_argument("-t", type=int, required=True, help="duplications per strand")
    p.add_argument("--seed", type=int, default=0)
    add_system(p, required=False)
    p.add_argument("--dna", action="store_true")
    p.add_argument("-i", "--input", default="-", help="input file, - for stdin")
    p.add_argument("-o", "--output", default="-", help="output file, - for stdout")
    p.set_defaults(func=_cmd_channel)

    p = sub.add_parser("verify", help="cross-check fast implementations against brute force")
    p.add_argument("--scope", choices=("counts", "delta", "roots", "all"), default="all")
    add_system(p)
    p.add_argument("-n", type=int, default=8, help="maximum word length")
    p.add_argument("--depth", type=int, default=3, help="duplications per root sample")
    p.add_argument("--samples", type=int, default=50,
                   help=f"root samples, 1 to {_MAX_SAMPLES}")
    p.add_argument("--budget", type=int, default=2_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2
    except TandemCodeError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
