"""Every bound of tdcode.cli._BOUNDS, probed from each flag that gives it.

PROBES maps each entry to (flag, argv of a value, that value at the bound)
triples: the command accepts the value at the bound and rejects one past
it, and for an entry with a least value it accepts that and rejects one
below.  -e gives a state length by estimate, not by its own value: its
argv asks for 1e-6, an estimate past every cap, and the in-process walk
pins the estimate to the probed value.  A value reads no input but
`-i INPUT`, an empty file, so an accepted value counts, or decodes and
duplicates nothing.

Run as a script with the path of an empty file, it prints each argv past
its bound, one a line:

    python tests/flag_probes.py empty.bin
"""

from __future__ import annotations

import sys
from itertools import count

from tdcode import OracleBudget
from tdcode.cli import MAX_WINDOWS, _BOUNDS, _window_count
from tdcode.words import DupSystem


def greatest(key: str, **given) -> int:
    high = _BOUNDS[key][2]
    return high(**given) if callable(high) else high


# the largest alphabet whose full windows the window cap admits at k = 3
Q_AT_K3 = next(q for q in count(3) if _window_count(DupSystem(q + 1, 3)) > MAX_WINDOWS)
HUGE_Q = 10**300
CODE = "--mode code -q 4 -k 2 -n {} -i INPUT"
FSE = "--mode fse -q 4 -k 3 {} -i INPUT"
VERIFY = "verify -q 3 -k 2 --scope counts -n 4 {}"

PROBES: dict[str, list[tuple[str, object, int]]] = {
    "n": [
        ("count -n", "count -q 4 -k 2 -n {}".format, greatest("n", q=4)),
        ("count -n", f"count -q {HUGE_Q} -k 2 -n {{}}".format, greatest("n", q=HUGE_Q)),
        ("unrank -n", "unrank -q 4 -k 2 -n {} -j 1".format, greatest("n", q=4)),
        ("rank -w", lambda v: "rank -q 3 -k 2 -w " + ("012" * v)[:v], greatest("n", q=3)),
        ("encode -n", ("encode " + CODE).format, greatest("n", q=4)),
        ("decode -n", ("decode " + CODE).format, greatest("n", q=4)),
        ("rate -e", lambda v: "rate -q 4 -k 3 -e 1e-6", greatest("n", q=4)),
    ],
    "m": [
        ("encode --m", lambda v: "encode " + FSE.format(f"--ell 1 --m {v}"), greatest("m", q=4)),
        ("decode --m", lambda v: "decode " + FSE.format(f"--ell 1 --m {v}"), greatest("m", q=4)),
        ("encode -e", lambda v: "encode " + FSE.format("-e 1e-6"), greatest("m", q=4)),
        ("decode -e", lambda v: "decode " + FSE.format("-e 1e-6"), greatest("m", q=4)),
    ],
    # the value is the alphabet; the entry bounds the full windows it makes
    "q": [
        ("rank -q", "rank -q {} -k 3 -w 012".format, Q_AT_K3),
        ("unrank -q", "unrank -q {} -k 3 -n 3 -j 1".format, Q_AT_K3),
        ("encode -q", "encode --mode code -q {} -k 3 -n 5 -i INPUT".format, Q_AT_K3),
        ("decode -q", "decode --mode code -q {} -k 3 -n 5 -i INPUT".format, Q_AT_K3),
        ("verify -q", "verify -q {} -k 3 -n 3 --scope counts".format, Q_AT_K3),
    ],
    "j": [("unrank -j", lambda v: "unrank -q 4 -k 2 -n 5 -j " + "1" * v, greatest("j", q=4, n=5))],
    "t": [("channel -t", "channel -q 4 -k 2 -t {} -i INPUT".format, greatest("t"))],
    "max_n": [("verify -n", "verify -q 3 -k 2 --scope counts -n {}".format, greatest("max_n"))],
    "budget": [("verify --budget", VERIFY.format("--budget {}").format,
                greatest("budget", oracle=OracleBudget()))],
    "depth": [("verify --depth", VERIFY.format("--depth {}").format,
               greatest("depth", oracle=OracleBudget()))],
    "samples": [("verify --samples", VERIFY.format("--samples {}").format, greatest("samples"))],
}


def cases(key: str, at: int) -> list[tuple[int, bool]]:
    """(value, accepted) at the bound and one past it, and at the least
    value and one below it where the entry has one."""
    least = _BOUNDS[key][1]
    return [(at, True), (at + 1, False)] + ([] if least is None else
                                            [(least, True), (least - 1, False)])


if __name__ == "__main__":
    for key, probes in PROBES.items():
        for _, argv, at in probes:
            for v, ok in cases(key, at):
                if not ok:
                    print(argv(v).replace("INPUT", sys.argv[1]))
