"""Acceptance gate: one test per stated criterion, at the stated tolerances.

Each test times itself and reports one PASS/FAIL line in the terminal
summary (see conftest.pytest_terminal_summary).
"""

from __future__ import annotations

import math
import random
import time
from contextlib import contextmanager

import pytest

import reference as ref
from conftest import record_criterion, walk_extensions
from tdcode import (
    CodeSpec,
    DupSystem,
    FseCodec,
    FseParams,
    RootOracle,
    Word,
    asymptotic_rate,
    choose_params,
    code_size,
    count_irr,
    decode_codeword,
    delta_min_degree,
    encode_codeword,
    enumerate_irr_bruteforce,
    min_outdegree_bruteforce,
    rank_irr,
    random_descendant,
    root,
    unrank_irr,
)
from tdcode.cli import main as cli_main
from tdcode.oracle import OracleBudget, all_descendants

S32 = DupSystem(3, 2)
S33 = DupSystem(3, 3)
S42 = DupSystem(4, 2)
S43 = DupSystem(4, 3)


@contextmanager
def criterion(num: int, name: str, budget_seconds: float):
    start = time.perf_counter()
    passed = False
    try:
        yield
        passed = True
    finally:
        elapsed = time.perf_counter() - start
        detail = f"budget {budget_seconds:.0f}s" if elapsed <= budget_seconds else (
            f"OVER TIME BUDGET {budget_seconds:.0f}s"
        )
        record_criterion(num, name, passed and elapsed <= budget_seconds,
                         elapsed, detail)
        assert elapsed <= budget_seconds, (
            f"criterion {num} exceeded its {budget_seconds:.0f}s runtime budget"
        )


def test_criterion_01_counting_table():
    with criterion(1, "counting table", 5):
        assert [count_irr(n, S32) for n in range(2, 7)] == [6, 12, 18, 30, 48]


def test_criterion_02_rate_table():
    # four-decimal reference values; some truncate the last digit (e.g.
    # (4,2) 0.724992 -> 0.7249) and some round it (e.g. (6,2) 0.878757 ->
    # 0.8788), so agreement is only guaranteed to one unit in that place
    expected = {
        (3, 2): 0.4380, (4, 2): 0.7249, (5, 2): 0.8280,
        (6, 2): 0.8788, (7, 2): 0.9081, (8, 2): 0.9269,
        (3, 3): 0.3479, (4, 3): 0.7054, (5, 3): 0.8208,
        (6, 3): 0.8753, (7, 3): 0.9062, (8, 3): 0.9258,
    }
    with criterion(2, "reference rate table", 5):
        for (q, k), value in expected.items():
            sys_ = DupSystem(q, k)
            got = asymptotic_rate(sys_).rate
            assert abs(got - value) < 1e-4, (q, k, got)
            # pin the rate exactly: the exact counts' growth ratio has
            # converged to lam by n = 400, independently of _growth_factor
            growth = math.log(count_irr(401, sys_) / count_irr(400, sys_), q)
            assert abs(got - growth) <= 1e-9, (q, k, got, growth)


def test_criterion_03_ranking_worked_example():
    with criterion(3, "ranking worked example", 5):
        assert unrank_irr(6, 40, S32) == Word.from_string("202101", 3)
        assert rank_irr(Word.from_string("202101", 3), S32) == 40
        assert unrank_irr(3, 10, S32) == Word.from_string("202", 3)


def test_criterion_04_fse_worked_example():
    expected_rows = {
        "010": ["201", "210", "212"],
        "012": ["010", "012", "021", "101", "102"],
        "020": ["102", "120", "121"],
        "021": ["012", "020", "021", "201", "202"],
        "101": ["201", "202", "210"],
        "102": ["010", "012", "101", "102", "120"],
        "120": ["102", "120", "121", "210", "212"],
        "121": ["012", "020", "021"],
        "201": ["020", "021", "201", "202", "210"],
        "202": ["101", "102", "120"],
        "210": ["120", "121", "201", "210", "212"],
        "212": ["010", "012", "021"],
    }
    params = FseParams(S32, ell=1, m=3)
    with criterion(4, "encoder worked example", 5):
        states = [unrank_irr(3, j, S32) for j in range(1, count_irr(3, S32) + 1)]
        assert len(states) == len(expected_rows) == 12
        for state in states:
            # the rows by brute force, and as the encoder's walk lists them
            row = [str(x) for x in ref.extensions(state, 3, S32)]
            assert row == expected_rows[str(state)], state
            assert [str(x) for x in walk_extensions(state, 3, S32)] == row, state
            assert len(row) in (3, 5)
        assert delta_min_degree(3, S32) == 3
        codec = FseCodec(params)
        assert str(codec.start_state) == "010"
        strand = codec.encode_values([0, 1, 2])
        assert str(strand) == "201021021"
        assert codec.decode_values(strand) == [0, 1, 2]


def test_criterion_05_oracle_equivalence():
    with criterion(5, "brute-force enumeration equivalence", 120):
        for sys_, nmax in ((S32, 10), (S33, 10), (S42, 8), (S43, 8)):
            for n in range(1, nmax + 1):
                brute = enumerate_irr_bruteforce(n, sys_)
                total = count_irr(n, sys_)
                assert total == len(brute), (sys_, n)
                ranks = [rank_irr(x, sys_) for x in brute]
                assert sorted(ranks) == list(range(1, total + 1)), (sys_, n)
                for r, x in zip(ranks, brute):
                    assert unrank_irr(n, r, sys_) == x
                by_rank = [x for _, x in sorted(zip(ranks, brute))]
                _assert_defined_order(by_rank, n, sys_)


def _assert_defined_order(by_rank: list[Word], n: int, sys_: DupSystem) -> None:
    """The defined order: lexicographic base classes, then suffix-shape
    blocks (one per bijection branch) in branch order."""
    base_len = 3 if sys_.k == 2 else 5
    if n <= base_len:
        assert by_rank == sorted(by_rank, key=lambda x: x.symbols)
        return
    q = sys_.q
    if sys_.k == 2:
        split = (q - 2) * count_irr(n - 1, sys_)
        assert all(x.symbols[-1] != x.symbols[-3] for x in by_rank[:split])
        assert all(x.symbols[-1] == x.symbols[-3] for x in by_rank[split:])
        return
    b1 = (q - 2) * count_irr(n - 1, sys_)
    b2 = (q - 3) * count_irr(n - 2, sys_)
    assert all(x.symbols[-1] != x.symbols[-4] for x in by_rank[:b1])
    assert all(x.symbols[-1] == x.symbols[-4] for x in by_rank[b1:])
    for x in by_rank[b1 + b2:]:
        s = x.symbols
        assert (s[-6] == s[-4] and s[-2] == s[-5]) or (
            s[-6] != s[-4] and s[-2] == s[-6]
        )
    for x in by_rank[b1:b1 + b2]:
        s = x.symbols
        assert not ((s[-6] == s[-4] and s[-2] == s[-5]) or (
            s[-6] != s[-4] and s[-2] == s[-6]
        ))


def test_criterion_06_min_degree_vs_bruteforce():
    cases = [(2, 3, 3), (2, 3, 4), (2, 3, 5), (2, 4, 3), (3, 3, 5), (3, 3, 6), (3, 4, 5)]
    with criterion(6, "minimum degree vs brute force", 120):
        for k, q, m in cases:
            sys_ = DupSystem(q, k)
            assert delta_min_degree(m, sys_) == min_outdegree_bruteforce(m, sys_), (k, q, m)
        # the recorded closed form for the longest k=3 window disagrees with
        # the exhaustive count; exhaustive wins
        for q in (3, 4):
            sys_ = DupSystem(q, 3)
            for m in (5, 6):
                assert ref.delta_closed_form(m, sys_) == delta_min_degree(m, sys_), (q, m)
            assert ref.delta_closed_form(7, sys_) != delta_min_degree(7, sys_), q
        assert delta_min_degree(7, S33) == min_outdegree_bruteforce(7, S33) == 9
        assert ref.delta_closed_form(7, S33) == 471


def test_criterion_07_root_uniqueness_and_channel_robustness():
    with criterion(7, "root uniqueness and noisy decoding", 180):
        rng = random.Random(20260819)
        budget = OracleBudget(max_words=4_000_000, max_depth=12)
        for sys_ in (S32, S33):
            oracle = RootOracle(sys_, budget)
            for _ in range(100):
                n = rng.randint(1, 8)
                x = unrank_irr(n, rng.randint(1, count_irr(n, sys_)), sys_)
                for y in all_descendants(x, 3, sys_, budget):
                    assert oracle.roots(y) == {x}
                    assert root(y, sys_) == x
        spec = CodeSpec(S32, 8)
        size = code_size(8, S32)
        for _ in range(1000):
            j = rng.randint(1, size)
            c = encode_codeword(j, spec)
            y, _events = random_descendant(c, 100, S32, rng.getrandbits(48))
            assert decode_codeword(y, spec) == j


def test_criterion_08_parameter_guarantees():
    with criterion(8, "encoder parameter guarantees", 30):
        for q, k in ((3, 2), (4, 3)):
            sys_ = DupSystem(q, k)
            rate = asymptotic_rate(sys_).rate
            chosen = []
            for eps in (0.2, 0.1, 0.05, 0.02):
                params = choose_params(eps, sys_)
                assert q**params.ell <= delta_min_degree(params.m, sys_)
                assert params.ell / params.m + 1e-12 >= rate - eps
                chosen.append((eps, params.ell, params.m))
            # shrinking the gap never shrinks the encoder, and growth stays
            # within C/eps for a constant fitted over the sweep
            for (_, l1, m1), (_, l2, m2) in zip(chosen, chosen[1:]):
                assert l2 >= l1 and m2 >= m1
            c_ell = max(eps * ell for eps, ell, _ in chosen)
            c_m = max(eps * m for eps, _, m in chosen)
            for eps, ell, m in chosen:
                assert ell <= c_ell / eps + 1e-9
                assert m <= c_m / eps + 1e-9
            # the fitted constants themselves stay small
            assert c_ell <= 3 and c_m <= 3


def test_criterion_09_rate_convergence():
    with criterion(9, "rate convergence at length 500", 15):
        empirical = math.log(count_irr(500, S32), 3) / 500
        assert abs(empirical - 0.4380) <= 0.005


def test_criterion_10_end_to_end_file(tmp_path):
    with criterion(10, "file round trip through noisy channel", 60):
        payload = random.Random(99).randbytes(1024)
        src = tmp_path / "payload.bin"
        src.write_bytes(payload)
        enc = tmp_path / "encoded.txt"
        noisy = tmp_path / "noisy.txt"
        out = tmp_path / "decoded.bin"
        assert cli_main(["encode", "--mode", "code", "-q", "4", "-k", "3",
                         "-n", "64", "-i", str(src), "-o", str(enc)]) == 0
        assert cli_main(["channel", "-t", "20", "--seed", "7",
                         "-i", str(enc), "-o", str(noisy)]) == 0
        assert noisy.read_text() != enc.read_text()
        assert cli_main(["decode", "-i", str(noisy), "-o", str(out)]) == 0
        assert out.read_bytes() == payload
