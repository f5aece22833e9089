"""Seeded operation lists for the benchmark workloads.

A run's operations are a fixed list, made before the run starts and run to
its end, as a list of rounds. Every round has the same composition: the same
commands, the same sizes and the same number of operations, whatever the
seed. Each operation slot takes its parameter L from successive seeded
permutations of its own value set, and the number of rounds is a multiple of
every set's length, so a run holds the same operations whatever the seed and
the seed picks only their order. The exception is `verify-rational`, whose
seed draws a distinct L for every operation.

The number of rounds follows from `--seconds` and the workload's nominal round
time, never from the time measured, so the same arguments give the same list
on any host and every run fails exactly the same operations.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

Round = list[list[str]]

#: op_tail_ms needs at least this many operations in a run.
MIN_OPS = 40

#: Integer L; L = 1 (the Fibonacci case) is one of them.
INT_L = tuple(Fraction(k) for k in range(1, 9))

#: Small non-integer L, three of them below 1.
RATIONAL_L = tuple(Fraction(t) for t in ("1/3", "1/2", "3/4", "4/3", "3/2", "7/3", "5/2", "9/4"))

MIXED_L = INT_L + RATIONAL_L

#: L >= 1 for the passing quad operations: the weight has no atom there.
QUAD_L = tuple(Fraction(t) for t in ("1", "2", "3", "5", "8", "4/3", "3/2", "7/3"))

#: quad inputs with L < 1. They do not depend on the seed: every one of them
#: fails today because the weight omits the atom (1 - L) delta_0, so the
#: computed moment 0 is 2L instead of L + 1. The CLI reports that as status
#: mismatch, exit code 2.
KNOWN_FAULT_QUAD = (
    ["quad", "--L", "1/2", "--format", "json"],
    ["quad", "--L", "1/10", "--format", "json"],
)
KNOWN_FAULT_EXIT = 2

#: Row lengths of verify-int, one operation each per round. Neighbouring
#: lengths differ little in cost and the whole set about threefold, so the
#: median operation sits in an even spread of costs, not on the edge or in
#: the middle of one narrow cluster.
VERIFY_INT_N = tuple(range(14, 22))
VERIFY_RATIONAL_N = 21
VERIFY_RATIONAL_BELOW_ONE = 3
VERIFY_RATIONAL_ABOVE_ONE = 3
#: Two-digit numerators and denominators: thousands of distinct L of similar bit size.
RATIONAL_DIGITS = (10, 99)
#: (n, value set) per recurrence slot.
RECURRENCE_SLOTS = ((30, INT_L), (33, RATIONAL_L), (36, INT_L), (38, RATIONAL_L), (40, INT_L))
QUAD_PER_ROUND = 3


def _json(*argv: object) -> list[str]:
    return [str(arg) for arg in argv] + ["--format", "json"]


def _cycle(rng: random.Random, values: tuple) -> Iterator:
    """Successive seeded permutations of values."""
    while True:
        yield from rng.sample(values, len(values))


def verify_int(rng: random.Random) -> Iterator[Round]:
    """One integer L per row length and round; L repeats within and across rounds."""
    slots = [(n, _cycle(rng, INT_L)) for n in VERIFY_INT_N]
    while True:
        ops = [_json("verify", "--L", next(values), "--n-max", n) for n, values in slots]
        rng.shuffle(ops)
        yield ops


def verify_rational(rng: random.Random) -> Iterator[Round]:
    """A distinct two-digit p/q per operation; no L is used twice in a run."""
    used: set[Fraction] = set()
    lo, hi = RATIONAL_DIGITS

    def draw(below_one: bool) -> Fraction:
        while True:
            L = Fraction(rng.randint(lo, hi), rng.randint(lo, hi))
            if L.denominator >= lo and (L < 1) == below_one and L not in used:
                used.add(L)
                return L

    while True:
        values = [draw(True) for _ in range(VERIFY_RATIONAL_BELOW_ONE)]
        values += [draw(False) for _ in range(VERIFY_RATIONAL_ABOVE_ONE)]
        rng.shuffle(values)
        yield [_json("verify", "--L", L, "--n-max", VERIFY_RATIONAL_N) for L in values]


def recurrence(rng: random.Random) -> Iterator[Round]:
    """recurrence --method both at n = 30..40, integer and rational L alternating."""
    slots = [(n, _cycle(rng, values)) for n, values in RECURRENCE_SLOTS]
    while True:
        ops = [_json("recurrence", "--L", next(values), "--n", n, "--method", "both") for n, values in slots]
        rng.shuffle(ops)
        yield ops


def crosscheck(rng: random.Random) -> Iterator[Round]:
    """The cheap exact routes, the series and the quadrature; no determinant.

    Sizes keep every printed value under Python's 4300-digit int-to-str
    limit (L <= 8 at n = 90 gives about 3700 digits).
    """
    closed, poly, product = _cycle(rng, INT_L), _cycle(rng, RATIONAL_L), _cycle(rng, INT_L)
    series = {which: _cycle(rng, MIXED_L) for which in ("G", "F", "rho")}
    quad = _cycle(rng, QUAD_L)
    while True:
        ops = [
            _json("hankel", "--L", next(closed), "--n", 90, "--method", "closed"),
            _json("hankel", "--L", next(poly), "--n", 60, "--method", "poly"),
            _json("hankel", "--L", next(product), "--n", 70, "--method", "product"),
            _json("series", "--L", next(series["G"]), "--terms", 80, "--which", "G"),
            _json("series", "--L", next(series["F"]), "--terms", 60, "--which", "F"),
            _json("series", "--L", next(series["rho"]), "--terms", 80, "--which", "rho"),
        ]
        ops += [_json("quad", "--L", next(quad), "--moments", 12) for _ in range(QUAD_PER_ROUND)]
        ops += [list(argv) for argv in KNOWN_FAULT_QUAD]
        rng.shuffle(ops)
        yield ops


@dataclass(frozen=True)
class Workload:
    make: Callable[[random.Random], Iterator[Round]]
    #: Nominal seconds of one round on the reference host; sets the round count.
    round_s: float
    #: Rounds after which every slot has used each value of its set equally often.
    pass_rounds: int


WORKLOADS = {
    "verify-int": Workload(verify_int, 0.85, len(INT_L)),
    "verify-rational": Workload(verify_rational, 1.7, 1),
    "recurrence": Workload(recurrence, 0.9, len(INT_L)),
    "crosscheck": Workload(crosscheck, 0.52, len(MIXED_L)),
}


def plan(workload: str, seed: int, seconds: float) -> list[Round]:
    """The run's rounds, a pure function of the workload name, the seed and --seconds.

    The round count is an even multiple of the workload's pass, so a traced
    run can alternate untraced and traced rounds, and gives at least MIN_OPS
    operations.
    """
    spec = WORKLOADS[workload]
    step = math.lcm(spec.pass_rounds, 2)
    source = spec.make(random.Random(f"{workload}:{seed}"))
    rounds = [next(source) for _ in range(step * max(1, round(seconds / (spec.round_s * step))))]
    while sum(map(len, rounds)) < MIN_OPS:
        rounds += [next(source) for _ in range(step)]
    return rounds
