"""What every workload module shares: the job record and the seeded
input schedule."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable


@dataclass
class Job:
    """One closed-loop request.

    run(tr) makes every call into combinlab through the tracer `tr` and
    returns an outcome dict: "view" (JSON-able, hashed into the output
    digest), "queries" (oracle queries answered), and where they apply
    "decide_calls", "target_size" and "ratio" (heuristic over optimum).
    check(outcome) compares the outcome with the benchmark's references
    and raises refs.CheckFailed on a mismatch.  `key` describes the
    generated input; it is hashed into the input digest.  A traced run
    also calls aside(tracer, job_id), when given, outside the job's time.
    """

    kind: str
    key: str
    run: Callable
    check: Callable
    aside: Callable | None = None


def rng_for(seed: int, index: int) -> random.Random:
    return random.Random(f"{seed}:{index}")


LEVELS = 5


def size_at(lo: int, hi: int, rnd: int, slot: int) -> int:
    """Size for job `slot` of round `rnd`.

    Sizes do not depend on the seed, so runs with different seeds do the
    same amount of work; the seed picks the contents.  Each slot steps
    through LEVELS geometrically spaced sizes from lo to hi in a scrambled
    order, offset per slot so that one round does not get every largest
    size at once.  Any LEVELS consecutive rounds cover every level.
    """
    frac = ((rnd * 2 + slot) % LEVELS) / (LEVELS - 1)
    return round(lo * (hi / lo) ** frac)
