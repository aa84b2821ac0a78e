"""Request lists of the three benchmark workloads, generated from a seed.

A request is one argument vector for ``sumrank.cli.run``.  ``requests(name,
seed)`` returns a workload's request list; the same seed always gives the same
list.  The ``tiny`` scale gives the same request shapes on instances small
enough for the self-test.  Why each workload exists is written in README.md.
"""

from __future__ import annotations

import random
from collections import Counter

WORKLOADS = ("curve", "montecarlo", "queries")

# -- curve --------------------------------------------------------------------
# A bounded-block curve and a growing-block curve, each below its acceptance
# size (n=2048 takes 5-7.5 s, ell=32 ~99 s).  At about 1 s per request a
# 30 s run fits a dozen rounds instead of three or four, so the median over
# its rounds rests on more samples.
_CURVES = {
    "full": [
        "curve-sp-gv --q 2 --m 16 --eta 8 --n 1024 --grid 64",
        "curve-sp-gv --q 16 --m 32 --eta 32 --ell 8 --grid 64 --asym-mode xi",
    ],
    "tiny": [
        "curve-sp-gv --q 2 --m 4 --eta 2 --ell 8 --grid 8",
        "curve-sp-gv --q 4 --m 4 --eta 4 --ell 2 --grid 8 --asym-mode xi",
    ],
}

# -- montecarlo ----------------------------------------------------------------
# (job name, CLI flags without --seed, trials).  msrd-f4096 is the largest
# field on the log-table path (order <= 4096), msrd-f8192 the smallest on the
# raw multiplication path; msrd-f729 has odd characteristic, where `add` goes
# through decode/encode; mindist-f16 enumerates every codeword.  Each job
# takes about 1 s as many small trials: a trial that is not MSRD stops early,
# so a few large trials make a job's work swing with the seed.
MONTECARLO_JOBS = {
    "full": [
        ("msrd-f4096", "--q 2 --m 12 --eta 3 --ell 2 --k 3", 200),
        ("msrd-f8192", "--q 2 --m 13 --eta 3 --ell 2 --k 3", 48),
        ("msrd-f729", "--q 3 --m 6 --eta 2 --ell 3 --k 3", 160),
        ("mindist-f16", "--q 2 --m 4 --eta 2 --ell 3 --k 2 --predicate mindist --d 4", 150),
    ],
    "tiny": [
        ("msrd-f4096", "--q 2 --m 12 --eta 2 --ell 2 --k 2", 2),
        ("msrd-f8192", "--q 2 --m 13 --eta 2 --ell 2 --k 2", 1),
        ("msrd-f729", "--q 3 --m 6 --eta 2 --ell 2 --k 2", 2),
        ("mindist-f16", "--q 2 --m 4 --eta 2 --ell 2 --k 1 --predicate mindist --d 2", 2),
    ],
}

# -- queries -------------------------------------------------------------------
# 48 parameter sets, more than the 32 entries of volume_table's cache, so a
# skewed stream both hits and misses.  Bounded-block sets: q in {2,3,4},
# eta <= 8, ell 16..128.  Growing-shaped sets: q=16, m=eta=32, ell 1..6; from
# ell=4 up their largest balls exceed 4,300 decimal digits, the int->str limit
# that `volume` trips over.  The list is sorted by (q, m, eta, ell); it says
# nothing about popularity.
POOL = [
    (2, 2, 2, 128), (2, 3, 3, 128), (2, 4, 4, 16), (2, 4, 4, 32), (2, 4, 4, 64),
    (2, 4, 4, 128), (2, 5, 5, 48), (2, 5, 5, 96), (2, 6, 3, 96), (2, 6, 6, 32),
    (2, 6, 6, 64), (2, 6, 6, 128), (2, 7, 7, 24), (2, 8, 4, 32), (2, 8, 8, 16),
    (2, 8, 8, 32), (2, 8, 8, 48), (2, 8, 8, 64), (2, 16, 8, 16), (2, 16, 8, 32),
    (3, 2, 2, 128), (3, 3, 3, 64), (3, 3, 3, 96), (3, 4, 4, 16), (3, 4, 4, 32),
    (3, 4, 4, 64), (3, 5, 5, 32), (3, 6, 6, 16), (3, 6, 6, 32), (3, 8, 4, 48),
    (3, 8, 8, 16), (4, 3, 3, 48), (4, 3, 3, 96), (4, 4, 2, 128), (4, 4, 4, 16),
    (4, 4, 4, 32), (4, 4, 4, 64), (4, 5, 5, 24), (4, 6, 6, 16), (4, 6, 6, 32),
    (4, 8, 4, 32), (4, 8, 8, 16), (16, 32, 32, 1), (16, 32, 32, 2), (16, 32, 32, 3),
    (16, 32, 32, 4), (16, 32, 32, 5), (16, 32, 32, 6),
]
# The access trace: each set's popularity rank and the order in which the
# requests arrive come from one fixed shuffle, the same for every seed and
# blind to table cost.  The seed draws only the requests' arguments (d and
# k, and which of a set's fixed radii goes where), so every seed hits and
# misses the volume cache in the same places; with a seeded order the cost of the table builds alone varied by
# 11% (interquartile range over median, 20 seeds).  The Zipf exponent and the
# request mix are assumptions, not measured traffic; README.md says so.
TRACE_KEY = "queries/trace"

_TINY_POOL = [(2, 2, 2, 2), (2, 2, 2, 3), (3, 2, 2, 2), (2, 3, 2, 2), (4, 2, 2, 2), (2, 2, 2, 4)]

QUERIES_PER_ROUND = {"full": 1000, "tiny": 24}
# bounds --d, volume --radius, genericity, mmin
_MIX = (("bounds", 35), ("volume", 20), ("genericity", 30), ("mmin", 15))
_ZIPF_S = 1.0
# The exact BR upper bound is an alternating sum of q^m-binomials: n=64 with
# q^m <= 2^16 takes ~0.03 s, but n=128 takes ~4 s and so does q=16, m=32, n=64.
_BR_UPPER_MAX_N = 64
_BR_UPPER_MAX_QM = 2**16


def _flags(q, m, eta, ell):
    return f"--q {q} --m {m} --eta {eta} --ell {ell}"


def _query(rng: random.Random, kind: str, params, radii: dict) -> str:
    q, m, eta, ell = params
    top = ell * min(m, eta)
    n = ell * eta
    if kind == "bounds":
        return f"bounds {_flags(*params)} --d {rng.randint(1, top)}"
    if kind == "volume":
        return f"volume {_flags(*params)} --radius {radii[params].pop()}"
    if kind == "genericity":
        extra = " --with-br-upper" if n <= _BR_UPPER_MAX_N and q**m <= _BR_UPPER_MAX_QM else ""
        return f"genericity {_flags(*params)} --k {rng.randint(1, top)}{extra}"
    return f"mmin --q {q} --n {n} --k {rng.randint(1, n - 1)}"


def _apportion(weights, total: int) -> list[int]:
    """Split `total` in proportion to `weights` (largest remainders, ties to the first)."""
    shares = [total * w / sum(weights) for w in weights]
    counts = [int(x) for x in shares]
    by_remainder = sorted(range(len(weights)), key=lambda i: counts[i] - shares[i])
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    return counts


def _queries(seed: int, scale: str) -> list[str]:
    """A round has a fixed number of requests per parameter set (Zipf) and,
    within a set, per request kind, in a fixed order; the seed draws d and k
    and shuffles each set's fixed radii."""
    fixed = random.Random(TRACE_KEY)
    pool = list(POOL if scale == "full" else _TINY_POOL)
    fixed.shuffle(pool)
    kinds, kind_weights = zip(*_MIX)
    per_set = _apportion([1 / rank**_ZIPF_S for rank in range(1, len(pool) + 1)], QUERIES_PER_ROUND[scale])
    pairs = [
        (kind, params)
        for params, count in zip(pool, per_set)
        for kind, n in zip(kinds, _apportion(kind_weights, count))
        for _ in range(n)
    ]
    fixed.shuffle(pairs)
    rng = random.Random(f"queries/{seed}")
    volumes = Counter(params for kind, params in pairs if kind == "volume")
    radii = {params: rng.sample(_spread_radii(params, n), n) for params, n in volumes.items()}
    return [_query(rng, kind, params, radii) for kind, params in pairs]


def _spread_radii(params, count: int) -> list[int]:
    """The midpoints of `count` equal slices of [0, ell*mu].

    The radii are the same for every seed (the seed only shuffles them among
    the set's requests), so the `volume` requests that hit the int->str limit
    are the same ones for every seed and every run fails the same number."""
    q, m, eta, ell = params
    top = ell * min(m, eta)
    return [(2 * j + 1) * (top + 1) // (2 * count) for j in range(count)]


def job_seed(seed: int, job: str) -> int:
    """Monte-Carlo --seed of one job, derived from the workload seed."""
    return random.Random(f"montecarlo/{seed}/{job}").getrandbits(32)


def requests(name: str, seed: int, scale: str = "full") -> list[tuple[str, str]]:
    """The request list of workload ``name``: (label, argv string) pairs."""
    if name == "curve":
        return [("curve", argv) for argv in _CURVES[scale]]
    if name == "montecarlo":
        return [
            (job, f"montecarlo {flags} --trials {trials} --seed {job_seed(seed, job)}")
            for job, flags, trials in MONTECARLO_JOBS[scale]
        ]
    if name == "queries":
        return [(argv.split()[0], argv) for argv in _queries(seed, scale)]
    raise ValueError(f"unknown workload {name!r}")


def work_items(name: str, argv: str) -> int:
    """Units of work in one request: curve grid points, Monte-Carlo trials, or 1."""
    words = argv.split()
    if name == "curve":
        return int(words[words.index("--grid") + 1])
    if name == "montecarlo":
        return int(words[words.index("--trials") + 1])
    return 1
