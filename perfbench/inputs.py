"""Workload inputs, derived from the benchmark seed alone.

Every generator takes ``random.Random(f"{workload}:{seed}")``, so the
same seed gives the same programs, scripts, pokes and trial seeds in
every process (the cold and warm phases rebuild them independently).
Sizes are fixed; the seed picks data values and program order, which
keeps the amount of simulated work nearly the same across seeds.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

DEFAULT_SEED = 1

WORKLOADS = ("rv32-programs", "compile-sweep", "parallel-tiers")

# -- rv32-programs ------------------------------------------------------------

#: Cores of the program workload; rv32im also runs matmul.
RV32_CORES = ("rv32i", "rv32i-bp", "rv32i-mc", "rv32im")
#: matmul size (n <= 11: the assembler overlaps ``mat_b`` with ``mat_a``
#: from 12 on).
MATMUL_N = 8
#: Cycles of each run that are checked against the interpreter.
RV32_PREFIX = 240
#: The sharded leg: the dual core on K=2 workers repeats its first runs,
#: compared with the scalar state every RV32_CHECKPOINT cycles.
RV32_SHARD_CORE = "rv32i-mc"
RV32_SHARD_RUNS = 3
RV32_CHECKPOINT = 2000
#: Batched/fleet leg: rv32i lanes, each running its own gcd program.
RV32_LANES = 12
RV32_LANE_CYCLES = 1200
RV32_LANE_STEPS = 32


def _subtraction_steps(a: int, b: int) -> int:
    steps = 0
    while a != b:
        if a > b:
            a -= b
        else:
            b -= a
        steps += 1
    return steps


def gcd_pairs(rng: random.Random, steps: int) -> List[Tuple[int, int]]:
    """Pairs whose subtraction-Euclid step counts add up to ``steps`` or
    just past it, so the program's length hardly depends on the seed."""
    pairs: List[Tuple[int, int]] = []
    total = 0
    while total < steps:
        a, b = rng.randint(20, 400), rng.randint(20, 400)
        cost = _subtraction_steps(a, b)
        if cost <= 24:
            pairs.append((a, b))
            total += cost + 2
    return pairs


def program_mix(rng: random.Random, matmul: bool) -> List[Tuple[str, Dict]]:
    mix = [
        ("primes", {"limit": rng.randint(32, 34)}),
        ("crc32", {"words": [rng.getrandbits(32) for _ in range(6)]}),
        ("sort", {"values": [rng.randrange(1000) for _ in range(12)]}),
        ("gcd", {"pairs": gcd_pairs(rng, 130)}),
        ("branchy", {"iterations": rng.randint(120, 130)}),
    ]
    if matmul:
        mix.append(("matmul", {"n": MATMUL_N}))
    rng.shuffle(mix)
    return mix


def rv32_inputs(seed: int) -> Dict:
    rng = random.Random(f"rv32-programs:{seed}")
    cores = {}
    for core in RV32_CORES:
        if core == "rv32i-mc":
            cores[core] = {"c0_": program_mix(rng, False),
                           "c1_": program_mix(rng, False)}
        else:
            cores[core] = {"": program_mix(rng, core == "rv32im")}
    lanes = [[("gcd", {"pairs": gcd_pairs(rng, RV32_LANE_STEPS)})]
             for _ in range(RV32_LANES)]
    return {"cores": cores, "lanes": lanes}


# -- compile-sweep --------------------------------------------------------------

#: Designs compiled at O5 only, and without the RTL build.
SWEEP_O5_ONLY = ("msi8-traffic",)
#: Designs left out of the sweep (msi8-traffic stands in for both 8-core
#: systems).
SWEEP_SKIP = ("msi8",)
#: The sharded leg: msi4 on K=2 workers, advanced this many cycles after
#: each design of the sweep.
SWEEP_SHARD_DESIGN = "msi4"
SWEEP_SHARD_SLICE = 300
#: The batched/fleet legs: one sweep of this many trials after each
#: design, alternating between the two designs.
SWEEP_TIER_DESIGNS = ("collatz", "dsp")
SWEEP_TRIALS = 8
SWEEP_TIER_CYCLES = {"collatz": 1200, "dsp": 160}


def sweep_inputs(seed: int) -> Dict:
    rng = random.Random(f"compile-sweep:{seed}")
    return {
        "cycles": 120 + rng.randrange(16),
        "words": [rng.getrandbits(32) for _ in range(4)],
        "text": "".join(rng.choice("abcdefghij") for _ in range(6)),
        "bytes": [rng.getrandbits(8) for _ in range(3)],
        "sample": (rng.getrandbits(16) | 1, rng.getrandbits(16)),
        "msi_script": [(core, rng.choice(("read", "write")), rng.randrange(4),
                        rng.getrandbits(16)) for core in (0, 1, 0, 1)],
        "msi4_script": [(core, rng.choice(("read", "write")),
                         rng.randrange(16), rng.getrandbits(16))
                        for core in (0, 1, 2, 3, 3, 2, 1, 0)],
        "trial_seed": rng.randrange(1 << 20),
    }


# -- parallel-tiers -----------------------------------------------------------

MSI_CORES = 4
MSI_LINES = 16
#: Shared-access rarity of the traffic generators (one in 2**6 issues).
MSI_TRAFFIC = 6
#: The scalar and sharded runs stop at MSI_STEPS checkpoints, MSI_CHECKPOINT
#: cycles apart; rtl-cycle covers MSI_RTL_CYCLES in equal slices.
MSI_STEPS = 16
MSI_CHECKPOINT = 2000
MSI_RTL_CYCLES = 4000
MSI_PREFIX = 150
SHARDS = 2
#: Trials of one batched or fleet sweep; the steps alternate
#: collatz-batch, collatz-fleet, dsp-batch, dsp-fleet.
TIER_TRIALS = 32
TIER_BATCH = 32
TIER_CYCLES = {"collatz": 1500, "dsp": 200}
WORKERS = 2

#: Rounds per run, at the least.  Each end-to-end figure takes every
#: operation at its best over the run's repeats of it, so the two
#: workloads whose rounds are short repeat them; one compile-sweep round
#: is a minute of work on its own.
MIN_ROUNDS = {"rv32-programs": 3, "compile-sweep": 1, "parallel-tiers": 3}
#: Fresh warm processes per round.
WARM_PROCESSES = {"rv32-programs": 1, "compile-sweep": 2,
                  "parallel-tiers": 1}


def tier_inputs(seed: int) -> Dict:
    rng = random.Random(f"parallel-tiers:{seed}")
    return {
        "lfsr": [rng.randrange(1, 1 << 16) for _ in range(MSI_CORES)],
        "trial_seed": {name: rng.randrange(1 << 20) for name in TIER_CYCLES},
    }
