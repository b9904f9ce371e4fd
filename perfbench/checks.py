"""Output checks, computed apart from the compiled models.

Every reference here is plain Python over the benchmark's own inputs
(a prime sieve, ``zlib.crc32``, ``sorted``, ``math.gcd``, a matrix
product, the Collatz map), so a bug shared by the compiler and a
simulator cannot hide in them.  Each check raises :class:`CheckFailed`
with the first difference it finds.
"""

from __future__ import annotations

import math
import struct
import zlib
from typing import Mapping, Sequence

MASK32 = 0xFFFFFFFF

#: The MSI enum's encoding (``repro.designs.msi.MSI``: I, S, M).
MSI_S, MSI_M = 1, 2


class CheckFailed(AssertionError):
    """A program output differs from its independent reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Plain-Python references for the RV32 program mix.
# ---------------------------------------------------------------------------

def primes_below(limit: int) -> int:
    sieve = [True] * max(limit, 2)
    sieve[0] = sieve[1] = False
    for i in range(2, int(limit ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = [False] * len(sieve[i * i::i])
    return sum(sieve[:limit])


def crc32_words(words: Sequence[int]) -> int:
    return zlib.crc32(struct.pack(f"<{len(words)}I", *words)) & MASK32


def sort_checksum(values: Sequence[int]) -> int:
    return sum(value + 4 * index
               for index, value in enumerate(sorted(values))) & MASK32


def gcd_sum(pairs: Sequence[Sequence[int]]) -> int:
    return sum(math.gcd(a, b) for a, b in pairs) & MASK32


def branchy_acc(iterations: int) -> int:
    acc = 0
    for i in range(iterations):
        acc += 3 if i & 1 else 1
        if i & 3 == 0:
            acc <<= 1
        acc &= MASK32
    return acc


def matmul_trace(n: int) -> int:
    a = [[i * n + j + 1 for j in range(n)] for i in range(n)]
    b = [[((i + 2) * (j + 1)) % 17 for j in range(n)] for i in range(n)]
    product = [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
               for i in range(n)]
    return sum(product[i][i] for i in range(n)) & MASK32


REFERENCES = {
    "primes": lambda p: primes_below(p["limit"]),
    "crc32": lambda p: crc32_words(p["words"]),
    "sort": lambda p: sort_checksum(p["values"]),
    "gcd": lambda p: gcd_sum(p["pairs"]),
    "branchy": lambda p: branchy_acc(p["iterations"]),
    "matmul": lambda p: matmul_trace(p["n"]),
}


def program_reference(kind: str, params: Mapping) -> int:
    return REFERENCES[kind](params)


def collatz(start: int, steps: int, width: int = 32) -> int:
    """``steps`` applications of the Collatz map, in ``width`` bits."""
    mask = (1 << width) - 1
    x = start
    for _ in range(steps):
        x = (x >> 1) if x & 1 == 0 else (3 * x + 1) & mask
    return x


# ---------------------------------------------------------------------------
# Checks.
# ---------------------------------------------------------------------------

def check_tohost(label: str, got, golden: int, reference: int) -> None:
    """A program's TOHOST value against the golden ISA model and the
    plain-Python reference (which must agree with each other too)."""
    require(golden == reference,
            f"{label}: golden model {golden} != plain-Python reference "
            f"{reference}")
    require(got == reference,
            f"{label}: TOHOST {got} != reference {reference}")


def check_same_cycle(label: str, cuttlesim_cycle: int, rtl_cycle: int) -> None:
    require(cuttlesim_cycle == rtl_cycle,
            f"{label}: Cuttlesim reached TOHOST at cycle {cuttlesim_cycle}, "
            f"rtl-cycle at {rtl_cycle}")


def check_states(label: str, got: Mapping[str, int],
                 want: Mapping[str, int]) -> None:
    """Register-for-register equality; reports the first difference."""
    if got == want:
        return
    for name in want:
        if got.get(name) != want[name]:
            raise CheckFailed(f"{label}: register {name} = {got.get(name)} "
                              f"!= {want[name]}")
    extra = sorted(set(got) - set(want))
    raise CheckFailed(f"{label}: unexpected registers {extra[:5]}")


def check_msi_exclusive(label: str, state: Mapping[str, int], n_cores: int,
                        n_lines: int) -> None:
    """No line is M in one core while it is M or S in another."""
    for line in range(n_lines):
        owners = [core for core in range(n_cores)
                  if state[f"c{core}_state_{line}"] == MSI_M]
        sharers = [core for core in range(n_cores)
                   if state[f"c{core}_state_{line}"] == MSI_S]
        require(not owners or (len(owners) == 1 and not sharers),
                f"{label}: line {line} is M in cores {owners} and S in "
                f"cores {sharers}")


def check_done_advances(label: str, before: Mapping[str, int],
                        after: Mapping[str, int], n_cores: int) -> None:
    """Every core's 16-bit ``done`` counter moved (modulo its wrap)."""
    for core in range(n_cores):
        name = f"c{core}_done"
        require((after[name] - before[name]) % (1 << 16) != 0,
                f"{label}: core {core} completed nothing "
                f"({name} stuck at {after[name]})")


def check_lanes_match_fleet(label: str, lanes: Sequence, fleet: Sequence) -> None:
    require(len(lanes) == len(fleet),
            f"{label}: {len(lanes)} batch lanes but {len(fleet)} fleet trials")
    for trial, (lane, solo) in enumerate(zip(lanes, fleet)):
        check_states(f"{label} trial {trial}", lane, solo)


def check_collatz_lanes(label: str, starts: Sequence[int], cycles: int,
                        finals: Sequence[int]) -> None:
    for trial, (start, final) in enumerate(zip(starts, finals)):
        want = collatz(start, cycles)
        require(final == want,
                f"{label} trial {trial}: x = {final} after {cycles} steps "
                f"from {start}, plain Python gives {want}")


def check_warm_cache(label: str, stats: Mapping[str, int],
                     disk_entries: int) -> None:
    """The warm process hit the disk once per stored model, missed none."""
    require(stats["misses"] == 0,
            f"{label}: {stats['misses']} cache misses on a warm load")
    require(stats["disk_hits"] == disk_entries,
            f"{label}: {stats['disk_hits']} disk hits for {disk_entries} "
            f"stored models")

