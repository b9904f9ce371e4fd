"""One benchmark phase in a fresh process.

    python3 perfbench/worker.py --workload W --seed N --phase cold|warm \
        --dir ROUND_DIR --spawned T --lifeline FD [--references FILE] \
        [--trace]

Run from the root of a checkout.  ``--spawned`` is the parent's
``time.perf_counter()`` just before it started this process (the clock
is system-wide), so set-up time counts interpreter start-up too.  The
phase's figures go to ``ROUND_DIR/<phase>.json``; the cold phase also
writes ``ROUND_DIR/manifest.json`` for the warm phase, and a traced
phase writes its spans to ``ROUND_DIR/<phase>-trace.json``.  ``FD`` is
the read end of a pipe whose write end only the parent holds: the
process group is killed as soon as the parent exits.  ``FILE`` keeps
the interpreter references of a run: a cold phase reads the ones an
earlier round stored there and adds the ones it had to compute.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import signal
import sys
import threading
import time
from pathlib import Path

perf_counter = time.perf_counter


def hold_lifeline(fd: int) -> None:
    """Kill this process group (this process and every shard or fleet
    process it forked) as soon as the parent's end of the pipe ``fd``
    closes: the parent has exited, however it exited."""
    def watch() -> None:
        try:
            while os.read(fd, 1):
                pass
        except OSError:
            pass
        os.killpg(os.getpgrp(), signal.SIGKILL)

    threading.Thread(target=watch, name="lifeline", daemon=True).start()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--phase", choices=("cold", "warm"), required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--lifeline", type=int, required=True)
    parser.add_argument("--references")
    args = parser.parse_args(argv)
    hold_lifeline(args.lifeline)

    round_dir = Path(args.dir)
    cache_dir = round_dir / "models"
    # Anything that falls back to the shared default cache stays inside
    # the round directory too.
    os.environ["REPRO_MODEL_CACHE"] = str(cache_dir)
    sys.path.insert(0, str(Path.cwd() / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    tracer = None
    if args.trace:
        from tracer import Tracer, count_gc
        tracer = Tracer()
        count_gc(tracer)
    started = perf_counter()
    import repro  # noqa: F401  (the import is what is timed)
    from repro.cuttlesim.cache import ModelCache
    import_s = perf_counter() - started
    if tracer is not None:
        from tracer import install
        install(tracer)
        tracer.count("process.import_s", import_s)

    import checks
    from workloads import WORKLOAD_CLASSES, Meter, References

    meter = Meter(tracer)
    references = References(Path(args.references) if args.references
                            else None)
    # The cold phase uses the cache as shipped.  The warm phase keeps every
    # model resident, so each distinct model costs exactly one disk lookup.
    cache = ModelCache(cache_dir) if args.phase == "cold" \
        else ModelCache(cache_dir, memory_slots=4096)
    workload = WORKLOAD_CLASSES[args.workload](args.seed, cache, meter,
                                               tracer, references)
    # Collect the set-up garbage now, as part of set-up, so that where the
    # collector's full passes land in the measured work does not depend on
    # how much the seed's inputs happened to allocate.
    gc.collect()
    setup_s = perf_counter() - args.spawned

    if args.phase == "cold":
        manifest = workload.cold()
        (round_dir / "manifest.json").write_text(json.dumps(manifest))
        references.save()
    else:
        manifest = json.loads((round_dir / "manifest.json").read_text())
        workload.warm(manifest)
        with meter.op("warm-cache"):
            checks.check_warm_cache("warm process", cache.stats.as_dict(),
                                    len(list(cache_dir.glob("*.json"))))

    stats = cache.stats.as_dict()
    meter.value("cache.hits", stats["hits"])
    meter.value("cache.misses", stats["misses"])
    result = meter.result()
    result.update(setup_s=setup_s, import_s=import_s)
    (round_dir / f"{args.phase}.json").write_text(json.dumps(result))
    if tracer is not None:
        dump = tracer.dump()
        for name, amount in meter.values.items():
            dump["counts"][name] = dump["counts"].get(name, 0) + amount
        (round_dir / f"{args.phase}-trace.json").write_text(json.dumps(dump))
    return 0


if __name__ == "__main__":
    sys.exit(main())
