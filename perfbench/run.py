"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload rv32-programs --seed 1 \
        --seconds 20 --trace 0

Run it from the root of a checkout.  Each *round* runs the workload in
fresh processes (``worker.py``) over one new model-cache directory: the
cold phase compiles from the empty cache, runs every operation and
checks its outputs; the warm phase loads the same models from disk.
Rounds repeat until ``--seconds`` have passed, and at least
``inputs.MIN_ROUNDS`` times.  Every round performs the same operations,
and each end-to-end figure sums, over the operations, the operation's
best (lowest) time among its repeats in the run.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds (at least one of each), prints the per-layer
metrics of the traced rounds plus ``trace.overhead_s``, and writes the
spans of every traced process to one Chrome trace-event file,
``.perfbench/trace-<workload>-seed<seed>.json``.

The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from tracer import Tracer, chrome_events  # noqa: E402

perf_counter = time.perf_counter

END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("turnaround_s", "s"),
    ("compile_s", "s"),
    ("warm_load_s", "s"),
    ("cuttlesim_cycles_per_s", "cycles/s"),
    ("rtl_cycles_per_s", "cycles/s"),
    ("shard_cycles_per_s", "cycles/s"),
    ("batch_trials_per_s", "trials/s"),
    ("fleet_trials_per_s", "trials/s"),
    ("peak_rss_mb", "MB"),
]

#: The non-lowering entries of ``repro.cuttlesim.passes.PASSES``.
PASS_NAMES = ("rwset-separation", "log-accumulation", "reset-on-failure",
              "state-merge", "register-classification", "early-fail",
              "const-guard-prune", "read-check-dedup")

PER_LAYER: List[Tuple[str, str]] = [
    ("process.import_s", "s"),
    ("process.gc_s", "s"),
    ("process.gc_collections", "count"),
    ("koika.elaborate_s", "s"),
    ("analysis.analyze_s", "s"),
    ("analysis.dataflow_s", "s"),
    ("analysis.safe_registers", "count"),
    ("passes.lower_s", "s"),
    *[(f"passes.{name}_s", "s") for name in PASS_NAMES],
    ("passes.ir_stmts", "count"),
    ("codegen.emit_s", "s"),
    ("codegen.host_compile_s", "s"),
    ("codegen.source_lines", "count"),
    ("cache.key_s", "s"),
    ("cache.lookup_s", "s"),
    ("cache.store_s", "s"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("model.construct_s", "s"),
    ("model.run_s", "s"),
    ("model.cycles", "count"),
    ("env.device_s", "s"),
    ("env.device_calls", "count"),
    ("rtl.lower_s", "s"),
    ("rtl.build_s", "s"),
    ("rtl.netlist_nodes", "count"),
    ("rtl.run_s", "s"),
    ("shard.partition_s", "s"),
    ("shard.compile_s", "s"),
    ("shard.run_s", "s"),
    ("shard.clean_cycles", "count"),
    ("shard.replay_cycles", "count"),
    ("shard.worker_busy_s", "s"),
    ("shard.critical_s", "s"),
    ("shard.coordinator_s", "s"),
    ("batch.compile_s", "s"),
    ("batch.run_s.collatz", "s"),
    ("batch.run_s.dsp", "s"),
    ("batch.run_s.rv32i", "s"),
    ("fleet.wall_s", "s"),
    ("fleet.trial_busy_s", "s"),
    ("fleet.overhead_s", "s"),
    ("interp.run_s", "s"),
    ("interp.cycles", "count"),
    ("trace.overhead_s", "s"),
]

#: A run must end within this many seconds, whatever ``--seconds`` says.
HARD_LIMIT_S = 170.0


class PhaseError(RuntimeError):
    pass


def run_phase(workload: str, seed: int, phase: str, round_dir: Path,
              traced: bool, deadline: float,
              references: Optional[Path] = None) -> Dict:
    """Run one phase in a fresh process group; reap it on every path."""
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", workload, "--seed", str(seed),
               "--phase", phase, "--dir", str(round_dir)]
    if traced:
        command.append("--trace")
    if references is not None:
        command += ["--references", str(references)]
    # One fixed hash seed: the outputs never depend on it, but the run time
    # of code that iterates over sets and dicts of strings (the shard
    # partitioner, for one) does.
    env = dict(os.environ, PYTHONHASHSEED="0")
    # The worker holds the read end of this pipe and ends its own process
    # group when the write end closes, so it cannot outlive this process
    # even when this process is killed outright.
    lifeline, keep = os.pipe()
    command += ["--lifeline", str(lifeline)]
    command += ["--spawned", repr(perf_counter())]
    try:
        process = subprocess.Popen(command, stdout=sys.stderr, env=env,
                                   start_new_session=True,
                                   pass_fds=(lifeline,))
    except BaseException:
        os.close(keep)
        raise
    finally:
        os.close(lifeline)
    try:
        code = process.wait(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        raise PhaseError(f"{phase} phase of {workload} ran past the "
                         f"{HARD_LIMIT_S:.0f} s limit") from None
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
        os.close(keep)
    if code != 0:
        raise PhaseError(f"{phase} phase of {workload} exited with {code}")
    return json.loads((round_dir / f"{phase}.json").read_text())


def best_of(phases: List[Dict]) -> Dict[str, Dict[str, float]]:
    """Each operation's figures at their best over the phases that
    repeat it: the lowest time, and the count (the same in every
    repeat).  Another process on the machine can only make an operation
    slower, so the lowest of its repeats is the steadiest estimate of
    what it costs."""
    samples: Dict[str, Dict[str, List[float]]] = defaultdict(
        lambda: defaultdict(list))
    for phase in phases:
        for label, figures in phase["ops"].items():
            for key, value in figures.items():
                samples[label][key].append(value)
    return {label: {key: min(values) for key, values in figures.items()}
            for label, figures in samples.items()}


def total(ops: Dict[str, Dict[str, float]], key: str) -> float:
    return sum(figures.get(key, 0.0) for figures in ops.values())


def per_second(ops_sets: List[Dict], count: str, seconds: str) -> float:
    amount = sum(total(ops, count) for ops in ops_sets)
    elapsed = sum(total(ops, seconds) for ops in ops_sets)
    return amount / elapsed if elapsed else 0.0


def turnaround(rounds: List[Dict]) -> float:
    """The best cold turnaround plus the best warm one, per operation."""
    return total(best_of([r["cold"] for r in rounds]), "turnaround") \
        + total(best_of([warm for r in rounds for warm in r["warm"]]),
                "turnaround")


def end_to_end(rounds: List[Dict]) -> Dict[str, float]:
    colds = [r["cold"] for r in rounds]
    warms = [warm for r in rounds for warm in r["warm"]]
    cold, warm = best_of(colds), best_of(warms)
    both = [cold, warm]
    return {
        "setup_s": colds[0]["setup_s"],
        "turnaround_s": total(cold, "turnaround") + total(warm, "turnaround"),
        "compile_s": total(cold, "compile"),
        "warm_load_s": total(warm, "warm"),
        "cuttlesim_cycles_per_s": per_second(both, "cycles:cuttlesim",
                                             "run_s:cuttlesim"),
        "rtl_cycles_per_s": per_second(both, "cycles:rtl", "run_s:rtl"),
        "shard_cycles_per_s": per_second(both, "cycles:shard",
                                         "run_s:shard"),
        "batch_trials_per_s": per_second(both, "trials:batch",
                                         "trial_s:batch"),
        "fleet_trials_per_s": per_second(both, "trials:fleet",
                                         "trial_s:fleet"),
        "peak_rss_mb": max(p["maxrss_kb"] for p in colds + warms) / 1024.0,
    }


def per_layer(dumps: List[Tuple[Dict, Dict]]) -> Dict[str, float]:
    """Per-layer figures of the traced rounds (mean per round)."""
    totals: Dict[str, float] = {name: 0.0 for name, _unit in PER_LAYER}
    for round_dumps in dumps:
        for dump in round_dumps:
            tracer = Tracer()
            tracer.spans = dump["spans"]
            own = tracer.self_times()
            incl = tracer.inclusive_times()
            counts = dump["counts"]
            figures = {
                "process.import_s": counts.get("process.import_s", 0.0),
                "koika.elaborate_s": incl.get("koika.elaborate", 0.0),
                "analysis.analyze_s": own.get("analysis.analyze", 0.0),
                "analysis.dataflow_s": own.get("analysis.dataflow", 0.0),
                "passes.lower_s": own.get("passes.lower", 0.0),
                "codegen.emit_s": own.get("codegen.generate_source", 0.0),
                "codegen.host_compile_s":
                    own.get("codegen.compile_model", 0.0),
                "cache.key_s": own.get("cache.key", 0.0),
                "cache.lookup_s": own.get("cache.lookup", 0.0),
                "cache.store_s": own.get("cache.store", 0.0),
                "model.construct_s": own.get("model.construct", 0.0),
                "model.run_s": own.get("model.run", 0.0),
                "rtl.lower_s": own.get("rtl.lower", 0.0),
                "rtl.build_s": own.get("rtl.build", 0.0),
                "rtl.run_s": own.get("rtl.run", 0.0),
                "shard.partition_s": incl.get("shard.partition", 0.0),
                "shard.compile_s": tracer.under("codegen.compile_model",
                                                "shard.construct"),
                "shard.run_s": incl.get("shard.run", 0.0),
                "batch.compile_s": incl.get("batch.compile", 0.0),
                "interp.run_s": own.get("interp.run", 0.0),
            }
            for name in PASS_NAMES:
                figures[f"passes.{name}_s"] = own.get(f"passes.{name}", 0.0)
            figures["shard.coordinator_s"] = \
                figures["shard.run_s"] - counts.get("shard.critical_s", 0.0)
            for name in totals:
                if name in figures:
                    totals[name] += figures[name]
                elif name in counts:
                    totals[name] += counts[name]
    return {name: value / max(1, len(dumps)) for name, value in totals.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="perfbench: end-to-end and per-layer benchmark")
    parser.add_argument("--workload", required=True,
                        choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = perf_counter()
    deadline = started + HARD_LIMIT_S
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no repro sources under src/ here; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    # A traced run needs an untraced and a traced round within the time
    # limit, so each of its rounds has one warm process.
    warm_processes = 1 if args.trace else \
        inputs.WARM_PROCESSES[args.workload]
    min_rounds = 1 if args.trace else inputs.MIN_ROUNDS[args.workload]
    work = root / ".perfbench" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    rounds: List[Dict] = []
    try:
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            round_dir = work / f"round{len(rounds)}"
            round_dir.mkdir(parents=True)
            round_started = perf_counter()
            # A traced round computes its own references, so that the
            # interpreter's layer shows in its trace.
            references = None if traced else work / "references.json"
            record = {"traced": traced,
                      "cold": run_phase(args.workload, args.seed, "cold",
                                        round_dir, traced, deadline,
                                        references),
                      "warm": [run_phase(args.workload, args.seed, "warm",
                                         round_dir, traced, deadline)
                               for _ in range(warm_processes)]}
            if traced:
                record["dumps"] = tuple(
                    json.loads((round_dir / f"{phase}-trace.json")
                               .read_text()) for phase in ("cold", "warm"))
            shutil.rmtree(round_dir / "models", ignore_errors=True)
            rounds.append(record)
            now = perf_counter()
            need_traced = args.trace and not any(r["traced"] for r in rounds)
            if now - started >= args.seconds and not need_traced \
                    and len(rounds) >= min_rounds:
                break
            # Never start a round that could not finish in time.
            if now + 1.5 * (now - round_started) > deadline \
                    and not need_traced:
                break
    except PhaseError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    phases = [phase for r in rounds for phase in [r["cold"], *r["warm"]]]
    for phase in phases:
        for message in phase["errors"] + phase["mismatches"]:
            print(f"perfbench: {message}", file=sys.stderr)
    untraced = [r for r in rounds if not r["traced"]]
    # Each operation's best rate, cycles or trials per second of its own.
    for label, own in best_of([r["cold"] for r in untraced]).items():
        for key, amount in own.items():
            kind, _, tier = key.partition(":")
            seconds = own.get(("run_s:" if kind == "cycles" else "trial_s:")
                              + tier)
            if kind in ("cycles", "trials") and amount and seconds:
                print(f"perfbench: {label:32s} {amount / seconds:14.1f} "
                      f"{kind}/s", file=sys.stderr)
    if args.trace:
        traced = [r for r in rounds if r["traced"]]
        figures = per_layer([r["dumps"] for r in traced])
        figures["trace.overhead_s"] = turnaround(traced) \
            - turnaround(untraced)
        units = dict(PER_LAYER)
        events = []
        for index, record in enumerate(traced):
            for offset, phase in enumerate(("cold", "warm")):
                events += chrome_events(record["dumps"][offset],
                                        2 * index + offset + 1,
                                        f"{args.workload} {phase} #{index}")
        trace_path = root / ".perfbench" / \
            f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({"traceEvents": events,
                                          "displayTimeUnit": "ms"}))
        print(f"perfbench: trace written to {trace_path}", file=sys.stderr)
    else:
        figures = end_to_end(untraced)
        units = dict(END_TO_END)
    for name in units:
        print(f"{name:32s} {figures[name]:16.6f} {units[name]}")
    print(json.dumps({
        "correct": not any(phase["mismatches"] for phase in phases),
        "attempted": sum(phase["attempted"] for phase in phases),
        "failed": sum(phase["failed"] for phase in phases),
        "metrics": {name: {"value": figures[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
