"""Each benchmark check must catch a planted wrong value, and every run
must reap the processes it starts.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import os
import select
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import inputs
import workloads
from checks import CheckFailed
from tracer import Tracer

ROOT = Path(__file__).resolve().parents[2]


@contextlib.contextmanager
def time_limit(seconds: float):
    """Fail, rather than hang, a test whose forked processes stop
    answering.  Forked children do not inherit the timer."""
    def expire(_signum, _frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# -- the plain-Python references ----------------------------------------------

def test_references_agree_with_the_golden_model():
    from repro.riscv import assemble
    from repro.riscv import programs as p
    from repro.riscv.golden import GoldenModel

    cases = [
        ("primes", {"limit": 60}, p.primes_source(60)),
        ("crc32", {"words": [1, 2, 0xDEADBEEF]},
         p.crc32_source((1, 2, 0xDEADBEEF))),
        ("sort", {"values": [5, 3, 900, 0]}, p.sort_source((5, 3, 900, 0))),
        ("gcd", {"pairs": [(270, 192), (35, 64)]},
         p.gcd_chain_source(((270, 192), (35, 64)))),
        ("branchy", {"iterations": 250}, p.branchy_source(250)),
        ("matmul", {"n": 5}, p.matmul_source(5)),
    ]
    for kind, params, source in cases:
        golden = GoldenModel(assemble(source)).run(10_000_000)
        assert checks.program_reference(kind, params) == golden, kind


def test_seeded_inputs_repeat_and_differ():
    assert inputs.rv32_inputs(3) == inputs.rv32_inputs(3)
    assert inputs.rv32_inputs(3) != inputs.rv32_inputs(4)
    assert inputs.tier_inputs(3) == inputs.tier_inputs(3)
    assert inputs.sweep_inputs(3) == inputs.sweep_inputs(3)


# -- rv32-programs checks ---------------------------------------------------------

def _run_core(program, backend="cuttlesim"):
    from repro.designs import build_rv32i, make_core_env
    from repro.harness import make_simulator

    env = make_core_env(program)
    sim = make_simulator(build_rv32i(), backend, env=env)
    device = env.devices[0]
    sim.run_until(lambda _s: device.halted, max_cycles=200_000)
    return sim, device


def test_off_by_one_tohost_is_caught():
    from repro.riscv import assemble
    from repro.riscv.golden import GoldenModel
    from repro.riscv.programs import gcd_chain_source

    pairs = [(270, 192), (1071, 462)]
    program = assemble(gcd_chain_source(tuple(pairs)))
    _sim, device = _run_core(program)
    golden = GoldenModel(program).run()
    reference = checks.gcd_sum(pairs)
    checks.check_tohost("gcd", device.tohost, golden, reference)
    with pytest.raises(CheckFailed, match="TOHOST"):
        checks.check_tohost("gcd", device.tohost + 1, golden, reference)
    with pytest.raises(CheckFailed, match="golden"):
        checks.check_tohost("gcd", device.tohost, golden + 1, reference)


def test_tohost_cycle_mismatch_is_caught():
    from repro.riscv import assemble
    from repro.riscv.programs import branchy_source

    program = assemble(branchy_source(20))
    fast, _ = _run_core(program)
    rtl, _ = _run_core(program, "rtl-cycle")
    checks.check_same_cycle("branchy", fast.cycle, rtl.cycle)
    with pytest.raises(CheckFailed, match="cycle"):
        checks.check_same_cycle("branchy", fast.cycle, rtl.cycle + 1)


def test_interpreter_prefix_mismatch_is_caught():
    from repro.designs import build_rv32i, make_core_env
    from repro.harness import make_simulator
    from repro.riscv import assemble
    from repro.riscv.programs import primes_source

    program = assemble(primes_source(20))
    design = build_rv32i()
    fast = make_simulator(design, "cuttlesim", env=make_core_env(program))
    ref = make_simulator(design, "interp", env=make_core_env(program))
    fast.run(60)
    ref.run(60)
    checks.check_states("prefix", fast.state_dict(), ref.state_dict())
    fast.poke("rf_10", fast.peek("rf_10") ^ 1)
    with pytest.raises(CheckFailed, match="rf_10"):
        checks.check_states("prefix", fast.state_dict(), ref.state_dict())


# -- parallel-tiers checks --------------------------------------------------------

def _msi(cycles):
    from repro.designs import make_msi
    from repro.harness import make_simulator
    from repro.shard import ShardedSimulator

    design = make_msi(4, 16, traffic=6)
    scalar = make_simulator(design, "cuttlesim")
    scalar.run(cycles)
    return design, scalar, ShardedSimulator(design, 2, mode="local")


def test_poked_register_in_sharded_state_is_caught():
    _design, scalar, sharded = _msi(300)
    with sharded:
        sharded.run(300)
        checks.check_states("shard", sharded.state_dict(),
                            scalar.state_dict())
        sharded.poke("c2_data_5", sharded.peek("c2_data_5") ^ 0x40)
        with pytest.raises(CheckFailed, match="c2_data_5"):
            checks.check_states("shard", sharded.state_dict(),
                                scalar.state_dict())


def test_two_m_owners_and_m_with_sharer_are_caught():
    _design, scalar, sharded = _msi(400)
    sharded.close()
    state = scalar.state_dict()
    checks.check_msi_exclusive("msi", state, 4, 16)
    for other in (checks.MSI_M, checks.MSI_S):
        planted = dict(state)
        for core in range(4):
            planted[f"c{core}_state_9"] = 0
        planted["c1_state_9"] = checks.MSI_M
        planted["c3_state_9"] = other
        with pytest.raises(CheckFailed, match="line 9"):
            checks.check_msi_exclusive("msi", planted, 4, 16)


def test_stuck_done_counter_is_caught_and_wrap_is_not():
    before = {f"c{core}_done": 65535 for core in range(4)}
    after = {f"c{core}_done": 0 for core in range(4)}
    checks.check_done_advances("msi", before, after, 4)  # wrapped: moved
    after["c2_done"] = 65535
    with pytest.raises(CheckFailed, match="core 2"):
        checks.check_done_advances("msi", before, after, 4)


def test_batch_lane_differing_from_its_fleet_trial_is_caught():
    from repro.designs import build_dsp
    from repro.harness.lockstep import lockstep_sweep, per_process_baseline

    design = build_dsp()
    lanes = lockstep_sweep(design, 4, 30, batch=4, seed=7).observations
    with time_limit(60):
        fleet = per_process_baseline(design, 4, 30, seed=7,
                                     workers=1).observations
    checks.check_lanes_match_fleet("dsp", lanes, fleet)
    lanes[2] = dict(lanes[2], snk_sum=lanes[2]["snk_sum"] + 1)
    with pytest.raises(CheckFailed, match="trial 2"):
        checks.check_lanes_match_fleet("dsp", lanes, fleet)


def test_wrong_collatz_lane_is_caught():
    from repro.designs import build_collatz
    from repro.harness.lockstep import lane_pokes, lockstep_sweep

    design = build_collatz()
    lanes = lockstep_sweep(design, 4, 50, batch=4, seed=11).observations
    starts = [lane_pokes(design, 11 + t)["x"] for t in range(4)]
    finals = [lane["x"] for lane in lanes]
    checks.check_collatz_lanes("collatz", starts, 50, finals)
    finals[1] += 2
    with pytest.raises(CheckFailed, match="trial 1"):
        checks.check_collatz_lanes("collatz", starts, 50, finals)


# -- compile-sweep checks ---------------------------------------------------------

def test_warm_load_that_misses_is_caught(tmp_path):
    from repro.cuttlesim.cache import ModelCache
    from repro.cuttlesim.codegen import compile_model
    from repro.designs import build_collatz, build_dsp

    designs = [build_collatz(), build_dsp()]
    cold = ModelCache(tmp_path)
    for design in designs:
        compile_model(design, opt=5, cache=cold)
    entries = len(list(tmp_path.glob("*.json")))
    warm = ModelCache(tmp_path)
    for design in designs:
        compile_model(design, opt=5, cache=warm)
    checks.check_warm_cache("warm", warm.stats.as_dict(), entries)

    missing = ModelCache(tmp_path)
    compile_model(designs[0], opt=5, cache=missing)
    compile_model(designs[1], opt=4, cache=missing)  # never stored: a miss
    with pytest.raises(CheckFailed, match="misses"):
        checks.check_warm_cache("warm", missing.stats.as_dict(), entries)
    short = ModelCache(tmp_path)
    compile_model(designs[0], opt=5, cache=short)
    with pytest.raises(CheckFailed, match="disk hits"):
        checks.check_warm_cache("warm", short.stats.as_dict(), entries)


# -- the meter, the tracer and process hygiene --------------------------------

def test_meter_counts_failures_and_mismatches_apart():
    meter = workloads.Meter()
    with meter.op("fine"):
        pass
    with meter.op("wrong"):
        raise CheckFailed("planted")
    with meter.op("broken"):
        raise RuntimeError("planted")
    assert (meter.attempted, meter.failed) == (3, 1)
    assert meter.mismatches == ["planted"]


def test_repeated_labels_keep_their_own_figures():
    meter = workloads.Meter()
    for seconds in (0.5, 0.25):
        with meter.op("dsp/fleet"):
            meter.ops[meter.label]["trial_s:fleet"] += seconds
    assert meter.ops["dsp/fleet"]["trial_s:fleet"] == 0.5
    assert meter.ops["dsp/fleet #2"]["trial_s:fleet"] == 0.25


def test_each_operation_counts_at_its_best_repeat():
    import run

    phases = [{"ops": {"a": {"turnaround": 2.0, "cycles:rtl": 10},
                       "b": {"turnaround": 1.0}}},
              {"ops": {"a": {"turnaround": 3.0, "cycles:rtl": 10},
                       "b": {"turnaround": 0.5}}}]
    best = run.best_of(phases)
    assert run.total(best, "turnaround") == 2.5
    assert run.per_second([best], "cycles:rtl", "turnaround") == 4.0


def test_references_are_computed_once_per_run(tmp_path):
    path = tmp_path / "references.json"
    first = workloads.References(path)
    assert first.get("msi4/prefix", lambda: {"r": 7}) == {"r": 7}
    first.save()
    second = workloads.References(path)
    assert second.get("msi4/prefix", lambda: pytest.fail("recomputed")) \
        == {"r": 7}


def test_self_time_excludes_children_and_hot_hooks():
    tracer = Tracer()
    outer = tracer.begin("outer")
    inner = tracer.begin("inner")
    tracer.end(inner)
    tracer.hot(0.25, "hook_s", "hook_calls")
    tracer.end(outer)
    span_outer, span_inner = tracer.spans
    span_outer[1], span_outer[2] = 0.0, 1.0
    span_inner[1], span_inner[2] = 0.2, 0.5
    span_outer[5] = 0.3 + 0.25
    own = tracer.self_times()
    assert own["inner"] == pytest.approx(0.3)
    assert own["outer"] == pytest.approx(0.45)
    assert tracer.counts["hook_calls"] == 1
    assert tracer.under("inner", "outer") == pytest.approx(0.3)


def test_shard_workers_are_reaped_when_a_check_fails(monkeypatch, tmp_path):
    """A planted mismatch inside the sharded leg ends that operation; its
    forked shard workers (and the fleet's) must be gone afterwards."""
    from repro.cuttlesim.cache import ModelCache

    monkeypatch.setattr(inputs, "MSI_STEPS", 4)
    monkeypatch.setattr(inputs, "MSI_CHECKPOINT", 500)
    monkeypatch.setattr(inputs, "MSI_RTL_CYCLES", 500)
    monkeypatch.setattr(inputs, "TIER_TRIALS", 4)
    monkeypatch.setattr(inputs, "TIER_BATCH", 4)
    monkeypatch.setattr(inputs, "TIER_CYCLES", {"collatz": 40, "dsp": 20})
    original = checks.check_states

    def planted(label, got, want):
        if label.startswith("msi4/shard @"):
            got = dict(got, c0_data_0=got["c0_data_0"] ^ 1)
        original(label, got, want)

    monkeypatch.setattr(checks, "check_states", planted)
    meter = workloads.Meter()
    tiers = workloads.ParallelTiers(5, ModelCache(tmp_path), meter)
    with time_limit(120):
        tiers.cold()
    assert any("msi4/shard @" in m for m in meter.mismatches)
    assert meter.failed == 0
    assert multiprocessing.active_children() == []


def test_worker_group_dies_with_its_parent():
    """Closing the parent's end of the lifeline kills the worker's whole
    process group, the worker's own forked child included."""
    lifeline, keep = os.pipe()
    # Every process of the group holds a copy of ``alive``: EOF on
    # ``watch`` means that all of them have ended, reaped or not.
    watch, alive = os.pipe()
    script = (
        "import os, sys, time\n"
        f"sys.path.insert(0, {str(ROOT / 'perfbench')!r})\n"
        "import worker\n"
        f"worker.hold_lifeline({lifeline})\n"
        "if os.fork() == 0:\n"
        "    time.sleep(60)\n"
        "    os._exit(0)\n"
        "print('forked', flush=True)\n"
        "time.sleep(60)\n")
    process = subprocess.Popen([sys.executable, "-c", script],
                               stdout=subprocess.PIPE, text=True,
                               start_new_session=True,
                               pass_fds=(lifeline, alive))
    os.close(lifeline)
    os.close(alive)
    try:
        assert process.stdout.readline() == "forked\n"
        os.close(keep)
        keep = None
        assert process.wait(timeout=30) == -signal.SIGKILL
        ready, _, _ = select.select([watch], [], [], 30)
        assert ready and os.read(watch, 1) == b"", \
            "the forked child outlived its process group"
    finally:
        if keep is not None:
            os.close(keep)
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
        os.close(watch)
        process.stdout.close()


def test_run_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    done = subprocess.run(
        command + ["--workload", "parallel-tiers", "--seed", "1",
                   "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_benchmark_json_lists_every_printed_metric():
    import run

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] \
        == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] \
        == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(inputs.WORKLOADS)
