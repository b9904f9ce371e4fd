"""The three workloads, each as a cold phase and a warm phase.

A phase runs in its own fresh process (see ``worker.py``).  The cold
phase starts from an empty model cache, compiles, constructs and runs
every operation and checks its outputs; it leaves a manifest of what it
stored.  The warm phase, in a second fresh process, loads the same
models from that cache directory, re-runs a short prefix and checks the
cache counters.

An *operation* is one design on one backend or tier, with its input and
its output checks.  :class:`Meter` times the operations: compile,
construction and run time make up ``turnaround_s``; reference runs
(interpreter, golden ISA model, plain Python) happen outside the timed
regions.
"""

from __future__ import annotations

import json
import os
import resource
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional

import checks
import inputs
from checks import CheckFailed

perf_counter = time.perf_counter


class Meter:
    """Timings, counts and operation outcomes of one phase."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        #: operation label -> its figures: wall seconds keyed
        #: ``turnaround`` (every compile, construction and run),
        #: ``compile``, ``warm`` (cache loads), ``run_s:<tier>`` and
        #: ``trial_s:<tier>``, and the work done, ``cycles:<tier>`` and
        #: ``trials:<tier>``.  Every phase of a run performs the same
        #: operations under the same labels, so ``run.py`` can take each
        #: operation at its best over the phases that repeat it.
        self.ops: Dict[str, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self.values: Dict[str, float] = defaultdict(float)
        self.label = ""
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.mismatches: List[str] = []

    @contextmanager
    def op(self, label: str):
        """One operation: counts it, and records a failure or mismatch
        instead of letting it end the phase."""
        self.attempted += 1
        # A label used again in the same phase gets its ordinal, so each
        # operation keeps its own figures.
        repeat, unique = 1, label
        while unique in self.ops:
            repeat += 1
            unique = f"{label} #{repeat}"
        self.label = unique
        self.ops[unique]["turnaround"] += 0.0  # registers the label
        if self.tracer is not None:
            self.tracer.job = label
        try:
            yield
        except CheckFailed as exc:
            self.mismatches.append(str(exc))
        except Exception as exc:  # an operation failed: count it, go on
            self.failed += 1
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}\n"
                               f"{traceback.format_exc(limit=6)}")
        finally:
            if self.tracer is not None:
                self.tracer.job = ""

    def timed(self, fn: Callable, kind: str = "", tier: str = ""):
        """Call ``fn()``; charge its wall time to turnaround and to
        ``kind`` (``compile`` or ``warm``) and/or a trial ``tier``."""
        started = perf_counter()
        result = fn()
        elapsed = perf_counter() - started
        own = self.ops[self.label]
        own["turnaround"] += elapsed
        if kind:
            own[kind] += elapsed
        if tier:
            own[f"trial_s:{tier}"] += elapsed
        return result

    def run(self, tier: str, sim, fn: Callable):
        """Advance ``sim`` through ``fn()``; charge cycles and time."""
        before = sim.cycle
        started = perf_counter()
        result = fn()
        elapsed = perf_counter() - started
        own = self.ops[self.label]
        own["turnaround"] += elapsed
        own[f"run_s:{tier}"] += elapsed
        own[f"cycles:{tier}"] += sim.cycle - before
        return result

    def add_trials(self, tier: str, trials: int) -> None:
        self.ops[self.label][f"trials:{tier}"] += trials

    def value(self, name: str, amount: float) -> None:
        """A per-layer figure read from a public report object."""
        self.values[name] += amount

    def result(self) -> Dict:
        usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                    resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        return {"ops": {label: dict(own) for label, own in self.ops.items()},
                "values": dict(self.values),
                "maxrss_kb": usage,
                "attempted": self.attempted, "failed": self.failed,
                "errors": self.errors, "mismatches": self.mismatches}


class References:
    """Reference results (interpreter states) kept for a whole run.

    Every round of a run has the same inputs, so the first cold process
    that needs a reference computes it and writes it to ``path``; the
    later rounds read it back and check their own outputs against it.
    With ``path=None`` every reference is computed in the process."""

    def __init__(self, path: Optional[Path] = None) -> None:
        self.path = path
        self.known: Dict[str, object] = {}
        if path is not None and path.is_file():
            self.known = json.loads(path.read_text())
        self.added = False

    def get(self, key: str, compute: Callable):
        if key not in self.known:
            self.known[key] = compute()
            self.added = True
        return self.known[key]

    def save(self) -> None:
        if self.path is None or not self.added:
            return
        partial = self.path.with_suffix(f".tmp.{os.getpid()}")
        partial.write_text(json.dumps(self.known))
        os.replace(partial, self.path)


def advance(sim, stop: Callable, until: int) -> None:
    """Run ``sim`` until ``stop(sim)`` holds or it reaches cycle ``until``."""
    sim.run_until(lambda s: stop(s) or s.cycle >= until,
                  max_cycles=until - sim.cycle + 1)


def elaborate(tracer, builder: Callable):
    """Build and finalize a design (a ``koika.elaborate`` span when traced)."""
    index = tracer.begin("koika.elaborate") if tracer is not None else None
    try:
        design = builder()
        design.finalize()
    finally:
        if index is not None:
            tracer.end(index)
    return design


# ---------------------------------------------------------------------------
# rv32-programs
# ---------------------------------------------------------------------------

class Rv32Programs:
    """RV32 cores running a seeded program mix to TOHOST on Cuttlesim O5
    and rtl-cycle; rv32i-mc also on the sharded tier; rv32i gcd lanes on
    the batched tier and the fleet."""

    def __init__(self, seed: int, cache, meter: Meter, tracer=None,
                 references: Optional[References] = None):
        from repro.cli import DESIGNS
        from repro.riscv import assemble
        from repro.riscv import programs as p

        self.cache, self.meter, self.tracer = cache, meter, tracer
        self.references = references or References()
        self.inputs = inputs.rv32_inputs(seed)
        self.designs = {name: elaborate(tracer, DESIGNS[name])
                        for name in inputs.RV32_CORES}
        sources = {
            "primes": lambda q: p.primes_source(q["limit"]),
            "crc32": lambda q: p.crc32_source(tuple(q["words"])),
            "sort": lambda q: p.sort_source(tuple(q["values"])),
            "gcd": lambda q: p.gcd_chain_source(
                tuple(tuple(pair) for pair in q["pairs"])),
            "branchy": lambda q: p.branchy_source(q["iterations"]),
            "matmul": lambda q: p.matmul_source(q["n"]),
        }
        # core -> list of runs; a run maps a core prefix to its program.
        self.runs: Dict[str, List[Dict]] = {}
        for core, per_prefix in self.inputs["cores"].items():
            prefixes = list(per_prefix)
            count = len(per_prefix[prefixes[0]])
            self.runs[core] = [
                {prefix: (kind, params, assemble(sources[kind](params)))
                 for prefix in prefixes
                 for kind, params in [per_prefix[prefix][index]]}
                for index in range(count)]
        self.lanes = [assemble(sources[kind](params))
                      for lane in self.inputs["lanes"]
                      for kind, params in lane]
        self.lane_refs = [checks.program_reference(kind, params)
                          for lane in self.inputs["lanes"]
                          for kind, params in lane]

    @staticmethod
    def env_for(run: Dict):
        from repro.designs.rv32 import RV32MemoryDevice
        from repro.harness import Environment

        env = Environment()
        devices = [env.add_device(RV32MemoryDevice(program, prefix))
                   for prefix, (_k, _p, program) in run.items()]
        # The stop predicate runs every cycle: keep it to attribute reads.
        if len(devices) == 1:
            first = devices[0]
            return env, (lambda _s: first.tohost is not None), devices
        first, second = devices
        return env, (lambda _s: first.tohost is not None
                     and second.tohost is not None), devices

    def cold(self) -> Dict:
        from repro.cuttlesim.codegen import compile_model
        from repro.rtl import cycle_sim

        meter = self.meter
        self.golden = {}
        manifest = {"scalar": [], "prefix": {}}
        classes = {}
        for core, design in self.designs.items():
            with meter.op(f"{core}/compile"):
                classes[core] = (
                    meter.timed(lambda: compile_model(
                        design, opt=5, warn_goldberg=False,
                        cache=self.cache), "compile"),
                    meter.timed(lambda: cycle_sim.compile_cycle_sim(design),
                                "compile"))
            manifest["scalar"].append([core, 5])
        # Run i of every core on every backend, then one slice of the
        # lane legs: each tier's timings spread over the whole round.
        lanes = Rv32Lanes(self)
        steps = max(len(runs) for runs in self.runs.values())
        for index in range(steps):
            for core, runs in self.runs.items():
                if index < len(runs):
                    self.one_run(core, index, runs[index], classes.get(core),
                                 manifest)
            lanes.step(index, steps)
        lanes.finish()
        return manifest

    def one_run(self, core: str, index: int, run: Dict, classes,
                manifest: Dict) -> None:
        """Run ``index`` of ``core`` on Cuttlesim O5, rtl-cycle and, for
        the first runs of the dual core, the sharded tier."""
        meter, design = self.meter, self.designs[core]
        label = f"{core}/cuttlesim run {index}"
        checkpoints = core == inputs.RV32_SHARD_CORE \
            and index < inputs.RV32_SHARD_RUNS
        scalar = None
        with meter.op(label):
            if classes is None:
                raise RuntimeError(f"{core} did not compile")
            env, halted, devices = self.env_for(run)
            sim = meter.timed(lambda: classes[0](env))
            meter.run("cuttlesim", sim, lambda: advance(
                sim, halted, inputs.RV32_PREFIX))
            prefix_state = self.references.get(
                f"{core}/prefix {index}",
                lambda: self.interpreted_prefix(design, run))
            checks.check_states(f"{label} prefix", sim.state_dict(),
                                prefix_state)
            if index == 0:
                manifest["prefix"][core] = prefix_state
            # Runs the sharded leg repeats keep checkpoint states.
            states = {}
            while checkpoints and not halted(sim):
                until = (sim.cycle // inputs.RV32_CHECKPOINT + 1) \
                    * inputs.RV32_CHECKPOINT
                meter.run("cuttlesim", sim,
                          lambda: advance(sim, halted, until))
                states[sim.cycle] = sim.state_dict()
            meter.run("cuttlesim", sim, lambda: sim.run_until(halted))
            self.check_tohost(label, run, devices)
            scalar = {"cycle": sim.cycle, "states": states}
        label = f"{core}/rtl-cycle run {index}"
        with meter.op(label):
            if classes is None or scalar is None:
                raise RuntimeError(f"{core} run {index} has no reference")
            env, halted, devices = self.env_for(run)
            sim = meter.timed(lambda: classes[1](env))
            meter.run("rtl", sim, lambda: sim.run_until(halted))
            self.check_tohost(label, run, devices)
            checks.check_same_cycle(label, scalar["cycle"], sim.cycle)
        if checkpoints:
            self.sharded(index, run, scalar)

    def interpreted_prefix(self, design, run: Dict) -> Dict[str, int]:
        from repro.semantics.interp import Interpreter

        env, halted, _ = self.env_for(run)
        ref = Interpreter(design, env=env)
        advance(ref, halted, inputs.RV32_PREFIX)
        return ref.state_dict()

    def check_tohost(self, label: str, run: Dict, devices) -> None:
        from repro.riscv.golden import GoldenModel

        for (prefix, (kind, params, program)), device in zip(run.items(),
                                                             devices):
            key = (kind, repr(params))
            if key not in self.golden:
                self.golden[key] = GoldenModel(program).run(10_000_000)
            checks.check_tohost(f"{label} {prefix}{kind}", device.tohost,
                                self.golden[key],
                                checks.program_reference(kind, params))

    def sharded(self, index: int, run: Dict, scalar: Optional[Dict]) -> None:
        from repro.shard import ShardedSimulator

        core = inputs.RV32_SHARD_CORE
        meter, design = self.meter, self.designs[core]
        label = f"{core}/shard run {index}"
        with meter.op(label):
            if scalar is None:
                raise RuntimeError(f"{core} run {index} has no reference")
            env, halted, devices = self.env_for(run)
            sim = meter.timed(lambda: ShardedSimulator(
                design, inputs.SHARDS, env=env, cache=self.cache,
                mode="process"), "compile")
            try:
                for cycle, state in scalar["states"].items():
                    meter.run("shard", sim,
                              lambda: advance(sim, halted, cycle))
                    checks.check_states(f"{label} @{cycle}",
                                        sim.state_dict(), state)
                checks.check_same_cycle(label, scalar["cycle"], sim.cycle)
                self.check_tohost(label, run, devices)
                record_shard(meter, sim)
            finally:
                sim.close()

    def warm(self, manifest: Dict) -> None:
        from repro.cuttlesim.batch import compile_batch_model
        from repro.cuttlesim.codegen import compile_model
        from repro.shard import ShardedSimulator

        meter = self.meter
        for core, opt in manifest["scalar"]:
            with meter.op(f"{core}/warm"):
                design = self.designs[core]
                cls = meter.timed(lambda: compile_model(
                    design, opt=opt, warn_goldberg=False, cache=self.cache),
                    "warm")
                env, halted, _ = self.env_for(self.runs[core][0])
                sim = meter.timed(lambda: cls(env))
                meter.run("cuttlesim", sim, lambda: advance(
                    sim, halted, inputs.RV32_PREFIX))
                checks.check_states(f"{core}/warm prefix", sim.state_dict(),
                                    manifest["prefix"][core])
        with meter.op("rv32i/warm-tiers"):
            design = self.designs["rv32i"]
            meter.timed(lambda: compile_model(
                design, opt=2, warn_goldberg=False, cache=self.cache), "warm")
            meter.timed(lambda: compile_batch_model(
                design, len(self.lanes), cache=self.cache), "warm")
            core = inputs.RV32_SHARD_CORE
            env, _, _ = self.env_for(self.runs[core][0])
            sim = meter.timed(lambda: ShardedSimulator(
                self.designs[core], inputs.SHARDS, env=env,
                cache=self.cache, mode="local"), "warm")
            sim.close()


class Rv32Lanes:
    """rv32i lanes, each with its own memory device and gcd program, on
    one batched model and on the forked fleet (O2 scalar models).

    The batched model advances one slice of cycles per step; the fleet
    runs its trials a few per step.  Each lane must halt with the
    plain-Python gcd sum and equal its fleet trial."""

    def __init__(self, workload: Rv32Programs) -> None:
        from repro.cuttlesim.batch import compile_batch_model
        from repro.cuttlesim.codegen import compile_model

        self.workload = workload
        meter, design = workload.meter, workload.designs["rv32i"]
        self.model = self.fleet_cls = None
        self.envs = [self.lane_env(program) for program in workload.lanes]
        self.fleet: List = []
        with meter.op("rv32i/batch compile"):
            cls = meter.timed(lambda: compile_batch_model(
                design, len(self.envs), cache=workload.cache),
                "compile", "batch")
            self.model = meter.timed(
                lambda: cls(envs=[env for env, _ in self.envs]),
                tier="batch")
        with meter.op("rv32i/fleet compile"):
            self.fleet_cls = meter.timed(lambda: compile_model(
                design, opt=2, warn_goldberg=False, cache=workload.cache),
                "compile", "fleet")

    @staticmethod
    def lane_env(program):
        from repro.designs.rv32 import RV32MemoryDevice
        from repro.harness import Environment

        env = Environment()
        return env, env.add_device(RV32MemoryDevice(program))

    def step(self, index: int, steps: int) -> None:
        from repro.harness.parallel import Trial, TrialOutput, run_fleet

        meter, cycles = self.workload.meter, inputs.RV32_LANE_CYCLES
        with meter.op(f"rv32i/batch slice {index}"):
            if self.model is None:
                raise RuntimeError("rv32i/batch did not compile")
            started = perf_counter()
            meter.timed(lambda: self.model.run(cycles // steps),
                        tier="batch")
            meter.value("batch.run_s.rv32i", perf_counter() - started)
        with meter.op(f"rv32i/fleet slice {index}"):
            if self.fleet_cls is None:
                raise RuntimeError("rv32i/fleet did not compile")
            cls = self.fleet_cls
            programs = self.workload.lanes[index::steps]

            def trial(program):
                def fn():
                    env, device = self.lane_env(program)
                    sim = cls(env)
                    sim.run(cycles // steps * steps)
                    return TrialOutput(dict(sim.state_dict(),
                                            tohost=device.tohost), cycles)
                return fn

            report = meter.timed(lambda: run_fleet(
                [Trial(f"lane-{index + steps * i}", trial(program))
                 for i, program in enumerate(programs)],
                workers=inputs.WORKERS), tier="fleet")
            meter.add_trials("fleet", len(programs))
            report.raise_on_failure()
            record_fleet(meter, report)
            self.fleet += [(index + steps * i, observation) for i, observation
                           in enumerate(report.observations)]

    def finish(self) -> None:
        meter, refs = self.workload.meter, self.workload.lane_refs
        with meter.op("rv32i/batch vs fleet"):
            if self.model is None:
                raise RuntimeError("rv32i/batch did not compile")
            meter.add_trials("batch", len(self.envs))
            lanes = []
            for lane, (_env, device) in enumerate(self.envs):
                checks.require(device.tohost == refs[lane],
                               f"rv32i/batch lane {lane}: TOHOST "
                               f"{device.tohost} != {refs[lane]}")
                lanes.append(dict(self.model.lane_state_dict(lane),
                                  tohost=device.tohost))
            fleet = [observation for _index, observation in sorted(
                self.fleet, key=lambda item: item[0])]
            checks.check_lanes_match_fleet("rv32i batch vs fleet", lanes,
                                           fleet)


# ---------------------------------------------------------------------------
# compile-sweep
# ---------------------------------------------------------------------------

class CompileSweep:
    """Every design in ``repro.cli.DESIGNS`` at O0-O5 plus RTL, each run
    a short seeded cycle count and checked against the interpreter."""

    def __init__(self, seed: int, cache, meter: Meter, tracer=None,
                 references: Optional[References] = None):
        from repro.cli import DESIGNS

        self.cache, self.meter, self.tracer = cache, meter, tracer
        self.references = references or References()
        self.inputs = inputs.sweep_inputs(seed)
        self.designs = {name: elaborate(tracer, builder)
                        for name, builder in DESIGNS.items()
                        if name not in inputs.SWEEP_SKIP}
        self.env_factories = {name: self.env_factory(name)
                              for name in self.designs}

    def env_factory(self, name: str) -> Callable:
        """A fresh seeded environment per call (one per simulator)."""
        from repro.designs import make_msi_env, make_soc_env, print_string_source
        from repro.designs.rv32 import RV32MemoryDevice
        from repro.designs.rv32.cache import make_cached_env
        from repro.designs.uart import make_uart_env
        from repro.harness import Environment
        from repro.riscv import assemble
        from repro.riscv.programs import crc32_source

        data = self.inputs
        design = self.designs[name]
        if name.startswith("rv32"):
            program = assemble(crc32_source(tuple(data["words"])),
                               max_reg=16 if name == "rv32e" else 32)
            if name == "rv32i-cached":
                return lambda: make_cached_env(program, latency=4)
            prefixes = ("c0_", "c1_") if name == "rv32i-mc" else ("",)

            def rv32_env():
                env = Environment()
                for prefix in prefixes:
                    env.add_device(RV32MemoryDevice(program, prefix))
                return env
            return rv32_env
        if name == "soc":
            program = assemble(print_string_source(data["text"]))
            return lambda: make_soc_env(program)
        if name == "uart":
            return lambda: make_uart_env(list(data["bytes"]))
        if name in ("msi", "msi-buggy"):
            return lambda: make_msi_env(list(data["msi_script"]), n_cores=2)
        if name == "msi4":
            return lambda: make_msi_env(list(data["msi4_script"]), n_cores=4)
        mult, add = data["sample"]
        extfuns = {}
        for ext in design.extfuns.values():
            width_mask = (1 << ext.ret_type.width) - 1 \
                if getattr(ext.ret_type, "width", 0) else 0
            extfuns[ext.name] = (
                lambda arg, m=width_mask: (arg * mult + add) & m)
        return lambda: Environment(dict(extfuns))

    def levels(self, name: str) -> List[int]:
        return [5] if name in inputs.SWEEP_O5_ONLY else list(range(6))

    def cold(self) -> Dict:
        from repro.cuttlesim.codegen import compile_model
        from repro.rtl import cycle_sim

        meter, cycles = self.meter, self.inputs["cycles"]
        self.reference: Dict[str, Dict[str, int]] = {}
        manifest = {"scalar": [], "reference": self.reference}
        # The tier legs run in slices between the designs, so their rates
        # average over the whole round like the compile figures do.
        legs = SweepTierLegs(self)
        try:
            for index, (name, design) in enumerate(self.designs.items()):
                self.reference[name] = self.references.get(
                    name, lambda: self.interpreted(name, design, cycles))
                for opt in self.levels(name):
                    with meter.op(f"{name}/O{opt}"):
                        cls = meter.timed(lambda: compile_model(
                            design, opt=opt, warn_goldberg=False,
                            cache=self.cache), "compile")
                        self.short_run(name, cls, "cuttlesim",
                                       f"{name}/O{opt}")
                    manifest["scalar"].append([name, opt])
                if name not in inputs.SWEEP_O5_ONLY:
                    with meter.op(f"{name}/rtl-cycle"):
                        rtl_cls = meter.timed(
                            lambda: cycle_sim.compile_cycle_sim(design),
                            "compile")
                        self.short_run(name, rtl_cls, "rtl",
                                       f"{name}/rtl-cycle")
                legs.slice(index)
        finally:
            legs.close()
        return manifest

    def interpreted(self, name: str, design, cycles: int) -> Dict[str, int]:
        from repro.semantics.interp import Interpreter

        ref = Interpreter(design, env=self.env_factories[name]())
        ref.run(cycles)
        return ref.state_dict()

    def short_run(self, name: str, cls, tier: str, label: str) -> None:
        meter = self.meter
        sim = meter.timed(lambda: cls(self.env_factories[name]()))
        meter.run(tier, sim, lambda: sim.run(self.inputs["cycles"]))
        checks.check_states(label, sim.state_dict(), self.reference[name])

    def warm(self, manifest: Dict) -> None:
        from repro.cuttlesim.batch import compile_batch_model
        from repro.cuttlesim.codegen import compile_model
        from repro.shard import ShardedSimulator

        meter = self.meter
        self.reference = manifest["reference"]
        for name, opt in manifest["scalar"]:
            with meter.op(f"{name}/O{opt}/warm"):
                design = self.designs[name]
                cls = meter.timed(lambda: compile_model(
                    design, opt=opt, warn_goldberg=False, cache=self.cache),
                    "warm")
                self.short_run(name, cls, "cuttlesim",
                               f"{name}/O{opt}/warm")
        with meter.op("warm-tiers"):
            for name in inputs.SWEEP_TIER_DESIGNS:
                meter.timed(lambda: compile_batch_model(
                    self.designs[name], inputs.SWEEP_TRIALS,
                    cache=self.cache), "warm")
            name = inputs.SWEEP_SHARD_DESIGN
            sim = meter.timed(lambda: ShardedSimulator(
                self.designs[name], inputs.SHARDS,
                env=self.env_factories[name](), cache=self.cache,
                mode="local"), "warm")
            sim.close()


class SweepTierLegs:
    """The compile sweep's sharded, batched and fleet legs, advanced one
    slice per design.

    The sharded leg is msi4 with its scripted testbench on K=2 forked
    workers; after every slice its state must equal a scalar O5 model
    advanced alongside (outside the timed regions).  Each batched/fleet
    slice is one seeded sweep of collatz or dsp trials, alternating."""

    def __init__(self, sweep: "CompileSweep") -> None:
        from repro.cuttlesim.codegen import compile_model
        from repro.shard import ShardedSimulator

        self.sweep, self.shard = sweep, None
        meter, name = sweep.meter, inputs.SWEEP_SHARD_DESIGN
        design = sweep.designs[name]
        with meter.op(f"{name}/shard"):
            self.shard = meter.timed(lambda: ShardedSimulator(
                design, inputs.SHARDS, env=sweep.env_factories[name](),
                cache=sweep.cache, mode="process"), "compile")
            self.scalar = compile_model(design, opt=5, warn_goldberg=False,
                                        cache=sweep.cache)(
                sweep.env_factories[name]())

    def slice(self, index: int) -> None:
        sweep, meter = self.sweep, self.sweep.meter
        name = inputs.SWEEP_SHARD_DESIGN
        with meter.op(f"{name}/shard slice {index}"):
            if self.shard is None:
                raise RuntimeError(f"{name}/shard was never constructed")
            meter.run("shard", self.shard, lambda: self.shard.run(
                inputs.SWEEP_SHARD_SLICE))
            self.scalar.run(inputs.SWEEP_SHARD_SLICE)
            checks.check_states(f"{name}/shard @{self.shard.cycle}",
                                self.shard.state_dict(),
                                self.scalar.state_dict())
        tier = inputs.SWEEP_TIER_DESIGNS[index % len(inputs.SWEEP_TIER_DESIGNS)]
        batch_and_fleet(meter, sweep.cache, tier, sweep.designs[tier],
                        inputs.SWEEP_TRIALS, inputs.SWEEP_TRIALS,
                        inputs.SWEEP_TIER_CYCLES[tier],
                        sweep.inputs["trial_seed"]
                        + index * inputs.SWEEP_TRIALS)

    def close(self) -> None:
        if self.shard is not None:
            record_shard(self.sweep.meter, self.shard)
            self.shard.close()


# ---------------------------------------------------------------------------
# parallel-tiers
# ---------------------------------------------------------------------------

class ParallelTiers:
    """(a) a 4-core MSI system with traffic generators on the scalar O5
    model, the sharded tier (K=2, forked workers) and rtl-cycle; (b)
    seeded collatz and dsp trials on batch lanes and on the fleet."""

    def __init__(self, seed: int, cache, meter: Meter, tracer=None,
                 references: Optional[References] = None):
        from repro.cli import DESIGNS
        from repro.designs import make_msi

        self.cache, self.meter, self.tracer = cache, meter, tracer
        self.references = references or References()
        self.inputs = inputs.tier_inputs(seed)
        self.msi = elaborate(tracer, lambda: make_msi(
            inputs.MSI_CORES, inputs.MSI_LINES, traffic=inputs.MSI_TRAFFIC))
        self.designs = {name: elaborate(tracer, DESIGNS[name])
                        for name in inputs.TIER_CYCLES}

    def poke_lfsrs(self, sim) -> None:
        for core, value in enumerate(self.inputs["lfsr"]):
            sim.poke(f"c{core}_lfsr", value)

    def interpreted_prefix(self) -> Dict[str, int]:
        from repro.harness import Environment
        from repro.semantics.interp import Interpreter

        ref = Interpreter(self.msi, env=Environment())
        self.poke_lfsrs(ref)
        ref.run(inputs.MSI_PREFIX)
        return ref.state_dict()

    def cold(self) -> Dict:
        from repro.cuttlesim.codegen import compile_model
        from repro.harness import Environment, make_simulator
        from repro.shard import ShardedSimulator

        meter, design = self.meter, self.msi
        prefix = self.references.get("msi4/prefix", self.interpreted_prefix)
        sims: Dict[str, object] = {}
        builders = {
            "cuttlesim": lambda: compile_model(
                design, opt=5, warn_goldberg=False,
                cache=self.cache)(Environment()),
            "shard": lambda: ShardedSimulator(
                design, inputs.SHARDS, cache=self.cache, mode="process"),
            "rtl": lambda: make_simulator(design, "rtl-cycle",
                                          env=Environment()),
        }
        try:
            for tier, build in builders.items():
                with meter.op(f"msi4/{tier} prefix"):
                    sim = sims[tier] = meter.timed(build, "compile")
                    self.poke_lfsrs(sim)
                    meter.run(tier, sim, lambda: sim.run(inputs.MSI_PREFIX))
                    checks.check_states(f"msi4/{tier} prefix",
                                        sim.state_dict(), prefix)
            # One checkpoint of every tier per step, with one batched or
            # fleet sweep in between: each tier's timings spread over the
            # whole round.
            sweeps = self.sweeps()
            states = {0: prefix}
            for step in range(inputs.MSI_STEPS):
                self.checkpoint(sims, step, states)
                sweeps[step % len(sweeps)](step // len(sweeps))
        finally:
            shard = sims.get("shard")
            if shard is not None:
                record_shard(meter, shard)
                shard.close()
        return {"prefix": prefix}

    def checkpoint(self, sims: Dict, step: int,
                   states: Dict[int, Dict[str, int]]) -> None:
        """Advance every tier by one step.  The scalar model reaches the
        next checkpoint, where its state must keep the MSI invariants and
        every core's progress; the sharded run must equal it there, and
        rtl-cycle (a slice of its MSI_RTL_CYCLES per step) wherever it
        lands on a checkpoint."""
        meter, n = self.meter, (inputs.MSI_CORES, inputs.MSI_LINES)
        cycle = (step + 1) * inputs.MSI_CHECKPOINT
        with meter.op(f"msi4/cuttlesim @{cycle}"):
            sim = sims.get("cuttlesim")
            previous = states.get(cycle - inputs.MSI_CHECKPOINT)
            if sim is None or previous is None:
                raise RuntimeError("msi4/cuttlesim has no model")
            meter.run("cuttlesim", sim, lambda: sim.run(cycle - sim.cycle))
            state = sim.state_dict()
            checks.check_msi_exclusive(f"msi4 @{cycle}", state, *n)
            checks.check_done_advances(f"msi4 @{cycle}", previous, state,
                                       inputs.MSI_CORES)
            states[cycle] = state
        for tier in ("shard", "rtl"):
            until = cycle if tier == "shard" else \
                (step + 1) * inputs.MSI_RTL_CYCLES // inputs.MSI_STEPS
            with meter.op(f"msi4/{tier} @{until}"):
                sim = sims.get(tier)
                if sim is None:
                    raise RuntimeError(f"msi4/{tier} has no simulator")
                meter.run(tier, sim, lambda: sim.run(until - sim.cycle))
                if until in states:
                    checks.check_states(f"msi4/{tier} @{until}",
                                        sim.state_dict(), states[until])

    def sweeps(self) -> List[Callable]:
        """Batched and fleet sweeps of each design, one per step; sweep
        ``k`` of a design on both tiers uses the same trial seeds."""
        lanes: Dict = {}
        steps: List[Callable] = []
        for name, cycles in inputs.TIER_CYCLES.items():
            design = self.designs[name]

            def seed_of(k, name=name):
                return self.inputs["trial_seed"][name] + k * inputs.TIER_TRIALS

            steps.append(lambda k, name=name, design=design, cycles=cycles:
                         lanes.__setitem__((name, k), batch_sweep(
                             self.meter, self.cache, name, design,
                             inputs.TIER_TRIALS, inputs.TIER_BATCH, cycles,
                             seed_of(k))))
            steps.append(lambda k, name=name, design=design, cycles=cycles:
                         fleet_sweep(self.meter, self.cache, name, design,
                                     inputs.TIER_TRIALS, cycles, seed_of(k),
                                     lanes.get((name, k))))
        return steps

    def warm(self, manifest: Dict) -> None:
        from repro.cuttlesim.batch import compile_batch_model
        from repro.cuttlesim.codegen import compile_model
        from repro.harness import Environment
        from repro.shard import ShardedSimulator

        meter = self.meter
        with meter.op("msi4/warm"):
            cls = meter.timed(lambda: compile_model(
                self.msi, opt=5, warn_goldberg=False, cache=self.cache),
                "warm")
            sim = meter.timed(lambda: cls(Environment()))
            self.poke_lfsrs(sim)
            meter.run("cuttlesim", sim, lambda: sim.run(inputs.MSI_PREFIX))
            checks.check_states("msi4/warm prefix", sim.state_dict(),
                                manifest["prefix"])
            shard = meter.timed(lambda: ShardedSimulator(
                self.msi, inputs.SHARDS, cache=self.cache, mode="local"),
                "warm")
            shard.close()
        with meter.op("tiers/warm"):
            for name, design in self.designs.items():
                meter.timed(lambda: compile_model(
                    design, opt=2, warn_goldberg=False, cache=self.cache),
                    "warm")
                meter.timed(lambda: compile_batch_model(
                    design, inputs.TIER_BATCH, cache=self.cache), "warm")


# ---------------------------------------------------------------------------
# Shared legs.
# ---------------------------------------------------------------------------

def record_shard(meter: Meter, sim) -> None:
    stats = sim.stats
    meter.value("shard.clean_cycles", stats.clean_cycles)
    meter.value("shard.replay_cycles", stats.replay_cycles)
    meter.value("shard.worker_busy_s", sum(stats.worker_busy))
    meter.value("shard.critical_s", stats.critical_seconds)


def record_fleet(meter: Meter, report) -> None:
    busy = sum(result.elapsed for result in report.results)
    meter.value("fleet.wall_s", report.wall_seconds)
    meter.value("fleet.trial_busy_s", busy)
    meter.value("fleet.overhead_s",
                report.wall_seconds - busy / max(1, report.workers))


def batch_and_fleet(meter: Meter, cache, name: str, design, trials: int,
                    batch: int, cycles: int, seed: int) -> None:
    """``trials`` seeded trials on batch lanes and then on the fleet."""
    lanes = batch_sweep(meter, cache, name, design, trials, batch, cycles,
                        seed)
    fleet_sweep(meter, cache, name, design, trials, cycles, seed, lanes)


def batch_sweep(meter: Meter, cache, name: str, design, trials: int,
                batch: int, cycles: int, seed: int) -> Optional[List]:
    """``trials`` seeded trials (``lane_pokes``) on batch lanes, compile
    included; collatz lanes must equal the plain-Python Collatz map.
    Returns the lanes' final states."""
    from repro.cuttlesim.batch import compile_batch_model
    from repro.harness.lockstep import lane_pokes, lockstep_sweep

    lanes = None
    with meter.op(f"{name}/batch"):
        meter.timed(lambda: compile_batch_model(design, batch, cache=cache),
                    "compile", "batch")
        started = perf_counter()
        report = meter.timed(lambda: lockstep_sweep(
            design, trials, cycles, batch=batch, seed=seed, cache=cache),
            tier="batch")
        meter.value(f"batch.run_s.{name}", perf_counter() - started)
        meter.add_trials("batch", trials)
        report.raise_on_failure()
        lanes = report.observations
        if name == "collatz":
            checks.check_collatz_lanes(
                f"{name}/batch",
                [lane_pokes(design, seed + t)["x"] for t in range(trials)],
                cycles, [lane["x"] for lane in lanes])
    return lanes


def fleet_sweep(meter: Meter, cache, name: str, design, trials: int,
                cycles: int, seed: int, lanes: Optional[List]) -> None:
    """The same trials on the forked fleet, compile included; each must
    equal its batch lane."""
    from repro.cuttlesim.codegen import compile_model
    from repro.harness.lockstep import per_process_baseline

    with meter.op(f"{name}/fleet"):
        meter.timed(lambda: compile_model(design, opt=2, warn_goldberg=False,
                                          cache=cache), "compile", "fleet")
        report = meter.timed(lambda: per_process_baseline(
            design, trials, cycles, seed=seed, workers=inputs.WORKERS,
            cache=cache), tier="fleet")
        meter.add_trials("fleet", trials)
        report.raise_on_failure()
        record_fleet(meter, report)
        checks.require(lanes is not None,
                       f"{name}/fleet: its batch sweep produced no lanes")
        checks.check_lanes_match_fleet(f"{name} batch vs fleet", lanes,
                                       report.observations)


WORKLOAD_CLASSES = {
    "rv32-programs": Rv32Programs,
    "compile-sweep": CompileSweep,
    "parallel-tiers": ParallelTiers,
}
