"""The two benchmark workloads and the four parts they are made of.

Each workload is a closed-loop batch job: one caller, and each call
into the program starts when the previous one returned.  A workload
receives the seed and a work directory, calls the program's public API
and returns how many operations it attempted and how many failed.  Its
simulated outputs are collected by the :class:`~probes.Probe` wrapped
around the program, not by the workload itself.

``tiny=True`` shrinks every workload to a few seconds for the tests;
the full sizes are the ones the benchmark reports.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import traceback
from typing import Callable, Dict, List

#: Every simulation asks for the compiled engine explicitly, so a later
#: change of the default engine does not shift the baseline.
ENGINE = "compiled"

#: Bring-up traffic: uniform random at rate 0.05, window 200/400/800.
_BRINGUP_WINDOW = dict(
    pattern="uniform_random",
    rate=0.05,
    warmup=200,
    measure=400,
    drain_limit=800,
    engine=ENGINE,
)


@dataclasses.dataclass
class Outcome:
    """Operations one workload iteration attempted and failed."""

    attempted: int = 0
    failed: int = 0
    #: Trace files written, hashed into the digest after the timed part.
    files: List[str] = dataclasses.field(default_factory=list)

    def attempt(self, call: Callable[[], bool]) -> None:
        """Run one operation; it fails when it raises or returns False."""
        self.attempted += 1
        try:
            ok = call()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        self.failed += not ok


def prepare() -> None:
    """Import every module the workloads reach, before the probes bind.

    The probes rebind functions in loaded modules only, so a module
    imported later would keep the unwrapped function.
    """
    import repro.chaos  # noqa: F401
    import repro.core.spec  # noqa: F401
    import repro.experiments.campaign  # noqa: F401
    import repro.experiments.fig6_synthetic_full  # noqa: F401
    import repro.experiments.manycore_runs  # noqa: F401
    import repro.manycore  # noqa: F401
    import repro.sim.fastsim  # noqa: F401
    import repro.sim.trace  # noqa: F401
    import repro.verify.certify  # noqa: F401


def bringup_cold(seed: int, tiny: bool, probe, workdir: str) -> Outcome:
    """Certify then run a Half Ruche design, then two cold designs.

    Nothing is shared between the designs, so certification and
    lowering do about 90% of the work.  The cold designs are 24x24 so
    that one iteration stays short; a few 32x32 iterations are too
    exposed to the host's speed swings.
    """
    from repro.core import spec
    from repro.verify import certify

    half = (16, 8) if tiny else (64, 8)
    cold = (8, 8) if tiny else (24, 24)
    window = dict(_BRINGUP_WINDOW, seed=seed)
    preflight = spec.NetworkSpec.for_network(
        "ruche2-depop", *half, half=True, **window
    )
    out = Outcome()
    out.attempt(lambda: certify.certify_spec(preflight).ok)
    for target in (
        preflight,
        spec.NetworkSpec.for_network("ruche2-depop", *cold, **window),
        spec.NetworkSpec.for_network("torus", *cold, **window),
    ):
        out.attempt(lambda target=target: bool(spec.build_run(target)))
    return out


def _campaign_rows(result, probe, out: Outcome) -> None:
    out.attempted += len(result.rows)
    out.failed += probe.counts["experiments.campaign.failed_rows"]


def sweep_8x8(seed: int, tiny: bool, probe, workdir: str) -> Outcome:
    """The fig6 quick grid as one batched campaign (192 simulations).

    Eight designs serve 192 runs, so the batch arena and the C block
    kernel do the work and lowering is almost fully reused.
    """
    from repro.experiments import fig6_synthetic_full as fig6

    out = Outcome()
    result = fig6.run(
        scale="smoke" if tiny else "quick", seed=seed, jobs=1, engine=ENGINE
    )
    _campaign_rows(result, probe, out)
    return out


def fault_soak(seed: int, tiny: bool, probe, workdir: str) -> Outcome:
    """The chaos campaign: fault tiers x fault seeds on the serial path.

    Runs one at a time with fault schedules on the pure-Python step
    loops, over fault-aware BFS route tables.  ``chaos.run`` takes the
    traffic seed; its fault seeds are fixed by the preset.
    """
    from repro import chaos

    out = Outcome()
    result = chaos.run(
        scale="smoke" if tiny else "quick", seed=seed, jobs=1, engine=ENGINE
    )
    _campaign_rows(result, probe, out)
    return out


def manycore_16x8(seed: int, tiny: bool, probe, workdir: str) -> Outcome:
    """Execution-driven jacobi and spgemm-CA, then replay of their traces.

    The only part where the reference ``sim.network`` objects and
    ``manycore`` do the work.  The kernels take no seed in the public
    API, so the seed reaches only the replay specs.
    """
    from repro.experiments import manycore_runs
    from repro.sim import fastsim, trace

    width, height = (8, 4) if tiny else (16, 8)
    scale = "smoke" if tiny else "quick"
    out = Outcome()
    for benchmark in ("jacobi", "spgemm-CA"):
        for network in ("mesh", "ruche2-depop"):

            def capture(benchmark=benchmark, network=network) -> bool:
                entry = manycore_runs.run_entry(
                    benchmark, network, width, height, scale
                )
                for stream, captured in sorted(entry.traces.items()):
                    name = f"{benchmark}-{network}-{stream}.noctrace"
                    out.files.append(trace.write_trace(
                        captured, os.path.join(workdir, name)
                    ))
                return entry.stats.completed

            out.attempt(capture)
    specs = []
    for path in out.files:
        trace.load_trace(path)
        specs.append(trace.replay_spec(path, engine=ENGINE, seed=seed))
    for result in fastsim.run_compiled_batch(specs):
        out.attempted += 1
        out.failed += isinstance(result, Exception)
    return out


def _chain(*parts: Callable[..., Outcome]) -> Callable[..., Outcome]:
    """One workload that runs ``parts`` in order in the same process."""

    def workload(seed: int, tiny: bool, probe, workdir: str) -> Outcome:
        out = Outcome()
        for part in parts:
            done = part(seed, tiny, probe, workdir)
            out.attempted += done.attempted
            out.failed += done.failed
            out.files += done.files
        return out

    return workload


#: Two workloads of two parts each.  On a shared 2-vCPU host the speed
#: changes in phases of a minute or more, and every workload's spread
#: across runs comes mostly from those; two workloads leave each run
#: 55 s within the time the whole benchmark may take.  The parts keep
#: their own per-layer metrics.  ``bringup-sweep`` holds the cold
#: lowering and certification (bring-up) and the batch path (sweep);
#: ``serial-paths`` holds the pure-Python paths no other part takes.
WORKLOADS: Dict[str, Callable[..., Outcome]] = {
    "bringup-sweep": _chain(bringup_cold, sweep_8x8),
    "serial-paths": _chain(fault_soak, manycore_16x8),
}
