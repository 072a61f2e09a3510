"""What the benchmark observes inside one workload process.

A :class:`Probe` is wrapped around public functions of the ``repro``
package, at every attribute the program calls them through.  Each
wrapper does two jobs:

* **collect** (always on): it records every simulated output the call
  returns, so the workload's output digest covers every ``RunResult``,
  certification report, ``MachineStats`` and campaign outcome, and it
  counts runs by the engine path they took;
* **trace** (``traced=True`` only): it opens a span named after the
  layer.  Spans nest and stay in memory until the iteration ends;
  :meth:`Probe.layer_times` turns them into per-layer self times.

The untraced run pays for collection only, so the difference between
a traced and an untraced run is the cost of the spans themselves.
"""

from __future__ import annotations

import collections
import dataclasses
import enum
import functools
import hashlib
import json
import math
import os
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: The engine a run is expected to take on each submission path.
EXPECTED_ENGINE = {"serial": "compiled", "batch": "compiled-batch"}


def canonical(obj: Any) -> Any:
    """A JSON-ready, run-independent rendering of a simulated output.

    Floats are rendered with ``float.hex`` so the digest sees every bit;
    ``RunResult.engine`` (provenance, not a statistic) is left out, and a
    trace-replay pattern keeps only the trace's file name, because the
    directory it was written to differs from process to process.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj.hex() if math.isfinite(obj) else repr(obj)
    if isinstance(obj, enum.Enum):
        return obj.name
    if isinstance(obj, BaseException):
        return [type(obj).__name__, str(obj)]
    if isinstance(obj, dict):
        items = [
            (json.dumps(canonical(k), sort_keys=True), canonical(v))
            for k, v in obj.items()
        ]
        return [list(kv) for kv in sorted(items, key=lambda kv: kv[0])]
    if isinstance(obj, (list, tuple, set, frozenset)):
        seq = sorted(obj, key=repr) if isinstance(obj, (set, frozenset)) \
            else obj
        return [canonical(v) for v in seq]
    if dataclasses.is_dataclass(obj):
        fields = {
            f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)
        }
        if type(obj).__name__ == "RunResult":
            fields.pop("engine")
            pattern = fields["pattern"]
            if pattern.startswith("trace_replay:"):
                fields["pattern"] = "trace_replay:" + os.path.basename(
                    pattern.partition(":")[2]
                )
        return [type(obj).__name__, canonical(fields)]
    state = getattr(obj, "__dict__", None)
    if state is None:
        slots = [
            s
            for cls in type(obj).__mro__
            for s in getattr(cls, "__slots__", ())
        ]
        state = {s: getattr(obj, s) for s in slots if hasattr(obj, s)}
    return [type(obj).__name__, canonical(state)]


def _routers(target: Any) -> int:
    """Router count of a spec or config (depth > 1 for the 3-D pack)."""
    depth = getattr(target, "depth", None)
    if depth is None:
        depth = dict(getattr(target, "options", ())).get("depth", 1)
    return target.width * target.height * max(1, depth or 1)


class Probe:
    """Collector and (optionally) span recorder for one iteration."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        #: One ``[name, start, end, parent index]`` per span.
        self.spans: List[List[Any]] = []
        self._open: List[int] = []
        self.counts: Dict[str, float] = collections.Counter()
        #: sha256 of the JSON list of every simulated output, in the
        #: order the program produced them, fed as they arrive so that no
        #: output outlives the program's own use of it.
        self._digest = hashlib.sha256(b"[")
        self._outputs = 0
        self.engines: Dict[str, int] = collections.Counter()
        #: Runs that left their expected path: (path, engine, target,
        #: faults) — diagnosed after the timed region.
        self.off_path: List[Tuple[str, str, Any, Any]] = []
        self.simulations = 0
        self._collecting = 0
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- spans -------------------------------------------------------
    def enter(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def leave(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    def layer_times(self) -> Dict[str, float]:
        """Self time per span name: each span minus its children."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, float] = collections.defaultdict(float)
        for i, (name, start, end, _parent) in enumerate(self.spans):
            out[name] += (end - start) - child_time[i]
        return dict(out)

    # -- collection --------------------------------------------------
    def record_output(self, obj: Any) -> None:
        blob = json.dumps(canonical(obj), sort_keys=True,
                          separators=(",", ":"))
        self._digest.update((("," if self._outputs else "") + blob)
                            .encode("utf-8"))
        self._outputs += 1

    def record_run(self, path: str, result: Any, target: Any,
                   faults: Any = None) -> None:
        """One simulation outcome (a ``RunResult`` or the error raised)."""
        self.simulations += 1
        self.record_output(result)
        if isinstance(result, BaseException):
            self.engines["raised:" + type(result).__name__] += 1
            return
        self.engines[result.engine] += 1
        self.counts["sim.fastsim.node_cycles"] += (
            result.total_cycles * _routers(target)
        )
        self.counts["sim.faults.dropped"] += result.dropped_measured
        if result.engine != EXPECTED_ENGINE[path]:
            self.off_path.append((path, result.engine, target, faults))

    def digest(self) -> str:
        final = self._digest.copy()
        final.update(b"]")
        return final.hexdigest()

    def diagnose_off_path(self) -> List[str]:
        """Fallback diagnostic codes for every run off its path."""
        from repro.sim import fastsim

        lines = []
        for path, engine, target, faults in self.off_path:
            codes = [d.code for d in fastsim.lowering_problems(
                target, faults=faults)]
            if path == "batch":
                codes += [d.code for d in fastsim.batching_problems(
                    target, faults=faults)]
            lines.append(
                f"{path} run took {engine!r}: "
                f"{', '.join(dict.fromkeys(codes)) or 'no diagnostic'}"
            )
        return lines

    # -- installation ------------------------------------------------
    def patch(self, original: Callable, wrapper: Callable) -> None:
        """Rebind ``original`` to ``wrapper`` in every loaded module.

        The program imports most layer functions by name, so a function
        is reachable through several module attributes; each one is
        rebound (and restored by :meth:`uninstall`).
        """
        functools.update_wrapper(wrapper, original)
        hits = 0
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
                    hits += 1
        if not hits:
            raise RuntimeError(f"no module binds {original.__qualname__}")

    def patch_method(self, cls: type, attr: str,
                     wrapper_for: Callable[[Callable], Callable]) -> None:
        """Replace a method (or classmethod) by ``wrapper_for(method)``."""
        raw = vars(cls)[attr]
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw
        wrapper = functools.wraps(func)(wrapper_for(func))
        self._patched.append((cls, attr, raw))
        setattr(cls, attr, classmethod(wrapper) if is_classmethod else wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    def timed(self, name: str, func: Callable,
              after: Optional[Callable[[Any], None]] = None) -> Callable:
        """``func`` under a span ``name`` (traced runs only).

        ``after(result)`` is called with every return value, traced or
        not, for the layer counters.
        """
        probe = self

        def wrapper(*args, **kwargs):
            if not probe.traced:
                result = func(*args, **kwargs)
            else:
                idx = probe.enter(name)
                try:
                    result = func(*args, **kwargs)
                finally:
                    probe.leave(idx)
            if after is not None:
                after(result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every layer entry point the workloads reach."""
        import repro.core.routing as routing
        import repro.core.spec as spec
        import repro.experiments.campaign as campaign
        import repro.manycore.kernels as kernels
        import repro.sim.fastsim as fastsim
        import repro.sim.trace as trace
        import repro.verify.certify as certify
        from repro.manycore.machine import Machine
        from repro.sim.faults import FaultSchedule

        count = self.counts
        t = self.timed

        for func in (spec.build_config, spec.network_components):
            self.patch(func, t("core.spec.resolve", func))

        def certified(report):
            self.record_output(report)
            count["verify.specs"] += 1
            count["verify.findings"] += len(report.problems())

        self.patch(certify.certify_config,
                   t("verify.certify", certify.certify_config))
        self.patch(certify.certify_spec, t(
            "verify.certify", certify.certify_spec, after=certified,
        ))

        def tabulated(table):
            count["core.routing.table_entries"] += len(table)

        self.patch(routing.tabulate_next_hops, t(
            "core.routing.tabulate", routing.tabulate_next_hops,
            after=tabulated,
        ))
        self.patch(routing.make_fault_aware_routing, t(
            "core.routing.fault_tables", routing.make_fault_aware_routing,
        ))
        self.patch(spec.build_faults,
                   t("sim.faults.build", spec.build_faults))
        self.patch_method(
            FaultSchedule, "random_mixed",
            lambda f: t("sim.faults.build", f),
        )
        self.patch(fastsim.lowering_problems,
                   t("sim.fastsim.lower", fastsim.lowering_problems))
        self.patch(fastsim.run_compiled,
                   self._serial(fastsim, fastsim.run_compiled))
        self.patch(fastsim.run_compiled_batch,
                   self._batch(fastsim.run_compiled_batch))
        self.patch(campaign.run_campaign,
                   self._campaign(campaign.run_campaign))
        self.patch(kernels.build_workload,
                   t("manycore.build", kernels.build_workload))
        self.patch_method(Machine, "__init__",
                          lambda f: t("manycore.build", f))
        self.patch_method(Machine, "run", self._machine_run)
        self.patch_method(Machine, "finalize_traces",
                          lambda f: t("sim.trace.finalize", f))
        self.patch_method(trace.Trace, "write",
                          lambda f: t("sim.trace.write", f))
        self.patch(trace.load_trace,
                   t("sim.trace.load", trace.load_trace))

    # -- wrappers that also collect ---------------------------------
    def _outermost(self, func: Callable,
                   record: Callable[..., None]) -> Callable:
        """Collect only calls not nested in another collected call.

        A batch falls back to per-spec serial runs for the specs its
        gate rejects; those results are the batch's, recorded once.
        """
        probe = self

        def wrapper(*args, **kwargs):
            outer = probe._collecting == 0
            probe._collecting += 1
            try:
                result = func(*args, **kwargs)
            except Exception as exc:
                if outer:
                    record(exc, args, kwargs)
                raise
            finally:
                probe._collecting -= 1
            if outer:
                record(result, args, kwargs)
            return result

        return wrapper

    def _serial(self, fastsim: Any, run_compiled: Callable) -> Callable:
        probe = self

        def record(result, args, kwargs):
            probe.record_run("serial", result, args[0],
                             kwargs.get("faults"))

        collected = self._outermost(run_compiled, record)

        def serial(*args, **kwargs):
            if not probe.traced:
                return collected(*args, **kwargs)
            idx = probe.enter("sim.fastsim.serial_step")
            try:
                # Lower first, so the run itself finds the compile
                # cache warm and this span's self time is stepping.
                fastsim.lowering_problems(
                    args[0],
                    faults=kwargs.get("faults"),
                    audit_every=kwargs.get("audit_every"),
                )
                return collected(*args, **kwargs)
            finally:
                probe.leave(idx)

        return serial

    def _batch(self, run_compiled_batch: Callable) -> Callable:
        probe = self

        def record(results, args, kwargs):
            if isinstance(results, Exception):
                probe.record_output(results)
                return
            for spec, result in zip(args[0], results):
                probe.record_run("batch", result, spec)

        collected = self._outermost(run_compiled_batch, record)

        def batch(specs, *args, **kwargs):
            replay = any(
                s.pattern.startswith("trace_replay:") for s in specs
            )
            name = "sim.trace.replay" if replay else "sim.fastsim.batch"
            if not probe.traced:
                return collected(specs, *args, **kwargs)
            idx = probe.enter(name)
            try:
                return collected(specs, *args, **kwargs)
            finally:
                probe.leave(idx)

        return batch

    def _campaign(self, run_campaign: Callable) -> Callable:
        probe = self
        t = self.timed

        def campaign(grid, runner, *args, **kwargs):
            runner = t("experiments.row", runner)
            if kwargs.get("batch_runner") is not None:
                kwargs["batch_runner"] = t(
                    "experiments.row", kwargs["batch_runner"]
                )
            outcome = t("experiments.campaign", run_campaign)(
                grid, runner, *args, **kwargs
            )
            probe.counts["experiments.campaign.rows"] += len(outcome.rows)
            probe.counts["experiments.campaign.failed_rows"] += len(
                outcome.failures
            )
            probe.record_output(
                [{k: v for k, v in row.items() if k != "engine"}
                 for row in outcome.rows]
            )
            return outcome

        return campaign

    def _machine_run(self, run: Callable) -> Callable:
        probe = self
        timed = self.timed("manycore.machine.run", run)

        def machine_run(machine, *args, **kwargs):
            stats = timed(machine, *args, **kwargs)
            probe.record_output(stats)
            fwd = _routers(machine.config.forward_config)
            rev = _routers(machine.config.reverse_config)
            probe.counts["sim.fastsim.node_cycles"] += (
                stats.cycles * (fwd + rev)
            )
            probe.counts["manycore.machine.cycles"] += stats.cycles
            probe.counts["manycore.machine.instructions"] += (
                stats.instructions
            )
            return stats

        return machine_run
