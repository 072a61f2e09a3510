"""One workload iteration in a fresh interpreter (started by run.py).

Sets up the program (``import repro`` plus the native kernel), then,
unless ``--setup-only``, runs one iteration of a workload and writes
its measurements as JSON to ``--out``.  ``ready`` is read from the
system-wide monotonic clock, so the parent can subtract the moment it
started this process and get the set-up time including interpreter
start.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import time


def _set_up() -> dict:
    """``import repro`` plus the native kernel, and how it was obtained."""
    compiles = []
    real_run = subprocess.run

    def counting_run(*args, **kwargs):
        compiles.append(args[0] if args else kwargs.get("args"))
        return real_run(*args, **kwargs)

    subprocess.run = counting_run
    try:
        import repro  # noqa: F401
        from repro.sim import _ckernel

        start = time.perf_counter()
        kernel = _ckernel.get_kernel()
        load_s = time.perf_counter() - start
    finally:
        subprocess.run = real_run
    if kernel is None:
        how = "unavailable"
    else:
        how = "built" if compiles else "loaded"
    return {"ready": time.monotonic(), "ckernel": how,
            "kernel_load_s": load_s}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--warm", action="store_true",
                        help="also import every module the workloads use")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--workdir")
    args = parser.parse_args()

    report = _set_up()
    if args.warm:
        import workloads

        workloads.prepare()
    if not args.setup_only:
        report.update(_iteration(args))
    report["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh)


def _iteration(args: argparse.Namespace) -> dict:
    import probes
    import workloads

    workloads.prepare()
    probe = probes.Probe(traced=args.traced)
    probe.install()
    try:
        root = probe.enter("workload") if args.traced else None
        start = time.perf_counter()
        outcome = workloads.WORKLOADS[args.workload](
            args.seed, args.tiny, probe, args.workdir
        )
        wall_s = time.perf_counter() - start
        if root is not None:
            probe.leave(root)
    finally:
        probe.uninstall()

    trace_bytes = 0
    for path in outcome.files:
        with open(path, "rb") as fh:
            blob = fh.read()
        trace_bytes += len(blob)
        probe.record_output([os.path.basename(path),
                             hashlib.sha256(blob).hexdigest()])
    from repro.sim import fastsim

    counts = dict(probe.counts)
    counts["sim.trace.bytes"] = trace_bytes
    designs = len(fastsim._COMPILE_CACHE)
    runs = probe.simulations
    counts["sim.fastsim.designs_lowered"] = designs
    if runs:
        counts["sim.fastsim.compile_reuse_share"] = max(
            0.0, 1.0 - designs / runs)
        counts["sim.fastsim.fallback_share"] = len(probe.off_path) / runs
        counts["sim.fastsim.batched_share"] = (
            probe.engines.get("compiled-batch", 0) / runs)
    return {
        "wall_s": wall_s,
        "node_cycles": probe.counts.get("sim.fastsim.node_cycles", 0),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "digest": probe.digest(),
        "engines": dict(probe.engines),
        "off_path": probe.diagnose_off_path(),
        "layers": probe.layer_times() if args.traced else {},
        "spans": len(probe.spans),
        "counts": counts,
    }


if __name__ == "__main__":
    main()
