"""End-to-end benchmark of the NoC simulator, run from the repo root.

    python3 perfbench/run.py --workload bringup-sweep --seed 1 --seconds 55
    python3 perfbench/run.py --workload all --trace 1

Every iteration of a workload runs in a fresh interpreter (``child.py``),
one child at a time, so each pays the set-up a user pays.  After one
untimed warm-up child, the run repeats a cycle of set-up-only children
and one workload iteration while at least half of the next cycle fits
in ``--seconds``.  Times are reported as means over the run: the host's
speed flips between a fast and a slow mode, and a median jumps from one
mode to the other where a mean moves with the share of slow time.
With ``--trace 1`` half of the time runs untraced and half traced, and
the per-layer metrics come from the traced iterations.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above
it are the readable report (host record, every metric with its unit
and sample count, the output digest and the engine paths taken).
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("bringup-sweep", "serial-paths")

#: Set-up-only children timed before each workload iteration; the
#: workload children's own set-up is timed too.
SETUP_PROBES = 2
#: A run must end within this many seconds, builds included.
RUN_LIMIT_S = 170.0

#: End-to-end metrics (tracing off): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_node_cycles_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (traced run): name -> (unit, span whose self time
#: it is, or None for a counter).
PER_LAYER: Dict[str, Tuple[str, Optional[str]]] = {
    "sim.ckernel.load_s": ("s", None),
    "core.spec.resolve_s": ("s", "core.spec.resolve"),
    "verify.certify_s": ("s", "verify.certify"),
    "verify.specs": ("count", None),
    "verify.findings": ("count", None),
    "core.routing.tabulate_s": ("s", "core.routing.tabulate"),
    "core.routing.table_entries": ("count", None),
    "core.routing.fault_tables_s": ("s", "core.routing.fault_tables"),
    "sim.fastsim.lower_s": ("s", "sim.fastsim.lower"),
    "sim.fastsim.designs_lowered": ("count", None),
    "sim.fastsim.compile_reuse_share": ("share", None),
    "sim.fastsim.serial_step_s": ("s", "sim.fastsim.serial_step"),
    "sim.fastsim.batch_s": ("s", "sim.fastsim.batch"),
    "sim.fastsim.node_cycles": ("count", None),
    "sim.fastsim.fallback_share": ("share", None),
    "sim.fastsim.batched_share": ("share", None),
    "sim.faults.build_s": ("s", "sim.faults.build"),
    "sim.faults.dropped": ("count", None),
    "experiments.campaign.self_s": ("s", "experiments.campaign"),
    "experiments.campaign.rows": ("count", None),
    "experiments.campaign.failed_rows": ("count", None),
    "experiments.row.self_s": ("s", "experiments.row"),
    "manycore.build_s": ("s", "manycore.build"),
    "manycore.machine.run_s": ("s", "manycore.machine.run"),
    "manycore.machine.cycles": ("count", None),
    "manycore.machine.instructions": ("count", None),
    "sim.trace.finalize_s": ("s", "sim.trace.finalize"),
    "sim.trace.write_s": ("s", "sim.trace.write"),
    "sim.trace.load_s": ("s", "sim.trace.load"),
    "sim.trace.bytes": ("bytes", None),
    "sim.trace.replay_s": ("s", "sim.trace.replay"),
    "trace.overhead_s": ("s", None),
    "trace.unattributed_s": ("s", "workload"),
}


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values: List[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _spread(values: List[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.6g} q3={q3:.6g}"


def host_record(ckernel: str) -> str:
    """Where the numbers came from; never compare across hosts."""
    def first_line(cmd: List[str]) -> str:
        try:
            done = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=20, check=True)
        except (OSError, subprocess.SubprocessError):
            return "unknown"
        return (done.stdout.splitlines() or ["unknown"])[0].strip()

    return (
        f"nproc={os.cpu_count()} python={platform.python_version()} "
        f"cc=\"{first_line([os.environ.get('CC', 'cc'), '--version'])}\" "
        f"commit={first_line(['git', 'rev-parse', 'HEAD'])} "
        f"ckernel={ckernel}"
    )


class Runner:
    """Spawns the children of one benchmark run, one at a time."""

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir
        #: When the current run began; it must end RUN_LIMIT_S later.
        self.started = time.monotonic()
        self.serial = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, ["src", os.environ.get("PYTHONPATH")])
        )
        # One string-hash layout for every child, so that dict and set
        # layouts do not differ from one iteration to the next.
        self.env["PYTHONHASHSEED"] = "0"
        # Keep the kernel build and every temporary file in the checkout.
        self.env["TMPDIR"] = os.path.join(workdir, "tmp")
        os.makedirs(self.env["TMPDIR"], exist_ok=True)

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.monotonic() - self.started)

    def child(self, *args: str) -> Optional[Dict[str, Any]]:
        """Run one child; its report, or None if it crashed or hung."""
        self.serial += 1
        out = os.path.join(self.workdir, f"child-{self.serial}.json")
        work = os.path.join(self.workdir, f"work-{self.serial}")
        os.makedirs(work)
        cmd = [sys.executable, os.path.join(HERE, "child.py"),
               "--out", out, "--workdir", work, *args]
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        try:
            _stdout, stderr = proc.communicate(
                timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            proc.kill()
            _stdout, stderr = proc.communicate()
        shutil.rmtree(work, ignore_errors=True)
        if proc.returncode != 0 or not os.path.exists(out):
            sys.stderr.write(stderr.decode("utf-8", "replace"))
            print(f"# child {' '.join(args)} failed "
                  f"(exit {proc.returncode})", file=sys.stderr)
            return None
        with open(out, encoding="utf-8") as fh:
            report = json.load(fh)
        os.remove(out)
        report["setup_s"] = report["ready"] - spawned
        return report


def measure(runner: Runner, workload: str, seed: int, seconds: float,
            trace: bool, tiny: bool) -> Dict[str, Any]:
    """One benchmark run of one workload; every sample it took."""
    # Untimed: the first import in a fresh checkout writes the .pyc files.
    runner.child("--setup-only", "--warm")
    base = ["--workload", workload, "--seed", str(seed)]
    if tiny:
        base.append("--tiny")
    phases = [(False, seconds / 2), (True, seconds)] if trace \
        else [(False, seconds)]
    setups: List[Dict[str, Any]] = []
    iterations: Dict[bool, List[Dict[str, Any]]] = {False: [], True: []}
    crashed = 0
    start = time.monotonic()
    for traced, budget in phases:
        last = 0.0
        # A cycle starts when at least half of it fits in the budget, so
        # a run ends on average at --seconds.
        while not iterations[traced] or (
            time.monotonic() - start + last / 2 <= budget
            and runner.remaining() > 2 * last
        ):
            cycle = time.monotonic()
            for _ in range(SETUP_PROBES):
                report = runner.child("--setup-only")
                if report is None:
                    crashed += 1
                else:
                    setups.append(report)
            report = runner.child(*base, *(["--traced"] if traced else []))
            if report is None:
                crashed += 1
                break
            iterations[traced].append(report)
            last = time.monotonic() - cycle
    return {"setups": setups, "iterations": iterations, "crashed": crashed}


def summarize(workload: str, seed: int, trace: bool, tiny: bool,
              run: Dict[str, Any]) -> Dict[str, Any]:
    """Print the readable report; return the contract's JSON object."""
    plain, traced = run["iterations"][False], run["iterations"][True]
    everything = plain + traced
    recorded = _recorded_digest(workload, seed, tiny)
    digests = [r["digest"] for r in everything]
    reference = recorded or (digests[0] if digests else None)
    mismatches = sum(d != reference for d in digests)
    attempted = sum(r["attempted"] for r in everything) + len(everything)
    failed = sum(r["failed"] for r in everything) + mismatches
    attempted += run["crashed"]
    failed += run["crashed"]

    setup = [r["setup_s"] for r in run["setups"] + everything]
    samples = {
        "setup_s": setup,
        "wall_s": [r["wall_s"] for r in plain],
        "sim_node_cycles_per_s": [r["node_cycles"] / r["wall_s"]
                                  for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    # Times are means over the run, and the throughput is the run's
    # node cycles over its workload time; memory is the median.
    values = {
        "setup_s": _mean(setup),
        "wall_s": _mean(samples["wall_s"]),
        "sim_node_cycles_per_s": (
            sum(r["node_cycles"] for r in plain)
            / sum(r["wall_s"] for r in plain) if plain else 0.0),
        "peak_rss_mb": _median(samples["peak_rss_mb"]),
    }
    kernels = sorted({r["ckernel"] for r in run["setups"] + everything})
    print(f"# perfbench workload={workload} seed={seed} trace={int(trace)}"
          f"{' tiny' if tiny else ''}")
    print(f"# host {host_record('/'.join(kernels) or 'unknown')}")
    print("# closed loop: one caller, one child process at a time")
    for name, unit in END_TO_END.items():
        print(f"{name:<24} {values[name]:<14.6g} {unit:<6} "
              f"({_spread(samples[name])})")
    share = failed / attempted if attempted else 1.0
    print(f"{'failed_share':<24} {share:<14.6g} {'share':<6} "
          f"(n={attempted} operations, {failed} failed)")
    if recorded is None:
        status = "no digest recorded for this seed"
    elif mismatches:
        status = f"MISMATCH: the recorded digest is {recorded}"
    else:
        status = "matches the recorded digest"
    others = sorted(set(digests[1:]) - {digests[0]}) if digests else []
    print(f"digest {digests[0] if digests else 'none'} "
          f"({len(digests) - mismatches}/{len(digests)} iterations agree; "
          f"{status})" + "".join(f" other digest {d}" for d in others))
    if everything:
        engines = ", ".join(f"{k}={v}" for k, v in
                            sorted(everything[0]["engines"].items()))
        print(f"engine paths per iteration: {engines}")
        for line in sorted({x for r in everything for x in r["off_path"]}):
            print(f"off expected path: {line}")

    metrics: Dict[str, Dict[str, Any]] = {}
    if not trace:
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": values[name], "unit": unit}
    else:
        metrics = _layer_metrics(plain, traced, run["setups"])
        walls = [r["wall_s"] for r in traced]
        spans = traced[0]["spans"] if traced else 0
        print(f"{'traced wall_s':<36} {_median(walls):<14.6g} {'s':<6} "
              f"({_spread(walls)}; {spans} spans each)")
        for name, metric in metrics.items():
            print(f"{name:<36} {metric['value']:<14.6g} "
                  f"{metric['unit']:<6} (n={len(traced)})")
    correct = bool(everything) and not mismatches and not failed
    return {"correct": correct, "attempted": max(1, attempted),
            "failed": failed, "metrics": metrics}


def _layer_metrics(plain: List[Dict[str, Any]],
                   traced: List[Dict[str, Any]],
                   setups: List[Dict[str, Any]]) -> Dict[str, Any]:
    metrics: Dict[str, Dict[str, Any]] = {}
    for name, (unit, span) in PER_LAYER.items():
        if name == "sim.ckernel.load_s":
            values = [r["kernel_load_s"] for r in setups + traced]
        elif name == "trace.overhead_s":
            values = [_median([r["wall_s"] for r in traced])
                      - _median([r["wall_s"] for r in plain])]
        elif span is not None:
            values = [r["layers"].get(span, 0.0) for r in traced]
        else:
            values = [r["counts"].get(name, 0) for r in traced]
        metrics[name] = {"value": _median(values), "unit": unit}
    return metrics


def _recorded_digest(workload: str, seed: int, tiny: bool) -> Optional[str]:
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        record = json.load(fh)
    if tiny or seed != record["seed"]:
        return None
    return record["digests"].get(workload)


def main() -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end simulator benchmark (see README.md).")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="seconds-long versions of the workloads "
                             "(for the tests)")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("perfbench: run from the repository root "
              "(no src/repro here)", file=sys.stderr)
        return 2

    workdir = os.path.abspath(
        os.path.join(".bench_build", f"perfbench-{os.getpid()}"))
    os.makedirs(workdir)
    try:
        chosen = WORKLOADS if args.workload == "all" else (args.workload,)
        runner = Runner(workdir)
        results = {}
        for workload in chosen:
            runner.started = time.monotonic()
            run = measure(runner, workload, args.seed, args.seconds,
                          bool(args.trace), args.tiny)
            results[workload] = summarize(workload, args.seed,
                                          bool(args.trace), args.tiny, run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if len(results) == 1:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
