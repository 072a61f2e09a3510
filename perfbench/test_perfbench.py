"""Tests of the benchmark itself, on the tiny version of each workload.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)

WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SEEDS = (3, 8)


def bench(workload: str, seed: int, trace: int):
    """Run the tiny workload; (readable lines, final JSON object)."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace",
         str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    lines = done.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def digest(lines):
    (line,) = [x for x in lines if x.startswith("digest ")]
    return re.match(r"digest ([0-9a-f]{64}) \((\d+)/(\d+) ", line).groups()


def value_of(lines, name):
    (line,) = [x for x in lines if x.split()[:len(name.split())]
               == name.split()]
    return float(line[len(name):].split()[0])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_workload(workload, seed):
    plain_lines, plain = bench(workload, seed, trace=0)
    traced_lines, traced = bench(workload, seed, trace=1)

    for result, declared in ((plain, BENCHMARK["end_to_end"]),
                             (traced, BENCHMARK["per_layer"])):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in declared
        }
    for lines, declared in ((plain_lines, BENCHMARK["end_to_end"]),
                            (traced_lines, BENCHMARK["per_layer"])):
        for metric in declared:
            assert any(
                x.split()[:1] == [metric["name"]]
                and x.split()[2] == metric["unit"] and "n=" in x
                for x in lines
            ), metric["name"]
    assert plain["metrics"]["wall_s"]["value"] > 0
    assert plain["metrics"]["setup_s"]["value"] > 0

    # Run to run, and traced against untraced, the digest is the same.
    plain_digest, agree, total = digest(plain_lines)
    assert agree == total
    traced_digest, agree, total = digest(traced_lines)
    assert agree == total == "2"
    assert traced_digest == plain_digest

    # Layer self times plus the unattributed rest make up the traced wall.
    layers = sum(
        m["value"] for name, m in traced["metrics"].items()
        if m["unit"] == "s"
        and name not in ("sim.ckernel.load_s", "trace.overhead_s")
    )
    assert layers == pytest.approx(value_of(traced_lines, "traced wall_s"),
                                   rel=1e-3)


def test_refuses_to_run_without_the_program(tmp_path):
    """Outside a checkout of the program it fails without a result."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
