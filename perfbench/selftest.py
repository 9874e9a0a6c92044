#!/usr/bin/env python3
"""Fast self-test of the benchmark at small n (about 30 s on 2 cores).

    python3 perfbench/selftest.py

1. Every workload runs untraced and traced at small sizes (n = 10^4 and
   2 * 10^4, the benchmark's step counts and horizons otherwise).  Each run
   must pass every output check and emit exactly the metrics BENCHMARK.json
   names, each with its unit.
2. Each workload runs again with one output deliberately corrupted (an alpha
   value in alpha.csv; every projection's shares, in a way that keeps them
   summing to 1; every oracle average); the corrupted operations must be
   counted as failed, not passed.
3. A copy holding only BENCHMARK.json and the benchmark's own files must
   exit with a nonzero code and print no result.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

SMALL = run.Sizes(cli_n=10 ** 4, sweep_n=10 ** 4, mc_large_n=2 * 10 ** 4,
                  published=False)
SECONDS = 0.5


def corrupt_alpha(rd):
    original = rd.fileio.write_alpha_csv

    def write_alpha_csv(path, alpha):
        alpha = alpha.copy()
        alpha[10] *= 1.0 + 1e-6
        original(path, alpha)

    return rd.fileio, "write_alpha_csv", write_alpha_csv


def corrupt_projection(rd):
    """Wrong shares that still look right: stable shares tilted by up to
    1e-6 and renormalised stay positive, descending and summing to 1; a
    divergent top group with ranks 1 and 2 swapped still sums to exactly 1.
    The grouped shares are recomputed to agree.  Only the comparison with
    the forward solve catches them (or, for a group of one, the wealth
    moved below it)."""
    original = rd.scenarios.project

    def project(params, brackets):
        outcome = original(params, brackets)
        shares = outcome.shares.copy()
        if outcome.kind == "stable":
            shares *= np.linspace(1.0, 1.0 - 1e-6, shares.size)
            shares /= shares.sum()
        else:
            shares[[0, 1]] = shares[[1, 0]]
        return dataclasses.replace(outcome, shares=shares,
                                   grouped=rd.group_shares(shares, brackets))

    return rd.scenarios, "project", project


def corrupt_oracle(rd):
    original = rd.simulate.simulate_gap_oracle

    def simulate_gap_oracle(*args, **kwargs):
        return 1.5 * original(*args, **kwargs)

    return rd.simulate, "simulate_gap_oracle", simulate_gap_oracle


#: workload -> (corruption, op kinds it must fail).
CORRUPTIONS = {
    "cli_1e6": (corrupt_alpha, {"calibrate"}),
    "scenario_sweep": (corrupt_projection, {"cell"}),
    "monte_carlo": (corrupt_oracle, {"oracle"}),
}


def check_metrics(result: dict, spec: list, label: str) -> list:
    problems = []
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in spec}:
        problems.append(f"{label}: metrics {sorted(metrics)} differ from "
                        f"BENCHMARK.json")
    for m in spec:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got["unit"] != m["unit"]:
            problems.append(f"{label}: {m['name']} has unit {got['unit']}, "
                            f"not {m['unit']}")
        if not (isinstance(got["value"], (int, float))
                and math.isfinite(got["value"])):
            problems.append(f"{label}: {m['name']} = {got['value']!r}")
    return problems


def main() -> int:
    bench = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    from layers import LAYER_MAP
    problems = []
    if set(LAYER_MAP) != {m["name"] for m in bench["per_layer"]}:
        problems.append("layers.LAYER_MAP and BENCHMARK.json per_layer "
                        "name different metrics")
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (False, True):
            label = f"{workload} trace={int(trace)}"
            out = run.run(workload, 7, SECONDS, trace, SMALL)
            result = out["result"]
            if result["failed"] or not result["correct"]:
                problems.append(f"{label}: {out['report']['problems']}")
            spec = bench["per_layer"] if trace else bench["end_to_end"]
            problems += check_metrics(result, spec, label)
            if not trace:
                problems += [f"{label}: {m['name']} is not positive"
                             for m in bench["end_to_end"]
                             if not result["metrics"][m["name"]]["value"] > 0]
            print(f"ran {label}: {result['attempted']} ops", flush=True)
        corruption, kinds = CORRUPTIONS[workload]
        patches = []

        def corrupt(rd, corruption=corruption):
            owner, attr, replacement = corruption(rd)
            patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, replacement)

        try:
            out = run.run(workload, 7, SECONDS, False, SMALL, corrupt)
        finally:
            for owner, attr, original in patches:
                setattr(owner, attr, original)
        corrupted = [op for op in out["report"]["ops"] if op["kind"] in kinds]
        failed = out["result"]["failed"]
        if not corrupted or failed != len(corrupted) or \
                out["result"]["correct"]:
            problems.append(f"{workload} corrupted: {failed} failed of "
                            f"{len(corrupted)} corrupted ops")
        print(f"ran {workload} corrupted: {failed} of "
              f"{out['result']['attempted']} ops failed", flush=True)
    run.WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK_DIR) as tmp:
        bare = Path(tmp)
        shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("_work", "__pycache__"))
        proc = subprocess.run(
            bench["command"] + ["--workload", bench["workloads"][0]["name"],
                                "--seed", "1", "--seconds", "1",
                                "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            problems.append(f"bare copy exited {proc.returncode} with "
                            f"{proc.stdout!r}")
        print(f"ran bare copy exits {proc.returncode}: "
              f"{proc.stderr.strip()}", flush=True)
    for problem in problems:
        print(f"SELFTEST FAILED: {problem}")
    print("selftest passed" if not problems else "selftest failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
