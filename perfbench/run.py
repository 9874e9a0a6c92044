#!/usr/bin/env python3
"""rankdist benchmark: the calibrate / project / validate pipeline, end to end
and module by module.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cli_1e6 --seed 1 --seconds 6 --trace 0

Workloads (closed loop: one caller, each operation starts after the previous
one has completed; whole cycles of the workload's operation list run until
the timed operations have taken ``--seconds``):

* ``cli_1e6``: the CLI commands ``calibrate``, ``tax --scenario 4`` and
  ``report`` at n = 10^6, in-process through ``rankdist.cli.main``; each
  command refits, as it does for a CLI user.  One cycle is the three
  commands.
* ``scenario_sweep``: projection cells (``apply_trend``, ``apply_tax`` on
  taxed cells, ``project``) over the 16 preset cells and a seeded block of
  random trend and tax specs, on an n = 10^6 calibration made in set-up.
  One cycle is one pass over the cells.
* ``monte_carlo``: ``simulate_ranked`` at n = 10^5 and n = 10^4 and the
  reflected-gap oracle over a kappa x sigma grid, after calibrating both
  sizes in set-up.  One cycle is one run of each.

End-to-end metrics (the result line with ``--trace 0``; every workload
reports each of them, so they are defined by the workload's operations):

* ``setup_s``: import, data load and set-up calibration.  The import,
  nearly all of cli_1e6's set-up, counts at the median of SETUP_REPEATS
  imports: this process's own and fresh interpreters'.
* ``cycle_s``: median wall time of one cycle.
* ``op_ms.p50``, ``op_ms.p90``: the 50th and 90th percentile of the wall
  time of one fixed kind of operation each, named per workload in
  ``Workload.quantile_kinds``: the report and the tax command on cli_1e6
  (one sample each per run), a projection cell on scenario_sweep, and the
  n = 10^4 and the n = 10^5 simulation on monte_carlo.  A quantile never
  mixes kinds, so a change in one kind's speed cannot swap which operation
  it reports.
* ``peak_rss_mb``: peak resident memory of the run.

The pipeline's own metrics are printed by name, with unit and sample count,
in the table and the ``# report`` line: ``calibrate_s``, ``tax_s``,
``report_s`` and ``fit_error`` (cli_1e6); ``projection_ms.p50`` and
``.p90`` (scenario_sweep, equal to ``op_ms.*`` there);
``sim_step_ms.n1e5``, ``sim_step_ms.n1e4`` and ``oracle_msteps_per_s``
(monte_carlo); and ``failed_ratio`` everywhere.  On cli_1e6 ``cycle_s`` is
the sum of the three commands.

Every operation's output is checked outside its timed span (``checks.py``);
a failed check or an exception counts the operation as failed.  With
``--trace 1`` the package's inter-module names are wrapped (``tracing.py``)
and the result carries the per-layer metrics of ``layers.py``.  The
``# report`` line also records the environment, the exact work counts and
each operation's input size and seed.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import platform
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / "_work"

SETUP_REPEATS = 3
CLI_COMMANDS = (("calibrate",), ("tax", "--scenario", "4"), ("report",))
CLI_TAX_KEY = (4, True, "low")
MC_LARGE_BRACKETS = ((0.0, 0.01), (0.01, 100.0))
MC_SMALL_BRACKETS = ((0.0, 1.0), (1.0, 10.0), (10.0, 100.0))
ORACLE_GRID = tuple((kappa, sigma) for kappa in (0.5, 1.0)
                    for sigma in (0.1, 0.2))
RANDOM_CELLS = 16
MC_LARGE_STEPS = 50
MC_SMALL_N = 10 ** 4
MC_SMALL_STEPS = 250
ORACLE_DT = 1e-3
ORACLE_HORIZON = 500.0
ORACLE_BURN_IN = 0.05


@dataclasses.dataclass(frozen=True)
class Sizes:
    """The sizes the small-n self-test changes; the defaults are the
    benchmark's."""

    cli_n: int = 10 ** 6
    sweep_n: int = 10 ** 6
    mc_large_n: int = 10 ** 5
    #: The published table and fit bound hold for the n = 10^6 calibration.
    published: bool = True


@dataclasses.dataclass
class Op:
    """One timed operation: ``run`` is timed, ``check`` is not.

    ``facts`` reads the few numbers the report keeps off a result, so that
    no result outlives its check.
    """

    kind: str
    label: str
    run: object
    check: object
    info: dict = dataclasses.field(default_factory=dict)
    facts: object = None


class BenchError(Exception):
    """The benchmark cannot run here: the package sources are missing."""


def import_package():
    """Import rankdist from this checkout's src/ and nowhere else."""
    if not (SRC / "rankdist" / "__init__.py").is_file():
        raise BenchError(f"no rankdist sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rankdist
    import rankdist.cli
    imported = Path(rankdist.__file__).resolve().parent
    if imported != (SRC / "rankdist").resolve():
        raise BenchError(f"imported rankdist from {rankdist.__file__}, "
                         f"not from {SRC}")
    return rankdist


def fresh_import_s() -> float:
    """Seconds a fresh interpreter takes to import rankdist.cli from src/."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "start = time.perf_counter(); import rankdist.cli; "
            "print(time.perf_counter() - start)")
    proc = subprocess.run([sys.executable, "-c", code, str(SRC)],
                          capture_output=True, text=True, check=True,
                          timeout=120)
    return float(proc.stdout)


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------

class Workload:
    """A set-up, then cycles of timed operations."""

    name = ""
    #: The op kinds whose times give op_ms.p50 and op_ms.p90.
    quantile_kinds = ("", "")

    def __init__(self, rd, sizes: Sizes, seed: int, work: Path):
        self.rd, self.sizes, self.seed, self.work = rd, sizes, seed, work

    def cleanup(self, cycle: int):
        """Remove what a cycle left on disk."""


class CliWorkload(Workload):
    """calibrate, tax --scenario 4 and report through rankdist.cli.main."""

    name = "cli_1e6"
    quantile_kinds = ("report", "tax")

    def setup(self):
        from rankdist import fileio
        self.config = self.work / "config.json"
        with open(self.config, "w", encoding="utf-8") as handle:
            json.dump({"n": self.sizes.cli_n, "sigma_variant": "low"}, handle)
        fileio.read_grouped_shares(fileio.DATA_DIR / "wealth2012.csv")
        table = self.rd.default_volatility_table()
        self.sigma = self.rd.expand_sigma(table, self.sizes.cli_n, "low")

    def ops(self, cycle: int):
        from checks import check_calibrate, check_report, check_tax
        n, published = self.sizes.cli_n, self.sizes.published
        checks = {
            "calibrate": lambda out, stdout: check_calibrate(
                out, stdout, n, self.sigma, published),
            "tax": lambda out, stdout: check_tax(
                out, stdout, n, CLI_TAX_KEY, published),
            "report": lambda out, stdout: check_report(
                out, stdout, "low", published),
        }
        for argv in CLI_COMMANDS:
            out = self.work / f"cycle{cycle}_{argv[0]}"
            args = list(argv) + ["--config", str(self.config),
                                 "--out", str(out)]
            yield Op(kind=argv[0], label=" ".join(argv),
                     run=lambda args=args: self._main(args),
                     check=lambda stdout, out=out, check=checks[argv[0]]:
                     check(out, stdout),
                     info={"n": n, "argv": list(argv)},
                     facts=lambda stdout, out=out: command_facts(stdout, out))

    def _main(self, args):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = self.rd.cli.main(args)
        if code != 0:
            raise RuntimeError(f"rankdist {args[0]} exited with {code}")
        return buffer.getvalue()

    def cleanup(self, cycle: int):
        for argv in CLI_COMMANDS:
            shutil.rmtree(self.work / f"cycle{cycle}_{argv[0]}",
                          ignore_errors=True)


def random_specs(seed: int, count: int):
    """Seeded trend and tax specs over the paper brackets.

    Spec i boosts bracket i mod 4 of the top four by a rate drawn from
    stratum i // 4 of [0, 8%), so that its group overtakes the rest
    (divergent, with m set by the boosted bracket) or not (stable) in
    much the same proportions for every seed.  Taxes hit the top 1% as the
    paper's schedule does, on half of the specs.
    """
    from checks import PAPER_BRACKETS
    rng = random.Random(f"scenario_sweep/{seed}")
    strata = math.ceil(count / 4)
    specs = []
    for i in range(count):
        growth = [rng.uniform(-0.005, 0.005) for _ in PAPER_BRACKETS]
        growth[i % 4] += 0.08 * (i // 4 + rng.random()) / strata
        growth[-1] -= rng.uniform(0.005, 0.02)
        tax = None
        if (i + i // 4) % 2:
            tax = (rng.uniform(0.0, 0.03), rng.uniform(0.0, 0.015))
        specs.append({"growth": growth, "tax": tax,
                      "variant": ("low", "high")[(i // 2) % 2]})
    return specs


def command_facts(stdout: str, out: Path) -> dict:
    """The printed fit error and the bytes a command wrote."""
    facts = {"bytes_written": sum(f.stat().st_size for f in out.iterdir())}
    match = re.search(r"fit_error=([0-9.eE+-]+)", stdout)
    if match:
        facts["fit_error"] = float(match.group(1))
    return facts


class SweepWorkload(Workload):
    """Projection cells on one n = 10^6 calibration, both sigma variants."""

    name = "scenario_sweep"
    quantile_kinds = ("cell", "cell")

    def setup(self):
        from rankdist import calibration, fileio, stable
        n = self.sizes.sweep_n
        target = fileio.read_grouped_shares(fileio.DATA_DIR / "wealth2012.csv")
        table = self.rd.default_volatility_table()
        shares, _fit = calibration.fit_piecewise_pareto(
            target, n, calibration.DEFAULT_BREAKPOINTS)
        self.params = {variant: stable.alpha_from_shares(
            shares, calibration.expand_sigma(table, n, variant))
            for variant in ("low", "high")}
        from checks import PAPER_BRACKETS
        self.cells = []
        for variant in ("low", "high"):
            for taxed in (False, True):
                for scenario in (1, 2, 3, 4):
                    trend = self.rd.preset_scenario(scenario)
                    tax = self.rd.default_capital_tax() if taxed else None
                    self.cells.append(
                        (f"preset {scenario}{' taxed' if taxed else ''} "
                         f"{variant}", variant, trend, tax,
                         (scenario, taxed, variant)))
        for i, spec in enumerate(random_specs(self.seed, RANDOM_CELLS)):
            trend = self.rd.TrendSpec(brackets=PAPER_BRACKETS,
                                      growth=spec["growth"])
            tax = None if spec["tax"] is None else self.rd.TaxSchedule(
                brackets=((0.0, 0.5), (0.5, 1.0)), rate=spec["tax"])
            self.cells.append((f"random {i} {spec['variant']}",
                               spec["variant"], trend, tax, None))

    def ops(self, cycle: int):
        from rankdist import scenarios
        from checks import PAPER_BRACKETS, check_cell, per_rank
        published = self.sizes.published
        for label, variant, trend, tax, key in self.cells:
            params = self.params[variant]

            def run(params=params, trend=trend, tax=tax):
                adjusted = scenarios.apply_trend(params, trend)
                if tax is not None:
                    adjusted = scenarios.apply_tax(adjusted, tax)
                return scenarios.project(adjusted, PAPER_BRACKETS)

            def check(outcome, params=params, trend=trend, tax=tax, key=key):
                n = params.n
                alpha = params.alpha + per_rank(trend.brackets, trend.growth,
                                                n)
                if tax is not None:
                    alpha = alpha - per_rank(tax.brackets, tax.rate, n)
                return check_cell(outcome, alpha, params.sigma,
                                  PAPER_BRACKETS, key if published else None)

            yield Op(kind="cell", label=label, run=run, check=check,
                     info={"n": params.n, "preset": key is not None},
                     facts=lambda outcome: {"kind": outcome.kind,
                                            "m": outcome.report.m})


class MonteCarloWorkload(Workload):
    """Ranked simulations at two sizes and the reflected-gap oracle grid."""

    name = "monte_carlo"
    quantile_kinds = ("ranked_small", "ranked_large")

    def setup(self):
        from rankdist import calibration, fileio, scenarios, stable
        target = fileio.read_grouped_shares(fileio.DATA_DIR / "wealth2012.csv")
        table = self.rd.default_volatility_table()
        self.runs = {}
        for label, n, breakpoints, trend in (
                ("large", self.sizes.mc_large_n,
                 calibration.DEFAULT_BREAKPOINTS, 4),
                ("small", MC_SMALL_N, (0.1, 10.0), 1)):
            shares, _fit = calibration.fit_piecewise_pareto(
                target, n, breakpoints)
            params = stable.alpha_from_shares(
                shares, calibration.expand_sigma(table, n, "low"))
            initial = stable.shares_from_gaps(stable.stable_gaps(params))
            adjusted = scenarios.apply_trend(params,
                                             scenarios.preset_scenario(trend))
            self.runs[label] = (adjusted, initial)

    def _seed(self, cycle: int, index: int) -> int:
        return self.seed * 1_000_000 + cycle * 100 + index

    def ops(self, cycle: int):
        from rankdist import simulate
        from checks import check_oracle, check_path
        for index, (label, n, dt, steps, brackets, clip) in enumerate((
                ("large", self.sizes.mc_large_n, 0.02, MC_LARGE_STEPS,
                 MC_LARGE_BRACKETS, 2.0),
                ("small", MC_SMALL_N, 0.1, MC_SMALL_STEPS, MC_SMALL_BRACKETS,
                 None))):
            params, initial = self.runs[label]
            config = simulate.SimConfig(
                n=n, dt=dt, horizon=steps * dt, seed=self._seed(cycle, index),
                record_every=1.0, report_brackets=brackets, drift_clip=clip)
            stride = max(int(round(config.record_every / dt)), 1)
            yield Op(kind=f"ranked_{label}", label=f"simulate_ranked n={n}",
                     run=lambda params=params, config=config, initial=initial:
                     simulate.simulate_ranked(params, config, initial),
                     check=lambda path, n=n, steps=steps, stride=stride,
                     brackets=brackets: check_path(path, n, steps, stride,
                                                   brackets),
                     info={"n": n, "steps": steps, "dt": dt,
                           "seed": config.seed})
        horizon = ORACLE_HORIZON
        averaged = horizon * (1.0 - ORACLE_BURN_IN)
        seeds = [self._seed(cycle, 10 + i) for i in range(len(ORACLE_GRID))]

        def run_grid():
            return [simulate.simulate_gap_oracle(
                kappa, sigma, dt=ORACLE_DT, horizon=horizon,
                burn_in=ORACLE_BURN_IN * horizon, seed=seed)
                for (kappa, sigma), seed in zip(ORACLE_GRID, seeds)]

        def check_grid(averages):
            problems = []
            for (kappa, sigma), average in zip(ORACLE_GRID, averages):
                problems += check_oracle(average, kappa, sigma, averaged)
            return problems

        steps = len(ORACLE_GRID) * int(round(horizon / ORACLE_DT))
        yield Op(kind="oracle", label="simulate_gap_oracle grid",
                 run=run_grid, check=check_grid,
                 info={"steps": steps, "dt": ORACLE_DT, "seeds": seeds})


WORKLOADS = {w.name: w for w in (CliWorkload, SweepWorkload,
                                 MonteCarloWorkload)}


# --------------------------------------------------------------------------
# Runner
# --------------------------------------------------------------------------

def run_workload(workload, seconds: float, tracer=None):
    """Set up, then run whole cycles until the timed ops reach ``seconds``."""
    setup_start = time.perf_counter()
    workload.setup()
    setup_s = time.perf_counter() - setup_start
    records = []
    cycle = 0
    timed = 0.0
    while cycle == 0 or timed < seconds:
        if tracer is not None:
            tracer.phase = f"cycle{cycle}"
        for op in workload.ops(cycle):
            start = time.perf_counter()
            try:
                if tracer is None:
                    result = op.run()
                else:
                    result = tracer.call(f"op.{op.kind}", op.run)
                error = None
            except Exception as exc:  # an op that raises counts as failed
                result, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            timed += elapsed
            facts = {}
            if error is None:
                try:
                    problems = op.check(result)
                    if op.facts is not None:
                        facts = op.facts(result)
                except Exception as exc:
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
            else:
                problems = [error]
            del result
            records.append({"cycle": cycle, "kind": op.kind,
                            "label": op.label, "seconds": elapsed,
                            "problems": problems, "info": op.info,
                            "facts": facts})
        workload.cleanup(cycle)
        cycle += 1
    return setup_s, records, cycle, timed


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile (inclusive of the extremes)."""
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    pos = q * (len(values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (pos - lo) * (values[hi] - values[lo])


def end_to_end(workload, records, cycles: int, setup_s: float):
    per_cycle = [sum(r["seconds"] for r in records if r["cycle"] == c)
                 for c in range(cycles)]
    out = {"setup_s": (setup_s, "s", 1),
           "cycle_s": (statistics.median(per_cycle), "s", cycles)}
    for name, q, kind in (("op_ms.p50", 0.5, workload.quantile_kinds[0]),
                          ("op_ms.p90", 0.9, workload.quantile_kinds[1])):
        ops_ms = [1e3 * r["seconds"] for r in records if r["kind"] == kind]
        out[name] = (quantile(ops_ms, q), "ms", len(ops_ms))
    out["peak_rss_mb"] = (peak_rss_mb(), "MB", 1)
    return out


def named_metrics(workload, records, setup_s: float):
    """The pipeline's metrics by their own names, per workload."""
    def by_kind(kind):
        return [r for r in records if r["kind"] == kind]

    out = {"setup_s": (setup_s, "s", 1)}
    if workload.name == "cli_1e6":
        for kind in ("calibrate", "tax", "report"):
            values = [r["seconds"] for r in by_kind(kind)]
            out[f"{kind}_s"] = (statistics.median(values), "s", len(values))
        errors = [r["facts"]["fit_error"] for r in by_kind("calibrate")
                  if "fit_error" in r["facts"]]
        if errors:
            out["fit_error"] = (errors[0], "share", len(errors))
    elif workload.name == "scenario_sweep":
        cells = [1e3 * r["seconds"] for r in by_kind("cell")]
        out["projection_ms.p50"] = (quantile(cells, 0.5), "ms", len(cells))
        out["projection_ms.p90"] = (quantile(cells, 0.9), "ms", len(cells))
    else:
        for kind, name in (("ranked_large", "sim_step_ms.n1e5"),
                           ("ranked_small", "sim_step_ms.n1e4")):
            steps = [1e3 * r["seconds"] / r["info"]["steps"]
                     for r in by_kind(kind)]
            out[name] = (statistics.median(steps), "ms", len(steps))
        rates = [r["info"]["steps"] / r["seconds"] / 1e6
                 for r in by_kind("oracle")]
        out["oracle_msteps_per_s"] = (statistics.median(rates), "Msteps/s",
                                      len(rates))
    out["peak_rss_mb"] = (peak_rss_mb(), "MB", 1)
    failed = sum(1 for r in records if r["problems"])
    out["failed_ratio"] = (failed / len(records), "ratio", len(records))
    return out


def work_counts(workload, records):
    """Exact counts of the work done, beside the timings; per cycle where
    every cycle does the same work."""
    counts = {"ops": len(records)}
    cycles = 1 + max(r["cycle"] for r in records)
    if workload.name == "cli_1e6":
        for r in records:
            key = f"bytes_written_per_cycle.{r['kind']}"
            counts[key] = counts.get(key, 0) + r["facts"].get(
                "bytes_written", 0) // cycles
    elif workload.name == "scenario_sweep":
        kinds = [r["facts"].get("kind") for r in records]
        ms = sorted({r["facts"]["m"] for r in records
                     if r["facts"].get("kind") == "divergent"})
        counts.update(cells_per_pass=len(workload.cells),
                      stable_per_pass=kinds.count("stable") // cycles,
                      divergent_per_pass=kinds.count("divergent") // cycles,
                      divergent_m=ms)
    elif workload.name == "monte_carlo":
        counts.update(
            ranked_steps_n1e5=sum(r["info"]["steps"] for r in records
                                  if r["kind"] == "ranked_large"),
            ranked_steps_n1e4=sum(r["info"]["steps"] for r in records
                                  if r["kind"] == "ranked_small"),
            oracle_steps=sum(r["info"]["steps"] for r in records
                             if r["kind"] == "oracle"))
    return counts


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------------
# Environment
# --------------------------------------------------------------------------

def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def steal_ticks() -> int:
    """CPU time the hypervisor gave to others, from /proc/stat, in ticks."""
    fields = _read("/proc/stat").split("\n", 1)[0].split()
    return int(fields[8]) if len(fields) > 8 else 0


def environment(work: Path) -> dict:
    import numpy as np
    import scipy
    cpuinfo = _read("/proc/cpuinfo")
    model = next((line.split(":", 1)[1].strip()
                  for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.machine())
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        level = _read(str(index / "level"))
        kind = _read(str(index / "type"))
        caches[f"L{level} {kind}"] = _read(str(index / "size"))
    mounts = []
    for line in _read("/proc/self/mounts").splitlines():
        parts = line.split()
        if len(parts) >= 3:
            mounts.append((parts[1], parts[2]))
    work_path = str(work.resolve())
    fs = max((m for m in mounts
              if work_path == m[0] or work_path.startswith(
                  m[0].rstrip("/") + "/")),
             key=lambda m: len(m[0]), default=("?", "?"))[1]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpus_online": _read("/sys/devices/system/cpu/online"),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "longdouble_nmant": int(np.finfo(np.longdouble).nmant),
        "output_fs": fs,
        "RANKDIST_THREADS": os.environ.get("RANKDIST_THREADS", "unset"),
    }


# --------------------------------------------------------------------------
# Main
# --------------------------------------------------------------------------

def run(workload_name: str, seed: int, seconds: float, trace: bool,
        sizes: Sizes = Sizes(), corrupt=None) -> dict:
    """One benchmark run; returns the result and the report.

    ``corrupt``, used by the self-test only, is called with the imported
    package before set-up and may patch it to produce wrong outputs.
    """
    WORK_DIR.mkdir(exist_ok=True)
    steal_start = steal_ticks()
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        work = Path(tmp)
        import_start = time.perf_counter()
        rd = import_package()
        imports = [time.perf_counter() - import_start]
        imports += [fresh_import_s() for _ in range(SETUP_REPEATS - 1)]
        if corrupt is not None:
            corrupt(rd)
        tracer = None
        if trace:
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
        workload = WORKLOADS[workload_name](rd, sizes, seed, work)
        try:
            setup_s, records, cycles, timed_s = run_workload(
                workload, seconds, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        setup_s += statistics.median(imports)
        named = named_metrics(workload, records, setup_s)
        e2e = end_to_end(workload, records, cycles, setup_s)
        if trace:
            from layers import layer_metrics
            metrics = layer_metrics(tracer, cycles,
                                    (sizes.mc_large_n, MC_SMALL_N),
                                    tracer.span_cost_s(), timed_s)
        else:
            metrics = {name: (value, unit) for name, (value, unit, _count)
                       in e2e.items()}
        env = environment(work)
    failed = sum(1 for r in records if r["problems"])
    result_metrics = {name: {"value": value, "unit": unit}
                      for name, (value, unit) in metrics.items()}
    report = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "sizes": dataclasses.asdict(sizes),
        "environment": env,
        "cpu_steal_s": (steal_ticks() - steal_start)
        / os.sysconf("SC_CLK_TCK"),
        "cycles": cycles,
        "named_metrics": {name: {"value": v, "unit": u, "samples": c}
                          for name, (v, u, c) in named.items()},
        "end_to_end": {name: {"value": v, "unit": u, "samples": c}
                       for name, (v, u, c) in e2e.items()},
        "counts": work_counts(workload, records),
        "ops": [{"cycle": r["cycle"], "kind": r["kind"], "label": r["label"],
                 "seconds": r["seconds"], "info": r["info"]}
                for r in records],
        "problems": [f"{r['label']} (cycle {r['cycle']}): {p}"
                     for r in records for p in r["problems"]],
    }
    result = {"correct": failed == 0, "attempted": len(records),
              "failed": failed, "metrics": result_metrics}
    return {"result": result, "report": report}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        outcome = run(args.workload, args.seed, args.seconds,
                      bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    report = outcome["report"]
    for name, m in report["named_metrics"].items():
        print(f"{report['workload']:>15} {name:<22} {m['value']:.6g} "
              f"{m['unit']} (n={m['samples']})")
    for problem in report["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)
    print("# report " + json.dumps(report, default=str))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
