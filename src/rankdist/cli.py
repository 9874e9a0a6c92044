"""Command-line workflow.

Subcommands::

    rankdist calibrate --config cfg.json [--sigma low|high] [--out DIR]
    rankdist project   --config cfg.json [--scenario 1..4] [--sigma ...] [--out DIR]
    rankdist tax       --config cfg.json [--scenario 1..4] [--sigma ...] [--out DIR]
    rankdist simulate  --config cfg.json --seed N [--scenario ...] [--out DIR]
    rankdist report    --config cfg.json [--out DIR]

The JSON config selects the population size, sigma variant, data files
(falling back to packaged defaults), reporting brackets, and the simulation
block.  Command-line flags override config fields.  Exit codes: 0 success,
1 validation/parse errors, 2 when a command that requires stability meets an
unstable configuration (projection treats divergence as a valid outcome).
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Tuple

import numpy as np

from . import fileio
from .calibration import (
    DEFAULT_BREAKPOINTS,
    calibrate,
    default_volatility_table,
    expand_sigma,
    fit_piecewise_pareto,
)
from .core import (
    GroupedShares,
    RankModelError,
    RankParameters,
    TaxSchedule,
    TrendSpec,
    UnstableError,
    VolatilityTable,
)
from .scenarios import (
    apply_tax,
    apply_trend,
    default_capital_tax,
    preset_scenario,
    project,
)
from .simulate import SimConfig, simulate_ranked
from .stable import alpha_from_shares

DEFAULT_REPORT_BRACKETS = ((0.0, 0.01), (0.01, 0.1), (0.1, 0.5), (0.5, 1.0),
                           (1.0, 10.0), (10.0, 100.0))


@dataclass
class RunConfig:
    """Resolved run configuration (config file merged with CLI flags)."""

    n: int
    sigma_variant: str
    breakpoints: Tuple[float, float]
    target: GroupedShares
    volatility: VolatilityTable
    trend: TrendSpec
    tax: TaxSchedule
    report_brackets: Tuple[Tuple[float, float], ...]
    out_dir: Path
    sim: dict


def _load_config(args) -> RunConfig:
    raw = {}
    if args.config is not None:
        path = Path(args.config)
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise RankModelError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise RankModelError(f"config {path} is not valid JSON: {exc}"
                                 ) from exc
    base = Path(args.config).parent if args.config else Path.cwd()

    def resolve(name):
        value = raw.get(name)
        return None if value is None else (base / value)

    n = raw.get("n", 1_000_000)
    if isinstance(n, float) and n.is_integer():
        n = int(n)
    if isinstance(n, bool) or not isinstance(n, int) or n < 2:
        raise RankModelError(f"n must be an integer of at least 2, got {n!r}")
    sigma_variant = args.sigma or raw.get("sigma_variant", "low")
    if sigma_variant not in ("low", "high"):
        raise RankModelError(f"sigma variant must be low or high, got "
                             f"{sigma_variant!r}")
    breakpoints = tuple(raw.get("breakpoints", DEFAULT_BREAKPOINTS))
    if len(breakpoints) != 2:
        raise RankModelError("breakpoints must be two interior percents")

    shares_path = resolve("grouped_shares")
    target = fileio.read_grouped_shares(
        shares_path if shares_path else fileio.DATA_DIR / "wealth2012.csv")
    vol_path = resolve("volatility")
    volatility = (fileio.read_volatility_table(vol_path) if vol_path
                  else default_volatility_table())

    scenario = args.scenario if args.scenario is not None \
        else raw.get("scenario", 1)
    if isinstance(scenario, str) and not scenario.isdigit():
        trend = fileio.read_trend(base / scenario)
    else:
        trend = preset_scenario(int(scenario))
    tax_path = resolve("tax")
    tax = fileio.read_tax(tax_path) if tax_path else default_capital_tax()

    report_brackets = tuple(
        tuple(b) for b in raw.get("reporting_brackets",
                                  DEFAULT_REPORT_BRACKETS))
    out_dir = Path(args.out) if args.out else Path(raw.get("out_dir", "."))
    sim = dict(raw.get("simulation", {}))
    if getattr(args, "seed", None) is not None:
        sim["seed"] = args.seed
    return RunConfig(n=n, sigma_variant=sigma_variant,
                     breakpoints=breakpoints, target=target,
                     volatility=volatility, trend=trend, tax=tax,
                     report_brackets=report_brackets, out_dir=out_dir,
                     sim=sim)


def _calibrated(cfg: RunConfig):
    shares, fit = fit_piecewise_pareto(cfg.target, cfg.n, cfg.breakpoints)
    sigma = expand_sigma(cfg.volatility, cfg.n, cfg.sigma_variant)
    params = alpha_from_shares(shares, sigma)
    return shares, fit, params


def cmd_calibrate(cfg: RunConfig) -> int:
    shares, fit, params = _calibrated(cfg)
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    fileio.write_alpha_csv(out / "alpha.csv", params.alpha)
    fileio.write_fit_csv(out / "fit.csv", shares.shares)
    fileio.write_fit_report(out / "fit_report.json", fit)
    print(f"calibrated n={cfg.n} sigma={cfg.sigma_variant} "
          f"fit_error={fit.fit_error:.6f}")
    return 0


def _project_outputs(cfg: RunConfig, params: RankParameters) -> int:
    outcome = project(params, cfg.report_brackets)
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    fileio.write_grouped_csv(out / "projection.csv", outcome.grouped)
    fileio.write_loglog_csv(out / "loglog.csv", outcome.shares)
    if outcome.kind == "divergent":
        fileio.write_divergence_json(out / "divergence.json", outcome.report)
    for (lo, hi), share in zip(outcome.grouped.brackets,
                               outcome.grouped.shares):
        print(f"  {lo:g}-{hi:g}%: {100 * share:.1f}%")
    print(f"outcome: {outcome.kind}" +
          (f" (m={outcome.report.m})" if outcome.kind == "divergent" else ""))
    return 0


def cmd_project(cfg: RunConfig) -> int:
    _shares, _fit, params = _calibrated(cfg)
    return _project_outputs(cfg, apply_trend(params, cfg.trend))


def cmd_tax(cfg: RunConfig) -> int:
    _shares, _fit, params = _calibrated(cfg)
    adjusted = apply_tax(apply_trend(params, cfg.trend), cfg.tax)
    return _project_outputs(cfg, adjusted)


def cmd_simulate(cfg: RunConfig) -> int:
    if "seed" not in cfg.sim:
        raise RankModelError("simulate requires --seed (or a config seed)")
    sim_config = SimConfig(
        n=cfg.n,
        dt=float(cfg.sim.get("dt", 0.1)),
        horizon=float(cfg.sim.get("horizon", 100.0)),
        seed=int(cfg.sim["seed"]),
        record_every=float(cfg.sim.get("record_every", 1.0)),
        report_brackets=cfg.report_brackets,
        drift_clip=(float(cfg.sim["drift_clip"])
                    if cfg.sim.get("drift_clip") is not None else None),
    )
    shares, _fit, params = _calibrated(cfg)
    adjusted = apply_trend(params, cfg.trend)
    path = simulate_ranked(adjusted, sim_config, shares)
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    fileio.write_path_csv(out / "path.csv", path.times, path.group_shares,
                          cfg.report_brackets)
    print(f"simulated {sim_config.horizon:g} years at dt={sim_config.dt:g} "
          f"(seed {sim_config.seed}); wrote {out / 'path.csv'}")
    return 0


def cmd_report(cfg: RunConfig) -> int:
    """Human-readable summary: fit diagnostics plus the scenario/tax grid."""
    shares, fit, params = _calibrated(cfg)

    def cell(scenario_id: int, taxed: bool):
        adjusted = apply_trend(params, preset_scenario(scenario_id))
        if taxed:
            adjusted = apply_tax(adjusted, cfg.tax)
        outcome = project(adjusted, cfg.report_brackets)
        return scenario_id, taxed, outcome

    jobs = [(s, t) for t in (False, True) for s in (1, 2, 3, 4)]
    with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
        results = list(pool.map(lambda job: cell(*job), jobs))

    lines = [f"n = {cfg.n}, sigma variant = {cfg.sigma_variant}",
             f"fit: slopes = {tuple(round(s, 4) for s in fit.slopes)}, "
             f"total absolute error = {fit.fit_error:.4f}", ""]
    labels = [f"{lo:g}-{hi:g}%" for lo, hi in cfg.report_brackets]
    for scenario_id, taxed, outcome in results:
        title = f"scenario {scenario_id}" + (" + capital tax" if taxed else "")
        row = "  ".join(f"{label} {100 * share:.1f}%"
                        for label, share in zip(labels,
                                                outcome.grouped.shares))
        suffix = (f"  [divergent, m={outcome.report.m}]"
                  if outcome.kind == "divergent" else "")
        lines.append(f"{title}: {row}{suffix}")
    text = "\n".join(lines)
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    (out / "summary.txt").write_text(text + "\n", encoding="utf-8",
                                     newline="\n")
    print(text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankdist",
        description="Rank-based wealth distribution model: calibration, "
                    "projection, capital-tax analysis, and simulation.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("calibrate", "fit grouped data and emit per-rank parameters"),
        ("project", "solve the limit distribution under a trend scenario"),
        ("tax", "project under trend plus capital-tax adjustment"),
        ("simulate", "run the ranked-particle Monte Carlo"),
        ("report", "summarize the full scenario/tax grid"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON run configuration")
        p.add_argument("--scenario", help="trend preset 1..4 or a trend CSV")
        p.add_argument("--sigma", choices=["low", "high"],
                       help="volatility variant")
        p.add_argument("--out", help="output directory")
        if name == "simulate":
            p.add_argument("--seed", type=int, required=False,
                           help="simulation seed (required unless in config)")
    return parser


_COMMANDS = {
    "calibrate": cmd_calibrate,
    "project": cmd_project,
    "tax": cmd_tax,
    "simulate": cmd_simulate,
    "report": cmd_report,
}

#: Commands whose math requires a stable configuration; divergence there is
#: exit code 2.  Projection-style commands treat divergence as a result.
_REQUIRES_STABILITY = {"calibrate", "simulate"}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        return _COMMANDS[args.command](cfg)
    except UnstableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if args.command in _REQUIRES_STABILITY else 1
    except RankModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
