"""Command-line workflow.

Subcommands::

    rankdist calibrate --config cfg.json [--sigma VARIANT] [--out DIR]
    rankdist project   --config cfg.json [--scenario ID|CSV] [--sigma ...] [--out DIR]
    rankdist tax       --config cfg.json [--scenario ID|CSV] [--sigma ...] [--out DIR]
    rankdist simulate  --config cfg.json --seed N [--scenario ...] [--out DIR]
    rankdist report    --config cfg.json [--sigma VARIANT] [--out DIR]

The JSON config selects the population size, sigma variant, data files
(falling back to packaged defaults), reporting brackets (by default the
target's), and the simulation block; the domain types check each value.
Command-line flags override config fields.  Paths in the config resolve
against the config file's directory, paths given as flags against the
working directory.  Exit codes: 0 success, 1 on any :class:`RankModelError`,
usage errors and unreadable or unwritable files included, and on an n too
large to allocate.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional, Tuple

from . import fileio
from .calibration import (
    DEFAULT_BREAKPOINTS,
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
    VolatilityTable,
    _thread_count,
    as_brackets,
    as_rank_count,
)
from .scenarios import (
    PRESETS,
    apply_tax,
    apply_trend,
    default_capital_tax,
    preset_scenario,
    project,
)
from .simulate import SimConfig, simulate_ranked
from .stable import alpha_from_shares

_CONFIG_KEYS = {"n", "sigma_variant", "breakpoints", "grouped_shares",
                "volatility", "scenario", "tax", "reporting_brackets",
                "out_dir", "simulation"}
#: SimConfig fields the simulation block may set; SimConfig has the defaults.
_SIMULATION_KEYS = ({f.name for f in fields(SimConfig)}
                    - {"n", "report_brackets"})


def _check_keys(block, allowed, where: str) -> None:
    if not isinstance(block, dict):
        raise RankModelError(f"{where} must be a JSON object")
    unknown = sorted(set(block) - allowed)
    if unknown:
        raise RankModelError(f"unknown key(s) in {where}: {unknown}")


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
    sim: Optional[SimConfig]


def _load_config(args) -> RunConfig:
    raw, config_dir = {}, Path()
    if args.config is not None:
        path = Path(args.config)
        config_dir = path.parent
        raw = fileio.read_config(path)
        _check_keys(raw, _CONFIG_KEYS, f"config {path}")
        _check_keys(raw.get("simulation", {}), _SIMULATION_KEYS,
                    f"config {path} simulation block")
        # Paths in the config resolve against its directory; paths given
        # as flags, against the working directory.
        for key in ("grouped_shares", "volatility", "tax", "out_dir"):
            value = raw.get(key)
            if value is None:
                continue
            if not isinstance(value, str):
                raise RankModelError(f"{key} must be a path string, got "
                                     f"{value!r}")
            raw[key] = config_dir / value

    # Checked before any data file is read.
    n = as_rank_count(raw.get("n", 1_000_000))
    sigma_variant = (args.sigma
                     or raw.get("sigma_variant", VolatilityTable.VARIANTS[0]))

    target = fileio.read_grouped_shares(
        raw.get("grouped_shares") or fileio.DATA_DIR / "wealth2012.csv")
    vol_path = raw.get("volatility")
    volatility = (fileio.read_volatility_table(vol_path) if vol_path
                  else default_volatility_table())

    scenario, base = getattr(args, "scenario", None), Path()
    if scenario is None:
        scenario, base = raw.get("scenario", 1), config_dir
    if not isinstance(scenario, str):
        trend = preset_scenario(scenario)
    elif (preset := fileio._integer(scenario)) is not None:
        trend = preset_scenario(preset)
    else:
        trend = fileio.read_trend(base / scenario)
    tax_path = raw.get("tax")
    tax = fileio.read_tax(tax_path) if tax_path else default_capital_tax()

    report_brackets = as_brackets(
        raw.get("reporting_brackets", target.brackets), "reporting_brackets",
        partition=True)
    out_dir = Path(args.out or raw.get("out_dir") or ".")
    block = dict(raw.get("simulation", {}))
    if getattr(args, "seed", None) is not None:
        block["seed"] = args.seed
    # Every command checks the block and maps the brackets to ranks, before
    # the fit; only simulate needs the seed.
    sim = SimConfig(n=n, report_brackets=report_brackets,
                    **{"seed": 0, **block})
    return RunConfig(n=n, sigma_variant=sigma_variant,
                     breakpoints=raw.get("breakpoints", DEFAULT_BREAKPOINTS),
                     target=target, volatility=volatility, trend=trend,
                     tax=tax, report_brackets=report_brackets,
                     out_dir=out_dir, sim=sim if "seed" in block else None)


def _calibrated(cfg: RunConfig):
    # expand_sigma checks the sigma variant, before the fit spends its time;
    # fit_piecewise_pareto checks the breakpoints.
    sigma = expand_sigma(cfg.volatility, cfg.n, cfg.sigma_variant)
    shares, fit = fit_piecewise_pareto(cfg.target, cfg.n, cfg.breakpoints)
    return shares, fit, alpha_from_shares(shares, sigma)


def cmd_calibrate(cfg: RunConfig) -> int:
    shares, fit, params = _calibrated(cfg)
    out = cfg.out_dir
    with fileio.group():
        fileio.write_alpha_csv(out / "alpha.csv", params.alpha)
        fileio.write_fit_csv(out / "fit.csv", shares.shares)
        fileio.write_fit_report(out / "fit_report.json", fit)
    print(f"calibrated n={cfg.n} sigma={cfg.sigma_variant} "
          f"fit_error={fit.fit_error:.6f}")
    return 0


def _adjusted(params: RankParameters, trend: TrendSpec,
              tax: Optional[TaxSchedule] = None) -> RankParameters:
    """The trend first, then the tax when there is one; never recentred."""
    adjusted = apply_trend(params, trend)
    return adjusted if tax is None else apply_tax(adjusted, tax)


def _label(lo: float, hi: float) -> str:
    return f"{lo:g}-{hi:g}%"


def _cmd_projection(cfg: RunConfig, tax: Optional[TaxSchedule]) -> int:
    params = _calibrated(cfg)[2]
    outcome = project(_adjusted(params, cfg.trend, tax), cfg.report_brackets)
    out = cfg.out_dir
    with fileio.group():
        fileio.write_grouped_csv(out / "projection.csv", outcome.grouped)
        fileio.write_loglog_csv(out / "loglog.csv", outcome.shares)
        fileio.write_divergence_json(out / "divergence.json", outcome.report)
    for bracket, share in zip(outcome.grouped.brackets,
                              outcome.grouped.shares):
        print(f"  {_label(*bracket)}: {100 * share:.1f}%")
    print(f"outcome: {outcome.kind}" +
          (f" (m={outcome.report.m})" if outcome.kind == "divergent" else ""))
    return 0


def cmd_simulate(cfg: RunConfig) -> int:
    if cfg.sim is None:
        raise RankModelError("simulate requires --seed (or a config seed)")
    shares, _fit, params = _calibrated(cfg)
    path = simulate_ranked(_adjusted(params, cfg.trend), cfg.sim, shares)
    out = cfg.out_dir
    fileio.write_path_csv(out / "path.csv", path.times, path.group_shares,
                          cfg.report_brackets)
    print(f"simulated {cfg.sim.horizon:g} years at dt={cfg.sim.dt:g} "
          f"(seed {cfg.sim.seed}); wrote {out / 'path.csv'}")
    return 0


def cmd_report(cfg: RunConfig) -> int:
    """Human-readable summary: fit diagnostics plus the scenario/tax grid."""
    # The grid needs only the parameters; the fitted shares (n-long) go now.
    fit, params = _calibrated(cfg)[1:]
    labels = [_label(*bracket) for bracket in cfg.report_brackets]

    def cell(scenario_id: int, taxed: bool) -> str:
        adjusted = _adjusted(params, preset_scenario(scenario_id),
                             cfg.tax if taxed else None)
        outcome = project(adjusted, cfg.report_brackets)
        title = f"scenario {scenario_id}" + (" + capital tax" if taxed else "")
        row = "  ".join(f"{label} {100 * share:.1f}%"
                        for label, share in zip(labels,
                                                outcome.grouped.shares))
        suffix = (f"  [divergent, m={outcome.report.m}]"
                  if outcome.kind == "divergent" else "")
        return f"{title}: {row}{suffix}"

    jobs = [(s, t) for t in (False, True) for s in PRESETS]
    with ThreadPoolExecutor(max_workers=_thread_count()) as pool:
        rows = list(pool.map(lambda job: cell(*job), jobs))

    lines = [f"n = {cfg.n}, sigma variant = {cfg.sigma_variant}",
             f"fit: slopes = {tuple(round(s, 4) for s in fit.slopes)}, "
             f"total absolute error = {fit.fit_error:.4f}", "", *rows]
    fileio.write_lines(cfg.out_dir / "summary.txt", lines)
    print("\n".join(lines))
    return 0


#: name -> (handler, the optional flags it takes, help text).
_COMMANDS = {
    "calibrate": (cmd_calibrate, (),
                  "fit grouped data and emit per-rank parameters"),
    "project": (lambda cfg: _cmd_projection(cfg, None), ("--scenario",),
                "solve the limit distribution under a trend scenario"),
    "tax": (lambda cfg: _cmd_projection(cfg, cfg.tax), ("--scenario",),
            "project under trend plus capital-tax adjustment"),
    "simulate": (cmd_simulate, ("--scenario", "--seed"),
                 "run the ranked-particle Monte Carlo"),
    "report": (cmd_report, (), "summarize the full scenario/tax grid"),
}


def _seed(text: str) -> int:
    """The ``--seed`` value, by ``fileio``'s integer rule."""
    seed = fileio._integer(text)
    if seed is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return seed


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, like any other error
        raise RankModelError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rankdist",
        description="Rank-based wealth distribution model: calibration, "
                    "projection, capital-tax analysis, and simulation.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_handler, flags, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON run configuration")
        if "--scenario" in flags:
            p.add_argument("--scenario", help=f"trend preset {min(PRESETS)}.."
                                              f"{max(PRESETS)} or a trend CSV")
        p.add_argument("--sigma", choices=VolatilityTable.VARIANTS,
                       help="volatility variant")
        p.add_argument("--out", help="output directory")
        if "--seed" in flags:
            p.add_argument("--seed", type=_seed, required=False,
                           help="simulation seed (required unless in config)")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command][0](_load_config(args))
    except (RankModelError, MemoryError) as exc:  # MemoryError: a vast n
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
