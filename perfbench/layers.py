"""Per-layer metrics of the traced run, and the end-to-end metric each moves.

A run unit is the set-up plus one cycle of the workload's operation list:
counts and ``_s`` metrics are totals per run unit (set-up spans once, cycle
spans averaged over the cycles run, which all do the same work, so counts
repeat exactly), ``_ms`` metrics are means per call.  A layer a workload
does not touch reports 0.
"""

from __future__ import annotations

from tracing import covered

#: name -> (unit, the end-to-end metric it should move, on which workload).
#: Gated metrics come first, the pipeline's named metric of the ``# report``
#: line in parentheses; the D*/C* tags are the ROADMAP directions.
CLI = "cycle_s, op_ms on cli_1e6"
SWEEP = "op_ms, cycle_s on scenario_sweep (projection_ms)"
LAYER_MAP = {
    "calibration.fit_s": ("s", f"{CLI} (calibrate_s, tax_s, report_s); "
                               "setup_s on scenario_sweep, monte_carlo (D1)"),
    "calibration.fit_nfev": ("count", "as calibration.fit_s"),
    "calibration.fit_restarts": ("count", "as calibration.fit_s"),
    "calibration.eval_ms": ("ms", "as calibration.fit_s"),
    "calibration.expand_sigma_ms": ("ms", "cycle_s on cli_1e6 (calibrate_s)"),
    "calibration.fit_error": ("share", "quality of the run's largest-n fit "
                                       "(fit_error)"),
    "stable.invert_ms": ("ms", "cycle_s on cli_1e6 (calibrate_s); setup_s"),
    "stable.check_ms": ("ms", f"{SWEEP}; {CLI} (tax_s, report_s)"),
    "stable.forward_ms": ("ms", f"{SWEEP}; {CLI} (tax_s, report_s)"),
    "stable.top_group_ms": ("ms", f"{SWEEP}; {CLI} (report_s)"),
    "scenarios.adjust_ms": ("ms", f"{SWEEP}; {CLI} (tax_s, report_s)"),
    "scenarios.project_ms.stable": ("ms", "as scenarios.adjust_ms"),
    "scenarios.project_ms.divergent": ("ms", "as scenarios.adjust_ms"),
    "scenarios.cells_stable": ("count", "split of the projection cells"),
    "scenarios.cells_divergent": ("count", "split of the projection cells"),
    "core.group_shares_ms": ("ms", SWEEP),
    "simulate.ranked_steps.n1e5": ("count", "op_ms.p90, cycle_s on "
                                            "monte_carlo (sim_step_ms.n1e5; "
                                            "D2)"),
    "simulate.ranked_s.n1e5": ("s", "as simulate.ranked_steps.n1e5"),
    "simulate.ranked_steps.n1e4": ("count", "op_ms.p50, cycle_s on "
                                            "monte_carlo (sim_step_ms.n1e4; "
                                            "D2)"),
    "simulate.ranked_s.n1e4": ("s", "as simulate.ranked_steps.n1e4"),
    "simulate.oracle_steps": ("count", "cycle_s on monte_carlo "
                                       "(oracle_msteps_per_s)"),
    "simulate.oracle_s": ("s", "as simulate.oracle_steps"),
    "fileio.bytes_written": ("count", f"{CLI} (calibrate_s, tax_s)"),
    "fileio.write_MBps": ("MB/s", f"{CLI} (calibrate_s, tax_s)"),
    "fileio.read_ms": ("ms", "setup_s"),
    "cli.report_grid_s": ("s", f"{CLI} (report_s; D3)"),
    "cli.report_pool_speedup": ("x", f"{CLI} (report_s; D3)"),
    "trace.spans": ("count", "tracing cost"),
    "trace.overhead_pct": ("%", "traced against untraced timings"),
}
PREFIX_SUM_MOVES = {"calibration": "calibration.eval_ms (C1)",
                    "scenarios": f"{SWEEP} (C1)",
                    "stable": f"{SWEEP} (C1)",
                    "simulate": "op_ms, cycle_s on monte_carlo (C1)"}
for _caller, _moves in PREFIX_SUM_MOVES.items():
    LAYER_MAP[f"core.prefix_sum_calls.{_caller}"] = ("count", _moves)
    LAYER_MAP[f"core.prefix_sum_elems.{_caller}"] = ("count", _moves)
    LAYER_MAP[f"core.prefix_sum_ms.{_caller}"] = ("ms", _moves)
WRITERS = ("alpha", "fit", "fit_report", "projection", "loglog", "summary")
for _writer in WRITERS:
    LAYER_MAP[f"fileio.write_s.{_writer}"] = ("s", f"{CLI} (calibrate_s, "
                                                   f"tax_s, report_s)")
for _command in ("calibrate", "tax", "report"):
    LAYER_MAP[f"cli.self_s.{_command}"] = ("s", f"{CLI} ({_command}_s)")

def layer_metrics(tracer, cycles: int, ranked_n, span_cost_s: float,
                  timed_s: float) -> dict:
    """{name: (value, unit)} for every name in LAYER_MAP; ``ranked_n`` is
    the (n1e5, n1e4) pair of simulated sizes."""
    spans = tracer.spans

    def per_unit(name, value=lambda s: 1, where=lambda s: True):
        setup = timed = 0.0
        for s in spans:
            if s.name == name and where(s):
                if s.phase == "setup":
                    setup += value(s)
                else:
                    timed += value(s)
        return setup + timed / cycles

    def duration(s):
        return s.duration

    def mean_ms(name, where=lambda s: True):
        chosen = [s.duration for s in spans if s.name == name and where(s)]
        return 1e3 * sum(chosen) / len(chosen) if chosen else 0.0

    def children(index):
        return [s for s in spans if s.parent == index]

    out = {}
    fit_s = per_unit("calibration.fit", duration)
    nfev = per_unit("calibration.minimize", lambda s: s.info["nfev"])
    fits = [s for s in spans if s.name == "calibration.fit"]
    out["calibration.fit_s"] = fit_s
    out["calibration.fit_nfev"] = nfev
    out["calibration.fit_restarts"] = per_unit("calibration.minimize")
    out["calibration.eval_ms"] = 1e3 * fit_s / nfev if nfev else 0.0
    out["calibration.expand_sigma_ms"] = mean_ms("calibration.expand_sigma")
    out["calibration.fit_error"] = (
        max(fits, key=lambda s: s.info["n"]).info["fit_error"] if fits
        else 0.0)
    out["stable.invert_ms"] = mean_ms("stable.invert")
    out["stable.check_ms"] = mean_ms("stable.check")
    solves = sum(1 for s in spans if s.name == "stable.forward.gaps")
    out["stable.forward_ms"] = 1e3 * sum(
        s.duration for s in spans
        if s.name in ("stable.forward.gaps", "stable.forward.shares")
    ) / solves if solves else 0.0
    out["stable.top_group_ms"] = mean_ms("stable.top_group")
    out["scenarios.adjust_ms"] = mean_ms("scenarios.adjust")
    for kind in ("stable", "divergent"):
        def of_kind(s, kind=kind):
            return s.info["kind"] == kind
        out[f"scenarios.project_ms.{kind}"] = mean_ms("scenarios.project",
                                                      of_kind)
        out[f"scenarios.cells_{kind}"] = per_unit("scenarios.project",
                                                  where=of_kind)
    for caller in PREFIX_SUM_MOVES:
        name = f"core.prefix_sum.{caller}"
        out[f"core.prefix_sum_calls.{caller}"] = per_unit(name)
        out[f"core.prefix_sum_elems.{caller}"] = per_unit(
            name, lambda s: s.info["elems"])
        out[f"core.prefix_sum_ms.{caller}"] = mean_ms(name)
    out["core.group_shares_ms"] = mean_ms("core.group_shares")
    for suffix, n in zip(("n1e5", "n1e4"), ranked_n):
        def of_size(s, n=n):
            return s.info["n"] == n
        out[f"simulate.ranked_steps.{suffix}"] = per_unit(
            "simulate.ranked", lambda s: s.info["steps"], of_size)
        out[f"simulate.ranked_s.{suffix}"] = per_unit(
            "simulate.ranked", duration, of_size)
    out["simulate.oracle_steps"] = per_unit("simulate.oracle",
                                            lambda s: s.info["steps"])
    out["simulate.oracle_s"] = per_unit("simulate.oracle", duration)

    def is_summary(s):
        # summary.txt is the one write that no fileio writer wraps.
        return s.parent is None or not \
            spans[s.parent].name.startswith("fileio.write.")

    write_s = 0.0
    for writer in WRITERS:
        if writer == "summary":
            value = per_unit("fileio.write_text", duration, is_summary)
        else:
            value = per_unit(f"fileio.write.{writer}", duration)
        out[f"fileio.write_s.{writer}"] = value
        write_s += value
    written = per_unit("fileio.write_text", lambda s: s.info["bytes"])
    out["fileio.bytes_written"] = written
    out["fileio.write_MBps"] = written / write_s / 1e6 if write_s else 0.0
    out["fileio.read_ms"] = mean_ms("fileio.read")
    for command in ("calibrate", "tax", "report"):
        self_s = sum(s.duration - covered((c.start, c.end)
                                          for c in children(i))
                     for i, s in enumerate(spans)
                     if s.name == f"op.{command}")
        out[f"cli.self_s.{command}"] = self_s / cycles
    grids = [(i, s) for i, s in enumerate(spans)
             if s.name == "cli.report_grid"]
    out["cli.report_grid_s"] = per_unit("cli.report_grid", duration)
    # The pool's cells overlap, so their wall spans overcount the work; their
    # threads' CPU time over the grid's wall time is the pool's speed-up
    # against running the same cells one after another.
    grid_wall = sum(s.duration for _, s in grids)
    cell_cpu = sum(c.cpu for i, _ in grids for c in children(i))
    out["cli.report_pool_speedup"] = cell_cpu / grid_wall if grid_wall \
        else 0.0
    setup_spans = sum(1 for s in spans if s.phase == "setup")
    timed_spans = len(spans) - setup_spans
    out["trace.spans"] = setup_spans + timed_spans / cycles
    out["trace.overhead_pct"] = 100.0 * timed_spans * span_cost_s / timed_s
    return {name: (out[name], unit) for name, (unit, _moves)
            in LAYER_MAP.items()}

