"""Command-line front end: theory tables, simulations, and sweeps.

Configuration comes from an optional flat key=value config file plus
command-line flags; flags win. Simulation results go to a CSV with a
frozen column schema, and every CSV gets an adjacent ``<out>.manifest``
file recording the fully resolved configuration so the run can be
reproduced bit for bit.

Exit codes: 0 success, 1 runtime failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .experiment import (
    SWEEP_AXES,
    ExperimentConfig,
    monte_carlo,
    sweep,
)
from .field import RoiConfig, SignalModel
from .fusion import FusionConfig, OffCenterTargetError, system_pfa_approx, theory_curves
from .ordering import ants_bounds

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

CSV_COLUMNS = (
    "n_sensors,p0,alpha,n_exp,local_pfa,system_pfa,likelihood_r,n_trials,"
    "master_seed,ants_mean,ants_stderr,empirical_pd,empirical_pfa,"
    "upper_count,lower_count,exhausted_count"
)

# Keys accepted in a config file; flags override file values.
_INT_KEYS = {"n_sensors", "n_trials", "master_seed", "threads"}
_FLOAT_KEYS = {
    "p0",
    "alpha",
    "n_exp",
    "roi_b",
    "target_x",
    "target_y",
    "local_pfa",
    "system_pfa",
    "likelihood_r",
}

_DEFAULTS = {
    "alpha": 0.02,
    "n_exp": 2.0,
    "roi_b": 100.0,
    "target_x": 0.0,
    "target_y": 0.0,
    "local_pfa": 1e-3,
    "system_pfa": 1e-3,
    "likelihood_r": 0.5,
    "n_trials": 100_000,
    "master_seed": 0,
    "threads": 1,
}


class ConfigError(ValueError):
    """Bad or missing configuration value; message names the field."""


def _fmt(x: float) -> str:
    """CSV number formatting: 9 significant digits, NaN as the NA sentinel."""
    if isinstance(x, float) and math.isnan(x):
        return "NA"
    return format(x, ".9g")


def _parse_config_file(path: str) -> dict:
    values: dict = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path!r}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config: line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key in _INT_KEYS:
            try:
                values[key] = int(val)
            except ValueError as exc:
                raise ConfigError(f"{key}: expected an integer, got {val!r}") from exc
        elif key in _FLOAT_KEYS:
            try:
                values[key] = float(val)
            except ValueError as exc:
                raise ConfigError(f"{key}: expected a number, got {val!r}") from exc
        else:
            raise ConfigError(f"config: unknown key {key!r} on line {lineno}")
    return values


def _resolve_settings(args: argparse.Namespace) -> dict:
    """Defaults, then config file, then flags."""
    settings = dict(_DEFAULTS)
    if args.config is not None:
        settings.update(_parse_config_file(args.config))
    flag_map = {
        "n_sensors": args.n_sensors,
        "p0": args.p0,
        "alpha": args.alpha,
        "n_exp": args.decay_exp,
        "roi_b": args.roi_b,
        "local_pfa": args.local_pfa,
        "system_pfa": args.system_pfa,
        "likelihood_r": args.likelihood_r,
        "n_trials": args.trials,
        "master_seed": args.seed,
        "threads": args.threads,
    }
    for key, value in flag_map.items():
        if value is not None:
            settings[key] = value
    for key in ("n_sensors", "p0"):
        if key not in settings:
            raise ConfigError(f"{key}: required (set --{key.replace('_', '-')} or a config file entry)")
    return settings


def _experiment_config(settings: dict) -> ExperimentConfig:
    # ``threads`` has no effect (trials run in one batched kernel) but is
    # still accepted, so existing scripts and config files keep working.
    if settings["threads"] < 1:
        raise ConfigError(f"threads: must be a positive integer, got {settings['threads']!r}")
    try:
        roi = RoiConfig(
            side_b=settings["roi_b"],
            target_x=settings["target_x"],
            target_y=settings["target_y"],
        )
    except ValueError as exc:
        raise ConfigError(f"roi_b/target_x/target_y: {exc}") from exc
    try:
        model = SignalModel(
            p0=settings["p0"], alpha=settings["alpha"], n_exp=settings["n_exp"]
        )
    except ValueError as exc:
        raise ConfigError(f"p0/alpha/n_exp: {exc}") from exc
    try:
        return ExperimentConfig(
            n_sensors=settings["n_sensors"],
            roi=roi,
            model=model,
            local_pfa=settings["local_pfa"],
            system_pfa=settings["system_pfa"],
            likelihood_r=settings["likelihood_r"],
            n_trials=settings["n_trials"],
            master_seed=settings["master_seed"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _csv_row(config: ExperimentConfig, summary) -> str:
    return ",".join(
        [
            str(config.n_sensors),
            _fmt(config.model.p0),
            _fmt(config.model.alpha),
            _fmt(config.model.n_exp),
            _fmt(config.local_pfa),
            _fmt(config.system_pfa),
            _fmt(config.likelihood_r),
            str(config.n_trials),
            str(config.master_seed),
            _fmt(summary.ants_mean),
            _fmt(summary.ants_stderr),
            _fmt(summary.empirical_pd),
            _fmt(summary.empirical_pfa),
            str(summary.upper_count),
            str(summary.lower_count),
            str(summary.exhausted_count),
        ]
    )


def _write_manifest(
    out_path: Path, command: str, settings: dict, extra: dict | None = None
) -> None:
    lines = [
        f"tool = orderfuse {__version__}",
        f"command = {command}",
        f"created_utc = {datetime.now(timezone.utc).isoformat()}",
        f"output_csv = {out_path}",
    ]
    for key in sorted(settings):
        value = settings[key]
        lines.append(f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}")
    for key, value in (extra or {}).items():
        lines.append(f"{key} = {value}")
    manifest_path = Path(str(out_path) + ".manifest")
    manifest_path.write_text("\n".join(lines) + "\n")


def _theory_rows(settings: dict) -> list[tuple[str, str]]:
    n = settings["n_sensors"]
    roi = RoiConfig(settings["roi_b"], settings["target_x"], settings["target_y"])
    model = SignalModel(settings["p0"], settings["alpha"], settings["n_exp"])
    fus = FusionConfig.from_rates(n, settings["local_pfa"], settings["system_pfa"])
    curves = theory_curves(fus.detector, model, roi, n, fus.system_threshold_t)
    rows = [
        ("n_sensors", str(n)),
        ("p0", _fmt(model.p0)),
        ("alpha", _fmt(model.alpha)),
        ("n_exp", _fmt(model.n_exp)),
        ("roi_b", _fmt(roi.side_b)),
        ("local_pfa", _fmt(fus.detector.local_pfa)),
        ("system_pfa", _fmt(fus.system_pfa)),
        ("likelihood_r", _fmt(settings["likelihood_r"])),
        ("tau", _fmt(fus.detector.tau)),
        ("system_threshold_t", _fmt(fus.system_threshold_t)),
        ("gamma", _fmt(curves.gamma)),
        ("pd_bar", _fmt(curves.pd_bar)),
        ("sigma_bar_sq", _fmt(curves.sigma_bar_sq)),
        ("theory_pfa", _fmt(system_pfa_approx(n, fus.detector.local_pfa, fus.system_threshold_t))),
        ("theory_pd", _fmt(curves.system_pd)),
    ]
    if fus.system_threshold_t < n:
        bounds = ants_bounds(n, fus.system_threshold_t, settings["likelihood_r"])
        rows += [
            ("ants_upper_case_bound", _fmt(bounds.upper_case_bound)),
            ("ants_lower_case_bound", _fmt(bounds.lower_case_bound)),
            ("ants_combined_bound", _fmt(bounds.combined)),
        ]
    else:
        # Threshold at/above the sensor count: savings bounds are undefined.
        rows += [
            ("ants_upper_case_bound", "NA"),
            ("ants_lower_case_bound", "NA"),
            ("ants_combined_bound", "NA"),
        ]
    return rows


def cmd_theory(args: argparse.Namespace) -> int:
    settings = _resolve_settings(args)
    _experiment_config(settings)  # full validation, field-naming errors
    rows = _theory_rows(settings)
    width = max(len(k) for k, _ in rows)
    for key, value in rows:
        print(f"{key:<{width}} = {value}")
    if args.out is not None:
        out = Path(args.out)
        out.write_text("quantity,value\n" + "".join(f"{k},{v}\n" for k, v in rows))
        _write_manifest(out, "theory", settings)
        print(f"wrote {out}")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    settings = _resolve_settings(args)
    config = _experiment_config(settings)
    summary = monte_carlo(config)
    out = Path(args.out)
    out.write_text(CSV_COLUMNS + "\n" + _csv_row(config, summary) + "\n")
    _write_manifest(out, "simulate", settings)
    print(f"wrote {out} (1 row)")
    return EXIT_OK


def _parse_axis_values(axis: str, raw: str) -> list:
    items = [piece.strip() for piece in raw.split(",") if piece.strip()]
    if not items:
        raise ConfigError("values: expected a nonempty comma-separated list")
    try:
        if axis == "n_sensors":
            return [int(piece) for piece in items]
        return [float(piece) for piece in items]
    except ValueError as exc:
        raise ConfigError(f"values: could not parse {raw!r} for axis {axis!r}") from exc


def cmd_sweep(args: argparse.Namespace) -> int:
    settings = _resolve_settings(args)
    values = _parse_axis_values(args.axis, args.values)
    base = _experiment_config(settings)
    cells = sweep(base, args.axis, values)
    out = Path(args.out)
    lines = ["axis_value," + CSV_COLUMNS]
    for cell in cells:
        axis_value = (
            str(cell.axis_value) if args.axis == "n_sensors" else _fmt(cell.axis_value)
        )
        lines.append(axis_value + "," + _csv_row(cell.config, cell.summary))
    out.write_text("\n".join(lines) + "\n")
    _write_manifest(out, "sweep", settings, extra={"axis": args.axis, "values": args.values})
    print(f"wrote {out} ({len(cells)} rows)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orderfuse",
        description="Ordered one-bit decision fusion: theory, simulation, and sweeps.",
    )
    parser.add_argument("--version", action="version", version=f"orderfuse {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", metavar="PATH", help="key=value config file")
        p.add_argument("--n-sensors", dest="n_sensors", type=int, metavar="INT")
        p.add_argument("--p0", type=float, metavar="REAL", help="emitted power at distance 0")
        p.add_argument("--alpha", type=float, metavar="REAL", help="power decay constant")
        p.add_argument("--decay-exp", dest="decay_exp", type=float, metavar="REAL")
        p.add_argument("--roi-b", dest="roi_b", type=float, metavar="REAL", help="ROI side length")
        p.add_argument("--local-pfa", dest="local_pfa", type=float, metavar="REAL")
        p.add_argument("--system-pfa", dest="system_pfa", type=float, metavar="REAL")
        p.add_argument("--likelihood-r", dest="likelihood_r", type=float, metavar="REAL")
        p.add_argument("--trials", type=int, metavar="INT")
        p.add_argument("--seed", type=int, metavar="UINT64")
        p.add_argument("--threads", type=int, metavar="INT", help="accepted, no effect")

    p_theory = sub.add_parser("theory", help="print closed-form operating characteristics")
    add_common(p_theory)
    p_theory.add_argument("--out", metavar="PATH", help="optional CSV output path")
    p_theory.set_defaults(func=cmd_theory)

    p_sim = sub.add_parser("simulate", help="run one Monte Carlo configuration")
    add_common(p_sim)
    p_sim.add_argument("--out", metavar="PATH", required=True, help="CSV output path")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="run one Monte Carlo per axis value")
    add_common(p_sweep)
    p_sweep.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p_sweep.add_argument("--values", required=True, metavar="CSV-LIST")
    p_sweep.add_argument("--out", metavar="PATH", required=True, help="CSV output path")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has already printed the usage message.
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except (ConfigError, OffCenterTargetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
