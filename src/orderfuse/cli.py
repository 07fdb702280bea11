"""Command-line front end: theory tables, simulations, and sweeps.

Configuration comes from an optional flat key=value config file plus
command-line flags; flags win. Simulation results go to a CSV with a
frozen column schema, and every CSV gets an adjacent ``<out>.manifest``
file recording the fully resolved configuration and the numpy and
Python versions, so the run can be reproduced bit for bit.

Exit codes: 0 success, 1 runtime failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import math
import sys
from datetime import datetime, timezone
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import __version__
from .experiment import (
    SWEEP_AXES,
    ExperimentConfig,
    monte_carlo,
    sweep,
)
from .field import RoiConfig, SignalModel
from .fusion import OffCenterTargetError, system_pfa_approx, theory_curves
from .ordering import ants_bounds

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

CSV_COLUMNS = (
    "n_sensors,p0,alpha,n_exp,local_pfa,system_pfa,likelihood_r,n_trials,"
    "master_seed,ants_mean,ants_stderr,empirical_pd,empirical_pfa,"
    "upper_count,lower_count,exhausted_count"
)

# Every setting: config-file key -> (type, default, flag, metavar, help).
# A default of None marks a required setting; a flag of None, a setting
# only a config file can give.
_SETTINGS = {
    "n_sensors": (int, None, "--n-sensors", "INT", None),
    "p0": (float, None, "--p0", "REAL", "emitted power at distance 0"),
    "alpha": (float, 0.02, "--alpha", "REAL", "power decay constant"),
    "n_exp": (float, 2.0, "--decay-exp", "REAL", None),
    "roi_b": (float, 100.0, "--roi-b", "REAL", "ROI side length"),
    "target_x": (float, 0.0, None, None, None),
    "target_y": (float, 0.0, None, None, None),
    "local_pfa": (float, 1e-3, "--local-pfa", "REAL", None),
    "system_pfa": (float, 1e-3, "--system-pfa", "REAL", None),
    "likelihood_r": (float, 0.5, "--likelihood-r", "REAL", None),
    "n_trials": (int, 100_000, "--trials", "INT", None),
    "master_seed": (int, 0, "--seed", "UINT64", None),
    "threads": (int, 1, "--threads", "INT", "accepted, no effect"),
}


class ConfigError(ValueError):
    """Bad or missing configuration value; message names the field."""


def _fmt(x: int | float) -> str:
    """Number formatting: ints in full, reals to 9 significant digits, NaN as NA."""
    if isinstance(x, int):
        return str(x)
    return "NA" if math.isnan(x) else format(x, ".9g")


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
        if key not in _SETTINGS:
            raise ConfigError(f"config: unknown key {key!r} on line {lineno}")
        cast = _SETTINGS[key][0]
        try:
            values[key] = cast(val)
        except ValueError as exc:
            kind = "an integer" if cast is int else "a number"
            raise ConfigError(f"{key}: expected {kind}, got {val!r}") from exc
    return values


def _resolve_settings(args: argparse.Namespace) -> dict:
    """Defaults, then config file, then flags."""
    settings = {key: default for key, (_, default, *_) in _SETTINGS.items() if default is not None}
    if args.config is not None:
        settings.update(_parse_config_file(args.config))
    for key in _SETTINGS:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    for key, (_, _, flag, *_) in _SETTINGS.items():
        if key not in settings:
            raise ConfigError(f"{key}: required (set {flag} or a config file entry)")
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
    """The values named by :data:`CSV_COLUMNS`, from the config, its model and the summary."""
    values = {**vars(config), **vars(config.model), **vars(summary)}
    return ",".join(_fmt(values[name]) for name in CSV_COLUMNS.split(","))


def _write_manifest(
    out_path: Path, command: str, settings: dict, extra: dict | None = None
) -> None:
    lines = [
        f"tool = orderfuse {__version__}",
        # numpy's version defines the Generator streams behind every trial.
        f"numpy_version = {np.__version__}",
        "python_version = {}.{}.{}".format(*sys.version_info[:3]),
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


def _theory_rows(config: ExperimentConfig) -> list[tuple[str, str]]:
    n, model, roi, fus = config.n_sensors, config.model, config.roi, config.fusion
    t = fus.system_threshold_t
    curves = theory_curves(fus.detector, model, roi, n, t)
    bounds = ants_bounds(n, t, config.likelihood_r)
    return [
        ("n_sensors", _fmt(n)),
        ("p0", _fmt(model.p0)),
        ("alpha", _fmt(model.alpha)),
        ("n_exp", _fmt(model.n_exp)),
        ("roi_b", _fmt(roi.side_b)),
        ("local_pfa", _fmt(fus.local_pfa)),
        ("system_pfa", _fmt(fus.system_pfa)),
        ("likelihood_r", _fmt(config.likelihood_r)),
        ("tau", _fmt(fus.detector.tau)),
        ("system_threshold_t", _fmt(t)),
        ("gamma", _fmt(curves.gamma)),
        ("pd_bar", _fmt(curves.pd_bar)),
        ("sigma_bar_sq", _fmt(curves.sigma_bar_sq)),
        ("theory_pfa", _fmt(system_pfa_approx(n, fus.local_pfa, t))),
        ("theory_pd", _fmt(curves.system_pd)),
        ("ants_upper_case_bound", _fmt(bounds.upper_case_bound)),
        ("ants_lower_case_bound", _fmt(bounds.lower_case_bound)),
        ("ants_combined_bound", _fmt(bounds.combined)),
    ]


def cmd_theory(args: argparse.Namespace) -> int:
    settings = _resolve_settings(args)
    rows = _theory_rows(_experiment_config(settings))
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
        return [SWEEP_AXES[axis](piece) for piece in items]
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
        lines.append(_fmt(cell.axis_value) + "," + _csv_row(cell.config, cell.summary))
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
        for key, (cast, _, flag, metavar, help_text) in _SETTINGS.items():
            if flag is not None:
                p.add_argument(flag, dest=key, type=cast, metavar=metavar, help=help_text)

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


# One parser per process: building one costs ten times a parse, and
# argparse keeps no state between parse_args calls.
_parser = lru_cache(maxsize=1)(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has already printed the usage message.
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except (ConfigError, OffCenterTargetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
