"""Command-line interface: convergence sweeps, self-validation, tableaux.

Exit codes: 0 on success, 1 if any validation check fails, 2 on a
configuration error or a sweep in which every cell failed.  Sweep data goes
to the output path (or stdout); human-readable reporting, failed cells
included, goes to stderr so piped CSV stays clean.
"""

from __future__ import annotations

import argparse
import csv
import math
import re
import sys

import numpy as np

from . import bench, coning, rk, so3, trajectory
from .bench import MethodId, MethodKind, SweepConfig
from .errors import ConfigError, ConingKitError
from .kinematics import JacobianMode
from .rate_model import MeasurementWindow, rk_node_samples
from .rk import (tableau_explicit_midpoint, tableau_forward_euler,
                 tableau_rk3, tableau_rk4, tableau_rk6, validate_tableau)

_METHOD_HELP = ", ".join(
    sorted(kind.value for kind in MethodKind
           if kind is not MethodKind.TWO_SPEED_CLASSIC) + ["twospeed<m>"])

_TABLEAUX = (("forward-euler", tableau_forward_euler),
             ("explicit-midpoint", tableau_explicit_midpoint),
             ("rk3", tableau_rk3),
             ("rk4", tableau_rk4),
             ("rk6", tableau_rk6))


def parse_method(name: str) -> MethodId:
    """Parse a method token; raises ``ConfigError`` listing valid names."""
    token = name.strip().lower()
    two_speed = re.fullmatch(r"twospeed(\d+)", token)
    if two_speed:
        return MethodId(MethodKind.TWO_SPEED_CLASSIC, int(two_speed.group(1)))
    try:
        # Bare "twospeed" names a kind but no minor-step count.
        return MethodId(MethodKind(token))
    except (ValueError, ConfigError):
        raise ConfigError(
            f"unknown method {name!r}; valid methods: {_METHOD_HELP}"
        ) from None


def _read_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(
                        f"{path}:{lineno}: expected 'key = value', got "
                        f"{raw.strip()!r}")
                key, value = line.split("=", 1)
                values[key.strip().replace("-", "_")] = value.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


_CONFIG_KEYS = ("signal", "methods", "dt_max", "halvings", "dts", "horizon",
                "jacobian_mode", "tolerance", "output", "format")


def _build_sweep_config(args) -> tuple[SweepConfig, str, str]:
    file_values = _read_config_file(args.config) if args.config else {}
    for key in file_values:
        if key not in _CONFIG_KEYS:
            raise ConfigError(
                f"unknown config key {key!r}; valid keys: "
                f"{', '.join(_CONFIG_KEYS)}")

    def pick(key, default=None):
        flag = getattr(args, key)
        if flag is not None:
            return flag
        if key in file_values:
            return file_values[key]
        return default

    signal = str(pick("signal", "coning"))
    methods_raw = pick("methods", "fwdeuler,exmid,rk3omega,rk4omega,"
                                  "theta2,theta3")
    methods = tuple(parse_method(tok) for tok in
                    str(methods_raw).split(",") if tok.strip())

    dts_raw = pick("dts")
    if dts_raw is not None:
        try:
            step_sizes = tuple(float(tok) for tok in
                               str(dts_raw).split(",") if tok.strip())
        except ValueError as exc:
            raise ConfigError(f"bad dts value: {exc}") from exc
    else:
        dt_max = _as_float("dt_max", pick("dt_max", 0.25))
        halvings = _as_int("halvings", pick("halvings", 6))
        # The finest step size takes 2**halvings times the coarsest's steps,
        # at least one: bound that by the cap before building step sizes.
        most = bench.MAX_CELL_STEPS.bit_length() - 1
        if not 0 <= halvings <= most:
            raise ConfigError(
                f"halvings must be in 0..{most}, the per-cell cap of "
                f"{bench.MAX_CELL_STEPS} sensor intervals; got {halvings}")
        step_sizes = tuple(dt_max * 2.0 ** -k for k in range(halvings + 1))

    mode_name = str(pick("jacobian_mode", "exact")).lower()
    try:
        jacobian_mode = JacobianMode(mode_name)
    except ValueError:
        raise ConfigError(
            f"unknown jacobian_mode {mode_name!r}; valid modes: "
            f"{', '.join(sorted(m.value for m in JacobianMode))}") from None

    out_format = str(pick("format", "csv")).lower()
    if out_format not in ("csv", "tsv"):
        raise ConfigError(
            f"unknown format {out_format!r}; valid formats: csv, tsv")

    cfg = SweepConfig(signal=signal,
                      methods=methods,
                      step_sizes=step_sizes,
                      horizon=_as_float("horizon", pick("horizon", 4.0)),
                      tolerance=_as_float("tolerance",
                                          pick("tolerance", 1e-12)),
                      jacobian_mode=jacobian_mode)
    return cfg, str(pick("output", "-")), out_format


def _as_float(key, value):
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key} must be a number, got {value!r}") from exc


def _as_int(key, value):
    try:
        return int(str(value))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key} must be an integer, got {value!r}") from exc


def _write_records(report, cfg: SweepConfig, handle, out_format: str) -> None:
    delimiter = "\t" if out_format == "tsv" else ","
    writer = csv.writer(handle, delimiter=delimiter, lineterminator="\n")
    writer.writerow(["method", "jacobian_mode", "dt", "steps",
                     "final_error_rad", "wall_time_s"])
    for summary in report.summaries:
        mode = (cfg.jacobian_mode.value if summary.method.uses_rate_samples
                else "none")
        for rec in summary.records:
            writer.writerow([summary.method.label(), mode, repr(rec.dt),
                             rec.steps, repr(rec.final_error_angle),
                             repr(rec.wall_time)])


def _cmd_sweep(args) -> int:
    cfg, output, out_format = _build_sweep_config(args)
    report = bench.run_sweep(cfg)
    if output == "-":
        _write_records(report, cfg, sys.stdout, out_format)
    else:
        with open(output, "w", encoding="utf-8", newline="") as handle:
            _write_records(report, cfg, handle, out_format)
    for summary in report.summaries:
        for dt, reason in summary.failures:
            print(f"{summary.method.label()} dt={dt!r}: failed: {reason}",
                  file=sys.stderr)
        order = (f"{summary.order:.3f}" if summary.order is not None
                 else "n/a")
        print(f"{summary.method.label():>12s}: fitted order {order}",
              file=sys.stderr)
    if not report.records():
        print("error: every cell of the sweep failed", file=sys.stderr)
        return 2
    return 0


def _validation_checks(rng):
    """Yield (name, passed, detail) for the oracle chain."""
    # Increment-identity residual, exact arithmetic.
    worst = 0.0
    for _ in range(50):
        p1, p2 = rng.uniform(-1, 1, (2, 3))
        dt = 10.0 ** rng.uniform(-2, 0)
        scale = float(np.linalg.norm(np.cross(p1, p2))) * dt ** 3
        resid = coning.appendix_increment_identity_check(p1, p2, dt)
        worst = max(worst, resid / scale if scale else resid)
    yield ("increment-identity", worst <= 1e-15,
           f"max relative residual {worst:.3e}")

    # Single-speed correction equals the solver-based two-increment path.
    worst = 0.0
    for _ in range(2000):
        prev, curr = rng.uniform(-1, 1, (2, 3))
        dt = 10.0 ** rng.uniform(-3, 0)
        window = MeasurementWindow(np.stack([prev, curr]), dt)
        a = coning.rk4_theta2(window).delta_phi
        b = coning.miller_single_speed(prev, curr).delta_phi
        scale = max(np.max(np.abs(a)), np.max(np.abs(b)))
        worst = max(worst, np.max(np.abs(a - b)) / scale)
    yield ("single-speed-identity", worst <= 1e-15,
           f"max relative difference {worst:.3e}")

    # Quadrature coning integral against the analytic affine value.
    worst = 0.0
    for _ in range(25):
        p1, p2 = rng.uniform(-1, 1, (2, 3))
        dt = 10.0 ** rng.uniform(-2, 0)

        def omega(t, p1=p1, p2=p2):
            return p1 + p2 * t

        quad = coning.goodman_robinson_beta_quadrature(omega, 0.0, dt, 8)
        exact = coning.affine_coning_oracle(p1, p2, dt)
        bound = 1e-12 * dt ** 3 * float(np.linalg.norm(np.cross(p1, p2)))
        worst = max(worst, float(np.max(np.abs(quad - exact))) / bound)
    yield ("coning-quadrature", worst <= 1.0,
           f"max residual at {worst:.3e} of bound")

    # Exponential/logarithm round trip.
    worst = 0.0
    for _ in range(2000):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        phi = direction * rng.uniform(0.0, math.pi - 0.1)
        back = so3.rotation_vector_from_dcm(so3.dcm_from_rotation_vector(phi))
        worst = max(worst, float(np.max(np.abs(back - phi))))
    yield ("exp-log-roundtrip", worst <= 1e-11,
           f"max round-trip deviation {worst:.3e}")

    # The rk4 closed form on node samples reproduces rk4_theta2 and rk4_theta3.
    worst, rk4 = 0.0, tableau_rk4()
    for q, solve, bound in ((2, coning.rk4_theta2, 2e-15),
                            (3, coning.rk4_theta3, 1e-13)):
        for _ in range(1000):
            dt = 10.0 ** rng.uniform(-2, 0)
            window = MeasurementWindow(rng.uniform(-1, 1, (q, 3)), dt)
            nodes = dict(zip((0.0, 0.5, 1.0), rk_node_samples(window)))
            want = rk.delta_phi_closed(rk4, nodes.__getitem__, dt)
            gap = np.abs(solve(window).delta_phi - want).max()
            worst = max(worst, gap / bound / max(1e-3, np.abs(want).max()))
    yield ("node-sample-procedure", worst <= 1.0,
           f"max difference at {worst:.3e} of bound")


def _cmd_validate(_args) -> int:
    rng = np.random.default_rng(20260810)
    failed = False
    for name, passed, detail in _validation_checks(rng):
        status = "PASS" if passed else "FAIL"
        print(f"{status} {name}: {detail}")
        failed = failed or not passed
    return 1 if failed else 0


def _cmd_tableaux(_args) -> int:
    for name, factory in _TABLEAUX:
        tab = factory()
        violations = validate_tableau(tab)
        status = "ok" if not violations else "; ".join(violations)
        print(f"{name} ({tab.n} stages): {status}")
        for nu in range(tab.n):
            row = "  ".join(f"{v:10.6f}" for v in tab.a[nu])
            print(f"  c={tab.c[nu]:10.6f} | {row}")
        print("  b=" + "  ".join(f"{v:10.6f}" for v in tab.b))
    return 0


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coning-kit",
        description="Attitude-integration convergence studies and "
                    "self-validation.")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a convergence sweep")
    sweep.add_argument("--signal", help="signal preset: "
                       + ", ".join(trajectory.PRESET_NAMES))
    sweep.add_argument("--methods", help="comma-separated methods: "
                       + _METHOD_HELP)
    sweep.add_argument("--dt-max", dest="dt_max",
                       help="largest step size (s)")
    sweep.add_argument("--halvings", help="number of halvings of dt-max")
    sweep.add_argument("--dts", help="explicit comma-separated step sizes "
                       "(overrides dt-max/halvings)")
    sweep.add_argument("--horizon", help="propagation horizon (s)")
    sweep.add_argument("--jacobian-mode", dest="jacobian_mode",
                       help="exact or approx")
    sweep.add_argument("--tolerance", help="step-doubled reference "
                       "tolerance (rad); the coning truth is closed form "
                       "and does not use it")
    sweep.add_argument("--output", help="output path, or - for stdout")
    sweep.add_argument("--format", help="csv or tsv")
    sweep.add_argument("--config", help="key = value config file; flags "
                       "override the file")
    sweep.set_defaults(func=_cmd_sweep)

    validate = sub.add_parser("validate",
                              help="run the oracle self-validation chain")
    validate.set_defaults(func=_cmd_validate)

    tableaux = sub.add_parser("tableaux",
                              help="print the built-in Butcher tableaux")
    tableaux.set_defaults(func=_cmd_tableaux)
    return parser


def run_cli(argv) -> int:
    """Run the CLI on an argument list; returns the process exit code."""
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags and 0 on --help; keep its code.
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConingKitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
