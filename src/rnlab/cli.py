"""Command-line front end: config parsing, experiment orchestration, reports.

Commands: norm, family, sweep, threshold, solve, check.  Configuration comes
from defaults, then an optional flat key=value file (--config), then flags,
later sources overriding earlier ones; a key the command does not read is
a configuration error.  All randomness is seeded, and report files are
byte-deterministic for a fixed config.

Exit codes: 0 success, 1 assertion failure (failed check, divergence, or a
threshold crossing not found), 2 configuration error.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .checks import run_all
from .families import (FAMILY_KINDS, build_family, check_frequency, check_tau_step,
                       conjugate_product, product_support, tent_pairs)
from .grid import FrequencyGrid, random_field
from .norms import (
    NormParams,
    dyadic_norm_profile,
    energy_l2l1,
    xsb_norm,
    ysb_norm,
    zsb_norm,
)
from .solver import (DivergenceError, SolverParams, dump_field, peak_bytes, picard_solve,
                     rough_initial_data)
from .sweep import SCAN_N_DEFAULT, SCAN_TAU_STEP, _validate_n_list, run_sweep, threshold_scan

DEFAULT_SWEEP_N = (4, 8, 16, 32, 64, 128)

# Live GiB a command may hold: half of an 8 GB machine, which leaves room
# for the interpreter, the libraries and allocator slack.
_BUDGET_GIB = 4

# Peak bytes of the norm command per drawn field entry: the two float draws,
# the complex field and the Z-norm's per-entry weights (tracemalloc: 56-59).
_NORM_BYTES_PER_ENTRY = 64

# Peak bytes of the family command per indicator sample, 2 / tau_step + 1:
# it holds one point at a time, and no array of its is window-sized
# (tracemalloc: 256.2 at tau_step 2^-16 and 2^-18).
_FAMILY_BYTES_PER_SAMPLE = 288

# Peak bytes of sweep and threshold per indicator sample, 2 / tau_step + 1:
# each point keeps its two members and its weighted product, 64 bytes, and
# one point's product and norms add the transient (tracemalloc: 160-165).
# No array of theirs is window-sized.
_POINT_BYTES_PER_SAMPLE = 64
_SCAN_TRANSIENT_BYTES_PER_SAMPLE = 192


class ConfigError(Exception):
    """Invalid configuration; the message names the offending key."""


@dataclass
class ExperimentConfig:
    command: str = "check"
    d: int = 2
    n_max: int = 64
    tau_step: float = 0.25
    tau_pad: float = 8.0
    s: float = -0.6
    b: float = 2.0 / 3.0
    family: str = "example1"
    N: tuple | None = None
    mode: str = "Z"
    s_range: tuple = (-0.9, -0.4, 0.05)
    T: float = 0.125
    max_iterations: int = 10
    tolerance: float = 1e-10
    seed: int = 2024
    out: str = "."
    dump_fields: bool = False


_COMMANDS = ("norm", "family", "sweep", "threshold", "solve", "check")


def _parse_int(key, text):
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"key '{key}': expected an integer, got {text!r}") from None


def _parse_float(key, text):
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"key '{key}': expected a number, got {text!r}") from None


def _parse_bool(key, text):
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"key '{key}': expected a boolean, got {text!r}")


def _parse_n_list(key, text):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"key '{key}': expected comma-separated integers, got {text!r}") from None


def _parse_s_range(key, text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"key '{key}': expected lo:hi:step, got {text!r}")
    return tuple(_parse_float(key, p) for p in parts)


_PARSERS = {
    "command": lambda k, v: v,
    "d": _parse_int,
    "n_max": _parse_int,
    "tau_step": _parse_float,
    "tau_pad": _parse_float,
    "s": _parse_float,
    "b": _parse_float,
    "family": lambda k, v: v,
    "N": _parse_n_list,
    "mode": lambda k, v: v,
    "s_range": _parse_s_range,
    "T": _parse_float,
    "max_iterations": _parse_int,
    "tolerance": _parse_float,
    "seed": _parse_int,
    "out": lambda k, v: v,
    "dump_fields": _parse_bool,
}


# The keys each command's _cmd_* body reads; any other key, given by flag or
# file, is rejected.  The 2-D family commands read 'd' only to validate it.
_GRID_KEYS = {"d", "n_max", "tau_step", "tau_pad"}
_READ_KEYS = {
    "norm": _GRID_KEYS | {"s", "b", "seed", "out"},
    "family": {"d", "family", "N", "tau_step", "s", "b", "out"},
    "sweep": {"d", "family", "N", "mode", "tau_step", "s", "b", "out"},
    "threshold": {"d", "family", "N", "mode", "tau_step", "s_range", "b", "out"},
    "solve": _GRID_KEYS | {"s", "T", "max_iterations", "tolerance", "seed", "out",
                           "dump_fields"},
    "check": {"seed"},
}


def _parse_file(text):
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config file line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _PARSERS:
            raise ConfigError(f"unknown key '{key}' in config file")
        values[key] = _PARSERS[key](key, value)
    return values


def _validate(cfg):
    if cfg.command not in _COMMANDS:
        raise ConfigError(f"key 'command': unknown command {cfg.command!r}; "
                          f"expected one of {_COMMANDS}")
    if cfg.d not in (1, 2):
        raise ConfigError("key 'd': dimension must be 1 or 2")
    if cfg.command in ("family", "sweep", "threshold") and cfg.d != 2:
        raise ConfigError(f"key 'd': the {cfg.command} command builds 2-D family "
                          "grids; d must be 2")
    if cfg.n_max < 1:
        raise ConfigError("key 'n_max': must be >= 1")
    if cfg.tau_step <= 0:
        raise ConfigError("key 'tau_step': must be positive")
    if cfg.tau_pad < 4.0:
        raise ConfigError("key 'tau_pad': window padding must be >= 4")
    if cfg.family not in FAMILY_KINDS:
        raise ConfigError(f"key 'family': expected one of {FAMILY_KINDS}")
    if cfg.mode not in ("X", "Z"):
        raise ConfigError("key 'mode': expected X or Z")
    if cfg.N is not None:
        if len(cfg.N) < 1 or any(n < 1 or (n & (n - 1)) for n in cfg.N):
            raise ConfigError("key 'N': expected increasing dyadic integers")
        if any(a >= b for a, b in zip(cfg.N, cfg.N[1:])):
            raise ConfigError("key 'N': values must be strictly increasing")
    lo, hi, step = cfg.s_range
    if not (lo < hi and step > 0):
        raise ConfigError("key 's_range': expected lo < hi and step > 0")
    if not 0 < cfg.T <= 0.25:
        raise ConfigError("key 'T': localization scale must lie in (0, 1/4]")
    if cfg.max_iterations < 1:
        raise ConfigError("key 'max_iterations': must be >= 1")
    if cfg.tolerance <= 0:
        raise ConfigError("key 'tolerance': must be positive")
    if cfg.command == "solve" and cfg.s <= -2.0 / 3.0:
        raise ConfigError("key 's': the solver needs s > -2/3")
    return cfg


def parse_config(argv, config_text=None):
    """Build a validated config from flags plus an optional key=value file.

    Flag values override file values; the file is read from --config PATH
    unless its text is passed directly.
    """
    argv = list(argv)
    values = {}
    command = None
    i = 0
    while i < len(argv):
        arg = argv[i]
        if not arg.startswith("--"):
            if command is not None:
                raise ConfigError(f"unexpected positional argument {arg!r}")
            command = arg
            i += 1
            continue
        key = arg[2:].replace("-", "_")
        if key == "config":
            if i + 1 >= len(argv):
                raise ConfigError("key 'config': missing file path")
            if config_text is None:
                path = argv[i + 1]
                try:
                    with open(path, "r", encoding="utf-8") as f:
                        config_text = f.read()
                except OSError as exc:
                    raise ConfigError(f"key 'config': cannot read {path}: {exc}") from None
            i += 2
            continue
        if key == "dump_fields":
            values[key] = True
            i += 1
            continue
        if key not in _PARSERS:
            raise ConfigError(f"unknown key '{key}'")
        if i + 1 >= len(argv):
            raise ConfigError(f"key '{key}': missing value")
        values[key] = _PARSERS[key](key, argv[i + 1])
        i += 2
    file_values = _parse_file(config_text) if config_text else {}
    merged = {**file_values, **values}
    if command is not None:
        merged["command"] = command
    command = merged.get("command", ExperimentConfig.command)
    if command in _READ_KEYS:
        ignored = sorted(set(merged) - _READ_KEYS[command] - {"command"})
        if ignored:
            raise ConfigError(f"key '{ignored[0]}': the {command} command does not read it; "
                              f"it reads {sorted(_READ_KEYS[command])}")
    if command == "threshold" and "tau_step" not in merged and "N" not in merged:
        merged["tau_step"] = SCAN_TAU_STEP  # the scan's own step unless one is given
    try:
        cfg = replace(ExperimentConfig(), **merged)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None
    return _validate(cfg)


# -- command implementations -------------------------------------------------


def _grid(cfg):
    try:
        return FrequencyGrid.for_box(cfg.d, cfg.n_max, cfg.tau_step, cfg.tau_pad)
    except ValueError as exc:
        raise ConfigError(f"key 'n_max'/'tau_step': {exc}") from None


def _write(cfg, name, text):
    os.makedirs(cfg.out, exist_ok=True)
    path = os.path.join(cfg.out, name)
    try:
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None
    print(f"wrote {path}")
    return path


def _json_text(obj):
    return json.dumps(obj, indent=2) + "\n"


def _check_budget(nbytes, key="n_max", remedy="reduce n_max, tau_pad or d"):
    gib = nbytes / 2**30
    if gib > _BUDGET_GIB:
        raise ConfigError(f"key '{key}': needs {gib:.2f} GiB, over the {_BUDGET_GIB} GiB "
                          f"budget; {remedy}")


def _family_n_list(cfg, default):
    """The N values of family, sweep or threshold, checked before any field is built."""
    n_list = cfg.N or default
    try:
        check_tau_step(cfg.tau_step)
    except ValueError as exc:
        raise ConfigError(f"key 'tau_step': {exc}") from None
    try:
        check_frequency(max(n_list), cfg.tau_step)
    except ValueError as exc:
        raise ConfigError(f"key 'N': {exc}") from None
    width = 2.0 / cfg.tau_step + 1.0
    if cfg.command == "family":
        _check_budget(_FAMILY_BYTES_PER_SAMPLE * width, "N",
                      f"tau_step={cfg.tau_step}; use a larger tau_step")
        return n_list
    try:
        _validate_n_list(n_list)
    except ValueError as exc:
        raise ConfigError(f"key 'N': {exc}") from None
    nbytes = (_POINT_BYTES_PER_SAMPLE * len(n_list) + _SCAN_TRANSIENT_BYTES_PER_SAMPLE) * width
    _check_budget(nbytes, "N", f"{len(n_list)} N values at tau_step={cfg.tau_step}; "
                  "use fewer N values or a larger tau_step")
    return n_list


def _cmd_norm(cfg):
    grid = _grid(cfg)
    sampled = grid.box_count * grid.n_tau > 4_000_000
    n_columns = min(64, grid.box_count) if sampled else grid.box_count
    _check_budget(_NORM_BYTES_PER_ENTRY * n_columns * grid.n_tau)
    rng = np.random.default_rng(cfg.seed)
    columns = None
    if sampled:
        keys = rng.choice(grid.box_count, size=n_columns, replace=False)
        columns = grid.box_index[np.sort(keys)]
    u = random_field(grid, rng, columns=columns, envelope_power=-1.0)
    p = NormParams(s=cfg.s, b=cfg.b)
    obj = {
        "s": cfg.s,
        "b": cfg.b,
        "columns": int(u.n_columns),
        "xsb": xsb_norm(u, p),
        "ysb": ysb_norm(u, p),
        "zsb": zsb_norm(u, p),
        "energy_l2l1": energy_l2l1(u, cfg.s),
        "dyadic_profile": [[N, val] for N, val in dyadic_norm_profile(u, p)],
    }
    _write(cfg, "norms.json", _json_text(obj))
    return 0


def _cmd_family(cfg):
    n_list = _family_n_list(cfg, DEFAULT_SWEEP_N)
    p = NormParams(s=cfg.s, b=cfg.b)
    rows = []
    for N in n_list:
        grid = FrequencyGrid.for_box(2, N, cfg.tau_step)
        inst = build_family(cfg.family, N, grid)
        prod = conjugate_product(inst)
        col, center = product_support(cfg.family, N, 2)
        deviation = max(float(np.abs(vals - tent).max())
                        for vals, tent in tent_pairs(prod, col, center))
        rows.append({
            "N": N,
            "u_xsb": xsb_norm(inst.u, p), "v_xsb": xsb_norm(inst.v, p),
            "u_zsb": zsb_norm(inst.u, p), "v_zsb": zsb_norm(inst.v, p),
            "product_column": list(col), "tent_center": center,
            "tent_max_abs_deviation": deviation,
        })
    obj = {"family": cfg.family, "s": cfg.s, "b": cfg.b, "rows": rows}
    _write(cfg, "family.json", _json_text(obj))
    lines = ["N,u_xsb,v_xsb,u_zsb,v_zsb,tent_max_abs_deviation"]
    for r in rows:
        lines.append(",".join(repr(r[k]) if isinstance(r[k], float) else str(r[k])
                              for k in ("N", "u_xsb", "v_xsb", "u_zsb", "v_zsb",
                                        "tent_max_abs_deviation")))
    _write(cfg, "family.csv", "\n".join(lines) + "\n")
    return 0


def _cmd_sweep(cfg):
    n_list = _family_n_list(cfg, DEFAULT_SWEEP_N)
    report = run_sweep(cfg.family, n_list, NormParams(s=cfg.s, b=cfg.b), cfg.mode,
                       cfg.tau_step)
    _write(cfg, "sweep.csv", report.to_csv_text())
    _write(cfg, "sweep.json", report.to_json_text())
    print(f"fitted ratio slope {report.fitted_slope:+.4f} "
          f"(predicted {report.predicted_slope:+.4f}, {report.verdict})")
    return 0


def _cmd_threshold(cfg):
    lo, hi, step = cfg.s_range
    s_values = np.arange(lo, hi + step / 2, step)
    n_list = _family_n_list(cfg, SCAN_N_DEFAULT)
    scan = threshold_scan(cfg.family, s_values, cfg.b, cfg.mode, n_list,
                          tau_step=cfg.tau_step)
    _write(cfg, "threshold.json", scan.to_json_text())
    if scan.crossing is None:
        print("no ratio-slope sign change in the scanned range")
        return 1
    print(f"ratio-slope sign change at s = {scan.crossing:+.4f}")
    return 0


def _cmd_solve(cfg):
    grid = _grid(cfg)
    params = SolverParams(s=cfg.s, T=cfg.T, max_iterations=cfg.max_iterations,
                          contraction_tolerance=cfg.tolerance)
    _check_budget(peak_bytes(grid, params))
    u0 = rough_initial_data(grid, cfg.s, cfg.seed)

    def dump(k, field):
        os.makedirs(cfg.out, exist_ok=True)
        dump_field(field, os.path.join(cfg.out, f"solve_iter_{k:02d}.bin"))

    try:
        trace = picard_solve(u0, params, grid, on_iterate=dump if cfg.dump_fields else None)
        code = 0
    except DivergenceError as exc:
        trace = exc.trace
        print(f"divergence: {exc}")
        code = 1
    _write(cfg, "solve_trace.json", trace.to_json_text())
    if cfg.dump_fields:
        print(f"dumped {len(trace.z_norms)} iterate fields")
    return code


def _cmd_check(cfg):
    results = run_all(cfg.seed)
    for r in results:
        print(r.line())
    return 0 if all(r.passed for r in results) else 1


_RUNNERS = {
    "norm": _cmd_norm,
    "family": _cmd_family,
    "sweep": _cmd_sweep,
    "threshold": _cmd_threshold,
    "solve": _cmd_solve,
    "check": _cmd_check,
}


def run(cfg):
    """Execute a validated config; returns the process exit code."""
    try:
        return _RUNNERS[cfg.command](cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        cfg = parse_config(argv)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
