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
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .checks import run_all
from .families import (FAMILY_KINDS, build_family, check_frequency, conjugate_product,
                       product_support, tent_pairs)
from .grid import FrequencyGrid, random_field, steps_per_unit
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

# Peak bytes of the norm command per drawn field entry: the field, beside a
# norm's row block or a dyadic projection (tracemalloc: 26.5-34, 0.14M-4.2M entries).
_NORM_BYTES_PER_ENTRY = 48

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

# Peak bytes of threshold per value of s and of N: the norms, sweep rows,
# slopes and report text of each pair (tracemalloc: 232-245).
_SCAN_BYTES_PER_S_AND_N = 256


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


def _bool(text):
    low = text.strip().lower()
    if low not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise ValueError(text)
    return low in ("1", "true", "yes", "on")


def _split(cast, sep):
    return lambda text: tuple(cast(part) for part in text.split(sep))


def _dyadic_increasing(ns):
    return all(n >= 1 and not n & (n - 1) for n in ns) and all(a < b for a, b in zip(ns, ns[1:]))


# key -> (parser of its flag or file text, rule on its merged value, the values
# it accepts).  A parser raises ValueError on text it cannot read; every rule
# is a comparison that NaN fails.
_KEYS = {
    "command": (str, lambda v: v in _COMMANDS, f"one of {_COMMANDS}"),
    "d": (int, lambda v: v in (1, 2), "1 or 2"),
    "n_max": (int, lambda v: v >= 1, "an integer >= 1"),
    "tau_step": (float, lambda v: 0 < v < math.inf, "a finite number > 0"),
    "tau_pad": (float, lambda v: 4 <= v < math.inf, "a finite number >= 4"),
    "s": (float, math.isfinite, "a finite number"),
    "b": (float, math.isfinite, "a finite number"),
    "family": (str, lambda v: v in FAMILY_KINDS, f"one of {FAMILY_KINDS}"),
    "N": (_split(int, ","), lambda v: v is None or _dyadic_increasing(v),
          "comma-separated strictly increasing powers of 2"),
    "mode": (str, lambda v: v in ("X", "Z"), "X or Z"),
    "s_range": (_split(float, ":"),
                lambda v: len(v) == 3 and -math.inf < v[0] < v[1] < math.inf
                and 0 < v[2] < math.inf, "lo:hi:step, finite numbers with lo < hi and step > 0"),
    "T": (float, lambda v: 0 < v <= 0.25, "a number in (0, 1/4]"),
    "max_iterations": (int, lambda v: v >= 1, "an integer >= 1"),
    "tolerance": (float, lambda v: v > 0, "a number > 0"),
    "seed": (int, lambda v: v >= 0, "an integer >= 0"),
    "out": (str, lambda v: v != "", "a directory path"),
    "dump_fields": (_bool, lambda v: v in (True, False), "true/false, yes/no, on/off or 1/0"),
}


def _rejected(key, value):
    return ConfigError(f"key '{key}': expected {_KEYS[key][2]}, got {value!r}")


def _parsed(key, text):
    try:
        return _KEYS[key][0](text)
    except ValueError:
        raise _rejected(key, text) from None


# The keys each command's _cmd_* body reads; any other key, given by flag or
# file, is rejected.
_GRID_KEYS = {"d", "n_max", "tau_step", "tau_pad"}
_READ_KEYS = {
    "norm": _GRID_KEYS | {"s", "b", "seed", "out"},
    "family": {"family", "N", "tau_step", "s", "b", "out"},
    "sweep": {"family", "N", "mode", "tau_step", "s", "b", "out"},
    "threshold": {"family", "N", "mode", "tau_step", "s_range", "b", "out"},
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
        if key not in _KEYS:
            raise ConfigError(f"unknown key '{key}' in config file")
        values[key] = _parsed(key, value)
    return values


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
        if key not in _KEYS:
            raise ConfigError(f"unknown key '{key}'")
        if i + 1 >= len(argv):
            raise ConfigError(f"key '{key}': missing value")
        values[key] = _parsed(key, argv[i + 1])
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
    cfg = replace(ExperimentConfig(), **merged)
    for key, (_, rule, _) in _KEYS.items():
        if not rule(getattr(cfg, key)):
            raise _rejected(key, getattr(cfg, key))
    return cfg


# -- command implementations -------------------------------------------------


def _checked(key, check, *args):
    """check(*args), its ValueError or OverflowError re-raised as a ConfigError naming key."""
    try:
        return check(*args)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"key '{key}': {exc}") from None


def _grid(cfg):
    # d, tau_step and tau_pad have passed their rules; what can still fail is the
    # window: at tau_step 1 its length, from n_max or from tau_pad where it
    # outweighs 2 n_max^2, then its samples, from tau_step
    key = "tau_pad" if cfg.tau_pad > 2 * cfg.n_max**2 else "n_max"
    _checked(key, FrequencyGrid.for_box, cfg.d, cfg.n_max, 1.0, cfg.tau_pad)
    return _checked("tau_step", FrequencyGrid.for_box, cfg.d, cfg.n_max, cfg.tau_step,
                    cfg.tau_pad)


def _out_path(cfg, name):
    """cfg.out/name, with cfg.out made if it is missing."""
    try:
        os.makedirs(cfg.out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"key 'out': cannot make {cfg.out}: {exc}") from None
    return os.path.join(cfg.out, name)


def _write(cfg, name, text):
    path = _out_path(cfg, name)
    try:
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(text)
    except OSError as exc:
        raise ConfigError(f"key 'out': cannot write {path}: {exc}") from None
    print(f"wrote {path}")
    return path


def _json_text(obj):
    return json.dumps(obj, indent=2) + "\n"


def _check_budget(nbytes, key="n_max", remedy="reduce n_max, tau_pad or d", grid=None):
    gib = nbytes / 2**30 if nbytes < 2**1000 else math.inf  # an int beyond float64
    # over grid's window: tau_step's fault when 1/tau_step outweighs 2 tau_max in
    # n_tau, else tau_pad's when it outweighs 2 n_max^2 in tau_max
    if grid is not None and 2.0 * grid.tau_max * grid.tau_step < 1.0:
        key, remedy = "tau_step", f"tau_step={grid.tau_step}; use a larger tau_step"
    elif grid is not None and grid.tau_max > 4 * grid.n_max**2:
        key, remedy = "tau_pad", "use a smaller tau_pad"
    if gib > _BUDGET_GIB:
        raise ConfigError(f"key '{key}': needs {gib:.3g} GiB, over the {_BUDGET_GIB} GiB "
                          f"budget; {remedy}")


def _check_finite(cfg, values, nsq, s_key="s", s=None):
    """Refuse a report, before it is written, unless all its ``values`` are
    finite.  The key named is ``s_key`` when the <n>^{2s} weight at |n|^2 = nsq
    overflows float64 (s, by default cfg.s, at its largest), else b, whose
    modulation weights <tau+|n|^2>^{2b} and ^{s+2b} then did."""
    if all(map(math.isfinite, values)):
        return
    s = cfg.s if s is None else s
    key = s_key if s * math.log1p(nsq) > math.log(sys.float_info.max) else "b"
    raise ConfigError(f"key '{key}': {key}={getattr(cfg, key)} overflows the norms' "
                      f"weights past float64; use a smaller {key}")


def _family_n_list(cfg, default):
    """The N values of family, sweep or threshold, checked before any field is built."""
    n_list = cfg.N or default
    _checked("tau_step", steps_per_unit, cfg.tau_step)
    _checked("N", check_frequency, max(n_list), cfg.tau_step)
    width = 2.0 / cfg.tau_step + 1.0
    if cfg.command == "family":
        _check_budget(_FAMILY_BYTES_PER_SAMPLE * width, "N",
                      f"tau_step={cfg.tau_step}; use a larger tau_step")
        return n_list
    _checked("N", _validate_n_list, n_list)
    nbytes = (_POINT_BYTES_PER_SAMPLE * len(n_list) + _SCAN_TRANSIENT_BYTES_PER_SAMPLE) * width
    _check_budget(nbytes, "N", f"{len(n_list)} N values at tau_step={cfg.tau_step}; "
                  "use fewer N values or a larger tau_step")
    return n_list


def _cmd_norm(cfg):
    grid = _grid(cfg)
    sampled = grid.box_count * grid.n_tau > 4_000_000
    n_columns = min(64, grid.box_count) if sampled else grid.box_count
    _check_budget(_NORM_BYTES_PER_ENTRY * n_columns * grid.n_tau, grid=grid)
    # rng.choice, the int64 flat keys and the int64 |n|^2 all stop below 2^63
    if max(grid.box_count, grid.dimension * grid.n_max**2) >= 2**63:
        raise ConfigError(f"key 'n_max': the d={grid.dimension} box of n_max={grid.n_max} "
                          "is past the int64 range of its keys or |n|^2; reduce n_max or d")
    rng = np.random.default_rng(cfg.seed)
    columns = None
    if sampled:
        keys = rng.choice(grid.box_count, size=n_columns, replace=False)
        columns = grid.index_from_keys(np.sort(keys))
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
    _check_finite(cfg, [*(obj[k] for k in ("xsb", "ysb", "zsb", "energy_l2l1")),
                        *(v for _, v in obj["dyadic_profile"])], grid.dimension * grid.n_max**2)
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
    _check_finite(cfg, [r[k] for r in rows for k in ("u_xsb", "v_xsb", "u_zsb", "v_zsb",
                                                      "tent_max_abs_deviation")],
                  2 * n_list[-1]**2)
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
    report = _checked("s", run_sweep, cfg.family, n_list, NormParams(s=cfg.s, b=cfg.b),
                      cfg.mode, cfg.tau_step)
    _check_finite(cfg, [x for r in report.rows for x in (r.u_norm, r.v_norm, r.lhs, r.ratio)]
                  + [report.fitted_slope, report.fit_residual], 2 * n_list[-1]**2)
    _write(cfg, "sweep.csv", report.to_csv_text())
    _write(cfg, "sweep.json", report.to_json_text())
    print(f"fitted ratio slope {report.fitted_slope:+.4f} "
          f"(predicted {report.predicted_slope:+.4f}, {report.verdict})")
    return 0


def _cmd_threshold(cfg):
    n_list = _family_n_list(cfg, SCAN_N_DEFAULT)
    lo, hi, step = cfg.s_range
    count = (hi - lo) / step + 1  # the length of np.arange below, within one
    _check_budget(_SCAN_BYTES_PER_S_AND_N * len(n_list) * count, "s_range",
                  f"{count:.3g} values of s; use a larger step")
    s_values = np.arange(lo, hi + step / 2, step)
    scan = _checked("s_range", threshold_scan, cfg.family, s_values, cfg.b, cfg.mode, n_list,
                    cfg.tau_step)
    _check_finite(cfg, [slope for _, slope in scan.points], 2 * n_list[-1]**2, "s_range",
                  s_values[-1])
    _write(cfg, "threshold.json", scan.to_json_text())
    if scan.crossing is None:
        print("no ratio-slope sign change in the scanned range")
        return 1
    print(f"ratio-slope sign change at s = {scan.crossing:+.4f}")
    return 0


def _cmd_solve(cfg):
    params = _checked("s", SolverParams, cfg.s, cfg.T, cfg.max_iterations, cfg.tolerance)
    _checked("tau_step", steps_per_unit, cfg.tau_step)
    grid = _grid(cfg)
    # peak_bytes, slow to evaluate on a huge grid, is at least its two
    # iterates, 32 bytes an entry
    _check_budget(32 * grid.box_count * grid.n_tau, grid=grid)
    _check_budget(peak_bytes(grid, params), grid=grid)
    u0 = rough_initial_data(grid, cfg.s, cfg.seed)

    def dump(k, field):
        dump_field(field, _out_path(cfg, f"solve_iter_{k:02d}.bin"))

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
