"""In-memory span recorder that times rnlab's layers from outside the package.

Each named function is replaced, in every rnlab module that binds it, by a
wrapper that records a span (name, start, end, parent) and counts calls and
the stored complex entries of its field arguments.  Nothing under src/ is
edited: the wrappers are installed at the names the calling modules look up
at run time (``rnlab.solver.apply_time_cutoff``, ``SpaceTimeField.__add__``).

Spans stay in memory until the workload ends; ``summary`` then derives self
times (span duration minus the time its child spans cover).
"""

from __future__ import annotations

import json
import time
import weakref
from collections import Counter

import numpy as np

HOOK = "trace.hook"
# relative magnitude below which a stored entry counts as zero (norms.support_ratio)
SUPPORT_FLOOR = 2.0**-40

# (module, function) pairs timed as layers, in report order.
LAYERS = (
    ("grid", "spacetime_convolve"),
    ("grid", "conjugate_reflect"),
    ("grid", "project_modulation"),
    ("grid", "project_dyadic"),
    ("grid", "field_add"),
    ("grid", "field_init"),
    ("grid", "mod_array"),
    ("grid", "random_field"),
    ("grid", "time_slices"),
    ("cutoffs", "apply_time_cutoff"),
    ("cutoffs", "free_evolution_data"),
    ("cutoffs", "sigma_lattice"),
    ("cutoffs", "gather_profile"),
    ("cutoffs", "transform_on_lattice"),
    ("norms", "xsb_norm"),
    ("norms", "ysb_norm"),
    ("norms", "zsb_norm"),
    ("norms", "energy_l2l1"),
    ("norms", "apply_modulation_weight"),
    ("norms", "ct_hs_norm"),
    ("norms", "l4_spacetime_norm"),
    ("families", "build_family"),
    ("families", "conjugate_product"),
    ("sweep", "lhs_norm_of_product"),
    ("sweep", "fit_loglog"),
    ("solver", "nonlinear_fourier_data"),
    ("solver", "duhamel_n1"),
    ("solver", "duhamel_n2"),
    ("solver", "duhamel_n3"),
) + tuple(("checks", f"check_{c}") for c in (
    "homogeneity", "triangle", "monotonic_mask", "dyadic_pythagoras",
    "lohi_partition", "convolution_tent", "embedding_chain", "est2_embedding",
    "weight_inequality", "cauchy_schwarz_constant", "dyadic_z_equivalence",
    "convolution_bilinear", "l4_slope", "reflect_isometries",
))

# Workload entry points: spans are recorded, but their self time is glue that
# no named layer covers.
ROOTS = (("solver", "picard_solve"), ("sweep", "threshold_scan"), ("checks", "run_all"))

# SpaceTimeField methods timed under a grid-level name.
_METHODS = {"field_add": ("__add__", "__sub__"), "field_init": ("__post_init__",),
            "mod_array": ("mod_array",)}

# Layers whose size is that of what they return, not of their arguments.
_RESULT_SIZED = {"grid.random_field", "cutoffs.free_evolution_data", "cutoffs.gather_profile",
                 "families.build_family"}

# Layers with no field argument or result: no .entries metric.
NO_ENTRIES = frozenset(
    {f"{m}.{f}" for m, f in LAYERS if m == "checks"}
    | {"cutoffs.sigma_lattice", "cutoffs.transform_on_lattice", "sweep.fit_loglog"}
)


def layer_names():
    return [f"{m}.{f}" for m, f in LAYERS]


def metric_specs():
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for name in layer_names():
        specs.append((f"{name}.calls", "count", "lower"))
        specs.append((f"{name}.self_s", "s", "lower"))
        if name not in NO_ENTRIES:
            specs.append((f"{name}.entries", "count", "lower"))
    specs += [("solver.duhamel_n1.terms", "count", "lower"),
              ("solver.duhamel_n1.psi_support_ratio", "ratio", "higher"),
              ("norms.support_ratio", "ratio", "higher"),
              ("trace.wall_s", "s", "lower"),
              ("trace.overhead_s", "s", "lower"),
              ("trace.uncovered_share", "ratio", "lower")]
    return specs


def _field_entries(obj, field_cls, family_cls):
    if isinstance(obj, field_cls):
        return int(np.size(obj.data))
    if isinstance(obj, family_cls):
        return int(obj.u.data.size + obj.v.data.size)
    return 0


class Tracer:
    def __init__(self):
        self.spans = []        # (name, start, end, parent index or -1)
        self.stack = []        # indices of open spans
        self.open = Counter()  # open spans per layer name and per module
        self.calls = Counter()
        self.entries = Counter()
        self.counts = Counter()  # inputs of the ratio metrics
        self.nonzero = {}        # id(data array) -> (weakref, nonzero count)

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, entries=None, hook=None):
        spans, stack, opened = self.spans, self.stack, self.open
        module = name.split(".", 1)[0]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if hook is not None:
                h0 = clock()
                hook(self, args, kwargs)
                spans.append((HOOK, h0, clock(), parent))
            index = len(spans)
            spans.append(None)
            stack.append(index)
            opened[name] += 1
            opened[module] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                opened[name] -= 1
                opened[module] -= 1
                spans[index] = (name, start, end, parent)
                self.calls[name] += 1
            if entries is not None:
                self.entries[name] += entries(args, kwargs, result)
            return result

        return traced

    def install(self, rnlab):
        """Wrap every layer and root wherever an rnlab module binds it."""
        import rnlab.checks  # noqa: F401  (not imported by the package itself)

        modules = [rnlab] + [getattr(rnlab, m) for m in
                             ("grid", "cutoffs", "norms", "families", "sweep", "solver",
                              "checks", "cli") if hasattr(rnlab, m)]
        field_cls = rnlab.grid.SpaceTimeField
        family_cls = rnlab.families.FamilyInstance

        def arg_entries(args, kwargs, result):
            return sum(_field_entries(a, field_cls, family_cls)
                       for a in (*args, *kwargs.values()))

        def result_entries(args, kwargs, result):
            if isinstance(result, np.ndarray):
                return int(result.size)
            return _field_entries(result, field_cls, family_cls)

        hooks = {"cutoffs.sigma_lattice": _count_n1_term,
                 "solver.duhamel_n1": _count_psi_support}
        for mod, fname in LAYERS + ROOTS:
            name = f"{mod}.{fname}"
            counter = None
            if (mod, fname) in LAYERS and name not in NO_ENTRIES:
                counter = result_entries if name in _RESULT_SIZED else arg_entries
            hook = hooks.get(name, _count_support if mod == "norms" else None)
            if fname in _METHODS:
                for method in _METHODS[fname]:
                    original = getattr(field_cls, method)
                    setattr(field_cls, method, self.wrap(name, original, counter, hook))
                continue
            original = getattr(getattr(rnlab, mod), fname)
            wrapper = self.wrap(name, original, counter, hook)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    # -- results -----------------------------------------------------------

    def self_times(self):
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for i, (name, start, end, parent) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def summary(self, wall_s):
        """Per-layer metric values (every name of ``metric_specs``)."""
        self_s = self.self_times()
        values = {}
        covered = 0.0
        for name in layer_names():
            values[f"{name}.calls"] = self.calls[name]
            values[f"{name}.self_s"] = self_s[name]
            if name not in NO_ENTRIES:
                values[f"{name}.entries"] = self.entries[name]
            covered += self_s[name]
        c = self.counts
        n1_calls = self.calls["solver.duhamel_n1"]
        values["solver.duhamel_n1.terms"] = c["n1_terms"] / n1_calls if n1_calls else 0.0
        values["solver.duhamel_n1.psi_support_ratio"] = (
            c["psi_entries"] / c["fhat_entries"] if c["fhat_entries"] else 0.0)
        values["norms.support_ratio"] = (
            c["norm_nonzero"] / c["norm_entries"] if c["norm_entries"] else 0.0)
        values["trace.wall_s"] = wall_s
        values["trace.uncovered_share"] = (wall_s - covered) / wall_s
        return values

    def write_spans(self, path, origin):
        """One JSON line per span: name, start and end (s after origin), parent."""
        with open(path, "w") as f:
            for name, start, end, parent in self.spans:
                f.write(json.dumps([name, start - origin, end - origin, parent]) + "\n")


# -- counting hooks (run outside the layer's own span) ---------------------


def _count_n1_term(tracer, args, kwargs):
    # one sigma-lattice per Taylor term: N1 asks for t^k eta at k = 1, 2, ...
    if tracer.open["solver.duhamel_n1"]:
        tracer.counts["n1_terms"] += 1


def _count_psi_support(tracer, args, kwargs):
    """Entries of fhat with |sigma| < 2 (supp psi), counted from the lattice."""
    fhat = kwargs.get("fhat", args[3] if len(args) > 3 else None)
    if fhat is None or fhat.n_columns == 0:
        return
    grid = fhat.grid
    nsq = fhat.norm_sq_columns().astype(float)
    offset = np.arange(grid.n_tau) - grid.half_index
    # sigma_j = j * step + |n|^2 lies in (-2, 2) for j strictly between these
    lo = np.floor((-2.0 - nsq) / grid.tau_step) + 1
    hi = np.ceil((2.0 - nsq) / grid.tau_step) - 1
    lo = np.maximum(lo, offset[0])
    hi = np.minimum(hi, offset[-1])
    tracer.counts["psi_entries"] += int(np.maximum(hi - lo + 1, 0).sum())
    tracer.counts["fhat_entries"] += int(fhat.data.size)


def _count_support(tracer, args, kwargs):
    """Nonzero and stored entries of the field given to an outermost norms call.

    An entry counts as nonzero above SUPPORT_FLOOR times the field's largest
    magnitude: FFT convolution leaves round-off (~1e-16 relative) on every
    sample of a product whose true support is a few samples wide.  Nested
    calls (zsb -> xsb) are not recounted.  The count of a data array is
    remembered while the array lives, since sweeps norm the same fields once
    per s; rnlab does not write to a field's data once built.
    """
    if tracer.open["norms"] or not args or not hasattr(args[0], "data"):
        return
    data = args[0].data
    hit = tracer.nonzero.get(id(data))
    if hit is None or hit[0]() is not data:
        mag = np.abs(data)
        peak = mag.max(initial=0.0)
        hit = (weakref.ref(data), int(np.count_nonzero(mag > SUPPORT_FLOOR * peak)))
        tracer.nonzero[id(data)] = hit
    tracer.counts["norm_nonzero"] += hit[1]
    tracer.counts["norm_entries"] += int(data.size)
