"""Store reference Z-norm traces of the picard_1d workload for given seeds.

    PYTHONPATH=src python3 perfbench/make_reference.py 2024 7

Seeds already in perfbench/reference/picard_1d.json are kept; the listed ones
are (re)computed.  Regenerate only on a commit whose picard_1d output is
trusted: the benchmark fails any run that drifts from these traces by more
than 1e-8 relative.
"""

import json
import os
import sys

import rnlab

from child import PICARD, REFERENCE, picard_inputs, picard_run


def main(seeds):
    data = {"workload": "picard_1d", "config": PICARD, "z_norms": {}}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as f:
            data["z_norms"].update(json.load(f)["z_norms"])
    for seed in seeds:
        trace = picard_run(rnlab, picard_inputs(rnlab, seed))
        if getattr(trace, "diverged", None):
            raise SystemExit(f"seed {seed}: {trace.diverged}")
        data["z_norms"][str(seed)] = trace.z_norms
        data["z_norms"] = dict(sorted(data["z_norms"].items(), key=lambda kv: int(kv[0])))
        os.makedirs(os.path.dirname(REFERENCE), exist_ok=True)
        with open(REFERENCE, "w") as f:
            json.dump(data, f, indent=1)
            f.write("\n")
        print(f"seed {seed}: {len(trace.z_norms)} Z-norms stored", flush=True)


if __name__ == "__main__":
    main([int(s) for s in sys.argv[1:]])
