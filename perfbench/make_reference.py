"""Write perfbench/reference.json: per-batch digests of every workload's
step on the default seed, which the benchmark then checks each step
against. Run it only when the library's maths is meant to change.

Usage: python3 perfbench/make_reference.py
"""

import json

import workloads as wl

SEED = 0

if __name__ == "__main__":
    ref = {"seed": SEED, "workloads": {}}
    for w in wl.WORKLOADS.values():
        nets = wl.build_nets(w.preset, SEED)
        digests = []
        for batch in wl.make_inputs(w, SEED):
            out = wl.step(w, nets, batch)
            problems = wl.check(w, out)
            if problems:
                raise SystemExit(f"{w.name}: {problems}")
            digests.append(wl.digest(out))
        ref["workloads"][f"{w.name}@{w.preset}"] = digests
        print(w.name, digests[0])
    wl.REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
