"""Record the eval_ppl_final of each ZO workload per seed into expected_ppl.json.

    python3 perfbench/record_expected.py --seeds 20

Every benchmark run of a ZO workload checks its eval_ppl_final against the
value recorded here for its seed and size (worker.PPL_RTOL). Re-record only
with a change that is meant to alter training results, and say so.
"""

from __future__ import annotations

import argparse
import json
import os

from run import ROOT, pinned_env

os.environ.update(pinned_env())  # before numpy loads, as for the workers

import speed  # noqa: E402
from worker import import_program  # noqa: E402

ZO_WORKLOADS = ("zo_w4a4", "zo_light_w4a16g16")
TINY_SEEDS = 4


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--seeds", type=int, default=20, help="record seeds 0 .. N-1 at full size")
    args = p.parse_args()
    import_program()
    import workloads

    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    table = {}
    for size, seeds in (("full", args.seeds), ("tiny", TINY_SEEDS)):
        for name in ZO_WORKLOADS:
            for seed in range(seeds):
                rep = workloads.make(name, seed, size, str(out)).rep(workloads.Untraced, speed.NoProbe())
                ppl = rep["quality"]["eval_ppl_final"]
                table.setdefault(size, {}).setdefault(name, {})[str(seed)] = ppl
                print(size, name, seed, repr(ppl), flush=True)
    path = ROOT / "perfbench" / "expected_ppl.json"
    path.write_text(json.dumps(table, indent=1) + "\n")


if __name__ == "__main__":
    main()
