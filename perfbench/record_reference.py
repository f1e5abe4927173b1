"""Write reference.json: the exact outputs of every workload at the default seed.

    python3 perfbench/record_reference.py

Run it from the root of a checkout whose outputs are known to be right;
`run.py` then counts every output that differs as failed.
"""

import json
import sys

import workloads
from run import REFERENCE, ROOT, run_worker


def main() -> int:
    reference = {}
    for name in workloads.WORKLOADS:
        n = len(workloads.build(name).queries)
        p = run_worker(name, workloads.DEFAULT_SEED, "run", limit=600)
        if p.errors or p.timed_out or len(p.outputs) != n:
            print(f"{name}: pass incomplete\n{p.stderr}", file=sys.stderr)
            return 1
        reference[name] = [p.outputs[i] for i in range(n)]
        print(f"{name}: {n} outputs recorded")
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
