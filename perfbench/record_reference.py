"""Record perfbench/reference.json: the outputs later commits are compared to.

    python3 perfbench/record_reference.py

Runs every item of every workload once at the reference seed, requires
each to pass its invariant checks, and stores a compact digest per item: the
sweep CSV's sha256 prefix, the interval endpoints and the sweep maximum, or
a loan's gain.  Bundled pairs do not depend on the seed, so their digests
are checked at every seed.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

import run
from workloads import WORKLOADS, make_pool

SEED = 0


def main() -> int:
    cli = run.import_program()
    ref = {"seed": SEED, "bundled": {}, "seeded": {}}
    run.WORK.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="reference-", dir=run.WORK)
    try:
        for name in WORKLOADS:
            runner = run.Runner(cli, name, SEED, run.Path(out_dir), None)
            for item in make_pool(name, SEED):
                section = ref["bundled" if item.bundled else "seeded"].setdefault(name, {})
                section[item.key] = runner.run(item)[2]
            if runner.problems:
                print("\n".join(runner.problems), file=sys.stderr)
                return 1
            print(f"{name}: {runner.attempted} items recorded")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    (run.HERE / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
