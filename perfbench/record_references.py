"""Record the reference outputs that the benchmark's checks compare against.

    python3 perfbench/record_references.py --workload sweep-sp-aprime --seeds 0-15

Run it on the commit whose outputs are the reference.  It makes the
workload's inputs for each seed, runs every distinct operation once, checks
it, and merges the fingerprints into ``perfbench/references/<workload>.json``:
a digest of the report rows for a sweep, the optimal objective for a
correction request.  Seeds with no recorded reference are still run by the
benchmark; their outputs then get only the invariant checks.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from run import OUT, REFERENCES
from workloads import FULL, WORKLOADS, setup


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 0-15")
    args = parser.parse_args(argv)

    path = REFERENCES / f"{args.workload}.json"
    refs = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    workdir = OUT / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for seed in args.seeds:
            seen = set()
            for op in setup(args.workload, seed, FULL, workdir):
                if op.key in seen:
                    continue
                seen.add(op.key)
                outcome = op.check(op.run())
                if outcome.error:
                    sys.exit(f"{op.key}: {outcome.error}")
                refs[op.key] = outcome.fingerprint
            print(f"seed {seed}: {len(seen)} operations", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
