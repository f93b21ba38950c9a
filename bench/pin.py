"""Pin the SHA-256 of every CLI output, per workload and seed.

    python3 bench/pin.py --seeds 0-20

Runs each workload once per seed (one round: two synths, one study) through
the same code as run.py and merges the digests of every output
file, keyed by command and file name, into bench/digests.json. Pin only
from a commit whose outputs are the reference: run.py counts any later
difference as a failed operation.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import DIGESTS, run_benchmark
from workloads import WORKLOADS


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, required=True, help="a seed or an inclusive range like 0-20")
    args = parser.parse_args(argv)
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    for name, workload in WORKLOADS.items():
        for seed in args.seeds:
            record = run_benchmark(workload, seed, 0, False, None, min_rounds=1)
            if record["failed"]:
                print(f"{name} seed {seed}: not pinned, {record['failures']}", file=sys.stderr)
                return 1
            pinned.setdefault(name, {})[str(seed)] = record["digests"]
            DIGESTS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8")
            print(f"{name} seed {seed}: {sum(len(d) for d in record['digests'].values())} files pinned")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
