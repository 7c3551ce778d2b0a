#!/usr/bin/env python3
"""Recompute the stored oracle answers of few-pairs-graph.

    python3 perfbench/make_digests.py

Runs the explicit oracle (about ten seconds per instance) on every
instance seed of the pool and writes their digests to
few_pairs_graph_digests.json.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import DIGESTS_FILE, FEW_PAIRS_POOL, WORKLOADS, digest  # noqa: E402


def main():
    wl = WORKLOADS["few-pairs-graph"]
    digests = {}
    for seed in range(FEW_PAIRS_POOL):
        model, pairs = wl.build(seed)
        digests[str(seed)] = digest(wl.oracle_answer(model, pairs))
        print(seed, digests[str(seed)], flush=True)
    DIGESTS_FILE.write_text(json.dumps(digests, indent=1) + "\n")


if __name__ == "__main__":
    main()
