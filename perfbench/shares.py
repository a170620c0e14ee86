"""Compare layer self-time share rankings between traced runs on two seeds.

    python3 perfbench/run.py --workload all --seed A --trace 1
    python3 perfbench/run.py --workload all --seed B --trace 1
    python3 perfbench/shares.py A B

Prints, per workload, each layer's share of the summed layer self time
on both seeds and whether the ranking of layers is the same.  Exits 1
when a ranking differs, so a workload that depends on one draw of the
data shows.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from spans import LAYERS
from workloads import WORKLOADS

RESULTS = Path(__file__).resolve().parent.parent / ".perfbench" / "results"


def shares(workload: str, seed: str) -> dict[str, float]:
    record = json.loads((RESULTS / f"{workload}-seed{seed}-trace1.json").read_text(encoding="utf-8"))
    self_s = {layer: record["metrics"][f"{layer}.self_s"]["value"] for layer in LAYERS}
    total = sum(self_s.values())
    return {layer: t / total for layer, t in self_s.items()}


def ranking(share: dict[str, float]) -> list[str]:
    """Layers by falling share; layers under 1% tie and keep their order."""
    return sorted(share, key=lambda layer: -share[layer] if share[layer] >= 0.01 else 0.0)


def main(seed_a: str, seed_b: str) -> int:
    same = True
    for workload in WORKLOADS:
        a, b = shares(workload, seed_a), shares(workload, seed_b)
        match = ranking(a) == ranking(b)
        same &= match
        print(f"{workload}: ranking {'holds' if match else 'DIFFERS'}")
        for layer in ranking(a):
            print(f"  {layer:12s} {a[layer]:7.1%} {b[layer]:7.1%}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
