"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py BASE NEW

``BASE`` and ``NEW`` are directories of the result records ``run.py`` writes
(copy ``perfbench/results/`` aside after running the parent commit, then run
the change), or JSON files holding a list of such records, like
``perfbench/baseline.json``.  For every workload and metric the command
prints each side's median and quartiles over its runs, and for end-to-end
metrics a verdict against the bound in ``BENCHMARK.json``:

* ``worse than bound`` -- the new median is worse than the base median by
  more than the bound;
* ``unresolved`` -- either side's spread (quartile distance over median) is
  wider than the bound, so the runs cannot tell, unless every new run reads
  better than every base run;
* ``within bound`` -- otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def records(source: Path) -> list[dict]:
    """Result records from a directory of them, or from a JSON list of them."""
    if source.is_file():
        return json.loads(source.read_text(encoding="utf-8"))
    return [
        json.loads(path.read_text(encoding="utf-8"))
        for path in sorted(source.rglob("*.json"))
        if not path.name.startswith("trace-")
    ]


def load(source: Path) -> dict[tuple[str, int], dict[str, list[float]]]:
    """Metric values per (workload, trace flag) from the records in ``source``."""
    values: dict[tuple[str, int], dict[str, list[float]]] = defaultdict(
        lambda: defaultdict(list)
    )
    for record in records(source):
        if record.get("tiny") or "metrics" not in record:
            continue
        key = (record["workload"], int(record["trace"]))
        for name, metric in record["metrics"].items():
            values[key][name].append(float(metric["value"]))
    return values


def summary(sample: list[float]) -> tuple[float, float, float]:
    """Median and first/third quartiles (``statistics.quantiles``, n=4)."""
    if len(sample) < 2:
        return sample[0], sample[0], sample[0]
    q1, q2, q3 = statistics.quantiles(sample, n=4)
    return q2, q1, q3


def spread(sample: list[float]) -> float:
    median, q1, q3 = summary(sample)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    """The §6.5 reading of one end-to-end metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0
    base_median, new_median = summary(base)[0], summary(new)[0]
    if max(spread(base), spread(new)) > bound:
        clearly_better = all(sign * n < sign * b for n in new for b in base)
        return "within bound" if clearly_better else "unresolved"
    worse = sign * (new_median - base_median) / abs(base_median) if base_median else 0.0
    return "worse than bound" if worse > bound else "within bound"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(Path(argv[0])), load(Path(argv[1]))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {0: spec["end_to_end"], 1: spec["per_layer"]}
    regressed = False
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            key = (workload, trace)
            if key not in base or key not in new:
                continue
            print(f"\n{workload} ({'per-layer' if trace else 'end-to-end'})")
            print(f"{'metric':34} {'base median [q1, q3] n':>36} {'new median [q1, q3] n':>36}  verdict")
            for metric in metrics[trace]:
                name = metric["name"]
                b, n = base[key].get(name), new[key].get(name)
                if not b or not n:
                    continue
                cells = []
                for sample in (b, n):
                    median, q1, q3 = summary(sample)
                    cells.append(f"{median:.4g} [{q1:.4g}, {q3:.4g}] {len(sample)}")
                result = "-"
                if "bound" in metric:
                    result = verdict(b, n, metric["better"], metric["bound"])
                    regressed |= result == "worse than bound"
                print(f"{name:34} {cells[0]:>36} {cells[1]:>36}  {result}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
