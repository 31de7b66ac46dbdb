"""Run every workload on several seeds and summarise the spread.

    python3 bench/baseline.py --seeds 1-10 --out bench/baseline.json

Each run is a fresh ``run.py`` process with tracing off, for
BENCHMARK.json's ``run_seconds``.  For every workload and end-to-end
metric the summary holds the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median.
One traced run per workload, at the first seed, adds the per-layer
metrics.  A failed run stops the script.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run(cfg: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(cfg["command"] + ["--workload", workload, "--seed", str(seed),
                                            "--seconds", str(cfg["run_seconds"]),
                                            "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    details, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return details, result


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    cfg = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in cfg["workloads"]]

    summary = {"run_seconds": cfg["run_seconds"], "seeds": args.seeds,
               "end_to_end": {}, "per_layer": {}}
    for name in names:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            details, result = run(cfg, name, seed, 0)
            summary.setdefault("provenance", details["provenance"])
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
        rows = {}
        for metric, vs in values.items():
            q1, _, q3 = statistics.quantiles(vs, n=4)
            median = statistics.median(vs)
            rows[metric] = {"median": median, "q1": q1, "q3": q3,
                            "spread": (q3 - q1) / median, "values": vs}
            print(f"{name:8s} {metric:12s} median {median:12.6g}  "
                  f"spread {(q3 - q1) / median:.4f}", flush=True)
        summary["end_to_end"][name] = rows
        _, traced = run(cfg, name, args.seeds[0], 1)
        summary["per_layer"][name] = {k: m["value"] for k, m in traced["metrics"].items()}
    summary["provenance"].pop("seed", None)
    text = json.dumps(summary, indent=1)
    if args.out:
        args.out.write_text(text + "\n")
    else:
        print(text)


if __name__ == "__main__":
    main()
