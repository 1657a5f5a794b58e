"""Run the benchmark over several seeds and summarise each metric's spread.

Usage, from the repository root:

    python3 bench/collect.py --workloads fit rate --seeds 1-10 --seconds 20 \\
        --trace 0 --out bench/baseline/mine.json

For every workload and metric it reports the ten values, their median,
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median.  It also records
the environment of the first run, so that results can be compared across
commits.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def summarise(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in seed_list(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, check=True,
            )
            lines = proc.stdout.strip().splitlines()
            detail, result = json.loads(lines[-2]), json.loads(lines[-1])
            report.setdefault("environment", detail["environment"])
            runs.append({"seed": seed, **result})
            print(workload, seed, json.dumps(result), flush=True)
        names = list(runs[0]["metrics"])
        report["workloads"][workload] = {
            "runs": [{k: r[k] for k in ("seed", "correct", "attempted", "failed")} for r in runs],
            "metrics": {n: {"unit": runs[0]["metrics"][n]["unit"],
                            **summarise([r["metrics"][n]["value"] for r in runs])}
                        for n in names},
        }
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    for workload, entry in report["workloads"].items():
        for name, m in entry["metrics"].items():
            spread = "n/a" if m["spread"] is None else f"{m['spread']:.3f}"
            print(f"{workload:9s} {name:48s} median {m['median']:.6g} {m['unit']} spread {spread}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
