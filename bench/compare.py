"""Repeat the benchmark and summarise medians, quartiles and spreads.

    python3 -m bench.compare [--workload NAME ...] [--runs 10] [--seed 2022]
                             [--seconds S] [--trace 0|1] [--reverse]
                             [--checkout DIR --checkout DIR] [--out FILE]

Each run is a separate ``python3 -m bench`` process started in the
checkout's root, on seed ``--seed + i`` for run ``i``.  With two
checkouts, run ``i`` measures both on the same seed and alternates which
goes first; the summary then gives, per (workload, metric), each side's
median and quartiles, the change of the medians, and how many pairs the
second checkout won.  ``--reverse`` runs the workloads in reverse order.
The spread of a metric is the distance between its first and third
quartile as a share of its median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def spec() -> dict:
    """``BENCHMARK.json`` of the checkout this tool lives in."""
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [
        sys.executable, "-m", "bench", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {' '.join(command)} exited {done.returncode}\n{done.stderr}")
    return json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(median) if median else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench.compare", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--reverse", action="store_true")
    parser.add_argument("--checkout", action="append", type=Path)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bench = spec()
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    if args.reverse:
        workloads = workloads[::-1]
    checkouts = [c.resolve() for c in (args.checkout or [HERE.parent])]
    if len(checkouts) > 2:
        parser.error("compare at most two checkouts")
    direction = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary: dict = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    for workload in workloads:
        samples: list[dict[str, list]] = [{} for _ in checkouts]
        for i in range(args.runs):
            order = list(range(len(checkouts)))
            if i % 2:
                order.reverse()
            for side in order:
                result = run_once(checkouts[side], workload, args.seed + i, seconds, args.trace)
                if not result["correct"]:
                    raise RuntimeError(f"{checkouts[side]}: gates broke on {workload}, seed {args.seed + i}")
                for name, metric in result["metrics"].items():
                    samples[side].setdefault(name, []).append(metric["value"])
        rows = {}
        for name in samples[0]:
            row = {"sides": [summarise(s[name]) for s in samples]}
            if len(checkouts) == 2:
                before, after = samples[0][name], samples[1][name]
                sign = 1.0 if direction[name] == "higher" else -1.0
                base = row["sides"][0]["median"]
                row["change"] = (row["sides"][1]["median"] - base) / abs(base) if base else 0.0
                row["wins"] = sum(sign * (b - a) > 0 for a, b in zip(before, after))
            rows[name] = row
        summary["workloads"][workload] = rows
        _print(workload, rows, bounds, args.runs)
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


def _print(workload: str, rows: dict, bounds: dict, runs: int) -> None:
    print(f"{workload}")
    for name, row in rows.items():
        cells = "  ".join(
            f"median {s['median']:.6g} [q1 {s['q1']:.6g}, q3 {s['q3']:.6g}] spread {s['spread']:.2%}"
            for s in row["sides"]
        )
        extra = ""
        if "change" in row:
            extra = f"  change {row['change']:+.2%}, second wins {row['wins']}/{runs}"
        bound = f" (bound {bounds[name]:.0%})" if name in bounds else ""
        print(f"  {name:<40}{bound:<13} {cells}{extra}")


if __name__ == "__main__":
    sys.exit(main())
