"""Benchmark entry point: run one workload and print its metrics.

    python3 bench/run.py --workload aer_dense_add --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. Lines before it
name each result with its unit. The exit code is 1 when any correctness
check failed and 2 when the package source is missing. Units come from
``BENCHMARK.json``, and for lines it does not declare from the
``report_lines`` of ``bench/catalogue.json``, which also says what each
metric means. The benchmark's own tests run with
``PYTHONPATH=src python -m pytest bench``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def metric_units() -> dict[str, str]:
    """Unit of every printed metric: BENCHMARK.json's, then the report-only lines'."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for kind in ("end_to_end", "per_layer") for m in declared[kind]}
    catalogue = json.loads((BENCH / "catalogue.json").read_text())
    units.update((name, line["unit"]) for name, line in catalogue["report_lines"].items())
    return units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "dvskit" / "__init__.py").is_file():
        print(f"error: no dvskit source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS, run_workload

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    report = {
        **outcome.report,
        **outcome.end_to_end,
        "failed_frac": outcome.failed / outcome.attempted,
    }
    units = metric_units()
    for name, value in report.items():
        print(f"{args.workload} {name} {value:.6g} {units[name]}")
    if args.trace:
        out = ROOT / ".bench_out" / f"spans_{args.workload}_{args.seed}.jsonl"
        outcome.tracer.write(out)
        print(f"spans written to {out.relative_to(ROOT)}")
        metrics = outcome.per_layer
    else:
        metrics = outcome.end_to_end
    metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    correct = outcome.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
