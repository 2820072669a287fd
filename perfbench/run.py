"""Run one workload of the repository benchmark and print its result.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload chip_campaign --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The line before it is the full record (environment fingerprint, medians,
tail percentiles, sample counts, per-workload named metrics), which is
also appended to ``.perfbench-run/records.jsonl``; a traced run writes
its spans to ``.perfbench-run/spans-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common, metrics  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402
from perfbench.workloads import NAMES, load  # noqa: E402


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    common.require_source_tree()
    env = common.fingerprint()
    tracer = Tracer() if args.trace else None
    workload = load(args.workload)
    result = workload.run(args.seed, args.seconds, tracer)

    # A traced run reports every per-layer metric; those of layers this
    # workload never reaches read 0 (result_line fills them in).
    line = metrics.result_line(
        result.correct, result.attempted, result.failed, result.values,
        bool(tracer), workload.LAYERS,
    )
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": env,
        "problems": result.problems,
        "detail": result.detail,
        **line,
    }
    common.RUN_DIR.mkdir(exist_ok=True)
    with open(common.RUN_DIR / "records.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")
    if tracer is not None:
        tracer.write_jsonl(
            common.RUN_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        )
    print(json.dumps(record))
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
