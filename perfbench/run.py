"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload fig5-proc --seed 0 --seconds 20 --trace 0

``--trace 0`` times repeated passes with tracing off and reports the
end-to-end metrics; ``--trace 1`` runs one untraced pass, then traced
passes (at least two) and reports the per-layer metrics. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. Per-pass samples, digests and the traced spans land in
``.perfbench/`` at the checkout root. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
EXPECTED = Path(__file__).resolve().parent / "expected.json"
SETUP_SAMPLES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    workload = harness.WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"perfbench: unknown workload {args.workload!r}; known: "
            + ", ".join(harness.WORKLOADS),
            file=sys.stderr,
        )
        return 2
    units = declared_metrics()[args.trace]
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"

    def run(ledger=None):
        return harness.one_pass(
            workload, args.seed, OUT_DIR, expected, ledger
        )

    problems = []
    report = {"workload": workload.name, "seed": args.seed}
    if args.trace == 0:
        passes = harness.timed_passes(run, args.seconds)
        rss = harness.peak_rss_mb(passes)
        setup = harness.setup_seconds(SRC, SETUP_SAMPLES)
        measured = harness.end_to_end(passes, setup, rss)
        values = {name: value for name, (value, _n) in measured.items()}
        report["sample_counts"] = {
            name: n for name, (_value, n) in measured.items()
        }
        report["samples"] = {
            "host_wall_s": [p.wall_s for p in passes],
            "host_cpu_s": [p.cpu_s for p in passes],
            "wall_s": [p.ref_wall_s for p in passes],
            "cpu_s": [p.ref_cpu_s for p in passes],
            "setup_s": setup,
        }
        for name, (value, n) in measured.items():
            print(f"# {name:<14} {value:12.6f} {units.get(name, '?'):<6}"
                  f" median of {n}")
        host = statistics.median(p.wall_s for p in passes)
        print(f"# host_wall_s    {host:12.6f} s      median of {len(passes)}"
              " (as measured, not rescaled)")
    else:
        untraced = run()
        traced = harness.timed_passes(
            lambda: run(harness.Ledger()),
            args.seconds - untraced.wall_s,
            at_least=2,
        )
        passes = [untraced] + traced
        for p in traced[1:]:
            for name in harness.exact_count_mismatches(
                traced[0].ledger, p.ledger
            ):
                problems.append(f"traced count differs between passes: {name}")
        if any(p.outcomes != untraced.outcomes for p in traced):
            problems.append("traced outcomes differ from untraced")
        roster = harness.roster()
        per_pass = [
            harness.layer_metrics(
                roster, p.ledger, p.wall_s, untraced.wall_s
            )
            for p in traced
        ]
        values = {
            name: statistics.median(m[name] for m in per_pass)
            for name in per_pass[0]
        }
        report["spans"] = traced[-1].ledger.spans
        for name in sorted(set(values) - set(units)):
            print(f"perfbench: {name} is not declared", file=sys.stderr)
    for p in passes:
        problems.extend(e for e in p.errors if e not in problems)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    if args.trace == 1:
        values["fail_rate"] = failed / attempted
    report.update(
        digests=passes[-1].digests,
        attempted=attempted,
        failed=failed,
        problems=problems,
        metrics=values,
    )
    harness.write_json(OUT_DIR / f"{tag}.json", report)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(f"# digests {json.dumps(passes[-1].digests, sort_keys=True)}")
    print(f"# fail_rate {failed / attempted:.6f} ({failed}/{attempted})")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.exit(main())
