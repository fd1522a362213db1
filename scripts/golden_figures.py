#!/usr/bin/env python3
"""Golden check of the paper figure/table benches.

Runs every figure/table reproduction bench in quick mode (their seeds are
fixed in the sources), captures its PBS_BENCH_JSON rows, drops the
machine-dependent fields (timings, rates, the cpu tag) and compares what
is left -- success rates, KB, xMin, rounds, parameter choices -- against
a checked-in golden file. Any drift in a reported figure is a diff:

    scripts/golden_figures.py --build build            # check
    scripts/golden_figures.py --build build --update   # rewrite golden

Exit status: 0 when identical, 1 on any difference (printed as a unified
diff, golden first), 2 when a bench binary is missing or fails.
"""

import argparse
import difflib
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCHES = (
    "bench_fig1_pinsketch_ddigest",
    "bench_fig2_graphene",
    "bench_fig3_pinsketch_wp",
    "bench_fig4_delta_sweep",
    "bench_fig5_signature256",
    "bench_table1_param_grid",
    "bench_table2_rounds_pmf",
    "bench_sec52_round_tradeoff",
    "bench_sec53_piecewise",
    "bench_ablation_decoders",
    "bench_ablation_procedure3",
    "bench_related_rounds",
)

# Machine-dependent fields: wall-clock timings (*_s, *_ms, *_ns), derived
# rates, and the hardware-capability tag.
VOLATILE_KEY = re.compile(r"(_s|_ms|_ns|_per_s|Mops|ns_per_op)$")
METADATA_KEYS = {"cpu"}

DEFAULT_GOLDEN = Path(__file__).resolve().parent.parent / "bench" / \
    "figures_golden.jsonl"


def stable_fields(record):
    return {k: v for k, v in record.items()
            if k not in METADATA_KEYS and not VOLATILE_KEY.search(k)}


def run_benches(build_dir):
    env = dict(os.environ)
    env.pop("PBS_BENCH_FULL", None)
    lines = []
    for bench in BENCHES:
        binary = build_dir / bench
        if not binary.exists():
            print(f"missing bench binary: {binary}", file=sys.stderr)
            sys.exit(2)
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "rows.jsonl"
            env["PBS_BENCH_JSON"] = str(out)
            start = time.monotonic()
            proc = subprocess.run([str(binary)], env=env,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True)
            elapsed = time.monotonic() - start
            if proc.returncode != 0:
                print(f"{bench} exited {proc.returncode}:\n{proc.stderr}",
                      file=sys.stderr)
                sys.exit(2)
            print(f"{bench}: {elapsed:.1f} s", file=sys.stderr)
            if out.exists():
                for raw in out.read_text(encoding="utf-8").splitlines():
                    if raw.strip():
                        record = stable_fields(json.loads(raw))
                        lines.append(json.dumps(record,
                                                separators=(",", ":")))
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build", default="build", type=Path,
                        help="directory holding the bench binaries")
    parser.add_argument("--golden", default=DEFAULT_GOLDEN, type=Path,
                        help="golden JSON-lines file")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the golden file instead of checking")
    args = parser.parse_args()

    start = time.monotonic()
    lines = run_benches(args.build)
    print(f"total: {time.monotonic() - start:.1f} s, {len(lines)} rows",
          file=sys.stderr)

    if args.update:
        args.golden.write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"wrote {args.golden}", file=sys.stderr)
        return 0

    golden = args.golden.read_text(encoding="utf-8").splitlines()
    if golden == lines:
        print("figure outputs match the golden file", file=sys.stderr)
        return 0
    sys.stdout.writelines(
        line + "\n" for line in difflib.unified_diff(
            golden, lines, fromfile=str(args.golden), tofile="this build",
            lineterm=""))
    return 1


if __name__ == "__main__":
    sys.exit(main())
