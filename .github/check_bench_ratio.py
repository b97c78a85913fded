"""Checks one same-run ratio in a bench's JSON-line output.

  ./build/bench/serve_throughput | python3 .github/check_bench_ratio.py \\
      BM_Serve speedup_vs_per_call api=batched sessions=8

reads the bench's stdout, picks the one row whose "bench" is the first
argument and whose fields match every key=value argument, and exits non-zero
unless its metric (the second argument) is at least 1.0.
"""
import json
import sys

bench, metric, *conds = sys.argv[1:]
want = dict(c.split("=", 1) for c in conds)
rows = [json.loads(line) for line in sys.stdin if line.startswith("{")]
hits = [r for r in rows if r.get("bench") == bench
        and all(str(r.get(k)) == v for k, v in want.items())]
if len(hits) != 1 or metric not in hits[0]:
    sys.exit(f"expected one {bench} row with {want} and {metric}, "
             f"found {len(hits)}")
value = hits[0][metric]
print(f"{bench} {want}: {metric} = {value} (need >= 1.0)")
sys.exit(0 if value >= 1.0 else 1)
