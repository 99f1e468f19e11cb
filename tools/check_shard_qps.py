#!/usr/bin/env python3
"""Gate: sharding must not cost throughput.

Runs `sfctool serve-bench` in pairs on one index and one trace, once with
`--shards 0` and once with `--shards 4`, alternating which goes first, and
fails if the median over 7 pairs of the 64-client QPS ratio (sharded /
unsharded) falls below 0.9.  Pairing inside one job makes the gate a ratio
of two runs on the same machine a moment apart, so runner drift cancels
instead of masquerading as a sharding cost (the method of
check_obs_overhead.py).

  check_shard_qps.py --sfctool build/tools/sfctool --file index.sfcidx \\
      --trace data/traces/serve_smoke_1k.trace
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

CLIENTS = 64
SHARD_BITS = 4
PAIRS = 7
MIN_RATIO = 0.9


def replay_qps(args, shards, json_path):
    """One serve-bench replay; returns its QPS at CLIENTS clients."""
    cmd = [
        args.sfctool, "serve-bench",
        "--file", args.file,
        "--trace", args.trace,
        "--clients", str(CLIENTS),
        "--shards", str(shards),
        "--json", json_path,
    ]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    with open(json_path, encoding="utf-8") as fh:
        report = json.load(fh)
    name = f"serve_replay_p50/clients:{CLIENTS}"
    row = next(b for b in report["benchmarks"] if b["name"] == name)
    return float(row["items_per_second"])


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--sfctool", required=True, help="path to sfctool")
    parser.add_argument("--file", required=True, help="index file to serve")
    parser.add_argument("--trace", required=True, help="query trace to replay")
    args = parser.parse_args()

    ratios = []
    with tempfile.TemporaryDirectory() as tmp:
        json_path = os.path.join(tmp, "serve.json")
        for pair in range(PAIRS):
            order = [0, SHARD_BITS] if pair % 2 == 0 else [SHARD_BITS, 0]
            qps = {shards: replay_qps(args, shards, json_path) for shards in order}
            ratio = qps[SHARD_BITS] / qps[0]
            ratios.append(ratio)
            print(f"pair {pair}: shards 0 {qps[0]:,.0f} qps, shards 2^{SHARD_BITS} "
                  f"{qps[SHARD_BITS]:,.0f} qps, ratio {ratio:.3f}")

    median = statistics.median(ratios)
    print(f"median ratio over {len(ratios)} pairs at {CLIENTS} clients: "
          f"{median:.3f} (floor {MIN_RATIO})")
    if median < MIN_RATIO:
        print("FAIL: sharded serving loses throughput against one shard")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
