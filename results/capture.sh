#!/usr/bin/env bash
# Regenerates every captured harness output in this directory.
set -euo pipefail
cd "$(dirname "$0")/.."
BINS="fig7 fig8 fig9 fig10 fig11 table_speedup table_baselines topo_check \
      ablation_layout ablation_probing ablation_multisplit \
      ablation_distribution ablation_hash ablation_adaptive ablation_sharding"
for b in $BINS; do
  echo "capturing $b"
  cargo run --release -p wd-bench --bin "$b" -- --n 65536 > "results/$b.txt"
done
echo "capturing BENCH_perf.json"
# one simulator thread: with more, pool-mode CAS races make the sweep's
# counters differ from run to run
RAYON_NUM_THREADS=1 cargo run --release -p wd-bench --bin wd-bench -- --out BENCH_perf.json
cargo run --release -p wd-bench --bin wd-bench -- --validate BENCH_perf.json
