#!/usr/bin/env bash
# Regenerate every paper table/figure plus the extension ablations into
# results/. Scale knobs: ICACHE_CIFAR_SCALE, ICACHE_IMAGENET_SCALE,
# ICACHE_PERF_EPOCHS, ICACHE_ACC_EPOCHS, ICACHE_SEED.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p results
cargo build --release -p icache-bench --bins
for b in fig01_io_fraction fig02_cis_limits fig03_importance_drift \
         table1_accuracy_cifar table2_accuracy_imagenet fig07_convergence \
         fig08_epoch_time fig09_io_time fig10_ablation_time \
         fig11_ablation_hitratio table3_substitution fig12_multi_gpu \
         fig13_distributed fig14_multi_job fig15_workers fig16_cache_size \
         fig17_churn fig18_prefetch \
         ablation_package_size ablation_benefit_threshold ablation_pm_tier \
         ablation_criterion ablation_shadow_refresh; do
  echo "== $b"
  ./target/release/"$b" | tee "results/$b.txt"
done
