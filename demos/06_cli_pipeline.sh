#!/usr/bin/env bash
# The whole pipeline through the command line: generate a synthetic cohort,
# validate it, pick a model order, fit, predict, and evaluate. Every command
# drops a manifest.json recording arguments and input hashes; `hetmix rerun`
# replays a manifest and reproduces the outputs byte for byte.
set -euo pipefail

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

hetmix demo-model --variant small --out-dir "$out/generator"
hetmix simulate --model "$out/generator/model.json" --n 200 --seed 7 \
    --out-dir "$out/cohort"

data=(--data "$out/cohort/cohort.csv" --schema "$out/cohort/schema.json")

hetmix validate "${data[@]}" --out-dir "$out/validate"
cat "$out/validate/validation_report.json"

hetmix select "${data[@]}" --orders 1-4 --restarts 2 --max-iterations 60 \
    --out-dir "$out/select"
cat "$out/select/bic_table.csv"

printf 'marker_a,marker_b,dose\n-4.2,1.8,\n0.1,8.3,2.5\n' > "$out/evidence.csv"
hetmix infer --model "$out/select/model.json" --evidence "$out/evidence.csv" \
    --mode model_missing --out-dir "$out/infer"
head -c 400 "$out/infer/predictions.jsonl"; echo

hetmix evaluate "${data[@]}" --orders 3 --mode model_missing --restarts 1 \
    --max-iterations 40 --out-dir "$out/evaluate"
cat "$out/evaluate/performance.csv"

# Reproducibility: replay the fit and the predictions from their manifests
# and compare bytes.
hetmix rerun --manifest "$out/select/manifest.json" --out-dir "$out/select-again"
diff -r "$out/select" "$out/select-again" && echo "select rerun is byte-identical"
hetmix rerun --manifest "$out/infer/manifest.json" --out-dir "$out/infer-again"
diff -r "$out/infer" "$out/infer-again" && echo "infer rerun is byte-identical"
