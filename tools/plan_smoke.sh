#!/usr/bin/env bash
# Planner smoke test: the cgdnn_plan tool must build a plan for both
# evaluation networks, emit parseable JSON, hit its on-disk cache on the
# second identical invocation, invalidate on a thread-count change, and
# pass the end-to-end bit-identity validation at a parallel thread count.
#
# Usage: plan_smoke.sh <cgdnn_plan-binary>
set -euo pipefail

PLAN_BIN=$1
WORK=$(mktemp -d)
trap 'rm -rf "${WORK}"' EXIT

echo "== plan dump: both evaluation networks =="
"${PLAN_BIN}" --model=lenet --batch=4 --threads=2 --no-measure \
    --cache-dir="${WORK}/cache" --explain > "${WORK}/lenet.txt"
grep -q "conv strategies" "${WORK}/lenet.txt"
grep -q "arena:" "${WORK}/lenet.txt"
"${PLAN_BIN}" --model=cifar10_quick --batch=4 --threads=2 --no-measure \
    --cache-dir="${WORK}/cache" > "${WORK}/cifar.txt"
grep -q "arena:" "${WORK}/cifar.txt"

echo "== --json emits machine-readable plans =="
"${PLAN_BIN}" --model=lenet --batch=4 --threads=2 --no-measure \
    --cache-dir="${WORK}/cache" --json > "${WORK}/plan.json"
if command -v python3 >/dev/null 2>&1; then
    python3 - "${WORK}/plan.json" <<'EOF'
import json, sys
plan = json.load(open(sys.argv[1]))
for key in ("net_signature", "batch", "threads", "git_sha",
            "conv_decisions", "intervals"):
    assert key in plan, f"plan JSON missing {key!r}"
assert plan["threads"] == 2
EOF
fi

echo "== warm cache hit, cold on thread-count change =="
"${PLAN_BIN}" --model=lenet --batch=4 --threads=2 \
    --cache-dir="${WORK}/cache" > /dev/null 2> "${WORK}/first.err"
"${PLAN_BIN}" --model=lenet --batch=4 --threads=2 \
    --cache-dir="${WORK}/cache" > /dev/null 2> "${WORK}/second.err"
grep -q "cache hit" "${WORK}/second.err"
"${PLAN_BIN}" --model=lenet --batch=4 --threads=3 \
    --cache-dir="${WORK}/cache" > /dev/null 2> "${WORK}/third.err"
grep -q "cold" "${WORK}/third.err"

echo "== end-to-end bit-identity validation =="
"${PLAN_BIN}" --model=lenet --batch=5 --threads=4 --no-measure --no-cache \
    --validate > "${WORK}/validate.out"
grep -q "validation OK" "${WORK}/validate.out"

echo "plan_smoke: PASS"
