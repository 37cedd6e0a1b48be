#!/usr/bin/env bash
# Planner smoke test: the cgdnn_plan tool must build a plan for both
# evaluation networks, emit parseable JSON that is byte-identical across
# invocations, reject flags it does not know, and pass the end-to-end
# bit-identity validation at a parallel thread count, including at the
# end-to-end benchmark's training batch sizes.
#
# Usage: plan_smoke.sh <cgdnn_plan-binary>
set -euo pipefail

PLAN_BIN=$1
WORK=$(mktemp -d)
trap 'rm -rf "${WORK}"' EXIT

echo "== plan dump: both evaluation networks =="
"${PLAN_BIN}" --model=lenet --batch=4 --threads=2 --explain \
    > "${WORK}/lenet.txt"
grep -q "arena:" "${WORK}/lenet.txt"
grep -q "col slot:" "${WORK}/lenet.txt"
"${PLAN_BIN}" --model=cifar10_quick --batch=4 --threads=2 > "${WORK}/cifar.txt"
grep -q "arena:" "${WORK}/cifar.txt"

echo "== --json emits machine-readable plans =="
"${PLAN_BIN}" --model=lenet --batch=4 --threads=2 --json > "${WORK}/plan.json"
if command -v python3 >/dev/null 2>&1; then
    python3 - "${WORK}/plan.json" <<'PY'
import json, sys
plan = json.load(open(sys.argv[1]))
for key in ("batch", "threads", "intervals"):
    assert key in plan, f"plan JSON missing {key!r}"
assert plan["threads"] == 2
PY
fi

echo "== plans are a pure function of the net =="
"${PLAN_BIN}" --model=lenet --batch=4 --threads=2 --json > "${WORK}/again.json"
cmp "${WORK}/plan.json" "${WORK}/again.json"

echo "== unknown flags exit 2 =="
removed=--no-direct  # a flag this tool used to take
status=0
"${PLAN_BIN}" --model=lenet "${removed}" > /dev/null 2> "${WORK}/unknown.err" \
    || status=$?
if [ "${status}" -ne 2 ]; then
    echo "ERROR: ${removed} exited ${status}, want 2"
    exit 1
fi
grep -q -- "unknown flag ${removed}" "${WORK}/unknown.err"

echo "== end-to-end bit-identity validation =="
for args in "--model=lenet --batch=5" "--model=lenet --batch=64" \
            "--model=cifar10_quick --batch=100"; do
    # shellcheck disable=SC2086  # word-split the model/batch pair
    "${PLAN_BIN}" ${args} --threads=4 --validate > "${WORK}/validate.out"
    grep -q "validation OK" "${WORK}/validate.out"
done

echo "plan_smoke: PASS"
