#!/usr/bin/env bash
# Bad-plan sentinel drill: --validate is the planner's safety net, so this
# check proves the net actually catches anything. A deliberately corrupted
# arena layout (two lifetime-overlapping slots forced onto one address via
# --inject-bad-plan) must make validation fail loudly — both the static
# layout check and the planned-vs-plain bit-identity comparison — and a
# clean plan on the same configuration must still pass. If the injected
# corruption ever sails through, the validation is dead code and this
# drill fails the build.
#
# Usage: plan_regression_check.sh <cgdnn_plan-binary>
set -euo pipefail

PLAN_BIN=$1
WORK=$(mktemp -d)
trap 'rm -rf "${WORK}"' EXIT

echo "== clean plan must validate =="
"${PLAN_BIN}" --model=cifar10_quick --batch=6 --threads=4 --validate \
    > "${WORK}/clean.out"
grep -q "validation OK" "${WORK}/clean.out"

echo "== injected slot collision must be caught =="
if "${PLAN_BIN}" --model=cifar10_quick --batch=6 --threads=4 --validate \
        --inject-bad-plan > "${WORK}/bad.out" 2> "${WORK}/bad.err"; then
    echo "ERROR: --validate accepted an injected bad plan"
    cat "${WORK}/bad.out" "${WORK}/bad.err"
    exit 1
fi
# Both layers of defence must have fired: the static arena check and the
# end-to-end bit-identity comparison.
grep -q "arena layout invalid" "${WORK}/bad.err"
grep -q "MISMATCH" "${WORK}/bad.err"
grep -q "VALIDATION FAILED" "${WORK}/bad.err"

echo "plan_regression_check: PASS"
