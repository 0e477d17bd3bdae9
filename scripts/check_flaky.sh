#!/bin/sh
# check_flaky.sh [BUILD_DIR] [N]
#
# Flake hunt over the timing-sensitive suites. Every test carrying the `net`,
# `chaos`, `serve`, or `stagegraph` label runs N times in a row (ctest
# --repeat until-fail:N, N defaults to 20) while the `oracle` label loops in
# the background to keep every core busy, so a test that only passes on an
# idle machine shows up here instead of in CI. Stops at the first failure and
# exits nonzero; exits 0 when every repetition passed.
#
# Usage: scripts/check_flaky.sh [build-dir] [repeats]
#   build-dir  an already built tree (default: <repo>/build)
#   repeats    repetitions per test (default: 20)
#   JOBS       ctest parallelism, capped at nproc (default: nproc)
set -eu

ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
BUILD=${1:-$ROOT/build}
REPEATS=${2:-20}
CPUS=$(nproc 2>/dev/null || echo 2)
JOBS=${JOBS:-$CPUS}
[ "$JOBS" -gt "$CPUS" ] && JOBS=$CPUS

# CPU pressure: the oracle suite in a loop until the repeat run ends. The
# marker file is the loop's stop signal, so no ctest child is left orphaned.
marker=$(mktemp)
(
  while [ -e "$marker" ]; do
    ctest --test-dir "$BUILD" -L oracle -j "$JOBS" > /dev/null 2>&1 || true
  done
) &
pressure=$!
cleanup() {
  rm -f "$marker"
  wait "$pressure" 2> /dev/null || true
}
trap cleanup EXIT

echo "== check_flaky: ctest -L 'net|chaos|serve|stagegraph' x$REPEATS, -j $JOBS, oracle load alongside =="
status=0
ctest --test-dir "$BUILD" -L 'net|chaos|serve|stagegraph' \
      --repeat until-fail:"$REPEATS" --stop-on-failure \
      --output-on-failure -j "$JOBS" || status=$?
if [ "$status" -eq 0 ]; then
  echo "check_flaky: OK (every test passed $REPEATS times under oracle load)"
else
  echo "check_flaky: FAILED (see the output above)"
fi
exit "$status"
