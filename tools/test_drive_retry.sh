#!/usr/bin/env bash
# Process-level test of `rtflow_cli drive`: every worker is made to crash
# (via the RTFLOW_TEST_CRASH_AFTER injection hook) after checkpointing two
# items; the driver must retry each crashed shard exactly once, the retry
# must resume the dead worker's checkpoint, and the merged output must be
# byte-identical to a single-process `batch` — the whole crash-recovery
# story, end to end, through real fork/exec/waitpid.
#
# Usage: test_drive_retry.sh /path/to/rtflow_cli
set -u

CLI="${1:?usage: test_drive_retry.sh /path/to/rtflow_cli}"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/rtflow_drive_retry.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

# Reference: the single-process batch over the same corpus.
"$CLI" batch --corpus builtin --out "$WORK/batch.json" \
  || fail "reference batch did not run"

# 1. A clean drive reproduces the batch bytes.
"$CLI" drive --shards 3 --work-dir "$WORK/clean" --corpus builtin \
  --out "$WORK/clean.json" 2>"$WORK/clean.log" \
  || fail "clean drive exited non-zero"
cmp -s "$WORK/clean.json" "$WORK/batch.json" \
  || fail "clean drive output differs from the single-process batch"
grep -q "crashed" "$WORK/clean.log" \
  && fail "clean drive reported a crash"

# 2. Crash-injected drive: every worker dies after its 2nd checkpointed
#    item. The driver must retry each exactly once and still reproduce
#    the batch bytes.
RTFLOW_TEST_CRASH_AFTER="2:$WORK/crash_marker" \
  "$CLI" drive --shards 3 --work-dir "$WORK/crashy" --corpus builtin \
  --out "$WORK/crashy.json" 2>"$WORK/crashy.log" \
  || fail "crash-injected drive exited non-zero (retry did not recover)"
cmp -s "$WORK/crashy.json" "$WORK/batch.json" \
  || fail "crash-injected drive output differs from the batch"

retries=$(grep -c "retrying once" "$WORK/crashy.log")
[ "$retries" -eq 3 ] \
  || fail "expected 3 retries (one per crashed shard), saw $retries"
grep -q "giving up" "$WORK/crashy.log" \
  && fail "a shard was abandoned despite the single-crash injection"

# 3. The retries actually RESUMED: each worker's checkpoint held 2 items
#    when it died, so a resumed shard must not have recomputed them. We
#    can see that from the marker files: one per shard, created exactly
#    once (a recomputing-from-scratch retry would crash again instead).
markers=$(ls "$WORK"/crash_marker.shard* | wc -l)
[ "$markers" -eq 3 ] || fail "expected 3 crash markers, saw $markers"

# 4. A worker that crashes on the retry too makes the driver give up
#    with exit 1. Injecting with a marker path inside a directory that
#    exists but counting resets: simplest is a fresh marker base per
#    attempt — impossible — so instead verify the double-crash path by
#    making the marker UNWRITABLE: the hook then crashes every attempt.
RTFLOW_TEST_CRASH_AFTER="1:$WORK/no_such_dir/marker" \
  "$CLI" drive --shards 2 --work-dir "$WORK/fatal" --corpus builtin \
  --out "$WORK/fatal.json" 2>"$WORK/fatal.log"
[ "$?" -eq 1 ] || fail "double-crashing drive should exit 1"
grep -q "giving up" "$WORK/fatal.log" \
  || fail "double-crashing drive never reported giving up"

# 5. A malformed forwarded flag is the driver's usage error (exit 2),
#    caught before any worker is launched: no crash report, no shard file.
"$CLI" drive --shards 2 --work-dir "$WORK/malformed" --corpus builtin \
  --sg-threads abc --out "$WORK/malformed.json" 2>"$WORK/malformed.log"
[ "$?" -eq 2 ] || fail "drive with --sg-threads abc should exit 2"
grep -q "crashed" "$WORK/malformed.log" \
  && fail "drive launched workers for a malformed flag"
ls "$WORK/malformed"/shard_*.json >/dev/null 2>&1 \
  && fail "drive left shard files for a malformed flag"

echo "PASS"
