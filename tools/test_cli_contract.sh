#!/usr/bin/env bash
# Contract test of the `rtflow_cli` front end, driven by its own --help:
#
#   1. every command the global --help lists answers `<cmd> --help` with
#      exit 0, and takes exactly the flags its --help lists: each listed
#      flag (with a well-formed value) parses, every other flag of the
#      global list exits 2, and each listed value flag given last with no
#      value exits 2;
#   2. malformed numbers exit 2 (trailing junk, values past the field's
#      range) instead of running;
#   3. `run` prints the bytes `batch` prints for the same spec and flags,
#      and a second `run --cache DIR` prints the bytes of the first;
#   4. the usage block at the top of docs/CLI.md is the global --help.
#
# Usage: test_cli_contract.sh /path/to/rtflow_cli
set -u

CLI="${1:?usage: test_cli_contract.sh /path/to/rtflow_cli}"
case "$CLI" in /*) ;; *) CLI="$PWD/$CLI" ;; esac
cd "$(dirname "$0")/.." || exit 1
WORK="$(mktemp -d "${TMPDIR:-/tmp}/rtflow_cli_contract.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

failures=0
fail() { echo "FAIL: $*" >&2; failures=$((failures + 1)); }

# expect CODE ARGS...: the CLI exits CODE (a bound on the run time keeps a
# regression that runs instead of rejecting from hanging the test).
expect() {
  local want=$1 rc=0
  shift
  timeout 60 "$CLI" "$@" > "$WORK/out" 2> "$WORK/err" || rc=$?
  [ "$rc" -eq "$want" ] || fail "rtflow_cli $* exited $rc, want $want"
}

# A well-formed value for each --help placeholder.
sample() {
  case "$1" in
    N) echo 1 ;;
    I/N) echo 0/1 ;;
    'si|rt') echo rt ;;
    STAGE) echo synth ;;
    HOST:PORT) echo 127.0.0.1:1 ;;
    builtin) echo builtin ;;
    *) echo x ;;
  esac
}

# The "FLAG [VALUE]" heads of the option rows of a --help text on stdin.
option_heads() {
  sed -n '/^options/,/^$/p' | grep '^  --' | cut -c3-22
}

"$CLI" --help > "$WORK/global" || fail "--help exited non-zero"
commands=$(sed -n '/^commands:/,/^$/p' "$WORK/global" | awk 'NR > 1 && NF { print $1 }')
[ -n "$commands" ] || fail "global --help lists no commands"
option_heads < "$WORK/global" > "$WORK/all_flags"

# 1. Per-command flag sets.
for cmd in $commands; do
  expect 0 "$cmd" --help
  option_heads < "$WORK/out" > "$WORK/listed"
  while read -r flag value; do
    [ "$flag" = --help ] && continue
    args=("$flag")
    [ -n "$value" ] && args+=("$(sample "$value")")
    if grep -q -- "^$flag\( \|$\)" "$WORK/listed"; then
      expect 0 "$cmd" "${args[@]}" --help
      [ -n "$value" ] && expect 2 "$cmd" "$flag"
    else
      expect 2 "$cmd" "${args[@]}"
      grep -q "unknown option '$flag'" "$WORK/err" ||
        fail "$cmd $flag: no unknown-option message"
    fi
  done < "$WORK/all_flags"
  expect 2 "$cmd" --no-such-flag
done

# 2. Malformed numbers are usage errors, not runs.
expect 2 batch --spec specs/celement.g --threads 2abc
expect 2 batch --spec specs/celement.g --max-states 40junk
expect 2 list --pipeline-stages 3x
expect 2 drive --shards 3x --work-dir "$WORK/drive" --spec specs/celement.g
expect 2 sweep --spec specs/celement.g --no-faults --env-variants 0 \
  --delay-variants 2147483648
expect 2 sweep --spec specs/celement.g --no-faults --env-variants 0 \
  --delay-variants 4294967297
expect 2 submit --socket "$WORK/no.sock" --spec specs/celement.g \
  --retries 99999999999

# 3. `run` is the one-item `batch`, cached or not.
expect 0 run --spec specs/vme.g --to verify-netlist
mv "$WORK/out" "$WORK/run.json"
expect 0 batch --spec specs/vme.g --to verify-netlist
cmp -s "$WORK/run.json" "$WORK/out" || fail "run and batch bytes differ"
for pass in cold warm; do
  expect 0 run --spec specs/vme.g --to verify-netlist --cache "$WORK/store"
  cmp -s "$WORK/run.json" "$WORK/out" || fail "$pass run --cache bytes differ"
done
grep -q "^cache: 1 hits, 0 misses, 0 stored" "$WORK/err" ||
  fail "second run --cache was not a hit"

# 4. docs/CLI.md's first code block is the global --help.
sed '1s|^usage: .* <command>|usage: rtflow_cli <command>|' "$WORK/global" \
  > "$WORK/global.txt"
awk '/^```/ { if (open) exit; open = 1; next } open' docs/CLI.md \
  > "$WORK/doc.txt"
diff -u "$WORK/doc.txt" "$WORK/global.txt" >&2 ||
  fail "docs/CLI.md usage block differs from rtflow_cli --help"

[ "$failures" -eq 0 ] || { echo "FAIL: $failures check(s)" >&2; exit 1; }
echo "PASS"
