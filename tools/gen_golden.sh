#!/usr/bin/env bash
# Regenerate the specs/ corpus goldens.
#
#   tools/gen_golden.sh [output.json] [sg-threads] [csc-threads] \
#                       [backend.json|-] [netlist-dir] [sweep.json|-] \
#                       [backend_si.json] [netlist-si-dir]
#
# Re-exports the built-in builder specs into specs/ (so the checked-in .g
# files can never drift from the builders), then runs rtflow_cli over the
# whole specs/*.g glob three times:
#
#   1. at the default stop point (the synth stage) -> the canonical batch
#      JSON (default: specs/golden.json) — the legacy golden, unchanged
#      in byte content by the back end;
#   2. at --to verify-netlist -> the back-end golden JSON (default:
#      specs/golden_backend.json) plus one canonical netlist dump per
#      spec (default: specs/netlists/<spec>.nl);
#   3. the same in SI mode -> the SI back-end golden (default:
#      specs/golden_backend_si.json) plus its netlist dumps (default:
#      specs/netlists_si/). SI fifo and fifo_2slot have CSC conflicts no
#      state signal can solve under SI semantics; the batch records those
#      two rejections, and no other failed item is accepted.
#
# A last pass pins the sweep golden (default: specs/golden_sweep.json):
# the full default-grid scenario sweep of the mmu spec — stuck-at fault
# coverage, delay-window stress and environment phases — at --threads 4.
# The sweep report must be byte-identical at every thread count and to
# any sharded+merged run; the sweep-determinism CI job diffs both against
# this golden.
#
# Pass "-" as the 4th argument to skip both back-end passes and "-" as
# the 6th to skip the sweep golden.
# The 2nd/3rd arguments set --sg-threads / --csc-threads (both default
# 1); every output must be byte-identical at every value — CI's
# determinism matrix runs this at csc-threads 1, 2 and 8 and compares
# every cell against the checked-in goldens. Any behaviour
# change in the flow must come with regenerated goldens in the same
# commit.
#
# Outputs are written atomically (temp file/dir + rename): if rtflow_cli
# is missing, crashes, or rejects a spec, the script fails loudly and
# never leaves a truncated or half-written golden behind.
set -euo pipefail
LC_ALL=C
export LC_ALL

cd "$(dirname "$0")/.."
BUILD_DIR=${BUILD_DIR:-build}
CLI="$BUILD_DIR/rtflow_cli"
OUT=${1:-specs/golden.json}
SG_THREADS=${2:-1}
CSC_THREADS=${3:-1}
BACKEND_OUT=${4:-specs/golden_backend.json}
NETLIST_DIR=${5:-specs/netlists}
SWEEP_OUT=${6:-specs/golden_sweep.json}
BACKEND_SI_OUT=${7:-specs/golden_backend_si.json}
NETLIST_SI_DIR=${8:-specs/netlists_si}

# The only items the SI back-end pass may fail, as "name kind" lines.
SI_REJECTIONS='specs/fifo.g spec
specs/fifo_2slot.g spec'

if [ ! -x "$CLI" ]; then
  echo "gen_golden.sh: ERROR: $CLI not built or not executable" >&2
  echo "gen_golden.sh: build first (cmake --build $BUILD_DIR) or set BUILD_DIR" >&2
  exit 1
fi

if ! "$CLI" export-specs specs; then
  echo "gen_golden.sh: ERROR: spec export failed; specs/ may be stale" >&2
  exit 1
fi

set -- specs/*.g
NSPECS=$#
args=""
for f in "$@"; do
  args="$args --spec $f"
done

# Same directory as the output so the final mv is an atomic rename.
TMP=$(mktemp "$OUT.tmp.XXXXXX")
trap 'rm -f "$TMP"' EXIT

# shellcheck disable=SC2086  # word-splitting of $args is intentional
if ! "$CLI" batch $args --mode rt --threads 4 --sg-threads "$SG_THREADS" \
    --csc-threads "$CSC_THREADS" --out "$TMP"; then
  echo "gen_golden.sh: ERROR: rtflow_cli failed (a spec failed to parse or" >&2
  echo "gen_golden.sh: the flow rejected it); not writing $OUT" >&2
  exit 1
fi

mv "$TMP" "$OUT"
trap - EXIT
echo "gen_golden.sh: wrote $OUT ($NSPECS specs, sg-threads=$SG_THREADS," \
  "csc-threads=$CSC_THREADS)"

# gen_backend MODE OUT DIR EXPECTED: the glob at --to verify-netlist in
# MODE, written to OUT plus one netlist dump per ok item in DIR. The batch
# exits 1 when an item fails; that is accepted only when the failed items,
# as "name kind" lines, are exactly EXPECTED (non-empty). Anything else —
# another failed item, a crash, an unreadable input — fails the script.
gen_backend() {
  local mode=$1 out=$2 dir=$3 expected=$4 status=0 failed
  BTMP=$(mktemp "$out.tmp.XXXXXX")
  NTMP=$(mktemp -d "$dir.tmp.XXXXXX")
  trap 'rm -rf "$BTMP" "$NTMP"' EXIT
  # shellcheck disable=SC2086
  "$CLI" batch $args --mode "$mode" --threads 4 \
      --sg-threads "$SG_THREADS" --csc-threads "$CSC_THREADS" \
      --to verify-netlist --netlist-dir "$NTMP" --out "$BTMP" || status=$?
  failed=$(sed -n 's/^ *{"name": "\([^"]*\)", "ok": false, "diagnostic": {"kind": "\([^"]*\)".*/\1 \2/p' "$BTMP")
  if [ "$status" -ne 0 ] && { [ "$status" -ne 1 ] || [ -z "$expected" ] ||
      [ "$failed" != "$expected" ]; }; then
    echo "gen_golden.sh: ERROR: rtflow_cli --mode $mode failed at" \
      "--to verify-netlist (exit $status; failed items:" \
      "${failed//$'\n'/, })" >&2
    echo "gen_golden.sh: not writing $out / $dir" >&2
    exit 1
  fi
  mv "$BTMP" "$out"
  rm -rf "$dir"
  mv "$NTMP" "$dir"
  trap - EXIT
  echo "gen_golden.sh: wrote $out and $dir/ ($NSPECS specs, --mode $mode)"
}

gen_sweep_golden() {
  if [ "$SWEEP_OUT" = "-" ]; then
    return 0
  fi
  STMP=$(mktemp "$SWEEP_OUT.tmp.XXXXXX")
  trap 'rm -f "$STMP"' EXIT
  if ! "$CLI" sweep --spec mmu --mode rt --threads 4 --out "$STMP"; then
    echo "gen_golden.sh: ERROR: rtflow_cli sweep failed;" >&2
    echo "gen_golden.sh: not writing $SWEEP_OUT" >&2
    exit 1
  fi
  mv "$STMP" "$SWEEP_OUT"
  trap - EXIT
  echo "gen_golden.sh: wrote $SWEEP_OUT (mmu, default sweep grid)"
}

if [ "$BACKEND_OUT" != "-" ]; then
  gen_backend rt "$BACKEND_OUT" "$NETLIST_DIR" ""
  gen_backend si "$BACKEND_SI_OUT" "$NETLIST_SI_DIR" "$SI_REJECTIONS"
fi

gen_sweep_golden
