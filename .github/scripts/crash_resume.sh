#!/usr/bin/env bash
# Crash-resume proof: kill -9 a checkpointed campaign at randomized
# points, resume it, and byte-diff the exports against an uninterrupted
# run of the same flags. The kill schedule is seeded and every chosen
# delay is logged, so a failing run replays exactly:
#
#   CRASH_SEED=<seed> .github/scripts/crash_resume.sh
#
# The precise crash windows (after every journal append, right after a
# snapshot rename) are swept deterministically in-process by
# test/test_checkpoint.ml; this script is the end-to-end complement on
# the real binary with a real SIGKILL.
set -euo pipefail

AFEX=${AFEX:-_build/default/bin/afex_cli.exe}
SEED=${CRASH_SEED:-$$}
RANDOM=$SEED
echo "crash_resume: kill schedule seed = $SEED (replay with CRASH_SEED=$SEED)"

FLAGS=(--target mysql -n 1200 --seed 7 --batch 16 --latency fixed:2 --inflight 8)

work=$(mktemp -d)
trap '[ -n "${pid:-}" ] && kill -9 "$pid" 2> /dev/null; rm -rf "$work"' EXIT

run() { "$AFEX" explore "${FLAGS[@]}" "$@"; }

# Background launcher for the runs that get killed: exec in a subshell so
# $! is the afex process itself. Backgrounding the [run] function would
# put a bash wrapper between them — kill -9 $! would kill the wrapper and
# leave afex running, still appending to the journal while the resume
# reads it.
run_bg() { ( exec "$AFEX" explore "${FLAGS[@]}" "$@" ) > /dev/null 2>&1 & }

echo "crash_resume: uninterrupted baseline"
run --export-json "$work/base.json" --export-csv "$work/base.csv" > /dev/null

# A full checkpointed run, both to confirm checkpointing itself does not
# perturb the exports and to measure the wall time between the first
# snapshot and completion — process startup varies wildly across runners,
# so kill delays are anchored to the first snapshot, not to launch.
start_ms=$(date +%s%3N)
run_bg --checkpoint "$work/ck0" \
  --export-json "$work/ck0.json" --export-csv "$work/ck0.csv"
ck0_pid=$!
while [ ! -e "$work/ck0/snapshot.afex" ] && kill -0 "$ck0_pid" 2> /dev/null; do
  sleep 0.01
done
snap_ms=$(( $(date +%s%3N) - start_ms ))
wait "$ck0_pid"
total_ms=$(( $(date +%s%3N) - start_ms ))
window_ms=$(( total_ms - snap_ms ))
[ "$window_ms" -ge 1 ] || window_ms=1
cmp "$work/base.json" "$work/ck0.json"
cmp "$work/base.csv" "$work/ck0.csv"
echo "crash_resume: checkpointing is export-neutral (full run: ${total_ms} ms, first snapshot at ${snap_ms} ms)"

interrupted=0
attempt=0
while [ "$interrupted" -lt 3 ]; do
  attempt=$((attempt + 1))
  if [ "$attempt" -gt 40 ]; then
    echo "crash_resume: could not land 3 kills inside the campaign window" >&2
    exit 1
  fi
  # Randomized kill point: wait for the first snapshot to exist, then
  # 0%..95% of the measured post-snapshot window. Anchoring to the
  # snapshot keeps the schedule meaningful however slow startup is.
  delay_ms=$(( window_ms * (RANDOM % 96) / 100 ))
  dir="$work/kill$attempt"
  run_bg --checkpoint "$dir"
  pid=$!
  while [ ! -e "$dir/snapshot.afex" ] && kill -0 "$pid" 2> /dev/null; do
    sleep 0.01
  done
  sleep "$(awk "BEGIN { printf \"%.3f\", $delay_ms / 1000 }")"
  kill -9 "$pid" 2> /dev/null || true
  status=0
  wait "$pid" || status=$?
  if [ "$status" -ne 137 ]; then
    echo "crash_resume: attempt $attempt: ${delay_ms} ms was past completion, retrying"
    continue
  fi
  if [ ! -f "$dir/snapshot.afex" ]; then
    echo "crash_resume: attempt $attempt: ${delay_ms} ms was before the first snapshot, retrying"
    continue
  fi
  interrupted=$((interrupted + 1))
  wal_lines=$(wc -l < "$dir/wal.log")
  echo "crash_resume: kill #$interrupted at ${delay_ms} ms (attempt $attempt): $wal_lines journal lines to replay"
  run --resume "$dir" --export-json "$dir/res.json" --export-csv "$dir/res.csv" | grep '^checkpoint:'
  cmp "$work/base.json" "$dir/res.json"
  cmp "$work/base.csv" "$dir/res.csv"
  echo "crash_resume: kill #$interrupted resumed to byte-identical exports"
done

# Boundary case: the completed ck0 campaign's final snapshot covers its
# whole journal. Resuming it must replay every outcome, execute nothing,
# and still reproduce the exports byte-for-byte.
echo "crash_resume: boundary resume (finished campaign, whole journal replayed)"
run --resume "$work/ck0" --export-json "$work/bres.json" --export-csv "$work/bres.csv" > "$work/bres.out"
grep '^checkpoint:' "$work/bres.out"
grep -q '^pool: .* 0 executed,' "$work/bres.out"
cmp "$work/base.json" "$work/bres.json"
cmp "$work/base.csv" "$work/bres.csv"

echo "crash_resume: OK — 3 randomized kills + boundary resume, all exports byte-identical"
