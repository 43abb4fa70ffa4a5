#!/bin/sh
# Remote-serving smoke test: two shard_server processes on localhost must
# answer a query BYTE-IDENTICALLY to the local sharded engine over the same
# manifest and to a single engine snapshot of the same CSV directory — the
# exactness contract of serving::RemoteBackend, checked here end-to-end
# across real processes and real sockets (CI runs this via ctest; see
# examples/CMakeLists.txt). The sharded and remote queries share one
# coordinator, so the single engine, which does not use it, is the
# reference that can catch a coordinator fault.
#
#   usage: remote_smoke.sh <build_dir> <csv_dir> <target.csv> <work_dir>
#
# Builds a 2-shard deployment and a single snapshot under <work_dir>,
# starts one server per shard on kernel-assigned ports (discovered through
# --port-file), queries the snapshot, the local manifest and the remote
# pair with --plain, and diffs the rankings.
set -eu

BUILD_DIR=$1
CSV_DIR=$2
TARGET=$3
WORK_DIR=$4

mkdir -p "$WORK_DIR"
BASE="$WORK_DIR/remote_smoke"
rm -f "$BASE".* "$WORK_DIR"/server*.port "$WORK_DIR"/server*.in \
      "$WORK_DIR"/single.out "$WORK_DIR"/local.out "$WORK_DIR"/remote.out

"$BUILD_DIR/d3l_snapshot" shard "$CSV_DIR" "$BASE" --shards=2
"$BUILD_DIR/d3l_snapshot" build "$CSV_DIR" "$BASE.d3l"

# Each server reads stdin until `quit`; keeping the pipe open via a fifo
# lets this script shut them down cleanly (EOF also stops them, so the
# trap's kill is only a safety net).
mkfifo "$WORK_DIR/server0.in" "$WORK_DIR/server1.in"
"$BUILD_DIR/shard_server" "$BASE.manifest" --serve-shards=0 \
    --port-file="$WORK_DIR/server0.port" < "$WORK_DIR/server0.in" &
PID0=$!
"$BUILD_DIR/shard_server" "$BASE.manifest" --serve-shards=1 \
    --port-file="$WORK_DIR/server1.port" < "$WORK_DIR/server1.in" &
PID1=$!
# Open write ends (and keep them open) so the servers do not see EOF.
exec 3> "$WORK_DIR/server0.in" 4> "$WORK_DIR/server1.in"
trap 'kill $PID0 $PID1 2>/dev/null || true' EXIT INT TERM

# The port files appear once each server is bound and serving.
tries=0
while [ ! -s "$WORK_DIR/server0.port" ] || [ ! -s "$WORK_DIR/server1.port" ]; do
  tries=$((tries + 1))
  if [ "$tries" -gt 100 ]; then
    echo "remote_smoke: servers did not come up" >&2
    exit 1
  fi
  sleep 0.1
done
EP0=$(awk '{print $1 ":" $2}' "$WORK_DIR/server0.port")
EP1=$(awk '{print $1 ":" $2}' "$WORK_DIR/server1.port")
echo "servers up at $EP0 and $EP1"

"$BUILD_DIR/d3l_snapshot" query "$BASE.d3l" "$TARGET" 5 \
    --plain > "$WORK_DIR/single.out"
"$BUILD_DIR/d3l_snapshot" query --shards "$BASE.manifest" "$TARGET" 5 \
    --plain > "$WORK_DIR/local.out"
"$BUILD_DIR/d3l_snapshot" query --remote "$EP0,$EP1" "$TARGET" 5 \
    --plain > "$WORK_DIR/remote.out"

# Clean shutdown before the verdict (also exercises the quit path).
echo quit >&3
echo quit >&4
wait $PID0 $PID1 || true
trap - EXIT INT TERM

if ! diff -u "$WORK_DIR/single.out" "$WORK_DIR/local.out"; then
  echo "remote_smoke: FAILED — sharded ranking differs from the single engine" >&2
  exit 1
fi
if ! diff -u "$WORK_DIR/single.out" "$WORK_DIR/remote.out"; then
  echo "remote_smoke: FAILED — remote ranking differs from the single engine" >&2
  exit 1
fi
echo "remote_smoke: OK — remote and single-engine rankings byte-identical to local"
cat "$WORK_DIR/local.out"
