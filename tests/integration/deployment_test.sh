#!/usr/bin/env bash
# Multi-process deployment smoke test: two dpfsd daemons register into a
# shared metadata directory; the dpfs CLI imports, inspects, moves, and
# exports a file through them. Usage: deployment_test.sh <dpfsd> <dpfs>
set -u

DPFSD="$1"
DPFS="$2"
WORK="$(mktemp -d)"
PIDS=""

fail() {
  echo "FAIL: $1" >&2
  [ -n "$PIDS" ] && kill $PIDS 2>/dev/null
  rm -rf "$WORK"
  exit 1
}

# The lines of `metrics` output under the header that starts with $1, up to
# the next header.
section() {
  awk -v h="$1" 'substr($0, 1, 3) == "== " {
    on = substr($0, 1, length(h)) == h; next } on'
}

"$DPFSD" --root "$WORK/s0" --name node0 --metadb "$WORK/meta" \
         --performance 1 > "$WORK/d0.log" 2>&1 &
PIDS="$!"
"$DPFSD" --root "$WORK/s1" --name node1 --metadb "$WORK/meta" \
         --performance 3 > "$WORK/d1.log" 2>&1 &
PIDS="$PIDS $!"

# Wait for both registrations to become visible through the client path,
# not just the daemons' logs: a slow build (ASan) can log "registered"
# before the metadb lock is released to other processes. `df` only lists a
# node once its row is readable, so this is the real readiness signal.
ready=""
for i in $(seq 1 100); do
  if DF="$("$DPFS" --metadb "$WORK/meta" --c "df" 2>/dev/null)" \
     && echo "$DF" | grep -q node0 && echo "$DF" | grep -q node1; then
    ready=1
    break
  fi
  sleep 0.1
done
if [ -z "$ready" ]; then
  cat "$WORK"/d*.log >&2
  fail "nodes never registered"
fi

# A flag no tool reads (here the retired --metadb-shards and
# --metrics-port) is an error, not silently ignored. A dpfsd that took the
# flag would serve until killed, hence the timeout.
"$DPFS" --metadb "$WORK/meta" --metadb-shards 4 --c "ls /" 2>/dev/null \
  && fail "dpfs accepted the unknown flag --metadb-shards"
timeout 10 "$DPFSD" --root "$WORK/s9" --metrics-port 9100 >/dev/null 2>&1
[ $? -eq 2 ] || fail "dpfsd did not refuse the retired flag --metrics-port"

head -c 300000 /dev/urandom > "$WORK/input.bin"

"$DPFS" --metadb "$WORK/meta" --c "mkdir /data" || fail "mkdir"
"$DPFS" --metadb "$WORK/meta" --c "import $WORK/input.bin /data/blob" \
  || fail "import"
"$DPFS" --metadb "$WORK/meta" --c "stat /data/blob" | grep -q "size:       300000" \
  || fail "stat size"
# `metrics` prints each dpfsd's own registry under its header: two
# processes, two registries, and each server stored part of the import.
METRICS="$("$DPFS" --metadb "$WORK/meta" --c metrics)" || fail "metrics"
for node in node0 node1; do
  echo "$METRICS" | section "== $node " \
    | grep -Eq '^counter subfile_store.bytes_written [1-9]' \
    || fail "metrics shows no bytes written under $node: $METRICS"
done
"$DPFS" --metadb "$WORK/meta" --c "mv /data/blob /data/renamed" || fail "mv"
# Subfiles are named by the file's immutable id, not its path: no file under
# either server root is named after the old or the new path, because the
# rename touched no server.
for root in "$WORK/s0" "$WORK/s1"; do
  [ -z "$(find "$root" -name blob -o -name renamed 2>/dev/null)" ] \
    || fail "a subfile under $root is named after a path"
done
"$DPFS" --metadb "$WORK/meta" --c "export /data/renamed $WORK/output.bin" \
  || fail "export"
cmp -s "$WORK/input.bin" "$WORK/output.bin" || fail "round-trip mismatch"

# Both servers actually stored bricks (round-robin striping), and `df`
# reports a non-zero `used` for each: its last column sums the server's
# own subfile listing.
DF="$("$DPFS" --metadb "$WORK/meta" --c "df")" || fail "df"
for node in node0 node1; do
  echo "$DF" | grep "^$node " | grep -Eq '  [1-9][0-9.]* (B|KB|MB)$' \
    || fail "df shows no used bytes on $node: $DF"
done
[ -n "$(find "$WORK/s0" -type f 2>/dev/null)" ] || fail "node0 stored nothing"
[ -n "$(find "$WORK/s1" -type f 2>/dev/null)" ] || fail "node1 stored nothing"

"$DPFS" --metadb "$WORK/meta" --c "rm /data/renamed" || fail "rm"
# The remove deleted every subfile by id: neither root holds a regular file.
for root in "$WORK/s0" "$WORK/s1"; do
  [ -z "$(find "$root" -type f 2>/dev/null)" ] \
    || fail "rm left subfiles under $root: $(find "$root" -type f)"
done

# On SIGTERM each daemon logs its metrics registry's final snapshot.
kill $PIDS 2>/dev/null
wait $PIDS 2>/dev/null
PIDS=""
for log in d0 d1; do
  grep -q "^counter subfile_store.bytes_written [1-9]" "$WORK/$log.log" \
    || { cat "$WORK/$log.log" >&2; fail "$log.log has no registry snapshot"; }
done
rm -rf "$WORK"
echo "deployment smoke test passed"
exit 0
