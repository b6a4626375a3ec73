#!/usr/bin/env bash
# True multi-process conformance for the standalone metadata service: one
# dpfs-metad owns the metadata database, two dpfsd daemons register through
# it with --metad (no process but the metad ever opens the database), and
# two independent dpfs CLI processes mutate and observe one shared
# namespace over the wire. A second concurrent CLI would deadlock on the
# database flock in the embedded model — this test is the proof that the
# service removes that limit.
# Usage: metad_conformance_test.sh <dpfs-metad> <dpfsd> <dpfs>
set -u

METAD="$1"
DPFSD="$2"
DPFS="$3"
WORK="$(mktemp -d)"
PIDS=""

fail() {
  echo "FAIL: $1" >&2
  cat "$WORK"/*.log >&2 2>/dev/null
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

# No --port: the metad binds a free port itself and prints it on its
# (line-buffered) "serving" line, so parallel tests cannot collide on one.
"$METAD" --metadb "$WORK/meta" > "$WORK/metad.log" 2>&1 &
PIDS="$!"

# The metad must be serving before anything can register through it.
PORT=""
for i in $(seq 1 100); do
  PORT="$(sed -n 's/^dpfs-metad: serving .* on 127\.0\.0\.1:\([0-9][0-9]*\)$/\1/p' \
          "$WORK/metad.log" 2>/dev/null)"
  [ -n "$PORT" ] && break
  sleep 0.1
done
[ -n "$PORT" ] || fail "metad never came up"

# The metad holds the database flock; daemons and CLIs go over the wire.
"$DPFSD" --root "$WORK/s0" --name node0 --metad "127.0.0.1:$PORT" \
         --performance 1 > "$WORK/d0.log" 2>&1 &
PIDS="$PIDS $!"
"$DPFSD" --root "$WORK/s1" --name node1 --metad "127.0.0.1:$PORT" \
         --performance 3 > "$WORK/d1.log" 2>&1 &
PIDS="$PIDS $!"

ready=""
for i in $(seq 1 100); do
  if DF="$("$DPFS" --metad "127.0.0.1:$PORT" --c "df" 2>/dev/null)" \
     && echo "$DF" | grep -q node0 && echo "$DF" | grep -q node1; then
    ready=1
    break
  fi
  sleep 0.1
done
[ -n "$ready" ] || fail "nodes never registered through the metad"

head -c 300000 /dev/urandom > "$WORK/input.bin"

# Client 1 builds the namespace; client 2 (a different process with its own
# connection and cache) must see every bit of it.
"$DPFS" --metad "127.0.0.1:$PORT" --c "mkdir /data" || fail "mkdir"
"$DPFS" --metad "127.0.0.1:$PORT" --c "import $WORK/input.bin /data/blob" \
  || fail "import"
"$DPFS" --metad "127.0.0.1:$PORT" --c "stat /data/blob" \
  | grep -q "size:       300000" || fail "stat size from second client"
"$DPFS" --metad "127.0.0.1:$PORT" --c "ls /data" | grep -q blob \
  || fail "ls from second client"

# Two CLIs alive at the same time — impossible with the embedded flock.
( "$DPFS" --metad "127.0.0.1:$PORT" --c "mkdir /c1" ) &
C1=$!
( "$DPFS" --metad "127.0.0.1:$PORT" --c "mkdir /c2" ) &
C2=$!
wait $C1 || fail "concurrent client 1"
wait $C2 || fail "concurrent client 2"
LS="$("$DPFS" --metad "127.0.0.1:$PORT" --c "ls /")" || fail "ls after race"
echo "$LS" | grep -q c1 || fail "concurrent mkdir /c1 lost"
echo "$LS" | grep -q c2 || fail "concurrent mkdir /c2 lost"

# Mutations by one client visible to the next: rename, export, remove.
"$DPFS" --metad "127.0.0.1:$PORT" --c "mv /data/blob /data/renamed" \
  || fail "mv"
"$DPFS" --metad "127.0.0.1:$PORT" --c "export /data/renamed $WORK/output.bin" \
  || fail "export"
cmp -s "$WORK/input.bin" "$WORK/output.bin" || fail "round-trip mismatch"
[ -n "$(find "$WORK/s0" -type f 2>/dev/null)" ] || fail "node0 stored nothing"
[ -n "$(find "$WORK/s1" -type f 2>/dev/null)" ] || fail "node1 stored nothing"
"$DPFS" --metad "127.0.0.1:$PORT" --c "rm /data/renamed" || fail "rm"
"$DPFS" --metad "127.0.0.1:$PORT" --c "ls /data" | grep -q renamed \
  && fail "removed file still listed"

# The sql escape hatch needs the database and must say so over the wire.
SQL_ERR="$("$DPFS" --metad "127.0.0.1:$PORT" --c "sql SELECT 1" 2>&1)"
echo "$SQL_ERR" | grep -qi "embedded" || fail "sql should ask for embedded"

# `metrics` reads the metad's registry first, then each dpfsd's.
METRICS="$("$DPFS" --metad "127.0.0.1:$PORT" --c metrics)" || fail "metrics"
echo "$METRICS" | section "== metad 127.0.0.1:$PORT" \
  | grep -q '^counter metad.requests.meta_' \
  || fail "metrics shows no metad snapshot: $METRICS"
for node in node0 node1; do
  echo "$METRICS" | grep -q "^== $node 127.0.0.1:" \
    || fail "metrics has no header for $node: $METRICS"
done

# A retired flag is refused; a metad that took it would serve until killed.
timeout 10 "$METAD" --metadb "$WORK/meta9" --metrics-port 9100 \
  >/dev/null 2>&1
[ $? -eq 2 ] || fail "dpfs-metad did not refuse the retired flag --metrics-port"

kill $PIDS 2>/dev/null
wait $PIDS 2>/dev/null
rm -rf "$WORK"
echo "metad conformance test passed"
exit 0
