#!/usr/bin/env bash
# End-to-end smoke test for the serve daemon (docs/SERVING.md), mirroring
# what an operator actually does:
#
#   leg 1  stdin mode: repeated request answers from the cache, a restarted
#          daemon warms the cache from its crash-safe spill file, and
#          `ssnkit estimate` on the same scenario prints the same V_max (to
#          its 5 digits) and the same trust verdict as the daemon
#   leg 2  socket mode: start the daemon, fire closed-loop load from four
#          connections plus one deliberately slow client, SIGTERM the
#          daemon mid-load, and assert the clean-drain contract:
#            - the daemon exits 0
#            - every line it printed is valid JSON (checked with jq)
#            - stats report accepted == responded (no accepted request lost)
#   leg 3  process isolation: run a stream under --isolate process on the
#          default pool (--threads 2, so 4 workers), kill -9 a worker
#          mid-load, and assert the containment contract: daemon exits 0,
#          every request answered exactly once (typed SSN-E069 at worst),
#          the pool started with 4 workers, the dead worker noticed
#          (SSN-W075) and respawned
#
# The SIGTERM may land after the load already finished on a fast machine —
# the drain is then trivial but still exercised end to end, so the
# assertions hold either way.
#
# Usage: scripts/serve_smoke.sh [path/to/ssnkit]
set -euo pipefail
cd "$(dirname "$0")/.."

SSNKIT=${1:-build/tools/ssnkit}
if [ ! -x "$SSNKIT" ]; then
  echo "serve_smoke: $SSNKIT not built" >&2
  exit 2
fi

WORK=$(mktemp -d)
SERVE_PID=""
cleanup() {
  [ -n "$SERVE_PID" ] && kill -KILL "$SERVE_PID" 2> /dev/null
  rm -rf "$WORK"
}
trap cleanup EXIT

echo "=== leg 1: stdin mode, cache + warm restart ==="
REQ='{"id":"r1","cmd":"estimate","n":8,"tr":1e-10}'
# One worker thread: with more, r2 can run beside r1 and miss the cache.
printf '%s\n%s\n' "$REQ" "${REQ/r1/r2}" \
  | "$SSNKIT" serve --threads 1 --cache-file "$WORK/spill" > "$WORK/leg1a.log"
grep -q '"id":"r1","ok":true' "$WORK/leg1a.log"
grep -q '"id":"r2","ok":true,"cached":true' "$WORK/leg1a.log"
[ -f "$WORK/spill" ] || { echo "serve_smoke: no cache spill written" >&2; exit 1; }
printf '%s\n' "${REQ/r1/r3}" \
  | "$SSNKIT" serve --cache-file "$WORK/spill" > "$WORK/leg1b.log"
grep -q '"id":"r3","ok":true,"cached":true' "$WORK/leg1b.log" \
  || { echo "serve_smoke: restarted daemon did not warm from spill" >&2
       cat "$WORK/leg1b.log" >&2; exit 1; }
echo "cache hit + warm restart OK"
# The CLI and the daemon make the same estimate calls: same V_max at the
# CLI's 5 significant digits (io::si_format), same verdict.
"$SSNKIT" estimate --n 8 --tr 0.1n > "$WORK/leg1c.txt"
python3 - "$WORK/leg1a.log" "$WORK/leg1c.txt" <<'EOF'
import json, sys

def si_format(value, digits=5):
    for scale, suffix in ((1e12, "T"), (1e9, "G"), (1e6, "M"), (1e3, "k"),
                          (1.0, ""), (1e-3, "m"), (1e-6, "u"), (1e-9, "n"),
                          (1e-12, "p"), (1e-15, "f")):
        if abs(value) >= scale * 0.9995:
            return "%.*g%s" % (digits, value / scale, suffix)
    return "%.*g" % (digits, value)

served = next(json.loads(line)["result"] for line in open(sys.argv[1])
              if '"id":"r1"' in line)
cli = open(sys.argv[2]).read().splitlines()
row = next(l for l in cli if l.startswith("| max SSN"))
cli_vmax = row.split("|")[2].strip()
cli_verdict = next(l for l in cli if l.startswith("trust: "))[7:].split()[0]
want_vmax = si_format(served["v_max"]) + "V"
want_verdict = served["trust"]["verdict"]
if cli_vmax != want_vmax or cli_verdict != want_verdict:
    sys.exit("serve_smoke: CLI says V_max %s, %s; serve says %s, %s"
             % (cli_vmax, cli_verdict, want_vmax, want_verdict))
print("CLI and serve agree: V_max %s, %s" % (cli_vmax, cli_verdict))
EOF

echo "=== leg 2: socket mode, SIGTERM mid-load ==="
SOCK=$WORK/ssnkit.sock
"$SSNKIT" serve --socket "$SOCK" --queue 128 --drain 2 \
    > "$WORK/serve.log" 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 50); do
  [ -S "$SOCK" ] && break
  sleep 0.1
done
[ -S "$SOCK" ] || { echo "serve_smoke: socket never appeared" >&2
                    cat "$WORK/serve.log" >&2; exit 1; }

# Closed-loop load over the socket: four connections, one request
# outstanding on each. Every request carries its own rise time except every
# fifth, which repeats the one before it (a cache hit when that one is
# done). Once the drain starts, in-flight connections are legitimately shed
# or closed; the client then stops quietly.
python3 - "$SOCK" > "$WORK/load.log" 2>&1 <<'EOF' &
import socket, sys, threading
CONNS, MAX_REQUESTS = 4, 100000
lock = threading.Lock()
state = {"next": 0, "ok": 0, "cached": 0, "other": 0}

def body(i):
    k = i - 1 if i % 5 == 4 else i
    return '"cmd":"estimate","n":8,"tr":%.9e' % (1e-10 * (1 + 1e-5 * k))

def client():
    try:
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        s.connect(sys.argv[1])
        replies = s.makefile("rb")
        while True:
            with lock:
                i = state["next"]
                state["next"] += 1
            if i >= MAX_REQUESTS:
                return
            tag = b'"id":"c%d"' % i
            s.sendall(b"{%s,%s}\n" % (tag, body(i).encode()))
            line = b""
            while tag not in line:
                line = replies.readline()
                if not line:
                    return  # the drain closed the connection
            with lock:
                if b'"ok":true' not in line:
                    state["other"] += 1
                elif b'"cached":true' in line:
                    state["cached"] += 1
                else:
                    state["ok"] += 1
    except OSError:
        return  # connection refused or reset by the drain

threads = [threading.Thread(target=client) for _ in range(CONNS)]
for t in threads:
    t.start()
for t in threads:
    t.join()
print("load: %(ok)d computed, %(cached)d cached, %(other)d shed or failed" % state)
EOF
LOAD_PID=$!

# Deliberately slow requests so the SIGTERM reliably has in-flight work to
# drain (and, past the 2 s drain deadline, to cancel with SSN-E066): 64
# pipelined 34-point BSIM-lite sweeps of ~1 us edges with a 1 nF pad,
# 150-230 ms each on a 4-vCPU VM, over 10x the 1 s before the SIGTERM in
# total. Every edge differs so none is answered from the cache.
python3 - "$SOCK" > "$WORK/slow.log" 2>&1 <<'EOF' &
import socket, sys
K = 64
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(sys.argv[1])
s.sendall(b"".join(
    b'{"id":"slow%d","cmd":"sweep-n","max_n":64,"tr":%.6e,"golden":"bsim","c":1e-9}\n'
    % (i, 1e-6 * (1 - 1e-3 * i)) for i in range(K)))
buf = b""
while buf.count(b"\n") < K:
    chunk = s.recv(65536)
    if not chunk:
        break
    buf += chunk
sys.stdout.write(b"".join(l + b"\n" for l in buf.split(b"\n")[:-1]).decode())
EOF
SLOW_PID=$!

sleep 1
kill -TERM "$SERVE_PID" 2> /dev/null
set +e
wait "$SERVE_PID"
RC=$?
SERVE_PID=""
wait "$LOAD_PID" 2> /dev/null
wait "$SLOW_PID" 2> /dev/null
set -e

if [ "$RC" != 0 ]; then
  echo "serve_smoke: daemon exited $RC on SIGTERM (want clean drain, 0)" >&2
  cat "$WORK/serve.log" >&2
  exit 1
fi
echo "daemon drained and exited 0"

# Every daemon output line must be a complete JSON object.
while IFS= read -r line; do
  [ -z "$line" ] && continue
  echo "$line" | jq -e . > /dev/null \
    || { echo "serve_smoke: non-JSON daemon output: $line" >&2; exit 1; }
done < "$WORK/serve.log"

# The slow client must have received valid JSON response lines (ok, shed,
# or the drain's SSN-E066 — but never silence or garbage).
if [ -s "$WORK/slow.log" ]; then
  while IFS= read -r line; do
    echo "$line" | jq -e '.ok or .code == "SSN-E064" or .code == "SSN-E066"' \
        > /dev/null \
      || { echo "serve_smoke: slow client got garbage: $line" >&2; exit 1; }
  done < "$WORK/slow.log"
  echo "slow client: $(wc -l < "$WORK/slow.log") responses," \
       "$(grep -c SSN-E066 "$WORK/slow.log" || true) cancelled by the drain," \
       "$(grep -c SSN-E064 "$WORK/slow.log" || true) shed"
else
  echo "serve_smoke: slow client got no response" >&2
  exit 1
fi

# The drain contract: every accepted request was answered.
STATS=$(grep '"event":"stats"' "$WORK/serve.log" | tail -1)
[ -n "$STATS" ] || { echo "serve_smoke: no stats line" >&2; exit 1; }
ACCEPTED=$(echo "$STATS" | jq -r .accepted)
RESPONDED=$(echo "$STATS" | jq -r .responded)
echo "stats: accepted=$ACCEPTED responded=$RESPONDED"
tail -1 "$WORK/load.log"
if [ "$ACCEPTED" != "$RESPONDED" ]; then
  echo "serve_smoke: lost accepted requests ($ACCEPTED accepted, $RESPONDED responded)" >&2
  exit 1
fi
if [ "$ACCEPTED" -lt 1 ]; then
  echo "serve_smoke: load client never got a request admitted" >&2
  cat "$WORK/load.log" >&2
  exit 1
fi

echo "=== leg 3: process isolation, kill -9 a worker mid-load ==="
# Release builds have no fault hooks, so the only chaos here is real: a raw
# kill -9 of a live worker. The supervisor must notice (SSN-W075), respawn
# the slot, degrade at most the in-flight request (typed SSN-E069), and
# answer every request exactly once.
# Every body is unique (tr varies per request) so nothing is served from
# the cache and the dead worker's slot is certain to be dispatched to.
python3 - > "$WORK/proc_stream.jsonl" <<'EOF'
for i in range(1000):
    print('{"id":"p%04d","cmd":"estimate","n":%d,"tr":%.6e}'
          % (i, 2 + i % 8, 1e-10 * (1 + 1e-4 * i)))
EOF
mkfifo "$WORK/proc_feed"
# No --workers: the default pool is twice the resolved --threads.
"$SSNKIT" serve --queue 1024 --isolate process --threads 2 \
    < "$WORK/proc_feed" > "$WORK/proc.log" &
SERVE_PID=$!
# Throttle the feed so the kill lands while requests are still arriving.
awk '{print; fflush(); if (NR % 100 == 0) system("sleep 0.05")}' \
    "$WORK/proc_stream.jsonl" > "$WORK/proc_feed" &
FEED_PID=$!
sleep 0.3
VICTIM=$(grep -m1 '"event":"worker-spawn"' "$WORK/proc.log" \
         | grep -o '"pid":[0-9]*' | grep -o '[0-9]*' || true)
if [ -n "$VICTIM" ]; then
  kill -9 "$VICTIM" 2> /dev/null || true
fi
set +e
wait "$FEED_PID"
wait "$SERVE_PID"
RC=$?
set -e
SERVE_PID=""
if [ "$RC" != 0 ]; then
  echo "serve_smoke: supervised daemon exited $RC (want 0: a worker death" >&2
  echo "must never take the daemon down)" >&2
  tail "$WORK/proc.log" >&2
  exit 1
fi
while IFS= read -r line; do
  [ -z "$line" ] && continue
  echo "$line" | jq -e . > /dev/null \
    || { echo "serve_smoke: non-JSON daemon output: $line" >&2; exit 1; }
done < "$WORK/proc.log"
ANSWERED=$(grep -c '"id":"p' "$WORK/proc.log")
if [ "$ANSWERED" != 1000 ]; then
  echo "serve_smoke: $ANSWERED/1000 requests answered in process mode" >&2
  exit 1
fi
SPAWNS=$(grep -c '"event":"worker-spawn"' "$WORK/proc.log" || true)
DEATHS=$(grep -c '"code":"SSN-W075"' "$WORK/proc.log" || true)
if [ "$SPAWNS" -lt 2 ]; then
  echo "serve_smoke: worker pool never spawned (spawns=$SPAWNS)" >&2
  exit 1
fi
# The initial pool is every spawn before the first death.
INITIAL=$(awk '/"code":"SSN-W075"/ { exit } /"event":"worker-spawn"/ { n++ }
               END { print n + 0 }' "$WORK/proc.log")
if [ "$INITIAL" != 4 ]; then
  echo "serve_smoke: --threads 2 started $INITIAL workers (want 4)" >&2
  exit 1
fi
if [ -n "$VICTIM" ] && [ "$DEATHS" -lt 1 ]; then
  echo "serve_smoke: killed worker $VICTIM but no SSN-W075 was emitted" >&2
  exit 1
fi
# Any failure must be typed with a supervision/admission code — never
# silence, never an untyped error.
BADCODES=$(jq -r 'select(has("id") and (.ok != true)) | .code' "$WORK/proc.log" \
           | grep -v -E '^SSN-E06[4689]$' || true)
if [ -n "$BADCODES" ]; then
  echo "serve_smoke: unexpected failure codes in process mode: $BADCODES" >&2
  exit 1
fi
PSTATS=$(grep '"event":"stats"' "$WORK/proc.log" | tail -1)
PACCEPTED=$(echo "$PSTATS" | jq -r .accepted)
PRESPONDED=$(echo "$PSTATS" | jq -r .responded)
if [ "$PACCEPTED" != "$PRESPONDED" ]; then
  echo "serve_smoke: process mode lost accepted requests" \
       "($PACCEPTED accepted, $PRESPONDED responded)" >&2
  exit 1
fi
echo "process isolation OK (pool=$INITIAL spawns=$SPAWNS deaths=$DEATHS," \
     "$PACCEPTED/$PACCEPTED answered)"

echo "serve_smoke: PASS (clean drain, $ACCEPTED/$ACCEPTED accepted requests answered)"
