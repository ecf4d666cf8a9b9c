#!/usr/bin/env bash
# End-to-end crash test for the sweep service: run a matrix locally (a
# temporary in-process service), run the
# same matrix through wwtserved with a kill -9 in the middle, restart the
# daemon, and require the sweep to complete with every cell present exactly
# once and fingerprints identical to the local (uninterrupted) run. A final
# resubmission must be served entirely from the result cache, and the data
# dir must hold only wal/: results and resume points are WAL records.
#
# Usage: scripts/sweep_service_e2e.sh [workdir]
#
# Set WWTSERVED_FSPLAN to fault rates (e.g. "enospc=0.03,fsync=0.03") to run
# the daemon over the seeded fault-injecting filesystem: the same invariants
# must hold while fsyncs fail and the disk reports full — the client rides
# out 507/500 refusals exactly like an outage. The script supplies the seed
# (WWTSERVED_FSSEED, default 7), advancing it each time a startup draws a
# fault fatal enough to kill the daemon — an operator restarting until the
# disk behaves.
set -euo pipefail

cd "$(dirname "$0")/.."
work="${1:-$(mktemp -d)}"
addr="127.0.0.1:${WWTSERVED_PORT:-8723}"
echo "== workdir $work, daemon on $addr"

go build -o "$work/wwtserved" ./cmd/wwtserved
go build -o "$work/wwtsweep" ./cmd/wwtsweep

# A matrix of cells big enough (~0.05-0.5s each, serial daemon; a few
# seconds end to end) that the kill below reliably lands mid-sweep.
cat > "$work/matrix.json" <<'EOF'
{"runs": [
  {"app": "gauss", "machine": "mp", "procs": 4, "size": 160},
  {"app": "gauss", "machine": "sm", "procs": 4, "size": 160},
  {"app": "em3d",  "machine": "mp", "procs": 4, "size": 150, "iters": 10},
  {"app": "em3d",  "machine": "sm", "procs": 4, "size": 150, "iters": 10},
  {"app": "lcp",   "machine": "mp", "procs": 4, "size": 512, "iters": 4},
  {"app": "lcp",   "machine": "sm", "procs": 4, "size": 512, "iters": 4},
  {"app": "gauss", "machine": "mp", "procs": 8, "size": 160},
  {"app": "gauss", "machine": "sm", "procs": 8, "size": 160},
  {"app": "em3d",  "machine": "mp", "procs": 8, "size": 150, "iters": 10},
  {"app": "em3d",  "machine": "sm", "procs": 8, "size": 150, "iters": 10},
  {"app": "em3d",  "machine": "mp", "procs": 8, "size": 200, "iters": 12},
  {"app": "em3d",  "machine": "sm", "procs": 8, "size": 200, "iters": 12},
  {"app": "gauss", "machine": "mp", "procs": 8, "size": 192},
  {"app": "gauss", "machine": "sm", "procs": 8, "size": 192},
  {"app": "lcp",   "machine": "mp", "procs": 8, "size": 1024, "iters": 4},
  {"app": "lcp",   "machine": "sm", "procs": 8, "size": 1024, "iters": 4}
]}
EOF

echo "== local baseline sweep"
"$work/wwtsweep" -matrix "$work/matrix.json" -jobs 2 -quiet -out "$work/local.json"

start_daemon() { # $1 = log file
  : >"$work/$1"
  for attempt in $(seq 0 19); do
    args=()
    [ -n "${WWTSERVED_FSPLAN:-}" ] && \
      args+=(-fault-fsplan "seed=$((${WWTSERVED_FSSEED:-7} + attempt)),$WWTSERVED_FSPLAN")
    "$work/wwtserved" -addr "$addr" -dir "$work/data" -jobs 1 \
      "${args[@]}" >>"$work/$1" 2>&1 &
    daemon=$!
    for _ in $(seq 100); do
      curl -sf "http://$addr/healthz" >/dev/null 2>&1 && return
      # A fault plan can kill startup itself (e.g. ENOSPC while writing a
      # fresh dir's first wal/log). That exit is correct — refusing to serve
      # without a durable log — so restart with the next seed, like an
      # operator.
      kill -0 "$daemon" 2>/dev/null || break
      sleep 0.1
    done
    kill -9 "$daemon" 2>/dev/null || true
    wait "$daemon" 2>/dev/null || true
  done
  echo "daemon never became healthy" >&2
  cat "$work/$1" >&2
  exit 1
}

echo "== daemon up; client sweep with a kill -9 mid-run"
start_daemon daemon1.log
"$work/wwtsweep" -server "http://$addr" -matrix "$work/matrix.json" \
  -quiet -out "$work/server1.json" &
client=$!
# Kill once some cells are done and some still wait, so the kill lands
# mid-sweep however fast the host is.
for _ in $(seq 600); do
  python3 -c "
import json, sys
st = json.loads(sys.argv[1])
sys.exit(0 if st['done'] >= 1 and st['pending'] >= 1 else 1)
" "$(curl -sf "http://$addr/stats" || echo '{"done": 0, "pending": 0}')" && break
  sleep 0.02
done
echo "== SIGKILL daemon (pid $daemon)"
kill -9 "$daemon"
wait "$daemon" 2>/dev/null || true
sleep 0.5
echo "== daemon restart; recovery from the WAL"
start_daemon daemon2.log
wait "$client"  # client rides out the outage and finishes against daemon #2

# The kill must have landed mid-sweep: the restarted daemon recovered a
# nonempty pending set from the WAL. (If this trips, the matrix finished
# before the kill — grow it or kill sooner.)
grep "recovered" "$work/daemon2.log"
grep -Eq "recovered [1-9][0-9]* pending" "$work/daemon2.log" || {
  echo "kill -9 landed after the sweep finished; not a mid-crash test" >&2
  exit 1
}

echo "== resubmit: must be served entirely from the result cache"
"$work/wwtsweep" -server "http://$addr" -matrix "$work/matrix.json" \
  -quiet -out "$work/server2.json"

stats=$(curl -sf "http://$addr/stats")
echo "$stats"
if [ -n "${WWTSERVED_FSPLAN:-}" ]; then
  # The plan must actually have injected faults, or the pass proved nothing.
  python3 -c "
import json, sys
st = json.loads(sys.argv[1])
assert st.get('fs_faults', 0) > 0, f'fault plan set but no faults injected: {st}'
print(f\"fault plan injected {st['fs_faults']} faults \"
      f\"(storage_errs={st.get('storage_errs', 0)})\")
" "$stats"
fi
kill "$daemon"; wait "$daemon" 2>/dev/null || true

# The WAL is the daemon's only store: results and resume points are records.
if [ "$(ls -A "$work/data")" != "wal" ]; then
  echo "daemon data dir holds $(ls -A "$work/data" | tr '\n' ' ')beside wal/" >&2
  exit 1
fi

python3 - "$work" <<'EOF'
import json, sys
work = sys.argv[1]
def load(name):
    runs = json.load(open(f"{work}/{name}"))["runs"]
    def ident(r):
        s = r["spec"]
        return (s["app"], s["machine"], s["procs"], s.get("size", 0), s.get("iters", 0))
    return {ident(r): r for r in runs}

local, s1, s2 = load("local.json"), load("server1.json"), load("server2.json")
n = len(json.load(open(f"{work}/matrix.json"))["runs"])
assert len(local) == len(s1) == len(s2) == n, \
    f"lost or duplicated cells: local={len(local)} s1={len(s1)} s2={len(s2)} want {n}"
for k, r in local.items():
    assert not r.get("error"), (k, r["error"])
    assert s1[k]["fingerprint"] == r["fingerprint"], \
        f"{k}: crash-interrupted sweep fingerprint {s1[k]['fingerprint']} != local {r['fingerprint']}"
    assert s2[k]["fingerprint"] == r["fingerprint"], \
        f"{k}: cached fingerprint diverged"
    assert s2[k].get("cached"), f"{k}: resubmitted cell was recomputed, not served from cache"
print(f"OK: {n} cells exactly once, fingerprints bit-identical across "
      f"local / killed+recovered / fully-cached sweeps")
EOF
