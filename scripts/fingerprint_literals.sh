#!/usr/bin/env bash
# Checks the wwtsim runs whose stats fingerprints CI pins as literals:
# em3d-mp and gauss-sm, Gauss-MP's pivot-row stream over the lop-sided and
# binary trees, em3d-mp and alcp-mp over a lossy network, and Gauss's
# reductions as hardware-combining episodes on both machines. The same
# literals must hold on every host ISA.
#
# Usage: scripts/fingerprint_literals.sh [wwtsim-binary]
# (default: build ./cmd/wwtsim into ./wwtsim from the repository root)
set -euo pipefail
cd "$(dirname "$0")/.."
wwtsim=${1:-./wwtsim}
if [ $# -eq 0 ]; then
	go build -o wwtsim ./cmd/wwtsim
fi

check() { # check FINGERPRINT wwtsim-args...
	local want=$1 out
	shift
	out=$("$wwtsim" "$@")
	echo "$out"
	grep -qx "stats fingerprint: $want" <<<"$out" ||
		{ echo "FAIL: wwtsim $* did not print fingerprint $want" >&2; exit 1; }
}

check 0xb8758e7193374716 -app em3d -machine mp -procs 8 -size 100 -iters 10
check 0x68acce928045cc53 -app gauss -machine sm -procs 4 -size 64
check 0x73bba6a130be361c -app gauss -machine mp -procs 8 -size 64 -shape lopsided
check 0x38dadb960640d743 -app gauss -machine mp -procs 8 -size 64 -shape binary
check 0xf78e5e5a48e2502b -app em3d -machine mp -procs 8 -size 100 -iters 10 -faults -droprate 0.02 -duprate 0.01 -jitter 0.05
check 0x92da012a0db9b8d0 -app alcp -machine mp -procs 8 -size 128 -iters 3 -faults -droprate 0.02 -duprate 0.01 -jitter 0.05
check 0x939dc8858b3584af -app gauss -machine mp -procs 8 -size 64 -hw-combining
check 0x965b23932aaadd42 -app gauss -machine sm -procs 8 -size 64 -hw-combining
echo "all fingerprint literals match"
