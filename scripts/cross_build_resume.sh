#!/usr/bin/env bash
# Resume checkpoints written by an older build with this checkout's build:
#
#   scripts/cross_build_resume.sh REF
#
# Builds wwtsim at the merge base of REF and HEAD (in a temporary git
# worktree) and at this checkout, lets the base build write checkpoints for
# three specs — em3d-sm at P=128, gauss-sm under coherence faults and
# lcp-mp under network faults — and resumes each one's last checkpoint with
# this checkout's build, which must print `replay verified`. A change to the
# encoded state that moves no fingerprint shows here and nowhere else.
#
# When internal/runner/testdata/golden.json differs between the merge base
# and HEAD, the change moves fingerprints on purpose, old checkpoints are
# expected to diverge, and the script says so and exits 0. Needs git and
# the Go toolchain.
set -euo pipefail

ref=${1:?usage: scripts/cross_build_resume.sh REF}
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
base=$(git merge-base "$ref" HEAD)
if ! git diff --quiet "$base" HEAD -- internal/runner/testdata/golden.json; then
	echo "golden.json differs from $base: fingerprints move on purpose, cross-build resume skipped"
	exit 0
fi

tmp=$(mktemp -d)
cleanup() {
	git worktree remove --force "$tmp/base" 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT
git worktree add --detach "$tmp/base" "$base" >/dev/null
(cd "$tmp/base" && go build -o "$tmp/wwtsim-base" ./cmd/wwtsim)
go build -o "$tmp/wwtsim-head" ./cmd/wwtsim

# name | flags | checkpoint interval (about a third of the run)
specs=(
	"em3d-sm-p128|-app em3d -machine sm -procs 128 -size 8 -iters 4|150000"
	"gauss-sm-smfaults|-app gauss -machine sm -procs 32 -size 128 -smfaults|1500000"
	"lcp-mp-faults|-app lcp -machine mp -procs 8 -size 256 -faults -droprate 0.02|5000000"
)
for s in "${specs[@]}"; do
	IFS='|' read -r name flags every <<<"$s"
	dir=$tmp/ck-$name
	mkdir "$dir"
	# shellcheck disable=SC2086 # flags are words
	"$tmp/wwtsim-base" $flags -checkpoint-every "$every" -checkpoint-dir "$dir" >"$tmp/$name-base.txt"
	ck=$dir/$(cd "$dir" && ls ckpt-*.wws | sort -t- -k2 -n | tail -n 1)
	if ! "$tmp/wwtsim-head" -resume "$ck" >"$tmp/$name-head.txt" ||
		! grep -q 'replay verified' "$tmp/$name-head.txt"; then
		echo "$name: the base build's $(basename "$ck") did not resume replay verified:"
		tail -n 20 "$tmp/$name-head.txt"
		exit 1
	fi
	want=$(grep '^stats fingerprint:' "$tmp/$name-base.txt")
	got=$(grep '^stats fingerprint:' "$tmp/$name-head.txt")
	if [ "$want" != "$got" ]; then
		echo "$name: resumed run ends with '$got', the base build's with '$want'"
		exit 1
	fi
	echo "$name: $(basename "$ck") from $(git rev-parse --short "$base") replay verified, ${got#stats }"
done
