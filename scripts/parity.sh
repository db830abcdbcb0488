#!/bin/sh
# Output parity against a parent revision: build coarsebench from
# PARENT (extracted with `git archive`, so no worktree and no network:
# go.mod has no dependencies) and from the working tree, then compare
#   1. `coarsebench -quick` stdout, byte for byte;
#   2. every file the dump-writing families write with -trace-dir:
#      telemetry dumps and Perfetto traces, by name.
# Each differing, missing or extra file is named. Exits 0 when
# everything is identical, 1 on any difference and 2 when a build or a
# run fails (its stderr is printed).
#
# Usage: PARENT=<rev> sh scripts/parity.sh   (or `make parity PARENT=<rev>`)
# Scratch goes under $TMPDIR and is removed on exit.
set -eu

GO=${GO:-go}
: "${PARENT:?set PARENT to the revision to compare against, e.g. PARENT=HEAD~1}"

rev=$(git rev-parse --verify "$PARENT^{commit}")
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

fail() {
	echo "parity: $1 failed" >&2
	[ -s "$WORK/err" ] && cat "$WORK/err" >&2
	exit 2
}

# The archive goes to a file first so a failing `git archive` is caught.
git archive -o "$WORK/src.tar" "$rev" 2>"$WORK/err" || fail "git archive $PARENT"
mkdir -p "$WORK/src"
tar -x -C "$WORK/src" -f "$WORK/src.tar" 2>"$WORK/err" || fail "extracting $PARENT"
(cd "$WORK/src" && $GO build -o "$WORK/parent" ./cmd/coarsebench) 2>"$WORK/err" || fail "building $PARENT"
$GO build -o "$WORK/head" ./cmd/coarsebench 2>"$WORK/err" || fail "building the working tree"

# run <which> <out> <args...>: stdout to <out>; stderr (wall-clock
# timings, so never compared) is shown only when the run fails.
run() {
	which=$1
	out=$2
	shift 2
	"$WORK/$which" "$@" > "$out" 2>"$WORK/err" || fail "$which coarsebench $*"
}

status=0
run parent "$WORK/parent.txt" -quick
run head "$WORK/head.txt" -quick
if cmp -s "$WORK/parent.txt" "$WORK/head.txt"; then
	echo "parity: coarsebench -quick stdout identical ($(wc -l < "$WORK/head.txt") lines)"
else
	echo "parity: coarsebench -quick stdout DIFFERS"
	diff "$WORK/parent.txt" "$WORK/head.txt" | head -n 40 || true
	status=1
fi

# The families that write telemetry dumps and traces with -trace-dir.
for fam in fig16 resilience serve; do
	dp="$WORK/dumps-parent/$fam"
	dh="$WORK/dumps-head/$fam"
	mkdir -p "$dp" "$dh"
	run parent /dev/null -quick -only "$fam" -trace-dir "$dp"
	run head /dev/null -quick -only "$fam" -trace-dir "$dh"
	# File names carry spaces (machine names), so read them line by line.
	{ ls "$dp"; ls "$dh"; } | sort -u > "$WORK/names"
	same=0
	differ=0
	while IFS= read -r name; do
		if [ ! -e "$dh/$name" ]; then
			echo "parity: $fam: $name only at $PARENT"
		elif [ ! -e "$dp/$name" ]; then
			echo "parity: $fam: $name only in the working tree"
		elif cmp -s "$dp/$name" "$dh/$name"; then
			same=$((same + 1))
			continue
		else
			echo "parity: $fam: $name differs"
		fi
		differ=$((differ + 1))
	done < "$WORK/names"
	echo "parity: $fam: $same files identical, $differ differ"
	[ "$differ" -eq 0 ] || status=1
done
exit $status
