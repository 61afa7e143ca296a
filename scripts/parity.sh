#!/bin/sh
# Byte-identity check for refactors: builds cmd/figures at <ref> and at
# the working tree, runs both with the same flags into two logs
# repositories, and diffs the repositories together with everything the
# runs print (figures, -remarks, -table 2, -summary). Any difference is a
# behaviour change: campaign outputs are seed-deterministic.
#
#   scripts/parity.sh HEAD~1 -all -n 50 -seed 7 -remarks -table 2
#
# The <ref> side is built from a `git archive` export in a temporary
# directory (under $TMPDIR), so the working tree and the repository's
# worktree list are left alone. It is the byte-identity counterpart of
# the interleaved perf gate ROADMAP 7(d) asks for.
set -eu
cd "$(dirname "$0")/.."
if [ "$#" -lt 1 ]; then
    echo "usage: scripts/parity.sh <ref> [figures flags...]" >&2
    exit 2
fi
ref=$1
shift
tmp=$(mktemp -d "${TMPDIR:-/tmp}/parity.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/src" "$tmp/ref" "$tmp/tree"
git archive "$ref" | tar -x -C "$tmp/src"
(cd "$tmp/src" && go build -o "$tmp/figures.ref" ./cmd/figures)
go build -o "$tmp/figures.tree" ./cmd/figures
for side in ref tree; do
    echo "parity: running $side: figures $*" >&2
    "$tmp/figures.$side" "$@" -quiet -logs "$tmp/$side/logs" > "$tmp/$side/stdout"
done
if ! diff -r "$tmp/ref" "$tmp/tree"; then
    echo "parity: the working tree differs from $ref" >&2
    exit 1
fi
echo "parity: logs and output identical to $ref ($(find "$tmp/tree/logs" -type f | wc -l) log files, $(wc -l < "$tmp/tree/stdout") output lines)"
