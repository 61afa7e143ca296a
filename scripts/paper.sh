#!/bin/sh
# Paper reproduction oracle: builds cmd/figures from the working tree,
# re-runs the paper-scale matrix (n=2000, seed 7, the exact run with
# liveness pruning) and checks it against the reference committed under
# results/paper/: the printed output (figures, remarks, summary, tables
# II-IV) and the five figure CSVs byte for byte, and every one of the
# 150 campaign logs by its SHA-256 (the 66 MB logs repository itself is
# not committed). It names the first difference and prints its wall
# time, the matrix's end-to-end cost.
#
#   sh scripts/paper.sh
#
# A change that moves a paper number fails here; re-commit the
# reference (stdout.txt, fig*.csv and logs.sha256 from the command
# below) together with the reason. Scratch output goes under $TMPDIR.
set -eu
cd "$(dirname "$0")/.."
ref=results/paper
tmp=$(mktemp -d "${TMPDIR:-/tmp}/paper.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/figures" ./cmd/figures
start=$(date +%s)
"$tmp/figures" -all -n 2000 -seed 7 -prune -remarks -summary -table 2 -table 3 -table 4 \
    -quiet -logs "$tmp/logs" -csv "$tmp/csv" > "$tmp/stdout.txt"
wall=$(( $(date +%s) - start ))
fail() {
    echo "paper: $*" >&2
    exit 1
}
cmp "$ref/stdout.txt" "$tmp/stdout.txt" || fail "the printed output differs from $ref/stdout.txt"
for f in "$ref"/fig*.csv; do
    cmp "$f" "$tmp/csv/$(basename "$f")" || fail "$(basename "$f") differs from $f"
done
n=$(ls "$tmp/csv" | wc -l)
[ "$n" -eq "$(ls "$ref"/fig*.csv | wc -l)" ] || fail "the run wrote $n CSVs"
n=$(ls "$tmp/logs" | wc -l)
[ "$n" -eq "$(wc -l < "$ref/logs.sha256")" ] || fail "the run wrote $n log files, the reference has $(wc -l < "$ref/logs.sha256")"
if ! (cd "$tmp/logs" && sha256sum --quiet -c) < "$ref/logs.sha256" > "$tmp/sha.out" 2>&1; then
    fail "log $(grep -m1 FAILED "$tmp/sha.out" | sed 's/: FAILED.*//') differs from $ref/logs.sha256"
fi
echo "paper: output, CSVs and $n logs identical to $ref (wall ${wall}s)"
