#!/bin/sh
# Prints the non-test, non-blank, non-comment Go lines of every package
# under internal/ (or the directories named as arguments), one
# "<package> <lines>" row each and a total — the yardstick the ROADMAP's
# plan/execute/settle item is written in. A line counts as a comment
# when it starts with // or lies inside a /* */ block; code with a
# trailing comment counts as code. Informational: CI prints it, nothing
# gates on it.
set -eu
cd "$(dirname "$0")/.."
if [ "$#" -eq 0 ]; then
    set -- internal
fi
find "$@" -name '*.go' ! -name '*_test.go' | sort | xargs awk '
    FNR == 1 { block = 0 }
    {
        line = $0
        sub(/^[ \t]+/, "", line)
        if (block) {
            if (index(line, "*/")) block = 0
            next
        }
        if (line == "" || substr(line, 1, 2) == "//") next
        if (substr(line, 1, 2) == "/*") {
            if (!index(line, "*/")) block = 1
            next
        }
        pkg = FILENAME
        sub(/\/[^\/]*$/, "", pkg)
        n[pkg]++
        total++
    }
    END {
        for (p in n) printf "%-28s %6d\n", p, n[p] | "sort"
        close("sort")
        printf "%-28s %6d\n", "total", total
    }'
