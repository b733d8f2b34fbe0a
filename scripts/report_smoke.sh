#!/usr/bin/env bash
# Deadline smoke for gippr-report: a -deadline stops the report only
# between sections, so a section that starts runs to completion and prints
# in full. The script runs
#
#   gippr-report -scale smoke -only streams,lattice,diff -workers 1
#
# once without a deadline, then with -deadline 100ms, 200ms, ... 1000ms,
# and requires of every deadline run:
#   - exit code 0 (it finished in time) or 3 (it stopped at a section
#     boundary), never 1;
#   - stdout, with the per-section "took" lines stripped, a prefix of the
#     stripped stdout of the run without a deadline: whole sections, in
#     order, byte for byte.
# No timing can fail a correct build, since wherever a deadline falls the
# report stops at a section boundary.
#
# Usage: scripts/report_smoke.sh   (run from the repo root; `make report-smoke`)
set -euo pipefail

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

echo "== build"
go build -o "$workdir/gippr-report" ./cmd/gippr-report

# report NAME [FLAGS...] runs the report, writes its stdout with the took
# lines stripped to $workdir/NAME.out, and sets $code to its exit code.
report() {
    local name=$1
    shift
    code=0
    timeout 300 "$workdir/gippr-report" -scale smoke -only streams,lattice,diff -workers 1 "$@" \
        >"$workdir/$name.raw" 2>"$workdir/$name.err" || code=$?
    grep -v '^\[.* took .*\]$' "$workdir/$name.raw" >"$workdir/$name.out" || true
}

echo "== no deadline"
report full
if [[ "$code" -ne 0 ]]; then
    echo "gippr-report without a deadline exited $code, want 0:" >&2
    cat "$workdir/full.err" >&2
    exit 1
fi
echo "$(wc -l <"$workdir/full.out") lines"

fail=0
for ms in 100 200 300 400 500 600 700 800 900 1000; do
    report "d$ms" -deadline "${ms}ms"
    out="$workdir/d$ms.out"
    size=$(wc -c <"$out")
    verdict=ok
    if [[ "$code" -ne 0 && "$code" -ne 3 ]]; then
        verdict="exit $code, want 0 or 3"
    elif ! head -c "$size" "$workdir/full.out" | cmp -s - "$out"; then
        verdict="stdout is not a prefix of the run without a deadline"
    fi
    echo "== -deadline ${ms}ms: exit $code, $(wc -l <"$out") lines: $verdict"
    if [[ "$verdict" != ok ]]; then
        fail=1
        cat "$workdir/d$ms.err" >&2
        diff "$workdir/full.out" "$out" | head -20 >&2 || true
    fi
done
if [[ "$fail" -ne 0 ]]; then
    echo "report smoke FAILED" >&2
    exit 1
fi
echo "report smoke passed"
