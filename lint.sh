#!/bin/sh
# One-shot local lint: everything the CI quick job gates on, in order,
# plus staticcheck when it is installed (CI pins 2025.1.1; install with
#   go install honnef.co/go/tools/cmd/staticcheck@2025.1.1
# — it needs a Go 1.23+ toolchain).
#
# Usage: ./lint.sh [package patterns]     (defaults to ./...)
set -eu

[ $# -eq 0 ] && set -- ./...

echo "== gofmt"
out=$(gofmt -l .)
if [ -n "$out" ]; then
    echo "files need gofmt:" >&2
    echo "$out" >&2
    exit 1
fi

echo "== go vet"
go vet "$@"

echo "== graphlint"
go run ./cmd/graphlint -counts "$@"

echo "== no Deprecated: markers in non-test Go code"
out=$(grep -rn --include='*.go' --exclude='*_test.go' 'Deprecated:' . || true)
if [ -n "$out" ]; then
    echo "non-test Go code carries a Deprecated: marker; delete the path instead:" >&2
    echo "$out" >&2
    exit 1
fi

if command -v staticcheck >/dev/null 2>&1; then
    echo "== staticcheck ($(staticcheck -version 2>/dev/null || echo unknown))"
    staticcheck "$@"
else
    echo "== staticcheck: not installed, skipped (CI runs it)"
fi

echo "lint OK"
