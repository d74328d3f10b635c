#!/usr/bin/env bash
# Prints the two line counts every simplicity PR reports: tracked Go
# lines outside bench/ and testdata/, non-test and test.
set -euo pipefail
cd "$(dirname "$0")/.."
files() { git ls-files '*.go' | grep -v -e '^bench/' -e '/testdata/'; }
echo "non-test Go lines: $(files | grep -v '_test\.go$' | xargs cat | wc -l)"
echo "test Go lines:     $(files | grep '_test\.go$' | xargs cat | wc -l)"
