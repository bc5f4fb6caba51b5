#!/usr/bin/env bash
# Run a filtered test command (`cargo test … <filter>`) and fail unless it
# ran at least one test: cargo exits 0 when a filter matches nothing, so a
# renamed or moved test would otherwise drop out of a CI step silently.
#   .github/require-tests.sh cargo test -q -p retrasyn-core --lib <filter>
set -euo pipefail
out="$("$@" 2>&1)" || { printf '%s\n' "$out"; exit 1; }
printf '%s\n' "$out"
if ! grep -Eq 'test result: ok\. [1-9][0-9]* passed' <<< "$out"; then
  echo "::error::no test matched: $*" >&2
  exit 1
fi
