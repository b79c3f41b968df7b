#!/usr/bin/env bash
# Usage: expect-exit.sh CODE LIMIT_KB COMMAND [ARG...]
#
# Runs COMMAND with its virtual memory capped at LIMIT_KB kilobytes
# (`-` for no cap), copies its stderr to stderr, and fails unless it
# exits with CODE and its stderr holds no Python traceback. COMMAND's
# stdout passes through.
set -u
if [ "$#" -lt 3 ]; then
  echo "usage: $0 CODE LIMIT_KB COMMAND [ARG...]" >&2
  exit 2
fi
expected=$1 limit=$2
shift 2
err=$(mktemp)
trap 'rm -f "$err"' EXIT
(
  if [ "$limit" != - ]; then ulimit -v "$limit" || exit 125; fi
  exec "$@"
) 2> "$err"
code=$?
cat "$err" >&2
if [ "$code" -ne "$expected" ]; then
  echo "$*: expected exit $expected, got $code" >&2
  exit 1
fi
if grep -q Traceback "$err"; then
  echo "$*: traceback on stderr" >&2
  exit 1
fi
