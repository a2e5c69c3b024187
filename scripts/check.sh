#!/usr/bin/env sh
# Local wrapper for the tier-1 verification: configure, build, run every
# test suite, check the docs' markdown links, and smoke-run the repository
# benchmark. Mirrors what CI runs on each push.
#
#   scripts/check.sh            # Release build into ./build
#   BUILD_DIR=out scripts/check.sh
#   CMAKE_ARGS="-DBAYESLSH_WERROR=ON" scripts/check.sh
set -eu

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build}"

# Docs are load-bearing (FORMATS.md specifies the on-disk contracts):
# fail fast on dangling links/anchors before spending time on the build.
if command -v python3 >/dev/null 2>&1; then
  python3 scripts/check_markdown_links.py
else
  echo "warning: python3 not found, skipping markdown link check" >&2
fi

# shellcheck disable=SC2086  # CMAKE_ARGS is intentionally word-split.
cmake -B "$BUILD_DIR" -S . ${CMAKE_ARGS:-}
cmake --build "$BUILD_DIR" -j
(cd "$BUILD_DIR" && ctest --output-on-failure -j)

# perfbench/ builds the library in its own tree (CI's perfbench-smoke job
# is its only build) and calls the config structs and PersistentIndex
# directly, so a tiny run of every workload catches a break there.
if command -v python3 >/dev/null 2>&1; then
  python3 perfbench/run.py --smoke
else
  echo "warning: python3 not found, skipping the perfbench smoke run" >&2
fi
