#!/usr/bin/env bash
# Fails when any '|'-separated alternative of a ctest -R filter matches no
# registered test. Run from the build directory after the test binaries are
# built (gtest_discover_tests registers tests at build time).
#
#   check_test_filter.sh 'Cluster\.|FramePair|TaskSet'
set -euo pipefail
IFS='|' read -ra alternatives <<< "$1"
status=0
for alt in "${alternatives[@]}"; do
  count=$(ctest -N -R "$alt" | sed -n 's/^Total Tests: //p')
  echo "${count:-0} tests match '$alt'"
  if [ "${count:-0}" -eq 0 ]; then
    echo "::error::ctest filter alternative '$alt' matches no test"
    status=1
  fi
done
exit "$status"
