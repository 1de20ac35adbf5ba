#!/usr/bin/env bash
# Fail on a repo-root path in README.md, DESIGN.md or EXPERIMENTS.md that
# does not exist.
#
# A repo-root path starts with crates/, tests/, examples/, benchmark/ or
# ci/ at a word boundary, so crate-relative paths (`serve/tests/audit.rs`)
# and the CI's output files (`BENCH_solver.json`) are never candidates.
# A brace form (`crates/{solver,admm}/tests/golden.rs`) is expanded and
# every expansion must exist; a glob (`examples/*.mdg`) must match at
# least one file. Describe a deleted file as history without its
# repo-root path.
set -euo pipefail
cd "$(dirname "$0")/.."

docs=(README.md DESIGN.md EXPERIMENTS.md)
status=0
while IFS=: read -r file line path; do
  while [[ $path == *[.,] ]]; do path=${path%?}; done # sentence punctuation
  if [[ $path == *'{'* ]]; then
    # The match holds only [A-Za-z0-9_./{},*-], so eval sees no spaces,
    # quotes or expansions other than the braces.
    mapfile -t candidates < <(eval "printf '%s\n' $path")
  else
    candidates=("$path")
  fi
  for p in "${candidates[@]}"; do
    if [[ $p == *'*'* ]]; then
      compgen -G "$p" > /dev/null && continue
    elif [[ -e $p ]]; then
      continue
    fi
    echo "$file:$line: $p does not exist"
    status=1
  done
done < <(grep -noP '(?<![\w/.\-])(crates|tests|examples|benchmark|ci)/[\w./{},*\-]*' "${docs[@]}")

if [ "$status" -eq 0 ]; then
  echo "doc-paths: clean"
fi
exit "$status"
