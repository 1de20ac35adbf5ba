#!/usr/bin/env bash
# Keep the top-level documents honest. Fails when:
#
# - README.md, DESIGN.md or EXPERIMENTS.md names a repo-root path that does
#   not exist;
# - a "DESIGN.md §N" or "DESIGN.md section N" anywhere in the tree names no
#   "## N." heading of DESIGN.md, or DESIGN.md itself cites a "§N" it does
#   not have;
# - DESIGN.md has more than 700 lines, or README.md more than 250.
#
# A repo-root path starts with crates/, tests/, examples/, benchmark/ or
# ci/ at a word boundary, so crate-relative paths (`serve/tests/audit.rs`)
# are never candidates.
# A brace form (`crates/{solver,admm}/tests/golden.rs`) is expanded and
# every expansion must exist; a glob (`examples/*.mdg`) must match at
# least one file. Describe a deleted file as history without its
# repo-root path.
#
# A section citation may wrap onto the next line, behind a comment leader
# (`//!`, `///`, `//`, `#`). CHANGES.md and BENCH_*.json are history and
# are not checked; everything else git tracks, or would track, is.
set -euo pipefail
cd "$(dirname "$0")/.."
git rev-parse --is-inside-work-tree > /dev/null

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

sections=$(grep -oP '^## \K\d+(?=\.)' DESIGN.md | tr '\n' ' ' || true)
while IFS= read -r finding; do
  echo "$finding"
  status=1
done < <(
  git ls-files -z --cached --others --exclude-standard \
    | grep -zv -e '^CHANGES\.md$' -e '^BENCH_[^/]*\.json$' \
    | SECTIONS="$sections" xargs -0 perl -0777 -ne '
        BEGIN { %heading = map { $_ => 1 } split " ", $ENV{SECTIONS} }
        next unless -f $ARGV && -T $ARGV;
        my $cite = $ARGV eq "DESIGN.md"
          ? qr/§\s?(\d+)(?:\s?(?:–|-)\s?(\d+))?/
          : qr/DESIGN\.md(?:\x27s)?,?(?:\s|\/\/[\/!]?|#)*(?:§\s?|section\s+)(\d+)(?:\s?(?:–|-)\s?(\d+))?/;
        while (/$cite/g) {
          my $line = 1 + (substr($_, 0, $-[0]) =~ tr/\n//);
          for my $n (grep { defined } $1, $2) {
            print "$ARGV:$line: DESIGN.md has no section $n\n" unless $heading{$n};
          }
        }'
)

check_length() {
  local lines
  lines=$(wc -l < "$1")
  if ((lines > $2)); then
    echo "$1: $lines lines, more than $2"
    status=1
  fi
}
check_length DESIGN.md 700
check_length README.md 250

if [ "$status" -eq 0 ]; then
  echo "doc-paths: clean"
fi
exit "$status"
