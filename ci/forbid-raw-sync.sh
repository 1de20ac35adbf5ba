#!/usr/bin/env bash
# Forbid raw std::sync primitives in the model-checked crates.
#
# Every Mutex/Condvar/RwLock/atomic in paradigm-{serve,admm,solver} must come
# through paradigm_race::sync so `paradigm race` can schedule it: a raw std
# type silently escapes the model checker and its interleavings are never
# explored. Two escapes are allowed:
#   - test modules: everything from the first `#[cfg(test)]` line down is
#     skipped (tests never run under the model scheduler);
#   - lines tagged `raw-sync: allow` for intentional exceptions (e.g. the
#     SIGINT flag, which is touched from a signal handler).
# `std::sync::Arc` and `std::sync::PoisonError` are fine — they are not
# scheduling points. The clippy `disallowed-types` lint (clippy.toml) covers
# the same surface at the type level; this gate additionally catches atomics
# and fully-qualified paths that never name a type in source.
set -euo pipefail
cd "$(dirname "$0")/.."

status=0
for f in crates/serve/src/*.rs crates/admm/src/*.rs crates/solver/src/*.rs; do
  hits=$(awk '
    /#\[cfg\(test\)\]/ { exit }
    /raw-sync: allow/ { next }
    /std::sync::(Mutex|Condvar|RwLock|atomic)/ { printf "%s:%d: %s\n", FILENAME, FNR, $0 }
  ' "$f")
  if [ -n "$hits" ]; then
    echo "$hits"
    status=1
  fi
done

if [ "$status" -ne 0 ]; then
  echo
  echo "raw std::sync primitives found in model-checked crates:"
  echo "use paradigm_race::sync (and the plock/pread/pwrite/pwait helpers)"
  echo "instead, or tag a deliberate exception with 'raw-sync: allow'."
else
  echo "forbid-raw-sync: clean"
fi
exit "$status"
