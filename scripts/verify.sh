#!/usr/bin/env bash
# Tier-1 verify: the exact line CI runs and ROADMAP.md documents.
#
# Offline-friendly by design: the workspace has no external crate
# dependencies (proptest/criterion resolve to the vendored stubs under
# stubs/), so this needs no network after the rust toolchain is
# installed. `--offline` makes that a hard guarantee rather than an
# accident of a warm cache.
#
# Usage: scripts/verify.sh [--quick]
#   --quick  skip the release build (debug test + clippy only)

set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE="${CARGO_NET_OFFLINE:-true}"

quick=0
if [[ "${1:-}" == "--quick" ]]; then
  quick=1
fi

if [[ "$quick" -eq 0 ]]; then
  echo "==> cargo build --release"
  cargo build --release
fi

echo "==> cargo test -q"
cargo test -q

echo "==> cargo clippy --workspace --all-targets -q -- -D warnings"
cargo clippy --workspace --all-targets -q -- -D warnings

echo "==> tier-1 verify OK"
