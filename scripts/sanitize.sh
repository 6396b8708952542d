#!/bin/bash
# Sanitizer harness for the threaded transport stack.
#
#   scripts/sanitize.sh asan   # AddressSanitizer (works on plain nightly)
#   scripts/sanitize.sh tsan   # ThreadSanitizer (also needs rust-src)
#
# Runs the threaded and `unsafe` test surface under the sanitizer with
# `cargo +nightly test --offline`: the crypto unit tests (the SHA-NI
# kernel's `unsafe` vector loads and stores), the transport unit tests
# (TCP links + admin socket), the cross-backend `tcp_codec` suite, and
# the kill/restart `tcp_cluster` integration test. The explicit `--target`
# keeps RUSTFLAGS off host-only build steps; the build lands in its own
# target directory so it never invalidates the regular one.
#
# Both modes are *gated*, not required: when the toolchain pieces are
# missing the script prints a SKIP notice and exits 0, so the verify
# pipeline stays green on stable-only machines.
#
# TSan specifically needs an instrumented std (`rustup component add
# rust-src --toolchain nightly`, then -Zbuild-std): against the
# prebuilt, uninstrumented std it reports false positives on every
# Mutex/Condvar because the futex calls inside std are invisible to the
# runtime. Without rust-src the mode skips rather than crying wolf.
set -e
MODE=${1:-asan}
R="$(cd "$(dirname "$0")/.." && pwd)"
case "$MODE" in
  asan|tsan) ;;
  *) echo "usage: sanitize.sh [asan|tsan]"; exit 2 ;;
esac

if ! rustup toolchain list 2>/dev/null | grep -q '^nightly'; then
  echo "sanitize[$MODE]: SKIP — no nightly toolchain (sanitizers are -Z flags)"
  exit 0
fi

BUILD_STD=()
if [ "$MODE" = tsan ]; then
  SYSROOT=$(rustc +nightly --print sysroot)
  if [ ! -d "$SYSROOT/lib/rustlib/src/rust/library" ]; then
    echo "sanitize[tsan]: SKIP — rust-src missing; TSan needs an instrumented std" \
         "(rustup component add rust-src --toolchain nightly)"
    exit 0
  fi
  SAN="-Zsanitizer=thread"
  BUILD_STD=(-Zbuild-std)
  export TSAN_OPTIONS="suppressions=$R/scripts/tsan.supp history_size=7"
else
  SAN="-Zsanitizer=address"
  # Detached acceptor/reader/writer threads still hold their stacks and
  # TLS at process exit; leak accounting would flag those
  # still-reachable blocks, not real bugs. ASan's memory-error checking
  # (the part we want) is unaffected.
  export ASAN_OPTIONS="detect_leaks=0"
fi

export RUSTFLAGS="$SAN -Cunsafe-allow-abi-mismatch=sanitizer"
export CARGO_TARGET_DIR="$R/target/sanitize-$MODE"
export CARGO_PROFILE_DEV_OPT_LEVEL=1
HOST=$(rustc +nightly -vV | sed -n 's/^host: //p')
cd "$R"

run_test() { # name, cargo target-selection args...
  local name=$1; shift
  echo "== sanitize[$MODE]: $name =="
  local out
  out=$(cargo +nightly test --offline -q "${BUILD_STD[@]}" --target "$HOST" "$@" 2>&1) \
    || { echo "$out"; echo "sanitize[$MODE]: $name FAILED"; exit 1; }
  echo "$out" | sed -n "s/^test result.*/[$MODE:$name] &/p"
}

run_test crypto -p hlf-crypto --lib
run_test transport -p hlf-transport --lib
run_test tcp_codec -p hlf-smr --test tcp_codec
run_test tcp_cluster -p hlf-bft --test tcp_cluster

echo "sanitize[$MODE]: OK"
