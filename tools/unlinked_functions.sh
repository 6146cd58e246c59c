#!/usr/bin/env bash
# Lists the functions of libtm2c.a that no program links: the library's
# global text symbols that no executable of the build (tests, benches,
# tools, examples) and not tm2c_e2e defines. One demangled name a line;
# an empty list means every library function has a caller. With
# --test-only it lists instead the functions that only tests link: those
# that some *_test executable defines and no other program does.
#
#   tools/unlinked_functions.sh [--test-only] <build-dir> <e2e-build-dir>
#
# Both builds must be Debug builds compiled with -ffunction-sections and
# linked with -Wl,--gc-sections, for example:
#
#   flags=(-DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS=-ffunction-sections
#          -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections)
#   cmake -B build-gc -S . "${flags[@]}" && cmake --build build-gc -j
#   cmake -B build-gc-e2e -S bench/e2e "${flags[@]}" && cmake --build build-gc-e2e -j
#   tools/unlinked_functions.sh build-gc build-gc-e2e
#
# --gc-sections drops every function no program reaches, and at -O0 no
# call is inlined away, so the list is exact. An optimized build would
# also list functions that every caller inlined. The benchmark program
# counts as a caller: some store functions are called only from it.
set -euo pipefail

usage="usage: $0 [--test-only] <build-dir> <e2e-build-dir>"
test_only=
if [[ "${1:-}" == --test-only ]]; then
  test_only=1
  shift
fi
build=${1:?$usage}
e2e=${2:?$usage}
lib="$build/libtm2c.a"
for f in "$lib" "$e2e/tm2c_e2e"; do
  if [[ ! -f "$f" ]]; then
    echo "error: $f not found (build it first; see $0)" >&2
    exit 2
  fi
done

export LC_ALL=C
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# The global text symbols each file defines. nm skips (and complains
# about) the executable files that are not programs, such as scripts.
defined() {
  xargs -0 nm --defined-only 2>/dev/null | awk 'NF == 3 { print $3 }' || true
}
nm --defined-only "$lib" 2>/dev/null | awk '$2 == "T" { print $3 }' | sort -u > "$tmp/library"
{
  find "$build" -maxdepth 1 -type f -perm -u+x ! -name '*_test' -print0 | defined
  printf '%s\0' "$e2e/tm2c_e2e" | defined
} | sort -u > "$tmp/programs"
find "$build" -maxdepth 1 -type f -perm -u+x -name '*_test' -print0 | defined | sort -u > "$tmp/tests"
if [[ -n "$test_only" ]]; then
  comm -12 "$tmp/library" "$tmp/tests" | comm -23 - "$tmp/programs" | c++filt
else
  sort -u "$tmp/programs" "$tmp/tests" | comm -23 "$tmp/library" - | c++filt
fi
