#!/usr/bin/env bash
# Lists the functions of libtm2c.a that no program links: the library's
# global text symbols that no executable of the build (tests, benches,
# tools, examples) and not tm2c_e2e defines. One demangled name a line;
# an empty list means every library function has a caller.
#
#   tools/unlinked_functions.sh <build-dir> <e2e-build-dir>
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

usage="usage: $0 <build-dir> <e2e-build-dir>"
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

nm --defined-only "$lib" 2>/dev/null | awk '$2 == "T" { print $3 }' | sort -u > "$tmp/library"
{
  # nm skips (and complains about) the executable files that are not
  # programs, such as scripts.
  find "$build" -maxdepth 1 -type f -perm -u+x -print0 |
    xargs -0 nm --defined-only 2>/dev/null || true
  nm --defined-only "$e2e/tm2c_e2e"
} | awk 'NF == 3 { print $3 }' | sort -u > "$tmp/linked"
comm -23 "$tmp/library" "$tmp/linked" | c++filt
