#!/usr/bin/env bash
# Link census: no code in src/ without a result.
#
#   tools/census.sh BUILD_DIR PERFBENCH_BUILD_DIR
#
# BUILD_DIR is a build of the root project, PERFBENCH_BUILD_DIR a build of
# perfbench/. Configure both with
#
#   -DCMAKE_BUILD_TYPE=None
#   -DCMAKE_CXX_FLAGS="-O0 -g0 -ffunction-sections -fdata-sections"
#   -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections"
#
# so that nothing is inlined away, every function sits in a section of its
# own, and the linker drops each section that no executable reaches. A
# function is "kept" by an executable when its symbol survives that link.
#
# Two rules, no exceptions:
#   1. Every function a src/ library defines (a T or t symbol) whose
#      demangled name contains "decentnet::" is kept in at least one
#      executable, tests included. Weak (W) symbols are not checked: they
#      are a library's copies of inline and template code, std:: containers
#      of decentnet types among them, and are kept exactly when their
#      callers are.
#   2. Every src/ translation unit that defines a global (T) function has at
#      least one of them kept in a result executable: a bench, an example,
#      decentnet-trace or a perfbench executable.
#
# Header-only code is invisible here: an inline function that only tests
# call never reaches a library object. The census is a lower bound on the
# code that backs no result. Needs nm and c++filt (GNU binutils).
set -euo pipefail
export LC_ALL=C

if [[ $# -ne 2 ]]; then
  echo "usage: $0 BUILD_DIR PERFBENCH_BUILD_DIR" >&2
  exit 2
fi
build=${1%/}
perfbench=${2%/}

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

executables() {  # DIR NAME-GLOB: the executable files directly in DIR
  find "$1" -maxdepth 1 -type f -perm -u+x -name "$2" | sort
}

kept_symbols() {  # EXECUTABLE...: defined functions, mangled
  for exe in "$@"; do
    nm --defined-only "$exe" | awk '$2 ~ /^[Tt]$/ { print $3 }'
  done | sort -u
}

mapfile -t results < <(
  executables "$build/bench" 'bench_*'
  executables "$build/examples" 'example_*'
  executables "$build/tools" 'decentnet-trace'
  executables "$perfbench" 'perfbench_*')
mapfile -t tests < <(executables "$build/tests" 'test_*')
mapfile -t libs < <(find "$build/src" -name 'libdecentnet_*.a' | sort)
if [[ ${#results[@]} -eq 0 || ${#tests[@]} -eq 0 || ${#libs[@]} -eq 0 ]]; then
  echo "census: no executables or src/ libraries under $build and" \
       "$perfbench; build both first" >&2
  exit 2
fi

kept_symbols "${results[@]}" > "$work/kept_results"
kept_symbols "${results[@]}" "${tests[@]}" > "$work/kept_all"

# One line per function defined in a library member:
#   <TU> <type> <mangled>, where TU is e.g. overlay/kademlia.cpp.o.
for lib in "${libs[@]}"; do
  dir=$(dirname "${lib#"$build/src/"}")
  nm --defined-only --print-file-name "$lib" |
    awk -v dir="$dir" '$2 ~ /^[Tt]$/ {
      n = split($1, parts, ":"); print dir "/" parts[n - 1], $2, $3 }'
done | sort -u > "$work/defined"

status=0

# Rule 1: every decentnet:: function is kept somewhere.
awk '{ print $3 }' "$work/defined" | sort -u > "$work/functions"
comm -23 "$work/functions" "$work/kept_all" | c++filt | grep 'decentnet::' |
  sort -u > "$work/unlinked" || true
if [[ -s "$work/unlinked" ]]; then
  status=1
  echo "census: $(wc -l < "$work/unlinked") src/ functions that no" \
       "executable links (delete them, or give them a result):"
  sed 's/^/  /' "$work/unlinked"
fi

# Rule 2: every translation unit with a global function reaches a result.
awk '$2 == "T" { print $1, $3 }' "$work/defined" | sort -k2 > "$work/global"
awk '{ print $1 }' "$work/global" | sort -u > "$work/tus"
join -1 2 -2 1 -o 1.1 "$work/global" "$work/kept_results" | sort -u |
  comm -23 "$work/tus" - > "$work/test_only_tus"
if [[ -s "$work/test_only_tus" ]]; then
  status=1
  echo "census: $(wc -l < "$work/test_only_tus") src/ translation units" \
       "that no bench, example, tool or perfbench executable links:"
  sed 's/^/  /' "$work/test_only_tus"
fi

if [[ $status -eq 0 ]]; then
  echo "census: ok: $(c++filt < "$work/functions" | grep -c 'decentnet::')" \
       "decentnet:: functions in $(wc -l < "$work/tus") translation units," \
       "each linked, each translation unit behind a result" \
       "(${#results[@]} result and ${#tests[@]} test executables)"
fi
exit $status
