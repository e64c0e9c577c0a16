#!/usr/bin/env sh
# Static checks over the project sources.  Usage:
#
#   tools/lint.sh [build-dir] [extra clang-tidy args...]
#   tools/lint.sh --text-only
#
# Three phases:
#   1. Text checks over the sources.  One OpenMP site: no OpenMP pragma,
#      `omp.h`, `omp_` or `_OPENMP` in src/ outside src/sim/launch.hh,
#      whose sim::launch_blocks is the one parallel loop.  One bit reader
#      and one bit writer: no class named *BitReader or *BitWriter in src/
#      outside src/core/huffman/bitio.hh, and the bit-at-a-time get_bit(
#      only in bitio.hh and codebook.hh (the canonical-walk fallback).  One
#      file layer: no file stream (`fstream`, `ifstream`, `ofstream`,
#      `<fstream>`), `fopen(`, `pread(` or `mmap(` in the C++ sources of
#      src/ or tools/ outside src/core/io/.  One cost model: no `traffic::`
#      and no `sim/traffic.hh` in src/ outside src/sim/ — a stage's modeled
#      cost is a closed form of the paper's kernel, never the traffic
#      analyzer's host-kernel volumes.  One page-advice site: no `madvise`
#      and no `MADV_` in src/ outside src/sim/aligned.hh, whose
#      advise_huge_pages serves only dense buffers — a sparse one on huge
#      pages would hold 2 MiB resident for each 4 KiB it touches.  No
#      toolchain needed.  (Every checked launch declares a footprint
#      contract because checked::launch and launch_3d take one: a call
#      without it does not compile, which the
#      launch_without_contract_is_rejected ctest pins.)
#   2. Static traffic coverage: `szp analyze --traffic` must exit clean —
#      every registered kernel carries contract-derived volumes in the
#      traffic table.  Skipped when the build tree has no szp binary.
#   3. clang-tidy over all first-party translation units, using the compile
#      database from a configured build tree (compile_commands.json is
#      exported by default, see CMakeLists.txt).  Warnings are errors (see
#      .clang-tidy WarningsAsErrors).
#
# --text-only runs phase 1 alone — the `lint` CMake target falls back to it
# when clang-tidy is not installed.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)

text_only=0
if [ "${1:-}" = "--text-only" ]; then
  text_only=1
  shift
fi

# --- Phase 1: OpenMP is named only by the launcher. -------------------------
check_openmp_site() {
  launcher="${repo_root}/src/sim/launch.hh:"
  hits=$(grep -rnE '#[[:space:]]*pragma[[:space:]]+omp|omp\.h|(^|[^[:alnum:]_])omp_|_OPENMP' \
           "${repo_root}/src" | grep -vF "${launcher}" || true)
  [ -z "${hits}" ] && return 0
  printf '%s\n' "${hits}" | sed 's/$/  <- OpenMP outside src\/sim\/launch.hh/'
  return 1
}

# --- Phase 1: one bit reader, one bit writer. -------------------------------
check_bitio_site() {
  bitio="${repo_root}/src/core/huffman/bitio.hh:"
  codebook="${repo_root}/src/core/huffman/codebook.hh:"
  classes=$(grep -rnE '(class|struct)[[:space:]]+[[:alnum:]_]*Bit(Reader|Writer)([^[:alnum:]_]|$)' \
              "${repo_root}/src" | grep -vF "${bitio}" || true)
  bit_reads=$(grep -rnF 'get_bit(' "${repo_root}/src" | grep -vF "${bitio}" |
                grep -vF "${codebook}" || true)
  [ -z "${classes}${bit_reads}" ] && return 0
  [ -n "${classes}" ] && printf '%s\n' "${classes}" |
    sed 's/$/  <- bit reader\/writer class outside src\/core\/huffman\/bitio.hh/'
  [ -n "${bit_reads}" ] && printf '%s\n' "${bit_reads}" |
    sed 's/$/  <- get_bit( outside bitio.hh\/codebook.hh (read words with get(n))/'
  return 1
}

# --- Phase 1: one file layer. -----------------------------------------------
check_file_layer() {
  io_dir="${repo_root}/src/core/io/"
  hits=$(grep -rnE --include='*.cc' --include='*.hh' \
           '(std::)?(i|o)?fstream|<fstream>|fopen\(|pread\(|mmap\(' \
           "${repo_root}/src" "${repo_root}/tools" | grep -vF "${io_dir}" || true)
  [ -z "${hits}" ] && return 0
  printf '%s\n' "${hits}" | sed 's/$/  <- file I\/O outside src\/core\/io\//'
  return 1
}

# --- Phase 1: one cost model. -----------------------------------------------
check_cost_model() {
  sim_dir="${repo_root}/src/sim/"
  hits=$(grep -rnE 'traffic::|sim/traffic\.hh' "${repo_root}/src" | grep -vF "${sim_dir}" || true)
  [ -z "${hits}" ] && return 0
  printf '%s\n' "${hits}" | sed 's/$/  <- traffic analyzer outside src\/sim\//'
  return 1
}

# --- Phase 1: one page-advice site. -----------------------------------------
check_page_advice() {
  aligned="${repo_root}/src/sim/aligned.hh:"
  hits=$(grep -rnE 'madvise|MADV_' "${repo_root}/src" | grep -vF "${aligned}" || true)
  [ -z "${hits}" ] && return 0
  printf '%s\n' "${hits}" | sed 's/$/  <- page advice outside src\/sim\/aligned.hh/'
  return 1
}

echo "lint.sh: checking that OpenMP appears only in src/sim/launch.hh"
check_openmp_site || {
  echo "lint.sh: one-OpenMP-site check FAILED (route the loop through sim::launch_blocks)" >&2
  exit 1
}
echo "lint.sh: one OpenMP site OK"

echo "lint.sh: checking for one bit reader and one bit writer"
check_bitio_site || {
  echo "lint.sh: one-bit-io check FAILED (use BitReader/BitWriter from src/core/huffman/bitio.hh)" >&2
  exit 1
}
echo "lint.sh: one bit reader and writer OK"

echo "lint.sh: checking that files are opened only in src/core/io/"
check_file_layer || {
  echo "lint.sh: one-file-layer check FAILED (use io::read_file/io::write_file," \
       "a FieldSource or FileSink from src/core/io/io.hh)" >&2
  exit 1
}
echo "lint.sh: one file layer OK"

echo "lint.sh: checking that the traffic analyzer is named only in src/sim/"
check_cost_model || {
  echo "lint.sh: one-cost-model check FAILED (give the stage a closed-form" \
       "KernelCost; the traffic tables describe host kernels)" >&2
  exit 1
}
echo "lint.sh: one cost model OK"

echo "lint.sh: checking that page advice is named only in src/sim/aligned.hh"
check_page_advice || {
  echo "lint.sh: one-page-advice-site check FAILED (size a dense buffer with" \
       "sim::reserve_dense or sim::device_vector; never advise a sparse one)" >&2
  exit 1
}
echo "lint.sh: one page-advice site OK"

if [ "${text_only}" = 1 ]; then
  exit 0
fi

build_dir=${1:-"${repo_root}/build"}
[ $# -gt 0 ] && shift

# --- Phase 2: static traffic coverage. -------------------------------------
# Every registered kernel must have a row with derived volumes in the traffic
# table (`szp analyze --traffic` exits 3 on an uncovered kernel or a
# checker/traffic finding).  Needs the built CLI;
# skipped with a note when the build tree has none.
szp_bin="${build_dir}/tools/szp"
if [ -x "${szp_bin}" ]; then
  echo "lint.sh: checking static traffic coverage (szp analyze --traffic)"
  traffic_out=$("${szp_bin}" analyze --traffic) || {
    echo "lint.sh: traffic coverage FAILED — registered kernel missing from" \
         "the traffic table, or a finding fired (rerun: szp analyze --traffic)" >&2
    exit 1
  }
  # The suite only covers kernels it actually launches, so additionally pin
  # the codec-tier kernel inventory: if the canned workload stops exercising
  # one of these (e.g. a codec is dropped from the analyze round-trips), the
  # lint fails rather than silently shrinking coverage.
  for k in codec/quant_pack codec/quant_unpack lz77/tokenize lz77/token_freq \
           lzh/encode lzh/decode lzr/token_split lzr/expand; do
    if ! printf '%s\n' "${traffic_out}" | grep -q "${k}"; then
      echo "lint.sh: traffic coverage FAILED — codec kernel '${k}' missing" \
           "from the traffic table (analyze workload no longer exercises it)" >&2
      exit 1
    fi
  done
  echo "lint.sh: traffic coverage OK (codec-tier kernels pinned)"
else
  echo "lint.sh: skipping traffic coverage (no szp binary under '${build_dir}')"
fi

# --- Phase 3: clang-tidy. --------------------------------------------------
if [ ! -f "${build_dir}/compile_commands.json" ]; then
  echo "lint.sh: no compile_commands.json in '${build_dir}'." >&2
  echo "  Configure first: cmake -B '${build_dir}' -S '${repo_root}'" >&2
  exit 2
fi

tidy=${CLANG_TIDY:-clang-tidy}
if ! command -v "${tidy}" >/dev/null 2>&1; then
  echo "lint.sh: '${tidy}' not found; install clang-tidy or set CLANG_TIDY." >&2
  exit 2
fi

# First-party translation units only — keep third-party and generated code out.
files=$(find "${repo_root}/src" "${repo_root}/tools" "${repo_root}/bench" \
          "${repo_root}/examples" -name '*.cc' 2>/dev/null | sort)

echo "lint.sh: checking $(printf '%s\n' "${files}" | wc -l | tr -d ' ') files"
# -Wthread-safety feeds the clang-diagnostic-thread-safety* gate (see
# .clang-tidy WarningsAsErrors and core/thread_safety.hh).
# shellcheck disable=SC2086
exec "${tidy}" -p "${build_dir}" --quiet --extra-arg=-Wthread-safety "$@" ${files}
