#!/usr/bin/env bash
# Bench/example coverage: which src/ functions does no bench or example
# reach?
#
# Builds a `--coverage` Debug copy (-O1, invariant checkers armed) in its
# own build directory, runs every figure/table bench at a short horizon,
# bench_perf_engine at small N, and the examples, then prints every src/
# function with zero hits summed over all translation units. Unit tests
# are not run: the question is what the benches and examples reach, not
# what the tests poke. Not part of CI — a full pass takes several minutes.
#
# Usage:
#   scripts/coverage.sh [build-dir]      (default: <repo>/build-coverage)
#
# Per-run stdout/stderr lands in <build-dir>/coverage-logs/; the zero-hit
# report is also written to <build-dir>/coverage-logs/zero_hits.txt.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build-coverage}"
log_dir="${build_dir}/coverage-logs"
gcov_tool="$(command -v gcov-12 || command -v gcov)"
# -O0 leaves the lossy benches far too slow to finish; -O1 keeps every
# run in the tens of seconds.
per_run_timeout=300

cmake -B "${build_dir}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="--coverage -O1" \
  -DCMAKE_EXE_LINKER_FLAGS="--coverage" \
  -DNEG_BUILD_TESTS=OFF >/dev/null
cmake --build "${build_dir}" -j"$(nproc)"

# Counters accumulate across runs; start from zero every time.
find "${build_dir}" -name '*.gcda' -delete
rm -rf "${log_dir}"
mkdir -p "${log_dir}"

failures=0
run() {
  local name="$1"
  shift
  echo "== ${name}"
  if ! timeout "${per_run_timeout}" "$@" >"${log_dir}/${name}.txt" 2>&1; then
    echo "   FAILED or timed out (see ${log_dir}/${name}.txt)"
    failures=$((failures + 1))
  fi
}

export NEG_DURATION_MS=0.3
for bin in "${build_dir}"/bench/bench_*; do
  [[ -x "${bin}" && -f "${bin}" ]] || continue
  name="$(basename "${bin}")"
  case "${name}" in
    bench_micro_gbench) ;;  # microbenchmarks, not a simulation run
    bench_perf_engine)
      run "${name}" env NEG_PERF_TORS=16 NEG_PERF_SCALING_TORS=16 \
        NEG_PERF_SCALING_OBLIVIOUS_TORS=16 NEG_PERF_STORM_TORS=16 \
        NEG_PERF_CONTROL_TORS=16 NEG_PERF_DATA_TORS=16 \
        NEG_PERF_SWEEP_TORS=16 NEG_PERF_THREADS=1 \
        NEG_PERF_JSON="${log_dir}/BENCH_perf.json" "${bin}" ;;
    *) run "${name}" "${bin}" ;;
  esac
done

ex="${build_dir}/examples"
run quickstart "${ex}/quickstart" 0.3 0.3
run negsim "${ex}/negsim" --duration-ms 0.3
run negsim_oblivious "${ex}/negsim" --scheduler oblivious --duration-ms 0.3
run negsim_arq "${ex}/negsim" --data-drop 0.01 --arq --duration-ms 0.3
run incast_demo "${ex}/incast_demo" 8 2000
run ml_training_alltoall "${ex}/ml_training_alltoall" 20 1
run failure_drill "${ex}/failure_drill" 4 1.5

# gcov's JSON records per-function execution counts for every function a
# translation unit compiled, header inlines included; sum them per
# (file, function) across all units and keep the src/ ones never run.
gcov_dir="${build_dir}/coverage-gcov"
rm -rf "${gcov_dir}"
mkdir -p "${gcov_dir}"
find "${build_dir}" -name '*.gcda' -print0 |
  (cd "${gcov_dir}" &&
   xargs -0 -n 50 "${gcov_tool}" --json-format --preserve-paths \
     >/dev/null 2>&1 || true)

python3 - "${gcov_dir}" "${repo_root}/src" "${log_dir}/zero_hits.txt" <<'EOF'
import collections, gzip, json, os, sys

gcov_dir, src_root, out_path = sys.argv[1], os.path.realpath(sys.argv[2]), sys.argv[3]
hits = collections.Counter()
lines = {}
for name in os.listdir(gcov_dir):
    if not name.endswith(".gcov.json.gz"):
        continue
    with gzip.open(os.path.join(gcov_dir, name), "rt") as fh:
        doc = json.load(fh)
    cwd = doc.get("current_working_directory", "")
    for f in doc.get("files", []):
        path = os.path.realpath(os.path.join(cwd, f["file"]))
        if not path.startswith(src_root + os.sep):
            continue
        rel = os.path.relpath(path, src_root)
        for fn in f.get("functions", []):
            key = (rel, fn.get("demangled_name", fn["name"]))
            hits[key] += fn["execution_count"]
            lines[key] = fn["start_line"]
zero = sorted(k for k, n in hits.items() if n == 0)
with open(out_path, "w") as out:
    for rel, fn in zero:
        out.write(f"src/{rel}:{lines[(rel, fn)]}: {fn}\n")
print(f"\n{len(zero)} of {len(hits)} src/ functions never ran "
      f"(list: {out_path}):")
with open(out_path) as fh:
    sys.stdout.write(fh.read())
EOF

echo
echo "${failures} run(s) failed or timed out"
exit "$((failures > 0 ? 1 : 0))"
