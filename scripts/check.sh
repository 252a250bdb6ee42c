#!/bin/sh
# check.sh — the repo's full verification gate: vet, the complete test
# suite under the race detector (wall-clock bounded so a hung test fails
# the gate instead of wedging it), the benchmark module's tests, and a
# short fuzz smoke over the dataset parsers. CI and pre-commit both run
# this.
#
# `check.sh bench` instead runs the bench-regression gate: it rebuilds
# the per-stage pipeline benchmark (experiments -benchjson) and diffs
# it against the committed BENCH_pipeline.json with cmd/benchdiff,
# failing if any stage's wall time regressed more than 30% (override
# with BENCH_THRESHOLD=0.50). Timing gates are noisy on shared runners,
# so CI runs this step non-blocking; run it locally before and after
# performance-sensitive changes.
#
# `check.sh speedup` measures the parallel execution layer: it runs the
# same benchmark at workers=1 and workers=GOMAXPROCS and asks benchdiff
# -expect-speedup whether the parallel run's wall clock beat the
# sequential one by SPEEDUP_MIN (default 1.3x). Wall-clock speedups are
# hardware-dependent — a single-core machine legitimately measures
# ~1.0x — so this gate is informational and CI runs it non-blocking.
set -eu
cd "$(dirname "$0")/.."

if [ "${1:-}" = "bench" ]; then
	out="${BENCH_OUT:-/tmp/BENCH_pipeline.new.json}"
	echo ">> go run ./cmd/experiments -benchjson $out"
	go run ./cmd/experiments -benchjson "$out"
	echo ">> go run ./cmd/benchdiff BENCH_pipeline.json $out"
	go run ./cmd/benchdiff BENCH_pipeline.json "$out"
	# Predict-path allocation benches: drift-on must not allocate more
	# than drift-off — the tracker's steady-state observation path is
	# allocation-free by contract (buffers are bound once at Bind).
	pb="${PREDICT_BENCH_OUT:-/tmp/predict_bench.txt}"
	echo ">> go test -bench 'BenchmarkPredictAllocs|BenchmarkPredictDriftOn|BenchmarkPredictThroughput|BenchmarkFeaturize' ./internal/core/"
	go test -run '^$' -bench 'BenchmarkPredictAllocs$|BenchmarkPredictDriftOn$|BenchmarkPredictThroughput|BenchmarkFeaturize' \
		-benchmem -benchtime=200x -count=1 ./internal/core/ | tee "$pb"
	awk '/^BenchmarkPredictAllocs/{off=$(NF-1)} /^BenchmarkPredictDriftOn/{on=$(NF-1)}
		END{ if (on == "" || off == "") { print "predict benches missing from output"; exit 1 }
		     if (on+0 > off+0) { printf "drift-on predict allocates more than drift-off (%s > %s allocs/op)\n", on, off; exit 1 } }' "$pb"
	# Compiled matcher must beat the naive per-pattern subset scan on a
	# bundled dataset (the two are proven byte-identical by the
	# differential tests; this asserts the speed half of the trade).
	awk '/^BenchmarkFeaturize\/compiled/{c=$3} /^BenchmarkFeaturize\/naive/{n=$3}
		END{ if (c == "" || n == "") { print "featurize benches missing from output"; exit 1 }
		     if (c+0 >= n+0) { printf "compiled featurize is not faster than naive (%s >= %s ns/op)\n", c, n; exit 1 }
		     printf "compiled featurize beats naive: %.2fx\n", n/c }' "$pb"
	echo "OK (bench)"
	exit 0
fi

if [ "${1:-}" = "speedup" ]; then
	seq="${SEQ_OUT:-/tmp/BENCH_seq.json}"
	par="${PAR_OUT:-/tmp/BENCH_par.json}"
	min="${SPEEDUP_MIN:-1.3}"
	echo ">> go run ./cmd/experiments -benchjson $seq -workers 1"
	go run ./cmd/experiments -benchjson "$seq" -workers 1
	echo ">> go run ./cmd/experiments -benchjson $par -workers 0"
	go run ./cmd/experiments -benchjson "$par" -workers 0
	echo ">> go run ./cmd/benchdiff -expect-speedup $min $seq $par"
	go run ./cmd/benchdiff -expect-speedup "$min" "$seq" "$par"
	echo "OK (speedup)"
	exit 0
fi

echo ">> go vet ./..."
go vet ./...

# Repo-specific static analysis (guard placement, sentinel-error
# discipline, float equality, ctx plumbing, obs nil-safety, math
# domains, atomic artifact writes, map-order escapes, determinism-domain
# clocks/rand, hot-path allocations, atomic/plain mixing). Exit 1 =
# findings, exit 2 = a package failed to load.
echo ">> go run ./cmd/dfpc-vet ./..."
go run ./cmd/dfpc-vet ./...

# Waiver audit: every //vet:ignore must carry a reason; a reasonless
# waiver is an invisible suppression and fails the gate.
echo ">> go run ./cmd/dfpc-vet -waivers ./..."
go run ./cmd/dfpc-vet -waivers ./...

echo ">> go test -race -timeout 10m ./..."
go test -race -timeout 10m ./...

# Parallel-determinism gate: the worker count must be invisible in
# mined patterns, selected features, predictions, and CV statistics.
# The suite is part of ./... above; this explicit pass keeps the
# contract visible in the gate's output and re-runs it under -race with
# a fresh count so a cached "ok" can never mask a regression.
echo ">> go test -race -count=1 -run 'Determinism|Parallel' ./ ./internal/parallel/ ./internal/mining/ ./internal/svm/ ./internal/eval/ ./internal/featsel/"
go test -race -count=1 -timeout 10m -run 'Determinism|Parallel' \
	./ ./internal/parallel/ ./internal/mining/ ./internal/svm/ ./internal/eval/ ./internal/featsel/

# The benchmark is a module of its own (perfbench/go.mod), so ./...
# above never reaches its tests: the mine-dense fingerprint, exact work
# counts, and the layer-by-layer rebuild matching core.Fit.
echo ">> (cd perfbench && go test ./...)"
(cd perfbench && go test ./...)

# Short fuzz smoke: one target per invocation (go test accepts a single
# -fuzz pattern), ~10s each. Catches shallow parser crashers early;
# longer hunts are a manual `go test -fuzz=FuzzParseX ./internal/dataset/`.
for target in FuzzParseARFF FuzzParseCSV FuzzParseLUCS; do
	echo ">> go test -fuzz=$target -fuzztime=10s ./internal/dataset/"
	go test -run='^$' -fuzz="$target\$" -fuzztime=10s ./internal/dataset/
done

echo "OK"
