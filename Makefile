# Convenience targets; `make check` is the tier-1 gate CI runs.

DDPROF   = dune exec --no-print-directory bin/ddprof.exe --
DDPCHECK = dune exec --no-print-directory bin/ddpcheck.exe --
MODES    = serial perfect parallel mt shadow hashtable hybrid dag hybrid-dag

# Fixed seed so smoke runs are reproducible; override: make fuzz-smoke DDP_SEED=...
DDP_SEED ?= 421

# A hung test or fuzz run must fail the gate, not stall it: every
# long-running target runs under a wall-clock cap (timeout(1) exits 124).
# Override or disable: make test TIMEOUT=
TIMEOUT ?= timeout 1200

.PHONY: all build check test smoke perf-smoke obs-smoke static-smoke foreign-smoke dag-smoke race-smoke daemon-smoke daemon-chaos fuzz-smoke fuzz-nightly bench _bench-collect bench-json bench-quick bench-baseline bench-ratchet bench-ratchet-selftest clean

all: build

build:
	dune build

test:
	$(TIMEOUT) dune runtest

check:
	dune build && $(TIMEOUT) dune runtest

# One workload through every registered CLI engine: proves the whole
# Engine/Source/Sink stack end to end, not just the unit suites.
smoke: build
	$(DDPROF) list-modes
	@for mode in $(MODES); do \
	  echo "== kmeans --mode $$mode =="; \
	  $(DDPROF) run kmeans --mode $$mode || exit 1; \
	done

# The benchmark's smoke pass: every perfbench workload once on its
# smallest inputs, untraced and traced, checking each result's metrics
# and its dependence sets against the perfect and batch oracles (~75 s).
perf-smoke: build
	$(TIMEOUT) python3 perfbench/run.py --smoke

# Telemetry end to end: profile a real workload with the tracer,
# allocation attribution, GC runtime-events fusion and the live
# progress meter all on; check the Chrome-trace JSON parses and carries
# >= 1 span per worker track, the progress NDJSON is well-formed and
# monotone, and the exported metrics pass the schema gate.  Artifacts
# land in _obs/ (load the trace in Perfetto / chrome://tracing).
obs-smoke: build
	@mkdir -p _obs
	$(DDPROF) run kmeans --mode parallel --workers 4 \
	  --trace-out _obs/trace.json --metrics-out _obs/metrics.json \
	  --memprof-rate 0.001 --runtime-events \
	  --progress-out _obs/progress.ndjson --progress-interval 0.1
	$(DDPROF) check-trace _obs/trace.json --workers 4
	$(DDPROF) check-progress _obs/progress.ndjson --min-samples 2
	$(DDPROF) stats --from _obs/metrics.json
	$(DDPROF) stats kmeans --workers 4

# The static analyzer end to end: lint every registered workload
# (Serial verdict against a parallel annotation fails the gate), check
# static-vs-dynamic verdict agreement on three representative workloads,
# and push a small fuzz budget through the may ⊇ dynamic soundness gate
# (plus its mutant-static fire drill).  The lint report lands in
# _static/lint.json for the CI artifact.
static-smoke: build
	@mkdir -p _static
	$(DDPROF) static --lint-workloads --json-out _static/lint.json
	@for w in rgbyuv cg kmeans; do \
	  echo "== static $$w --compare perfect =="; \
	  $(DDPROF) static $$w --compare perfect || exit 1; \
	done
	$(TIMEOUT) $(DDPCHECK) soundness --seed $(DDP_SEED) --count 25 --out _static

# The foreign-trace import path end to end: export a workload's native
# stream as a lackey-style trace, profile the import through the serial,
# parallel and hybrid engines, and diff each dependence set against the
# native run (foreign-diff exits 1 on any mismatch).  The trace lands in
# _foreign/ for the CI artifact.
foreign-smoke: build
	@mkdir -p _foreign
	$(DDPROF) foreign-export kmeans -o _foreign/kmeans.lackey
	$(DDPROF) run --foreign _foreign/kmeans.lackey --mode serial
	@for mode in serial parallel hybrid; do \
	  echo "== foreign-diff kmeans --mode $$mode =="; \
	  $(DDPROF) foreign-diff kmeans --trace _foreign/kmeans.lackey --mode $$mode || exit 1; \
	done

# The SP-DAG race engine end to end: every task-family workload, at the
# scale the benchmark runs it (fib 5, msort 8, scan 256), must render its
# --mode dag report and match its @race/@norace ground truth exactly (zero
# flags on the clean variants, >= 1 on the racy ones); msort-task at
# scale 16 needs more task ids than a payload holds and must be refused;
# then a 25-program exhaustive-interleaving sweep diffs the engine against
# the vector-clock oracle on every schedule.  Counterexamples land in
# _dag/ for the CI artifact.
TASK_SCALES = fib-task:5 fib-task-racy:5 msort-task:8 msort-task-racy:8 scan-task:256 scan-task-racy:256

dag-smoke: build
	@for ws in $(TASK_SCALES); do \
	  w=$${ws%:*}; s=$${ws#*:}; \
	  echo "== $$w --scale $$s --mode dag --report =="; \
	  out=$$($(DDPROF) run $$w --scale $$s --mode dag --report) || exit 1; \
	  summary=$$(echo "$$out" | grep "race-flagged"); echo "$$summary"; \
	  case $$w in \
	    *-racy) if echo "$$summary" | grep -q ", 0 race-flagged"; then \
	        echo "FAIL: $$w is @race but the dag engine saw nothing"; exit 1; fi ;; \
	    *) echo "$$summary" | grep -q ", 0 race-flagged" \
	        || { echo "FAIL: $$w is @norace but the dag engine flagged a race"; exit 1; } ;; \
	  esac; \
	done
	@echo "== msort-task --scale 16 --mode dag (2047 task ids: refused) =="; \
	if out=$$($(DDPROF) run msort-task --scale 16 --mode dag 2>&1); then \
	  echo "FAIL: msort-task at scale 16 ran past the task limit"; exit 1; fi; \
	echo "$$out" | grep -q "task limit (1024) exceeded" \
	  || { echo "FAIL: expected the task-limit error, got:"; echo "$$out"; exit 1; }
	@mkdir -p _dag
	$(TIMEOUT) $(DDPCHECK) dag --seed $(DDP_SEED) --count 25 --out _dag

# The static race lint end to end: `static --races` on every task-family
# workload (the confusion check vs --mode dag exits 1 when the lint
# missed a dynamically-observed race edge, and on any @race/@norace
# ground-truth contradiction), the whole-registry lint with its
# per-workload race verdicts, and a 25-program exhaustive-interleaving
# sweep through the race-soundness gate (plus its lockset-mutant fire
# drill).  The lint report lands in _race/lint.json for the CI artifact.
race-smoke: build
	@mkdir -p _race
	@for w in fib-task fib-task-racy msort-task msort-task-racy scan-task scan-task-racy; do \
	  echo "== static $$w --races =="; \
	  $(DDPROF) static $$w --races || exit 1; \
	done
	$(DDPROF) static --lint-workloads --json-out _race/lint.json
	$(TIMEOUT) $(DDPCHECK) races --seed $(DDP_SEED) --count 25 --out _race

# The daemon end to end, with the real ddpd binary: boot it on a fresh
# socket, submit the kmeans workload (~5M events) and diff the daemon's
# dependence keys against an in-process batch run (submit exits 1 on
# any mismatch), scrape STATUS, then SIGTERM — the drain must flush
# metrics and exit 0.  Log + final metrics land in _daemon/.
daemon-smoke: build
	@mkdir -p _daemon; rm -f _daemon/ddpd.sock; \
	_build/default/bin/ddpd.exe --socket _daemon/ddpd.sock --idle-timeout 60 \
	  --metrics-out _daemon/metrics.json >_daemon/ddpd.log 2>&1 & \
	pid=$$!; \
	trap 'kill $$pid 2>/dev/null' EXIT; \
	sleep 1; \
	$(TIMEOUT) $(DDPROF) submit kmeans --daemon _daemon/ddpd.sock --mode serial --diff-batch || exit 1; \
	$(DDPROF) daemon-status --daemon _daemon/ddpd.sock || exit 1; \
	echo "== SIGTERM drain =="; \
	kill -TERM $$pid; \
	wait $$pid; code=$$?; \
	trap - EXIT; \
	test $$code -eq 0 || { echo "FAIL: drain exited $$code"; cat _daemon/ddpd.log; exit 1; }; \
	test -f _daemon/metrics.json || { echo "FAIL: no metrics flushed on shutdown"; exit 1; }; \
	echo "daemon-smoke OK: keys == batch run, STATUS served, drained with exit 0"

# Supervision under fire: concurrent clients against an in-process
# server with injected crashes, corrupt frames, truncations, stalls and
# disconnects.  Victims must end Partial with loss == their obs
# counters; survivors must match a serial batch run exactly.  Failure
# reports land in _daemon/.
daemon-chaos: build
	@mkdir -p _daemon
	$(TIMEOUT) $(DDPCHECK) daemon --seed $(DDP_SEED) --count 10 --clients 5 --out _daemon

# Differential fuzzing + schedule exploration, small fixed-seed budget
# (~30s): every engine diffed against the perfect oracle, the virtual
# scheduler swept for queue-full / drain-barrier interleavings, and the
# mutation fire drill.  Reproduce any failure with the printed seed pair:
#   dune exec bin/ddpcheck.exe -- diff --seed <prog_seed>
fuzz-smoke: build
	$(TIMEOUT) $(DDPCHECK) all --seed $(DDP_SEED) --count 40 --par --out _fuzz

# The long-haul nightly budget.  Shrunk counterexamples land in _fuzz/.
fuzz-nightly: build
	$(TIMEOUT) $(DDPCHECK) all --seed $(DDP_SEED) --count 400 --par --out _fuzz

bench:
	dune exec bench/main.exe

# Full machine-readable snapshot (every experiment; slow).
bench-json: build
	dune exec bench/main.exe -- json

# Micro-metric subset the perf gate runs on (~12s per snapshot).
bench-quick: build
	dune exec bench/main.exe -- json-quick

# Collect RATCHET_RUNS quick snapshots back to back into _bench/q*.json.
# The ratchet gates on the per-key minimum: one process can be 10%+ slow
# from scheduler/cache luck alone, but the min of a few is stable.
RATCHET_RUNS ?= 3
RATCHET_FLAGS ?=
_bench-collect: build
	@mkdir -p _bench
	@for i in $$(seq 1 $(RATCHET_RUNS)); do \
	  echo "== bench snapshot $$i/$(RATCHET_RUNS) =="; \
	  dune exec bench/main.exe -- json-quick >/dev/null || exit 1; \
	  cp _bench/BENCH_quick.json _bench/q$$i.json; \
	done

# Regenerate the checked-in baseline from fresh snapshots (run on a
# quiet machine, then commit bench/baseline.json).
bench-baseline: _bench-collect
	dune exec bench/ratchet.exe -- \
	  $$(for i in $$(seq 1 $(RATCHET_RUNS)); do echo --fresh _bench/q$$i.json; done) \
	  --write-baseline bench/baseline.json

# The CI perf gate: fresh min-of-$(RATCHET_RUNS) vs bench/baseline.json.
# Fails (exit 1) when any gated metric regresses past its tolerance;
# appends the outcome to BENCH_history.jsonl and writes the comparison
# to _bench/ratchet-diff.json for the CI artifact.  CI runners pass
# RATCHET_FLAGS="--tolerance-scale 3" for noisy-neighbour headroom.
bench-ratchet: _bench-collect
	dune exec bench/ratchet.exe -- \
	  $$(for i in $$(seq 1 $(RATCHET_RUNS)); do echo --fresh _bench/q$$i.json; done) \
	  --baseline bench/baseline.json --history BENCH_history.jsonl \
	  --diff-out _bench/ratchet-diff.json $(RATCHET_FLAGS)

# Prove the gate has teeth: a clean run must pass, then the same gate
# with a seeded 10% worker slowdown (DDP_PERTURB_WORKER busy-spins 10%
# of each chunk's processing time) must fail.
bench-ratchet-selftest:
	$(MAKE) bench-ratchet
	@echo "== seeded 10% slowdown must fail the gate =="
	! DDP_PERTURB_WORKER=0.10 $(MAKE) bench-ratchet
	@echo "ratchet selftest OK: clean pass, perturbed fail"

clean:
	dune clean
