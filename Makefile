# Convenience targets for local development and CI.

.PHONY: all build test check static-check lint-smoke bench-smoke \
  degradation-smoke resume-smoke obs-smoke noop-sink-smoke \
  chaos-smoke analyze-smoke sca-smoke serve-smoke perf-ab clean

all: build

build:
	dune build

test:
	dune runtest

# Full local gate: compile everything (all warnings fatal in dev, see the
# root dune env stanza), run the test suite, then smoke-run the Table 3
# harness at a tiny scale so bench/ rot is caught early, lint every
# example netlist, and exercise the budget-degradation, checkpoint/resume,
# and observability CLI paths.
check: static-check build test lint-smoke bench-smoke degradation-smoke \
  resume-smoke obs-smoke noop-sink-smoke chaos-smoke \
  analyze-smoke sca-smoke serve-smoke

# Type-check every library and executable (including ones @default would
# skip); the dev env stanza promotes warnings to errors. Fault simulation
# outside lib/fsim goes through the one entry point, Fsim.Engine: a
# Serial detect call in another lib/ directory, bin/, bench/ or
# examples/ fails the check (Diagnose's Fsim.Serial.trace is allowed,
# since the engine has no trace entry; Serial's detect calls are the
# tests' reference).
# The frozen PODEM search and the interpreted good-machine simulator are
# test references only: lib/ or bin/ naming Podem_oracle or Sim_oracle
# fails the check. So does a lib/ module that no other .ml/.mli file in
# lib/, bin/ or bench/ names: a module only tests or examples call has
# no production caller and is deleted. And so does an exported val of a
# lib/*/*.mli whose name no .ml/.mli of another module in lib/, bin/,
# bench/, perfbench/, test/ or examples/ contains as a word: an export
# nothing outside its module uses is deleted or made private.
static-check:
	dune build @check
	@if grep -rnE 'Fsim\.Serial\.detect' `ls -d lib/*/ | grep -v '^lib/fsim/$$'` \
	    bin bench examples; then \
	  echo "static-check: outside lib/fsim, call Fsim.Engine, not Fsim.Serial.detect*"; \
	  exit 1; \
	fi
	@if grep -rnE 'Podem_oracle|Sim_oracle' lib bin; then \
	  echo "static-check: the oracles are test references, not for lib/ or bin/"; \
	  exit 1; \
	fi
	@dead=""; \
	for f in lib/*/*.ml; do \
	  m=`basename $$f .ml`; \
	  M=`echo $$m | awk '{ print toupper(substr($$0, 1, 1)) substr($$0, 2) }'`; \
	  grep -rlw --include='*.ml' --include='*.mli' "$$M" lib bin bench \
	    | grep -qv "^`dirname $$f`/$$m\.mli*$$" || dead="$$dead $$M"; \
	done; \
	if [ -n "$$dead" ]; then \
	  echo "static-check: lib/ modules with no caller in lib/, bin/ or bench/:$$dead"; \
	  exit 1; \
	fi
	@dead=`find lib bin bench perfbench test examples \
	    \( -name '*.ml' -o -name '*.mli' \) | sort | xargs awk ' \
	  FNR == 1 { m = FILENAME; sub(/\.mli?$$/, "", m) } \
	  FILENAME ~ /^lib\/.*\.mli$$/ && /^ *val [a-z_]/ { \
	    v = $$0; sub(/^ *val /, "", v); sub(/[^A-Za-z0-9_].*/, "", v); \
	    vals[m ".mli: val " v] = v } \
	  { s = $$0; \
	    while (match(s, /[A-Za-z_][A-Za-z0-9_]*/)) { \
	      w = substr(s, RSTART, RLENGTH); \
	      if (!((m, w) in seen)) { seen[m, w] = 1; users[w]++ } \
	      s = substr(s, RSTART + RLENGTH) } } \
	  END { for (k in vals) if (users[vals[k]] < 2) print k }' | sort`; \
	if [ -n "$$dead" ]; then \
	  echo "static-check: exports nothing outside their module uses:"; \
	  echo "$$dead"; \
	  exit 1; \
	fi

# `fst lint` over every example netlist with scan insertion must be clean
# at error level; a seeded-defect netlist must fail; the --json rendering
# must machine-validate with `fst jsonlint`.
lint-smoke: build
	@for f in examples/data/*.net; do \
	  $(FST_EXE) lint $$f -c 1 --fail-on error > /dev/null || \
	    { echo "lint-smoke: $$f not clean at error level"; exit 1; }; \
	  echo "lint-smoke: $$f clean"; \
	done; \
	tmp=`mktemp -d`; \
	printf 'INPUT(a)\nOUTPUT(y)\ny = AND(a, b)\nb = OR(y, a)\n' \
	  > $$tmp/seeded.net; \
	if $(FST_EXE) lint $$tmp/seeded.net --no-scan --fail-on error \
	  > /dev/null 2>&1; \
	then echo "lint-smoke: seeded defect not caught"; rm -rf $$tmp; exit 1; \
	fi; \
	$(FST_EXE) lint examples/data/gray3.net -c 1 --json > $$tmp/lint.json; \
	$(FST_EXE) jsonlint $$tmp/lint.json --expect '"version"' \
	  --expect '"diagnostics"' --expect '"errors":0' || \
	  { rm -rf $$tmp; exit 1; }; \
	rm -rf $$tmp; echo "lint-smoke: OK"

# The Table 3 harness at smoke scale, so bench/ rot is caught early: it
# runs the whole flow (classify, PODEM, the fault-simulation engine) on
# every suite circuit. Fault simulation goes through Fsim.Engine only;
# its agreement with the Fsim.Serial reference on every suite circuit is
# a test ("engine = serial on suite step-2 workloads").
bench-smoke:
	FST_SCALE=0.02 dune exec -- bench/main.exe table3

FST_EXE := ./_build/default/bin/fst.exe
SMOKE_FLOW := flow -n s1423 --scale 0.25 -j 1
# Multicore variant for the observability smoke: per-domain pool metrics
# only exist when the pool actually spins up helper domains.
SMOKE_FLOW_MT := flow -n s1423 --scale 0.25 -j 2

# A near-zero wall-clock budget must exit cleanly with non-zero abort
# accounting (greppable `aborts:` lines), never crash or hang.
degradation-smoke: build
	@out=`$(FST_EXE) $(SMOKE_FLOW) --time-budget 0.001` || \
	  { echo "degradation-smoke: flow exited non-zero"; exit 1; }; \
	echo "$$out" | grep -q "budget_exhausted=true" || \
	  { echo "degradation-smoke: budget not reported exhausted"; exit 1; }; \
	echo "$$out" | grep -Eq "aborted_faults=[1-9]" || \
	  { echo "degradation-smoke: no aborted faults reported"; exit 1; }; \
	echo "degradation-smoke: OK"

# A checkpointed run resumed from its file must print the same report as a
# fresh uninterrupted run (timing lines filtered out). It is resumed twice:
# from its final checkpoint, and from a copy of the .prev rotation it
# leaves behind (its last step-3 wave), which restores partial state.
# Each resume must load its file rather than start fresh.
resume-smoke: build
	@tmp=`mktemp -d`; \
	$(FST_EXE) $(SMOKE_FLOW) | grep -v "CPU" > $$tmp/fresh.txt; \
	$(FST_EXE) $(SMOKE_FLOW) --checkpoint $$tmp/ck > /dev/null; \
	cp $$tmp/ck.prev $$tmp/wave; \
	for ck in ck wave; do \
	  $(FST_EXE) $(SMOKE_FLOW) --checkpoint $$tmp/$$ck --resume \
	    2> $$tmp/resume.err | grep -v "CPU" > $$tmp/resumed.txt; \
	  grep -q "resume: loaded checkpoint" $$tmp/resume.err || \
	    { echo "resume-smoke: $$ck not loaded"; rm -rf $$tmp; exit 1; }; \
	  diff $$tmp/fresh.txt $$tmp/resumed.txt || \
	    { echo "resume-smoke: report resumed from $$ck differs"; \
	      rm -rf $$tmp; exit 1; }; \
	done; \
	rm -rf $$tmp; echo "resume-smoke: OK"

# The full observability path: the --obs-dir artifact set (trace,
# metrics, events) plus the heartbeat on a small multicore flow, then
# machine-validate every artifact with `fst jsonlint`.
obs-smoke: build
	@tmp=`mktemp -d`; \
	$(FST_EXE) $(SMOKE_FLOW_MT) --obs-dir $$tmp/obs \
	  --progress > /dev/null 2> $$tmp/stderr.txt || \
	  { echo "obs-smoke: flow exited non-zero"; rm -rf $$tmp; exit 1; }; \
	grep -q "^\[flow\]" $$tmp/stderr.txt || \
	  { echo "obs-smoke: no heartbeat on stderr"; rm -rf $$tmp; exit 1; }; \
	$(FST_EXE) jsonlint $$tmp/obs/trace.json --expect traceEvents \
	  --expect '"cat":"phase"' || { rm -rf $$tmp; exit 1; }; \
	$(FST_EXE) jsonlint $$tmp/obs/metrics.prom \
	  --expect atpg_podem_backtracks_total \
	  --expect pool_domain0_busy_frac || \
	  { rm -rf $$tmp; exit 1; }; \
	$(FST_EXE) jsonlint $$tmp/obs/events.jsonl --expect phase_start \
	  --expect phase_end || { rm -rf $$tmp; exit 1; }; \
	rm -rf $$tmp; echo "obs-smoke: OK"

# Observability must be a pure observer: the report of an instrumented
# jobs=1 run is identical to the plain run (timing lines filtered, like
# resume-smoke).
noop-sink-smoke: build
	@tmp=`mktemp -d`; \
	$(FST_EXE) $(SMOKE_FLOW) | grep -v "CPU" > $$tmp/plain.txt; \
	$(FST_EXE) $(SMOKE_FLOW) --obs-dir $$tmp/obs \
	  2> /dev/null | grep -v "CPU" > $$tmp/obs.txt; \
	diff $$tmp/plain.txt $$tmp/obs.txt || \
	  { echo "noop-sink-smoke: instrumented report differs"; \
	    rm -rf $$tmp; exit 1; }; \
	rm -rf $$tmp; echo "noop-sink-smoke: OK"

# Seeded chaos injection under --keep-going must still produce a full
# report whose buckets partition the hard faults (the flow self-checks
# and prints `chaos: invariant ok`), on a real example and a generated
# circuit, at one and two jobs (step-3 retirement runs on pool domains,
# so waves wider than one group need their own gate), and the
# structured event log must stay machine-valid.
chaos-smoke: build
	@tmp=`mktemp -d`; \
	$(FST_EXE) gen --gates 300 --ffs 16 -o $$tmp/gen.net > /dev/null; \
	for f in examples/data/counter4.net $$tmp/gen.net; do \
	  for seed in 3 7; do \
	    for j in 1 2; do \
	      rm -rf $$tmp/obs; \
	      out=`$(FST_EXE) flow $$f -c 1 -j $$j --keep-going \
	        --chaos $$seed --chaos-p 0.08 \
	        --obs-dir $$tmp/obs 2> /dev/null` || \
	        { echo "chaos-smoke: $$f seed=$$seed -j $$j exited non-zero"; \
	          rm -rf $$tmp; exit 1; }; \
	      echo "$$out" | grep -q "chaos: invariant ok" || \
	        { echo "chaos-smoke: $$f seed=$$seed -j $$j invariant violated"; \
	          rm -rf $$tmp; exit 1; }; \
	      $(FST_EXE) jsonlint $$tmp/obs/events.jsonl --expect phase_start \
	        --expect phase_end || { rm -rf $$tmp; exit 1; }; \
	    done; \
	  done; \
	  echo "chaos-smoke: `basename $$f` OK"; \
	done; \
	rm -rf $$tmp; echo "chaos-smoke: OK"

# The run-artifact round trip: `fst flow --obs-dir` must emit a
# machine-valid artifact set (run.json schema + OpenMetrics exposition
# checked by jsonlint), `fst analyze` must render the report with its
# per-worker `domains:` section (from the pool's trace spans) at -j 2 and
# at -j 1, and pass the regression gate against an identical baseline,
# and a baseline doctored to make the current run look slower must fail
# it.
analyze-smoke: build
	@tmp=`mktemp -d`; \
	$(FST_EXE) gen --gates 400 --ffs 24 -o $$tmp/gen.net > /dev/null; \
	for f in examples/data/counter4.net $$tmp/gen.net; do \
	  rm -rf $$tmp/obs $$tmp/base; \
	  $(FST_EXE) flow $$f -c 1 -j 2 --obs-dir $$tmp/obs \
	    > /dev/null 2> /dev/null || \
	    { echo "analyze-smoke: flow --obs-dir failed on $$f"; \
	      rm -rf $$tmp; exit 1; }; \
	  $(FST_EXE) jsonlint $$tmp/obs/run.json --expect fst-run/2 \
	    --expect '"phases"' || \
	    { rm -rf $$tmp; exit 1; }; \
	  $(FST_EXE) jsonlint $$tmp/obs/metrics.prom --expect '# EOF' \
	    --expect atpg_podem_runs_total || { rm -rf $$tmp; exit 1; }; \
	  $(FST_EXE) jsonlint $$tmp/obs/events.jsonl --expect phase_start || \
	    { rm -rf $$tmp; exit 1; }; \
	  $(FST_EXE) analyze $$tmp/obs > $$tmp/report.txt || \
	    { echo "analyze-smoke: report failed on $$f"; rm -rf $$tmp; exit 1; }; \
	  grep -q '^domains:' $$tmp/report.txt || \
	    { echo "analyze-smoke: no domains section at -j 2 on $$f"; \
	      rm -rf $$tmp; exit 1; }; \
	  rm -rf $$tmp/obs1; \
	  $(FST_EXE) flow $$f -c 1 -j 1 --obs-dir $$tmp/obs1 \
	    > /dev/null 2> /dev/null && \
	  $(FST_EXE) analyze $$tmp/obs1 | grep -q '^domains:' || \
	    { echo "analyze-smoke: no domains section at -j 1 on $$f"; \
	      rm -rf $$tmp; exit 1; }; \
	  cp -r $$tmp/obs $$tmp/base; \
	  $(FST_EXE) analyze $$tmp/obs --baseline $$tmp/base > /dev/null || \
	    { echo "analyze-smoke: self-diff reported a regression on $$f"; \
	      rm -rf $$tmp; exit 1; }; \
	  sed -E 's/"wall_s":[0-9.eE+-]+/"wall_s":1e-9/' \
	    $$tmp/base/run.json > $$tmp/base/run.json.tmp && \
	    mv $$tmp/base/run.json.tmp $$tmp/base/run.json; \
	  if $(FST_EXE) analyze $$tmp/obs --baseline $$tmp/base > /dev/null; \
	  then echo "analyze-smoke: doctored baseline not caught on $$f"; \
	    rm -rf $$tmp; exit 1; \
	  fi; \
	  echo "analyze-smoke: `basename $$f` OK"; \
	done; \
	rm -rf $$tmp; echo "analyze-smoke: OK"

# `fst sca` over every example netlist must exit 0 (the command re-checks
# every emitted proof and fails on any mismatch); a seeded-redundancy
# netlist must yield at least one proven-untestable fault; the --json
# rendering must machine-validate with `fst jsonlint`.
sca-smoke: build
	@for f in examples/data/*.net; do \
	  $(FST_EXE) sca $$f -c 1 > /dev/null || \
	    { echo "sca-smoke: $$f proofs failed re-checking"; exit 1; }; \
	  echo "sca-smoke: $$f OK"; \
	done; \
	tmp=`mktemp -d`; \
	printf 'INPUT(a)\nINPUT(b)\nOUTPUT(y)\nna = NOT(a)\nt = OR(a, na)\nq = DFF(y)\ny = AND(t, b)\n' \
	  > $$tmp/redundant.net; \
	$(FST_EXE) sca $$tmp/redundant.net -c 1 > $$tmp/sca.txt || \
	  { echo "sca-smoke: seeded netlist proofs failed re-checking"; \
	    rm -rf $$tmp; exit 1; }; \
	grep -q "^untestable:" $$tmp/sca.txt || \
	  { echo "sca-smoke: seeded redundancy not proven untestable"; \
	    rm -rf $$tmp; exit 1; }; \
	$(FST_EXE) sca $$tmp/redundant.net -c 1 --json > $$tmp/sca.json; \
	$(FST_EXE) jsonlint $$tmp/sca.json --expect '"version"' \
	  --expect '"untestable"' --expect '"proof"' || \
	  { rm -rf $$tmp; exit 1; }; \
	rm -rf $$tmp; echo "sca-smoke: OK"

# The service round trip: start a daemon on a Unix socket, submit the same
# netlist twice (the second must be a cache hit with a bit-identical
# report), machine-validate the streamed event log, then shut the daemon
# down over the protocol and require a clean exit.
serve-smoke: build
	@tmp=`mktemp -d`; \
	$(FST_EXE) serve --socket $$tmp/sock --log $$tmp/serve.jsonl \
	  2> $$tmp/serve.err & pid=$$!; \
	for i in `seq 1 100`; do [ -S $$tmp/sock ] && break; sleep 0.05; done; \
	[ -S $$tmp/sock ] || \
	  { echo "serve-smoke: daemon never bound its socket"; \
	    cat $$tmp/serve.err; rm -rf $$tmp; exit 1; }; \
	$(FST_EXE) submit --socket $$tmp/sock examples/data/counter4.net \
	  -c 1 -j 1 --events $$tmp/events.jsonl \
	  > $$tmp/cold.txt 2> $$tmp/cold.err || \
	  { echo "serve-smoke: cold submit failed"; rm -rf $$tmp; exit 1; }; \
	grep -q "cached=false" $$tmp/cold.err || \
	  { echo "serve-smoke: cold submit unexpectedly cached"; \
	    rm -rf $$tmp; exit 1; }; \
	$(FST_EXE) submit --socket $$tmp/sock examples/data/counter4.net \
	  -c 1 -j 1 > $$tmp/warm.txt 2> $$tmp/warm.err || \
	  { echo "serve-smoke: warm submit failed"; rm -rf $$tmp; exit 1; }; \
	grep -q "cached=true" $$tmp/warm.err || \
	  { echo "serve-smoke: identical resubmit not served from cache"; \
	    rm -rf $$tmp; exit 1; }; \
	diff $$tmp/cold.txt $$tmp/warm.txt || \
	  { echo "serve-smoke: cache hit report not bit-identical"; \
	    rm -rf $$tmp; exit 1; }; \
	$(FST_EXE) jsonlint $$tmp/events.jsonl --expect phase_start \
	  --expect phase_end || { rm -rf $$tmp; exit 1; }; \
	$(FST_EXE) jsonlint $$tmp/serve.jsonl --expect job_submitted \
	  --expect job_done --expect cache_hit || { rm -rf $$tmp; exit 1; }; \
	$(FST_EXE) submit --socket $$tmp/sock --shutdown > /dev/null || \
	  { echo "serve-smoke: shutdown request failed"; rm -rf $$tmp; exit 1; }; \
	wait $$pid || { echo "serve-smoke: daemon exited non-zero"; \
	  rm -rf $$tmp; exit 1; }; \
	rm -rf $$tmp; echo "serve-smoke: OK"

# A/B run of the repository benchmark against a parent revision: PAIRS
# alternating runs of perfbench on each side, then per end-to-end metric
# each side's median and quartiles and the pairs the working tree wins,
# then traced runs of seeds 1 to SEEDS with the phase-share guard.
#   make perf-ab PARENT=<rev or checkout dir> WORKLOAD=fsim-tail PAIRS=10
PARENT ?= HEAD
WORKLOAD ?= fsim-tail
PAIRS ?= 10
SEEDS ?= 5
perf-ab:
	sh bench/perf-ab.sh $(PARENT) $(WORKLOAD) $(PAIRS) $(SEEDS)

clean:
	dune clean
