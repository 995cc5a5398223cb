PYTHON ?= python
export PYTHONPATH := src

.PHONY: test loc reach e2e e2e-one bench-pytest profile sweep-identical chaos-smoke byz-smoke membership-smoke shard-smoke service-smoke trace-smoke-core list-scenarios clean

# Scenario to profile with `make profile` (override: make profile SCENARIO=...).
SCENARIO ?= bench/hashchain-heavy

test:
	$(PYTHON) -m pytest -q

# Line counts of src/ and of tests/*.py, tracked per PR like a benchmark
# (ROADMAP item 26), each with its delta against the parent commit: neither
# count may go up.  $(call loc_of,label,find roots,git path regex)
loc_of = now=$$(find $(2) -name '*.py' -exec cat {} + | wc -l); \
	was=$$(git ls-tree -r --name-only HEAD~1 2>/dev/null | grep -E '$(3)' \
	  | sed 's/^/HEAD~1:/' | xargs -r git show 2>/dev/null | wc -l); \
	if [ "$$was" -gt 0 ]; then \
	  echo "$(1): $$now lines ($$(printf '%+d' $$((now - was))) against HEAD~1's $$was)"; \
	else echo "$(1): $$now lines (no HEAD~1 to compare with)"; fi
loc:
	@$(call loc_of,src,src,^src/.*\.py$$)
	@$(call loc_of,tests/*.py,tests -maxdepth 1,^tests/[^/]*\.py$$)

# The reach audit (ROADMAP item 26): the examples, the README's python
# blocks (tests/test_readme.py), the five workloads, the paper-shape suite,
# the *-smoke targets, CI's CLI smoke and a --scale 20 sweep of the catalog
# run under one profile hook; benchmarks/reach.txt is rewritten with every
# src/ function none of them entered, each classified needed/duplicate/dead
# (about 10 min).
reach:
	$(PYTHON) benchmarks/reach.py

# The repo benchmark (BENCHMARK.json): all five pinned workloads, end-to-end
# metrics only.  Reports land in the git-ignored benchmarks/e2e/out/.
e2e:
	python3 benchmarks/e2e/run.py --trace 0

# One workload with its traced pass (per-layer spans, host.calls_per_el):
# make e2e-one WORKLOAD=perelement-vanilla.  Exits non-zero on a failed
# output check, never on a wall-clock number.
WORKLOAD ?= service-durable
e2e-one:
	python3 benchmarks/e2e/run.py --workload $(WORKLOAD) --trace 1

bench-pytest:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# cProfile one scenario (override the target: make profile SCENARIO=bench/vanilla).
# It finds candidates; the numbers that count come from `make e2e`, unprofiled.
profile:
	$(PYTHON) -m repro profile $(SCENARIO) --limit 30 \
	  --out-collapsed results/profile-collapsed.txt

# The determinism bar every family is held to: the same (selection, seed 7)
# swept serially and over four worker processes writes byte-identical files.
#   make sweep-identical SELECT="--family shard" OUT=results/shard
# TRACE=1 also writes each run's Chrome trace beside its artifact, so the
# trace files are compared too.
SELECT ?= --contains chaos/smoke
OUT ?= results/sweep
sweep = $(PYTHON) -m repro sweep $(SELECT) --quiet --seed 7 --jobs $(1) \
  --out $(OUT)-j$(1) $(if $(TRACE),--trace-sample 1.0 --trace-dir $(OUT)-j$(1))
sweep-identical:
	$(call sweep,1)
	$(call sweep,4)
	diff -rq $(OUT)-j1 $(OUT)-j4
	@echo "$(SELECT): $$(ls $(OUT)-j1 | wc -l) file(s) byte-identical under --jobs 1 vs --jobs 4"

# One chaos scenario end to end: run it, render the resilience report, and
# prove the fault schedule is byte-identical under serial vs parallel sweeps.
chaos-smoke:
	$(PYTHON) -m repro run chaos/smoke --json results/chaos-smoke.json
	$(PYTHON) -m repro report results/chaos-smoke.json
	$(MAKE) sweep-identical SELECT="--contains chaos/smoke" OUT=results/chaos

# One adversarial scenario end to end: run it, render the resilience and
# Byzantine-attribution reports, and prove the schedule is byte-identical
# under serial vs parallel sweeps.
byz-smoke:
	$(PYTHON) -m repro run byz/smoke --json results/byz-smoke.json
	$(PYTHON) -m repro report results/byz-smoke.json
	$(MAKE) sweep-identical SELECT="--contains byz/smoke" OUT=results/byz

# The whole dynamic-membership family (runtime joins with state transfer,
# draining leaves, validator replacement, elastic service shapes) under
# serial vs parallel sweeps: every artifact must be byte-identical, then the
# report renders the membership timelines.
membership-smoke:
	$(MAKE) sweep-identical SELECT="--contains member/" OUT=results/member
	$(PYTHON) -m repro report results/member-j1/member__service__elastic.json \
	  results/member-j1/member__smoke.json

# Sharded scale-out drill: the 2- and 4-shard scale scenarios run and render
# their per-shard tables, the whole shard/ family is byte-identical under
# serial vs parallel sweeps, and Properties 1 and 3-8 hold on the merged
# logical view of a sharded run.  The f-budget is scoped per shard: one
# equivocating server in each 3-server shard builds and keeps them, while two
# in one shard leave it below its quorum and the build must refuse them.
shard-smoke:
	mkdir -p results
	$(PYTHON) -m repro run shard/scale/s2 --json results/shard-s2.json --quiet
	$(PYTHON) -m repro run shard/scale/s4 --json results/shard-s4.json --quiet
	$(PYTHON) -m repro report results/shard-s2.json results/shard-s4.json
	$(MAKE) sweep-identical SELECT="--family shard" OUT=results/shard
	$(PYTHON) -c "from repro import Scenario; \
	  session = (Scenario.hashchain().servers(2).shards(2).rate(300) \
	    .collector(20).inject_for(5).drain(30).backend('ideal').seed(11) \
	    .session().start()); \
	  session.run_to_completion(); \
	  violations = session.check_logical_properties(); \
	  assert violations == [], violations; \
	  print('merged logical view: Properties 1 and 3-8 hold over', \
	        len(session.logical_view().the_set), 'elements')"
	$(PYTHON) -c "from repro import Scenario; \
	  session = (Scenario.hashchain().servers(3).shards(2).rate(300) \
	    .collector(20).inject_for(6).drain(30).backend('ideal') \
	    .become_byzantine(1.0, 'server-0', behaviour='equivocate', until=4.0) \
	    .become_byzantine(1.0, 'server-3', behaviour='equivocate', until=4.0) \
	    .session().start()); \
	  session.run_to_completion(); \
	  violations = session.check_properties(); \
	  assert violations == [], violations; \
	  print('one Byzantine server per shard: Properties 1 and 3-8 hold')"
	! $(PYTHON) -c "from repro import Scenario; \
	  (Scenario.hashchain().servers(3).shards(2).rate(300) \
	    .collector(20).inject_for(6).drain(30).backend('ideal') \
	    .become_byzantine(1.0, 'server-0', behaviour='equivocate', until=4.0) \
	    .become_byzantine(1.0, 'server-1', behaviour='equivocate', until=4.0) \
	    .build())" 2> results/shard-budget.err
	grep "'hashchain#shard0' group below quorum" results/shard-budget.err

# Service mode end to end: start a service on a durable sqlite ledger,
# stream 1k elements through the ingress queue while probing /metrics every
# tick (the run fails below 90% probe availability), shut down cleanly, then
# restart on the same database (resume) and audit the persisted chain.
service-smoke:
	mkdir -p results && rm -f results/service-smoke.sqlite
	$(PYTHON) -m repro serve service/smoke --db results/service-smoke.sqlite \
	  --rate 250 --duration 4 --settle 6 --min-availability 0.9
	$(PYTHON) -m repro serve service/smoke --db results/service-smoke.sqlite \
	  --rate 100 --duration 2 --settle 6 --min-availability 0.9
	$(PYTHON) -m repro service inspect results/service-smoke.sqlite

# Observability end to end: trace a chaos and a service scenario (both export
# formats), validate the trace schemas, prove trace files byte-identical
# under serial vs parallel sweeps, and validate the Prometheus exposition
# against a live endpoint.  What the hooks cost with tracing off is inside
# every BENCHMARK.json workload's wall_el_per_s: all five run untraced.
trace-smoke-core:
	$(PYTHON) -m repro trace chaos/smoke --seed 7 \
	  --out results/trace-chaos.trace.json
	$(PYTHON) -m repro validate-trace results/trace-chaos.trace.json \
	  --min-tracks 3
	$(PYTHON) -m repro trace service/smoke --seed 7 --format jsonl \
	  --out results/trace-service.trace.jsonl
	$(PYTHON) -m repro validate-trace results/trace-service.trace.jsonl \
	  --min-tracks 3
	$(MAKE) sweep-identical SELECT="--contains chaos/smoke" OUT=results/trace TRACE=1
	$(PYTHON) -m repro prom-smoke

list-scenarios:
	$(PYTHON) -m repro list-scenarios

clean:
	rm -rf results .pytest_cache
	find . -type d -name __pycache__ -prune -exec rm -rf {} +
