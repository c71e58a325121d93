.PHONY: all test lint-knobs region-test fault-test trace-test server-smoke server-smoke-chaos fleet-smoke fleet-smoke-chaos watch-smoke watch-smoke-chaos bench kernel-bench perf-check bench-baseline perfbench-smoke doc docs-check clean

all:
	dune build @all

test:
	dune runtest

# Production code takes no behaviour switches from the environment: fail
# if lib/ or bin/ reads an environment variable. test/ is exempt
# (trace-test below sets TML_TRACE for the chaos suite).
lint-knobs:
	@if grep -rnE '(Sys|Unix)\.getenv' lib bin; then \
	  echo "lint-knobs: environment reads in lib/ or bin/ (listed above)"; \
	  exit 1; \
	fi
	@echo "lint-knobs: ok"

# Region backend only: interval edge cases, certified repair, and the
# differential verdict-soundness suite against the exact checker.
region-test:
	dune exec -- test/test_region.exe

# Chaos suite only: fault injection, supervision, retries, deadlines.
fault-test:
	dune exec -- test/test_faults.exe

# Chaos suite with span recording live (tracing hot paths under faults).
trace-test:
	TML_TRACE=1 dune exec -- test/test_faults.exe

# Server smoke: `tml serve` on a Unix socket, a 20-request mixed client
# batch over all four repair kinds, then SIGTERM and a clean-drain check.
server-smoke:
	scripts/server_smoke.sh

# Same, with faults injected at the connection read/write sites: requests
# may fail with typed errors, but the server must survive and drain.
server-smoke-chaos:
	scripts/server_smoke.sh --chaos

# Fleet smoke: 4 backend nodes behind a consistent-hashing coordinator,
# a 24-job batch byte-compared against a single-node reference server,
# then a ring drain and a clean coordinator SIGTERM drain.
fleet-smoke:
	scripts/fleet_smoke.sh

# Same, with one backend SIGKILLed mid-batch: every job must still
# complete with the identical report (re-route + replica + resubmit),
# and the ejection must be visible in `tml fleet status`.
fleet-smoke-chaos:
	scripts/fleet_smoke.sh --chaos

# Watch smoke: register a watch, stream a violating trace in chunks, and
# assert the follower receives violation + repair pushes, the stats
# section counts the subscription, and --from-seq replays the history.
watch-smoke:
	scripts/watch_smoke.sh

# Same, plus two failure drills: a SIGKILLed follower reconnecting with
# --from-seq must miss no violation, and a SIGKILLed fleet backend must
# leave watch state intact with repairs re-routed to the survivor.
watch-smoke-chaos:
	scripts/watch_smoke.sh --chaos

bench:
	dune exec -- bench/main.exe

# Per-primitive kernel scaling ladder (mono mul, ratio add, eliminate,
# arena eval) at 1/2/4/8 domains; rungs above this machine's core count
# are reported as skipped, never fabricated.
kernel-bench:
	dune exec -- bench/main.exe --kernel-scaling

# Perf gate: runtime-scaling comparison + the tracked symbolic-kernel,
# e2/e4 elimination, kernel-scaling (1-domain rungs) and region-lifting
# benches; fails if any tracked bench regresses >20% against
# bench/results/baseline.json.
perf-check:
	dune exec -- bench/main.exe --perf-check

# Rewrite the committed perf baseline (run on a quiet machine, then commit).
bench-baseline:
	dune exec -- bench/main.exe --update-baseline

# End-to-end benchmark smoke: every perfbench workload for 1.5 s on two
# seeds (plus one traced run), each reply checked by the in-process
# oracle; fails if any run has a failed or wrong reply.
perfbench-smoke:
	python3 perfbench/run.py --smoke

# API docs (requires odoc: `opam install odoc`).
doc:
	dune build @doc

# Documentation freshness gate: odoc with warnings fatal, dead relative
# links in docs/*.md + README.md, and docs flag names vs `tml --help`.
docs-check:
	scripts/docs_check.sh

clean:
	dune clean
