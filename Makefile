.PHONY: all build test check examples ci fmt mutants lint-src race-check bench-json validate-bench perfbench-smoke clean

all: build

build:
	dune build @all

test: build
	dune runtest

# Full verification: build, test suite, then every example scenario and
# the demo subcommands under --check (whole-machine invariant scan +
# probe-trace lint; any finding is a non-zero exit), the static source
# audit, the domain-race sanitizer, and a bounded model-check of the
# privilege state space (exit 2 on counterexample).
check: test examples lint-src race-check
	dune exec bin/cki_demo.exe -- micro --check
	dune exec bin/cki_demo.exe -- attack --check
	dune exec bin/cki_demo.exe -- kv --check --clients 8
	dune exec bin/cki_demo.exe -- serve --check --containers 2 --requests 50
	dune exec bin/cki_demo.exe -- clone --check
	dune exec bin/cki_demo.exe -- fleet --check --tenants 2 --rate 45000 -r 2000
	dune exec bin/cki_demo.exe -- migrate --check --chaos
	dune exec bin/cki_demo.exe -- model-check --depth 8

# Mutation testing: every seeded enforcement mutant must be killed by
# the model checker (exit 1 if any survives).
mutants: build
	dune exec bin/cki_demo.exe -- model-check --mutants

# Static source audit: TCB write-sink containment, layering DAG,
# domain-safety inventory, hygiene.  Exit 2 on any finding not covered
# by srclint.baseline.
lint-src: build
	dune exec bin/cki_demo.exe -- lint-src

# Domain-race sanitizer: the static interprocedural sharing analysis
# over every Domain.spawn closure plus a sharded serve run under the
# dynamic cross-domain access checker (including the --inject
# self-test, run separately because its seeded race makes race-check
# itself exit 2).  Exit 2 on any finding.
race-check: build
	dune exec bin/cki_demo.exe -- race-check
	dune exec bin/cki_demo.exe -- race-check --inject; test $$? -eq 2

# Regenerate every checked-in benchmark artifact (BENCH_*.json) in the
# repo root.  Each bench writes its file into the current directory.
bench-json: build
	dune exec bench/main.exe -- --json snapshot modelcheck ioplane fleet migration srclint racecheck engine micro
	$(MAKE) validate-bench

# Parse every checked-in BENCH_*.json with the in-repo JSON parser
# (Report.Json.parse); exit non-zero if any artifact is malformed.
validate-bench: build
	dune exec bench/main.exe -- validate

# One-second run of every perfbench workload: each must exit 0 and
# report "correct": true on its final JSON line.
perfbench-smoke: build
	@for w in fleet-serve guest-memory clone-migrate; do \
		out=$$(bash perfbench/run.sh --workload $$w --seed 1 --seconds 1 --trace 0) \
			|| { echo "perfbench-smoke: $$w exited non-zero"; exit 1; }; \
		echo "$$out" | tail -n 1 | grep -q '"correct": true' \
			|| { echo "perfbench-smoke: $$w did not report \"correct\": true"; exit 1; }; \
		echo "perfbench-smoke: $$w ok"; \
	done

# Formatting check; a no-op (with a note) where ocamlformat is not
# installed, so `ci` works in minimal containers too.
fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
		dune build @fmt; \
	else \
		echo "ocamlformat not installed; skipping format check"; \
	fi

# The pre-PR gate: formatting (when available), the full test suite,
# the example/demo scenarios under the invariant scanner, the artifact
# parse check, and a smoke run of the perfbench workloads.
ci: build fmt
	dune runtest
	$(MAKE) check
	$(MAKE) validate-bench
	$(MAKE) perfbench-smoke

examples: build
	dune exec examples/quickstart.exe
	dune exec examples/security_attacks.exe
	dune exec examples/nested_cloud.exe
	dune exec examples/sqlite_tmpfs.exe
	dune exec examples/kv_serving.exe
	dune exec examples/traffic_serving.exe
	dune exec examples/fleet_autoscale.exe
	dune exec examples/live_migration.exe

clean:
	dune clean
