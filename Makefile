# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build fmt-check vet test test-short test-debugasserts race check chaos serve-chaos bench experiments fig4 serve serve-smoke obs-smoke clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Formatting gate: fails, listing the files, when gofmt would change any
# Go file in the tree.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l . lists unformatted files:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Exercise the debug-build weight assertions (release builds return 0 on a
# negative weight; -tags tivadebug panics instead).
test-debugasserts:
	$(GO) test -tags tivadebug ./internal/core/...

# Race-detect the concurrent machinery: the hardened seed-sweep runner,
# the fault-injection framework it drives, the campaign scheduler, the
# verified record log under the checkpoint and journal, the chaos I/O
# seam, the torture harness and its three crash protocols, the
# multi-tenant campaign server, and the hot-path structures the parallel
# campaign touches (the act-path harness in internal/mitigation/all).
race:
	$(GO) test -race ./internal/sim/... ./internal/faults/... ./internal/campaign/... ./internal/recordlog/... ./internal/iofault/... ./internal/chaostest/... ./internal/serve/... ./internal/mitigation/all/... ./internal/bitset/... ./internal/obs/...

# The full pre-merge gate: formatting, build, vet, tests (both assertion
# modes), race tests.
check: fmt-check build vet test test-debugasserts race

# Crash-consistency torture: kill a live campaign at checkpoint-commit
# boundaries under injected I/O faults, corrupt the checkpoint, resume,
# and require the final report to be byte-identical to an undisturbed
# run. CHAOS_SEED selects the torture schedule.
CHAOS_SEED ?= 1
chaos:
	$(GO) run ./cmd/experiments -chaos-seed $(CHAOS_SEED) -progress chaos

# Crash-durability torture for the serving layer: a journaled server is
# hard-killed at a seeded commit ordinal, its journal tail torn,
# then restarted — every accepted job must be re-admitted from the
# write-ahead journal and re-rendered byte-identically, duplicate
# Idempotency-Key POSTs answered with the original id and zero
# re-executions, pre-crash SSE resume tokens refused with a snapshot,
# and quarantine corpses bounded. CHAOS_SEED selects the kill placement.
serve-chaos:
	$(GO) run ./cmd/experiments -chaos-seed $(CHAOS_SEED) -progress serve-chaos

bench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate every table and figure of the paper's evaluation.
experiments:
	$(GO) run ./cmd/experiments all

# Full-scale (Table I) headline numbers; slow.
experiments-paper:
	$(GO) run ./cmd/experiments -paper -windows 1 -seeds 3 table3

fig4:
	$(GO) run ./cmd/experiments -svg fig4.svg fig4

# Long-running multi-tenant campaign server: POST campaign specs, stream
# progress over SSE, share results cross-tenant through the checkpoint
# cache, drain gracefully on SIGINT/SIGTERM. See EXPERIMENTS.md for the
# HTTP API walkthrough.
serve:
	$(GO) run ./cmd/experiments -checkpoint serve-cache.json serve

# Serving-layer smoke: race-built server, two tenants with overlapping
# campaigns, dedup hits asserted, clean drain on SIGTERM within a
# deadline — plus a /metrics scrape (admitted jobs and dedup hits
# nonzero, gauges back to zero after the queue drains).
serve-smoke:
	bash scripts/serve_smoke.sh

# Observability smoke: run a small real campaign with the flight
# recorder armed (-metrics-out, -trace-out), then validate both
# artifacts with scripts/obscheck — the metrics dump must be well-formed
# Prometheus text exposition carrying the act-path and campaign
# families, and the trace must be Chrome trace-event JSON (Perfetto-
# loadable) containing cell and run-attempt spans.
obs-smoke:
	$(GO) run ./cmd/experiments -seeds 1 -windows 1 -trials 2 \
	  -metrics-out obs-metrics.txt -trace-out obs-trace.json flooding >/dev/null
	$(GO) run ./scripts/obscheck -metrics obs-metrics.txt -trace obs-trace.json \
	  -require-metrics tivapromi_accesses_total,tivapromi_acts_total,tivapromi_cells_completed_total,tivapromi_run_attempts_total,tivapromi_dedup_hits_total \
	  -require-spans cell,run-attempt

clean:
	$(GO) clean ./...
	rm -f fig4.svg obs-metrics.txt obs-trace.json
