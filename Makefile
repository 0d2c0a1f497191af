# Developer entry points; CI runs the same targets.

.PHONY: test shuffle race daybench bench fmt vet cross lint verify profile

test:
	go build ./... && go test ./...

# Tests in random order, so accidental order dependence surfaces.
shuffle:
	go test -shuffle=on ./...

race:
	go test -race ./...

# daybench/ is a nested module that ./... stops at: vet and test it too.
daybench:
	cd daybench && go vet ./... && go test ./...

# Key benchmarks → the next BENCH_PR<N>.json snapshot (the cross-PR perf
# trajectory), then the gate against the newest committed snapshot: fail
# on >20% ns/op regression. Benchmarks new in this snapshot (no baseline
# entry) are reported one-sided, never failed. `make bench OUT=file`
# names the snapshot explicitly.
bench:
	./scripts/bench.sh $(OUT)

# Profile the 10M-viewer fluid day under pprof: cpu.pprof and mem.pprof
# land in the repo root; inspect with `go tool pprof cpu.pprof`.
profile:
	go test -run '^$$' -bench 'BenchmarkFluid10MViewers/pool' -benchtime 1x \
	    -cpuprofile cpu.pprof -memprofile mem.pprof .
	@echo "wrote cpu.pprof and mem.pprof; open with: go tool pprof cpu.pprof"

# gofmt must have nothing to rewrite. CI's lint job runs the same check.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	go vet ./...

# The module must vet on a 32-bit target and build on arm64, neither of
# which needs a download. Only compiling is checked: four exact goldens
# still differ on 386 (ROADMAP item 3), so its tests stay out.
cross:
	GOARCH=386 go vet ./...
	GOARCH=arm64 go build ./...

# The project's own analyzers (determinism, boundary, noloss, hotpath)
# over the whole module. Suppress a finding only with a justified
# //cloudmedia:allow <analyzer> -- <reason> directive; see DESIGN.md.
lint:
	go build ./...
	go run ./cmd/cloudmedialint ./...

# Everything CI's lint and build-and-test jobs run apart from benches,
# smokes and staticcheck, which stays CI-only because it needs a
# download.
verify: fmt vet cross test shuffle race lint daybench
