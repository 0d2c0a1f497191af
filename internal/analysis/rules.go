package analysis

import "strings"

// enginePackages are the deterministic simulation core: everything a
// seeded run's bit-identical guarantee (paced vs batch, any worker count,
// byte-stable sweep CSVs) flows through. These packages must not read the
// wall clock, the global rand source, or iterate maps in an
// order-sensitive way — internal/serve is the one sanctioned wall-clock
// owner and deliberately outside this set.
var enginePackages = map[string]bool{
	"cloudmedia/internal/cloud":     true,
	"cloudmedia/internal/core":      true,
	"cloudmedia/internal/fluid":     true,
	"cloudmedia/internal/geo":       true,
	"cloudmedia/internal/provision": true,
	"cloudmedia/internal/sim":       true,
	"cloudmedia/internal/stack":     true,
	"cloudmedia/internal/trace":     true,
	"cloudmedia/internal/workload":  true,
}

// isEnginePackage reports whether path is in the deterministic core.
func isEnginePackage(path string) bool { return enginePackages[path] }

// isInternalPackage reports whether path is under cloudmedia/internal.
func isInternalPackage(path string) bool {
	return path == "cloudmedia/internal" || strings.HasPrefix(path, "cloudmedia/internal/")
}

// isPublicConsumer reports whether path is one of the packages that must
// compile against the public API alone: examples/ and cmd/ are the
// reference consumers of the SDK, and pkg/sweep is deliberately built
// purely on the public facades, proving the surface is sufficient to
// write an orchestration layer. cmd/cloudmedialint is carved out: the
// linter is a development tool built on internal/analysis by necessity,
// not an SDK consumer.
func isPublicConsumer(path string) bool {
	if path == "cloudmedia/cmd/cloudmedialint" {
		return false
	}
	return strings.HasPrefix(path, "cloudmedia/examples/") ||
		path == "cloudmedia/cmd" || strings.HasPrefix(path, "cloudmedia/cmd/") ||
		path == "cloudmedia/pkg/sweep" || strings.HasPrefix(path, "cloudmedia/pkg/sweep/")
}

// isFacadeOrRoot reports whether path is the root SDK package or a public
// facade — layers above the engines that engines must never import back.
func isFacadeOrRoot(path string) bool {
	return path == "cloudmedia" || path == "cloudmedia/pkg" || strings.HasPrefix(path, "cloudmedia/pkg/")
}

// isServePackage reports whether path is the live control plane.
func isServePackage(path string) bool {
	return path == "cloudmedia/internal/serve" || strings.HasPrefix(path, "cloudmedia/internal/serve/")
}
