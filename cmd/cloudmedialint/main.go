// Command cloudmedialint runs the repo's custom static analyzers (see
// internal/analysis): determinism, boundary, noloss, and hotpath. It is
// the teeth behind `make lint`.
//
// Run it from anywhere in the module:
//
//	go run ./cmd/cloudmedialint ./...
//	cloudmedialint ./internal/fluid ./internal/sim
//
// Exit status is 1 when any diagnostic is reported, 0 on a clean tree.
package main

import (
	"flag"
	"fmt"
	"os"

	"cloudmedia/internal/analysis"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: cloudmedialint [packages]\n\nAnalyzers:\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	os.Exit(standalone(flag.Args()))
}

func standalone(patterns []string) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	root, err := analysis.ModuleRoot(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	pkgs, err := analysis.Load(root, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	diags, err := analysis.Run(pkgs, analysis.All())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "cloudmedialint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
