// ccp-lint is the repo's invariant checker: a multichecker over the six
// custom go/analysis-style passes in internal/analysis that enforce the
// hot-path ownership, aliasing, and determinism contracts the compiler
// cannot see (bufpool single-owner frames, proto.Decoder scratch aliasing,
// simulator determinism, mutex ordering, and — via the Install-gate
// verifier — the safety of statically-constructed datapath programs), and
// that no code is without a caller (unused, which takes its roots from the
// whole module whatever packages are named).
//
// Usage:
//
//	ccp-lint [-json] [-run regexp] [packages]
//
// Packages default to ./... relative to the enclosing module. The exit
// status is 0 when the tree is clean, 1 when any analyzer reports, and 2
// on load errors. There is one allowlist: a test oracle only tests call
// carries a `//lint:testsupport <reason>` line in its doc comment.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"

	"github.com/ccp-repro/ccp/internal/analysis"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array (for CI annotation)")
	run := flag.String("run", "", "only run analyzers whose name matches this regexp")
	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ccp-lint [-json] [-run regexp] [packages]\n\nanalyzers:\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(os.Stderr, "  %-16s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	analyzers := analysis.All()
	if *run != "" {
		re, err := regexp.Compile(*run)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ccp-lint: bad -run pattern: %v\n", err)
			os.Exit(2)
		}
		var keep []*analysis.Analyzer
		for _, a := range analyzers {
			if re.MatchString(a.Name) {
				keep = append(keep, a)
			}
		}
		analyzers = keep
	}
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := analysis.NewLoader(".")
	if err != nil {
		fmt.Fprintf(os.Stderr, "ccp-lint: %v\n", err)
		os.Exit(2)
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ccp-lint: %v\n", err)
		os.Exit(2)
	}
	// The full suite also runs the directive hygiene pass (reasonless or
	// stale directives); a -run filter skips it, since a partial analyzer
	// set cannot tell a stale directive from one excusing an unrun analyzer.
	var diags []analysis.Diagnostic
	if *run == "" {
		diags, err = analysis.RunAll(pkgs)
	} else {
		diags, err = analysis.Run(pkgs, analyzers)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ccp-lint: %v\n", err)
		os.Exit(2)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintf(os.Stderr, "ccp-lint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
		if len(diags) == 0 {
			fmt.Printf("ccp-lint: %d packages clean (%d analyzers)\n", len(pkgs), len(analyzers))
		}
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}
