// Command bmclint is the repo's custom static-analysis suite, run as a
// vet tool:
//
//	go build -o /tmp/bmclint ./cmd/bmclint
//	go vet -vettool=/tmp/bmclint ./...
//
// It speaks cmd/go's unitchecker protocol (-V=full, -flags, and one
// vet .cfg invocation per package), so findings integrate with go vet's
// caching and output. Any other invocation prints a usage line and
// exits 2. See internal/lint for the analyzers.
package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	// cmd/go probes vet tools for identity and flags before use.
	for _, a := range args {
		switch {
		case a == "-V=full" || a == "--V=full":
			fmt.Fprintf(stdout, "bmclint version devel buildID=%s\n", selfID())
			return 0
		case a == "-flags" || a == "--flags":
			fmt.Fprintln(stdout, "[]")
			return 0
		}
	}
	// The final argument is the per-package config file.
	if n := len(args); n > 0 && strings.HasSuffix(args[n-1], ".cfg") {
		return lint.RunVetTool(stderr, args[n-1], lint.All())
	}
	fmt.Fprintln(stderr, "usage: go vet -vettool=$(which bmclint) [packages]")
	return 2
}

// selfID hashes the executable so go vet's build cache invalidates
// cached results whenever the tool binary changes.
func selfID() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	sum := h.Sum(nil)
	return fmt.Sprintf("%x/%x", sum[:16], sum[16:])
}
