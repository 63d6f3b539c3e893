package analysis

import (
	"fmt"
	"sort"
)

// canonicalOrder fixes the presentation order of the suite: the order
// checks are listed by -list, registered as SARIF rules, and documented
// in README. Findings themselves are always position-sorted, so this
// order never affects gating — only how humans read the rule table.
var canonicalOrder = []string{
	"simtime",
	"ctxflow",
	"detmap",
	"countergroup",
	"floateq",
	"lockcheck",
	"ioctlsize",
	"obsevent",
	"errtaxonomy",
	"channelreg",
	"defensereg",
	"doccheck",
}

var registry = map[string]*Analyzer{}

// Register adds a check to the suite. Each analyzer file registers its
// check from an init function, so DefaultAnalyzers and the metadata
// consumers (SARIF rules, -list, the waiver ledger) can never drift from
// the set of checks that actually run. Registering a duplicate or
// unknown-to-canonicalOrder name panics: both are programming errors in
// this package, not runtime conditions.
func Register(a *Analyzer) {
	if a.Name == "" || a.Run == nil {
		panic("analysis: Register needs a Name and a Run")
	}
	if _, dup := registry[a.Name]; dup {
		panic(fmt.Sprintf("analysis: duplicate analyzer %q", a.Name))
	}
	found := false
	for _, n := range canonicalOrder {
		if n == a.Name {
			found = true
			break
		}
	}
	if !found {
		panic(fmt.Sprintf("analysis: analyzer %q missing from canonicalOrder", a.Name))
	}
	if a.Severity == "" {
		a.Severity = "error"
	}
	registry[a.Name] = a
}

// DefaultAnalyzers returns every registered check in canonical order.
func DefaultAnalyzers() []*Analyzer {
	out := make([]*Analyzer, 0, len(registry))
	for _, name := range canonicalOrder {
		if a, ok := registry[name]; ok {
			out = append(out, a)
		}
	}
	// Defensive: anything registered but missing from canonicalOrder is
	// unreachable (Register panics), but keep the invariant explicit.
	if len(out) != len(registry) {
		extra := make([]string, 0)
		for n := range registry {
			extra = append(extra, n)
		}
		sort.Strings(extra)
		panic(fmt.Sprintf("analysis: registry/canonicalOrder drift: %v", extra))
	}
	return out
}

// ByName looks up one registered check.
func ByName(name string) (*Analyzer, bool) {
	a, ok := registry[name]
	return a, ok
}
