package main

import (
	"flag"
	"os"
	"regexp"
	"testing"

	"repro/internal/version"
)

// TestMain pins the code version stamp: the golden files embed the
// version field of every -json document, and a stamp derived from the
// build environment would make them machine-dependent.
func TestMain(m *testing.M) {
	version.Override("dev")
	os.Exit(m.Run())
}

// TestUsageListsEveryFlag: every flag parseFlags registers appears in
// the usage text, as a whole flag name (-cache is not found inside
// -cache-dir).
func TestUsageListsEveryFlag(t *testing.T) {
	text := usageText()
	newFlagSet("test", &cliFlags{}).VisitAll(func(f *flag.Flag) {
		if !regexp.MustCompile(`-` + regexp.QuoteMeta(f.Name) + `([^\w-]|$)`).MatchString(text) {
			t.Errorf("usage does not list -%s", f.Name)
		}
	})
}
