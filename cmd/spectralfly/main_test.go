package main

import (
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/exp"
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

// TestDispatchErrorPrefixOnce: an exhibit error that already carries
// the exhibit's name is printed with that prefix once, and any other
// error gains it.
func TestDispatchErrorPrefixOnce(t *testing.T) {
	for _, tc := range []struct {
		cmd  string
		fl   cliFlags
		want string
	}{
		{"sweep", cliFlags{topos: "lps(11,7)", conc: 2, loads: "NaN", jsonOut: true,
			sim: exp.SimOptions{Ranks: 64, MsgsPerRank: 2}},
			"sweep: offered load NaN out of (0,1]\n"},
		{"fig5", cliFlags{class: 9, jsonOut: true}, "fig5: "},
	} {
		f, err := os.CreateTemp(t.TempDir(), "stderr")
		if err != nil {
			t.Fatal(err)
		}
		saved := os.Stderr
		os.Stderr = f
		code := dispatch(tc.cmd, tc.fl)
		os.Stderr = saved
		got, err := os.ReadFile(f.Name())
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if code != 1 {
			t.Errorf("%s: exit %d, want 1", tc.cmd, code)
		}
		if !strings.HasPrefix(string(got), tc.want) || strings.Count(string(got), tc.cmd+":") != 1 {
			t.Errorf("%s: stderr %q, want one %q prefix (%q)", tc.cmd, got, tc.cmd+":", tc.want)
		}
	}
}
