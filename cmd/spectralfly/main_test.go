package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/topo"
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

// runCLI runs one command line (the subcommand, then its flags)
// through the flag set and dispatch, and returns its exit code and
// what it wrote to stdout and stderr.
func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var fl cliFlags
	if err := newFlagSet(args[0], &fl).Parse(args[1:]); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	outPath, errPath := filepath.Join(dir, "stdout"), filepath.Join(dir, "stderr")
	outF, err := os.Create(outPath)
	if err != nil {
		t.Fatal(err)
	}
	defer outF.Close()
	errF, err := os.Create(errPath)
	if err != nil {
		t.Fatal(err)
	}
	defer errF.Close()
	savedOut, savedErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = outF, errF
	code = dispatch(args[0], fl)
	os.Stdout, os.Stderr = savedOut, savedErr
	out, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	errOut, err := os.ReadFile(errPath)
	if err != nil {
		t.Fatal(err)
	}
	return code, string(out), string(errOut)
}

// TestDispatchErrorPrefixOnce: an exhibit error that already carries
// the exhibit's name is printed with that prefix once, and any other
// error gains it.
func TestDispatchErrorPrefixOnce(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"sweep", "-topos", "lps(11,7)", "-conc", "2", "-loads", "NaN", "-ranks", "64", "-msgs", "2", "-json"},
			"sweep: offered load NaN out of (0,1]\n"},
		{[]string{"fig5", "-classes", "9", "-json"}, "fig5: "},
	} {
		cmd := tc.args[0]
		code, _, got := runCLI(t, tc.args...)
		if code != 1 {
			t.Errorf("%s: exit %d, want 1", cmd, code)
		}
		if !strings.HasPrefix(got, tc.want) || strings.Count(got, cmd+":") != 1 {
			t.Errorf("%s: stderr %q, want one %q prefix (%q)", cmd, got, cmd+":", tc.want)
		}
	}
}

// TestClassesFlag: -classes selects the size classes of fig3 and fig5,
// as it does for table1 and fig4-rawbw, rather than each exhibit's
// default class.
func TestClassesFlag(t *testing.T) {
	for _, tc := range []struct {
		cmd     string
		classes string
		want    []int
	}{
		{"fig3", "2", []int{2}},
		{"fig3", "0,1", []int{0, 1}},
		{"fig5", "0", []int{0}},
	} {
		code, out, errOut := runCLI(t, tc.cmd, "-classes", tc.classes, "-json")
		if code != 0 {
			t.Fatalf("%s -classes %s: exit %d: %s", tc.cmd, tc.classes, code, errOut)
		}
		var doc struct{ Result []struct{ Name string } }
		if err := json.Unmarshal([]byte(out), &doc); err != nil {
			t.Fatal(err)
		}
		var got, want []string
		for _, r := range doc.Result {
			if len(got) == 0 || got[len(got)-1] != r.Name {
				got = append(got, r.Name)
			}
		}
		for _, c := range tc.want {
			for _, v := range topo.TableIPaperValues[c] {
				want = append(want, v.Name)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s -classes %s: topologies %v, want %v", tc.cmd, tc.classes, got, want)
		}
	}
}

// TestSweepRejectsBadConcentration: -conc below 1 is an error, not a
// silent concentration-1 grid. sweep reports it and exits 1; serve and
// a submit worker build their grid from the same spec and fail on it
// the same way.
func TestSweepRejectsBadConcentration(t *testing.T) {
	for _, conc := range []string{"-3", "0"} {
		args := []string{"sweep", "-topos", "lps(11,7)", "-conc", conc, "-loads", "0.3", "-ranks", "64", "-msgs", "2", "-json"}
		code, _, errOut := runCLI(t, args...)
		if code != 1 || !strings.Contains(errOut, "concentration") {
			t.Errorf("sweep -conc %s: exit %d, stderr %q; want 1 and a concentration error", conc, code, errOut)
		}
		var fl cliFlags
		if err := newFlagSet("serve", &fl).Parse(args[1:]); err != nil {
			t.Fatal(err)
		}
		sw, err := specFromFlags(fl).sweep()
		if err == nil {
			_, err = sw.Cells()
		}
		if err == nil {
			t.Errorf("grid spec with -conc %s built", conc)
		}
	}
}

// TestSweepRejectsNegativeTrials: -trials below 0 on a fault axis is an
// error, not one plan.
func TestSweepRejectsNegativeTrials(t *testing.T) {
	code, _, errOut := runCLI(t, "sweep", "-topos", "lps(11,7)", "-conc", "2", "-loads", "0.3",
		"-faults", "links:0.05", "-trials", "-2", "-ranks", "64", "-msgs", "2", "-json")
	if code != 1 || !strings.Contains(errOut, "trials -2") {
		t.Errorf("sweep -trials -2: exit %d, stderr %q; want 1 and a trials error", code, errOut)
	}
}
