package topo

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseSpecRoundTrip(t *testing.T) {
	cases := []struct {
		in   string
		want string // canonical String() form
	}{
		{"lps(11,7)", "lps(11,7)"},
		{"LPS(11, 7)", "lps(11,7)"},
		{" sf(19) ", "sf(19)"},
		{"bf(13,3)", "bf(13,3)"},
		{"df(12)", "df(12)"},
		{"dfc(16,8,69)", "dfc(16,8,69)"},
		{"jf(512,12,s=1)", "jf(512,12,s=1)"},
		{"jf(512,12)", "jf(512,12,s=1)"},     // omitted seed defaults to 1
		{"jf(512,12,s=0)", "jf(512,12,s=0)"}, // explicit 0 stays 0
		{"JF(512, 12, s = 7)", "jf(512,12,s=7)"},
		{"xp(12,4,s=3)", "xp(12,4,s=3)"},
	}
	for _, c := range cases {
		spec, err := ParseSpec(c.in)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", c.in, err)
			continue
		}
		if got := spec.String(); got != c.want {
			t.Errorf("ParseSpec(%q).String() = %q, want %q", c.in, got, c.want)
			continue
		}
		// String must round-trip to the identical spec.
		again, err := ParseSpec(spec.String())
		if err != nil {
			t.Errorf("round-trip ParseSpec(%q): %v", spec.String(), err)
			continue
		}
		if again.String() != spec.String() {
			t.Errorf("round trip drifted: %q -> %q", spec.String(), again.String())
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	cases := []struct {
		in      string
		wantSub string // substring of the error message
	}{
		{"", "missing parameter list"},
		{"lps", "missing parameter list"},
		{"lps(11,7", "missing parameter list"},
		{"torus(4,4)", `unknown family "torus"`},
		{"lps()", "empty parameter list"},
		{"lps(11)", "takes 2 arguments"},
		{"lps(11,7,3)", "takes 2 arguments"},
		{"lps(11,x)", `argument "x" is not an integer`},
		{"lps(11,7,s=1)", "takes no seed"},
		{"jf(512,s=1,12)", "seed must come after"},
		{"jf(512,12,k=1)", `unknown named argument "k"`},
		{"jf(512,12,s=abc)", "not an integer"},
	}
	for _, c := range cases {
		_, err := ParseSpec(c.in)
		if err == nil {
			t.Errorf("ParseSpec(%q) succeeded, want error containing %q", c.in, c.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("ParseSpec(%q) error %q does not mention %q", c.in, err, c.wantSub)
		}
		if !strings.Contains(err.Error(), "want kind(args...)") {
			t.Errorf("ParseSpec(%q) error %q lacks the grammar hint", c.in, err)
		}
	}
}

// FuzzParseSpec checks that the parser never panics and that every
// accepted spec round-trips through String.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"lps(11,7)", "sf(19)", "bf(13,3)", "df(12)", "dfc(16,8,69)",
		"jf(512,12,s=1)", "xp(12,4,s=3)", "lps()", "lps(11,7,3)",
		"jf(1,2,s=)", "x(", "(((", "lps(999999999999999999999,1)",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		spec, err := ParseSpec(text)
		if err != nil {
			return
		}
		rendered := spec.String()
		again, err := ParseSpec(rendered)
		if err != nil {
			t.Fatalf("accepted %q but rejected its canonical form %q: %v", text, rendered, err)
		}
		if again.String() != rendered {
			t.Fatalf("canonical form not a fixed point: %q -> %q", rendered, again.String())
		}
	})
}

// TestSpecTablesRoundTrip: every entry of the size-class and Table II
// tables survives ParseSpec(s.String()) unchanged.
func TestSpecTablesRoundTrip(t *testing.T) {
	var all []Spec
	for _, class := range TableISizeClasses {
		all = append(all, class[:]...)
	}
	for _, pair := range TableIISpecs {
		all = append(all, pair[:]...)
	}
	for _, pair := range TableIIScaleSpecs {
		all = append(all, pair[:]...)
	}
	for _, s := range all {
		again, err := ParseSpec(s.String())
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", s, err)
			continue
		}
		if !reflect.DeepEqual(again, s) {
			t.Errorf("%s round-tripped to %+v", s, again)
		}
	}
}
