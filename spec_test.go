package spectralfly

import "testing"

func TestBuildSpecMatchesConstructors(t *testing.T) {
	direct, err := LPS(11, 7)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := BuildSpec("lps(11,7)")
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Name != direct.Name || parsed.G.N() != direct.G.N() || parsed.G.M() != direct.G.M() {
		t.Errorf("spec-built network differs: %s %d/%d vs %s %d/%d",
			parsed.Name, parsed.G.N(), parsed.G.M(), direct.Name, direct.G.N(), direct.G.M())
	}

	jf, err := BuildSpec("jf(128,5,s=3)")
	if err != nil {
		t.Fatal(err)
	}
	jfDirect, err := Jellyfish(128, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if jf.G.N() != jfDirect.G.N() || jf.G.M() != jfDirect.G.M() {
		t.Error("seeded jellyfish spec does not match the direct constructor")
	}

	// Algebraically invalid parameters surface the constructor's error.
	if _, err := BuildSpec("lps(12,7)"); err == nil {
		t.Error("lps(12,7) built despite 12 not being an odd prime")
	}
}
