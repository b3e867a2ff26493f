package spectralfly

import "repro/internal/topo"

// Spec is a parsed topology specification — the string form of the
// constructors, usable anywhere a topology axis is declared (the Sweep
// builder, the spectralfly sweep subcommand, saved experiment
// configurations). The grammar is kind(arg, ...[, s=seed]) with the
// families lps(p,q), sf(q), bf(p,s), df(a), dfc(a,h,g), jf(n,k,s=1)
// and xp(k,l,s=1); String renders the canonical form, which ParseSpec
// round-trips, and Build constructs the topology instance.
type Spec = topo.Spec

// ParseSpec parses a topology specification string such as
// "lps(11,7)", "sf(19)" or "jf(512,12,s=1)".
func ParseSpec(text string) (Spec, error) { return topo.ParseSpec(text) }

// BuildSpec parses and builds a topology in one step — the string-spec
// twin of the typed constructors.
func BuildSpec(text string) (*Network, error) {
	spec, err := ParseSpec(text)
	if err != nil {
		return nil, err
	}
	return wrap(spec.Build())
}
