package topo

import (
	"fmt"
	"strconv"
	"strings"
)

// Spec is a parsed topology specification — the string form of the
// constructors, usable anywhere a topology is declared (the size-class
// tables, the exhibits' instance sets, sweep topology axes, saved
// experiment configurations). The grammar is
//
//	kind(arg, arg, ...[, s=seed])
//
// case-insensitively, with the families
//
//	lps(p,q)      SpectralFly: the LPS Ramanujan graph, distinct odd primes
//	sf(q)         SlimFly MMS graph, prime power q ≡ 0, ±1 (mod 4)
//	bf(p,s)       BundleFly star product
//	df(a)         canonical DragonFly, a+1 groups of a routers
//	dfc(a,h,g)    parameterized DragonFly (paper: dfc(16,8,69))
//	jf(n,k,s=1)   Jellyfish random k-regular graph on n routers
//	xp(k,l,s=1)   Xpander: l random lifts of K_{k+1}
//
// DragonFlies use the circulant global arrangement (§VI-B). The seed
// argument is only meaningful for the randomized families (jf, xp) and
// defaults to 1. String renders the canonical lower-case form, and
// ParseSpec(s.String()) round-trips.
type Spec struct {
	// Kind is the canonical lower-case family name.
	Kind string
	// Args are the positional parameters, in family order.
	Args []int64
	// Seed is the construction seed of the randomized families.
	Seed int64
}

// specArity maps each family to its positional parameter count and
// whether it takes a seed.
var specArity = map[string]struct {
	args   int
	seeded bool
}{
	"lps": {2, false},
	"sf":  {1, false},
	"bf":  {2, false},
	"df":  {1, false},
	"dfc": {3, false},
	"jf":  {2, true},
	"xp":  {2, true},
}

// specGrammar is the one-line grammar reminder appended to parse
// errors.
const specGrammar = "want kind(args...) with kind one of lps(p,q), sf(q), bf(p,s), df(a), dfc(a,h,g), jf(n,k,s=seed), xp(k,l,s=seed)"

// ParseSpec parses a topology specification string such as
// "lps(11,7)", "sf(19)" or "jf(512,12,s=1)".
func ParseSpec(text string) (Spec, error) {
	bad := func(format string, args ...any) (Spec, error) {
		return Spec{}, fmt.Errorf("topo: bad topology spec %q: %s; %s",
			text, fmt.Sprintf(format, args...), specGrammar)
	}
	s := strings.TrimSpace(text)
	open := strings.IndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return bad("missing parameter list")
	}
	kind := strings.ToLower(strings.TrimSpace(s[:open]))
	ar, ok := specArity[kind]
	if !ok {
		return bad("unknown family %q", s[:open])
	}
	spec := Spec{Kind: kind}
	seenSeed := false
	body := s[open+1 : len(s)-1]
	if strings.TrimSpace(body) == "" {
		return bad("empty parameter list")
	}
	for i, part := range strings.Split(body, ",") {
		part = strings.TrimSpace(part)
		if eq := strings.IndexByte(part, '='); eq >= 0 {
			name := strings.TrimSpace(part[:eq])
			if name != "s" {
				return bad("unknown named argument %q", name)
			}
			if !ar.seeded {
				return bad("family %s takes no seed", kind)
			}
			if i != ar.args {
				return bad("seed must come after the %d positional arguments", ar.args)
			}
			v, err := strconv.ParseInt(strings.TrimSpace(part[eq+1:]), 10, 64)
			if err != nil {
				return bad("seed %q is not an integer", part[eq+1:])
			}
			spec.Seed = v
			seenSeed = true
			continue
		}
		if len(spec.Args) == ar.args {
			return bad("family %s takes %d arguments", kind, ar.args)
		}
		v, err := strconv.ParseInt(part, 10, 64)
		if err != nil {
			return bad("argument %q is not an integer", part)
		}
		spec.Args = append(spec.Args, v)
	}
	if len(spec.Args) != ar.args {
		return bad("family %s takes %d arguments, got %d", kind, ar.args, len(spec.Args))
	}
	if ar.seeded && !seenSeed {
		spec.Seed = 1 // an OMITTED seed defaults to 1; an explicit s=0 stays 0
	}
	return spec, nil
}

// String renders the canonical spec form; ParseSpec round-trips it.
func (s Spec) String() string {
	parts := make([]string, len(s.Args))
	for i, a := range s.Args {
		parts[i] = strconv.FormatInt(a, 10)
	}
	if ar, ok := specArity[s.Kind]; ok && ar.seeded {
		parts = append(parts, fmt.Sprintf("s=%d", s.Seed))
	}
	return fmt.Sprintf("%s(%s)", s.Kind, strings.Join(parts, ","))
}

// Build constructs the specified instance, validating the family's
// algebraic preconditions. It is the one place a family name maps to
// its constructor.
func (s Spec) Build() (*Instance, error) {
	a := s.Args
	ar, ok := specArity[s.Kind]
	if !ok {
		return nil, fmt.Errorf("topo: unknown topology family %q; %s", s.Kind, specGrammar)
	}
	if len(a) != ar.args {
		return nil, fmt.Errorf("topo: family %s takes %d arguments, got %d", s.Kind, ar.args, len(a))
	}
	var inst *Instance
	var err error
	switch s.Kind {
	case "lps":
		inst, err = LPS(a[0], a[1])
	case "sf":
		inst, err = SlimFly(a[0])
	case "bf":
		inst, err = BundleFly(a[0], a[1])
	case "df":
		inst, err = CanonicalDragonFly(int(a[0]), Circulant)
	case "dfc":
		inst, err = DragonFly(int(a[0]), int(a[1]), int(a[2]), Circulant)
	case "jf":
		inst, err = Jellyfish(int(a[0]), int(a[1]), s.Seed)
	case "xp":
		inst, err = Xpander(int(a[0]), int(a[1]), s.Seed)
	}
	if err != nil {
		return nil, err
	}
	if ar.seeded {
		// The constructors' display names omit the construction seed,
		// so two seeds of one family would collide to a single sweep
		// identity (cell keys and derived seeds are keyed on the name).
		// Spec-built randomized instances carry the canonical spec.
		inst.Name = s.String()
	}
	return inst, nil
}
