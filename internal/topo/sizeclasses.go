package topo

// TableISizeClasses lists the five size classes of Table I, in paper
// order (LPS, SF, BF, DF within each class).
var TableISizeClasses = [5][4]Spec{
	{
		{Kind: "lps", Args: []int64{11, 7}},
		{Kind: "sf", Args: []int64{7}},
		{Kind: "bf", Args: []int64{13, 3}},
		{Kind: "df", Args: []int64{12}},
	},
	{
		{Kind: "lps", Args: []int64{23, 11}},
		{Kind: "sf", Args: []int64{17}},
		{Kind: "bf", Args: []int64{37, 3}},
		{Kind: "df", Args: []int64{24}},
	},
	{
		{Kind: "lps", Args: []int64{53, 17}},
		{Kind: "sf", Args: []int64{37}},
		{Kind: "bf", Args: []int64{97, 4}},
		{Kind: "df", Args: []int64{53}},
	},
	{
		{Kind: "lps", Args: []int64{71, 17}},
		{Kind: "sf", Args: []int64{47}},
		{Kind: "bf", Args: []int64{137, 4}},
		{Kind: "df", Args: []int64{69}},
	},
	{
		{Kind: "lps", Args: []int64{89, 19}},
		{Kind: "sf", Args: []int64{59}},
		{Kind: "bf", Args: []int64{157, 5}},
		{Kind: "df", Args: []int64{85}},
	},
}

// TableIExpected holds the paper's Table I values for validation:
// routers, radix, diameter, avg distance, girth, µ1.
type TableIExpected struct {
	Name     string
	Routers  int
	Radix    int
	Diameter int
	Dist     float64
	Girth    int
	Mu1      float64
}

// TableIPaperValues mirrors Table I of the paper row by row.
var TableIPaperValues = [5][4]TableIExpected{
	{
		{"LPS(11,7)", 168, 12, 3, 2.39, 3, 0.50},
		{"SF(7)", 98, 11, 2, 1.89, 3, 0.62},
		{"BF(13,3)", 234, 11, 3, 2.56, 3, 0.27},
		{"DF(12)", 156, 12, 3, 2.70, 3, 0.08},
	},
	{
		{"LPS(23,11)", 660, 24, 3, 2.35, 3, 0.65},
		{"SF(17)", 578, 25, 2, 1.96, 3, 0.64},
		{"BF(37,3)", 666, 23, 3, 2.61, 3, 0.13},
		{"DF(24)", 600, 24, 3, 2.84, 3, 0.04},
	},
	{
		{"LPS(53,17)", 2448, 54, 3, 2.32, 3, 0.74},
		{"SF(37)", 2738, 55, 2, 1.98, 3, 0.65},
		{"BF(97,4)", 3104, 54, 3, 2.76, 3, 0.07},
		{"DF(53)", 2862, 53, 3, 2.93, 3, 0.02},
	},
	{
		{"LPS(71,17)", 4896, 72, 4, 2.61, 4, 0.77},
		{"SF(47)", 4418, 71, 2, 1.98, 3, 0.66},
		{"BF(137,4)", 4384, 74, 3, 2.76, 3, 0.05},
		{"DF(69)", 4830, 69, 3, 2.94, 3, 0.01},
	},
	{
		{"LPS(89,19)", 6840, 90, 4, 2.61, 4, 0.80},
		{"SF(59)", 6962, 89, 2, 1.99, 3, 0.66},
		{"BF(157,5)", 7850, 85, 3, 2.82, 3, 0.06},
		{"DF(85)", 7310, 85, 3, 2.95, 3, 0.01},
	},
}

// TableIISpecs lists the SpectralFly/SlimFly pairs of Table II (§VII).
var TableIISpecs = [4][2]Spec{
	{{Kind: "lps", Args: []int64{11, 7}}, {Kind: "sf", Args: []int64{9}}},
	{{Kind: "lps", Args: []int64{19, 7}}, {Kind: "sf", Args: []int64{13}}},
	{{Kind: "lps", Args: []int64{23, 11}}, {Kind: "sf", Args: []int64{17}}},
	{{Kind: "lps", Args: []int64{29, 13}}, {Kind: "sf", Args: []int64{23}}},
}

// TableIIScaleSpecs extends the Table II ladder to the sizes the
// paper's large-n argument is actually about (§VII runs to tens of
// thousands of routers; cf. Aksoy et al. on spectral gaps of
// supercomputing topologies): matched LPS/SF pairs from ~12K to ~40K
// routers. A dense n² routing table for the last rung costs ~6.3 GB;
// these classes exist to exercise the packed/lazy routing oracles,
// which is what exp.ScaleSweep does with them.
var TableIIScaleSpecs = [3][2]Spec{
	{{Kind: "lps", Args: []int64{13, 29}}, {Kind: "sf", Args: []int64{79}}},  // 12,180 / 12,482 routers
	{{Kind: "lps", Args: []int64{11, 31}}, {Kind: "sf", Args: []int64{109}}}, // 29,760 / 23,762 routers
	{{Kind: "lps", Args: []int64{13, 43}}, {Kind: "sf", Args: []int64{139}}}, // 39,732 / 38,642 routers
}
