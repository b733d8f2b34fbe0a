package experiments

import (
	"gippr/internal/cache"
	"gippr/internal/ipv"
	"gippr/internal/policy"
)

// SpecFromRegistry resolves a policy-registry name (the names gippr-sim's
// -policies flag and the job API accept) into a Spec keyed by that name.
// Unknown names wrap policy.ErrUnknownPolicy.
func SpecFromRegistry(name string) (Spec, error) {
	f, err := policy.Lookup(name)
	if err != nil {
		return Spec{}, err
	}
	return Spec{Key: name, Label: f.Name, New: func(_ string, s, w int) cache.Policy {
		return f.New(s, w)
	}}, nil
}

// SpecForIPV returns a Spec simulating GIPPR driven by an explicit vector
// (gippr-sim's -ipv flag, the job API's "ipv" field). The memo key embeds
// the vector so distinct vectors never collide in a shared Lab.
func SpecForIPV(label string, v ipv.Vector) Spec {
	return Spec{Key: "gippr-ipv|" + v.String(), Label: label, New: func(_ string, s, w int) cache.Policy {
		g := policy.NewGIPPR(s, w, v)
		g.SetName(label)
		return g
	}}
}

// Baseline and prior-work policy specs: the registry's policies under its
// names and labels, which follow the paper's figures.
var (
	SpecLRU    = registrySpec("lru")
	SpecPLRU   = registrySpec("plru")
	SpecRandom = registrySpec("random")
	SpecFIFO   = registrySpec("fifo")
	SpecNRU    = registrySpec("nru")
	SpecLIP    = registrySpec("lip")
	SpecBIP    = registrySpec("bip")
	SpecDIP    = registrySpec("dip")
	SpecSRRIP  = registrySpec("srrip")
	SpecBRRIP  = registrySpec("brrip")
	SpecDRRIP  = registrySpec("drrip")
	SpecPDP    = registrySpec("pdp")
	SpecSHiP   = registrySpec("ship")
	SpecMSLRU  = registrySpec("mslru")
)

// registrySpec is SpecFromRegistry for a name the registry is known to hold.
func registrySpec(name string) Spec {
	s, err := SpecFromRegistry(name)
	if err != nil {
		panic(err)
	}
	return s
}

// SpecGIPLR is the Figure 4 policy: the evolved IPV over true LRU.
var SpecGIPLR = Spec{Key: "giplr", Label: "GIPLR", New: func(_ string, s, w int) cache.Policy {
	return policy.NewGIPLR(s, w, GIPLRVector())
}}

// Workload-inclusive GIPPR variants (vectors evolved on the full suite).
var (
	SpecWIGIPPR = Spec{Key: "wi-gippr", Label: "WI-GIPPR", New: func(_ string, s, w int) cache.Policy {
		g := policy.NewGIPPR(s, w, WIVector1())
		g.SetName("WI-GIPPR")
		return g
	}}
	SpecWI2DGIPPR = Spec{Key: "wi-2dgippr", Label: "WI-2-DGIPPR", New: func(_ string, s, w int) cache.Policy {
		p := policy.NewDGIPPR2(s, w, WIVectors2())
		p.SetName("WI-2-DGIPPR")
		return p
	}}
	SpecWI4DGIPPR = Spec{Key: "wi-4dgippr", Label: "WI-4-DGIPPR", New: func(_ string, s, w int) cache.Policy {
		p := policy.NewDGIPPR4(s, w, WIVectors4())
		p.SetName("WI-4-DGIPPR")
		return p
	}}
)

// SpecGIPPRBypass is WI-GIPPR with the signature-predicted bypass of the
// future-work extension (policy.BypassGIPPR).
var SpecGIPPRBypass = Spec{Key: "wi-gippr-bypass", Label: "GIPPR+bypass", New: func(_ string, s, w int) cache.Policy {
	return policy.NewBypassGIPPR(s, w, WIVector1())
}}

// Workload-neutral GIPPR variants: the vectors used for each workload were
// evolved with that workload's fold held out (paper Section 4.4).
var (
	SpecWNGIPPR = Spec{Key: "wn-gippr", Label: "WN-GIPPR", New: func(name string, s, w int) cache.Policy {
		g := policy.NewGIPPR(s, w, WNVectors1(name))
		g.SetName("WN-GIPPR")
		return g
	}}
	SpecWN2DGIPPR = Spec{Key: "wn-2dgippr", Label: "WN-2-DGIPPR", New: func(name string, s, w int) cache.Policy {
		p := policy.NewDGIPPR2(s, w, WNVectors2(name))
		p.SetName("WN-2-DGIPPR")
		return p
	}}
	SpecWN4DGIPPR = Spec{Key: "wn-4dgippr", Label: "WN-4-DGIPPR", New: func(name string, s, w int) cache.Policy {
		p := policy.NewDGIPPR4(s, w, WNVectors4(name))
		p.SetName("WN-4-DGIPPR")
		return p
	}}
)
