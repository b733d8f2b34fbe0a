package policy

import (
	"errors"
	"fmt"
	"sort"

	"gippr/internal/cache"
	"gippr/internal/ipv"
)

// ErrUnknownPolicy is the sentinel wrapped by Lookup failures, so callers
// can branch with errors.Is (usage exit code in the cmd tools, 400 Bad
// Request in the job service).
var ErrUnknownPolicy = errors.New("policy: unknown policy")

// Registry returns factories for every named policy, keyed by the names the
// CLI tools and experiment harness use. The DGIPPR entries use the paper's
// published workload-inclusive vectors; harnesses that need workload-neutral
// or freshly evolved vectors construct policies directly.
func Registry() map[string]Factory {
	reg := map[string]Factory{
		"lru":    {Name: "LRU", New: func(s, w int) cache.Policy { return NewTrueLRU(s, w) }},
		"random": {Name: "Random", New: func(s, w int) cache.Policy { return NewRandom(s, w) }},
		"fifo":   {Name: "FIFO", New: func(s, w int) cache.Policy { return NewFIFO(s, w) }},
		"nru":    {Name: "NRU", New: func(s, w int) cache.Policy { return NewNRU(s, w) }},
		"plru":   {Name: "PLRU", New: func(s, w int) cache.Policy { return NewPLRU(s, w) }},
		"lip":    {Name: "LIP", New: func(s, w int) cache.Policy { return NewLIP(s, w) }},
		"bip":    {Name: "BIP", New: func(s, w int) cache.Policy { return NewBIP(s, w) }},
		"dip":    {Name: "DIP", New: func(s, w int) cache.Policy { return NewDIP(s, w) }},
		"srrip":  {Name: "SRRIP", New: func(s, w int) cache.Policy { return NewSRRIP(s, w) }},
		"brrip":  {Name: "BRRIP", New: func(s, w int) cache.Policy { return NewBRRIP(s, w) }},
		"drrip":  {Name: "DRRIP", New: func(s, w int) cache.Policy { return NewDRRIP(s, w) }},
		"pdp":    {Name: "PDP", New: func(s, w int) cache.Policy { return NewPDP(s, w) }},
		"ship":   {Name: "SHiP", New: func(s, w int) cache.Policy { return NewSHiP(s, w) }},
		"mslru": {Name: "MSLRU", New: func(s, w int) cache.Policy {
			p := NewMSLRU(s, w, DefaultMSLRUStep(w))
			p.SetName("MSLRU")
			return p
		}},
		"giplr": {Name: "GIPLR", New: func(s, w int) cache.Policy {
			return NewGIPLR(s, w, ipv.PaperGIPLR.ScaleTo(w))
		}},
		"gippr": {Name: "GIPPR", New: func(s, w int) cache.Policy {
			g := NewGIPPR(s, w, ipv.PaperWIGIPPR.ScaleTo(w))
			g.SetName("GIPPR")
			return g
		}},
		"2-dgippr": {Name: "2-DGIPPR", New: func(s, w int) cache.Policy {
			return NewDGIPPR2(s, w, [2]ipv.Vector{
				ipv.PaperWI2DGIPPR[0].ScaleTo(w),
				ipv.PaperWI2DGIPPR[1].ScaleTo(w),
			})
		}},
		"4-dgippr": {Name: "4-DGIPPR", New: func(s, w int) cache.Policy {
			return NewDGIPPR4(s, w, [4]ipv.Vector{
				ipv.PaperWI4DGIPPR[0].ScaleTo(w),
				ipv.PaperWI4DGIPPR[1].ScaleTo(w),
				ipv.PaperWI4DGIPPR[2].ScaleTo(w),
				ipv.PaperWI4DGIPPR[3].ScaleTo(w),
			})
		}},
	}
	return reg
}

// Names returns the registry's keys in sorted order.
func Names() []string {
	reg := Registry()
	names := make([]string, 0, len(reg))
	for n := range reg {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Lookup returns the factory for a registry name.
func Lookup(name string) (Factory, error) {
	f, ok := Registry()[name]
	if !ok {
		return Factory{}, fmt.Errorf("%w %q (known: %v)", ErrUnknownPolicy, name, Names())
	}
	return f, nil
}
