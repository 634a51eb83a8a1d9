// Package configfile loads and saves engine configurations as JSON, so
// bulk design-space sweeps (the paper's off-line use case) can be driven by
// declarative per-point files instead of flag soup. The schema mirrors
// core.Config but replaces the live cache models with geometry blocks.
package configfile

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/sched"
)

// CacheSpec is the JSON form of a cache level.
type CacheSpec struct {
	SizeBytes   int `json:"size_bytes"`
	Assoc       int `json:"assoc"`
	BlockBytes  int `json:"block_bytes"`
	HitLatency  int `json:"hit_latency"`
	MissLatency int `json:"miss_latency"`
}

// PredictorSpec is the JSON form of the branch predictor block.
type PredictorSpec struct {
	Kind       string `json:"kind"` // 2lev, bimod, comb, taken, nottaken
	BHTSize    int    `json:"bht_size,omitempty"`
	HistLen    int    `json:"hist_len,omitempty"`
	PHTSize    int    `json:"pht_size,omitempty"`
	XORIndex   bool   `json:"xor_index,omitempty"`
	BimodSize  int    `json:"bimod_size,omitempty"`
	MetaSize   int    `json:"meta_size,omitempty"`
	BTBEntries int    `json:"btb_entries"`
	BTBAssoc   int    `json:"btb_assoc"`
	BTBTagBits int    `json:"btb_tag_bits,omitempty"`
	RASSize    int    `json:"ras_size"`
}

// File is the on-disk configuration schema.
type File struct {
	Width           int            `json:"width"`
	IFQSize         int            `json:"ifq_size"`
	RBSize          int            `json:"rb_size"`
	LSQSize         int            `json:"lsq_size"`
	MemReadPorts    int            `json:"mem_read_ports"`
	MemWritePorts   int            `json:"mem_write_ports"`
	MisfetchPenalty int            `json:"misfetch_penalty"`
	MispredPenalty  int            `json:"mispred_penalty"`
	Organization    string         `json:"organization"` // simple, improved, optimized
	PerfectBP       bool           `json:"perfect_bp,omitempty"`
	Predictor       *PredictorSpec `json:"predictor,omitempty"`
	ICache          *CacheSpec     `json:"icache,omitempty"`
	DCache          *CacheSpec     `json:"dcache,omitempty"`
}

// FromConfig converts an engine configuration into the file schema.
func FromConfig(cfg core.Config) File {
	f := File{
		Width:           cfg.Width,
		IFQSize:         cfg.IFQSize,
		RBSize:          cfg.RBSize,
		LSQSize:         cfg.LSQSize,
		MemReadPorts:    cfg.MemReadPorts,
		MemWritePorts:   cfg.MemWritePorts,
		MisfetchPenalty: cfg.MisfetchPenalty,
		MispredPenalty:  cfg.MispredPenalty,
		Organization:    cfg.Organization.String(),
		PerfectBP:       cfg.PerfectBP,
	}
	// The predictor is written under PerfectBP too: it is part of the
	// trace key (core.Config.TraceConfig), so dropping it would change
	// which cached trace the configuration names.
	p := cfg.Predictor
	f.Predictor = &PredictorSpec{
		Kind: p.Dir.String(), BHTSize: p.BHTSize, HistLen: p.HistLen,
		PHTSize: p.PHTSize, XORIndex: p.XORIndex, BimodSize: p.BimodSize,
		MetaSize: p.MetaSize, BTBEntries: p.BTBEntries, BTBAssoc: p.BTBAssoc,
		BTBTagBits: p.BTBTagBits, RASSize: p.RASSize,
	}
	f.ICache = cacheSpecOf(cfg.ICache)
	f.DCache = cacheSpecOf(cfg.DCache)
	return f
}

func cacheSpecOf(m cache.Model) *CacheSpec {
	c, ok := m.(*cache.Cache)
	if !ok {
		return nil
	}
	g := c.Config()
	return &CacheSpec{SizeBytes: g.SizeBytes, Assoc: g.Assoc, BlockBytes: g.BlockBytes,
		HitLatency: g.HitLatency, MissLatency: g.MissLatency}
}

// ToConfig materializes an engine configuration; the result is validated.
func (f File) ToConfig() (core.Config, error) {
	cfg := core.DefaultConfig()
	cfg.Width = f.Width
	cfg.IFQSize = f.IFQSize
	cfg.RBSize = f.RBSize
	cfg.LSQSize = f.LSQSize
	cfg.MemReadPorts = f.MemReadPorts
	cfg.MemWritePorts = f.MemWritePorts
	cfg.MisfetchPenalty = f.MisfetchPenalty
	cfg.MispredPenalty = f.MispredPenalty
	cfg.PerfectBP = f.PerfectBP

	if f.Organization == "" { // omitted field keeps the paper's default
		cfg.Organization = sched.OrgOptimized
	} else {
		org, err := sched.OrgByName(f.Organization)
		if err != nil {
			return cfg, fmt.Errorf("configfile: %w", err)
		}
		cfg.Organization = org
	}

	if f.Predictor != nil {
		p := bpred.Config{
			BHTSize: f.Predictor.BHTSize, HistLen: f.Predictor.HistLen,
			PHTSize: f.Predictor.PHTSize, XORIndex: f.Predictor.XORIndex,
			BimodSize: f.Predictor.BimodSize, MetaSize: f.Predictor.MetaSize,
			BTBEntries: f.Predictor.BTBEntries, BTBAssoc: f.Predictor.BTBAssoc,
			BTBTagBits: f.Predictor.BTBTagBits, RASSize: f.Predictor.RASSize,
		}
		switch f.Predictor.Kind {
		case "2lev", "":
			p.Dir = bpred.DirTwoLevel
		case "bimod":
			p.Dir = bpred.DirBimodal
		case "comb":
			p.Dir = bpred.DirCombined
		case "taken":
			p.Dir = bpred.DirTaken
		case "nottaken":
			p.Dir = bpred.DirNotTaken
		default:
			return cfg, fmt.Errorf("configfile: unknown predictor kind %q", f.Predictor.Kind)
		}
		cfg.Predictor = p
	}

	var err error
	if cfg.ICache, err = buildCache("il1", f.ICache); err != nil {
		return cfg, err
	}
	if cfg.DCache, err = buildCache("dl1", f.DCache); err != nil {
		return cfg, err
	}
	if err := cfg.Validate(); err != nil {
		return cfg, err
	}
	return cfg, nil
}

func buildCache(name string, s *CacheSpec) (cache.Model, error) {
	if s == nil {
		return nil, nil
	}
	c := cache.Config{Name: name, SizeBytes: s.SizeBytes, Assoc: s.Assoc,
		BlockBytes: s.BlockBytes, HitLatency: s.HitLatency, MissLatency: s.MissLatency}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return cache.New(c), nil
}

// Load reads and materializes a configuration file.
func Load(path string) (core.Config, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return core.Config{}, err
	}
	var f File
	if err := json.Unmarshal(raw, &f); err != nil {
		return core.Config{}, fmt.Errorf("configfile %s: %w", path, err)
	}
	return f.ToConfig()
}

// Save writes cfg to path as indented JSON.
func Save(path string, cfg core.Config) error {
	raw, err := json.MarshalIndent(FromConfig(cfg), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
