package workload

import "fmt"

// The five SPECINT CPU2000 stand-ins of the paper's evaluation. Each profile
// encodes the benchmark's timing-relevant character; the kernel weights were
// calibrated so the resulting IPC ordering and rough magnitudes match the
// ones implied by the paper's Table 1:
//
//   - 4-wide, perfect memory, 2-level BP: bzip2 highest IPC (~2.3), vortex
//     and gzip close (~1.95), then vpr, parser lowest (~1.65).
//   - 2-wide, 32K L1s, perfect BP: gzip highest (~1.45), then vpr, bzip2,
//     with vortex and parser at the bottom (~1.2).
//
// The drivers: bzip2 = wide ILP but a large working set; gzip = cache-
// resident loop code; parser = pointer chasing and poorly biased branches;
// vortex = call-heavy with indirect jumps and a large footprint; vpr =
// mixed arithmetic with multiplies and divides.
func Profiles() []Profile {
	return []Profile{
		{
			Name:        "gzip",
			Description: "LZ77 compressor stand-in: streaming loops over a medium working set",
			Seed:        101,
			Stream:      100, Writes: 30, Arith: 90, Branchy: 60, ByteOps: 60,
			Calls: 6, CallDepth: 2,
			Chains:     4,
			ArrayBytes: 128 << 10, BranchData: 8 << 10, BranchBias: 0.85,
		},
		{
			Name:        "bzip2",
			Description: "BWT compressor stand-in: high ILP over a large working set",
			Seed:        202,
			Stream:      220, Writes: 70, Arith: 130, Branchy: 30, ByteOps: 40,
			Chains: 5, WithMul: true, Stride: 16,
			ArrayBytes: 256 << 10, BranchData: 4 << 10, BranchBias: 0.92,
		},
		{
			Name:        "parser",
			Description: "NL parser stand-in: pointer chasing, data-dependent branches",
			Seed:        303,
			Stream:      30, Chase: 40, Branchy: 90, Arith: 80,
			Calls: 14, CallDepth: 3,
			Chains:     2,
			ArrayBytes: 32 << 10, BranchData: 32 << 10, BranchBias: 0.74,
			ListNodes: 512,
		},
		{
			Name:        "vortex",
			Description: "OO database stand-in: call-heavy, indirect jumps, big footprint",
			Seed:        404,
			Stream:      90, Writes: 50, Arith: 80, Branchy: 40,
			Calls: 30, CallDepth: 4, JumpTable: 30, JTPads: 6, JTBias: 0.75,
			Chains: 4, Stride: 32,
			ArrayBytes: 256 << 10, BranchData: 16 << 10, BranchBias: 0.88,
		},
		{
			Name:        "vpr",
			Description: "place-and-route stand-in: mixed arithmetic with mul/div",
			Seed:        505,
			Stream:      100, Writes: 50, Arith: 100, Branchy: 70, Chase: 10,
			Calls: 8, CallDepth: 2, DivLoop: 6,
			Chains: 3, WithMul: true,
			ArrayBytes: 32 << 10, BranchData: 16 << 10, BranchBias: 0.80,
			ListNodes: 256,
		},
	}
}

// Names returns the profile names in evaluation order (Table 1 row order).
func Names() []string {
	ps := Profiles()
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}

// ByName returns the named profile.
func ByName(name string) (Profile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("workload: unknown profile %q (have %v)", name, Names())
}
