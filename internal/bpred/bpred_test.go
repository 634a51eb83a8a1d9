package bpred

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestDefaultMatchesPaper(t *testing.T) {
	c := Default()
	if c.RASSize != 16 || c.BTBEntries != 512 || c.BTBAssoc != 1 {
		t.Errorf("BTB/RAS defaults: %+v", c)
	}
	if c.BHTSize != 4 || c.HistLen != 8 || c.PHTSize != 4096 {
		t.Errorf("two-level defaults: %+v", c)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []Config{
		{Dir: DirTwoLevel, BHTSize: 3, HistLen: 8, PHTSize: 4096},
		{Dir: DirTwoLevel, BHTSize: 4, HistLen: 0, PHTSize: 4096},
		{Dir: DirTwoLevel, BHTSize: 4, HistLen: 8, PHTSize: 1000},
		{Dir: DirBimodal, BimodSize: 100},
		{Dir: DirTaken, BTBEntries: 511, BTBAssoc: 1},
		{Dir: DirTaken, BTBEntries: 512, BTBAssoc: 3},
		{Dir: DirTaken, RASSize: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d accepted: %+v", i, c)
		}
	}
}

func TestBimodalLearnsBias(t *testing.T) {
	cfg := Default()
	cfg.Dir = DirBimodal
	p := New(cfg)
	pc := uint32(0x4000)
	for i := 0; i < 8; i++ {
		p.UpdateDir(pc, true)
	}
	if !p.PredictDir(pc) {
		t.Error("bimodal did not learn always-taken")
	}
	for i := 0; i < 8; i++ {
		p.UpdateDir(pc, false)
	}
	if p.PredictDir(pc) {
		t.Error("bimodal did not learn always-not-taken")
	}
}

func TestTwoLevelLearnsAlternation(t *testing.T) {
	// A strict T/N alternation defeats bimodal but is perfectly captured
	// by history-indexed pattern counters.
	p := New(Default())
	pc := uint32(0x4000)
	taken := false
	correct := 0
	const warm, meas = 200, 200
	for i := 0; i < warm+meas; i++ {
		pred := p.PredictDir(pc)
		if i >= warm && pred == taken {
			correct++
		}
		p.UpdateDir(pc, taken)
		taken = !taken
	}
	if correct < meas*95/100 {
		t.Errorf("two-level accuracy on alternation = %d/%d", correct, meas)
	}
}

func TestTwoLevelLearnsShortLoop(t *testing.T) {
	// Pattern TTTN (loop of 4 iterations) is history-learnable with 8 bits.
	p := New(Default())
	pc := uint32(0x8000)
	correct, meas := 0, 400
	for i := 0; i < 400+meas; i++ {
		taken := i%4 != 3
		pred := p.PredictDir(pc)
		if i >= 400 && pred == taken {
			correct++
		}
		p.UpdateDir(pc, taken)
	}
	if correct < meas*95/100 {
		t.Errorf("two-level accuracy on TTTN loop = %d/%d", correct, meas)
	}
}

func TestStaticPredictors(t *testing.T) {
	pt := New(Config{Dir: DirTaken, RASSize: 0})
	pn := New(Config{Dir: DirNotTaken, RASSize: 0})
	for _, pc := range []uint32{0, 0x400, 0xFFFFFFFC} {
		if !pt.PredictDir(pc) {
			t.Error("taken predictor said not-taken")
		}
		if pn.PredictDir(pc) {
			t.Error("not-taken predictor said taken")
		}
	}
	// Updates are no-ops but must not panic.
	pt.UpdateDir(0x400, false)
	pn.UpdateDir(0x400, true)
}

func TestBTBDirectMapped(t *testing.T) {
	p := New(Default()) // 512-entry direct-mapped
	if _, hit := p.LookupBTB(0x4000); hit {
		t.Error("cold BTB hit")
	}
	p.UpdateBTB(0x4000, 0x5000)
	if tgt, hit := p.LookupBTB(0x4000); !hit || tgt != 0x5000 {
		t.Errorf("BTB lookup = %#x,%t", tgt, hit)
	}
	// Conflicting PC (same set, different tag) evicts in a DM BTB.
	conflict := uint32(0x4000 + 512*4)
	p.UpdateBTB(conflict, 0x9000)
	if _, hit := p.LookupBTB(0x4000); hit {
		t.Error("direct-mapped BTB kept both conflicting entries")
	}
	if tgt, hit := p.LookupBTB(conflict); !hit || tgt != 0x9000 {
		t.Error("conflicting entry not installed")
	}
	// Refresh in place changes target.
	p.UpdateBTB(conflict, 0xA000)
	if tgt, _ := p.LookupBTB(conflict); tgt != 0xA000 {
		t.Errorf("refresh failed: %#x", tgt)
	}
}

func TestBTBSetAssociative(t *testing.T) {
	cfg := Default()
	cfg.BTBEntries, cfg.BTBAssoc = 8, 2
	p := New(cfg)
	// Two PCs mapping to the same set coexist with assoc 2.
	a, b := uint32(0x100), uint32(0x100+4*4) // 4 sets
	p.UpdateBTB(a, 1)
	p.UpdateBTB(b, 2)
	if _, hit := p.LookupBTB(a); !hit {
		t.Error("way 0 evicted")
	}
	if _, hit := p.LookupBTB(b); !hit {
		t.Error("way 1 missing")
	}
	// Third conflicting PC evicts exactly one way.
	c := uint32(0x100 + 8*4*4)
	p.UpdateBTB(c, 3)
	hits := 0
	for _, pc := range []uint32{a, b, c} {
		if _, h := p.LookupBTB(pc); h {
			hits++
		}
	}
	if hits != 2 {
		t.Errorf("after conflict: %d hits, want 2", hits)
	}
}

func TestRASLIFO(t *testing.T) {
	p := New(Default())
	if _, ok := p.PopRAS(); ok {
		t.Error("pop from empty RAS succeeded")
	}
	p.PushRAS(0x100)
	p.PushRAS(0x200)
	p.PushRAS(0x300)
	if p.RASDepth() != 3 {
		t.Errorf("depth = %d", p.RASDepth())
	}
	for _, want := range []uint32{0x300, 0x200, 0x100} {
		got, ok := p.PopRAS()
		if !ok || got != want {
			t.Errorf("pop = %#x,%t want %#x", got, ok, want)
		}
	}
	if _, ok := p.PopRAS(); ok {
		t.Error("RAS underflow not detected")
	}
}

func TestRASWrapsAtCapacity(t *testing.T) {
	cfg := Default()
	cfg.RASSize = 4
	p := New(cfg)
	for i := 1; i <= 6; i++ {
		p.PushRAS(uint32(i * 0x10))
	}
	if p.RASDepth() != 4 {
		t.Errorf("depth = %d, want 4 (capacity)", p.RASDepth())
	}
	// Oldest two entries were overwritten; pops yield 0x60,0x50,0x40,0x30.
	for _, want := range []uint32{0x60, 0x50, 0x40, 0x30} {
		got, ok := p.PopRAS()
		if !ok || got != want {
			t.Errorf("pop = %#x,%t want %#x", got, ok, want)
		}
	}
}

func TestStorageBits(t *testing.T) {
	c := Default()
	want := 4*8 + 4096*2 + 512*(32+20+1) + 16*32
	if got := c.StorageBits(); got != want {
		t.Errorf("StorageBits = %d, want %d", got, want)
	}
	// Bimodal accounting.
	c.Dir = DirBimodal
	want = 2048*2 + 512*(32+20+1) + 16*32
	if got := c.StorageBits(); got != want {
		t.Errorf("bimodal StorageBits = %d, want %d", got, want)
	}
}

func TestDescribe(t *testing.T) {
	d := Default().Describe()
	for _, want := range []string{"entity branch_predictor", "PHT_SIZE", "4096", "RAS_SIZE", "16"} {
		if !strings.Contains(d, want) {
			t.Errorf("Describe missing %q:\n%s", want, d)
		}
	}
	// Bimodal description names its own table, not the 2-level ones.
	c := Default()
	c.Dir = DirBimodal
	d = c.Describe()
	if !strings.Contains(d, "BIMOD_SIZE") || strings.Contains(d, "PHT_SIZE") {
		t.Errorf("bimodal Describe wrong:\n%s", d)
	}
}

func combined() Config {
	c := Default()
	c.Dir = DirCombined
	c.MetaSize = 1024
	return c
}

func TestCombinedPredictorChooser(t *testing.T) {
	// An alternating pattern defeats bimodal but is learned by the
	// two-level component; the combined predictor must converge to the
	// two-level choice and match its accuracy.
	p := New(combined())
	pc := uint32(0x4000)
	taken := false
	correct, meas := 0, 300
	for i := 0; i < 400+meas; i++ {
		pred := p.PredictDir(pc)
		if i >= 400 && pred == taken {
			correct++
		}
		p.UpdateDir(pc, taken)
		taken = !taken
	}
	if correct < meas*95/100 {
		t.Errorf("combined accuracy on alternation = %d/%d", correct, meas)
	}
}

func TestCombinedPredictorFallsBackToBimodal(t *testing.T) {
	// A heavily biased branch is captured by bimodal immediately; the
	// combined predictor must be at least as good as bimodal on it.
	p := New(combined())
	pc := uint32(0x8000)
	correct, meas := 0, 200
	for i := 0; i < 100+meas; i++ {
		pred := p.PredictDir(pc)
		if i >= 100 && pred {
			correct++
		}
		p.UpdateDir(pc, true)
	}
	if correct != meas {
		t.Errorf("combined accuracy on always-taken = %d/%d", correct, meas)
	}
}

func TestCombinedValidationAndStorage(t *testing.T) {
	c := combined()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := c
	bad.MetaSize = 1000
	if err := bad.Validate(); err == nil {
		t.Error("non-pow2 MetaSize accepted")
	}
	want := 4*8 + 4096*2 + 2048*2 + 1024*2 + 512*(32+20+1) + 16*32
	if got := c.StorageBits(); got != want {
		t.Errorf("StorageBits = %d, want %d", got, want)
	}
	d := c.Describe()
	for _, field := range []string{"META_SIZE", "BIMOD_SIZE", "PHT_SIZE"} {
		if !strings.Contains(d, field) {
			t.Errorf("Describe missing %s:\n%s", field, d)
		}
	}
	// Power-on meta counters are weakly taken.
	if !New(c).PredictDir(0x40) {
		t.Error("fresh combined predictor should weakly predict taken")
	}
}

func TestBTBPartialTagAliasing(t *testing.T) {
	cfg := Default()
	cfg.BTBTagBits = 2
	p := New(cfg)
	// Two PCs with the same set and the same truncated tag alias: the
	// second lookup falsely hits with the first branch's target. This is
	// the mechanism behind misfetches.
	pcA := uint32(0x1000)
	pcB := pcA + 4*512*4 // same set, tag differs by 4 ≡ 0 mod 2^2
	p.UpdateBTB(pcA, 0xAAAA)
	if tgt, hit := p.LookupBTB(pcB); !hit || tgt != 0xAAAA {
		t.Errorf("aliased lookup = %#x,%t; want false hit with 0xaaaa", tgt, hit)
	}
	// Full tags never alias.
	cfg.BTBTagBits = 0
	p2 := New(cfg)
	p2.UpdateBTB(pcA, 0xAAAA)
	if _, hit := p2.LookupBTB(pcB); hit {
		t.Error("full-tag BTB aliased")
	}
	// Partial tags shrink storage.
	if cfg2 := cfg; true {
		cfg2.BTBTagBits = 2
		if cfg2.StorageBits() >= cfg.StorageBits() {
			t.Error("partial tags did not reduce storage")
		}
	}
	if bad := (Config{Dir: DirTaken, BTBEntries: 512, BTBAssoc: 1, BTBTagBits: -1}); bad.Validate() == nil {
		t.Error("negative BTBTagBits accepted")
	}
}

func TestXORIndexMode(t *testing.T) {
	cfg := Default()
	cfg.XORIndex = true
	p := New(cfg)
	pc := uint32(0x4000)
	for i := 0; i < 16; i++ {
		p.UpdateDir(pc, true)
	}
	if !p.PredictDir(pc) {
		t.Error("gshare-style predictor did not learn always-taken")
	}
}

// Property: RAS behaves as a bounded LIFO for any push/pop sequence.
func TestQuickRASBoundedLIFO(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func() bool {
		size := 1 + rng.Intn(8)
		cfg := Default()
		cfg.RASSize = size
		p := New(cfg)
		var model []uint32
		for op := 0; op < 200; op++ {
			if rng.Intn(2) == 0 {
				v := rng.Uint32()
				p.PushRAS(v)
				model = append(model, v)
				if len(model) > size {
					model = model[len(model)-size:]
				}
			} else {
				got, ok := p.PopRAS()
				if len(model) == 0 {
					if ok {
						return false
					}
					continue
				}
				want := model[len(model)-1]
				model = model[:len(model)-1]
				if !ok || got != want {
					return false
				}
			}
			if p.RASDepth() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New accepted invalid config")
		}
	}()
	New(Config{Dir: DirTwoLevel, BHTSize: 3, HistLen: 8, PHTSize: 4096})
}
