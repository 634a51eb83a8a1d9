package uarch

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func TestRingFIFO(t *testing.T) {
	r := NewRing[int](4)
	if !r.Empty() || r.Full() || r.Len() != 0 {
		t.Fatalf("fresh ring state wrong")
	}
	for i := 1; i <= 4; i++ {
		*r.PushSlot() = i
		if r.Full() != (i == 4) {
			t.Errorf("after %d pushes into capacity 4: Full = %t", i, r.Full())
		}
	}
	for i := 1; i <= 4; i++ {
		if v := *r.Front(); v != i {
			t.Errorf("front = %d want %d", v, i)
		}
		r.DropFront()
	}
	if !r.Empty() {
		t.Error("ring should be empty")
	}
}

func TestRingWrapsAndIndexes(t *testing.T) {
	r := NewRing[int](3)
	*r.PushSlot() = 1
	*r.PushSlot() = 2
	r.DropFront()
	*r.PushSlot() = 3
	*r.PushSlot() = 4 // buffer has wrapped
	want := []int{2, 3, 4}
	for i, w := range want {
		if got := *r.At(i); got != w {
			t.Errorf("At(%d) = %d, want %d", i, got, w)
		}
	}
	// Mutation through At is visible.
	*r.At(1) = 30
	if v := *r.At(1); v != 30 {
		t.Error("At did not return a pointer into the ring")
	}
}

func TestRingClear(t *testing.T) {
	r := NewRing[int](4)
	for i := range 6 {
		*r.PushSlot() = i
		if i%2 == 1 {
			r.DropFront() // wrap the live entries around the backing array
		}
	}
	if _, b := r.Views(); len(b) == 0 {
		t.Fatal("live entries do not wrap")
	}
	r.Clear()
	if !r.Empty() || r.Len() != 0 {
		t.Fatalf("after Clear: len %d; want empty", r.Len())
	}
	*r.PushSlot() = 42
	if r.Len() != 1 || *r.Front() != 42 || *r.At(0) != 42 {
		t.Error("push after Clear landed wrong")
	}
	r.Clear()
	r.Clear() // clearing an empty ring is a no-op
	if !r.Empty() {
		t.Error("Clear of an empty ring changed it")
	}
}

func TestRingPanicsOnBadIndex(t *testing.T) {
	r := NewRing[int](2)
	*r.PushSlot() = 1
	for _, f := range []func(){
		func() { r.At(1) },
		func() { r.At(-1) },
		func() { NewRing[int](1).Front() },
		func() { NewRing[int](1).DropFront() },
		func() { r.PushSlot(); r.PushSlot() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// Property: Ring matches a slice model under random push/pop/clear.
func TestQuickRingMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	f := func() bool {
		capacity := 1 + rng.Intn(8)
		r := NewRing[int](capacity)
		var model []int
		next := 0
		for op := 0; op < 300; op++ {
			switch rng.Intn(3) {
			case 0:
				if r.Full() != (len(model) == capacity) {
					return false
				}
				if !r.Full() {
					*r.PushSlot() = next
					model = append(model, next)
				}
				next++
			case 1:
				if r.Empty() != (len(model) == 0) {
					return false
				}
				if !r.Empty() {
					if *r.Front() != model[0] {
						return false
					}
					r.DropFront()
					model = model[1:]
				}
			default:
				if rng.Intn(4) == 0 { // rarely, so the ring also fills
					r.Clear()
					model = model[:0]
				}
			}
			if r.Len() != len(model) {
				return false
			}
			for i, v := range model {
				if *r.At(i) != v {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestRenameTable(t *testing.T) {
	rt := NewRenameTable()
	if rt.Producer(5) != NoProducer {
		t.Error("fresh table not ready")
	}
	rt.SetProducer(5, 10)
	if rt.Producer(5) != 10 {
		t.Error("producer not recorded")
	}
	rt.SetProducer(5, 12) // younger producer overrides
	rt.ClearIfProducer(5, 10)
	if rt.Producer(5) != 12 {
		t.Error("stale clear removed younger producer")
	}
	rt.ClearIfProducer(5, 12)
	if rt.Producer(5) != NoProducer {
		t.Error("clear failed")
	}
	// r0 is never renamed.
	rt.SetProducer(isa.RegZero, 3)
	if rt.Producer(isa.RegZero) != NoProducer {
		t.Error("r0 was renamed")
	}
	// Absent operands are always ready.
	if rt.Producer(isa.NoReg) != NoProducer {
		t.Error("NoReg not ready")
	}
}

// TestRenameSquash: mis-speculation recovery resets the table and
// re-installs the producers of the surviving in-flight instructions.
func TestRenameSquash(t *testing.T) {
	rt := NewRenameTable()
	rt.SetProducer(1, 5)
	rt.SetProducer(2, 9)
	rt.SetProducer(3, 15)
	rt.Reset()
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		if rt.Producer(r) != NoProducer {
			t.Fatalf("r%d still has producer %d after Reset", r, rt.Producer(r))
		}
	}
	rt.SetProducer(1, 5)
	rt.SetProducer(2, 9)
	if rt.Producer(1) != 5 || rt.Producer(2) != 9 || rt.Producer(3) != NoProducer {
		t.Error("re-installed producers wrong")
	}
}

func TestFUPoolDefaultsMatchPaper(t *testing.T) {
	cfg := DefaultFUConfig()
	if cfg[FUALU].Count != 4 || cfg[FUALU].Latency != 1 {
		t.Errorf("ALU spec %+v", cfg[FUALU])
	}
	if cfg[FUMult].Count != 1 || cfg[FUMult].Latency != 3 {
		t.Errorf("MUL spec %+v", cfg[FUMult])
	}
	if cfg[FUDiv].Count != 1 || cfg[FUDiv].Latency != 10 {
		t.Errorf("DIV spec %+v", cfg[FUDiv])
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFUPoolALUBandwidth(t *testing.T) {
	p := NewFUPool(DefaultFUConfig())
	for i := 0; i < 4; i++ {
		if _, ok := p.TryIssue(FUALU, 100); !ok {
			t.Fatalf("ALU issue %d failed", i)
		}
	}
	if _, ok := p.TryIssue(FUALU, 100); ok {
		t.Error("fifth ALU issue in one cycle succeeded")
	}
	// Pipelined: all four available again next cycle.
	for i := 0; i < 4; i++ {
		if _, ok := p.TryIssue(FUALU, 101); !ok {
			t.Fatalf("ALU issue %d at cycle+1 failed", i)
		}
	}
}

func TestFUPoolDivUnpipelined(t *testing.T) {
	p := NewFUPool(DefaultFUConfig())
	lat, ok := p.TryIssue(FUDiv, 50)
	if !ok || lat != 10 {
		t.Fatalf("div issue lat=%d ok=%t", lat, ok)
	}
	if _, ok := p.TryIssue(FUDiv, 51); ok {
		t.Error("unpipelined div accepted back-to-back")
	}
	if _, ok := p.TryIssue(FUDiv, 59); ok {
		t.Error("div accepted before completing")
	}
	if _, ok := p.TryIssue(FUDiv, 60); !ok {
		t.Error("div not available after latency elapsed")
	}
}

func TestFUPoolMultPipelined(t *testing.T) {
	p := NewFUPool(DefaultFUConfig())
	if _, ok := p.TryIssue(FUMult, 7); !ok {
		t.Fatal("mult issue failed")
	}
	if _, ok := p.TryIssue(FUMult, 7); ok {
		t.Error("one multiplier accepted two ops in a cycle")
	}
	if lat, ok := p.TryIssue(FUMult, 8); !ok || lat != 3 {
		t.Errorf("pipelined mult next-cycle issue lat=%d ok=%t", lat, ok)
	}
}

func TestFUConfigValidate(t *testing.T) {
	var c FUConfig
	c[FUALU] = FUSpec{Count: -1, Latency: 1}
	if err := c.Validate(); err == nil {
		t.Error("negative count accepted")
	}
	c = DefaultFUConfig()
	c[FUDiv].Latency = 0
	if err := c.Validate(); err == nil {
		t.Error("zero latency accepted")
	}
}

func TestMemPorts(t *testing.T) {
	m := NewMemPorts(2, 1)
	if !m.TryRead() || !m.TryRead() {
		t.Fatal("read ports unavailable")
	}
	if m.TryRead() {
		t.Error("third read port granted")
	}
	if !m.TryWrite() {
		t.Fatal("write port unavailable")
	}
	if m.TryWrite() {
		t.Error("second write port granted")
	}
	m.NewCycle()
	if !m.TryRead() || !m.TryWrite() {
		t.Error("ports not refreshed by NewCycle")
	}
}

// TestRingSnapshotSetContents: Snapshot/SetContents round-trips the logical
// (age-ordered) content regardless of internal head position.
func TestRingSnapshotSetContents(t *testing.T) {
	r := NewRing[int](4)
	// Rotate the head so the physical layout wraps.
	*r.PushSlot() = 9
	*r.PushSlot() = 8
	r.DropFront()
	r.DropFront()
	for _, v := range []int{1, 2, 3} {
		*r.PushSlot() = v
	}
	snap := r.Snapshot()
	if len(snap) != 3 || snap[0] != 1 || snap[2] != 3 {
		t.Fatalf("Snapshot = %v, want [1 2 3]", snap)
	}
	fresh := NewRing[int](4)
	if err := fresh.SetContents(snap); err != nil {
		t.Fatal(err)
	}
	if fresh.Len() != 3 || *fresh.At(0) != 1 || *fresh.At(2) != 3 {
		t.Fatalf("restored ring content wrong: %v", fresh.Snapshot())
	}
	if got := *fresh.Front(); got != 1 {
		t.Fatalf("restored ring's front is %d, want 1", got)
	}
	if err := fresh.SetContents([]int{1, 2, 3, 4, 5}); err == nil {
		t.Error("SetContents accepted more entries than capacity")
	}
	if fresh.Len() != 0 {
		t.Error("failed SetContents left entries behind")
	}
}

// TestRenameTableProducersRoundTrip: the producer map serializes and
// restores losslessly.
func TestRenameTableProducersRoundTrip(t *testing.T) {
	rt := NewRenameTable()
	rt.SetProducer(3, 41)
	rt.SetProducer(7, 99)
	prod := rt.Producers()
	fresh := NewRenameTable()
	if err := fresh.SetProducers(prod); err != nil {
		t.Fatal(err)
	}
	if fresh.Producer(3) != 41 || fresh.Producer(7) != 99 || fresh.Producer(4) != NoProducer {
		t.Error("restored rename table differs")
	}
	if err := fresh.SetProducers(make([]int64, 100)); err == nil {
		t.Error("SetProducers accepted too many registers")
	}
}

// TestFUPoolBusyUntilRoundTrip: per-unit availability serializes and
// restores losslessly, including unpipelined busy spans.
func TestFUPoolBusyUntilRoundTrip(t *testing.T) {
	p := NewFUPool(DefaultFUConfig())
	p.TryIssue(FUALU, 10)
	p.TryIssue(FUDiv, 10) // busy until 20
	busy := p.BusyUntil()
	fresh := NewFUPool(DefaultFUConfig())
	if err := fresh.SetBusyUntil(busy); err != nil {
		t.Fatal(err)
	}
	if _, ok := fresh.TryIssue(FUDiv, 15); ok {
		t.Error("restored divider accepted work while busy")
	}
	if _, ok := fresh.TryIssue(FUDiv, 20); !ok {
		t.Error("restored divider refused work after its busy span")
	}
	var wrong FUConfig
	wrong[FUALU] = FUSpec{Count: 1, Latency: 1, Pipelined: true}
	wrong[FUMult] = FUSpec{Count: 1, Latency: 3, Pipelined: true}
	wrong[FUDiv] = FUSpec{Count: 1, Latency: 10}
	if err := NewFUPool(wrong).SetBusyUntil(busy); err == nil {
		t.Error("SetBusyUntil accepted a mismatched pool shape")
	}
}

// TestRingStableSlots covers what the engine's LSQ handles rely on: an
// entry stays in its backing slot for its whole residence, so the pointer
// PushSlot returned still reads it after older entries leave and a younger
// push wraps around the backing array; wrapped content comes back from
// Views as two age-ordered spans; and At refuses indices outside the
// resident entries.
func TestRingStableSlots(t *testing.T) {
	r := NewRing[int](3)
	var slots []*int
	for v := 0; v < 3; v++ {
		p := r.PushSlot()
		*p = v * 10
		slots = append(slots, p)
	}
	r.DropFront() // 0 gone
	if *r.Front() != 10 || r.At(0) != slots[1] || r.At(1) != slots[2] {
		t.Fatalf("after DropFront: front=%d, or an entry moved", *r.Front())
	}
	// A wrapped push reuses the freed slot; the older entries stay put.
	p := r.PushSlot()
	*p = 30
	if p != slots[0] || r.At(2) != p || *slots[1] != 10 || *slots[2] != 20 || r.Len() != 3 {
		t.Fatalf("after wrapped PushSlot: len=%d, or an entry moved", r.Len())
	}
	// Views: wrapped content comes back as two age-ordered spans.
	s1, s2 := r.Views()
	var got []int
	got = append(got, s1...)
	got = append(got, s2...)
	want := []int{10, 20, 30}
	if len(got) != len(want) {
		t.Fatalf("Views total %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Views content %v, want %v", got, want)
		}
	}
	// Indices before the oldest or past the youngest are engine bugs: they
	// must panic.
	for _, i := range []int{-1, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d) did not panic", i)
				}
			}()
			r.At(i)
		}()
	}
	// SetContents makes its first value the oldest.
	if err := r.SetContents([]int{7, 8}); err != nil {
		t.Fatal(err)
	}
	if *r.Front() != 7 || *r.At(0) != 7 || *r.At(1) != 8 || r.Len() != 2 {
		t.Fatalf("after SetContents: %v", r.Snapshot())
	}
}
