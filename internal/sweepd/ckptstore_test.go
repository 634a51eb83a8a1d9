package sweepd

import (
	"sync"
	"testing"

	"repro/internal/sweep"
)

// TestCkptStoreBudget exercises the scheduler's checkpoint retention
// policy: latest-per-point replacement, least-recently-updated eviction
// under the byte budget, release on completion, and the oversized-shipment
// degenerate case.
func TestCkptStoreBudget(t *testing.T) {
	s := NewCheckpointStore(100)

	s.Put(1, make([]byte, 40))
	s.Put(2, make([]byte, 40))
	if s.TotalBytes() != 80 {
		t.Fatalf("total = %d, want 80", s.TotalBytes())
	}

	// Replacement re-accounts rather than double-counting.
	s.Put(1, make([]byte, 50))
	if s.TotalBytes() != 90 || len(s.Get(1)) != 50 {
		t.Fatalf("after replace: total=%d len(1)=%d, want 90/50", s.TotalBytes(), len(s.Get(1)))
	}

	// A third point does not fit: the least-recently-updated (point 2,
	// untouched since its shipment) is evicted, not the freshest.
	s.Put(3, make([]byte, 40))
	if s.Get(2) != nil {
		t.Error("LRU point 2 survived over-budget put")
	}
	if len(s.Get(1)) != 50 || len(s.Get(3)) != 40 {
		t.Errorf("retained set wrong: len(1)=%d len(3)=%d", len(s.Get(1)), len(s.Get(3)))
	}
	if s.Dropped() != 1 {
		t.Errorf("dropped = %d, want 1", s.Dropped())
	}

	// Result landed: bytes come back.
	s.Drop(1)
	if s.TotalBytes() != 40 {
		t.Errorf("total after drop = %d, want 40", s.TotalBytes())
	}

	// A shipment that could never fit is rejected up front: other points'
	// resume state (and the shipping point's own older checkpoint) survive
	// untouched.
	s.Put(3, make([]byte, 30))
	s.Put(4, make([]byte, 200))
	if s.Get(4) != nil {
		t.Error("oversized checkpoint retained past the budget")
	}
	if len(s.Get(3)) != 30 {
		t.Error("an oversized shipment must not harm other points' retained checkpoints")
	}
	if s.TotalBytes() != 30 {
		t.Errorf("total = %d, want 30", s.TotalBytes())
	}
	// Its own older resume state survives an oversized update too.
	s.Put(3, make([]byte, 500))
	if len(s.Get(3)) != 30 {
		t.Error("oversized update evicted the point's own still-valid older checkpoint")
	}

	// Unlimited budget (negative) never evicts.
	u := NewCheckpointStore(-1)
	u.Put(1, make([]byte, 1<<20))
	u.Put(2, make([]byte, 1<<20))
	if u.Get(1) == nil || u.Get(2) == nil || u.Dropped() != 0 {
		t.Error("negative budget must disable the cap")
	}
}

// TestCkptStoreConcurrentJobs drives two per-job stores from concurrent
// checkpoint-shipping goroutines, the shape the job platform creates when
// several admitted jobs churn checkpoints simultaneously: each store must
// enforce only its own budget (churn in one job never evicts the other
// job's resume state), stay internally consistent under -race, and evict
// in least-recently-updated order within its own job.
func TestCkptStoreConcurrentJobs(t *testing.T) {
	const (
		points   = 16
		rounds   = 200
		ckptSize = 64
	)
	// Job A's budget holds every point; job B's holds only half of them.
	jobA := NewCheckpointStore(points * ckptSize)
	jobB := NewCheckpointStore(points * ckptSize / 2)

	var wg sync.WaitGroup
	for _, s := range []*CheckpointStore{jobA, jobB} {
		// Several worker connections ship checkpoints into one job's store
		// concurrently (the coordinator's readLoops), while the scheduler
		// drops and re-puts as results land and groups requeue.
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(s *CheckpointStore, g int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					idx := (g*rounds + r) % points
					s.Put(idx, make([]byte, ckptSize))
					if r%7 == 0 {
						s.Drop((idx + 1) % points)
					}
					_ = s.Get(idx)
				}
			}(s, g)
		}
	}
	wg.Wait()

	if jobA.TotalBytes() > points*ckptSize {
		t.Errorf("job A exceeded its budget: %d > %d", jobA.TotalBytes(), points*ckptSize)
	}
	if jobB.TotalBytes() > points*ckptSize/2 {
		t.Errorf("job B exceeded its budget: %d > %d", jobB.TotalBytes(), points*ckptSize/2)
	}
	// Budget isolation: job A fits all its points, so nothing in A was ever
	// evicted for B's churn (or anything else) — only explicit Drops remove
	// A's state.
	if jobA.Dropped() != 0 {
		t.Errorf("job A dropped %d checkpoints despite a sufficient budget", jobA.Dropped())
	}
	// Job B over-committed by construction and must have evicted.
	if jobB.Dropped() == 0 {
		t.Error("job B never evicted despite a half-size budget")
	}

	// Eviction ordering under deterministic churn: refresh even points,
	// then overflow — the stale odd points must go first.
	s := NewCheckpointStore(8 * ckptSize)
	for i := 0; i < 8; i++ {
		s.Put(i, make([]byte, ckptSize))
	}
	for i := 0; i < 8; i += 2 {
		s.Put(i, make([]byte, ckptSize)) // refresh evens: odds become LRU
	}
	for i := 8; i < 11; i++ {
		s.Put(i, make([]byte, ckptSize)) // three evictions needed
	}
	for _, odd := range []int{1, 3, 5} {
		if s.Get(odd) != nil {
			t.Errorf("stale point %d survived eviction ahead of fresher state", odd)
		}
	}
	for _, keep := range []int{0, 2, 4, 6, 7, 8, 9, 10} {
		if s.Get(keep) == nil {
			t.Errorf("point %d evicted out of least-recently-updated order", keep)
		}
	}
	if s.Dropped() != 3 {
		t.Errorf("dropped = %d, want 3", s.Dropped())
	}
}

// TestLedgerCheckpointRejectsOverBudget: a checkpoint the store rejects
// for being larger than the job's whole budget is not accepted by the
// ledger either, so a scheduler neither journals nor counts it, and the
// point's next assignment carries no resume state.
func TestLedgerCheckpointRejectsOverBudget(t *testing.T) {
	job := &Job{Points: make([]sweep.Point, 2), CheckpointBudget: 10}
	l := NewLedger(job)
	if l.Checkpoint(0, make([]byte, 100)) {
		t.Error("Checkpoint accepted a 100-byte checkpoint under a 10-byte budget")
	}
	if !l.Checkpoint(1, make([]byte, 8)) {
		t.Error("Checkpoint rejected an 8-byte checkpoint under a 10-byte budget")
	}
	gr := l.Assign(0)
	if _, ok := gr.Checkpoints[0]; ok || len(gr.Checkpoints) != 1 {
		t.Errorf("assignment carries checkpoints for %v, want point 1's alone", gr.Checkpoints)
	}
}
