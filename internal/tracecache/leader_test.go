//go:build unix

package tracecache

import (
	"context"
	"errors"
	"os"
	"syscall"
	"testing"
)

// holdMiss makes k's spill file a FIFO, so a miss on k blocks opening it
// until release runs: the miss stays in flight for exactly as long as the
// test needs. release lets the open through and feeds it no bytes, so the
// miss refuses the empty container, removes the file and generates under
// its own context.
func holdMiss(t *testing.T, c *Cache, k Key) (release func()) {
	t.Helper()
	path := c.spillFile(k)
	if err := syscall.Mkfifo(path, 0o600); err != nil {
		t.Fatal(err)
	}
	return func() {
		f, err := os.OpenFile(path, os.O_WRONLY, 0) // waits for the miss to open it
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
}

// TestCancelledFamilyLeader: a deriver waiting on its family's leader
// still returns the exact trace when the leader is cancelled while in
// flight, by loading its own key; and a deriver cancelled while it waits
// removes its entry. Neither leaks an in-flight entry. The leader's miss
// is held open on a FIFO spill file, so it is in flight by construction.
func TestCancelledFamilyLeader(t *testing.T) {
	const limit = 100_000
	p := gzipProfile(t)
	keys := familyKeys(p, limit)
	long, short := keys[0], keys[3]

	t.Run("leader", func(t *testing.T) {
		c := New(Config{SpillDir: t.TempDir()})
		release := holdMiss(t, c, long)
		lctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		lerr := make(chan error, 1)
		go func() {
			_, err := c.Get(lctx, p, long.TC, limit)
			lerr <- err
		}()
		waitEntries(t, c, 1)
		var tr *Trace
		var err error
		done := make(chan struct{})
		go func() {
			defer close(done)
			tr, err = c.Get(context.Background(), p, short.TC, limit)
		}()
		waitEntries(t, c, 2) // the deriver chose the in-flight leader
		cancel()
		release()
		if err := <-lerr; !errors.Is(err, context.Canceled) {
			t.Fatalf("leader: err = %v, want context.Canceled mid-fill", err)
		}
		<-done
		if err != nil {
			t.Fatal(err)
		}
		checkTrace(t, tr, direct(t, short))
		st := c.Stats()
		if st.Generations != 1 || st.Derivations != 0 || st.Entries != 1 || len(c.families[short.family()]) != 1 {
			t.Fatalf("stats %+v, family index %d; want the deriver's own generation as the one entry",
				st, len(c.families[short.family()]))
		}
	})

	t.Run("deriver", func(t *testing.T) {
		c := New(Config{SpillDir: t.TempDir()})
		release := holdMiss(t, c, long)
		lead := make(chan error, 1)
		go func() {
			_, err := c.Get(context.Background(), p, long.TC, limit)
			lead <- err
		}()
		waitEntries(t, c, 1)
		dctx, cancel := context.WithCancel(context.Background())
		derr := make(chan error, 1)
		go func() {
			_, err := c.Get(dctx, p, short.TC, limit)
			derr <- err
		}()
		waitEntries(t, c, 2)
		cancel()
		if err := <-derr; !errors.Is(err, context.Canceled) {
			t.Fatalf("deriver: err = %v, want context.Canceled", err)
		}
		release()
		if err := <-lead; err != nil {
			t.Fatal(err)
		}
		if st := c.Stats(); st.Entries != 1 || len(c.families[long.family()]) != 1 {
			t.Fatalf("cancelled deriver left %d entries, %d in the family index; want 1", st.Entries, len(c.families[long.family()]))
		}
		tr, err := c.Get(context.Background(), p, short.TC, limit)
		if err != nil {
			t.Fatal(err)
		}
		checkTrace(t, tr, direct(t, short))
		if st := c.Stats(); st.Generations != 1 || st.Derivations != 1 {
			t.Fatalf("stats %+v; want 1 generation and 1 derivation", st)
		}
	})
}
