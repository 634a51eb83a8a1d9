package sweep

import (
	"cmp"
	"context"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/tracecache"
)

// LSQ ladders. LSQSize enters the engine in three places only: the LSQ
// ring's capacity (which moves slot positions but no age-ordered walk),
// the dispatch stall on a full LSQ, and the LSQ occupancy's Cap. Nothing
// between dispatch and the end-of-cycle occupancy sample shrinks the LSQ,
// so a run whose LSQ occupancy never reached capacity never took that
// stall. A larger LSQ with every other setting equal then follows the
// identical trajectory, and its Result differs only in Config.LSQSize and
// LSQ.Cap — which is how a ladder answers its larger rungs. The engine's
// reads of LSQSize are pinned by TestLSQSizeReadsArePinned in
// internal/core, which fails when one is added or moved.

// ladders groups point indices into ladders, each sorted smallest LSQ
// first (stably, so equal sizes keep point order). Resumed points are
// ladders of one. The ladders are in tracecache.ServeOrder of their trace
// configurations, ties in order of their first point: each family's
// longest trace is asked for first, so the rest derive from it rather
// than generate.
func ladders(points []Point, resume map[int]*core.Checkpoint) [][]int {
	// A ladder's key is its points' shared Config with LSQSize zeroed.
	byKey := map[core.Config]int{}
	var out [][]int
	for i, pt := range points {
		key := pt.Config
		key.LSQSize = 0
		if resume[i] == nil {
			if l, seen := byKey[key]; seen {
				out[l] = append(out[l], i)
				continue
			}
			byKey[key] = len(out)
		}
		out = append(out, []int{i})
	}
	for _, l := range out {
		slices.SortStableFunc(l, func(a, b int) int {
			return cmp.Compare(points[a].Config.LSQSize, points[b].Config.LSQSize)
		})
	}
	slices.SortStableFunc(out, func(a, b []int) int {
		return tracecache.ServeOrder(points[a[0]].Config.TraceConfig(), points[b[0]].Config.TraceConfig())
	})
	return out
}

// answerFrom builds pt's result from src, the result of a smaller rung of
// its ladder whose LSQ never filled: src's statistics under pt's own Config
// and LSQ capacity.
func answerFrom(pt Point, src core.Result) core.Result {
	res := src
	res.Config = pt.Config
	res.LSQ.Cap = pt.Config.LSQSize
	return res
}

// run is one simulation of a point. A run with larger rungs records its
// telemetry windows while they could still answer those rungs; an answered
// rung streams them as its own.
type run struct {
	record  bool // a larger rung may be answered from this run
	windows []core.IntervalSnapshot
	sourced chan struct{} // closed once the run has its trace, when non-nil
}

// note records one of the run's telemetry windows. A recording run stops
// at the first window that shows a full LSQ: such a run answers nothing.
func (rn *run) note(snap core.IntervalSnapshot) {
	if rn.record && snap.LSQ.FullFrac() > 0 {
		rn.record, rn.windows = false, nil
	}
	if rn.record {
		rn.windows = append(rn.windows, snap)
	}
}

// scheduler runs one Run call's points ladder by ladder. A ladder runs one
// rung at a time, smallest first, so its pending rungs are always the
// suffix from pend on, and the set of points it simulates never depends on
// timing.
type scheduler struct {
	r       Runner
	ctx     context.Context
	points  []Point
	ladders [][]int
	ladder  []int // each point's ladder
	rung    []int // each point's position in its ladder
	// head[l] is the first ladder whose trace serves ladder l's, or -1;
	// sourced[l] closes once ladder l's first rung has its trace (nil
	// without a trace cache). A ladder with a head starts its first rung
	// once the head's has its trace, so it derives its trace rather than
	// race its head to generate one.
	head    []int
	sourced []chan struct{}

	mu   sync.Mutex
	pend []int  // each ladder's first pending rung
	busy []bool // each ladder's rung in flight
	// skip[l] is l while ladder l has a pending rung, else a later ladder
	// (see open); skip[len(ladders)] ends the walk.
	skip    []int
	results []Result

	out   sync.Mutex // serializes OnResult and Observer callbacks
	nDone int        // points reported, for Progress.Done
}

func newScheduler(ctx context.Context, r Runner, points []Point) *scheduler {
	s := &scheduler{
		r: r, ctx: ctx, points: points,
		ladders: ladders(points, r.Resume),
		ladder:  make([]int, len(points)),
		rung:    make([]int, len(points)),
		results: make([]Result, len(points)),
	}
	s.pend = make([]int, len(s.ladders))
	s.busy = make([]bool, len(s.ladders))
	s.skip = make([]int, len(s.ladders)+1)
	for l, lad := range s.ladders {
		s.skip[l] = l
		for k, idx := range lad {
			s.ladder[idx], s.rung[idx] = l, k
		}
	}
	s.skip[len(s.ladders)] = len(s.ladders)
	s.head = make([]int, len(s.ladders))
	s.sourced = make([]chan struct{}, len(s.ladders))
	cached := r.Traces != nil && r.Traces.Cacheable(r.Instructions)
	var keys []tracecache.Key // distinct, in ladder order
	var firsts []int          // the first ladder of each
	for l, lad := range s.ladders {
		s.head[l] = -1
		if !cached {
			continue
		}
		s.sourced[l] = make(chan struct{})
		k := tracecache.KeyFor(r.Workload, points[lad[0]].Config.TraceConfig(), r.Instructions)
		i := slices.Index(keys, k)
		if i < 0 {
			i = len(keys)
			keys, firsts = append(keys, k), append(firsts, l)
		}
		for h := range i {
			if keys[h].Serves(k) {
				s.head[l] = firsts[h]
				break
			}
		}
	}
	return s
}

// work runs points until none is left to start. Results and windows are
// reported outside s.mu, so a slow sink never holds up the other slots'
// scheduling.
func (s *scheduler) work() {
	for {
		s.mu.Lock()
		idx := s.next()
		s.mu.Unlock()
		if idx < 0 {
			return
		}
		l := s.ladder[idx]
		rn := &run{record: s.r.OnTelemetry != nil && s.rung[idx] < len(s.ladders[l])-1}
		if s.rung[idx] == 0 {
			rn.sourced = s.sourced[l]
			if h := s.head[l]; h >= 0 {
				select {
				case <-s.sourced[h]:
				case <-s.ctx.Done():
				}
			}
		}
		res := s.r.runOne(s.ctx, idx, s.points[idx], rn)
		s.mu.Lock()
		answered := s.finish(idx, res)
		s.mu.Unlock()
		s.report(idx, res)
		for _, j := range answered {
			for _, snap := range rn.windows {
				snap.LSQ.Cap = s.points[j].Config.LSQSize
				snap.Core = j
				s.r.OnTelemetry(j, snap)
			}
			s.report(j, s.results[j])
		}
	}
}

// next starts the smallest pending rung of the first ladder with no rung in
// flight and returns its index, or -1 when there is none or the sweep is
// cancelled. A slot that gets -1 exits without losing width: a ladder's
// next rung becomes ready only when its rung in flight finishes, and that
// rung's slot then starts a ready rung itself. The walk passes only
// ladders with a rung in flight, so it costs at most the number of slots.
func (s *scheduler) next() int {
	if s.ctx.Err() != nil {
		return -1
	}
	for l := s.open(0); l < len(s.ladders); l = s.open(l + 1) {
		if !s.busy[l] {
			return s.start(l)
		}
	}
	return -1
}

// open returns the first ladder at or after l that has a pending rung, or
// len(s.ladders). Drained ladders are skipped through s.skip, whose paths
// the walk halves, so each drained ladder is passed about once.
func (s *scheduler) open(l int) int {
	for s.skip[l] != l {
		s.skip[l] = s.skip[s.skip[l]]
		l = s.skip[l]
	}
	return l
}

// start takes ladder l's smallest pending rung.
func (s *scheduler) start(l int) int {
	idx := s.ladders[l][s.pend[l]]
	s.pend[l]++
	s.busy[l] = true
	if s.pend[l] == len(s.ladders[l]) {
		s.skip[l] = l + 1
	}
	return idx
}

// finish records point idx's result and returns the larger rungs it
// answers: every one, when the run succeeded with an LSQ that never
// filled, else none.
func (s *scheduler) finish(idx int, res Result) []int {
	l := s.ladder[idx]
	s.busy[l] = false
	s.results[idx] = res
	if res.Err != nil || res.Res.LSQ.FullFrac() > 0 || s.ctx.Err() != nil {
		return nil
	}
	larger := s.ladders[l][s.rung[idx]+1:]
	for _, j := range larger {
		s.results[j] = Result{Point: s.points[j], Res: answerFrom(s.points[j], res.Res)}
	}
	s.pend[l] = len(s.ladders[l])
	s.skip[l] = l + 1
	return larger
}

// report hands point idx's result to OnResult and the Observer.
func (s *scheduler) report(idx int, res Result) {
	if s.r.OnResult == nil && s.r.Observer == nil {
		return
	}
	s.out.Lock()
	defer s.out.Unlock()
	s.nDone++
	if s.r.OnResult != nil {
		s.r.OnResult(idx, res)
	}
	// A cancelled sweep reports no further progress: the point may have
	// been cut short, and Final marks successful completion only.
	if s.r.Observer != nil && s.ctx.Err() == nil {
		p := PointProgress(idx, res.Res, s.nDone, len(s.points))
		p.Final = s.nDone == len(s.points)
		s.r.Observer.Progress(p)
	}
}
