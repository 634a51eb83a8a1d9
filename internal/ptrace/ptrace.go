// Package ptrace collects and renders per-instruction pipeline traces — the
// equivalent of SimpleScalar's ptrace facility for sim-outorder, which the
// paper's statistics model follows. Attach a Collector to core.Config's
// PipeTracer and render a classic pipeline diagram: one row per dynamic
// instruction, one column per major cycle, stage letters marking progress.
//
//	seq pc       instruction        |F D I W C|
//	0   00001000 O{alu d=2 ...}     |F D I W C      |
//	1   00001004 M{ld @0x2000 ...}  |F D . I W C    |
//
// Letters: F fetch, D dispatch, I issue, W writeback, C commit, x squash;
// '.' marks cycles spent waiting between stages.
package ptrace

import (
	"fmt"
	"strings"
)

// event letters in pipeline order.
var stageLetter = map[string]byte{
	"dispatch":  'D',
	"issue":     'I',
	"writeback": 'W',
	"commit":    'C',
	"squash":    'x',
}

type instTrace struct {
	seq       int64
	pc        uint32
	desc      string
	wrongPath bool
	fetchAt   int64
	events    []struct {
		cycle int64
		ch    byte
	}
	lastCycle int64
}

// Collector implements core.PipeTracer for the first Limit instructions
// (sequence numbers 0..Limit-1). The zero value collects nothing; use New.
type Collector struct {
	limit int64
	insts []*instTrace
	bySeq map[int64]*instTrace
}

// New returns a collector for the first limit instructions.
func New(limit int) *Collector {
	return &Collector{limit: int64(limit), bySeq: make(map[int64]*instTrace)}
}

// Fetched implements core.PipeTracer.
func (c *Collector) Fetched(seq, cycle int64, pc uint32, desc string, wrongPath bool) {
	if seq >= c.limit {
		return
	}
	it := &instTrace{seq: seq, pc: pc, desc: desc, wrongPath: wrongPath,
		fetchAt: cycle, lastCycle: cycle}
	c.insts = append(c.insts, it)
	c.bySeq[seq] = it
}

// Stage implements core.PipeTracer.
func (c *Collector) Stage(seq, cycle int64, stage string) {
	it, ok := c.bySeq[seq]
	if !ok {
		return
	}
	ch, ok := stageLetter[stage]
	if !ok {
		return
	}
	it.events = append(it.events, struct {
		cycle int64
		ch    byte
	}{cycle, ch})
	if cycle > it.lastCycle {
		it.lastCycle = cycle
	}
}

// Count returns the number of instructions captured.
func (c *Collector) Count() int { return len(c.insts) }

// Render draws the pipeline diagram.
func (c *Collector) Render() string {
	if len(c.insts) == 0 {
		return "(no instructions captured)\n"
	}
	first := c.insts[0].fetchAt
	last := first
	for _, it := range c.insts {
		if it.lastCycle > last {
			last = it.lastCycle
		}
	}
	width := int(last - first + 1)

	var sb strings.Builder
	fmt.Fprintf(&sb, "pipeline trace, cycles %d..%d (F fetch, D dispatch, I issue, W writeback, C commit, x squash)\n",
		first, last)
	descW := 24
	for _, it := range c.insts {
		lane := make([]byte, width)
		for i := range lane {
			lane[i] = ' '
		}
		mark := func(cycle int64, ch byte) {
			if idx := int(cycle - first); idx >= 0 && idx < width {
				lane[idx] = ch
			}
		}
		mark(it.fetchAt, 'F')
		end := it.fetchAt
		for _, ev := range it.events {
			mark(ev.cycle, ev.ch)
			if ev.cycle > end {
				end = ev.cycle
			}
		}
		// Fill waiting gaps between the fetch and the final event.
		for i := int(it.fetchAt-first) + 1; i < int(end-first); i++ {
			if lane[i] == ' ' {
				lane[i] = '.'
			}
		}
		desc := it.desc
		if it.wrongPath {
			desc = "~" + desc // wrong-path marker
		}
		if len(desc) > descW {
			desc = desc[:descW]
		}
		fmt.Fprintf(&sb, "%-4d %08x %-*s |%s|\n", it.seq, it.pc, descW, desc, string(lane))
	}
	return sb.String()
}
