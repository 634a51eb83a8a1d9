package tracecache

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/funcsim"
	"repro/internal/trace"
	"repro/internal/workload"
)

var updateTraceGolden = flag.Bool("update-trace-golden", false, "rewrite testdata/trace_golden.json from the current generator")

const traceGoldenPath = "testdata/trace_golden.json"

// traceGoldenLimit is the correct-path budget of every golden trace.
const traceGoldenLimit = 20_000

// traceDigest is the byte-comparable summary of one generated trace.
type traceDigest struct {
	SHA256    string `json:"sha256"`
	Records   int    `json:"records"`
	WrongPath int    `json:"wrong_path"`
}

// digestTrace hashes every field of every record in a fixed order, so the
// digest pins the record stream itself, independent of any container
// encoding.
func digestTrace(recs []trace.Record) traceDigest {
	h := sha256.New()
	buf := make([]byte, 0, 24)
	wrong := 0
	for _, r := range recs {
		if r.Tag {
			wrong++
		}
		buf = append(buf[:0], byte(r.Kind), b2b(r.Tag), byte(r.Dest), byte(r.Src1), byte(r.Src2),
			byte(r.Class), b2b(r.Store), r.Size, byte(r.Ctrl), b2b(r.Taken))
		buf = binary.LittleEndian.AppendUint32(buf, r.Addr)
		buf = binary.LittleEndian.AppendUint32(buf, r.PC)
		buf = binary.LittleEndian.AppendUint32(buf, r.Target)
		h.Write(buf)
	}
	return traceDigest{SHA256: hex.EncodeToString(h.Sum(nil)), Records: len(recs), WrongPath: wrong}
}

func b2b(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// goldenTraceConfigs are the trace configurations the golden covers: the
// paper's default machine, Table 1's FAST-comparison machine (whose
// perfect predictor makes it the no-wrong-path key) and a 64-entry reorder
// buffer, whose 68-record wrong-path blocks walk furthest off the
// correct path.
func goldenTraceConfigs() map[string]funcsim.TraceConfig {
	rb64 := core.DefaultConfig()
	rb64.RBSize = 64
	return map[string]funcsim.TraceConfig{
		"default": core.DefaultConfig().TraceConfig(),
		"fast":    core.FASTComparisonConfig().TraceConfig(),
		"rb64":    rb64.TraceConfig(),
	}
}

// TestGeneratedTraceGolden pins the generator's output record for record:
// every profile under every golden trace configuration must hash to the
// digest, record count and wrong-path count committed in
// testdata/trace_golden.json. Regenerate it with -update-trace-golden
// only for a deliberate change to the generated traces.
func TestGeneratedTraceGolden(t *testing.T) {
	got := map[string]traceDigest{}
	for _, name := range workload.Names() {
		p, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for cname, tc := range goldenTraceConfigs() {
			tr, err := generate(context.Background(), KeyFor(p, tc, traceGoldenLimit))
			if err != nil {
				t.Fatal(err)
			}
			got[name+"/"+cname] = digestTrace(tr.recs)
		}
	}
	if *updateTraceGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(traceGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(traceGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]traceDigest
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d traces generated, golden has %d", len(got), len(want))
	}
	for k, w := range want {
		if g, ok := got[k]; !ok {
			t.Errorf("%s: missing from the generated set", k)
		} else if g != w {
			t.Errorf("%s: generated %+v, golden %+v", k, g, w)
		}
	}
}
