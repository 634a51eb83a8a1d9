package sweepd

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/sweep"
	"repro/internal/tracecache"
	"repro/internal/workload"
)

// recvBytes feeds data to wire.recv through a net.Pipe, as a peer writing
// those bytes and hanging up would, and returns what recv made of them.
func recvBytes(data []byte) (*Message, error) {
	local, peer := net.Pipe()
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		peer.Write(data) //nolint:errcheck // cut short when recv stops reading
		peer.Close()
	}()
	m, err := newWire(local).recv()
	local.Close()
	<-wrote
	return m, err
}

// frameOf returns the bytes wire.send puts on the connection for m.
func frameOf(t testing.TB, m *Message) []byte {
	t.Helper()
	local, peer := net.Pipe()
	sent := make(chan error, 1)
	go func() {
		sent <- newWire(local).send(m)
		local.Close()
	}()
	data, err := io.ReadAll(peer)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRecvHugePrefixAllocatesLittle: a length prefix is only the peer's
// claim, and the coordinator reads it before the hello tells it who the
// peer is. Five bytes announcing a 1 GiB frame must not cost 1 GiB.
func TestRecvHugePrefixAllocatesLittle(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := recvBytes([]byte{0x40, 0, 0, 0, '{'})
	runtime.ReadMemStats(&after)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("recv of a truncated frame = %v, want io.ErrUnexpectedEOF", err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d > 4<<20 {
		t.Fatalf("a 5-byte peer made recv allocate %d MiB", d>>20)
	}
}

// TestRecvLargeFrame: a frame many times recvChunk, read as it grows,
// arrives whole.
func TestRecvLargeFrame(t *testing.T) {
	blob := make([]byte, 5*recvChunk+123)
	rand.New(rand.NewSource(1)).Read(blob)
	want := &Message{Type: msgAssign, Assign: &Assignment{Call: 7, KeyID: "k", Trace: blob}}
	got, err := recvBytes(frameOf(t, want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("a multi-chunk frame did not arrive whole")
	}
}

// seedFrames are real frames of every type a connection carries, built
// from a short run's result, telemetry and checkpoints.
func seedFrames(t testing.TB) [][]byte {
	t.Helper()
	p, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	spec, err := SpecOf(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const instrs = 3000
	traces := tracecache.New(tracecache.Config{})
	var (
		mu   sync.Mutex
		ckpt []byte
		snap *core.IntervalSnapshot
	)
	r := sweep.Runner{Workload: p, Instructions: instrs, Traces: traces,
		CheckpointEvery: 512, TelemetryEvery: 512,
		OnCheckpoint: func(_ int, cp *core.Checkpoint) {
			data, err := cp.Encode()
			mu.Lock()
			defer mu.Unlock()
			if err == nil && ckpt == nil {
				ckpt = data
			}
		},
		OnTelemetry: func(_ int, s core.IntervalSnapshot) {
			mu.Lock()
			defer mu.Unlock()
			if snap == nil {
				snap = &s
			}
		},
	}
	res, err := r.Run(context.Background(), []sweep.Point{{Name: "default", Config: cfg}})
	if err != nil || res[0].Err != nil || ckpt == nil || snap == nil {
		t.Fatalf("seed run: err=%v point=%v checkpoint=%t telemetry=%t", err, res[0].Err, ckpt != nil, snap != nil)
	}
	key := tracecache.KeyFor(p, cfg.TraceConfig(), instrs)
	var container bytes.Buffer
	if ok, err := traces.ExportContainer(key, &container); !ok || err != nil {
		t.Fatalf("export seed trace: ok=%t err=%v", ok, err)
	}
	result := WireResultOf(0, res[0])
	result.Call = 1
	msgs := []*Message{
		{Type: msgHello, Hello: &Hello{Proto: protoVersion, Role: roleCoordinator, PingMillis: 5000, DeadMillis: 20000}},
		{Type: msgHello, Hello: &Hello{Proto: protoVersion, Role: roleWorker, Name: "w1"}},
		{Type: msgAssign, Assign: &Assignment{Call: 1, KeyID: key.ID(), Profile: p, Instructions: instrs,
			Points: []WirePoint{{Index: 0, Name: "default", Config: spec}}, Trace: container.Bytes(),
			Checkpoints: map[int][]byte{0: ckpt}, TelemetryEvery: 512}},
		{Type: msgResult, Result: result},
		{Type: msgTelemetry, Telemetry: &TelemetryShip{Call: 1, Index: 0, Snap: *snap}},
		{Type: msgCheckpoint, Checkpoint: &CheckpointShip{Call: 1, Index: 0, Data: ckpt}},
		{Type: msgGroupEnd, GroupEnd: &GroupEnd{Call: 1}},
		{Type: msgCancel, Cancel: &Cancel{Call: 1}},
		{Type: msgPing},
	}
	frames := make([][]byte, len(msgs))
	for i, m := range msgs {
		frames[i] = frameOf(t, m)
	}
	return frames
}

// FuzzWireRecv feeds arbitrary bytes to the frame reader. Every input must
// either fail cleanly or yield a message that survives a send/recv round
// trip: re-framed and read back, it encodes to the same JSON. (Encodings
// are compared rather than values because omitempty drops empty-but-
// non-nil maps and slices, which decode back as nil.)
func FuzzWireRecv(f *testing.F) {
	for _, frame := range seedFrames(f) {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := recvBytes(data)
		if err != nil {
			return
		}
		want, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("received message does not re-encode: %v", err)
		}
		back, err := recvBytes(frameOf(t, m))
		if err != nil {
			t.Fatalf("re-framed message does not decode: %v", err)
		}
		got, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("round trip changed the message\nfirst:  %.300s\nsecond: %.300s", want, got)
		}
	})
}
