package configfile

import (
	"encoding/json"
	"testing"

	"repro/internal/core"
)

// FuzzConfigFile unmarshals arbitrary JSON into a File and materializes
// it. Every input must end in an error or in a Config that passes
// Validate and survives FromConfig → ToConfig unchanged.
func FuzzConfigFile(f *testing.F) {
	for _, cfg := range []core.Config{core.DefaultConfig(), core.FASTComparisonConfig()} {
		raw, err := json.Marshal(FromConfig(cfg))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"width":2,"ifq_size":4,"rb_size":8,"lsq_size":4,"mem_read_ports":1,"mem_write_ports":1,` +
		`"icache":{"hit_latency":3},"dcache":{"size_bytes":4096,"assoc":2,"block_bytes":64,"hit_latency":1,"miss_latency":9,` +
		`"l2":{"size_bytes":65536,"assoc":8,"block_bytes":64,"hit_latency":6,"miss_latency":40}}}`))
	f.Add([]byte(`{"width":2,"ifq_size":4,"rb_size":8,"lsq_size":4,"mem_read_ports":1,"mem_write_ports":1,` +
		`"perfect_bp":true,"predictor":{"kind":"bimod","bimod_size":512,"btb_entries":64,"btb_assoc":1,"ras_size":4}}`))
	f.Add([]byte(`{"width":1,"ifq_size":1,"rb_size":1,"lsq_size":1,"mem_read_ports":1,"mem_write_ports":1,` +
		`"dcache":{"size_bytes":1024,"assoc":4,"block_bytes":4611686018427387904,"hit_latency":1,"miss_latency":2}}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		var file File
		if err := json.Unmarshal(raw, &file); err != nil {
			return
		}
		cfg, err := file.ToConfig()
		if err != nil {
			return
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("ToConfig returned a config that fails Validate: %v", err)
		}
		again, err := FromConfig(cfg).ToConfig()
		if err != nil {
			t.Fatalf("FromConfig → ToConfig rejected a valid config: %v", err)
		}
		if again != cfg {
			t.Fatalf("FromConfig → ToConfig changed the config:\n got %+v\nwant %+v", again, cfg)
		}
	})
}
