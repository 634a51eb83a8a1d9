package jobd

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// FuzzJournalLoad writes arbitrary spec.json and results.ndjson bytes into
// a job directory and replays it the way recovery does. Every input must
// load or fail cleanly, and every recovered result must name one of the
// spec's points.
func FuzzJournalLoad(f *testing.F) {
	dir := f.TempDir()
	_, id := seedJournal(f, dir, 2)
	spec, err := os.ReadFile(filepath.Join(dir, id, "spec.json"))
	if err != nil {
		f.Fatal(err)
	}
	results, err := os.ReadFile(resultsFile(dir, id))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(spec, results)
	f.Add(spec, append(results, `{"terminal":"done"}`+"\n"...))
	// Whole records naming a point the spec does not have: a legacy line
	// and one inside a valid integrity envelope.
	f.Add(spec, []byte(`{"result":{"index":7}}`+"\n"))
	line := []byte(`{"result":{"index":-1}}`)
	f.Add(spec, []byte(fmt.Sprintf(`{"crc":%d,"line":%s}`+"\n", crc32.Checksum(line, crcTable), line)))
	f.Fuzz(func(t *testing.T, spec, results []byte) {
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, id), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, id, "spec.json"), spec, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(resultsFile(dir, id), results, 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := (&journal{dir: dir}).loadJob(id)
		if err != nil {
			return
		}
		for _, wr := range rec.results {
			if wr.Index < 0 || wr.Index >= len(rec.spec.Job.Points) {
				raw, _ := json.Marshal(wr)
				t.Fatalf("recovered result %s names no point of a %d-point job", raw, len(rec.spec.Job.Points))
			}
		}
	})
}
