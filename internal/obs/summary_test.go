package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzTraceSummary drives the trace reader behind `lambdatune
// trace-summary` — ReadJSONL, ValidateRecords, Summarize, SummaryTable —
// over arbitrary input. Nothing may panic, and a trace that validates never
// yields a negative phase cost.
func FuzzTraceSummary(f *testing.F) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "fixture.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture)
	for _, seed := range []string{
		"",
		"\n\n",
		"{",
		"not json\n",
		`{"id":"1"}` + "\n",
		`{"id":1,"parent":0,"name":"query","virt_start":2,"virt_end":1}` + "\n",
		`{"id":1,"parent":0,"name":"query","virt_start":0,"virt_end":1e308}` + "\n" +
			`{"id":2,"parent":1,"name":"query","virt_start":0,"virt_end":1e308}` + "\n",
		`{"id":1,"parent":0,"name":"index.build","virt_start":0,"virt_end":1,"wall_start_ns":-9223372036854775808,"wall_end_ns":9223372036854775807}` + "\n",
		`{"id":1,"parent":2,"name":"llm.sample","virt_start":-1,"virt_end":0}` + "\n",
		`{"id":1,"parent":0,"name":"schedule","virt_start":0,"virt_end":0,"events":[{"name":"","virt":-1}]}` + "\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		valid := ValidateRecords(recs) == nil
		s := Summarize(recs)
		_ = SummaryTable(s)
		if !valid {
			return
		}
		for _, p := range s.Phases {
			if p.Spans < 0 || p.VirtSeconds < 0 || p.WallSeconds < 0 {
				t.Errorf("valid trace summarized to a negative phase cost: %+v", p)
			}
		}
	})
}
