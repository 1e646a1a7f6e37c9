package main

import (
	"bytes"
	"encoding/json"
	"io"
	"maps"
	"os"
	"strconv"
	"testing"
)

type benchmarkSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// A seed never used while the benchmark was tuned still yields a
// correct run and exactly the metrics, with the units, that
// BENCHMARK.json names — traced and untraced. It runs the whole fleet,
// so -short skips it.
func TestHeldOutSeedSameMetricSet(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fleet")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	units := func(ms []struct{ Name, Unit string }) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	for _, tc := range []struct {
		trace int
		want  map[string]string
	}{{0, units(spec.EndToEnd)}, {1, units(spec.PerLayer)}} {
		var out bytes.Buffer
		args := []string{"--workload", "crawl-scan", "--seed", "90210", "--seconds", "10",
			"--trace", strconv.Itoa(tc.trace), "--out", t.TempDir()}
		if code := run(args, &out, io.Discard); code != 0 {
			t.Fatalf("trace %d: exit %d\n%s", tc.trace, code, out.String())
		}
		lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
		var rep report
		if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
			t.Fatalf("trace %d: last line: %v", tc.trace, err)
		}
		got := map[string]string{}
		for name, v := range rep.Metrics {
			got[name] = v.Unit
			if v.Value == nil {
				t.Errorf("trace %d: %s has no value", tc.trace, name)
			}
		}
		if !maps.Equal(got, tc.want) || !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
			t.Errorf("trace %d: correct=%v attempted=%d failed=%d metrics=%v, want %v",
				tc.trace, rep.Correct, rep.Attempted, rep.Failed, got, tc.want)
		}
	}
}
