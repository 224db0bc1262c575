package loadgen

import (
	"encoding/json"
	"io"
	"runtime"
	"time"
)

// LoadRecord is one machine-readable load-run row. The first block of
// fields mirrors experiments.RepairBench exactly, so BENCH_repair.json
// tooling (jq filters, the README table generator, bench-compare eyes)
// reads load rows and bench rows with one schema; the load-specific fields
// extend it.
type LoadRecord struct {
	Dataset      string  `json:"dataset"`
	Rows         int     `json:"rows"` // requests completed in the window
	Rules        int     `json:"rules"`
	Algorithm    string  `json:"algorithm"` // "load/<mix>@<target>rps"
	TuplesPerSec float64 `json:"tuples_per_sec"`
	NsPerTuple   float64 `json:"ns_per_tuple"`
	Steps        int     `json:"steps"`
	Procs        int     `json:"gomaxprocs"`
	NumCPU       int     `json:"num_cpu"`

	TargetRPS   float64 `json:"target_rps"`
	AchievedRPS float64 `json:"achieved_rps"`
	P50Ms       float64 `json:"p50_ms"`
	P90Ms       float64 `json:"p90_ms"`
	P99Ms       float64 `json:"p99_ms"`
	P999Ms      float64 `json:"p999_ms"`
	MaxMs       float64 `json:"max_ms"`
	MeanMs      float64 `json:"mean_ms"`
	// ServiceP99Ms is the send-to-done p99; the gap to P99Ms is queueing
	// delay the schedule-corrected column refuses to hide.
	ServiceP99Ms float64 `json:"service_p99_ms"`
	ErrRate      float64 `json:"err_rate"`
	ShedRate     float64 `json:"shed_rate"`
	Truncated    int64   `json:"truncated"`
	Dropped      int64   `json:"dropped"`
	SLO          string  `json:"slo,omitempty"` // "pass" / "fail"

	// QualityBefore/QualityAfter hold the server's /quality report captured
	// around the run (fixload -quality), verbatim, so a load row carries the
	// windowed coverage/OOV/drift picture alongside its latency columns.
	QualityBefore json.RawMessage `json:"quality_before,omitempty"`
	QualityAfter  json.RawMessage `json:"quality_after,omitempty"`
}

// Record flattens a report's measured totals into one LoadRecord.
// dataset and algorithm label the row; slo is "", "pass" or "fail".
func (r *Report) Record(dataset, algorithm, slo string) LoadRecord {
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	rec := LoadRecord{
		Dataset:      dataset,
		Rows:         int(r.OK),
		Algorithm:    algorithm,
		TuplesPerSec: r.TuplesPerSec(),
		Procs:        runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		TargetRPS:    r.TargetRPS,
		AchievedRPS:  r.AchievedRPS(),
		P50Ms:        ms(r.Latency.Quantile(0.50)),
		P90Ms:        ms(r.Latency.Quantile(0.90)),
		P99Ms:        ms(r.Latency.Quantile(0.99)),
		P999Ms:       ms(r.Latency.Quantile(0.999)),
		MaxMs:        ms(r.Latency.Max()),
		MeanMs:       ms(r.Latency.Mean()),
		ServiceP99Ms: ms(r.Service.Quantile(0.99)),
		ErrRate:      r.ErrRate(),
		ShedRate:     r.ShedRate(),
		Truncated:    r.Truncated,
		Dropped:      r.Dropped,
		SLO:          slo,
	}
	if r.Tuples > 0 {
		rec.NsPerTuple = float64(r.Latency.Sum().Nanoseconds()) / float64(r.Tuples)
	}
	return rec
}

// WriteJSON writes records as indented JSON, the BENCH_repair.json layout.
func WriteJSON(w io.Writer, recs []LoadRecord) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(recs)
}
