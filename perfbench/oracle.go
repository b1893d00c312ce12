package main

import (
	"bytes"
	"strings"

	"interferometry/internal/core"
	"interferometry/internal/results"
)

// checkScalar re-measures layout i of a batched dataset at BatchSize 1,
// the scalar Machine.RunDeterministic path, and requires its
// measurement CSV row to be byte-identical to the dataset's row i.
func checkScalar(r *run, ds *core.Dataset, i int) {
	cfg := ds.Config
	cfg.FirstLayout += i
	cfg.Layouts = 1
	cfg.BatchSize = 1
	cfg.Workers = 1
	cfg.Obs = nil
	one, err := core.RunCampaign(cfg)
	if err != nil {
		r.fail("%s layout %d: scalar re-measurement: %v", ds.Benchmark, i, err)
		return
	}
	want, err := csvRow(one, 0)
	if err != nil {
		r.fail("%s layout %d: %v", ds.Benchmark, i, err)
		return
	}
	got, err := csvRow(ds, i)
	if err != nil {
		r.fail("%s layout %d: %v", ds.Benchmark, i, err)
		return
	}
	if got != want {
		r.fail("%s layout %d: batched row %q, scalar row %q", ds.Benchmark, i, got, want)
		return
	}
	r.pass()
}

// csvRow is row i of the dataset's measurement CSV, without the header.
func csvRow(ds *core.Dataset, i int) (string, error) {
	var buf bytes.Buffer
	if err := results.WriteMeasurementsCSVRange(&buf, ds, i, 1, false); err != nil {
		return "", err
	}
	return strings.TrimSuffix(buf.String(), "\n"), nil
}
