// Command datagen generates the paper's experimental datasets: a clean
// relation (ground truth) and a dirty copy corrupted with the Section 7.1
// noise model.
//
// Usage:
//
//	datagen -dataset hosp -rows 115000 -rate 0.10 -typo 0.5 -out data/
//
// writes data/hosp.clean.csv, data/hosp.dirty.csv and data/hosp.errors.csv
// (the injected-error log: row, attribute, original, corrupted, kind).
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"fixrule"
	"fixrule/gen"
	"fixrule/internal/store"
)

func main() {
	var (
		ds     = flag.String("dataset", "hosp", "dataset to generate: hosp or uis")
		rows   = flag.Int("rows", 115000, "number of rows")
		rate   = flag.Float64("rate", 0.10, "noise rate: fraction of dirty tuples")
		typo   = flag.Float64("typo", 0.5, "fraction of errors that are typos (rest: active domain)")
		seed   = flag.Int64("seed", 1, "generator seed")
		out    = flag.String("out", ".", "output directory")
		format = flag.String("format", "csv", "relation file format: csv or fcol (binary column chunks)")
	)
	flag.Parse()

	if err := run(*ds, *rows, *rate, *typo, *seed, *out, *format); err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
}

func run(ds string, rows int, rate, typo float64, seed int64, out, format string) error {
	d, err := gen.ByName(ds, rows, seed)
	if err != nil {
		return err
	}
	dirty, errs, err := gen.Corrupt(d.Rel, d.NoiseAttrs, rate, typo, seed+1)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	var save func(string, *fixrule.Relation) error
	switch format {
	case "csv":
		save = fixrule.SaveCSV
	case "fcol":
		save = store.Save
	default:
		return fmt.Errorf("unknown format %q (want csv or fcol)", format)
	}
	cleanPath := filepath.Join(out, ds+".clean."+format)
	dirtyPath := filepath.Join(out, ds+".dirty."+format)
	errsPath := filepath.Join(out, ds+".errors.csv")
	if err := save(cleanPath, d.Rel); err != nil {
		return err
	}
	if err := save(dirtyPath, dirty); err != nil {
		return err
	}
	if err := writeErrors(errsPath, errs); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d rows), %s (%d injected errors), %s\n",
		cleanPath, d.Rel.Len(), dirtyPath, len(errs), errsPath)
	fmt.Println("FDs:")
	for _, f := range d.FDs {
		fmt.Println("  " + f.String())
	}
	return nil
}

func writeErrors(path string, errs []gen.NoiseError) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	if err := w.Write([]string{"row", "attr", "original", "corrupted", "kind"}); err != nil {
		f.Close()
		return err
	}
	for _, e := range errs {
		kind := "active-domain"
		if e.Typo {
			kind = "typo"
		}
		if err := w.Write([]string{
			strconv.Itoa(e.Cell.Row), e.Cell.Attr, e.Original, e.Corrupted, kind,
		}); err != nil {
			f.Close()
			return err
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
