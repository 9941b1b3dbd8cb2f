package main

import (
	"bytes"
	"context"
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"xlp/internal/boolfn"
	"xlp/internal/corpus"
	"xlp/internal/gaia"
	"xlp/internal/prop"
	"xlp/internal/service"
	"xlp/internal/strict"
)

// The reference results every operation is checked against. They are
// regenerated with `go run . -gen-refs refs` from this directory:
//
//   - groundness.json: success functions of every predicate of the 12
//     logic programs, computed by GAIA (internal/gaia), the special-purpose
//     abstract interpreter that shares no evaluation machinery with the
//     tabled analyzer under test.
//   - strictness.json: e/d demand signatures of every function of the 10
//     functional programs, computed without supplementary tabling and
//     checked equal to the supplementary-tabling run when generated.
//   - depthk.json: the depth-2 response predicates for the programs the
//     service mix sends as depthk requests, recorded from the service and
//     checked byte-equal across two independent service instances when
//     generated (a recorded golden: no second depth-k implementation
//     exists).
//
//go:embed refs/*.json
var refFS embed.FS

// depthKProgs are the programs the service mix analyses with depthk.
var depthKProgs = []string{"pg", "qsort", "queens"}

// depthK is the depth bound of the mix's depthk requests.
const depthK = 2

type groundRef struct {
	Arity   int    `json:"arity"`
	Success string `json:"success"` // formula over A1..An
	Rows    string `json:"rows"`    // truth table, hex, row r is bit r%4 of digit r/4
}

type strictRef struct {
	E []string `json:"e"` // demand on each argument under e-demand
	D []string `json:"d"` // demand on each argument under d-demand
}

type refSet struct {
	ground map[string]map[string]groundRef
	strict map[string]map[string]strictRef
	depthk map[string][]service.PredReport
}

func loadRefs() (*refSet, error) {
	r := &refSet{}
	for name, dst := range map[string]any{
		"groundness.json": &r.ground,
		"strictness.json": &r.strict,
		"depthk.json":     &r.depthk,
	} {
		data, err := refFS.ReadFile("refs/" + name)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(data, dst); err != nil {
			return nil, fmt.Errorf("refs/%s: %w", name, err)
		}
	}
	return r, nil
}

// rowsHex encodes f's truth table.
func rowsHex(f *boolfn.Fun) string {
	n := 1 << uint(f.N())
	digits := make([]byte, (n+3)/4)
	for r := 0; r < n; r++ {
		if f.Row(uint(r)) {
			digits[r/4] |= 1 << uint(r%4)
		}
	}
	var b strings.Builder
	for _, d := range digits {
		b.WriteByte("0123456789abcdef"[d])
	}
	return b.String()
}

func argNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("A%d", i+1)
	}
	return names
}

func demandStrings(ds []strict.Demand) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.String()
	}
	return out
}

// checkGround compares a groundness analysis with the GAIA reference.
func (r *refSet) checkGround(prog string, a *prop.Analysis) error {
	want, ok := r.ground[prog]
	if !ok {
		return fmt.Errorf("%s: no groundness reference", prog)
	}
	if len(a.Results) != len(want) {
		return fmt.Errorf("%s: %d predicates, reference has %d", prog, len(a.Results), len(want))
	}
	for ind, w := range want {
		got, ok := a.Results[ind]
		if !ok {
			return fmt.Errorf("%s: predicate %s missing", prog, ind)
		}
		if got.Arity != w.Arity || rowsHex(got.Success) != w.Rows {
			return fmt.Errorf("%s: %s success %s, reference %s", prog, ind, got.FormatSuccess(), w.Success)
		}
	}
	return nil
}

// checkStrict compares a strictness analysis with the reference.
func (r *refSet) checkStrict(prog string, a *strict.Analysis) error {
	want, ok := r.strict[prog]
	if !ok {
		return fmt.Errorf("%s: no strictness reference", prog)
	}
	if len(a.Results) != len(want) {
		return fmt.Errorf("%s: %d functions, reference has %d", prog, len(a.Results), len(want))
	}
	for ind, w := range want {
		got, ok := a.Results[ind]
		if !ok {
			return fmt.Errorf("%s: function %s missing", prog, ind)
		}
		if e, d := demandStrings(got.UnderE), demandStrings(got.UnderD); !slices.Equal(e, w.E) || !slices.Equal(d, w.D) {
			return fmt.Errorf("%s: %s e->%v d->%v, reference e->%v d->%v", prog, ind, e, d, w.E, w.D)
		}
	}
	return nil
}

// checkResponse compares a service response's results with the
// reference for the program it analysed.
func (r *refSet) checkResponse(kind service.Kind, prog string, resp *service.Response) error {
	if resp.Kind != kind {
		return fmt.Errorf("%s %s: response kind %s", kind, prog, resp.Kind)
	}
	switch kind {
	case service.KindGroundness:
		want := r.ground[prog]
		if len(resp.Predicates) != len(want) {
			return fmt.Errorf("groundness %s: %d predicates, reference has %d", prog, len(resp.Predicates), len(want))
		}
		for _, p := range resp.Predicates {
			if w, ok := want[p.Indicator]; !ok || p.Arity != w.Arity || p.Success != w.Success {
				return fmt.Errorf("groundness %s: %s success %q, reference %q", prog, p.Indicator, p.Success, w.Success)
			}
		}
	case service.KindStrictness:
		want := r.strict[prog]
		if len(resp.Functions) != len(want) {
			return fmt.Errorf("strictness %s: %d functions, reference has %d", prog, len(resp.Functions), len(want))
		}
		for _, f := range resp.Functions {
			if w, ok := want[f.Indicator]; !ok || !slices.Equal(f.UnderE, w.E) || !slices.Equal(f.UnderD, w.D) {
				return fmt.Errorf("strictness %s: %s e->%v d->%v differs from reference", prog, f.Indicator, f.UnderE, f.UnderD)
			}
		}
	case service.KindDepthK:
		got, _ := json.Marshal(resp.Predicates)
		want, _ := json.Marshal(r.depthk[prog])
		if resp.K != depthK || string(got) != string(want) {
			return fmt.Errorf("depthk %s: predicates differ from reference", prog)
		}
	default:
		return fmt.Errorf("no reference for kind %s", kind)
	}
	return nil
}

// generateRefs recomputes the reference files into dir.
func generateRefs(dir string) error {
	ground := map[string]map[string]groundRef{}
	for _, p := range corpus.LogicPrograms() {
		g, err := gaia.Analyze(p.Source)
		if err != nil {
			return fmt.Errorf("gaia %s: %w", p.Name, err)
		}
		m := map[string]groundRef{}
		for ind, res := range g.Results {
			m[ind] = groundRef{Arity: res.Arity, Success: res.Success.Format(argNames(res.Arity)), Rows: rowsHex(res.Success)}
		}
		ground[p.Name] = m
	}
	strictRefs := map[string]map[string]strictRef{}
	for _, p := range corpus.FuncPrograms() {
		plain, err := strict.Analyze(p.Source, strict.Options{NoSupplementary: true})
		if err != nil {
			return fmt.Errorf("strictness %s: %w", p.Name, err)
		}
		supp, err := strict.Analyze(p.Source, strict.Options{})
		if err != nil {
			return fmt.Errorf("strictness %s: %w", p.Name, err)
		}
		m := map[string]strictRef{}
		for ind, res := range plain.Results {
			m[ind] = strictRef{E: demandStrings(res.UnderE), D: demandStrings(res.UnderD)}
		}
		r := &refSet{strict: map[string]map[string]strictRef{p.Name: m}}
		if err := r.checkStrict(p.Name, supp); err != nil {
			return fmt.Errorf("supplementary tabling changes the result: %w", err)
		}
		strictRefs[p.Name] = m
	}
	depthk := map[string][]service.PredReport{}
	for _, name := range depthKProgs {
		p, err := corpus.Get(name)
		if err != nil {
			return err
		}
		var runs [2][]service.PredReport
		for i := range runs {
			svc := service.New(service.Config{})
			resp, err := svc.Do(context.Background(), &service.Request{Kind: service.KindDepthK, Source: p.Source, Options: service.Options{K: depthK}})
			svc.Close()
			if err != nil {
				return fmt.Errorf("depthk %s: %w", name, err)
			}
			runs[i] = resp.Predicates
		}
		a, _ := json.Marshal(runs[0])
		b, _ := json.Marshal(runs[1])
		if string(a) != string(b) {
			return fmt.Errorf("depthk %s: two service instances disagree", name)
		}
		depthk[name] = runs[0]
	}
	for name, v := range map[string]any{"groundness.json": ground, "strictness.json": strictRefs, "depthk.json": depthk} {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		enc.SetIndent("", " ")
		if err := enc.Encode(v); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644); err != nil {
			return err
		}
	}
	return nil
}
