package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"

	"fixrule/internal/core"
	"fixrule/internal/repair"
	"fixrule/internal/schema"
)

// fuzzServer is shared across fuzz iterations: a Server is stateful but
// concurrency-safe, and rebuilding the compiled ruleset per input would
// dominate the fuzzing loop.
var (
	fuzzOnce sync.Once
	fuzzSrv  *Server
)

func fuzzServer() *Server {
	fuzzOnce.Do(func() {
		sch := schema.New("Travel", "name", "country", "capital", "city", "conf")
		rs := core.MustRuleset(
			core.MustNew("phi1", sch, map[string]string{"country": "China"},
				"capital", []string{"Shanghai", "Hongkong"}, "Beijing"),
			core.MustNew("phi4", sch,
				map[string]string{"capital": "Beijing", "conf": "ICDE"},
				"city", []string{"Hongkong"}, "Shanghai"),
		)
		rep, err := repair.NewRepairerChecked(rs)
		if err != nil {
			panic(err)
		}
		// A small body cap keeps huge generated inputs cheap while still
		// exercising the 413 path.
		fuzzSrv = NewWithConfig(rep, Config{MaxBodyBytes: 1 << 20, Logger: discardLogger})
	})
	return fuzzSrv
}

// post drives one request through the full middleware + handler stack.
func post(s *Server, path string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// referenceCSV is the repair /repair/csv must reproduce: body (UTF-8 BOM
// stripped) parsed by encoding/csv, repaired by RepairRelation, rendered
// back by encoding/csv. An error means the reference rejects the body.
func referenceCSV(rep *repair.Repairer, body []byte, alg repair.Algorithm) ([]byte, error) {
	rel, err := schema.ReadCSV(bytes.NewReader(bytes.TrimPrefix(body, []byte("\xEF\xBB\xBF"))), rep.Ruleset().Schema())
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	if err := schema.WriteCSV(&out, rep.RepairRelation(rel, alg).Relation); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// FuzzHandleRepairCSV differentially checks the CSV repair surface against
// the reference repair on arbitrary bytes: where the reference accepts, the
// handler answers 200 with exactly its bytes; where it rejects, the
// handler answers 4xx — or, once output was flushed, a 200 whose body ends
// in the error envelope; bodies over the cap answer 413, or end a flushed
// 200 in the body_too_large envelope. Never a panic, never a 5xx.
func FuzzHandleRepairCSV(f *testing.F) {
	if data, err := os.ReadFile("../../testdata/travel.csv"); err == nil {
		f.Add(data)
	}
	f.Add([]byte("name,country,capital,city,conf\nIan,China,Shanghai,Hongkong,ICDE\n"))
	f.Add([]byte("name,country,capital,city,conf\n\"unclosed,quote\n"))
	f.Add([]byte("a,b\n1,2\n"))                    // wrong header
	f.Add([]byte("name,country,capital\nx,y,z\n")) // wrong arity
	f.Add([]byte("name,country,capital,city,conf\n" + strings.Repeat("x", 1<<16) + ",a,b,c,d\n"))
	f.Add([]byte("name,country,capital,city,conf\n\xff\xfe,\x80,b,c,d\n"))
	f.Add([]byte(""))
	f.Add([]byte("\x00"))
	f.Add([]byte("name,country,capital,city,conf\r\nIan,China,Shanghai,Hongkong,ICDE\r\n"))                                // CRLF
	f.Add([]byte("name,country,capital,city,conf\n\"Ian\nLee\",China,Shanghai,Hongkong,ICDE\n"))                           // quoted multi-line field
	f.Add([]byte("\xEF\xBB\xBFname,country,capital,city,conf\nIan,China,Shanghai,Hongkong,ICDE\n"))                        // BOM
	f.Add([]byte("name,country,capital,city,conf\nIa\"n,China,Shanghai,Hongkong,ICDE\n"))                                  // bare quote
	f.Add([]byte("name,country,capital,city,conf\n" + strings.Repeat("Ian,China,Shanghai,Hongkong,ICDE\n", 9000) + "x\n")) // error after a flush
	f.Add([]byte("name,country,capital,city,conf\n" + strings.Repeat("Ian,China,Shanghai,Hongkong,ICDE\n", 32000)))        // over the 1 MiB cap
	f.Fuzz(func(t *testing.T, data []byte) {
		s := fuzzServer()
		rec := post(s, "/repair/csv", data)
		body := rec.Body.Bytes()
		if int64(len(data)) > s.cfg.MaxBodyBytes {
			if rec.Code != http.StatusRequestEntityTooLarge &&
				!(rec.Code == http.StatusOK && envelopeCode(body) == codeBodyTooLarge) {
				t.Fatalf("over-cap body (%d bytes): status %d, want 413 or a flushed 200 ending in %s",
					len(data), rec.Code, codeBodyTooLarge)
			}
			return
		}
		want, refErr := referenceCSV(s.eng.Load().rep, data, repair.Linear)
		switch {
		case refErr == nil:
			if rec.Code != http.StatusOK || !bytes.Equal(body, want) {
				t.Fatalf("reference accepts %q: status %d, body %q, want 200 %q", data, rec.Code, body, want)
			}
		case rec.Code >= 400 && rec.Code < 500:
		case rec.Code == http.StatusOK && envelopeCode(body) != "":
		default:
			t.Fatalf("reference rejects %q (%v): status %d, body %q", data, refErr, rec.Code, body)
		}
	})
}

// envelopeCode returns the code of the error envelope a body ends in, as
// streamError appends it after output was already flushed — possibly in
// the middle of a CSV line, wherever the flushed bytes stopped — or "".
func envelopeCode(body []byte) string {
	i := bytes.LastIndex(body, []byte(`{"error":`))
	if i < 0 {
		return ""
	}
	var env errorEnvelope
	if json.Unmarshal(body[i:], &env) != nil {
		return ""
	}
	return env.Error.Code
}

// FuzzHandleRepairJSON hardens the JSON repair surface the same way, and
// additionally requires every 200 to carry well-formed JSON.
func FuzzHandleRepairJSON(f *testing.F) {
	f.Add([]byte(`{"tuples": [["Ian","China","Shanghai","Hongkong","ICDE"]]}`))
	f.Add([]byte(`{"tuples": [["too","short"]]}`))
	f.Add([]byte(`{"tuples": [], "algorithm": "quantum"}`))
	f.Add([]byte(`{"tuples": [[1,2,3,4,5]]}`))
	f.Add([]byte(`{"tuples": "nope"}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte("{\"tuples\": [[\"\xff\xfe\",\"\",\"\",\"\",\"\"]]}"))
	f.Add([]byte(`{"tuples": [["` + strings.Repeat("x", 1<<12) + `","a","b","c","d"]]}`))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec := post(fuzzServer(), "/repair", data)
		if rec.Code >= 500 {
			t.Fatalf("status %d for input %q", rec.Code, data)
		}
		if rec.Code == http.StatusOK {
			var out repairResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
				t.Fatalf("200 with non-JSON body %q: %v", rec.Body.Bytes(), err)
			}
		}
	})
}
