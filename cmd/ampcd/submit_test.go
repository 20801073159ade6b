package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"ampc/internal/graph"
	"ampc/internal/rng"
)

// submitWire is the submission body as plain encoding/json types: the
// request tests marshal, and what a json.Decoder makes of a body, the
// reference decodeSubmit is held to.
type submitWire struct {
	Algo    string     `json:"algo"`
	Graph   *graphSpec `json:"graph,omitempty"`
	N       int        `json:"n,omitempty"`
	Edges   [][]int    `json:"edges,omitempty"`
	Next    []int      `json:"next,omitempty"`
	Check   bool       `json:"check,omitempty"`
	Retain  *bool      `json:"retain,omitempty"`
	Epsilon float64    `json:"eps,omitempty"`
	Seed    uint64     `json:"seed,omitempty"`
}

// sameRequest reports whether decodeSubmit's request says what the
// reference decode says, nil inline arrays included.
func sameRequest(got *submitRequest, w *submitWire) bool {
	if got.Algo != w.Algo || got.N != w.N || got.Check != w.Check ||
		got.Epsilon != w.Epsilon || got.Seed != w.Seed ||
		!reflect.DeepEqual(got.Graph, w.Graph) || !reflect.DeepEqual(got.Retain, w.Retain) ||
		(got.Next == nil) != (w.Next == nil) || !slices.Equal(got.Next, w.Next) ||
		(got.Edges == nil) != (w.Edges == nil) {
		return false
	}
	if got.Edges == nil {
		return true
	}
	if got.Edges.len() != len(w.Edges) {
		return false
	}
	for i, e := range w.Edges {
		if !slices.Equal(got.Edges.row(i), e) {
			return false
		}
	}
	return true
}

// checkDecode holds decodeSubmit to json.Decoder on one body: both accept
// or both refuse, and an accepted body yields the same request. The one
// declared difference is a null where an integer belongs, which Decode
// stores as whatever the slice held before and decodeSubmit refuses.
func checkDecode(t *testing.T, body []byte) {
	t.Helper()
	got, err := decodeSubmit(body)
	var w submitWire
	werr := json.NewDecoder(bytes.NewReader(body)).Decode(&w)
	switch {
	case err != nil && werr != nil:
	case err != nil && errors.Is(err, errNullInteger):
	case err != nil:
		t.Fatalf("%q: decodeSubmit refused (%v), json.Decoder accepted %+v", body, err, w)
	case werr != nil:
		t.Fatalf("%q: decodeSubmit accepted %+v, json.Decoder refused (%v)", body, got, werr)
	case !sameRequest(got, &w):
		t.Fatalf("%q: decodeSubmit read %+v (edges %+v), json.Decoder %+v", body, got, got.Edges, w)
	}
}

// submitCorpus is the fuzz target's seed corpus: number forms, nulls, empty
// arrays, keys spelled every way encoding/json folds to a field, duplicate
// keys, truncations and trailing bytes.
var submitCorpus = []string{
	`{"algo":"connectivity","n":3,"edges":[[0,1],[1,2]],"check":true}`,
	`{"algo":"msf","n":3,"edges":[[0,1,5],[1,2,-7]],"retain":false,"eps":0.25,"seed":9}`,
	`{"algo":"listrank","next":[1,2,-1]}`,
	`{"algo":"connectivity","graph":{"kind":"gnm","n":10,"m":20,"seed":3}}`,
	`{"edges":[[0,01]]}`,
	`{"edges":[[-0,0]]}`,
	`{"edges":[[1e3,1]]}`,
	`{"edges":[[1.0,1]]}`,
	`{"edges":[[9223372036854775807,-9223372036854775808]]}`,
	`{"edges":[[9223372036854775808,1]]}`,
	`{"next":[-9223372036854775809]}`,
	`{"next":[00]}`,
	`{"next":[-]}`,
	`{"next":[1,]}`,
	`{"next":["1"]}`,
	`null`,
	`nullx`,
	`nul`,
	``,
	`   `,
	`[]`,
	`"edges"`,
	`{}`,
	`{"edges":null}`,
	`{"edges":[]}`,
	`{"edges":[[]]}`,
	`{"edges":[null,[1,2]]}`,
	`{"edges":[[null,1]]}`,
	`{"next":null}`,
	`{"next":[]}`,
	`{"next":[null]}`,
	` { "edges" : [ [ 0 , 1 ] , [ 2 ,3 ] ] , "n" : 4 } `,
	"{\t\"next\"\r\n:\n[1\t,\r-1]}",
	`{"ed\u0067es":[[1,2]]}`,
	`{"\u0065dges":[[1,2]],"ne\u0078t":[0]}`,
	`{"edg\es":[[1,2]]}`,
	`{"EDGES":[[1,2]],"Next":[0],"ALGO":"msf","N":2}`,
	`{"edgeſ":[[1,2]],"nExt":[-1]}`,
	`{"ed ges":[[1,2]]}`,
	`{"graph":{"kind":"gnm","n":4,"edges":[[0,1]]}}`,
	`{"edges":[[1,2]],"edges":[[3,4,5]]}`,
	`{"edges":[[1,2]],"EDGES":null}`,
	`{"edges":[[1,2,3]],"edges":[[4]]}`,
	`{"next":[5,6,7],"next":[8]}`,
	`{"algo":"a","algo":"b","n":1,"n":2}`,
	`{"algo":"connectivity","n":3,"edges":[[0,1]`,
	`{"algo":"connectivity","n":3,"edges":[[0,1]]`,
	`{"algo":"connectivity","n":3,"edges":[[0,1]],`,
	`{"algo":"connectivity","n":3,"edges":[[0,1]]} trailing`,
	`{"algo":"connectivity"}{"algo":"msf"}`,
	`{"algo":"connectivity"}]`,
	`{"algo":"conn\"ectivity","x":{"y":[1,{"z":"]}"}]}}`,
	`{"algo":}`,
	`{"algo":,"n":1}`,
	`{"n":1]}`,
	`{"n":1 2}`,
	`{"n":[1}}`,
	`{"n":1"algo":"x"}`,
	`{"n":1.5}`,
	`{"seed":-1}`,
	`{"retain":null,"check":false}`,
	`{"algo":"x" "n":1}`,
	`{"algo" "x"}`,
	`{1:2}`,
	`{"edges":[[1,2]]x}`,
	`{"edges":[[1,2],]}`,
	`{"edges":[[1 2]]}`,
	`{"edges":[1,2]}`,
	`{"edges":{"0":[1,2]}}`,
	`{"edges":[[[1],2]]}`,
	`{"edges":[[true,2]]}`,
	`{"edges":[[nullx,2]]}`,
	"{\"al\x01go\":1}",
	"{\"algo\":\"\xff\"}",
	"\xef\xbb\xbf{}",
}

func FuzzDecodeSubmit(f *testing.F) {
	for _, b := range submitCorpus {
		f.Add([]byte(b))
	}
	f.Fuzz(checkDecode)
}

// TestDecodeSubmitNullInteger pins the declared difference from
// json.Decoder: a null in an integer's place is refused, where Decode reads
// 0, or, after a duplicate key, the earlier value's element.
func TestDecodeSubmitNullInteger(t *testing.T) {
	for _, body := range []string{
		`{"edges":[[null,1]]}`,
		`{"edges":[[5,6]],"edges":[[null,7]]}`,
		`{"next":[1,null]}`,
	} {
		var w submitWire
		if err := json.NewDecoder(strings.NewReader(body)).Decode(&w); err != nil {
			t.Fatalf("%s: json.Decoder refused it: %v", body, err)
		}
		if _, err := decodeSubmit([]byte(body)); !errors.Is(err, errNullInteger) {
			t.Fatalf("%s: decodeSubmit error %v, want %v", body, err, errNullInteger)
		}
	}
}

// TestDaemonInlineInputs submits inline graphs, one of them with bytes
// after its object, which are ignored as json.Decoder ignores them. A body
// over the cap is refused with 413 even when its object ends early: the
// whole body is read before it is decoded.
func TestDaemonInlineInputs(t *testing.T) {
	_, base := testServer(t)
	for _, tc := range []struct {
		body string
		n    int
	}{
		{`{"algo":"connectivity","n":5,"edges":[[0,1],[1,2],[3,4]],"check":true} trailing bytes`, 5},
		{`{"algo":"msf","n":4,"edges":[[0,1,3],[1,2,1],[0,2,2],[2,3,5]],"check":true}`, 4},
	} {
		body := tc.body
		resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var sub struct {
			ID uint64 `json:"id"`
		}
		if err := decodeJSON(resp, http.StatusAccepted, &sub); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if got := waitDone(t, base, sub.ID); got != stateDone {
			t.Fatalf("%s: job ended %q", body, got)
		}
		var res resultResponse
		get(t, fmt.Sprintf("%s/v1/jobs/%d/result", base, sub.ID), http.StatusOK, &res)
		if res.Check != "passed" || res.N != tc.n {
			t.Fatalf("%s: check %q, n %d", body, res.Check, res.N)
		}
	}

	object := `{"algo":"connectivity","graph":{"kind":"gnm","n":10,"m":20}}`
	body := io.MultiReader(strings.NewReader(object), io.LimitReader(repeatByte(' '), maxSubmitBytes))
	resp, err := http.Post(base+"/v1/jobs", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("object with trailing bytes over the cap: status %d, want %d", resp.StatusCode, http.StatusRequestEntityTooLarge)
	}
}

// BenchmarkSubmitDecode reads and decodes the serve-cc-http submission:
// GNM(10^5, 4·10^5) as inline [u,v] rows, written as the benchmark's
// daemon client writes it.
func BenchmarkSubmitDecode(b *testing.B) {
	g, err := graph.Generate("gnm", 100000, 400000, 0, rng.New(1, 0x7))
	if err != nil {
		b.Fatal(err)
	}
	var body bytes.Buffer
	fmt.Fprintf(&body, `{"algo":"connectivity","retain":true,"seed":%d,"n":%d,"edges":[`, 1, g.N())
	for i, e := range g.Edges() {
		if i > 0 {
			body.WriteByte(',')
		}
		body.WriteByte('[')
		body.WriteString(strconv.Itoa(e.U))
		body.WriteByte(',')
		body.WriteString(strconv.Itoa(e.V))
		body.WriteByte(']')
	}
	body.WriteString("]}")
	b.SetBytes(int64(body.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err := readBody(bytes.NewReader(body.Bytes()), int64(body.Len()))
		if err != nil {
			b.Fatal(err)
		}
		req, err := decodeSubmit(buf)
		if err != nil {
			b.Fatal(err)
		}
		if req.Edges.len() != g.M() {
			b.Fatalf("decoded %d rows, want %d", req.Edges.len(), g.M())
		}
	}
}
