package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/googleapi"
	"repro/internal/invalidate"
	"repro/internal/rep"
	"repro/internal/soap"
	"repro/internal/tier"
	"repro/internal/typemap"
	"repro/internal/wsdl"
	"repro/internal/xsd"
)

func googleDefs(t *testing.T) *wsdl.Definitions {
	t.Helper()
	defs, err := wsdl.Parse([]byte(googleapi.WSDL))
	if err != nil {
		t.Fatal(err)
	}
	return defs
}

func TestBuildParamsOrdersAndTypes(t *testing.T) {
	defs := googleDefs(t)
	params, err := buildParams(defs, "doGoogleSearch", []string{
		// Deliberately out of order: the WSDL message order must win.
		"oe=latin1", "key=k", "q=golang", "start=5", "maxResults=10",
		"filter=true", "restrict=", "safeSearch=false", "lr=lang_en", "ie=latin1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(params) != 10 {
		t.Fatalf("params = %d", len(params))
	}
	if params[0].Name != "key" || params[1].Name != "q" {
		t.Errorf("order = %s, %s", params[0].Name, params[1].Name)
	}
	if v, ok := params[2].Value.(int); !ok || v != 5 {
		t.Errorf("start = %#v", params[2].Value)
	}
	if v, ok := params[4].Value.(bool); !ok || v != true {
		t.Errorf("filter = %#v", params[4].Value)
	}
	if v, ok := params[6].Value.(bool); !ok || v != false {
		t.Errorf("safeSearch = %#v", params[6].Value)
	}
}

func TestBuildParamsErrors(t *testing.T) {
	defs := googleDefs(t)
	if _, err := buildParams(defs, "doSpellingSuggestion", []string{"key=k"}); err == nil {
		t.Error("missing argument accepted")
	}
	if _, err := buildParams(defs, "doSpellingSuggestion", []string{"key=k", "phrase=p", "extra=x"}); err == nil {
		t.Error("unknown argument accepted")
	}
	if _, err := buildParams(defs, "doSpellingSuggestion", []string{"noequals"}); err == nil {
		t.Error("malformed argument accepted")
	}
	if _, err := buildParams(defs, "noSuchOp", nil); err == nil {
		t.Error("unknown operation accepted")
	}
	if _, err := buildParams(defs, "doGoogleSearch", []string{
		"key=k", "q=x", "start=notanumber", "maxResults=10",
		"filter=false", "restrict=", "safeSearch=false", "lr=", "ie=", "oe=",
	}); err == nil {
		t.Error("uncoercible int accepted")
	}
}

func TestCoerce(t *testing.T) {
	cases := []struct {
		ty   string
		raw  string
		want any
	}{
		{"string", "hello", "hello"},
		{"boolean", "true", true},
		{"int", "42", 42},
		{"long", "9999999999", int64(9999999999)},
		{"double", "2.5", 2.5},
		{"float", "1.5", float32(1.5)},
		{"unsignedLong", "7", uint64(7)},
		{"base64Binary", "raw", []byte("raw")},
	}
	for _, c := range cases {
		got, err := coerce(xsd.BuiltinQName(c.ty), c.raw)
		if err != nil {
			t.Errorf("%s: %v", c.ty, err)
			continue
		}
		if b, ok := c.want.([]byte); ok {
			if string(got.([]byte)) != string(b) {
				t.Errorf("%s = %#v", c.ty, got)
			}
			continue
		}
		if got != c.want {
			t.Errorf("%s = %#v (%T), want %#v", c.ty, got, got, c.want)
		}
	}

	if _, err := coerce(typemap.QName{Space: "urn:x", Local: "Complex"}, "x"); err == nil {
		t.Error("complex type accepted")
	}
	if _, err := coerce(xsd.BuiltinQName("boolean"), "maybe"); err == nil {
		t.Error("bad boolean accepted")
	}
}

// TestL2WritesReachOriginAndInvalidate runs `wsclient -l2` processes,
// each a fresh stack as each command invocation is, against one shared
// daemon. A put must reach the service on every call, replays
// included, and its bump must cross to the daemon so that the next
// process reads the new value rather than the daemon's copy of the old.
func TestL2WritesReachOriginAndInvalidate(t *testing.T) {
	d, _, err := googleapi.NewDispatcher()
	if err != nil {
		t.Fatal(err)
	}
	var puts atomic.Int64
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if bytes.Contains(body, []byte(googleapi.OpPutItem)) {
			puts.Add(1)
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		d.ServeHTTP(w, r)
	}))
	defer origin.Close()

	dinv := invalidate.New(nil, nil)
	srv, err := cluster.NewServer(cluster.ServerConfig{
		Tier: core.MustNew(core.Config{
			KeyGen:      rep.NewStringKey(),
			Store:       rep.NewCloneCopyStore(),
			DefaultTTL:  time.Hour,
			Invalidator: dinv,
		}),
		Inv: dinv,
	})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(context.Background(), lis) }()
	defer func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()

	defs := googleDefs(t)
	process := func() *stack {
		st, err := newStack(runConfig{
			endpoint: origin.URL + "/",
			useCache: true,
			l2:       lis.Addr().String(),
			rep:      "adaptive",
			retries:  1,
			showObs:  true,
		}, defs)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(st.close)
		return st
	}
	invoke := func(st *stack, op string, params []soap.Param) (string, bool) {
		t.Helper()
		call, err := st.svc.Call(op)
		if err != nil {
			t.Fatal(err)
		}
		ictx, err := call.InvokeContext(context.Background(), params...)
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		return fmt.Sprint(ictx.Result), ictx.CacheHit
	}

	invoke(process(), googleapi.OpPutItem, googleapi.PutItemParams("k", "v1"))
	if got, _ := invoke(process(), googleapi.OpGetItem, googleapi.GetItemParams("k")); got != "v1" {
		t.Fatalf("first read = %q, want v1", got)
	}

	writer := process()
	for i := 0; i < 2; i++ {
		if _, hit := invoke(writer, googleapi.OpPutItem, googleapi.PutItemParams("k", "v2")); hit {
			t.Fatalf("put %d answered from the cache", i+1)
		}
	}
	if got := puts.Load(); got != 3 {
		t.Fatalf("origin saw %d puts, want 3", got)
	}

	reader := process()
	if got, _ := invoke(reader, googleapi.OpGetItem, googleapi.GetItemParams("k")); got != "v2" {
		t.Fatalf("read after another process's put = %q, want v2", got)
	}
	if got, hit := invoke(reader, googleapi.OpGetItem, googleapi.GetItemParams("k")); got != "v2" || !hit {
		t.Fatalf("repeated read = %q (hit=%v), want a cached v2", got, hit)
	}

	// Epoch traffic shows in each process's tiers inspection.
	l2Stats := func(st *stack) tier.Stats {
		t.Helper()
		body, err := json.Marshal(st.obs.Snapshot().Inspections["tiers"])
		if err != nil {
			t.Fatal(err)
		}
		var tiers map[string]struct{ Remote tier.Stats }
		if err := json.Unmarshal(body, &tiers); err != nil {
			t.Fatal(err)
		}
		return tiers["l2"].Remote
	}
	if st := l2Stats(writer); st.Bumps != 2 || st.EpochEntries == 0 {
		t.Fatalf("writer's l2 stats %+v, want 2 bump pushes answered with epochs", st)
	}
	if st := l2Stats(reader); st.Syncs == 0 || st.EpochEntries == 0 {
		t.Fatalf("reader's l2 stats %+v, want a sync that received epochs", st)
	}
}
