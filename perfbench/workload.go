package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/client"
	"repro/internal/googleapi"
	"repro/internal/soap"
)

// workload is one traffic mix over the fixed stack. WORKLOADS.md says
// why each was chosen and which layers it loads.
type workload struct {
	name string
	why  string

	// Google traffic: a pool of keys (one third per operation) drawn
	// with Zipf popularity, P(k) ∝ (zipfV+k)^-zipfS, plus a share of
	// one-off queries. A larger zipfV flattens the head.
	pool   int
	zipfS  float64
	zipfV  float64
	oneOff float64
	// warmAll warms every pool key into every L1; otherwise the pool is
	// warmed into the daemon only, split across the processes.
	warmAll bool

	// Item traffic: doGetItem over Zipf keys plus a share of doPutItem,
	// each key written only by its owning process.
	items     int
	writeFrac float64
}

var workloads = []*workload{
	{
		name:    "hot-read",
		why:     "Zipf reads over a pool that fits every L1: each steady-state call is an L1 hit",
		pool:    600,
		zipfS:   1.1,
		warmAll: true,
	},
	{
		name:   "churn-read",
		why:    "Zipf reads over a pool several L1s big that fits the daemon, plus one-off queries: L1, L2 and origin in one mix",
		pool:   9000,
		zipfS:  1.01,
		zipfV:  250,
		oneOff: 0.25,
	},
	{
		name:      "item-rw",
		why:       "item reads with 10% single-writer puts: writes bypass the cache and bump epochs, reads refill tiny payloads",
		items:     200,
		zipfS:     1.1,
		writeFrac: 0.10,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// inputs are everything the benchmark sends and checks, generated from the
// seed before the stack is built.
type inputs struct {
	w     *workload
	seed  uint64
	procs int
	pool  []poolKey
	items []itemKey
}

type poolKey struct {
	op     opKind
	params []soap.Param
	want   any // the deterministic origin result
}

// itemKey is one item's single-writer shadow: versions the owner has
// issued and had acknowledged. Values carry their version, so a read
// can be placed against both.
type itemKey struct {
	name   string
	get    []soap.Param
	owner  int
	issued atomic.Uint64
	acked  atomic.Uint64
}

func newInputs(w *workload, seed uint64, procs int) *inputs {
	in := &inputs{w: w, seed: seed, procs: procs}
	for i := 0; i < w.pool; i++ {
		op := opKind(i % 3)
		params, want := in.googleRequest(op, fmt.Sprintf("k%d-%x", i, seed))
		in.pool = append(in.pool, poolKey{op: op, params: params, want: want})
	}
	in.items = make([]itemKey, w.items)
	for i := range in.items {
		it := &in.items[i]
		it.name = fmt.Sprintf("item-%d-%x", i, seed)
		it.get = googleapi.GetItemParams(it.name)
		it.owner = i % procs
	}
	return in
}

// googleRequest builds a Google call for a token and the result the
// origin must return for it.
func (in *inputs) googleRequest(op opKind, token string) ([]soap.Param, any) {
	const apiKey = "perfbench"
	switch op {
	case opSearch:
		q := "search " + token
		return googleapi.SearchParams(apiKey, q, 0, 10, false, "", false, ""),
			googleapi.Search(q, 0, 10)
	case opSpell:
		phrase := "spell " + strings.ReplaceAll(token, "-", " ")
		return googleapi.SpellingParams(apiKey, phrase), googleapi.SpellingSuggestion(phrase)
	default:
		url := "http://" + token + ".example.com/page.html"
		return googleapi.CachedPageParams(apiKey, url), googleapi.CachedPage(url)
	}
}

func itemValue(name string, ver uint64) string { return name + "@v" + strconv.FormatUint(ver, 10) }

// itemVersion parses a doGetItem result for key name; "" is version 0.
func itemVersion(v any, name string) (uint64, bool) {
	s, ok := v.(string)
	if !ok {
		return 0, false
	}
	if s == "" {
		return 0, true
	}
	rest, ok := strings.CutPrefix(s, name+"@v")
	if !ok {
		return 0, false
	}
	ver, err := strconv.ParseUint(rest, 10, 64)
	return ver, err == nil
}

// request is one call the benchmark makes.
type request struct {
	op     opKind
	params []soap.Param
	want   any // Google ops: the deterministic origin result
	item   *itemKey
	ver    uint64 // doPutItem: the version written
}

// gen draws one process's requests from its own seeded stream.
type gen struct {
	in       *inputs
	proc     int
	rng      *rand.Rand
	zipf     *rand.Zipf
	ownZipf  *rand.Zipf // item-rw: Zipf over this process's own keys
	oneOffID int
}

func (in *inputs) gen(proc int) *gen {
	g := &gen{in: in, proc: proc, rng: rand.New(rand.NewPCG(in.seed, uint64(proc)+1))}
	w := in.w
	if n := w.pool + w.items; n > 0 {
		g.zipf = rand.NewZipf(g.rng, w.zipfS, max(1, w.zipfV), uint64(n-1))
	}
	if w.items > 0 {
		own := (w.items - proc + in.procs - 1) / in.procs
		g.ownZipf = rand.NewZipf(g.rng, w.zipfS, 1, uint64(own-1))
	}
	return g
}

func (g *gen) next() request {
	w := g.in.w
	if w.items > 0 {
		if g.rng.Float64() < w.writeFrac {
			it := &g.in.items[int(g.ownZipf.Uint64())*g.in.procs+g.proc]
			ver := it.issued.Load() + 1
			return request{op: opPutItem, params: googleapi.PutItemParams(it.name, itemValue(it.name, ver)), item: it, ver: ver}
		}
		it := &g.in.items[g.zipf.Uint64()]
		return request{op: opGetItem, params: it.get, item: it}
	}
	if w.oneOff > 0 && g.rng.Float64() < w.oneOff {
		g.oneOffID++
		op := opKind(g.rng.IntN(3))
		params, want := g.in.googleRequest(op, fmt.Sprintf("once%d-%d-%x", g.proc, g.oneOffID, g.in.seed))
		return request{op: op, params: params, want: want}
	}
	k := &g.in.pool[g.zipf.Uint64()]
	return request{op: k.op, params: k.params, want: k.want}
}

// verdict classifies a completed call for the oracle.
type verdict uint8

const (
	vOK     verdict = iota
	vFailed         // an error, a wrong result, or a same-process stale read
	vXStale         // a read older than another process's acknowledged write
)

// before is what the oracle must know when the call starts: the acked
// version of the item read.
func (r *request) before() uint64 {
	if r.op == opGetItem {
		return r.item.acked.Load()
	}
	if r.op == opPutItem {
		r.item.issued.Store(r.ver)
	}
	return 0
}

// check judges a call's outcome. A Google result must match the
// deterministic origin output. An item read by the key's owner must see
// the owner's last acknowledged write; a read by another process may
// lag it (that process's L1 learns of the write on its next daemon
// contact), which is counted apart, but may never see a version nobody
// issued.
func (in *inputs) check(r *request, proc int, ictx *client.Context, err error, acked uint64) verdict {
	if err != nil {
		return vFailed
	}
	switch r.op {
	case opPutItem:
		if ictx.Result != "stored:"+r.item.name {
			return vFailed
		}
		r.item.acked.Store(r.ver)
		return vOK
	case opGetItem:
		ver, parsed := itemVersion(ictx.Result, r.item.name)
		switch {
		case !parsed:
			return vFailed
		case r.item.owner == proc:
			if ver != acked {
				return vFailed
			}
		case ver > r.item.issued.Load():
			return vFailed
		case ver < acked:
			return vXStale
		}
		return vOK
	}
	if !same(ictx.Result, r.want) {
		return vFailed
	}
	return vOK
}

// same reports whether a result equals the expected origin output. It
// compares field by field rather than with reflect.DeepEqual, which
// would cost more than the L1 hit it checks.
func same(got, want any) bool {
	switch w := want.(type) {
	case string:
		g, ok := got.(string)
		return ok && g == w
	case []byte:
		g, ok := got.([]byte)
		return ok && bytes.Equal(g, w)
	case *googleapi.GoogleSearchResult:
		g, ok := got.(*googleapi.GoogleSearchResult)
		return ok && sameSearch(g, w)
	}
	return false
}

func sameSearch(g, w *googleapi.GoogleSearchResult) bool {
	if g.DocumentFiltering != w.DocumentFiltering || g.SearchComments != w.SearchComments ||
		g.EstimatedTotalResultsCount != w.EstimatedTotalResultsCount || g.EstimateIsExact != w.EstimateIsExact ||
		g.SearchQuery != w.SearchQuery || g.StartIndex != w.StartIndex || g.EndIndex != w.EndIndex ||
		g.SearchTips != w.SearchTips || g.SearchTime != w.SearchTime ||
		len(g.ResultElements) != len(w.ResultElements) || len(g.DirectoryCategories) != len(w.DirectoryCategories) {
		return false
	}
	for i := range w.ResultElements {
		if g.ResultElements[i] != w.ResultElements[i] {
			return false
		}
	}
	for i := range w.DirectoryCategories {
		if g.DirectoryCategories[i] != w.DirectoryCategories[i] {
			return false
		}
	}
	return true
}

// warm fills the caches before measuring: hot-read puts the whole pool
// in every L1; churn-read spreads the pool over the processes, which
// fills the daemon; item-rw has each owner write version 1 of its keys
// and then every process read every key. Each process warms on its own
// goroutine, as its tracer requires.
func (in *inputs) warm(s *stack) error {
	var wg sync.WaitGroup
	errs := make([]error, len(s.procs))
	step := func(fn func(p *proc) error) error {
		for i, p := range s.procs {
			wg.Add(1)
			go func(i int, p *proc) {
				defer wg.Done()
				errs[i] = fn(p)
			}(i, p)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
	call := func(p *proc, r request) error {
		acked := r.before()
		ictx, err := p.invoke(context.Background(), r.op, r.params)
		if in.check(&r, p.id, ictx, err, acked) != vOK {
			return fmt.Errorf("warm-up %s failed (err %v)", opNames[r.op], err)
		}
		return nil
	}
	if in.w.items > 0 {
		err := step(func(p *proc) error {
			for i := p.id; i < len(in.items); i += in.procs {
				it := &in.items[i]
				ver := it.issued.Load() + 1
				r := request{op: opPutItem, params: googleapi.PutItemParams(it.name, itemValue(it.name, ver)), item: it, ver: ver}
				if err := call(p, r); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		return step(func(p *proc) error {
			for i := range in.items {
				if err := call(p, request{op: opGetItem, params: in.items[i].get, item: &in.items[i]}); err != nil {
					return err
				}
			}
			return nil
		})
	}
	return step(func(p *proc) error {
		for i := range in.pool {
			if !in.w.warmAll && i%in.procs != p.id {
				continue
			}
			k := &in.pool[i]
			if err := call(p, request{op: k.op, params: k.params, want: k.want}); err != nil {
				return err
			}
		}
		return nil
	})
}
