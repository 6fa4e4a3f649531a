package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/invalidate"
	"repro/internal/rep"
	"repro/internal/tier"
	"repro/internal/transport"
)

// This file is the traced run's instrumentation. Every span is taken
// from outside a layer, by a wrapper around the layer's public
// interface; nothing inside the program is changed. Each simulated
// process has one tracer, used only by that process's client goroutine
// (the calls below a client call all run synchronously on it). Spans
// measured on the daemon's and the origin's goroutines are handed over
// through a joiner: daemon spans are found again by tier key, origin
// spans by a call id the traced transport sends as a request header.

// layer names a span kind; the self-time table has one row per layer.
type layer uint8

const (
	lClient     layer = iota // InvokeContext, as seen by the load loop
	lCore                    // core.Cache.HandleInvoke
	lKeygen                  // rep.KeyGenerator Key / AppendKey
	lLoad                    // rep.ValueStore Load (copy-out)
	lStore                   // rep.ValueStore Store and rep.WireSelector StoreWire
	lWireDecode              // rep.WireSelector LoadWire
	lTierGet                 // tier.Tier Get on the client's cluster.Remote
	lTierPut                 // tier.Tier Put on the client's cluster.Remote
	lTierBump                // the Remote's epoch push, between two OnBump hooks
	lServe                   // the daemon's tier.Tier call
	lCodec                   // the handler after the cache: request encode, response parse
	lSend                    // transport.Transport Send
	lOrigin                  // the origin's http.Handler
	nLayers
	lNone = nLayers // parent of a root span
)

var layerNames = [nLayers]string{
	"client", "core", "rep.keygen", "rep.load", "rep.store", "rep.wire_decode",
	"tier.get", "tier.put", "tier.bump", "cluster.serve", "soap.codec",
	"transport.send", "server.serve",
}

// callHeader carries the traced call id to the origin.
const callHeader = "X-Perfbench-Call"

// maxLoggedSpans bounds the spans one tracer keeps for the trace file.
// Self times are accumulated for every span; only the log is capped.
// The cap is small so the log does not raise the GC pacer's heap target:
// on item-rw, whose live heap is under a megabyte, a 64k-span log per
// process halved the GC rate and made the traced phase the faster one.
const maxLoggedSpans = 1 << 12

// clock reads monotonic nanoseconds since one base shared by every
// tracer and wrapper of a stack, so spans from different goroutines
// compare.
type clock struct{ base time.Time }

func (c clock) now() int64 { return int64(time.Since(c.base)) }

type frame struct {
	l            layer
	start, child int64
}

type spanRec struct {
	call       uint64
	l, parent  layer
	start, end int64
}

// tracer records the spans of one simulated process and folds them
// into per-layer self times as each span closes.
type tracer struct {
	clock
	proc  int
	call  uint64 // id of the call in progress
	seq   uint64
	depth int
	stack [16]frame

	self, incl, count [nLayers]int64

	// catch is the current call's client and core self time; classify
	// files it under the call's serving class.
	catch               int64
	catchNS, catchCalls [nClasses]int64

	getHits, getHitNS, getMisses, getMissNS int64
	storeCalls, storeBytes                  int64
	respBytes, sendErrors                   int64

	log []spanRec
}

func newTracer(c clock, proc int) *tracer {
	return &tracer{clock: c, proc: proc, log: make([]spanRec, 0, maxLoggedSpans)}
}

// reset drops everything recorded so far; the benchmark calls it when the
// measured phase starts.
func (t *tracer) reset() {
	log := t.log[:0]
	*t = tracer{clock: t.clock, proc: t.proc, seq: t.seq, log: log}
}

// startCall opens the root span of a new call.
func (t *tracer) startCall() {
	t.seq++
	t.call = uint64(t.proc)<<48 | t.seq
	t.catch = 0
	t.begin(lClient)
}

// classify files the finished call's client and core self time under
// its serving class.
func (t *tracer) classify(c class) {
	t.catchNS[c] += t.catch
	t.catchCalls[c]++
}

func (t *tracer) begin(l layer) int64 {
	s := t.now()
	t.stack[t.depth] = frame{l: l, start: s}
	t.depth++
	return s
}

// end closes the innermost span and returns its duration.
func (t *tracer) end() int64 {
	e := t.now()
	t.depth--
	f := t.stack[t.depth]
	t.record(f.l, f.start, e, f.child)
	return e - f.start
}

// remote records a span measured on another goroutine as a child of the
// innermost open span.
func (t *tracer) remote(l layer, s rspan) { t.record(l, s.start, s.end, 0) }

func (t *tracer) record(l layer, start, end, child int64) {
	d := end - start
	t.self[l] += d - child
	if l == lClient || l == lCore {
		t.catch += d - child
	}
	t.incl[l] += d
	t.count[l]++
	parent := lNone
	if t.depth > 0 {
		parent = t.stack[t.depth-1].l
		t.stack[t.depth-1].child += d
	}
	if len(t.log) < cap(t.log) {
		t.log = append(t.log, spanRec{call: t.call, l: l, parent: parent, start: start, end: end})
	}
}

// rspan is a span measured on the daemon's or the origin's goroutine.
type rspan struct{ start, end int64 }

// joiner hands remote spans to the client span that caused them.
type joiner struct {
	mu sync.Mutex
	m  map[tier.Key][]rspan
}

func newJoiner() *joiner { return &joiner{m: make(map[tier.Key][]rspan)} }

func (j *joiner) put(k tier.Key, s rspan) {
	j.mu.Lock()
	j.m[k] = append(j.m[k], s)
	j.mu.Unlock()
}

// take removes and returns a span recorded under k that lies within
// [lo, hi], the caller's own span.
func (j *joiner) take(k tier.Key, lo, hi int64) (rspan, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	list := j.m[k]
	for i, s := range list {
		if s.start >= lo && s.end <= hi {
			list = append(list[:i], list[i+1:]...)
			if len(list) == 0 {
				delete(j.m, k)
			} else {
				j.m[k] = list
			}
			return s, true
		}
	}
	return rspan{}, false
}

func (j *joiner) reset() {
	j.mu.Lock()
	j.m = make(map[tier.Key][]rspan)
	j.mu.Unlock()
}

// bumpKey identifies an epoch push by its keyspace set, in any order.
func bumpKey(keyspaces []string) tier.Key {
	var k tier.Key
	for _, ks := range keyspaces {
		h := tier.KeyOf([]byte(ks))
		k.Hi ^= h.Hi
		k.Lo ^= h.Lo
	}
	return k
}

func originKey(call uint64) tier.Key { return tier.Key{Hi: call} }

// --- client-side wrappers ---------------------------------------------

// tracedKeyGen times key generation. It keeps rep.KeyAppender, which
// core checks for, so the traced cache hashes keys the same way.
type tracedKeyGen struct {
	rep.StringKey
	tr *tracer
}

var _ rep.KeyAppender = tracedKeyGen{}

func (k tracedKeyGen) Key(ictx *client.Context) (string, error) {
	k.tr.begin(lKeygen)
	s, err := k.StringKey.Key(ictx)
	k.tr.end()
	return s, err
}

func (k tracedKeyGen) AppendKey(dst []byte, ictx *client.Context) ([]byte, error) {
	k.tr.begin(lKeygen)
	b, err := k.StringKey.AppendKey(dst, ictx)
	k.tr.end()
	return b, err
}

// tracedSelector times the adaptive selector. It keeps rep.WireSelector
// (ObserveNet included, by embedding), which core checks for to pick
// the tier representation, and wraps the store LoadWire hands back so
// copy-outs of promoted entries are timed too.
type tracedSelector struct {
	*rep.AdaptiveSelector
	tr *tracer
}

var _ rep.WireSelector = (*tracedSelector)(nil)

func (s *tracedSelector) Store(ictx *client.Context) (any, int, error) {
	s.tr.begin(lStore)
	p, n, err := s.AdaptiveSelector.Store(ictx)
	s.tr.end()
	s.tr.storeCalls++
	s.tr.storeBytes += int64(n)
	return p, n, err
}

func (s *tracedSelector) Load(payload any) (any, error) {
	s.tr.begin(lLoad)
	v, err := s.AdaptiveSelector.Load(payload)
	s.tr.end()
	return v, err
}

func (s *tracedSelector) StoreWire(ictx *client.Context) (string, []byte, int, error) {
	s.tr.begin(lStore)
	name, data, n, err := s.AdaptiveSelector.StoreWire(ictx)
	s.tr.end()
	return name, data, n, err
}

func (s *tracedSelector) LoadWire(name string, data []byte) (any, rep.ValueStore, error) {
	s.tr.begin(lWireDecode)
	p, st, err := s.AdaptiveSelector.LoadWire(name, data)
	s.tr.end()
	if err == nil {
		st = tracedLoad{ValueStore: st, tr: s.tr}
	}
	return p, st, err
}

// tracedLoad times copy-outs from a store LoadWire returned.
type tracedLoad struct {
	rep.ValueStore
	tr *tracer
}

func (s tracedLoad) Load(payload any) (any, error) {
	s.tr.begin(lLoad)
	v, err := s.ValueStore.Load(payload)
	s.tr.end()
	return v, err
}

// tracedCache times the L1 handler.
type tracedCache struct {
	cache *core.Cache
	tr    *tracer
}

func (h tracedCache) HandleInvoke(ictx *client.Context, next client.Invoker) error {
	h.tr.begin(lCore)
	err := h.cache.HandleInvoke(ictx, next)
	h.tr.end()
	return err
}

// codecSpan times the handler after the cache: the client pivot's
// request encode, Send and response parse.
func codecSpan(tr *tracer) client.Handler {
	return client.HandlerFunc(func(ictx *client.Context, next client.Invoker) error {
		tr.begin(lCodec)
		err := next(ictx)
		tr.end()
		return err
	})
}

// tracedTransport times Send and tags the request with the call id so
// the origin's span can join it.
type tracedTransport struct {
	inner transport.Transport
	tr    *tracer
	joins *joiner
}

func (t *tracedTransport) Send(ctx context.Context, req *transport.Request) (*transport.Response, error) {
	start := t.tr.begin(lSend)
	r := *req
	r.Header = req.Header.Clone()
	if r.Header == nil {
		r.Header = make(http.Header, 1)
	}
	r.Header.Set(callHeader, strconv.FormatUint(t.tr.call, 16))
	resp, err := t.inner.Send(ctx, &r)
	if s, ok := t.joins.take(originKey(t.tr.call), start, t.tr.now()); ok {
		t.tr.remote(lOrigin, s)
	}
	if err != nil {
		t.tr.sendErrors++
	} else {
		t.tr.respBytes += int64(len(resp.Body))
	}
	t.tr.end()
	return resp, err
}

// tierProbe wraps the client's cluster.Remote. Untraced it only notes
// whether the last Get hit, which is how the load loop tells an L2 hit
// from an L1 hit; traced it also times Get and Put and joins the
// daemon's span.
type tierProbe struct {
	tier.Tier
	hit        bool
	gets, hits int64
	tr         *tracer
	joins      *joiner
}

func (p *tierProbe) Get(ctx context.Context, k tier.Key) (tier.Entry, bool, error) {
	p.gets++
	if p.tr == nil {
		e, ok, err := p.Tier.Get(ctx, k)
		if ok {
			p.hit = true
			p.hits++
		}
		return e, ok, err
	}
	start := p.tr.begin(lTierGet)
	e, ok, err := p.Tier.Get(ctx, k)
	p.joinDaemon(k, start)
	d := p.tr.end()
	if ok {
		p.hit = true
		p.hits++
		p.tr.getHits++
		p.tr.getHitNS += d
	} else {
		p.tr.getMisses++
		p.tr.getMissNS += d
	}
	return e, ok, err
}

func (p *tierProbe) Put(ctx context.Context, k tier.Key, e tier.Entry) error {
	if p.tr == nil {
		return p.Tier.Put(ctx, k, e)
	}
	start := p.tr.begin(lTierPut)
	err := p.Tier.Put(ctx, k, e)
	p.joinDaemon(k, start)
	p.tr.end()
	return err
}

func (p *tierProbe) joinDaemon(k tier.Key, start int64) {
	if s, ok := p.joins.take(k, start, p.tr.now()); ok {
		p.tr.remote(lServe, s)
	}
}

// bumpHooks bracket the Remote's own OnBump hook: the first is
// registered before cluster.New registers the Remote's, the second
// after, and hooks run in registration order on the writing goroutine.
func bumpHooks(tr *tracer, joins *joiner) (begin, finish func([]invalidate.Keyspace)) {
	begin = func([]invalidate.Keyspace) { tr.begin(lTierBump) }
	finish = func(keyspaces []invalidate.Keyspace) {
		names := make([]string, len(keyspaces))
		for i, ks := range keyspaces {
			names[i] = string(ks)
		}
		if s, ok := joins.take(bumpKey(names), tr.stack[tr.depth-1].start, tr.now()); ok {
			tr.remote(lServe, s)
		}
		tr.end()
	}
	return begin, finish
}

// --- daemon- and origin-side wrappers ----------------------------------

// daemonProbe times the daemon's tier calls.
type daemonProbe struct {
	tier.Tier
	clk   clock
	joins *joiner
}

func (d *daemonProbe) Get(ctx context.Context, k tier.Key) (tier.Entry, bool, error) {
	s := d.clk.now()
	e, ok, err := d.Tier.Get(ctx, k)
	d.joins.put(k, rspan{s, d.clk.now()})
	return e, ok, err
}

func (d *daemonProbe) Put(ctx context.Context, k tier.Key, e tier.Entry) error {
	s := d.clk.now()
	err := d.Tier.Put(ctx, k, e)
	d.joins.put(k, rspan{s, d.clk.now()})
	return err
}

func (d *daemonProbe) BumpEpoch(ctx context.Context, keyspaces []string) error {
	s := d.clk.now()
	err := d.Tier.BumpEpoch(ctx, keyspaces)
	d.joins.put(bumpKey(keyspaces), rspan{s, d.clk.now()})
	return err
}

// originProbe times the origin's SOAP handler.
type originProbe struct {
	h     http.Handler
	clk   clock
	joins *joiner
}

func (o originProbe) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s := o.clk.now()
	o.h.ServeHTTP(w, r)
	e := o.clk.now()
	if id, err := strconv.ParseUint(r.Header.Get(callHeader), 16, 64); err == nil {
		o.joins.put(originKey(id), rspan{s, e})
	}
}

// writeTrace writes the logged spans of one stack's tracers as JSON
// lines.
func writeTrace(w *bufio.Writer, stack int, tracers []*tracer) error {
	for _, t := range tracers {
		for _, s := range t.log {
			parent := "-"
			if s.parent != lNone {
				parent = layerNames[s.parent]
			}
			if _, err := fmt.Fprintf(w, `{"stack":%d,"proc":%d,"call":"%x","span":%q,"parent":%q,"start_ns":%d,"end_ns":%d}`+"\n",
				stack, t.proc, s.call, layerNames[s.l], parent, s.start, s.end); err != nil {
				return err
			}
		}
	}
	return nil
}
