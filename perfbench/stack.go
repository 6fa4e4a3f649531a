package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/googleapi"
	"repro/internal/invalidate"
	"repro/internal/obs"
	"repro/internal/rep"
	"repro/internal/soap"
	"repro/internal/tier"
	"repro/internal/transport"
	"repro/internal/typemap"
	"repro/internal/wsdl"
)

// The deployed stack, built in one process: one origin (cmd/dummygoogle
// without -cache), one shared L2 daemon (cmd/wscached) and one
// simulated `wsclient -l2` process per load client. The settings below
// are the same for every workload; only the traffic differs.
const (
	l1Bytes     = 4 << 20  // each process's L1 byte budget
	daemonBytes = 32 << 20 // the daemon's byte budget
	entryTTL    = time.Hour
)

// opKind indexes the operations the benchmark calls.
type opKind uint8

const (
	opSearch opKind = iota
	opSpell
	opPage
	opGetItem
	opPutItem
	nOps
)

var opNames = [nOps]string{
	googleapi.OpGoogleSearch, googleapi.OpSpellingSuggestion, googleapi.OpGetCachedPage,
	googleapi.OpGetItem, googleapi.OpPutItem,
}

// stackOptions vary what the stack is built with, never its shape.
type stackOptions struct {
	procs  int
	traced bool
	// clock and shards exist for the fidelity test, which needs the
	// selector's cost model and the L1 eviction order to be
	// deterministic; the benchmark leaves both zero.
	clock  func() time.Time
	shards int
}

type stack struct {
	clk    clock
	traced bool

	origin     *http.Server
	originDone chan error
	endpoint   string

	daemon      *cluster.Server
	daemonCache *core.Cache
	daemonDone  chan error
	daemonAddr  string
	sweeper     *core.Sweeper

	daemonJoins, originJoins *joiner
	procs                    []*proc
}

// proc is one simulated wsclient process: its own codec, L1 cache,
// selector, invalidator, Remote and HTTP connection pool.
type proc struct {
	id     int
	cache  *core.Cache
	sel    *rep.AdaptiveSelector
	remote *cluster.Remote
	tier   *tierProbe
	httpc  *http.Client
	calls  [nOps]*client.Call
	tr     *tracer // nil in untraced stacks
}

func newStack(o stackOptions) (s *stack, err error) {
	s = &stack{
		clk:         clock{base: time.Now()},
		traced:      o.traced,
		daemonJoins: newJoiner(),
		originJoins: newJoiner(),
	}
	defer func() {
		if err != nil {
			s.close()
			s = nil
		}
	}()
	if err := s.startOrigin(); err != nil {
		return s, fmt.Errorf("origin: %w", err)
	}
	if err := s.startDaemon(); err != nil {
		return s, fmt.Errorf("daemon: %w", err)
	}
	for i := 0; i < o.procs; i++ {
		p, err := s.newProc(i, o)
		if err != nil {
			return s, fmt.Errorf("process %d: %w", i, err)
		}
		s.procs = append(s.procs, p)
	}
	return s, nil
}

// startOrigin serves the dummy Google dispatcher, item operations
// included, on loopback HTTP as cmd/dummygoogle does without -cache.
func (s *stack) startOrigin() error {
	d, _, err := googleapi.NewDispatcher()
	if err != nil {
		return err
	}
	d.SetValidatorPolicy(time.Now(), entryTTL)
	var h http.Handler = d
	if s.traced {
		h = originProbe{h: d, clk: s.clk, joins: s.originJoins}
	}
	mux := http.NewServeMux()
	mux.Handle("/", h)
	mux.HandleFunc("/wsdl", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/xml; charset=utf-8")
		_, _ = w.Write([]byte(googleapi.WSDL))
	})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.origin = &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	s.originDone = make(chan error, 1)
	go func() { s.originDone <- s.origin.Serve(lis) }()
	s.endpoint = "http://" + lis.Addr().String() + "/"
	return nil
}

// startDaemon runs a byte-bounded core.Cache behind cluster.NewServer,
// wired as cmd/wscached wires it.
func (s *stack) startDaemon() error {
	reg := obs.NewRegistry()
	inv := invalidate.New(nil, reg)
	cfg := core.Config{
		KeyGen:      rep.NewStringKey(),
		Store:       rep.NewCloneCopyStore(),
		MaxBytes:    daemonBytes,
		DefaultTTL:  entryTTL,
		Invalidator: inv,
		Obs:         reg,
	}
	cache, err := core.New(cfg)
	if err != nil {
		return err
	}
	s.sweeper = core.NewSweeperContext(context.Background(), cache, time.Minute)
	var t tier.Tier = cache
	if s.traced {
		t = &daemonProbe{Tier: cache, clk: s.clk, joins: s.daemonJoins}
	}
	srv, err := cluster.NewServer(cluster.ServerConfig{Tier: t, Inv: inv, Obs: reg})
	if err != nil {
		return err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.daemon, s.daemonCache = srv, cache
	s.daemonDone = make(chan error, 1)
	go func() { s.daemonDone <- srv.Serve(context.Background(), lis) }()
	s.daemonAddr = lis.Addr().String()
	return nil
}

// newProc builds one simulated `wsclient -l2` process.
func (s *stack) newProc(id int, o stackOptions) (*proc, error) {
	defs, err := wsdl.Parse([]byte(googleapi.WSDL))
	if err != nil {
		return nil, err
	}
	types := typemap.NewRegistry()
	if err := googleapi.RegisterTypes(types); err != nil {
		return nil, err
	}
	codec := soap.NewCodec(types)
	reps := rep.NewRegistry(types, codec)

	// The selector is built here, not by core, so the run can read its
	// decision table; it gets the per-shard byte budget core would give
	// it. It has no Obs registry: that would turn on stage timing.
	shards := core.MustNew(core.Config{
		KeyGen: rep.NewStringKey(), Store: rep.NewCloneCopyStore(),
		MaxBytes: l1Bytes, Shards: o.shards,
	}).Shards()
	sel, err := rep.NewAdaptiveSelector(rep.SelectorConfig{
		Registry:   reps,
		ByteBudget: int64(l1Bytes / shards),
		Clock:      o.clock,
	})
	if err != nil {
		return nil, err
	}

	p := &proc{id: id, sel: sel}
	if s.traced {
		p.tr = newTracer(s.clk, id)
	}
	inv := invalidate.New(googleapi.ItemGraph(), nil)
	var bumpEnd func([]invalidate.Keyspace)
	if p.tr != nil {
		var bumpBegin func([]invalidate.Keyspace)
		bumpBegin, bumpEnd = bumpHooks(p.tr, s.daemonJoins)
		inv.OnBump(bumpBegin)
	}
	p.remote, err = cluster.New(cluster.Config{
		Addrs:       []string{s.daemonAddr},
		Inv:         inv,
		BaseContext: context.Background(),
	})
	if err != nil {
		return nil, err
	}
	if bumpEnd != nil {
		inv.OnBump(bumpEnd)
	}
	p.tier = &tierProbe{Tier: p.remote, tr: p.tr, joins: s.daemonJoins}

	var keygen rep.KeyGenerator = rep.NewStringKey()
	var store rep.ValueStore = sel
	if p.tr != nil {
		keygen = tracedKeyGen{tr: p.tr}
		store = &tracedSelector{AdaptiveSelector: sel, tr: p.tr}
	}
	p.cache, err = core.New(core.Config{
		KeyGen:      keygen,
		Store:       store,
		Rep:         reps,
		Policy:      core.NewPolicy(entryTTL, opNames[opSearch], opNames[opSpell], opNames[opPage], opNames[opGetItem]),
		DefaultTTL:  entryTTL,
		MaxBytes:    l1Bytes,
		Shards:      o.shards,
		Invalidator: inv,
		Clock:       o.clock,
		Tiers:       []tier.Tier{p.tier},
	})
	if err != nil {
		p.remote.Close()
		return nil, err
	}

	p.httpc = &http.Client{
		Timeout:   transport.DefaultTimeout,
		Transport: http.DefaultTransport.(*http.Transport).Clone(),
	}
	var tr transport.Transport = &transport.HTTP{Client: p.httpc}
	handlers := []client.Handler{p.cache}
	if p.tr != nil {
		tr = &tracedTransport{inner: tr, tr: p.tr, joins: s.originJoins}
		handlers = []client.Handler{tracedCache{cache: p.cache, tr: p.tr}, codecSpan(p.tr)}
	}
	svc, err := client.NewService(defs, codec, tr, client.ServiceConfig{
		Endpoint: s.endpoint,
		Options:  client.Options{RecordEvents: true, Handlers: handlers},
	})
	if err == nil {
		for k := range p.calls {
			if p.calls[k], err = svc.Call(opNames[k]); err != nil {
				break
			}
		}
	}
	if err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

func (p *proc) close() {
	p.remote.Close()
	if p.httpc != nil {
		p.httpc.CloseIdleConnections()
	}
}

func (p *proc) invoke(ctx context.Context, op opKind, params []soap.Param) (*client.Context, error) {
	return p.calls[op].InvokeContext(ctx, params...)
}

func (s *stack) tracers() []*tracer {
	var out []*tracer
	for _, p := range s.procs {
		if p.tr != nil {
			out = append(out, p.tr)
		}
	}
	return out
}

// resetTraces drops spans recorded during set-up and warm-up.
func (s *stack) resetTraces() {
	for _, t := range s.tracers() {
		t.reset()
	}
	s.daemonJoins.reset()
	s.originJoins.reset()
}

// close stops every server and waits for its goroutines to end.
func (s *stack) close() error {
	for _, p := range s.procs {
		p.close()
	}
	var errs []error
	if s.daemon != nil {
		s.daemon.Close()
		errs = append(errs, <-s.daemonDone)
	}
	if s.sweeper != nil {
		s.sweeper.Shutdown()
	}
	if s.origin != nil {
		s.origin.Close()
		if err := <-s.originDone; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
