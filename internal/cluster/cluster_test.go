package cluster

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/invalidate"
	"repro/internal/tier"
)

// The keyspaces the cluster tests bump and stamp; package-level so
// every spelling has one source of truth (epochgraph).
const (
	ksItems = invalidate.Keyspace("items")
	ksUsers = invalidate.Keyspace("users")
)

// fakeTier is a daemon-side store for protocol tests: a plain map plus
// the daemon invalidator for epoch operations. Stamp validation (the
// real daemon's core.Cache does it) is out of scope here — these tests
// exercise the wire, the routing, and the epoch propagation.
type fakeTier struct {
	inv *invalidate.Invalidator

	mu      sync.Mutex
	entries map[tier.Key]tier.Entry
	puts    int
}

func newFakeTier(inv *invalidate.Invalidator) *fakeTier {
	return &fakeTier{inv: inv, entries: make(map[tier.Key]tier.Entry)}
}

func (f *fakeTier) Name() string { return "fake" }

func (f *fakeTier) Get(_ context.Context, key tier.Key) (tier.Entry, bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	e, ok := f.entries[key]
	return e, ok, nil
}

func (f *fakeTier) PutStamps(_ tier.Key, keyspaces []string) []tier.Stamp {
	out := make([]tier.Stamp, len(keyspaces))
	for i, ks := range keyspaces {
		out[i] = tier.Stamp{Keyspace: ks, Epoch: f.inv.Epoch(invalidate.Keyspace(ks))}
	}
	return out
}

func (f *fakeTier) Put(_ context.Context, key tier.Key, e tier.Entry) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.entries[key] = e
	f.puts++
	return nil
}

func (f *fakeTier) Delete(_ context.Context, key tier.Key) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.entries, key)
	return nil
}

func (f *fakeTier) BumpEpoch(_ context.Context, keyspaces []string) error {
	for _, ks := range keyspaces {
		f.inv.ApplyRemote(invalidate.Keyspace(ks))
	}
	return nil
}

func (f *fakeTier) TierStats() tier.Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return tier.Stats{Entries: len(f.entries)}
}

func (f *fakeTier) putCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.puts
}

// startDaemon boots a Server over a loopback listener and returns it
// with its address. The returned stop closes it (idempotent).
func startDaemon(t *testing.T, ft *fakeTier, inv *invalidate.Invalidator) (*Server, string, func()) {
	t.Helper()
	srv, err := NewServer(ServerConfig{Tier: ft, Inv: inv})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(context.Background(), lis) }()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			srv.Close()
			if err := <-done; err != nil {
				t.Errorf("Serve: %v", err)
			}
		})
	}
	t.Cleanup(stop)
	return srv, lis.Addr().String(), stop
}

func newClient(t *testing.T, addr string, inv *invalidate.Invalidator) *Remote {
	t.Helper()
	r, err := New(Config{Addrs: []string{addr}, Inv: inv, BaseContext: context.Background()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func TestClientServerRoundTrip(t *testing.T) {
	dinv := invalidate.New(nil, nil)
	ft := newFakeTier(dinv)
	_, addr, _ := startDaemon(t, ft, dinv)
	r := newClient(t, addr, nil)
	ctx := context.Background()

	key := tier.KeyOf([]byte("query-1"))
	if _, ok, err := r.Get(ctx, key); err != nil || ok {
		t.Fatalf("cold get: ok=%v err=%v", ok, err)
	}
	// Stamps must come from PutStamps: they pin the boot ID the epochs
	// were mirrored under, and the daemon drops fills pinned to another
	// incarnation (or to boot 0, the never-contacted sentinel).
	want := tier.Entry{
		Rep:    "binser",
		Value:  []byte("serialized result"),
		TTL:    30 * time.Second,
		Stamps: r.PutStamps(key, []string{string(ksItems)}),
	}
	if err := r.Put(ctx, key, want); err != nil {
		t.Fatalf("put: %v", err)
	}
	got, ok, err := r.Get(ctx, key)
	if err != nil || !ok {
		t.Fatalf("get after put: ok=%v err=%v", ok, err)
	}
	if got.Rep != want.Rep || string(got.Value) != string(want.Value) || got.TTL != want.TTL {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	if err := r.Delete(ctx, key); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, ok, _ := r.Get(ctx, key); ok {
		t.Fatal("entry survived delete")
	}
	st := r.TierStats()
	if st.Hits != 1 || st.Misses != 2 || st.Stores != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestEpochPropagation is the heart of the design: process A bumps a
// keyspace locally; the hook pushes it to the daemon before the bump
// call returns; process B learns of it on its next contact — ANY
// contact — and its local invalidator advances, staling B's L1
// entries, without B ever being messaged directly.
func TestEpochPropagation(t *testing.T) {
	dinv := invalidate.New(nil, nil)
	ft := newFakeTier(dinv)
	_, addr, _ := startDaemon(t, ft, dinv)

	invA := invalidate.New(nil, nil)
	invB := invalidate.New(nil, nil)
	newClient(t, addr, invA) // A: hook registered by New
	rB := newClient(t, addr, invB)
	ctx := context.Background()

	// B stamps an entry under the current (zero) epoch, as its cache
	// fill path would.
	ks := ksItems
	stamp := invB.StampWith(ks, invB.Epoch(ks))
	if invalidate.Stale([]invalidate.Stamp{stamp}) {
		t.Fatal("fresh stamp already stale")
	}

	// A commits a write: its local bump fires the hook synchronously.
	invA.Bump(ks)
	if got := dinv.Epoch(ks); got != 1 {
		t.Fatalf("daemon epoch after A's bump = %d, want 1", got)
	}
	// A's own cell advanced locally (the local bump), and the table in
	// the bump response must NOT have advanced it twice.
	if got := invA.Epoch(ks); got != 1 {
		t.Fatalf("A's epoch after its own bump = %d, want 1 (no echo)", got)
	}

	// B has heard nothing yet.
	if invalidate.Stale([]invalidate.Stamp{stamp}) {
		t.Fatal("B stale before any daemon contact")
	}
	// Any contact at all propagates: a plain miss on an unrelated key.
	if _, ok, err := rB.Get(ctx, tier.KeyOf([]byte("unrelated"))); err != nil || ok {
		t.Fatalf("B get: ok=%v err=%v", ok, err)
	}
	if !invalidate.Stale([]invalidate.Stamp{stamp}) {
		t.Fatal("B's stamp still fresh after contacting the daemon")
	}
	if got := invB.Epoch(ks); got != 1 {
		t.Fatalf("B's epoch = %d, want 1", got)
	}
}

// TestPutStampsColdStart: before first contact the mirror is empty, so
// stamps are all-zero — the conservative choice (the daemon refuses
// fills for keyspaces it has bumped).
func TestPutStampsColdStart(t *testing.T) {
	r, err := New(Config{Addrs: []string{"127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	stamps := r.PutStamps(tier.Key{Hi: 1}, []string{"items", "users"})
	for _, s := range stamps {
		if s.Epoch != 0 {
			t.Fatalf("cold stamp %+v, want epoch 0", s)
		}
	}
}

// TestMirrorFeedsPutStamps: after contact, PutStamps reflects the
// daemon's table.
func TestMirrorFeedsPutStamps(t *testing.T) {
	dinv := invalidate.New(nil, nil)
	ft := newFakeTier(dinv)
	_, addr, _ := startDaemon(t, ft, dinv)
	r := newClient(t, addr, invalidate.New(nil, nil))
	ctx := context.Background()

	dinv.ApplyRemote(ksItems)
	dinv.ApplyRemote(ksItems)
	dinv.ApplyRemote(ksUsers)
	key := tier.KeyOf([]byte("q"))
	if _, _, err := r.Get(ctx, key); err != nil {
		t.Fatal(err)
	}
	stamps := r.PutStamps(key, []string{"items", "users", "untouched"})
	want := map[string]uint64{"items": 2, "users": 1, "untouched": 0}
	for _, s := range stamps {
		if s.Epoch != want[s.Keyspace] {
			t.Fatalf("stamp %+v, want epoch %d", s, want[s.Keyspace])
		}
	}
}

// TestDaemonRestart: a new daemon incarnation on the same address must
// (a) invalidate the client's local epochs — bumps pushed to the old
// incarnation are lost — and (b) refuse fills stamped under the old
// boot.
func TestDaemonRestart(t *testing.T) {
	dinv1 := invalidate.New(nil, nil)
	ft1 := newFakeTier(dinv1)
	_, addr, stop1 := startDaemon(t, ft1, dinv1)

	cinv := invalidate.New(nil, nil)
	r := newClient(t, addr, cinv)
	ctx := context.Background()

	// Establish contact and a local cell.
	ks := ksItems
	stamp := cinv.StampWith(ks, cinv.Epoch(ks))
	key := tier.KeyOf([]byte("q"))
	if _, _, err := r.Get(ctx, key); err != nil {
		t.Fatal(err)
	}
	oldBoot := r.nodes[0].bootID
	if oldBoot == 0 {
		t.Fatal("no boot id after contact")
	}

	// Restart on the same port.
	stop1()
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("cannot rebind %s: %v", addr, err)
	}
	dinv2 := invalidate.New(nil, nil)
	ft2 := newFakeTier(dinv2)
	srv2, err := NewServer(ServerConfig{Tier: ft2, Inv: dinv2})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv2.Serve(context.Background(), lis) }()
	t.Cleanup(func() { srv2.Close(); <-done })

	// Next contact retries over a fresh conn, sees the new boot ID, and
	// nukes local epochs.
	if _, _, err := r.Get(ctx, key); err != nil {
		t.Fatalf("get across restart: %v", err)
	}
	if got := r.nodes[0].bootID; got == oldBoot || got != srv2.BootID() {
		t.Fatalf("boot id %d, want new %d (old %d)", got, srv2.BootID(), oldBoot)
	}
	if !invalidate.Stale([]invalidate.Stamp{stamp}) {
		t.Fatal("pre-restart stamp still fresh after restart detection")
	}

	// A put minted before the client refreshed its boot view is dropped.
	r.nodes[0].epochMu.Lock()
	r.nodes[0].bootID = oldBoot // simulate a racing fill from the old view
	r.nodes[0].epochMu.Unlock()
	if err := r.Put(ctx, key, tier.Entry{Rep: "xml", Value: []byte("old")}); err != nil {
		t.Fatalf("stale-boot put errored: %v", err)
	}
	if ft2.putCount() != 0 {
		t.Fatal("daemon stored a fill stamped under the previous boot")
	}
	// The OK meta carried the new boot, so the client resynced and the
	// retry sticks.
	if err := r.Put(ctx, key, tier.Entry{Rep: "xml", Value: []byte("new")}); err != nil {
		t.Fatal(err)
	}
	if ft2.putCount() != 1 {
		t.Fatal("fresh-boot put not stored")
	}
}

// TestPendingBumpFlush: bumps that cannot reach the daemon stay
// pending and flush before the next successful request, so a Get is
// never answered by a daemon missing this process's writes.
func TestPendingBumpFlush(t *testing.T) {
	dinv := invalidate.New(nil, nil)
	ft := newFakeTier(dinv)
	_, addr, stop := startDaemon(t, ft, dinv)

	cinv := invalidate.New(nil, nil)
	r := newClient(t, addr, cinv)
	ctx := context.Background()
	if _, _, err := r.Get(ctx, tier.KeyOf([]byte("warm"))); err != nil {
		t.Fatal(err)
	}

	// Kill the daemon; a local bump cannot be pushed.
	stop()
	r.Close() // drop pooled conns so the failure is immediate
	cinv.Bump(ksItems)
	r.nodes[0].pendingMu.Lock()
	_, pending := r.nodes[0].pending["items"]
	r.nodes[0].pendingMu.Unlock()
	if !pending {
		t.Fatal("unreachable bump not pending")
	}

	// Daemon comes back (same address, new incarnation).
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("cannot rebind %s: %v", addr, err)
	}
	dinv2 := invalidate.New(nil, nil)
	srv2, err := NewServer(ServerConfig{Tier: newFakeTier(dinv2), Inv: dinv2})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv2.Serve(context.Background(), lis) }()
	t.Cleanup(func() { srv2.Close(); <-done })

	// The next Get must flush the pending bump first.
	if _, _, err := r.Get(ctx, tier.KeyOf([]byte("after"))); err != nil {
		t.Fatalf("get after daemon return: %v", err)
	}
	if got := dinv2.Epoch(ksItems); got != 1 {
		t.Fatalf("daemon epoch after flush = %d, want 1", got)
	}
	r.nodes[0].pendingMu.Lock()
	left := len(r.nodes[0].pending)
	r.nodes[0].pendingMu.Unlock()
	if left != 0 {
		t.Fatalf("%d bumps still pending after flush", left)
	}
}

// TestRingDistribution: keys spread across addresses and routing is
// deterministic.
func TestRingDistribution(t *testing.T) {
	addrs := []string{"a:1", "b:1", "c:1"}
	rg := newRing(addrs, 0)
	counts := make([]int, len(addrs))
	for i := 0; i < 3000; i++ {
		k := tier.KeyOf([]byte{byte(i), byte(i >> 8), 'x'})
		n := rg.node(k)
		if n != rg.node(k) {
			t.Fatal("routing not deterministic")
		}
		counts[n]++
	}
	for i, c := range counts {
		if c < 300 {
			t.Fatalf("address %d owns only %d/3000 keys: %v", i, c, counts)
		}
	}
}

// TestServerRefusesGarbage: a client speaking garbage gets an OpErr
// frame and the connection is dropped; the daemon survives.
func TestServerRefusesGarbage(t *testing.T) {
	dinv := invalidate.New(nil, nil)
	ft := newFakeTier(dinv)
	_, addr, _ := startDaemon(t, ft, dinv)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write([]byte{99, 99, 99, 99, 99, 99, 99, 99}); err != nil {
		t.Fatal(err)
	}
	op, payload, err := readFrame(conn, 0)
	if err != nil {
		t.Fatalf("no error frame: %v", err)
	}
	if op != OpErr {
		t.Fatalf("opcode %#x, want OpErr", byte(op))
	}
	if msg, err := decodeErr(payload); err != nil || msg == "" {
		t.Fatalf("error message %q, err=%v", msg, err)
	}

	// The daemon still serves new connections.
	r := newClient(t, addr, nil)
	if _, ok, err := r.Get(context.Background(), tier.Key{Hi: 1}); err != nil || ok {
		t.Fatalf("daemon dead after garbage: ok=%v err=%v", ok, err)
	}
}

// syncDelta sends r's node a SYNC from its current cursor and returns
// the raw table response, leaving the mirror untouched.
func syncDelta(t *testing.T, r *Remote) []byte {
	t.Helper()
	n := r.nodes[0]
	op, resp, err := r.roundTrip(context.Background(), n, OpSync, encodeMetaOnly(n.cursor()))
	if err != nil || op != OpTable {
		t.Fatalf("sync: op=%#x err=%v", byte(op), err)
	}
	return resp
}

// TestSyncDeltaIndependentOfTableSize: once a client has mirrored the
// table, the answer to its next sync carries what changed since, not
// the table — one bump elsewhere costs the same bytes over 10 or
// 10,000 daemon keyspaces.
func TestSyncDeltaIndependentOfTableSize(t *testing.T) {
	respLen := func(tableSize int) int {
		dinv := invalidate.New(nil, nil)
		for i := 0; i < tableSize; i++ {
			dinv.ApplyRemote(invalidate.Keyspace(fmt.Sprintf("%s:%05d", ksUsers, i)))
		}
		_, addr, _ := startDaemon(t, newFakeTier(dinv), dinv)
		invA := invalidate.New(nil, nil)
		newClient(t, addr, invA)
		rB := newClient(t, addr, invalidate.New(nil, nil))
		ctx := context.Background()

		// First contact gets the full table.
		if _, _, err := rB.Get(ctx, tier.KeyOf([]byte("q"))); err != nil {
			t.Fatal(err)
		}
		if got := rB.TierStats().EpochEntries; got != int64(tableSize) {
			t.Fatalf("first contact received %d entries, want the full %d", got, tableSize)
		}

		invA.Bump(ksItems)
		resp := syncDelta(t, rB)
		m, table, err := decodeTable(resp)
		if err != nil {
			t.Fatal(err)
		}
		if len(table) != 1 || table[string(ksItems)] != 1 || m.version != dinv.Version() {
			t.Fatalf("delta %v at version %d, want {items:1} at %d", table, m.version, dinv.Version())
		}

		// The client's own sync path takes the same delta and stales B.
		if _, _, err := rB.Get(ctx, tier.KeyOf([]byte("q"))); err != nil {
			t.Fatal(err)
		}
		st := rB.TierStats()
		if st.EpochEntries != int64(tableSize)+1 || st.Syncs != 2 {
			t.Fatalf("after the bump: %d entries over %d syncs, want %d over 2", st.EpochEntries, st.Syncs, tableSize+1)
		}
		return len(resp)
	}
	small, large := respLen(10), respLen(10000)
	if small != large {
		t.Fatalf("one-bump sync response is %d bytes over 10 keyspaces, %d over 10000", small, large)
	}
}

// TestSyncFallsBackToFullTable covers the daemon's three full-table
// cases: first contact, a cursor from another incarnation, and a
// client that idled past the change log. The last is the dangerous
// one: a delta built from the wrapped log would omit the keyspace
// bumped first, and the idle client would keep serving it.
func TestSyncFallsBackToFullTable(t *testing.T) {
	dinv := invalidate.New(nil, nil)
	srv, addr, _ := startDaemon(t, newFakeTier(dinv), dinv)
	invB := invalidate.New(nil, nil)
	rB := newClient(t, addr, invB)
	ctx := context.Background()

	dinv.ApplyRemote(ksUsers)
	stamp := invB.StampWith(ksItems, invB.Epoch(ksItems))
	if _, _, err := rB.Get(ctx, tier.KeyOf([]byte("q"))); err != nil {
		t.Fatal(err)
	}

	dinv.ApplyRemote(ksItems)
	for i := 0; i < invalidate.ChangeLogSize; i++ {
		dinv.ApplyRemote(invalidate.Keyspace(fmt.Sprintf("%s:%d", ksUsers, i)))
	}
	full := len(dinv.Snapshot())
	for _, c := range []struct {
		name string
		cur  respMeta
	}{
		{"first contact", respMeta{}},
		{"other incarnation", respMeta{bootID: srv.BootID() + 1, version: dinv.Version()}},
		{"idle past the log", rB.nodes[0].cursor()},
	} {
		op, resp := srv.tableResp(c.cur)
		_, table, err := decodeTable(resp)
		if op != OpTable || err != nil || len(table) != full {
			t.Fatalf("%s: %d entries (err %v), want the full %d", c.name, len(table), err, full)
		}
	}

	before := rB.TierStats().EpochEntries
	if _, _, err := rB.Get(ctx, tier.KeyOf([]byte("q"))); err != nil {
		t.Fatal(err)
	}
	if got := rB.TierStats().EpochEntries - before; got != int64(full) {
		t.Fatalf("idle client received %d entries, want the full %d", got, full)
	}
	if !invalidate.Stale([]invalidate.Stamp{stamp}) {
		t.Fatal("idle client still holds a fresh stamp on a keyspace bumped while it was away")
	}
}

// TestSyncFailureCountedOnce: a sync that cannot reach its daemon is
// one error, not one per layer that saw it fail.
func TestSyncFailureCountedOnce(t *testing.T) {
	dinv := invalidate.New(nil, nil)
	_, addr, stop := startDaemon(t, newFakeTier(dinv), dinv)
	r := newClient(t, addr, invalidate.New(nil, nil))
	if _, _, err := r.Get(context.Background(), tier.KeyOf([]byte("q"))); err != nil {
		t.Fatal(err)
	}
	stop()
	r.Close()

	before := r.TierStats().Errors
	n := r.nodes[0]
	ahead := n.cursor()
	ahead.version++
	r.afterMeta(context.Background(), n, ahead)
	if got := r.TierStats().Errors - before; got != 1 {
		t.Fatalf("failed sync counted %d errors, want 1", got)
	}
}
