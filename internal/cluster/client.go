package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/invalidate"
	"repro/internal/tier"
	"sync/atomic"
)

// Config configures the client side of the cluster tier.
type Config struct {
	// Addrs are the daemon addresses (host:port). Keys are routed by
	// consistent hashing; one address is the common case. Required,
	// non-empty.
	Addrs []string
	// Inv is this process's invalidator. When set, the tier propagates
	// epochs both ways: local bumps are pushed to every daemon before
	// the write returns, and daemon-side bumps observed on any response
	// are applied locally (staling this process's L1 entries). When nil
	// the tier is TTL-only.
	Inv *invalidate.Invalidator
	// Name is the tier name in stats and counters; default "l2".
	Name string
	// Replicas is the virtual nodes per address on the hash ring;
	// ≤ 0 means the package default.
	Replicas int
	// MaxPayload bounds response frames; ≤ 0 means DefaultMaxPayload.
	MaxPayload int
	// DialTimeout bounds establishing a connection; default 1s.
	DialTimeout time.Duration
	// OpTimeout bounds one round trip (write + read); default 2s. A
	// request context with an earlier deadline tightens it further.
	OpTimeout time.Duration
	// PoolSize is the idle connections kept per daemon; default 2.
	PoolSize int
	// BaseContext bounds the background epoch pushes the OnBump hook
	// issues (each push additionally gets an OpTimeout deadline).
	// Required when Inv is set: the binary owns the root context, not
	// this package. Ignored otherwise.
	BaseContext context.Context
}

func (cfg *Config) withDefaults() Config {
	c := *cfg
	if c.Name == "" {
		c.Name = "l2"
	}
	if c.MaxPayload <= 0 {
		c.MaxPayload = DefaultMaxPayload
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = time.Second
	}
	if c.OpTimeout <= 0 {
		c.OpTimeout = 2 * time.Second
	}
	if c.PoolSize <= 0 {
		c.PoolSize = 2
	}
	return c
}

// Remote is the client side of the shared L2: a tier.Tier whose
// storage lives in wscached daemons. Every response's meta (boot ID,
// epoch version) is compared against the per-daemon mirror, so any
// traffic at all — a hit, a miss, a put acknowledgment — carries
// invalidation: a version ahead of the mirror triggers an epoch-table
// sync whose diffs stale the local L1, and a changed boot ID (daemon
// restart, bumps lost) invalidates the local L1 outright.
type Remote struct {
	cfg   Config
	ring  *ring
	nodes []*node
	inv   *invalidate.Invalidator

	// Per-remote traffic counters, surfaced through TierStats (and,
	// when the tier is installed in a core.Cache, its "tiers"
	// inspection). Plain atomics rather than obs counters: the metric
	// name would have to carry the configured tier name, and obs
	// registry names are compile-time constants by convention.
	hits         atomic.Uint64
	misses       atomic.Uint64
	puts         atomic.Uint64
	errors       atomic.Uint64
	syncs        atomic.Uint64
	bumps        atomic.Uint64
	deferred     atomic.Uint64
	restarts     atomic.Uint64
	epochEntries atomic.Uint64
}

var _ tier.Tier = (*Remote)(nil)

// node is the per-daemon state: the connection pool, the epoch mirror
// (this process's view of that daemon's table), and the pending-bump
// set (local bumps not yet acknowledged by that daemon).
//
// Lock order: pendingMu before epochMu; poolMu independent.
type node struct {
	addr string

	poolMu sync.Mutex
	idle   []*poolConn

	pendingMu sync.Mutex
	pending   map[string]struct{}

	epochMu sync.Mutex
	bootID  uint64 // 0 until first contact
	version uint64
	mirror  map[string]uint64
}

type poolConn struct {
	c       net.Conn
	br      *bufio.Reader
	scratch []byte
}

// New builds the cluster tier and, when cfg.Inv is set, hooks local
// epoch bumps to push to every daemon.
func New(cfg Config) (*Remote, error) {
	if len(cfg.Addrs) == 0 {
		return nil, errors.New("cluster: Config.Addrs is required")
	}
	c := cfg.withDefaults()
	r := &Remote{
		cfg:  c,
		ring: newRing(c.Addrs, c.Replicas),
		inv:  c.Inv,
	}
	for _, addr := range c.Addrs {
		r.nodes = append(r.nodes, &node{
			addr:    addr,
			pending: make(map[string]struct{}),
			mirror:  make(map[string]uint64),
		})
	}
	if r.inv != nil {
		base := c.BaseContext
		if base == nil {
			return nil, errors.New("cluster: Config.BaseContext is required when Inv is set (the binary owns the root context)")
		}
		// Push local bumps synchronously: by the time the committing
		// write returns, every reachable daemon has the new epoch, so no
		// other process can fill a pre-write value into the shared tier
		// and have it accepted. An unreachable daemon's bumps go to its
		// pending set, flushed before this process talks to it again.
		r.inv.OnBump(func(keyspaces []invalidate.Keyspace) {
			names := make([]string, len(keyspaces))
			for i, ks := range keyspaces {
				names[i] = string(ks)
			}
			ctx, cancel := context.WithTimeout(base, c.OpTimeout)
			defer cancel()
			r.pushBumps(ctx, names)
		})
	}
	return r, nil
}

// Name implements tier.Tier.
func (r *Remote) Name() string { return r.cfg.Name }

// nodeFor routes a key.
func (r *Remote) nodeFor(key tier.Key) *node {
	return r.nodes[r.ring.node(key)]
}

// Get implements tier.Tier. Pending bumps for the key's daemon are
// flushed first — an entry must never be served from a daemon that has
// not yet seen this process's writes.
func (r *Remote) Get(ctx context.Context, key tier.Key) (tier.Entry, bool, error) {
	n := r.nodeFor(key)
	if err := r.flush(ctx, n); err != nil {
		return tier.Entry{}, false, fmt.Errorf("cluster: bump flush: %w", err)
	}
	op, resp, err := r.roundTrip(ctx, n, OpGet, encodeKey(key))
	if err != nil {
		return tier.Entry{}, false, err
	}
	switch op {
	case OpValue:
		m, e, err := decodeValue(resp)
		if err != nil {
			r.errors.Add(1)
			return tier.Entry{}, false, err
		}
		r.afterMeta(ctx, n, m)
		r.hits.Add(1)
		return e, true, nil
	case OpMiss:
		m, err := decodeMetaOnly(resp)
		if err != nil {
			r.errors.Add(1)
			return tier.Entry{}, false, err
		}
		r.afterMeta(ctx, n, m)
		r.misses.Add(1)
		return tier.Entry{}, false, nil
	}
	return tier.Entry{}, false, r.unexpected("get", op, resp)
}

// PutStamps implements tier.Tier: the epochs this process believes the
// key's daemon holds for the given keyspaces, snapshotted before the
// backend read. The mirror only ever trails the daemon within one
// incarnation, so a stale snapshot can only make the daemon refuse the
// fill — never accept a stale one. The boot ID the mirror belongs to
// is pinned into the stamps: a daemon restart between this snapshot
// and the fill resets the daemon's epoch counters, and post-restart
// bumps could advance a cell back to exactly the snapshotted value
// (ABA) — the fill must then be refused by the boot check, not judged
// by colliding epochs. An uncontacted daemon mirrors as all zeros
// under boot 0, the most conservative stamp.
func (r *Remote) PutStamps(key tier.Key, keyspaces []string) []tier.Stamp {
	n := r.nodeFor(key)
	stamps := make([]tier.Stamp, len(keyspaces))
	n.epochMu.Lock()
	for i, ks := range keyspaces {
		stamps[i] = tier.Stamp{Keyspace: ks, Epoch: n.mirror[ks], Boot: n.bootID}
	}
	n.epochMu.Unlock()
	return stamps
}

// Put implements tier.Tier. The put frame carries the boot ID the
// entry's stamps were snapshotted under (falling back to the node's
// current one for stamp-less entries): the daemon drops fills from
// another incarnation, and for stamp-less entries the freshest view is
// the best available.

func (r *Remote) Put(ctx context.Context, key tier.Key, e tier.Entry) error {
	n := r.nodeFor(key)
	if err := r.flush(ctx, n); err != nil {
		return fmt.Errorf("cluster: bump flush: %w", err)
	}
	var bootID uint64
	if len(e.Stamps) > 0 {
		bootID = e.Stamps[0].Boot
	} else {
		n.epochMu.Lock()
		bootID = n.bootID
		n.epochMu.Unlock()
	}
	payload, err := encodePut(bootID, key, e)
	if err != nil {
		return err
	}
	op, resp, err := r.roundTrip(ctx, n, OpPut, payload)
	if err != nil {
		return err
	}
	if op != OpOK {
		return r.unexpected("put", op, resp)
	}
	m, err := decodeMetaOnly(resp)
	if err != nil {
		r.errors.Add(1)
		return err
	}
	r.afterMeta(ctx, n, m)
	r.puts.Add(1)
	return nil
}

// Delete implements tier.Tier.
func (r *Remote) Delete(ctx context.Context, key tier.Key) error {
	n := r.nodeFor(key)
	if err := r.flush(ctx, n); err != nil {
		return fmt.Errorf("cluster: bump flush: %w", err)
	}
	op, resp, err := r.roundTrip(ctx, n, OpDel, encodeKey(key))
	if err != nil {
		return err
	}
	if op != OpOK {
		return r.unexpected("delete", op, resp)
	}
	m, err := decodeMetaOnly(resp)
	if err != nil {
		r.errors.Add(1)
		return err
	}
	r.afterMeta(ctx, n, m)
	return nil
}

// BumpEpoch implements tier.Tier: push the bumps to every daemon (all
// of them — a keyspace's entries hash across the whole ring).
func (r *Remote) BumpEpoch(ctx context.Context, keyspaces []string) error {
	return r.pushBumps(ctx, keyspaces)
}

// TierStats implements tier.Tier. Entry and byte counts live in the
// daemons; this side reports traffic, epoch sync traffic included.
func (r *Remote) TierStats() tier.Stats {
	return tier.Stats{
		Hits:         int64(r.hits.Load()),
		Misses:       int64(r.misses.Load()),
		Stores:       int64(r.puts.Load()),
		Errors:       int64(r.errors.Load()),
		Syncs:        int64(r.syncs.Load()),
		Bumps:        int64(r.bumps.Load()),
		Deferred:     int64(r.deferred.Load()),
		Restarts:     int64(r.restarts.Load()),
		EpochEntries: int64(r.epochEntries.Load()),
	}
}

// Close drops every pooled connection.
func (r *Remote) Close() error {
	for _, n := range r.nodes {
		n.poolMu.Lock()
		for _, pc := range n.idle {
			pc.c.Close()
		}
		n.idle = nil
		n.poolMu.Unlock()
	}
	return nil
}

// pushBumps queues keyspaces on every node and flushes immediately.
// A node that cannot be reached keeps them pending (counted), to be
// flushed before this process's next request to it.
func (r *Remote) pushBumps(ctx context.Context, keyspaces []string) error {
	if len(keyspaces) == 0 {
		return nil
	}
	r.bumps.Add(1)
	var firstErr error
	for _, n := range r.nodes {
		n.pendingMu.Lock()
		for _, ks := range keyspaces {
			n.pending[ks] = struct{}{}
		}
		err := r.flushLocked(ctx, n)
		n.pendingMu.Unlock()
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// flush sends a node's pending bumps, if any.
func (r *Remote) flush(ctx context.Context, n *node) error {
	n.pendingMu.Lock()
	defer n.pendingMu.Unlock()
	return r.flushLocked(ctx, n)
}

// flushLocked sends the pending set as one OpBump, with the mirror's
// cursor, and applies the returned epochs (skipping the local
// re-application of this process's own single-step bumps — they were
// already applied locally when the write committed). Pending entries
// clear only on acknowledgment.
func (r *Remote) flushLocked(ctx context.Context, n *node) error {
	if len(n.pending) == 0 {
		return nil
	}
	names := make([]string, 0, len(n.pending))
	for ks := range n.pending {
		names = append(names, ks)
	}
	sort.Strings(names)
	payload, err := encodeBump(n.cursor(), names)
	if err != nil {
		return err
	}
	op, resp, err := r.roundTrip(ctx, n, OpBump, payload)
	if err != nil {
		r.deferred.Add(1)
		return err
	}
	if op != OpTable {
		r.deferred.Add(1)
		return r.unexpected("bump", op, resp)
	}
	m, table, err := decodeTable(resp)
	if err != nil {
		r.deferred.Add(1)
		r.errors.Add(1)
		return err
	}
	own := make(map[string]bool, len(names))
	for _, ks := range names {
		own[ks] = true
	}
	for ks := range n.pending {
		delete(n.pending, ks)
	}
	r.applyTable(n, m, table, own)
	return nil
}

// afterMeta reconciles a meta-only response against the node's mirror,
// syncing the epochs changed since the mirror's cursor when the
// response shows state this process has not seen. It completes before
// the triggering operation returns, so a Get's caller observes any
// invalidation that Get's response implied.
func (r *Remote) afterMeta(ctx context.Context, n *node, m respMeta) {
	n.epochMu.Lock()
	needSync := m.bootID != n.bootID || m.version > n.version
	cur := respMeta{bootID: n.bootID, version: n.version}
	n.epochMu.Unlock()
	if !needSync {
		return
	}
	// On failure the mirror stays stale: bootID/version were not
	// updated, so the next response re-triggers the sync. roundTrip and
	// unexpected each count the error they report.
	op, resp, err := r.roundTrip(ctx, n, OpSync, encodeMetaOnly(cur))
	if err != nil {
		return
	}
	if op != OpTable {
		r.unexpected("sync", op, resp)
		return
	}
	m2, table, err := decodeTable(resp)
	if err != nil {
		r.errors.Add(1)
		return
	}
	r.syncs.Add(1)
	r.applyTable(n, m2, table, nil)
}

// applyTable folds a daemon epoch table into the node mirror and
// applies newly observed bumps to the local invalidator. own marks
// keyspaces whose single-step advance is this process's just-pushed
// bump: those were applied locally at commit time, and re-applying
// would stale this process's own fresh fill. A jump of more than one
// step means another process also bumped, so it is applied.
func (r *Remote) applyTable(n *node, m respMeta, table map[string]uint64, own map[string]bool) {
	r.epochEntries.Add(uint64(len(table)))
	n.epochMu.Lock()
	restarted := n.bootID != 0 && n.bootID != m.bootID
	if n.bootID != m.bootID {
		n.bootID = m.bootID
		n.version = 0
		n.mirror = make(map[string]uint64, len(table))
		if restarted {
			// Step counting is meaningless across a restart. On FIRST
			// contact it is fine: the empty mirror reads as all zeros, so a
			// just-pushed own bump lands on old+1 only when it really is
			// the sole advance.
			own = nil
		}
	}
	var stale []string
	for ks, epoch := range table {
		old := n.mirror[ks]
		if epoch <= old {
			continue
		}
		n.mirror[ks] = epoch
		if !(own[ks] && epoch == old+1) {
			stale = append(stale, ks)
		}
	}
	if m.version > n.version {
		n.version = m.version
	}
	n.epochMu.Unlock()

	if r.inv == nil {
		return
	}
	if restarted {
		// The daemon lost every bump its previous incarnation absorbed;
		// local entries validated against them can no longer be trusted.
		r.restarts.Add(1)
		r.inv.InvalidateAll()
		return
	}
	for _, ks := range stale {
		r.inv.ApplyRemote(invalidate.Keyspace(ks))
	}
}

// unexpected normalizes a response that does not fit the request.
func (r *Remote) unexpected(verb string, op Opcode, resp []byte) error {
	r.errors.Add(1)
	if op == OpErr {
		if msg, err := decodeErr(resp); err == nil {
			return fmt.Errorf("cluster: %s: daemon: %s", verb, msg)
		}
	}
	return fmt.Errorf("cluster: %s: unexpected response opcode %#x", verb, byte(op))
}

// roundTrip sends one request on a pooled connection and reads its
// response. One retry on an IO failure covers the common pool staleness
// (daemon restarted, idle timeout): the retry dials fresh because the
// failed connection was discarded, not repooled. All requests are safe
// to retry — get/put/delete/sync are idempotent and a duplicated bump
// only over-invalidates.
func (r *Remote) roundTrip(ctx context.Context, n *node, op Opcode, payload []byte) (Opcode, []byte, error) {
	deadline := time.Now().Add(r.cfg.OpTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		if err := ctx.Err(); err != nil {
			break
		}
		pc, err := n.acquire(r.cfg.DialTimeout)
		if err != nil {
			lastErr = err
			continue
		}
		pc.c.SetDeadline(deadline)
		if err := writeFrame(pc.c, &pc.scratch, op, payload); err != nil {
			pc.c.Close()
			lastErr = err
			continue
		}
		respOp, resp, err := readFrame(pc.br, r.cfg.MaxPayload)
		if err != nil {
			pc.c.Close()
			lastErr = err
			continue
		}
		pc.c.SetDeadline(time.Time{})
		n.release(pc, r.cfg.PoolSize)
		return respOp, resp, nil
	}
	if lastErr == nil {
		lastErr = ctx.Err()
	}
	r.errors.Add(1)
	return 0, nil, fmt.Errorf("cluster: %s: %w", n.addr, lastErr)
}

// cursor returns the meta the node's mirror last absorbed: the point a
// sync or bump asks the daemon to answer from.
func (n *node) cursor() respMeta {
	n.epochMu.Lock()
	defer n.epochMu.Unlock()
	return respMeta{bootID: n.bootID, version: n.version}
}

// acquire pops an idle connection or dials a fresh one.
func (n *node) acquire(dialTimeout time.Duration) (*poolConn, error) {
	n.poolMu.Lock()
	if len(n.idle) > 0 {
		pc := n.idle[len(n.idle)-1]
		n.idle = n.idle[:len(n.idle)-1]
		n.poolMu.Unlock()
		return pc, nil
	}
	n.poolMu.Unlock()
	c, err := net.DialTimeout("tcp", n.addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	return &poolConn{c: c, br: bufio.NewReader(c)}, nil
}

// release returns a healthy connection to the pool, capped.
func (n *node) release(pc *poolConn, cap int) {
	n.poolMu.Lock()
	if len(n.idle) >= cap {
		n.poolMu.Unlock()
		pc.c.Close()
		return
	}
	n.idle = append(n.idle, pc)
	n.poolMu.Unlock()
}
