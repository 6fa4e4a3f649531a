package invalidate

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/obs"
)

// TestOnBumpFiresForLocalBumpsOnly pins the echo-prevention contract:
// CommitWrite and Bump fire the registered hooks with the bumped
// keyspaces; ApplyRemote and InvalidateAll — bumps that ORIGINATED
// elsewhere — must not, or two processes pushing to each other would
// loop forever.
func TestOnBumpFiresForLocalBumpsOnly(t *testing.T) {
	inv := New(itemGraph(), obs.NewRegistry())
	var fired [][]Keyspace
	inv.OnBump(func(ks []Keyspace) {
		cp := append([]Keyspace(nil), ks...)
		fired = append(fired, cp)
	})

	inv.CommitWrite(opPutItem, params("x"))
	if len(fired) != 1 || len(fired[0]) != 2 {
		t.Fatalf("CommitWrite hook: got %v, want one firing with two keyspaces", fired)
	}
	inv.Bump(ksItems)
	if len(fired) != 2 || len(fired[1]) != 1 || fired[1][0] != ksItems {
		t.Fatalf("Bump hook: got %v", fired)
	}

	inv.ApplyRemote(ksItemX)
	inv.InvalidateAll()
	if len(fired) != 2 {
		t.Fatalf("remote-origin bumps fired hooks: %v", fired[2:])
	}
}

// TestApplyRemoteStalesStamps verifies the receive side: a remote bump
// invalidates local stamps exactly like a local one.
func TestApplyRemoteStalesStamps(t *testing.T) {
	inv := New(itemGraph(), obs.NewRegistry())
	stamps := inv.ReadStamps(opGetItem, params("x"))
	if Stale(stamps) {
		t.Fatal("fresh stamps stale")
	}
	inv.ApplyRemote(ksItemX)
	if !Stale(stamps) {
		t.Fatal("stamps survive a remote bump of their keyspace")
	}
}

// TestInvalidateAllStalesEveryCell verifies the daemon-restart hammer.
func TestInvalidateAllStalesEveryCell(t *testing.T) {
	inv := New(itemGraph(), obs.NewRegistry())
	a := inv.ReadStamps(opGetItem, params("x"))
	b := inv.ReadStamps(opListItems, nil)
	inv.InvalidateAll()
	if !Stale(a) || !Stale(b) {
		t.Fatal("InvalidateAll left a stamp fresh")
	}
	// New stamps taken afterwards are stable again.
	if Stale(inv.ReadStamps(opGetItem, params("x"))) {
		t.Fatal("post-InvalidateAll stamps born stale")
	}
}

// TestVersionCountsEveryMutation pins the sync cursor: any epoch
// mutation advances Version, and a quiet Invalidator holds it steady.
func TestVersionCountsEveryMutation(t *testing.T) {
	inv := New(itemGraph(), obs.NewRegistry())
	if inv.Version() != 0 {
		t.Fatalf("fresh Version = %d", inv.Version())
	}
	inv.CommitWrite(opPutItem, params("x")) // bumps item:x and items
	if inv.Version() != 2 {
		t.Fatalf("after CommitWrite Version = %d, want 2", inv.Version())
	}
	inv.ApplyRemote(ksItems)
	if inv.Version() != 3 {
		t.Fatalf("after ApplyRemote Version = %d, want 3", inv.Version())
	}
	if inv.Version() != 3 {
		t.Fatal("Version moved without a mutation")
	}
}

// TestStampWithAdoptsObservedEpoch verifies the daemon-side Put path:
// a stamp carrying the client's observed epoch is live against the
// daemon's cell — fresh while they agree, stale the moment the cell
// advances past the observation (including "already past" at stamping
// time, the born-stale refusal case).
func TestStampWithAdoptsObservedEpoch(t *testing.T) {
	inv := New(NewGraph(), obs.NewRegistry())
	s := []Stamp{inv.StampWith(ksItems, 0)}
	if Stale(s) {
		t.Fatal("matching observation reports stale")
	}
	inv.Bump(ksItems)
	if !Stale(s) {
		t.Fatal("advanced cell not stale against old observation")
	}
	// A client observation behind the daemon's current epoch is born
	// stale: the daemon must refuse the fill.
	if !Stale([]Stamp{inv.StampWith(ksItems, 0)}) {
		t.Fatal("born-stale stamp reports fresh")
	}
	if Stale([]Stamp{inv.StampWith(ksItems, inv.Epoch(ksItems))}) {
		t.Fatal("current observation reports stale")
	}
}

// TestReadSetExposesGraphResolution pins the accessor tier fills use
// to name an entry's dependencies on the wire.
func TestReadSetExposesGraphResolution(t *testing.T) {
	inv := New(itemGraph(), obs.NewRegistry())
	ks := inv.ReadSet(opGetItem, params("x"))
	if len(ks) != 1 || ks[0] != ksItemX {
		t.Fatalf("ReadSet(doGetItem) = %v", ks)
	}
	if inv.ReadSet("doUndeclared", nil) != nil {
		t.Fatal("undeclared op has a read set")
	}
}

// TestChangedSince pins the change log's contract: answers list each
// keyspace advanced after the cursor once, at its current epoch; the
// log answers only for versions it covers — from its allocation, back
// ChangeLogSize advances, and never across an InvalidateAll.
func TestChangedSince(t *testing.T) {
	inv := New(itemGraph(), nil)
	inv.CommitWrite(opPutItem, params("x")) // versions 1, 2: before the log
	if _, upTo, ok := inv.ChangedSince(0); ok || upTo != 2 {
		t.Fatalf("ChangedSince before allocation: ok=%v upTo=%d, want a miss at 2", ok, upTo)
	}
	if got, upTo, ok := inv.ChangedSince(2); !ok || upTo != 2 || len(got) != 0 {
		t.Fatalf("ChangedSince(current) = %v, %d, %v; want an empty answer", got, upTo, ok)
	}

	inv.CommitWrite(opPutItem, params("x")) // 3, 4
	inv.ApplyRemote(ksItems)                // 5
	got, upTo, ok := inv.ChangedSince(2)
	want := map[string]uint64{string(ksItemX): 2, string(ksItems): 3}
	if !ok || upTo != 5 || len(got) != len(want) {
		t.Fatalf("ChangedSince(2) = %v, %d, %v; want %v at 5", got, upTo, ok, want)
	}
	for ks, e := range want {
		if got[ks] != e {
			t.Fatalf("ChangedSince(2) = %v, want %v", got, want)
		}
	}
	if _, _, ok := inv.ChangedSince(6); ok {
		t.Fatal("ChangedSince answered for a version not yet issued")
	}

	// Fill the ring: version 5 is the oldest cursor still answerable once
	// ChangeLogSize advances sit on top of it.
	for i := 0; i < ChangeLogSize; i++ {
		inv.ApplyRemote(Keyspace(itemPrefix + fmt.Sprint(i)))
	}
	if got, upTo, ok := inv.ChangedSince(5); !ok || upTo != 5+ChangeLogSize || len(got) != ChangeLogSize {
		t.Fatalf("ChangedSince(oldest) = %d entries, %d, %v", len(got), upTo, ok)
	}
	if _, _, ok := inv.ChangedSince(4); ok {
		t.Fatal("ChangedSince answered from an overwritten slot")
	}

	v := inv.Version()
	inv.InvalidateAll()
	if _, _, ok := inv.ChangedSince(v); ok {
		t.Fatal("ChangedSince answered across InvalidateAll")
	}
	if got, _, ok := inv.ChangedSince(inv.Version()); !ok || len(got) != 0 {
		t.Fatalf("ChangedSince after InvalidateAll = %v, %v", got, ok)
	}
}

// TestChangedSinceConcurrent syncs a mirror by deltas, falling back to
// the full table as the daemon does, while writers advance epochs. Once
// the writers stop, one more sync must leave the mirror equal to the
// live table: no advance slips between a version and its log entry.
func TestChangedSinceConcurrent(t *testing.T) {
	inv := New(itemGraph(), nil)
	inv.ChangedSince(0)
	mirror := map[string]uint64{}
	var cur uint64
	resync := func() {
		epochs, upTo, ok := inv.ChangedSince(cur)
		if !ok {
			upTo = inv.Version()
			epochs = inv.Snapshot()
		}
		for ks, e := range epochs {
			if e > mirror[ks] {
				mirror[ks] = e
			}
		}
		cur = upTo
	}

	const writers, writesEach = 4, 400
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < writesEach; i++ {
				inv.CommitWrite(opPutItem, params(fmt.Sprint((w*writesEach+i)%7)))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
			resync()
		}
	}
	resync()
	live := inv.Snapshot()
	if len(mirror) != len(live) {
		t.Fatalf("mirror has %d keyspaces, table %d", len(mirror), len(live))
	}
	for ks, e := range live {
		if mirror[ks] != e {
			t.Fatalf("mirror[%s] = %d, table %d", ks, mirror[ks], e)
		}
	}
}
