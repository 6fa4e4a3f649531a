package main

import (
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// fakeClock advances one microsecond per reading, so the adaptive
// selector's cost model, which times stores and loads with the clock
// it is given, makes the same choices in every run.
func fakeClock() func() time.Time {
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	var ticks atomic.Int64
	return func() time.Time { return base.Add(time.Duration(ticks.Add(1)) * time.Microsecond) }
}

// runFixed warms a one-process stack and makes a fixed number of calls
// with a fixed seed; it returns the process's cache counters and its
// tracer (nil untraced).
func runFixed(t *testing.T, w *workload, traced bool, calls int64) (core.Stats, *tracer) {
	t.Helper()
	in := newInputs(w, 7, 1)
	s, err := newStack(stackOptions{procs: 1, traced: traced, clock: fakeClock(), shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.close(); err != nil {
			t.Error(err)
		}
	}()
	if err := in.warm(s); err != nil {
		t.Fatal(err)
	}
	c := newClients(in, time.Second)[0]
	c.loop(s.procs[0], time.Now(), time.Now().Add(time.Hour), calls)
	if c.failed != 0 {
		t.Fatalf("%d calls failed; first: %s", c.failed, c.firstFailure)
	}
	return s.procs[0].cache.Stats(), s.procs[0].tr
}

// TestTracedStatsMatchUntraced checks that the span wrappers change
// nothing the cache does: the same calls give the same counts traced
// and untraced, and the traced run times every layer the workload
// enters.
func TestTracedStatsMatchUntraced(t *testing.T) {
	churn := *workloadByName("churn-read")
	churn.pool = 3000 // still more than one L1 holds, so evictions happen
	cases := []struct {
		w      *workload
		layers []layer
	}{
		{&churn, []layer{lClient, lCore, lKeygen, lLoad, lStore, lWireDecode, lTierGet, lTierPut, lServe, lCodec, lSend, lOrigin}},
		{workloadByName("item-rw"), []layer{lClient, lCore, lKeygen, lLoad, lStore, lTierGet, lTierPut, lTierBump, lServe, lCodec, lSend, lOrigin}},
	}
	for _, tc := range cases {
		t.Run(tc.w.name, func(t *testing.T) {
			plain, _ := runFixed(t, tc.w, false, 3000)
			traced, tr := runFixed(t, tc.w, true, 3000)
			type counts struct{ Hits, Misses, Stores, TierHits, Evictions, Invalidations, Bypass, Errors, TierErrors int64 }
			pick := func(s core.Stats) counts {
				return counts{s.Hits, s.Misses, s.Stores, s.TierHits, s.Evictions, s.Invalidations, s.Bypass, s.Errors, s.TierErrors}
			}
			if pick(plain) != pick(traced) {
				t.Errorf("stats differ:\nuntraced %+v\ntraced   %+v", pick(plain), pick(traced))
			}
			if tc.w.pool > 0 && plain.Evictions == 0 {
				t.Errorf("no evictions; the check does not cover them")
			}
			for _, l := range tc.layers {
				if tr.count[l] == 0 {
					t.Errorf("layer %s recorded no spans", layerNames[l])
				}
			}
		})
	}
}

func TestHistQuantileError(t *testing.T) {
	for _, v := range []int64{0, 1, 63, 64, 65, 127, 128, 1000, 1234, 65537, 1 << 30, 123456789} {
		var h hist
		h.record(v)
		got := h.quantile(0.5)
		if v == 0 {
			if got != 0 {
				t.Errorf("quantile of {0} = %v", got)
			}
			continue
		}
		if rel := math.Abs(got-float64(v)) / float64(v); rel > 1.0/128 {
			t.Errorf("value %d reported as %v (error %.4f > 1/128)", v, got, rel)
		}
	}
	var h hist
	for v := int64(1); v <= 1000; v++ {
		h.record(v * 1000)
	}
	if p50 := h.quantile(0.5); math.Abs(p50-500000)/500000 > 1.0/128 {
		t.Errorf("p50 of 1..1000 µs = %v ns", p50)
	}
	if !h.enough(0.99) || h.enough(0.999) {
		t.Errorf("enough: 1000 samples should support p99 but not p99.9")
	}
}
