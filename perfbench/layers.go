package main

import (
	"fmt"
	"io"
)

// layerTable is the traced run's per-layer breakdown: the tracers of
// every process of every stack summed, plus the load loop's own view of
// the same calls.
type layerTable struct {
	self, incl, count [nLayers]int64

	catchNS, catchCalls [nClasses]int64

	getHits, getHitNS, getMisses, getMissNS int64
	storeCalls, storeBytes                  int64
	respBytes, sendErrors                   int64

	calls   int64
	latency int64 // sum of the call latencies the load loop measured
}

// add sums one stack's tracers and the load loop's counters for them.
func (lt *layerTable) add(tracers []*tracer, loop *clientStats) {
	lt.calls += loop.calls
	lt.latency += loop.busyNS
	for _, t := range tracers {
		for l := layer(0); l < nLayers; l++ {
			lt.self[l] += t.self[l]
			lt.incl[l] += t.incl[l]
			lt.count[l] += t.count[l]
		}
		for c := class(0); c < nClasses; c++ {
			lt.catchNS[c] += t.catchNS[c]
			lt.catchCalls[c] += t.catchCalls[c]
		}
		lt.getHits += t.getHits
		lt.getHitNS += t.getHitNS
		lt.getMisses += t.getMisses
		lt.getMissNS += t.getMissNS
		lt.storeCalls += t.storeCalls
		lt.storeBytes += t.storeBytes
		lt.respBytes += t.respBytes
		lt.sendErrors += t.sendErrors
	}
}

// perCall is a layer's self time averaged over every call, the unit in
// which the layers add up to the call latency.
func (lt *layerTable) perCall(l layer) float64 {
	return div(float64(lt.self[l]), float64(lt.calls))
}

// perSpan is a layer's self time per span of that layer.
func (lt *layerTable) perSpan(l layer) float64 {
	return div(float64(lt.self[l]), float64(lt.count[l]))
}

// minCoverage is the share of the call the layer spans must account
// for; below it, a layer is unmeasured.
const minCoverage = 0.9

// unattributed is the client and core self time the spans cannot vouch
// for, summed over all calls. Their self time is whatever their spans
// do not hand to a child, so it would absorb any layer below them that
// lost its wrapper. On an L1 hit they run only their own code around
// the wrapped key generation and copy-out, so they are credited at the
// rate an L1 hit pays; what L2, origin and write calls spend in them
// above that rate is unattributed. That includes core's own miss-path
// work (insert, eviction, promotion), so the figure is an upper bound.
func (lt *layerTable) unattributed() float64 {
	base := div(float64(lt.catchNS[classL1]), float64(lt.catchCalls[classL1]))
	var u float64
	for c := classL2; c < nClasses; c++ {
		u += max(0, float64(lt.catchNS[c])-base*float64(lt.catchCalls[c]))
	}
	return u
}

// coverage is the share of the loop-measured latency that the layer
// spans account for: the layers' self times less the unattributed
// client and core time. The rest is that time and the loop's clock
// reads around the root span.
func (lt *layerTable) coverage() float64 {
	var sum int64
	for _, s := range lt.self {
		sum += s
	}
	return div(float64(sum)-lt.unattributed(), float64(lt.latency))
}

// metrics are the per-layer metrics. A layer the workload never enters
// reports 0.
func (lt *layerTable) metrics() []metric {
	netCount := lt.count[lTierGet] + lt.count[lTierPut] + lt.count[lTierBump]
	netSelf := lt.self[lTierGet] + lt.self[lTierPut] + lt.self[lTierBump]
	ms := []metric{
		{"client.self_ns", lt.perCall(lClient), "ns"},
		{"core.self_ns", lt.perSpan(lCore), "ns"},
		{"rep.keygen_ns", lt.perSpan(lKeygen), "ns"},
		{"rep.load_ns", lt.perSpan(lLoad), "ns"},
		{"rep.store_ns", div(float64(lt.self[lStore]), float64(lt.storeCalls)), "ns"},
		{"rep.store_bytes", div(float64(lt.storeBytes), float64(lt.storeCalls)), "B"},
		{"rep.wire_decode_ns", lt.perSpan(lWireDecode), "ns"},
		{"tier.get_hit_ns", div(float64(lt.getHitNS), float64(lt.getHits)), "ns"},
		{"tier.get_miss_ns", div(float64(lt.getMissNS), float64(lt.getMisses)), "ns"},
		{"tier.put_ns", div(float64(lt.incl[lTierPut]), float64(lt.count[lTierPut])), "ns"},
		{"tier.bump_ns", div(float64(lt.incl[lTierBump]), float64(lt.count[lTierBump])), "ns"},
		{"cluster.serve_ns", lt.perSpan(lServe), "ns"},
		{"cluster.net_ns", div(float64(netSelf), float64(netCount)), "ns"},
		{"soap.codec_ns", lt.perSpan(lCodec), "ns"},
		{"transport.send_ns", div(float64(lt.incl[lSend]), float64(lt.count[lSend])), "ns"},
		{"transport.resp_bytes", div(float64(lt.respBytes), float64(lt.count[lSend])), "B"},
		{"transport.errors", float64(lt.sendErrors), "count"},
		{"server.serve_ns", lt.perSpan(lOrigin), "ns"},
	}
	for l := layer(0); l < nLayers; l++ {
		ms = append(ms, metric{"percall." + layerNames[l] + "_ns", lt.perCall(l), "ns"})
	}
	return ms
}

// print writes the self-time table.
func (lt *layerTable) print(w io.Writer) {
	mean := div(float64(lt.latency), float64(lt.calls))
	fmt.Fprintf(w, "self time per layer over %d traced calls (mean call %.0f ns):\n", lt.calls, mean)
	fmt.Fprintf(w, "  %-16s %12s %12s %12s %7s\n", "layer", "spans", "ns/span", "ns/call", "share")
	for l := layer(0); l < nLayers; l++ {
		fmt.Fprintf(w, "  %-16s %12d %12.0f %12.1f %6.1f%%\n", layerNames[l], lt.count[l],
			lt.perSpan(l), lt.perCall(l), 100*div(lt.perCall(l), mean))
	}
	u := div(lt.unattributed(), float64(lt.calls))
	fmt.Fprintf(w, "  %-16s %12s %12s %12.1f %6.1f%%\n", "unattributed", "", "", -u, -100*div(u, mean))
	fmt.Fprintf(w, "  %-16s %12s %12s %12.1f %6.1f%%\n", "coverage", "", "", lt.coverage()*mean, 100*lt.coverage())
}
