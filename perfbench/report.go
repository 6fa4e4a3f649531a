package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// writeReport runs every workload untraced and traced and writes the
// markdown report: the end-to-end metrics, the cached-versus-uncached
// speedups, and the per-layer self-time table. It returns an error if
// any call failed, after writing the report.
func writeReport(path string, seed uint64, d time.Duration, outDir string) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# perfbench report\n\n")
	fmt.Fprintf(&b, "Seed %d, %v measured per run, %d CPUs (GOMAXPROCS %d), %s/%s, %s.\n",
		seed, d, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.GOOS, runtime.GOARCH, runtime.Version())
	fmt.Fprintf(&b, "One run each; WORKLOADS.md gives the run-to-run spread.\n")
	var failed []string
	for _, w := range workloads {
		fmt.Fprintf(os.Stderr, "perfbench: report: %s\n", w.name)
		plain, err := run(w, seed, d, false, outDir)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		traced, err := run(w, seed, d, true, outDir)
		if err != nil {
			return fmt.Errorf("%s traced: %w", w.name, err)
		}
		fmt.Fprintf(&b, "\n## %s\n\n%s.\n\n", w.name, w.why)
		if !plain.correct || !traced.correct {
			fmt.Fprintf(&b, "**FAILED**: %d + %d calls failed.\n\n", plain.failed, traced.failed)
			failed = append(failed, w.name)
		}
		fmt.Fprintf(&b, "| metric | value | unit |\n|---|---:|---|\n")
		val := map[string]float64{}
		for _, m := range append(append([]metric(nil), plain.metrics...), plain.extra...) {
			val[m.name] = m.value
			fmt.Fprintf(&b, "| `%s` | %.4g | %s |\n", m.name, m.value, m.unit)
		}
		fmt.Fprintf(&b, "\nCached versus uncached (origin read p50 over hit p50):\n\n| origin_p50 / l1_hit_p50 | origin_p50 / l2_hit_p50 |\n|---:|---:|\n")
		fmt.Fprintf(&b, "| %s | %s |\n", speedup(val, "l1_hit_p50_us"), speedup(val, "l2_hit_p50_us"))

		lt := traced.layers
		mean := div(float64(lt.latency), float64(lt.calls))
		fmt.Fprintf(&b, "\nSelf time per layer, traced run (%d calls, mean %.0f ns; untraced %.0f calls/s, traced %.0f calls/s):\n\n",
			lt.calls, mean, valueOf(traced.extra, "calls_per_s.untraced"), valueOf(traced.extra, "calls_per_s.traced"))
		fmt.Fprintf(&b, "| layer | spans | ns/span | ns/call | share |\n|---|---:|---:|---:|---:|\n")
		for l := layer(0); l < nLayers; l++ {
			fmt.Fprintf(&b, "| %s | %d | %.0f | %.1f | %.1f%% |\n", layerNames[l], lt.count[l], lt.perSpan(l), lt.perCall(l), 100*div(lt.perCall(l), mean))
		}
		u := div(lt.unattributed(), float64(lt.calls))
		fmt.Fprintf(&b, "| unattributed client and core time | | | −%.1f | −%.1f%% |\n", u, 100*div(u, mean))
		fmt.Fprintf(&b, "| **coverage** | | | %.1f | %.1f%% |\n", lt.coverage()*mean, 100*lt.coverage())
		fmt.Fprintf(&b, "\nPer-layer metrics:\n\n| metric | value | unit |\n|---|---:|---|\n")
		for _, m := range traced.metrics {
			fmt.Fprintf(&b, "| `%s` | %.4g | %s |\n", m.name, m.value, m.unit)
		}
		fmt.Fprintf(&b, "\nCalls per slice and selector decisions (untraced run):\n\n```\n%s\n```\n", strings.Join(plain.notes, "\n"))
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		return err
	}
	if len(failed) > 0 {
		return fmt.Errorf("calls failed on %s; the report marks them", strings.Join(failed, ", "))
	}
	return nil
}

func speedup(val map[string]float64, hit string) string {
	o, okO := val["origin_p50_us"]
	h, okH := val[hit]
	if !okO || !okH || h == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f×", o/h)
}

func valueOf(ms []metric, name string) float64 {
	for _, m := range ms {
		if m.name == name {
			return m.value
		}
	}
	return 0
}
