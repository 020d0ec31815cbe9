package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees; every workload reports all
// of them, measured with tracing off. README.md defines each one per
// workload.
var endToEnd = []metricDef{
	{"throughput_ops", "1/s"},
	{"read_p50_us", "us"},
	{"write_p50_us", "us"},
	{"setup_s", "s"},
	{"mem_sys_mb", "MB"},
	{"vtime_mbps", "MB/s"},
	{"vtime_hit_ratio", "ratio"},
	{"vtime_waf", "ratio"},
}

// perLayer is the split a traced run reports, named after the modules.
// A layer a workload does not cross reads 0.
var perLayer = []metricDef{
	{"netblock.rtt_us.p50", "us"},
	{"netblock.rtt_us.p99", "us"},
	{"netblock.backend_us.p50", "us"},
	{"netblock.backend_us.p99", "us"},
	{"netblock.overhead_us.mean", "us"},
	{"netblock.server_ops", "count"},
	{"netblock.server_errors", "count"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"engine.call_us.p50", "us"},
	{"engine.call_us.p99", "us"},
	{"engine.hit_ratio", "ratio"},
	{"engine.fill_per_op_bytes", "B"},
	{"engine.destage_per_write_byte", "ratio"},
	{"engine.gc_copy_per_write_byte", "ratio"},
	{"engine.ssd_flushes", "count"},
	{"fleet.op_us.p50", "us"},
	{"fleet.op_us.p99", "us"},
	{"fleet.chain_us.p50", "us"},
	{"fleet.local_us.p50", "us"},
	{"fleet.forward_us.mean", "us"},
	{"fleet.forwards_ok", "count"},
	{"fleet.forwards_failed", "count"},
	{"fleet.failovers", "count"},
	{"fleet.refetches", "count"},
	{"src.submit_wall_us.mean", "us"},
	{"src.self_wall_us.mean", "us"},
	{"src.vtime_logic_share", "ratio"},
	{"src.destage_per_write_byte", "ratio"},
	{"src.gc_copy_per_write_byte", "ratio"},
	{"src.metadata_per_write_byte", "ratio"},
	{"src.parity_per_write_byte", "ratio"},
	{"src.ssd_flushes", "count"},
	{"ssd.submit_wall_us.mean", "us"},
	{"ssd.ops", "count"},
	{"ssd.vtime_busy_share", "ratio"},
	{"ssd.ftl_waf", "ratio"},
	{"ssd.gc_page_copies", "count"},
	{"ssd.mean_erase_count", "count"},
	{"primary.submit_wall_us.mean", "us"},
	{"primary.ops", "count"},
	{"primary.vtime_busy_share", "ratio"},
	{"primary.bytes_per_host_byte", "ratio"},
	{"workload.next_us.mean", "us"},
	{"trace.overhead_frac", "ratio"},
	{"trace.spans", "count"},
	{"trace.unpaired_spans", "count"},
}

// finish checks that a runner produced exactly the metric set its mode
// promises: every end-to-end metric when untraced, and the per-layer set
// when traced, where layers the workload does not cross read 0.
func finish(o *outcome, traced bool) error {
	want := endToEnd
	if traced {
		want = perLayer
	}
	names := make(map[string]string, len(want))
	for _, d := range want {
		names[d.name] = d.unit
		if _, ok := o.metrics[d.name]; !ok {
			if !traced {
				return fmt.Errorf("end-to-end metric %s was not measured", d.name)
			}
			o.set(d.name, d.unit, 0)
		}
	}
	for name, m := range o.metrics {
		unit, ok := names[name]
		if !ok {
			return fmt.Errorf("metric %s does not belong to this mode", name)
		}
		if m.Unit != unit {
			return fmt.Errorf("metric %s has unit %s, want %s", name, m.Unit, unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	return nil
}

// percentileUs reports the q-quantile (nearest rank) of ns samples in
// microseconds. It sorts xs in place.
func percentileUs(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(xs[i]) / 1e3
}

// meanUs reports sum/n nanoseconds in microseconds, 0 when n is 0.
func meanUs(sumNs, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(sumNs) / float64(n) / 1e3
}

// ratio reports a/b, 0 when b is 0.
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// median reports the median of xs, sorting it in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// memWindow sums the Go runtime's allocation and GC counters over timed
// windows. Reading them stops the world, so it happens only at the
// windows' edges.
type memWindow struct {
	at                           runtime.MemStats
	mallocs, bytes, gcs, pauseNs uint64
}

func (m *memWindow) start() { runtime.ReadMemStats(&m.at) }

func (m *memWindow) stop() {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	m.mallocs += now.Mallocs - m.at.Mallocs
	m.bytes += now.TotalAlloc - m.at.TotalAlloc
	m.gcs += uint64(now.NumGC - m.at.NumGC)
	m.pauseNs += now.PauseTotalNs - m.at.PauseTotalNs
}

// report sets the runtime.* per-layer metrics for ops operations.
func (m *memWindow) report(o *outcome, ops int64) {
	o.set("runtime.allocs_per_op", "count", ratio(int64(m.mallocs), ops))
	o.set("runtime.alloc_bytes_per_op", "B", ratio(int64(m.bytes), ops))
	o.set("runtime.gc_cycles", "count", float64(m.gcs))
	o.set("runtime.gc_pause_ms", "ms", float64(m.pauseNs)/1e6)
}

// memSysMB reports the memory the Go runtime has obtained from the OS.
func memSysMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / 1e6
}
