package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"srccache/internal/bench"
	"srccache/internal/blockdev"
	"srccache/internal/netlink"
	"srccache/internal/primary"
	"srccache/internal/src"
	"srccache/internal/ssd"
	"srccache/internal/trace"
	"srccache/internal/vtime"
	"srccache/internal/workload"
)

// simConfig pins the paper's virtual-time stack as srcbench builds it at
// scale 16: SRC over four SATA-MLC SSDs in RAID-5, in front of an HDD
// RAID-10 behind a 1 Gbps link, replaying one synthetic MSR trace group.
type simConfig struct {
	Group         string
	Scale         int64
	SSDs          int
	SSDCapacity   int64
	EraseGroup    int64 // SSD-internal erase group and SRC segment group
	SegColumn     int64
	SSDWriteCache int64
	SlotsPerTrace int
	PrimaryDisks  int
	PrimaryChunk  int64
	// Requests is one trial: a replay from an empty cache, srcbench's
	// per-cell budget. Trials repeat until the window has passed; the
	// first VtimeTrials of them give the model's outputs.
	Requests    int64
	VtimeTrials int
}

func simWriteConfig(short bool) simConfig {
	c := simConfig{
		Group: "Write", Scale: 16, SSDs: 4,
		SSDCapacity: 4 << 30 / 16, EraseGroup: 256 << 20 / 16, SegColumn: 512 << 10 / 4,
		SSDWriteCache: 64 << 20 / 16, SlotsPerTrace: 4, PrimaryDisks: 8, PrimaryChunk: 64 << 10,
		Requests: 200_000, VtimeTrials: 8,
	}
	if short {
		c.Requests = 3000
	}
	return c
}

func (c simConfig) record(span int64) map[string]any {
	return map[string]any{
		"trace_group":     c.Group,
		"scale":           c.Scale,
		"ssds":            c.SSDs,
		"ssd_model":       "SATA MLC",
		"ssd_capacity":    c.SSDCapacity,
		"cache_bytes":     int64(c.SSDs-1) * c.SSDCapacity,
		"erase_group":     c.EraseGroup,
		"segment_column":  c.SegColumn,
		"ssd_write_cache": c.SSDWriteCache,
		"raid":            "RAID-5, Sel-GC, FIFO victims, U_MAX 0.90, NPC, flush per segment group",
		"primary":         fmt.Sprintf("HDD RAID-10 of %d disks, 1 Gbps link", c.PrimaryDisks),
		"span_bytes":      span,
		"slots_per_trace": c.SlotsPerTrace,
		"trial_requests":  c.Requests,
		"vtime_trials":    c.VtimeTrials,
		"cache_start":     "empty, as in srcbench",
		"clients":         1,
		"loop":            "closed, virtual time, bench.Run slots",
		"request_bytes":   "trace-defined (synthetic MSR sizes)",
	}
}

// ssdConfig is ssd.SATAMLCConfig with every geometry field pinned.
func (c simConfig) ssdConfig(i int) ssd.Config {
	cfg := ssd.SATAMLCConfig(fmt.Sprintf("ssd%d", i), c.SSDCapacity)
	cfg.EraseGroupSize = c.EraseGroup
	cfg.WriteCacheBytes = c.SSDWriteCache
	cfg.SpareFactor = 0.07
	cfg.PagesPerBlock = 256
	cfg.Parallelism = 16
	cfg.LogGranules = 8
	return cfg
}

// sources builds the trace group's synthetic streams side by side in the
// primary address space and reports the span they cover.
func (c simConfig) sources(seed int64) ([]workload.Source, int64, error) {
	specs, err := trace.Group(c.Group)
	if err != nil {
		return nil, 0, err
	}
	var out []workload.Source
	var off int64
	for _, spec := range specs {
		s, err := trace.NewSynth(trace.SynthConfig{Spec: spec, Scale: 1 / float64(c.Scale), Offset: off, Seed: seed})
		if err != nil {
			return nil, 0, err
		}
		off += s.Span()
		out = append(out, s)
	}
	return out, off, nil
}

// simStack is one constructed virtual-time stack.
type simStack struct {
	cache   *timedCache
	ssds    []*ssd.SSD
	primary *primary.Storage
	sources []workload.Source
}

func buildSim(c simConfig, seed int64, st *simTrace) (*simStack, error) {
	s := &simStack{}
	var span int64
	var err error
	if s.sources, span, err = c.sources(seed); err != nil {
		return nil, err
	}
	devs := make([]blockdev.Device, c.SSDs)
	for i := range devs {
		d, err := ssd.New(c.ssdConfig(i))
		if err != nil {
			return nil, err
		}
		s.ssds = append(s.ssds, d)
		devs[i] = d
	}
	perDisk := span/int64(c.PrimaryDisks/2) + 64<<20
	perDisk -= perDisk % c.PrimaryChunk
	s.primary, err = primary.New(primary.Config{
		Disks: c.PrimaryDisks, DiskCapacity: perDisk, ChunkSize: c.PrimaryChunk,
		Link: netlink.Config{Bandwidth: 125e6, RTT: 200 * vtime.Microsecond},
	})
	if err != nil {
		return nil, err
	}
	var prim blockdev.Device = s.primary
	if st != nil {
		for i := range devs {
			devs[i] = &tracedDevice{Device: devs[i], st: st, kind: kSSD}
		}
		prim = &tracedDevice{Device: prim, st: st, kind: kPrimary}
		for i := range s.sources {
			s.sources[i] = &tracedSource{Source: s.sources[i], st: st}
		}
	}
	cache, err := src.New(src.Config{
		SSDs: devs, Primary: prim,
		CachePerSSD: c.SSDCapacity, EraseGroupSize: c.EraseGroup, SegmentColumn: c.SegColumn,
		GC: src.SelGC, Victim: src.FIFO, UMax: 0.90, Parity: src.NPC, Level: src.RAID5,
		Flush: src.FlushPerSegmentGroup,
	})
	if err != nil {
		return nil, err
	}
	s.cache = &timedCache{Cache: cache, st: st,
		reads: make([]int64, 0, c.Requests), writes: make([]int64, 0, c.Requests)}
	return s, nil
}

// simSnap is the stack's cumulative accounting at one instant.
type simSnap struct {
	cnt          bench.Counters
	ssdWritten   []int64 // host bytes written to each SSD
	programmed   []int64 // flash pages programmed in each SSD
	gcCopies     int64
	primaryBytes int64
}

func (s *simStack) snap() simSnap {
	out := simSnap{cnt: s.cache.Counters(), primaryBytes: s.primary.Stats().TotalBytes()}
	for _, d := range s.ssds {
		out.ssdWritten = append(out.ssdWritten, d.Stats().WriteBytes)
		out.programmed = append(out.programmed, d.FlashStats().PagesProgrammed)
		out.gcCopies += d.GCPageCopies()
	}
	return out
}

// ftlWAF is the mean over SSDs of flash pages programmed per host page
// written between two snapshots.
func ftlWAF(a, b simSnap) float64 {
	var sum float64
	var n int
	for i := range a.ssdWritten {
		host := (b.ssdWritten[i] - a.ssdWritten[i]) / blockdev.PageSize
		if host > 0 {
			sum += float64(b.programmed[i]-a.programmed[i]) / float64(host)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// vtimeResult is the model's output for the measured batch.
type vtimeResult struct{ mbps, hitRatio, waf float64 }

func vtimeOf(res *bench.Result, a, b simSnap) vtimeResult {
	var written int64
	for i := range a.ssdWritten {
		written += b.ssdWritten[i] - a.ssdWritten[i]
	}
	reads, hits := b.cnt.Reads-a.cnt.Reads, b.cnt.ReadHits-a.cnt.ReadHits
	return vtimeResult{
		mbps:     res.MBps(),
		hitRatio: ratio(hits, reads),
		waf:      ratio(written, res.WriteBytes) * ftlWAF(a, b),
	}
}

// simTrial is one construction of the stack and one timed replay of
// Requests from an empty cache, as one srcbench cell runs it.
type simTrial struct {
	setup    time.Duration
	elapsed  time.Duration
	res      *bench.Result
	requests int64
	hostB    int64
	reads    int64 // requests timed, by op
	writes   int64
	readP50  float64 // median wall time of Cache.Submit, microseconds
	writeP50 float64
	vt       vtimeResult
	before   simSnap
	after    simSnap
	meanWear float64
}

func runSimTrial(c simConfig, seed int64, st *simTrace, mem *memWindow) (*simTrial, error) {
	t := &simTrial{}
	// Collect the previous trial's stack first, so that construction is
	// timed on a quiet heap.
	runtime.GC()
	start := time.Now()
	s, err := buildSim(c, seed, st)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	t.setup = time.Since(start)

	t.before = s.snap()
	s.cache.timed = true
	if st != nil {
		st.tr.on.Store(true)
	}
	mem.start()
	begin := time.Now()
	res, err := bench.Run(s.cache, s.sources, bench.Options{SlotsPerSource: c.SlotsPerTrace, MaxRequests: c.Requests})
	t.elapsed = time.Since(begin)
	mem.stop()
	if st != nil {
		st.tr.on.Store(false)
	}
	if err != nil {
		return nil, err
	}
	t.after = s.snap()
	t.vt = vtimeOf(res, t.before, t.after)
	t.res, t.requests, t.hostB = res, res.Requests, res.Bytes
	t.reads, t.writes = int64(len(s.cache.reads)), int64(len(s.cache.writes))
	t.readP50, t.writeP50 = percentileUs(s.cache.reads, 0.50), percentileUs(s.cache.writes, 0.50)
	for _, d := range s.ssds {
		t.meanWear += d.MeanEraseCount() / float64(len(s.ssds))
	}
	return t, nil
}

// simTrials replays trials until window has passed and at least
// c.VtimeTrials have run. Trial i always replays trialSeed(seed, i), so
// the first c.VtimeTrials trials, and the model's outputs over them,
// depend on the seed alone.
func simTrials(ctx context.Context, c simConfig, seed int64, window time.Duration, st *simTrace, mem *memWindow) ([]*simTrial, error) {
	var trials []*simTrial
	var spent time.Duration
	for i := 0; i < c.VtimeTrials || spent < window; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t, err := runSimTrial(c, trialSeed(seed, i), st, mem)
		if err != nil {
			return nil, err
		}
		trials = append(trials, t)
		spent += t.elapsed
	}
	return trials, nil
}

// checkTrial counts what a trial's accounting gets wrong: the cache must
// have seen exactly the requests and bytes bench.Run issued.
func checkTrial(t *simTrial) int64 {
	readB := t.after.cnt.ReadBytes - t.before.cnt.ReadBytes
	writeB := t.after.cnt.WriteBytes - t.before.cnt.WriteBytes
	if readB != t.res.ReadBytes || writeB != t.res.WriteBytes || t.reads+t.writes != t.res.Requests {
		return 1
	}
	return 0
}

// pooledVtime is the model's output over the first n trials: total host
// bytes over total virtual time, and hit ratio and write amplification
// over all of their traffic.
func pooledVtime(trials []*simTrial, n int) vtimeResult {
	var bytes, reads, hits, hostW int64
	var vsec, wafBytes float64
	for _, t := range trials[:n] {
		bytes += t.hostB
		vsec += float64(t.hostB) / t.vt.mbps
		reads += t.after.cnt.Reads - t.before.cnt.Reads
		hits += t.after.cnt.ReadHits - t.before.cnt.ReadHits
		w := t.after.cnt.WriteBytes - t.before.cnt.WriteBytes
		hostW += w
		wafBytes += t.vt.waf * float64(w)
	}
	return vtimeResult{mbps: float64(bytes) / vsec, hitRatio: ratio(hits, reads), waf: wafBytes / float64(hostW)}
}

func runSimWrite(ctx context.Context, p params) (*outcome, error) {
	c := simWriteConfig(p.Short)
	_, span, err := c.sources(trialSeed(p.Seed, 0))
	if err != nil {
		return nil, err
	}
	out := &outcome{config: c.record(span)}
	if !p.Trace {
		var mem memWindow
		trials, err := simTrials(ctx, c, p.Seed, p.Window, nil, &mem)
		if err != nil {
			return nil, err
		}
		for _, t := range trials {
			out.attempted += t.requests
			out.failed += checkTrial(t)
		}
		simEndToEnd(out, c, trials)
		return out, finish(out, false)
	}
	var plainMem, tracedMem memWindow
	plain, err := simTrials(ctx, c, p.Seed, p.Window/2, nil, &plainMem)
	if err != nil {
		return nil, err
	}
	st := &simTrace{tr: newTracer(1), cur: -1}
	traced, err := runSimTrial(c, trialSeed(p.Seed, 0), st, &tracedMem)
	if err != nil {
		return nil, err
	}
	for _, t := range append(plain, traced) {
		out.attempted += t.requests
		out.failed += checkTrial(t)
	}
	// The traced trial replays the first plain trial's seed: tracing must
	// not change a single output of the model.
	if traced.vt != plain[0].vt {
		out.failed++
	}
	simLayers(out, plain, &plainMem, traced, st)
	if err := st.tr.dump(filepath.Join(p.OutDir, "spans-"+p.Workload+".tsv")); err != nil {
		return nil, err
	}
	return out, finish(out, true)
}

// simEndToEnd reports medians over trials of the wall-clock figures and
// the model's outputs pooled over the seed-determined trials.
func simEndToEnd(out *outcome, c simConfig, trials []*simTrial) {
	var tput, readP50, writeP50, setups []float64
	for _, t := range trials {
		tput = append(tput, float64(t.requests)/t.elapsed.Seconds())
		readP50 = append(readP50, t.readP50)
		writeP50 = append(writeP50, t.writeP50)
		setups = append(setups, t.setup.Seconds())
	}
	vt := pooledVtime(trials, c.VtimeTrials)
	out.set("throughput_ops", "1/s", median(tput))
	out.set("read_p50_us", "us", median(readP50))
	out.set("write_p50_us", "us", median(writeP50))
	out.set("setup_s", "s", median(setups))
	out.set("mem_sys_mb", "MB", memSysMB())
	out.set("vtime_mbps", "MB/s", vt.mbps)
	out.set("vtime_hit_ratio", "ratio", vt.hitRatio)
	out.set("vtime_waf", "ratio", vt.waf)
}

func simLayers(out *outcome, plain []*simTrial, plainMem *memWindow, traced *simTrial, st *simTrace) {
	var requests int64
	var elapsed time.Duration
	for _, t := range plain {
		requests += t.requests
		elapsed += t.elapsed
	}
	plainMem.report(out, requests)
	out.set("trace.overhead_frac", "ratio", 1-(float64(traced.requests)/traced.elapsed.Seconds())/(float64(requests)/elapsed.Seconds()))
	out.set("trace.spans", "count", float64(st.tr.spans()))
	out.set("trace.unpaired_spans", "count", float64(st.orphans+st.tr.dropped.Load()))

	out.set("src.submit_wall_us.mean", "us", meanUs(st.srcNs, st.srcN))
	out.set("src.self_wall_us.mean", "us", meanUs(st.srcNs-st.childNs, st.srcN))
	out.set("ssd.submit_wall_us.mean", "us", meanUs(st.devNs[kSSD], st.devN[kSSD]))
	out.set("ssd.ops", "count", float64(st.devN[kSSD]))
	out.set("primary.submit_wall_us.mean", "us", meanUs(st.devNs[kPrimary], st.devN[kPrimary]))
	out.set("primary.ops", "count", float64(st.devN[kPrimary]))
	out.set("workload.next_us.mean", "us", meanUs(st.nextNs, st.nextN))

	out.set("ssd.vtime_busy_share", "ratio", ratio(st.ssdV, st.latV))
	out.set("primary.vtime_busy_share", "ratio", ratio(st.primV, st.latV))
	out.set("src.vtime_logic_share", "ratio", ratio(st.latV-st.ssdV-st.primV, st.latV))

	a, b := traced.before, traced.after
	out.set("ssd.ftl_waf", "ratio", ftlWAF(a, b))
	out.set("ssd.gc_page_copies", "count", float64(b.gcCopies-a.gcCopies))
	out.set("ssd.mean_erase_count", "count", traced.meanWear)
	out.set("primary.bytes_per_host_byte", "ratio", ratio(b.primaryBytes-a.primaryBytes, traced.hostB))
	srcCounterLayers(out, subCounters(b.cnt, a.cnt))
}

// timedCache is the bench.Cache the benchmark hands bench.Run: it times
// every request on its own while timed, and traces it when st is set.
type timedCache struct {
	*src.Cache
	st            *simTrace
	timed         bool
	reads, writes []int64
}

func (c *timedCache) Submit(at vtime.Time, req blockdev.Request) (vtime.Time, error) {
	if !c.timed {
		return c.Cache.Submit(at, req)
	}
	if c.st != nil {
		c.st.begin(at)
	}
	t0 := time.Now()
	done, err := c.Cache.Submit(at, req)
	d := int64(time.Since(t0))
	if req.Op == blockdev.OpRead {
		c.reads = append(c.reads, d)
	} else {
		c.writes = append(c.writes, d)
	}
	if c.st != nil {
		c.st.end(t0, d, done, req.Op == blockdev.OpWrite)
	}
	return done, err
}

// simTrace follows sim-write's single goroutine: one request is open at a
// time, device calls are its children, and each request's virtual latency
// is split among primary storage, the SSDs and cache logic.
type simTrace struct {
	tr  *tracer
	cur int32 // the open src.submit span, -1 between requests
	req int64
	at  int64 // the open request's virtual arrival
	ivs []vinterval

	srcN, srcNs, childNs int64
	devN, devNs          [kNext + 1]int64
	nextN, nextNs        int64
	orphans              int64
	latV, ssdV, primV    int64 // summed virtual ns
}

// vinterval is one device call's virtual service interval.
type vinterval struct {
	a, b    int64
	primary bool
}

func (s *simTrace) begin(at vtime.Time) {
	if !s.tr.on.Load() {
		return
	}
	s.req++
	s.at = int64(at)
	s.ivs = s.ivs[:0]
	s.cur = s.tr.record(0, span{start: s.tr.now(), off: -1, req: s.req, parent: -1, kind: kSrc})
}

func (s *simTrace) end(t0 time.Time, wall int64, done vtime.Time, write bool) {
	if !s.tr.on.Load() {
		return
	}
	if s.cur >= 0 {
		sp := &s.tr.bufs[0].spans[s.cur]
		sp.end = int64(t0.Sub(s.tr.epoch)) + wall
		sp.write = write
	}
	s.cur = -1
	s.srcN++
	s.srcNs += wall
	lat := int64(done) - s.at
	s.latV += lat
	if lat > 0 {
		all := unionLen(s.ivs, s.at, int64(done), false)
		prim := unionLen(s.ivs, s.at, int64(done), true)
		s.primV += prim
		s.ssdV += all - prim
	}
}

// unionLen is the length of the union of ivs (only primary ones when
// onlyPrimary) clipped to [lo, hi].
func unionLen(ivs []vinterval, lo, hi int64, onlyPrimary bool) int64 {
	var clipped []vinterval
	for _, v := range ivs {
		if onlyPrimary && !v.primary {
			continue
		}
		a, b := max(v.a, lo), min(v.b, hi)
		if b > a {
			clipped = append(clipped, vinterval{a: a, b: b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].a < clipped[j].a })
	var total, curA, curB int64
	for i, v := range clipped {
		if i == 0 || v.a > curB {
			total += curB - curA
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	return total + curB - curA
}

func (s *simTrace) device(kind spanKind, start, end int64, at, done vtime.Time, write bool) {
	s.devN[kind]++
	s.devNs[kind] += end - start
	if s.cur < 0 {
		s.orphans++
		return
	}
	s.childNs += end - start
	s.ivs = append(s.ivs, vinterval{a: int64(at), b: int64(done), primary: kind == kPrimary})
	s.tr.record(0, span{start: start, end: end, off: -1, req: s.req, parent: s.cur, kind: kind, write: write})
}

// tracedDevice times each call into an SSD or the primary storage.
type tracedDevice struct {
	blockdev.Device
	st   *simTrace
	kind spanKind
}

func (d *tracedDevice) Submit(at vtime.Time, req blockdev.Request) (vtime.Time, error) {
	if !d.st.tr.on.Load() {
		return d.Device.Submit(at, req)
	}
	t0 := d.st.tr.now()
	done, err := d.Device.Submit(at, req)
	d.st.device(d.kind, t0, d.st.tr.now(), at, done, req.Op == blockdev.OpWrite)
	return done, err
}

func (d *tracedDevice) Flush(at vtime.Time) (vtime.Time, error) {
	if !d.st.tr.on.Load() {
		return d.Device.Flush(at)
	}
	t0 := d.st.tr.now()
	done, err := d.Device.Flush(at)
	d.st.device(d.kind, t0, d.st.tr.now(), at, done, true)
	return done, err
}

// tracedSource times the workload generator inside bench.Run's loop.
type tracedSource struct {
	workload.Source
	st *simTrace
}

func (s *tracedSource) Next() (blockdev.Request, bool) {
	if !s.st.tr.on.Load() {
		return s.Source.Next()
	}
	t0 := s.st.tr.now()
	req, ok := s.Source.Next()
	t1 := s.st.tr.now()
	s.st.nextN++
	s.st.nextNs += t1 - t0
	s.st.tr.record(0, span{start: t0, end: t1, off: req.Off, req: s.st.req + 1, parent: -1, kind: kNext, write: req.Op == blockdev.OpWrite})
	return req, ok
}
