package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"srccache/internal/bench"
	"srccache/internal/blockdev"
	"srccache/internal/cluster"
	"srccache/internal/cluster/fleet"
	"srccache/internal/engine"
	"srccache/internal/netblock"
	"srccache/internal/src"
	"srccache/internal/vtime"
	"srccache/internal/workload"
)

// servedConfig pins every size of a served workload. Nothing is left to a
// package default, so a later change to a default cannot silently change
// what is measured.
type servedConfig struct {
	Volume      int64   // bytes the clients address
	Nodes       int     // netblock servers; more than one forms a fleet
	Replicas    int     // fleet replication (chain length)
	RangeBytes  int64   // fleet placement unit
	Shards      int     // engine shards per node
	StripePages int64   // engine routing stripe
	SSDs        int     // cache devices per shard (RAID-5)
	CachePerSSD int64   // cache region per device
	EraseGroup  int64   // SRC erase group (segment group) size
	SegColumn   int64   // SRC segment column
	DevLatency  int64   // per-op virtual latency of the shard devices, ns
	ReadFrac    float64 // share of requests that are reads
	Theta       float64 // Zipf skew of page popularity
	Clients     int     // closed-loop clients, one request in flight each
	FillChunk   int64   // request size of the set-up fill and read-back
	WarmOps     int     // untimed Zipf requests per client before timing
	Trials      int     // set-ups per untraced run
}

// cacheBytes is the total cache data capacity: RAID-5 keeps one device's
// worth of every stripe for parity.
func (c servedConfig) cacheBytes() int64 {
	perNode := int64(c.Shards) * int64(c.SSDs-1) * c.CachePerSSD
	return perNode * int64(c.Nodes)
}

func (c servedConfig) record() map[string]any {
	return map[string]any{
		"volume_bytes":     c.Volume,
		"nodes":            c.Nodes,
		"replicas":         c.Replicas,
		"range_bytes":      c.RangeBytes,
		"shards_per_node":  c.Shards,
		"stripe_pages":     c.StripePages,
		"ssds_per_shard":   c.SSDs,
		"cache_per_ssd":    c.CachePerSSD,
		"cache_data_bytes": c.cacheBytes(),
		"erase_group":      c.EraseGroup,
		"segment_column":   c.SegColumn,
		"device_latency":   c.DevLatency,
		"request_bytes":    blockSize,
		"read_frac":        c.ReadFrac,
		"theta":            c.Theta,
		"clients":          c.Clients,
		"loop":             "closed, one request in flight per client",
		"warm_ops":         c.WarmOps,
		"trials":           c.Trials,
	}
}

// servedZipfConfig is netblockd -shards 2: a 256 MiB volume over two
// payload engine shards with about 96 MiB of cache data, read-mostly Zipf
// traffic whose working set exceeds the cache.
func servedZipfConfig(short bool) servedConfig {
	c := servedConfig{
		Volume: 256 << 20, Nodes: 1, Shards: 2, StripePages: 256,
		SSDs: 4, CachePerSSD: 16 << 20, EraseGroup: 4 << 20, SegColumn: 64 << 10,
		DevLatency: 100_000, ReadFrac: 0.7, Theta: 0.99, Clients: 2,
		FillChunk: 64 << 10, WarmOps: 20000, Trials: 4,
	}
	if short {
		c.Volume, c.CachePerSSD, c.EraseGroup, c.WarmOps = 8<<20, 4<<20, 1<<20, 500
	}
	return c
}

// fleetWriteConfig is two fleet nodes with 2-way chain replication over
// 1 MiB ranges, each node a one-shard payload engine, driven write-mostly.
func fleetWriteConfig(short bool) servedConfig {
	c := servedConfig{
		Volume: 128 << 20, Nodes: 2, Replicas: 2, RangeBytes: 1 << 20, Shards: 1, StripePages: 256,
		SSDs: 4, CachePerSSD: 16 << 20, EraseGroup: 4 << 20, SegColumn: 64 << 10,
		DevLatency: 100_000, ReadFrac: 0.3, Theta: 0.99, Clients: 2,
		FillChunk: 64 << 10, WarmOps: 10000, Trials: 4,
	}
	if short {
		c.Volume, c.CachePerSSD, c.EraseGroup, c.WarmOps = 8<<20, 4<<20, 1<<20, 500
	}
	return c
}

func runServedZipf(ctx context.Context, p params) (*outcome, error) {
	return runServed(ctx, p, servedZipfConfig(p.Short), nil)
}

func runFleetWrite(ctx context.Context, p params) (*outcome, error) {
	return runServed(ctx, p, fleetWriteConfig(p.Short), nil)
}

// volume is what a load client drives: a netblock.Client or a fleet.Fleet.
type volume interface {
	ReadAt(p []byte, off int64) error
	WriteAt(p []byte, off int64) error
}

type clientVolume struct{ c *netblock.Client }

func (v clientVolume) ReadAt(p []byte, off int64) error  { _, err := v.c.ReadAt(p, off); return err }
func (v clientVolume) WriteAt(p []byte, off int64) error { _, err := v.c.WriteAt(p, off); return err }

// clientOptions bound every call, so a dead peer fails a request instead
// of hanging the run.
var clientOptions = netblock.ClientOptions{DialTimeout: 2 * time.Second, Timeout: 10 * time.Second}

// devClock follows one engine shard's virtual time and cache-device write
// traffic from the devices the benchmark hands the shard. Only the shard's
// worker writes it; the benchmark reads it between windows.
type devClock struct {
	last       atomic.Int64 // latest device completion, virtual ns
	ssdWritten atomic.Int64 // bytes written to the cache devices
}

type clockedDevice struct {
	blockdev.Device
	clk *devClock
	ssd bool
}

func (d *clockedDevice) advance(done vtime.Time) {
	if int64(done) > d.clk.last.Load() {
		d.clk.last.Store(int64(done))
	}
}

func (d *clockedDevice) Submit(at vtime.Time, req blockdev.Request) (vtime.Time, error) {
	done, err := d.Device.Submit(at, req)
	d.advance(done)
	if d.ssd && req.Op == blockdev.OpWrite {
		d.clk.ssdWritten.Add(req.Len)
	}
	return done, err
}

func (d *clockedDevice) Flush(at vtime.Time) (vtime.Time, error) {
	done, err := d.Device.Flush(at)
	d.advance(done)
	return done, err
}

// tracedBackend records a span around every read and write into next,
// attributed to the client owning the addressed page.
type tracedBackend struct {
	netblock.Backend
	tr      *tracer
	kind    spanKind
	clients int
}

func (b *tracedBackend) call(p []byte, off int64, write bool) error {
	if !b.tr.on.Load() {
		if write {
			return b.Backend.WriteAt(p, off)
		}
		return b.Backend.ReadAt(p, off)
	}
	start := b.tr.now()
	var err error
	if write {
		err = b.Backend.WriteAt(p, off)
	} else {
		err = b.Backend.ReadAt(p, off)
	}
	owner := int(off / blockSize % int64(b.clients))
	b.tr.record(owner, span{start: start, end: b.tr.now(), off: off, req: -1, parent: -1, kind: b.kind, write: write})
	return err
}

func (b *tracedBackend) ReadAt(p []byte, off int64) error  { return b.call(p, off, false) }
func (b *tracedBackend) WriteAt(p []byte, off int64) error { return b.call(p, off, true) }

// servedStack is one constructed serving stack: engines, optional chain
// backends, servers listening on loopback, and the client side.
type servedStack struct {
	cfg     servedConfig
	engines []*engine.Engine
	clocks  []*devClock
	chains  []*fleet.ChainBackend
	servers []*netblock.Server
	addrs   []string
	conns   []*netblock.Client
	fleet   *fleet.Fleet
	vols    []volume // per load client
}

// backendHook lets the self-test interpose on the Backend each server
// serves; the measured runs leave it nil.
type backendHook func(netblock.Backend) netblock.Backend

func buildServed(cfg servedConfig, tr *tracer, hook backendHook) (st *servedStack, err error) {
	st = &servedStack{cfg: cfg}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	var ring *cluster.Ring
	if cfg.Nodes > 1 {
		boot := make([]cluster.Member, cfg.Nodes)
		for i := range boot {
			boot[i] = cluster.Member{ID: fmt.Sprintf("n%d", i)}
		}
		if ring, err = cluster.NewRing(cfg.Replicas, int(cfg.Volume/cfg.RangeBytes), cfg.RangeBytes, boot); err != nil {
			return st, err
		}
	}
	for n := 0; n < cfg.Nodes; n++ {
		eng, err := st.newEngine()
		if err != nil {
			return st, err
		}
		var backend netblock.Backend = eng
		if tr != nil {
			backend = &tracedBackend{Backend: backend, tr: tr, kind: kEngine, clients: cfg.Clients}
		}
		if ring != nil {
			chain, err := fleet.NewChainBackend(backend, fmt.Sprintf("n%d", n), ring, clientOptions)
			if err != nil {
				return st, err
			}
			st.chains = append(st.chains, chain)
			backend = chain
		}
		if tr != nil {
			backend = &tracedBackend{Backend: backend, tr: tr, kind: kServer, clients: cfg.Clients}
		}
		if hook != nil {
			backend = hook(backend)
		}
		srv, err := netblock.NewServerWith(backend)
		if err != nil {
			return st, err
		}
		st.servers = append(st.servers, srv)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return st, err
		}
		st.addrs = append(st.addrs, addr.String())
	}
	if ring != nil {
		members := make([]cluster.Member, cfg.Nodes)
		for i := range members {
			members[i] = cluster.Member{ID: fmt.Sprintf("n%d", i), Addr: st.addrs[i]}
		}
		if ring, err = cluster.NewRing(cfg.Replicas, int(cfg.Volume/cfg.RangeBytes), cfg.RangeBytes, members); err != nil {
			return st, err
		}
		for _, c := range st.chains {
			if err := c.SetRing(ring); err != nil {
				return st, err
			}
		}
		if st.fleet, err = fleet.New(ring, clientOptions); err != nil {
			return st, err
		}
		for i := 0; i < cfg.Clients; i++ {
			st.vols = append(st.vols, st.fleet)
		}
		// Dial every member now, so that connecting is set-up work.
		for _, m := range ring.Members() {
			if _, err := st.fleet.Ping(m.ID); err != nil {
				return st, err
			}
		}
	}
	// A direct connection per server: the served workload's clients, and
	// the read-back check of every replica.
	for i := 0; i < cfg.Clients || i < cfg.Nodes; i++ {
		c, err := netblock.DialOptions(st.addrs[i%cfg.Nodes], clientOptions)
		if err != nil {
			return st, err
		}
		st.conns = append(st.conns, c)
		if ring == nil && i < cfg.Clients {
			st.vols = append(st.vols, clientVolume{c})
		}
	}
	return st, nil
}

// newEngine builds one node's payload engine over memory devices, each
// wrapped so the benchmark can follow the shard's virtual clock.
func (st *servedStack) newEngine() (*engine.Engine, error) {
	cfg := st.cfg
	var mu sync.Mutex
	build, err := engine.MemShardBuilder(engine.ShardSpec{
		ShardBytes:     cfg.Volume / int64(cfg.Shards),
		SSDs:           cfg.SSDs,
		CachePerSSD:    cfg.CachePerSSD,
		EraseGroupSize: cfg.EraseGroup,
		SegmentColumn:  cfg.SegColumn,
		DeviceLatency:  vtime.Duration(cfg.DevLatency),
		Mutate: func(c *src.Config) {
			clk := &devClock{}
			mu.Lock()
			st.clocks = append(st.clocks, clk)
			mu.Unlock()
			for i, d := range c.SSDs {
				c.SSDs[i] = &clockedDevice{Device: d, clk: clk, ssd: true}
			}
			c.Primary = &clockedDevice{Device: c.Primary, clk: clk}
		},
	})
	if err != nil {
		return nil, err
	}
	eng, err := engine.New(engine.Options{Shards: cfg.Shards, StripePages: cfg.StripePages, Payload: true}, build)
	if err != nil {
		return nil, err
	}
	st.engines = append(st.engines, eng)
	return eng, eng.Start()
}

// close releases the stack in dependency order: client connections, then
// servers, then chain forwarders, then engines.
func (st *servedStack) close() error {
	var first error
	keep := func(err error) {
		if first == nil {
			first = err
		}
	}
	if st.fleet != nil {
		keep(st.fleet.Close())
	}
	for _, c := range st.conns {
		keep(c.Close())
	}
	for _, s := range st.servers {
		keep(s.Close())
	}
	for _, c := range st.chains {
		keep(c.Close())
	}
	for _, e := range st.engines {
		keep(e.Close())
	}
	return first
}

// counters sums the cache counters of every engine.
func (st *servedStack) counters() (bench.Counters, error) {
	var sum bench.Counters
	for _, e := range st.engines {
		c, err := e.Counters()
		if err != nil {
			return sum, err
		}
		sum = addCounters(sum, c)
	}
	return sum, nil
}

func addCounters(a, b bench.Counters) bench.Counters {
	a.Reads += b.Reads
	a.Writes += b.Writes
	a.ReadBytes += b.ReadBytes
	a.WriteBytes += b.WriteBytes
	a.ReadHits += b.ReadHits
	a.FillBytes += b.FillBytes
	a.DestageBytes += b.DestageBytes
	a.GCCopyBytes += b.GCCopyBytes
	a.MetadataBytes += b.MetadataBytes
	a.ParityBytes += b.ParityBytes
	a.SSDFlushes += b.SSDFlushes
	return a
}

func subCounters(a, b bench.Counters) bench.Counters {
	a.Reads -= b.Reads
	a.Writes -= b.Writes
	a.ReadBytes -= b.ReadBytes
	a.WriteBytes -= b.WriteBytes
	a.ReadHits -= b.ReadHits
	a.FillBytes -= b.FillBytes
	a.DestageBytes -= b.DestageBytes
	a.GCCopyBytes -= b.GCCopyBytes
	a.MetadataBytes -= b.MetadataBytes
	a.ParityBytes -= b.ParityBytes
	a.SSDFlushes -= b.SSDFlushes
	return a
}

// snapshot is the engines' cumulative cache counters, and every shard's
// virtual clock and cache-device write traffic.
type snapshot struct {
	cnt     bench.Counters
	clocks  []int64
	written int64
}

func (st *servedStack) snapshot() (snapshot, error) {
	cnt, err := st.counters()
	s := snapshot{cnt: cnt, clocks: make([]int64, len(st.clocks))}
	for i, c := range st.clocks {
		s.clocks[i] = c.last.Load()
		s.written += c.ssdWritten.Load()
	}
	return s, err
}

// phase is the engines' work between two snapshots.
type phase struct {
	cnt     bench.Counters
	span    int64 // longest shard virtual-clock advance, ns
	written int64 // cache-device bytes written
}

func since(a, b snapshot) phase {
	p := phase{cnt: subCounters(b.cnt, a.cnt), written: b.written - a.written}
	for i := range b.clocks {
		p.span = max(p.span, b.clocks[i]-a.clocks[i])
	}
	return p
}

// serverOps sums the servers' read and write counts and errors.
func (st *servedStack) serverOps() (ops, errs int64) {
	for _, s := range st.servers {
		for _, o := range s.OpStats() {
			if o.Op == "read" || o.Op == "write" {
				ops += o.Count
				errs += o.Errors
			}
		}
	}
	return ops, errs
}

// pageModel is one client's view of its pages: page j*clients+id has
// version ver[j]. Clients own disjoint interleaved pages, so each model is
// the whole truth about its pages.
type pageModel struct {
	id, clients int
	ver         []uint64
}

func (m *pageModel) page(j int64) int64 { return j*int64(m.clients) + int64(m.id) }

// loadClient is one closed-loop caller with one request in flight.
type loadClient struct {
	cfg   servedConfig
	vol   volume
	model *pageModel
	rng   *rand.Rand
	zipf  *workload.Zipfian
	buf   []byte

	// Filled while timed.
	reads, writes []int64 // per-request wall latency, ns
	// Counted always.
	attempted, failed int64
	seq               int64
}

func newLoadClient(cfg servedConfig, vol volume, model *pageModel, seed int64) *loadClient {
	rng := rand.New(rand.NewSource(seed))
	return &loadClient{
		cfg: cfg, vol: vol, model: model, rng: rng,
		zipf: workload.NewZipfian(rng, int64(len(model.ver)), cfg.Theta),
		buf:  make([]byte, blockSize),
	}
}

// scatter maps Zipf rank r to a client page index in [0, n), n a power of
// two, so that popular pages spread over shards and ranges. The map is
// fixed: the seed draws the request sequence, not which pages are hot, so
// runs with different seeds load the shards and chain heads alike.
func scatter(r, n int64) int64 { return (r*0x9E3779B1 + n/3) & (n - 1) }

// run issues requests until stop, or ops of them when ops > 0. When timed
// it records each request's latency and, with tr on, its span.
func (c *loadClient) run(stop time.Time, ops int, timed bool, tr *tracer) {
	n := int64(len(c.model.ver))
	for i := 0; ops <= 0 || i < ops; i++ {
		if ops <= 0 && !time.Now().Before(stop) {
			return
		}
		j := scatter(c.zipf.Next(), n)
		page := c.model.page(j)
		off := page * blockSize
		write := c.rng.Float64() >= c.cfg.ReadFrac
		if write {
			c.model.ver[j]++
			stamp(c.buf, c.model.id, page, c.model.ver[j])
		}
		t0 := time.Now()
		var err error
		if write {
			err = c.vol.WriteAt(c.buf, off)
		} else {
			err = c.vol.ReadAt(c.buf, off)
		}
		d := time.Since(t0)
		c.attempted++
		if err != nil || (!write && !intact(c.buf, c.model.id, page, c.model.ver[j])) {
			c.failed++
		}
		if !timed {
			continue
		}
		if write {
			c.writes = append(c.writes, int64(d))
		} else {
			c.reads = append(c.reads, int64(d))
		}
		if tr != nil {
			c.seq++
			start := int64(t0.Sub(tr.epoch))
			tr.record(c.model.id, span{start: start, end: start + int64(d), off: off,
				req: int64(c.model.id)<<40 | c.seq, parent: -1, kind: kClient, write: write})
		}
	}
}

// runClients runs every client concurrently and waits for all of them.
func runClients(cs []*loadClient, stop time.Time, ops int, timed bool, tr *tracer) {
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *loadClient) {
			defer wg.Done()
			c.run(stop, ops, timed, tr)
		}(c)
	}
	wg.Wait()
}

// owner reports the model of the client owning page, and the page's index
// in it.
func owner(models []*pageModel, page int64) (*pageModel, int64) {
	n := int64(len(models))
	return models[page%n], page / n
}

// sweep writes (fill) or checks (verify) every page of the volume through
// vol in FillChunk requests, each page stamped by or checked against its
// owner's model. It returns requests attempted and failed.
func sweep(vol volume, cfg servedConfig, models []*pageModel, fill bool) (attempted, failed int64) {
	buf := make([]byte, cfg.FillChunk)
	per := cfg.FillChunk / blockSize
	for off := int64(0); off < cfg.Volume; off += cfg.FillChunk {
		first := off / blockSize
		var ok bool
		if fill {
			for k := int64(0); k < per; k++ {
				m, j := owner(models, first+k)
				m.ver[j] = 1
				stamp(buf[k*blockSize:], m.id, first+k, 1)
			}
			ok = vol.WriteAt(buf, off) == nil
		} else {
			ok = vol.ReadAt(buf, off) == nil
			for k := int64(0); ok && k < per; k++ {
				m, j := owner(models, first+k)
				ok = intact(buf[k*blockSize:], m.id, first+k, m.ver[j])
			}
		}
		attempted++
		if !ok {
			failed++
		}
	}
	return attempted, failed
}

// trial is one set-up, timed window and read-back of a served workload.
type trial struct {
	setup             time.Duration
	elapsed           time.Duration
	ops               int64
	readP50, writeP50 float64 // microseconds
	attempted, failed int64
	model             phase // the Zipf warm-up: a fixed number of requests
	window            phase // the timed window
	mem               memWindow
	srvOps, srvErrs   int64
	forwardsOK        int64
	forwardsFailed    int64
	fstats            fleet.Stats
}

func servedTrial(ctx context.Context, cfg servedConfig, seed int64, window time.Duration, tr *tracer, hook backendHook) (_ *trial, err error) {
	t := &trial{}
	start := time.Now()
	st, err := buildServed(cfg, tr, hook)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer func() {
		if cerr := st.close(); cerr != nil && err == nil {
			err = fmt.Errorf("close: %w", cerr)
		}
	}()
	models := make([]*pageModel, cfg.Clients)
	clients := make([]*loadClient, cfg.Clients)
	for i := range models {
		models[i] = &pageModel{id: i, clients: cfg.Clients, ver: make([]uint64, cfg.Volume/blockSize/int64(cfg.Clients))}
		clients[i] = newLoadClient(cfg, st.vols[i], models[i], seed*1000+int64(i))
	}
	// Warm-up: write every page once, then run untimed Zipf traffic so the
	// cache holds the hot set before timing. The Zipf warm-up is a fixed
	// number of requests, so the model's outputs over it do not depend on
	// how fast the host runs.
	a, f := sweep(st.vols[0], cfg, models, true)
	t.attempted, t.failed = a, f
	w0, err := st.snapshot()
	if err != nil {
		return nil, err
	}
	runClients(clients, time.Time{}, cfg.WarmOps, false, nil)
	w1, err := st.snapshot()
	if err != nil {
		return nil, err
	}
	t.model = since(w0, w1)
	t.setup = time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	o0, e0 := st.serverOps()
	t.mem.start()
	if tr != nil {
		tr.on.Store(true)
	}
	begin := time.Now()
	runClients(clients, begin.Add(window), 0, true, tr)
	t.elapsed = time.Since(begin)
	if tr != nil {
		tr.on.Store(false)
	}
	t.mem.stop()
	o1, e1 := st.serverOps()
	t.srvOps, t.srvErrs = o1-o0, e1-e0
	w2, err := st.snapshot()
	if err != nil {
		return nil, err
	}
	t.window = since(w1, w2)
	var reads, writes []int64
	for _, c := range clients {
		t.ops += int64(len(c.reads) + len(c.writes))
		reads = append(reads, c.reads...)
		writes = append(writes, c.writes...)
		t.attempted += c.attempted
		t.failed += c.failed
	}

	t.readP50, t.writeP50 = percentileUs(reads, 0.50), percentileUs(writes, 0.50)

	// Read back every page from every server: the served volume, or each
	// replica of the fleet, which proves the chain delivered every write.
	for n := 0; n < cfg.Nodes; n++ {
		a, f := sweep(clientVolume{st.conns[n]}, cfg, models, false)
		t.attempted += a
		t.failed += f
	}
	for _, c := range st.chains {
		ok, bad := c.Forwards()
		t.forwardsOK += ok
		t.forwardsFailed += bad
	}
	if st.fleet != nil {
		t.fstats = st.fleet.Stats()
	}
	// A lost forward or a failover is a replication operation that did
	// not go as asked, even when the client's own call succeeded.
	t.failed += t.forwardsFailed + t.fstats.Failovers + t.fstats.Refetches
	return t, ctx.Err()
}

// runServed runs a served workload: untraced trials for the end-to-end
// metrics, or one untraced and one traced trial for the per-layer split.
func runServed(ctx context.Context, p params, cfg servedConfig, hook backendHook) (*outcome, error) {
	out := &outcome{config: cfg.record()}
	if !p.Trace {
		var trials []*trial
		for i := 0; i < cfg.Trials; i++ {
			t, err := servedTrial(ctx, cfg, trialSeed(p.Seed, i), p.Window/time.Duration(cfg.Trials), nil, hook)
			if err != nil {
				return nil, err
			}
			trials = append(trials, t)
			// Collect the closed stack now, so the next trial reuses its
			// memory instead of growing the heap past it.
			runtime.GC()
			out.attempted += t.attempted
			out.failed += t.failed
		}
		servedEndToEnd(out, trials)
		return out, finish(out, false)
	}
	plain, err := servedTrial(ctx, cfg, trialSeed(p.Seed, 0), p.Window/2, nil, hook)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	tr := newTracer(cfg.Clients)
	traced, err := servedTrial(ctx, cfg, trialSeed(p.Seed, 0), p.Window/2, tr, hook)
	if err != nil {
		return nil, err
	}
	out.attempted = plain.attempted + traced.attempted
	out.failed = plain.failed + traced.failed
	servedLayers(out, cfg, plain, traced, tr)
	if err := tr.dump(filepath.Join(p.OutDir, "spans-"+p.Workload+".tsv")); err != nil {
		return nil, err
	}
	return out, finish(out, true)
}

// servedEndToEnd reports medians over the trials of each trial's
// throughput and latency percentiles, so that one trial disturbed by the
// host does not move the run; the virtual-time figures pool the trials'
// Zipf warm-ups.
func servedEndToEnd(out *outcome, trials []*trial) {
	var model phase
	var tput, readP50, writeP50, setups []float64
	for _, t := range trials {
		tput = append(tput, float64(t.ops)/t.elapsed.Seconds())
		readP50 = append(readP50, t.readP50)
		writeP50 = append(writeP50, t.writeP50)
		setups = append(setups, t.setup.Seconds())
		model.cnt = addCounters(model.cnt, t.model.cnt)
		model.span += t.model.span
		model.written += t.model.written
	}
	out.set("throughput_ops", "1/s", median(tput))
	out.set("read_p50_us", "us", median(readP50))
	out.set("write_p50_us", "us", median(writeP50))
	out.set("setup_s", "s", median(setups))
	out.set("mem_sys_mb", "MB", memSysMB())
	out.set("vtime_mbps", "MB/s", ratio(model.cnt.ReadBytes+model.cnt.WriteBytes, model.span)*1e3)
	out.set("vtime_hit_ratio", "ratio", model.cnt.HitRatio())
	out.set("vtime_waf", "ratio", ratio(model.written, model.cnt.WriteBytes))
}

// servedLayers derives the per-layer split: runtime counters from the
// untraced trial, the rest from the traced trial's spans and counters.
func servedLayers(out *outcome, cfg servedConfig, plain, traced *trial, tr *tracer) {
	plain.mem.report(out, plain.ops)
	out.set("trace.overhead_frac", "ratio", 1-(float64(traced.ops)/traced.elapsed.Seconds())/(float64(plain.ops)/plain.elapsed.Seconds()))

	var unpaired int64
	for b := range tr.bufs {
		unpaired += tr.link(b, func(s *span) bool { return s.kind == kClient })
	}
	out.set("trace.spans", "count", float64(tr.spans()))
	out.set("trace.unpaired_spans", "count", float64(unpaired+tr.dropped.Load()))

	var rtt, backend, eng, chain, local []int64
	var overheadNs, overheadN, forwardNs, forwardN int64
	for b := range tr.bufs {
		ss := tr.bufs[b].spans
		// localOf maps a top-level server span to its engine child.
		localOf := make(map[int32]int64)
		for i := range ss {
			s := &ss[i]
			if s.kind == kEngine {
				eng = append(eng, s.dur())
				if s.parent >= 0 && ss[s.parent].kind == kServer {
					localOf[s.parent] = s.dur()
				}
			}
		}
		for i := range ss {
			s := &ss[i]
			switch {
			case s.kind == kClient:
				rtt = append(rtt, s.dur())
			case s.kind == kServer && s.parent >= 0 && ss[s.parent].kind == kClient:
				backend = append(backend, s.dur())
				overheadNs += ss[s.parent].dur() - s.dur()
				overheadN++
				if l, ok := localOf[int32(i)]; ok && s.write && cfg.Nodes > 1 {
					chain = append(chain, s.dur())
					local = append(local, l)
					forwardNs += s.dur() - l
					forwardN++
				}
			}
		}
	}
	out.set("netblock.overhead_us.mean", "us", meanUs(overheadNs, overheadN))
	out.set("netblock.backend_us.p50", "us", percentileUs(backend, 0.50))
	out.set("netblock.backend_us.p99", "us", percentileUs(backend, 0.99))
	out.set("engine.call_us.p50", "us", percentileUs(eng, 0.50))
	out.set("engine.call_us.p99", "us", percentileUs(eng, 0.99))
	if cfg.Nodes > 1 {
		out.set("fleet.chain_us.p50", "us", percentileUs(chain, 0.50))
		out.set("fleet.local_us.p50", "us", percentileUs(local, 0.50))
		out.set("fleet.forward_us.mean", "us", meanUs(forwardNs, forwardN))
		out.set("fleet.forwards_ok", "count", float64(traced.forwardsOK))
		out.set("fleet.forwards_failed", "count", float64(traced.forwardsFailed))
		out.set("fleet.failovers", "count", float64(traced.fstats.Failovers))
		out.set("fleet.refetches", "count", float64(traced.fstats.Refetches))
		out.set("fleet.op_us.p50", "us", percentileUs(rtt, 0.50))
		out.set("fleet.op_us.p99", "us", percentileUs(rtt, 0.99))
	}
	out.set("netblock.rtt_us.p50", "us", percentileUs(rtt, 0.50))
	out.set("netblock.rtt_us.p99", "us", percentileUs(rtt, 0.99))
	out.set("netblock.server_ops", "count", float64(traced.srvOps))
	out.set("netblock.server_errors", "count", float64(traced.srvErrs))

	c := traced.window.cnt
	out.set("engine.hit_ratio", "ratio", c.HitRatio())
	out.set("engine.fill_per_op_bytes", "B", ratio(c.FillBytes, c.Reads+c.Writes))
	out.set("engine.destage_per_write_byte", "ratio", ratio(c.DestageBytes, c.WriteBytes))
	out.set("engine.gc_copy_per_write_byte", "ratio", ratio(c.GCCopyBytes, c.WriteBytes))
	out.set("engine.ssd_flushes", "count", float64(c.SSDFlushes))
	srcCounterLayers(out, c)
}

// srcCounterLayers sets the src.* metrics the cache counters give.
func srcCounterLayers(out *outcome, c bench.Counters) {
	out.set("src.destage_per_write_byte", "ratio", ratio(c.DestageBytes, c.WriteBytes))
	out.set("src.gc_copy_per_write_byte", "ratio", ratio(c.GCCopyBytes, c.WriteBytes))
	out.set("src.metadata_per_write_byte", "ratio", ratio(c.MetadataBytes, c.WriteBytes))
	out.set("src.parity_per_write_byte", "ratio", ratio(c.ParityBytes, c.WriteBytes))
	out.set("src.ssd_flushes", "count", float64(c.SSDFlushes))
}
