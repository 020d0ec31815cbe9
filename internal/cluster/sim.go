package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"

	"srccache/internal/netlink"
	"srccache/internal/stats"
	"srccache/internal/vtime"
)

// SimConfig parameterizes one churn run. Everything is derived from Seed,
// so a run is a pure function of its config.
type SimConfig struct {
	Seed       int64
	Nodes      int   // initial ring size (default 5)
	Spares     int   // nodes standing by to join (default 1)
	Replicas   int   // replication factor (default 3)
	Ranges     int   // placement ranges (default 16)
	RangeBytes int64 // bytes per range (default 64 KiB)
	Ops        int   // client operations to issue (default 400)
	ChurnEvery int   // chaos tick every this many ops (default 20)
	Link       netlink.Config
	Detector   DetectorConfig
	// Supervised makes the control plane itself crashable: the core dies
	// and recovers from its journal — see simsup.go for the
	// composed-failure matrix it runs.
	Supervised bool
}

func (c SimConfig) withDefaults() SimConfig {
	if c.Nodes == 0 {
		c.Nodes = 5
	}
	if c.Spares == 0 {
		c.Spares = 1
	}
	if c.Replicas == 0 {
		c.Replicas = 3
	}
	if c.Ranges == 0 {
		c.Ranges = 16
	}
	if c.RangeBytes == 0 {
		c.RangeBytes = 64 << 10
	}
	if c.Ops == 0 {
		c.Ops = 400
	}
	if c.ChurnEvery == 0 {
		c.ChurnEvery = 20
	}
	if c.Link.RTT == 0 {
		c.Link.RTT = 200 * vtime.Microsecond
	}
	if c.Link.Jitter == 0 {
		c.Link.Jitter = 10 * vtime.Microsecond
	}
	if c.Link.Seed == 0 {
		c.Link.Seed = c.Seed
	}
	if c.Detector.Baseline == 0 {
		c.Detector.Baseline = 2 * c.Link.RTT
	}
	if c.Detector.FailAfter == 0 {
		c.Detector.FailAfter = 2
	}
	return c
}

// Result is one run's evidence: coverage counters for every fault class
// the schedule injected, the invariant violations observed (which must be
// zero), and client-side latency digests.
type Result struct {
	Seed    int64
	Elapsed vtime.Duration

	Ops, Reads, Writes int
	FailedOps          int // ops that failed while a healthy replica existed — must be 0
	VerifyErrors       int // reads or final hashes that mismatched the model — must be 0

	Kills, Restarts, Wipes       int
	Degrades, LinkHeals          int
	Partitions, PartitionHeals   int
	Joins, Leaves, Commits       int
	Aborts, MovesStreamed        int
	StepFailures, GuardSkips     int
	RepairRounds, RangesRepaired int

	// Supervised-mode coverage: supervisor lifecycle faults and the
	// composed scenarios the seed class forced.
	SupKills, SupRestarts        int
	SupResumes, SupRecoverPushes int
	MidCommitCrashes             int
	RepairRebalanceCrashes       int
	SlowJoinHeads                int

	DownDetected, SlowDetected bool

	Client   ClientStats
	ReadLat  stats.Summary
	WriteLat stats.Summary
}

// Signature digests the run for determinism comparisons: two runs of the
// same config must produce identical signatures.
func (r Result) Signature() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", r)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Violations summarizes the hard failures, empty when the run upheld every
// invariant.
func (r Result) Violations() []string {
	var v []string
	if r.FailedOps > 0 {
		v = append(v, fmt.Sprintf("%d client ops failed with a healthy replica available", r.FailedOps))
	}
	if r.VerifyErrors > 0 {
		v = append(v, fmt.Sprintf("%d acknowledged writes lost or misread", r.VerifyErrors))
	}
	return v
}

// sim is one run's mutable state.
type sim struct {
	cfg    SimConfig
	rng    *rand.Rand
	net    *Net
	drv    *simDriver
	ctrl   *Control
	client *Client
	res    Result

	model     []byte       // the acknowledged contents of the volume
	acked     map[int]bool // ranges with at least one acknowledged write
	ackedList []int        // same, in append order for seeded picking

	sup *simSup // non-nil when cfg.Supervised

	spares   []string // adopted nodes outside the ring
	downed   []string // killed nodes awaiting restart
	slowed   []string // nodes with degraded links
	cuts     [][2]string
	joining  string // spare being pulled in by the in-flight join
	leaving  string // member being drained by the in-flight leave
	readLat  stats.Histogram
	writeLat stats.Histogram
}

// Sim runs one seeded churn schedule against a fresh cluster and reports
// what happened. The schedule is guarded: before every destructive action
// it verifies each acknowledged range keeps at least one alive,
// client-reachable, non-degraded current owner — so zero failed operations
// and zero lost writes are absolute invariants, not probabilistic ones.
func Sim(cfg SimConfig) (Result, error) {
	cfg = cfg.withDefaults()
	s := &sim{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		acked: make(map[int]bool),
	}
	s.res.Seed = cfg.Seed
	if err := s.setup(); err != nil {
		return s.res, err
	}
	if cfg.Supervised {
		s.sup = newSimSup(s)
	}
	s.model = make([]byte, s.ctrl.Table().Cur.Size())

	for i := 0; i < cfg.Ops; i++ {
		if i%cfg.ChurnEvery == 0 {
			s.churnTick()
		}
		s.clientOp()
		s.net.Advance(50 * vtime.Microsecond)
	}
	if err := s.drain(); err != nil {
		return s.res, err
	}
	s.finalVerify()

	s.res.Elapsed = s.net.Now().Sub(0)
	s.res.MovesStreamed = s.drv.moved
	s.res.Client = s.client.Stats()
	s.res.ReadLat = s.readLat.Summarize()
	s.res.WriteLat = s.writeLat.Summarize()
	return s.res, nil
}

func (s *sim) setup() error {
	net, err := NewNet(s.cfg.Link)
	if err != nil {
		return err
	}
	s.net = net
	var members []Member
	for i := 0; i < s.cfg.Nodes+s.cfg.Spares; i++ {
		id := fmt.Sprintf("n%02d", i)
		if _, err := NewNode(net, id); err != nil {
			return err
		}
		if i < s.cfg.Nodes {
			members = append(members, Member{ID: id})
		} else {
			s.spares = append(s.spares, id)
		}
	}
	ring, err := NewRing(s.cfg.Replicas, s.cfg.Ranges, s.cfg.RangeBytes, members)
	if err != nil {
		return err
	}
	s.drv = &simDriver{net: net}
	if s.ctrl, err = NewControl(ring, s.drv); err != nil {
		return err
	}
	// The client follows whichever core is current: a recovered
	// supervisor replaces s.ctrl.
	cli, err := NewClient(net, func() *Table { return s.ctrl.Table() }, NewDetector(s.cfg.Detector))
	if err != nil {
		return err
	}
	s.client, s.drv.client = cli, cli
	return nil
}

// simDriver runs the control-plane core over the virtual-time network. Its
// journal is an in-memory record — the stand-in for the daemon's journal
// file — so a core rebuilt from it recovers exactly what a restarted
// process would. Health is what the client can reach; a copy is usable
// when it is reachable, unquarantined and holds data.
type simDriver struct {
	net     *Net
	client  *Client
	journal []byte
	moved   int // moves streamed
}

func (d *simDriver) Persist(data []byte) error {
	d.journal = data
	return nil
}

// Push installs t on every alive node. Dead nodes miss the epoch; their
// restart re-pushes before they serve again, and their stale epoch
// rejects any request in between.
func (d *simDriver) Push(t *Table) {
	for _, nd := range d.net.nodes {
		if nd.alive {
			nd.SetTable(t)
		}
	}
}

func (d *simDriver) Registered(id string) bool { return d.net.nodes[id] != nil }

func (d *simDriver) Healthy(id string) bool { return d.net.Reachable("client", id) }

func (d *simDriver) Usable(id string, rng int) bool {
	if !d.Healthy(id) || d.client.Degraded(id, rng) {
		return false
	}
	_, ok := d.net.nodes[id].HashRange(rng)
	return ok
}

// Written reports whether any node holds data for rng: data only ever
// lands through acknowledged writes or streams of them.
func (d *simDriver) Written(rng int) bool {
	for _, nd := range d.net.nodes {
		if _, ok := nd.HashRange(rng); ok {
			return true
		}
	}
	return false
}

// Quarantine is a no-op: the simulated client sees every chain write's
// applied set and already quarantines any copy that missed one, so a moved
// copy needs no catch-up verification here.
func (d *simDriver) Quarantine(DegKey) {}

// Stream copies a moved range from a live, reachable Cur owner holding a
// copy the client has not quarantined, charging the data path (source
// link out, target link in) for the full range. Streaming from a degraded
// copy would install stale bytes on the target while lifting its
// quarantine — the exact corruption anti-entropy exists to prevent. A
// range no owner holds data for was never written and completes trivially.
func (d *simDriver) Stream(t *Table, mv Move) error {
	var src *Node
	hasData := false
	for _, id := range t.Cur.Owners(mv.Range) {
		nd := d.net.nodes[id]
		if nd == nil {
			continue
		}
		if _, ok := nd.HashRange(mv.Range); !ok {
			continue
		}
		hasData = true
		if !nd.alive || !d.net.Reachable(mv.Target, id) || d.client.Degraded(id, mv.Range) {
			continue
		}
		src = nd
		break
	}
	if src == nil {
		if hasData {
			// Written, but every copy is dead, unreachable, or quarantined
			// right now. "No clean source" must not be read as "never
			// written" — the move stays pending until a copy recovers.
			return fmt.Errorf("cluster: no clean source for range %d", mv.Range)
		}
		d.landed(mv)
		return nil
	}
	data := src.rangeCopy(mv.Range)
	d.net.reply(src.id, int64(len(data)))
	tgt, err := d.net.hop(src.id, mv.Target, int64(len(data)))
	if err != nil {
		return fmt.Errorf("cluster: streaming range %d to %q: %w", mv.Range, mv.Target, err)
	}
	tgt.ApplyRange(mv.Range, data)
	d.landed(mv)
	return nil
}

// landed lifts the target's quarantine: it now holds a clean copy.
func (d *simDriver) landed(mv Move) {
	delete(d.client.degraded, DegKey{mv.Target, mv.Range})
	d.moved++
}

// clientOp issues one read or write against the cluster and mirrors it
// into the model volume.
func (s *sim) clientOp() {
	write := len(s.ackedList) == 0 || s.rng.Intn(100) < 45
	if write {
		off, n := s.pickExtent(true)
		p := make([]byte, n)
		s.rng.Read(p)
		t0 := s.net.Now()
		err := s.client.WriteAt(p, off)
		s.writeLat.Observe(s.net.Now().Sub(t0))
		s.res.Ops++
		if err != nil {
			s.res.FailedOps++
			return
		}
		s.res.Writes++
		copy(s.model[off:], p)
		for rng := int(off / s.cfg.RangeBytes); rng <= int((off+n-1)/s.cfg.RangeBytes); rng++ {
			if !s.acked[rng] {
				s.acked[rng] = true
				s.ackedList = append(s.ackedList, rng)
			}
		}
		return
	}
	off, n := s.pickExtent(false)
	p := make([]byte, n)
	t0 := s.net.Now()
	err := s.client.ReadAt(p, off)
	s.readLat.Observe(s.net.Now().Sub(t0))
	s.res.Ops++
	if err != nil {
		s.res.FailedOps++
		return
	}
	s.res.Reads++
	for i := range p {
		if p[i] != s.model[off+int64(i)] {
			s.res.VerifyErrors++
			break
		}
	}
}

// pickExtent chooses a (possibly range-crossing) extent. Writes roam the
// whole volume; reads stay within acknowledged ranges so an absent range
// is never a legal miss.
func (s *sim) pickExtent(write bool) (off, n int64) {
	rb := s.cfg.RangeBytes
	var rng int
	if write {
		rng = s.rng.Intn(s.cfg.Ranges)
	} else {
		rng = s.ackedList[s.rng.Intn(len(s.ackedList))]
	}
	base := int64(rng) * rb
	maxBlocks := rb / 512
	if maxBlocks > 8 {
		maxBlocks = 8
	}
	n = int64(1+s.rng.Intn(int(maxBlocks))) * 512
	// Occasionally straddle the boundary into the next range to exercise
	// the client's extent splitting (reads only where the next range is
	// also acknowledged, so the miss is never legal).
	cross := rng+1 < s.cfg.Ranges && rb >= 1024 && s.rng.Intn(10) == 0
	if !write && !s.acked[rng+1] {
		cross = false
	}
	if cross {
		return base + rb - 512, 1024
	}
	slots := int((rb - n) / 512)
	if slots <= 0 {
		return base, n
	}
	return base + int64(s.rng.Intn(slots+1))*512, n
}

// cleanOwnerIn reports whether range rng keeps at least one usable owner
// (alive, client-reachable, unquarantined, holding data) under the given
// placement, with the hypothetical exclusions applied (nodes about to die
// or be cut off).
func (s *sim) cleanOwnerIn(ring *Ring, rng int, excluded map[string]bool) bool {
	for _, id := range ring.Owners(rng) {
		if !excluded[id] && s.drv.Usable(id, rng) {
			return true
		}
	}
	return false
}

// writeHeadIn reports whether range rng keeps at least one alive,
// client-reachable owner under the given placement with the hypothetical
// exclusions applied — the minimum for a chain write to find a head.
// Quarantined copies count: the write path falls back to them rather than
// fail, and anti-entropy heals them afterwards.
func (s *sim) writeHeadIn(ring *Ring, rng int, excluded map[string]bool) bool {
	for _, id := range ring.Owners(rng) {
		if !excluded[id] && s.drv.Healthy(id) {
			return true
		}
	}
	return false
}

// safeWithout is the schedule guard: if these nodes vanished, would every
// acknowledged range still have a clean current owner to read from, and
// would EVERY range — written or not — still have a reachable write head
// under each placement that is or is about to be authoritative? Writes
// roam the whole volume, so a never-written range whose owners are all
// dead fails a write with no healthy replica in sight; worse, a
// boundary-crossing write can land its first half before the headless
// half fails, tearing the op. The guard forbids reaching that state at
// all. While a commit has been journaled but not pushed (the supervisor
// died in between), the decided placement is already law — recovery will
// install it — so its owners are guarded the same way.
func (s *sim) safeWithout(excluded map[string]bool) bool {
	table, decided := s.ctrl.Table(), s.ctrl.Decided()
	for rng := 0; rng < s.cfg.Ranges; rng++ {
		if !s.writeHeadIn(table.Cur, rng, excluded) {
			return false
		}
		if table.Next != nil && !s.writeHeadIn(table.Next, rng, excluded) {
			return false
		}
		if decided != nil && !s.writeHeadIn(decided.Cur, rng, excluded) {
			return false
		}
	}
	for _, rng := range s.ackedList {
		if !s.cleanOwnerIn(table.Cur, rng, excluded) {
			return false
		}
		if decided != nil && !s.cleanOwnerIn(decided.Cur, rng, excluded) {
			return false
		}
	}
	return true
}

// ringMembers returns the current ring membership IDs.
func (s *sim) ringMembers() []string {
	var ids []string
	for _, m := range s.ctrl.Table().Cur.Members() {
		ids = append(ids, m.ID)
	}
	return ids
}

// churnTick runs the background machinery (ping sweep, detector coverage,
// rebalance progress) and injects one guarded chaos action.
func (s *sim) churnTick() {
	s.client.PingAll()
	down, slow := s.client.Detector().Classified()
	if len(down) > 0 {
		s.res.DownDetected = true
	}
	if len(slow) > 0 {
		s.res.SlowDetected = true
	}
	if s.sup == nil || s.sup.alive {
		s.advance()
	}
	s.chaosAction()
	if s.sup != nil {
		s.sup.chaos()
	}
	s.net.Advance(vtime.Millisecond)
}

// advance runs one control-plane tick. A commit the guard refuses sends
// anti-entropy after the regressed copies; a failpoint crash takes the
// supervisor down mid-commit.
func (s *sim) advance() {
	r, err := s.ctrl.Tick(DefaultStepsPerTick)
	s.res.StepFailures += len(r.TargetDown) + len(r.Failed)
	if errors.Is(err, ErrControlCrashed) {
		s.sup.crashed()
		return
	}
	if err != nil {
		// The in-memory journal cannot fail; an unencodable record is a
		// harness bug, not a schedule outcome.
		panic("cluster: control tick: " + err.Error())
	}
	if r.Refused != nil {
		s.actRepair()
	}
	s.settle()
}

// settle books the end of a transition once the core is stable again,
// telling commit from abort by whether the membership change took.
func (s *sim) settle() {
	if s.ctrl.Rebalancing() || (s.joining == "" && s.leaving == "") {
		return
	}
	cur := s.ctrl.Table().Cur
	_, joined := cur.Member(s.joining)
	_, stayed := cur.Member(s.leaving)
	aborted := (s.joining != "" && !joined) || (s.leaving != "" && stayed)
	if aborted {
		s.res.Aborts++
	} else {
		s.res.Commits++
	}
	s.finishTransition(aborted)
}

// finishTransition books membership changes once a transition ends.
func (s *sim) finishTransition(aborted bool) {
	if s.joining != "" {
		if aborted {
			s.spares = append(s.spares, s.joining)
		}
		s.joining = ""
	}
	if s.leaving != "" {
		if !aborted {
			s.spares = append(s.spares, s.leaving)
		}
		s.leaving = ""
	}
}

// chaosAction injects one seeded, guarded fault or recovery.
func (s *sim) chaosAction() {
	switch s.rng.Intn(10) {
	case 0, 1:
		s.actKill()
	case 2:
		s.actRestart()
	case 3:
		s.actWipe()
	case 4:
		s.actDegrade()
	case 5:
		s.actHealLink()
	case 6:
		s.actPartition()
	case 7:
		s.actHealPartition()
	case 8:
		s.actMembership()
	case 9:
		s.actRepair()
	}
}

func (s *sim) actKill() {
	alive := s.aliveMembers()
	if len(alive) == 0 {
		return
	}
	victim := alive[s.rng.Intn(len(alive))]
	if !s.safeWithout(map[string]bool{victim: true}) {
		s.res.GuardSkips++
		return
	}
	s.net.nodes[victim].Kill()
	s.downed = append(s.downed, victim)
	s.res.Kills++
}

func (s *sim) actRestart() {
	if len(s.downed) == 0 {
		return
	}
	i := s.rng.Intn(len(s.downed))
	id := s.downed[i]
	s.downed = append(s.downed[:i], s.downed[i+1:]...)
	s.restartNode(id)
	s.res.Restarts++
}

// restartNode revives a killed node and resynchronizes its routing table —
// the node rejoins at the current epoch, with whatever data it kept.
func (s *sim) restartNode(id string) {
	nd := s.net.nodes[id]
	nd.Restart()
	nd.SetTable(s.ctrl.Table())
}

// actWipe replaces a node's disk: data gone, process up. Every
// acknowledged range the node writes for is quarantined until repair.
func (s *sim) actWipe() {
	alive := s.aliveMembers()
	if len(alive) == 0 {
		return
	}
	victim := alive[s.rng.Intn(len(alive))]
	if !s.safeWithout(map[string]bool{victim: true}) {
		s.res.GuardSkips++
		return
	}
	s.net.nodes[victim].Wipe()
	for _, rng := range s.ackedList {
		if s.ctrl.Table().writeOwned(rng, victim) {
			s.client.MarkDegraded(victim, rng)
		}
	}
	s.res.Wipes++
}

func (s *sim) actDegrade() {
	alive := s.aliveMembers()
	if len(alive) == 0 {
		return
	}
	id := alive[s.rng.Intn(len(alive))]
	s.net.Link(id).Degrade(float64(10 + s.rng.Intn(20)))
	s.slowed = append(s.slowed, id)
	s.res.Degrades++
}

func (s *sim) actHealLink() {
	if len(s.slowed) == 0 {
		return
	}
	i := s.rng.Intn(len(s.slowed))
	s.net.Link(s.slowed[i]).Degrade(1)
	s.slowed = append(s.slowed[:i], s.slowed[i+1:]...)
	s.res.LinkHeals++
}

func (s *sim) actPartition() {
	// Half the cuts isolate the client from a node, half cut node-to-node
	// (breaking chain forwards and rebalance streams instead of routing).
	members := s.ringMembers()
	if len(members) < 2 {
		return
	}
	a := "client"
	b := members[s.rng.Intn(len(members))]
	if s.rng.Intn(2) == 0 {
		a = members[s.rng.Intn(len(members))]
		if a == b {
			return
		}
	} else if !s.safeWithout(map[string]bool{b: true}) {
		// Only the client-facing cut removes b from the read path; the
		// guard need not run for node-to-node cuts (the write head stays
		// clean and reachable).
		s.res.GuardSkips++
		return
	}
	if s.net.Partitioned(a, b) {
		return
	}
	s.net.Partition(a, b)
	s.cuts = append(s.cuts, [2]string{a, b})
	s.res.Partitions++
}

func (s *sim) actHealPartition() {
	if len(s.cuts) == 0 {
		return
	}
	i := s.rng.Intn(len(s.cuts))
	cut := s.cuts[i]
	s.cuts = append(s.cuts[:i], s.cuts[i+1:]...)
	s.net.Heal(cut[0], cut[1])
	s.res.PartitionHeals++
}

// actMembership starts a join or leave when none is in flight, and
// quarantines every move target until its range streams — a new owner
// that has not been streamed yet holds at best a partial copy.
func (s *sim) actMembership() {
	if s.sup != nil && !s.sup.alive {
		return // membership is the supervisor's call; nobody is home
	}
	if s.ctrl.Rebalancing() {
		return
	}
	members := s.ringMembers()
	join := len(s.spares) > 0 && (s.rng.Intn(2) == 0 || len(members) <= s.cfg.Replicas)
	if join {
		id := s.spares[0]
		if !s.net.nodes[id].alive {
			return
		}
		if err := s.ctrl.BeginJoin(Member{ID: id}); err != nil {
			return
		}
		s.spares = s.spares[1:]
		s.joining = id
		s.res.Joins++
	} else {
		if len(members) <= s.cfg.Replicas {
			return
		}
		id := members[s.rng.Intn(len(members))]
		if !s.net.nodes[id].alive || id == s.leaving {
			return
		}
		if err := s.ctrl.BeginLeave(id); err != nil {
			return
		}
		s.leaving = id
		s.res.Leaves++
	}
	for _, mv := range s.ctrl.PendingMoves() {
		if s.acked[mv.Range] {
			s.client.MarkDegraded(mv.Target, mv.Range)
		}
	}
}

func (s *sim) actRepair() {
	if s.sup != nil && !s.sup.alive {
		return // repair scheduling is supervisor-driven in supervised runs
	}
	healed, err := s.client.Repair()
	if err != nil {
		s.res.VerifyErrors++
		return
	}
	s.res.RepairRounds++
	s.res.RangesRepaired += healed
}

func (s *sim) aliveMembers() []string {
	var out []string
	for _, id := range s.ringMembers() {
		if id != s.joining && id != s.leaving && s.net.nodes[id].alive {
			out = append(out, id)
		}
	}
	return out
}

// drain returns the cluster to full health: heal the network, restart the
// dead, finish or abort the transition, and repair until the quarantine
// set is empty.
func (s *sim) drain() error {
	if s.sup != nil {
		// The run may end with the control plane dead, mid-anything. Its
		// successor recovers from the journal first — finishing a decided
		// push — and the standard wind-down below takes it from there,
		// with the failpoint disarmed so the wind-down terminates.
		s.sup.crashAtCommit = false
		s.sup.restart()
	}
	s.net.HealAll()
	s.cuts = nil
	for _, id := range s.slowed {
		s.net.Link(id).Degrade(1)
	}
	s.slowed = nil
	for _, id := range s.downed {
		s.restartNode(id)
		s.res.Restarts++
	}
	s.downed = nil
	for tries := 0; s.ctrl.Rebalancing(); tries++ {
		if tries > 8*s.cfg.Ranges {
			if err := s.ctrl.Abort(); err != nil {
				return err
			}
			s.settle()
			break
		}
		r, err := s.ctrl.Tick(DefaultStepsPerTick)
		if err != nil {
			return err
		}
		s.res.StepFailures += len(r.TargetDown) + len(r.Failed)
		if r.Refused != nil || len(r.Failed) > 0 {
			// A streamed target was re-quarantined, or a move's only
			// copies are; with the fleet healed, anti-entropy can restore
			// them before the commit.
			healed, err := s.client.Repair()
			if err != nil {
				return err
			}
			s.res.RepairRounds++
			s.res.RangesRepaired += healed
		}
		s.settle()
	}
	for tries := 0; s.client.DegradedCount() > 0; tries++ {
		if tries > s.cfg.Ranges*(s.cfg.Nodes+s.cfg.Spares) {
			return fmt.Errorf("cluster: %d quarantined copies unrepairable after drain", s.client.DegradedCount())
		}
		healed, err := s.client.Repair()
		if err != nil {
			return err
		}
		s.res.RepairRounds++
		s.res.RangesRepaired += healed
	}
	return nil
}

// finalVerify is the no-lost-write acceptance check: every acknowledged
// range must read back byte-identical to the model through the client, and
// every current owner must hold a byte-identical copy (anti-entropy has
// converged the fleet).
func (s *sim) finalVerify() {
	for _, rng := range s.ackedList {
		base := int64(rng) * s.cfg.RangeBytes
		p := make([]byte, s.cfg.RangeBytes)
		if err := s.client.ReadAt(p, base); err != nil {
			s.res.FailedOps++
			continue
		}
		for i := range p {
			if p[i] != s.model[base+int64(i)] {
				s.res.VerifyErrors++
				break
			}
		}
		want := modelRangeHash(rng, s.model[base:base+s.cfg.RangeBytes])
		for _, id := range s.ctrl.Table().Cur.Owners(rng) {
			got, ok := s.net.nodes[id].HashRange(rng)
			if !ok || got != want {
				s.res.VerifyErrors++
			}
		}
	}
}

// modelRangeHash mirrors Node.HashRange over the model volume.
func modelRangeHash(rng int, buf []byte) uint64 {
	h := fnv.New64a()
	var key [8]byte
	binary.BigEndian.PutUint64(key[:], uint64(rng))
	h.Write(key[:])
	h.Write(buf)
	return h.Sum64()
}
