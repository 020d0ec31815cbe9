// Package supervisor is the autonomous control plane for a real-TCP
// netblock fleet: a long-running daemon that owns the authoritative
// epoch-versioned routing table and drives the full failure lifecycle the
// simulation's harness used to drive by hand — periodic pings feeding the
// cluster failure detector (wall-clock latencies scored against the same
// EWMA thresholds), quarantine of replicas that missed writes while down,
// hash-verified repair scheduling with bounded concurrency and
// retry/backoff, and the three-epoch join/leave rebalance executed with
// fleet.StreamMove against live servers.
//
// Transitions run on cluster.Control, the control-plane core the churn
// simulation drives too: it journals every table (cluster.SupJournal)
// before pushing it, recovers from the journal after a crash, applies the
// one commit guard, and aborts a transition held too long. The supervisor
// is its wall-clock driver — it supplies the journal file, the pushes, the
// streams, and the health observations of its own pings. When it cannot
// act safely (no clean source, a move target down, the detector disagreeing
// with a live ping) it holds state and surfaces a typed Hold instead of
// wedging or guessing.
//
// Epoch distribution reuses the existing ping/SetEpoch channel: nodes
// advertise their epoch in every ping answer, and the supervisor re-pushes
// the current table to any healthy member advertising a stale epoch —
// there is deliberately no management op in the wire protocol.
package supervisor

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"srccache/internal/cluster"
	"srccache/internal/cluster/fleet"
	"srccache/internal/netblock"
	"srccache/internal/vtime"
)

// Node registers one fleet member (or spare) with the supervisor: its ring
// identity/address plus the management push the supervisor installs
// routing tables through — transition tables included. Push is in-process
// (SetTable + SetEpoch on the node's chain backend and server); the
// data/ping plane is real TCP.
type Node struct {
	Member cluster.Member
	Push   func(t *cluster.Table) error
}

// Config parameterizes a supervisor.
type Config struct {
	// Ring is the initial committed placement (epoch 1) when no journal
	// exists; with a journal present, the journal wins.
	Ring *cluster.Ring
	// Nodes registers every dialable node, including spares that may join
	// later. More can be added with Register.
	Nodes []Node
	// JournalPath persists the supervisor's state ("" runs without a
	// journal: nothing survives a process restart).
	JournalPath string
	// Detector tunes fail-stop/fail-slow classification; zero values take
	// the cluster defaults.
	Detector cluster.DetectorConfig
	// Client sets the dial/request timeouts for pings and repair streams.
	Client netblock.ClientOptions
	// StepsPerTick bounds rebalance moves streamed per tick (default
	// cluster.DefaultStepsPerTick).
	StepsPerTick int
	// Sleep replaces time.Sleep for repair backoff (tests inject a no-op).
	Sleep func(time.Duration)
}

// Repair scheduling bounds.
const (
	repairConcurrency = 2                     // simultaneous repair streams
	repairAttempts    = 3                     // retries of one repair per tick
	repairBackoff     = 25 * time.Millisecond // base retry backoff, doubling per attempt
	maxRepairsPerTick = 8                     // repairs started per tick
)

func (c Config) withDefaults() Config {
	if c.StepsPerTick <= 0 {
		c.StepsPerTick = cluster.DefaultStepsPerTick
	}
	if c.Client.DialTimeout <= 0 {
		c.Client.DialTimeout = 500 * time.Millisecond
	}
	if c.Client.Timeout <= 0 {
		c.Client.Timeout = 2 * time.Second
	}
	if c.Sleep == nil {
		c.Sleep = time.Sleep
	}
	return c
}

// HoldReason is the typed cause of a supervision action deliberately not
// taken this tick. Holds are the graceful-degradation surface: state is
// kept, the reason is reported, and the action is retried when conditions
// change.
type HoldReason string

const (
	// HoldTargetDown: a move's target is not healthy; the move is
	// re-queued rather than streamed at a dead node.
	HoldTargetDown HoldReason = "target-down"
	// HoldNoCleanSource: a stream or repair found no serving source
	// replica. "No clean source" must not be read as "never written" —
	// the work is retried once a copy recovers.
	HoldNoCleanSource HoldReason = "no-clean-source"
	// HoldCommitUnsafe: every move streamed, but a target regressed; the
	// commit waits rather than strand a range on degraded copies.
	HoldCommitUnsafe HoldReason = "commit-unsafe"
	// HoldDetectorDisagree: the detector classifies a member Down, but its
	// latest ping answered — the supervisor defers quarantine until the
	// signals agree instead of acting on a flapping classification.
	HoldDetectorDisagree HoldReason = "detector-disagree"
	// HoldRepairFailed: a repair exhausted its per-tick retry budget; the
	// quarantine stays and the repair re-runs next tick.
	HoldRepairFailed HoldReason = "repair-failed"
)

// Hold records one deferred action. Range is -1 for node-scoped holds.
type Hold struct {
	Reason HoldReason
	Node   string
	Range  int
}

// Status is a point-in-time snapshot of the supervisor's world view and
// lifetime counters.
type Status struct {
	Epoch       uint64
	Phase       cluster.SupPhase
	Pending     int
	Quarantined []cluster.DegKey
	Down, Slow  []string
	Departing   []string // members that announced a planned shutdown
	Holds       []Hold

	Detections, Repairs, Commits, Aborts int
	Resumes, RecoveredPushes             int

	// DetectLatency is the last observed kill→classified-Down interval;
	// RepairLatency the last Down→quarantine-empty interval (MTTR).
	DetectLatency, RepairLatency time.Duration
}

// errCrashed is returned by Tick after a test failpoint killed the
// supervisor mid-transition; a real deployment never sees it.
var errCrashed = cluster.ErrControlCrashed

// Supervisor is the control-plane daemon. All public methods are safe for
// concurrent use; Tick is the single supervision round Start runs
// periodically.
type Supervisor struct {
	cfg Config
	fl  *fleet.Fleet
	det *cluster.Detector
	ctl *cluster.Control

	mu        sync.Mutex
	nodes     map[string]Node
	conns     map[string]*netblock.Client // ping connections
	infos     map[string]pingResult       // the latest ping sweep
	quar      map[cluster.DegKey]int
	departing map[string]bool
	wasDown   map[string]bool
	firstFail map[string]time.Time
	downSince map[string]time.Time
	holds     []Hold
	dead      bool

	detections, repairs, commits, aborts int
	resumes, recoveredPushes             int
	detectLat, repairLat                 time.Duration

	// failpoint lets crash tests kill the supervisor at a named point
	// (set only from in-package tests; nil in production).
	failpoint func(point string) bool

	stop chan struct{} //srclint:owns Close (signal channel: closed once, never sent on)
	once sync.Once
	wg   sync.WaitGroup
}

// New builds a supervisor. If cfg.JournalPath names an existing journal,
// the supervisor recovers from it — resuming an in-flight transition,
// finishing an interrupted commit push, or aborting a transition it cannot
// resume — instead of starting from cfg.Ring.
func New(cfg Config) (*Supervisor, error) {
	cfg = cfg.withDefaults()
	s := &Supervisor{
		cfg:       cfg,
		det:       cluster.NewDetector(cfg.Detector),
		nodes:     make(map[string]Node),
		conns:     make(map[string]*netblock.Client),
		quar:      make(map[cluster.DegKey]int),
		departing: make(map[string]bool),
		wasDown:   make(map[string]bool),
		firstFail: make(map[string]time.Time),
		downSince: make(map[string]time.Time),
		stop:      make(chan struct{}),
	}
	for _, n := range cfg.Nodes {
		if n.Member.ID == "" || n.Push == nil {
			return nil, fmt.Errorf("supervisor: node %+v needs an ID and a push", n.Member)
		}
		s.nodes[n.Member.ID] = n
	}

	journal, err := s.loadJournal()
	if err != nil {
		return nil, err
	}
	switch {
	case journal != nil:
		var rec cluster.Recovery
		if s.ctl, rec, err = cluster.RecoverControl(journal, driver{s}); err != nil {
			return nil, err
		}
		switch rec {
		case cluster.RecoveredResume:
			s.resumes++
		case cluster.RecoveredAbort:
			s.aborts++
		case cluster.RecoveredPush:
			s.recoveredPushes++
		}
	case cfg.Ring != nil:
		if s.ctl, err = cluster.NewControl(cfg.Ring, driver{s}); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("supervisor: no initial ring and no journal at %q", cfg.JournalPath)
	}
	s.ctl.Failpoint = func(point string) bool { return s.failpoint != nil && s.failpoint(point) }

	fl, err := fleet.New(s.ctl.Table().Cur, cfg.Client)
	if err != nil {
		return nil, err
	}
	s.fl = fl
	return s, nil
}

// loadJournal reads the persisted journal, if any.
func (s *Supervisor) loadJournal() ([]byte, error) {
	if s.cfg.JournalPath == "" {
		return nil, nil
	}
	data, err := os.ReadFile(s.cfg.JournalPath)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("supervisor: read journal: %w", err)
	}
	return data, nil
}

// Register adds a node (typically a spare that will join later).
func (s *Supervisor) Register(n Node) error {
	if n.Member.ID == "" || n.Push == nil {
		return fmt.Errorf("supervisor: node %+v needs an ID and a push", n.Member)
	}
	s.mu.Lock()
	s.nodes[n.Member.ID] = n
	s.mu.Unlock()
	return nil
}

// Ring returns the committed placement — the refetch source fleet clients
// install with SetRefetch.
func (s *Supervisor) Ring() *cluster.Ring {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ctl.Table().Cur
}

// Epoch returns the authoritative table epoch.
func (s *Supervisor) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ctl.Table().Epoch
}

// Start runs Tick every interval until Close.
func (s *Supervisor) Start(every time.Duration) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				_, _ = s.Tick()
			case <-s.stop:
				return
			}
		}
	}()
}

// Close stops the tick loop and closes the supervisor's connections.
func (s *Supervisor) Close() error {
	s.once.Do(func() { close(s.stop) })
	s.wg.Wait()
	s.mu.Lock()
	conns := s.conns
	s.conns = make(map[string]*netblock.Client)
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	return s.fl.Close()
}

// pingResult is one node's probe outcome this tick.
type pingResult struct {
	info netblock.PingInfo
	lat  time.Duration
	err  error
}

// Tick runs one supervision round: ping sweep, classification and
// quarantine, stale-epoch re-push, rebalance progress, and repair. It
// returns the post-tick status; tests drive it directly for determinism,
// Start drives it on a timer.
func (s *Supervisor) Tick() (Status, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead {
		return s.statusLocked(), errCrashed
	}
	s.holds = s.holds[:0]
	s.infos = s.pingSweepLocked()
	s.classifyLocked()
	s.repushLocked()
	if err := s.advanceLocked(); err != nil {
		return s.statusLocked(), err
	}
	s.repairLocked()
	return s.statusLocked(), nil
}

// registeredIDs returns every registered node ID, sorted for
// deterministic sweep order.
func (s *Supervisor) registeredIDs() []string {
	ids := make([]string, 0, len(s.nodes))
	for id := range s.nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// pingSweepLocked probes every registered node over TCP, timing each
// round trip for the detector.
func (s *Supervisor) pingSweepLocked() map[string]pingResult {
	ids := s.registeredIDs()
	out := make(map[string]pingResult, len(ids))
	for _, id := range ids {
		start := time.Now()
		info, err := s.pingLocked(id)
		out[id] = pingResult{info: info, lat: time.Since(start), err: err}
	}
	return out
}

// pingLocked probes one node on a cached connection, redialing on first
// use or after a failure drop.
func (s *Supervisor) pingLocked(id string) (netblock.PingInfo, error) {
	c := s.conns[id]
	if c == nil {
		n, ok := s.nodes[id]
		if !ok {
			return netblock.PingInfo{}, fmt.Errorf("supervisor: unknown node %q", id)
		}
		var err error
		c, err = netblock.DialOptions(n.Member.Addr, s.cfg.Client)
		if err != nil {
			return netblock.PingInfo{}, err
		}
		s.conns[id] = c
	}
	info, err := c.Ping()
	if err != nil {
		delete(s.conns, id)
		c.Close()
	}
	return info, err
}

// classifyLocked feeds the sweep into the detector and quarantines newly
// Down members. A member that announced a planned drain is reclassified as
// departing: its later silence is a scheduled departure, not a fail-stop,
// so it accumulates no failure run and triggers no quarantine.
func (s *Supervisor) classifyLocked() {
	now := time.Now()
	for _, id := range s.registeredIDs() {
		r, ok := s.infos[id]
		if !ok {
			continue
		}
		switch {
		case r.err == nil && r.info.Draining:
			if !s.departing[id] {
				s.departing[id] = true
				s.det.Forget(id)
				s.firstFail[id] = time.Time{}
			}
		case s.departing[id]:
			if r.err == nil {
				// Back without the drain flag: the planned restart
				// completed; observe it fresh.
				delete(s.departing, id)
				s.det.ObserveOK(id)
			}
			// Still silent: scheduled departure, not a failure — observe
			// nothing.
		case r.err != nil:
			if s.firstFail[id].IsZero() {
				s.firstFail[id] = now
			}
			s.det.Observe(id, vtime.FromStd(s.cfg.Client.Timeout), true)
		default:
			s.det.Observe(id, vtime.FromStd(r.lat), false)
		}
	}
	for id, st := range s.memberStatesLocked() {
		switch st {
		case cluster.Down:
			if s.wasDown[id] {
				continue
			}
			if r, ok := s.infos[id]; ok && r.err == nil {
				// The detector says Down but the node just answered:
				// signals disagree — hold instead of quarantining a member
				// that is visibly serving.
				s.holdLocked(HoldDetectorDisagree, id, -1)
				continue
			}
			s.wasDown[id] = true
			s.detections++
			s.downSince[id] = now
			if !s.firstFail[id].IsZero() {
				s.detectLat = now.Sub(s.firstFail[id])
			}
			s.quarantineNodeLocked(id)
		default:
			if s.wasDown[id] {
				delete(s.wasDown, id)
				s.firstFail[id] = time.Time{}
			}
		}
	}
}

// memberStatesLocked classifies every member of the current (and pending)
// placement, in deterministic order.
func (s *Supervisor) memberStatesLocked() map[string]cluster.Health {
	out := make(map[string]cluster.Health)
	t := s.ctl.Table()
	for _, m := range t.Cur.Members() {
		out[m.ID] = s.det.State(m.ID)
	}
	if t.Next != nil {
		for _, m := range t.Next.Members() {
			out[m.ID] = s.det.State(m.ID)
		}
	}
	return out
}

// quarantineNodeLocked marks every range the downed member serves as
// degraded on that member: while it was away it missed every write, so
// until a hash-verified repair confirms its copies they must not serve.
func (s *Supervisor) quarantineNodeLocked(id string) {
	cur := s.ctl.Table().Cur
	for rng := 0; rng < cur.Ranges; rng++ {
		if cur.OwnedBy(rng, id) {
			s.quarantineLocked(cluster.DegKey{Node: id, Range: rng})
		}
	}
}

// quarantineLocked marks one copy, keeping the failure count of a copy
// already marked.
func (s *Supervisor) quarantineLocked(k cluster.DegKey) {
	if _, ok := s.quar[k]; !ok {
		s.quar[k] = 0
	}
}

// repushLocked heals stale epochs through the ping channel: any healthy,
// non-departing member of the current table advertising an older epoch
// gets the table re-installed — how a restarted node rejoins the routing
// without a management protocol.
func (s *Supervisor) repushLocked() {
	t := s.ctl.Table()
	for _, id := range s.registeredIDs() {
		r, ok := s.infos[id]
		if !ok || r.err != nil || r.info.Draining || r.info.Epoch >= t.Epoch {
			continue
		}
		if _, member := t.Member(id); member {
			_ = s.nodes[id].Push(t)
		}
	}
}

// holdLocked records a typed deferred action.
func (s *Supervisor) holdLocked(reason HoldReason, node string, rng int) {
	s.holds = append(s.holds, Hold{Reason: reason, Node: node, Range: rng})
}

// refreshFleet re-syncs the supervisor's data-path client to the given
// authoritative placement after a node refused an op at a stale epoch. The supervisor is
// the epoch authority, so a refusal means its own client view lagged a
// push (e.g. a node restarted into a newer epoch from a prior
// incarnation); the table itself never moves in response. Safe without
// s.mu — the fleet locks internally — so repair workers can call it while
// the ticking goroutine holds the supervisor lock.
func (s *Supervisor) refreshFleet(cur *cluster.Ring) {
	_ = s.fl.SetRing(cur)
}

// healthyLocked reports whether a node can act in a transition step right
// now: not departing, answering this tick's ping, and not classified Down.
func (s *Supervisor) healthyLocked(id string) bool {
	if s.departing[id] {
		return false
	}
	if r, ok := s.infos[id]; !ok || r.err != nil {
		return false
	}
	return s.det.State(id) != cluster.Down
}

// advanceLocked runs one tick of the control-plane core and turns what it
// held back into typed Holds.
func (s *Supervisor) advanceLocked() error {
	prev := s.ctl.Table().Cur
	r, err := s.ctl.Tick(s.cfg.StepsPerTick)
	for _, mv := range r.TargetDown {
		s.holdLocked(HoldTargetDown, mv.Target, mv.Range)
	}
	for _, mv := range r.Failed {
		s.holdLocked(HoldNoCleanSource, mv.Target, mv.Range)
	}
	if r.Refused != nil {
		s.holdLocked(HoldCommitUnsafe, "", -1)
	}
	if r.Aborted {
		s.aborts++
	}
	if r.Committed {
		s.commits++
		// Members that left the placement stop being supervised.
		for _, m := range prev.Members() {
			if _, still := s.ctl.Table().Cur.Member(m.ID); !still {
				s.det.Forget(m.ID)
				delete(s.departing, m.ID)
			}
		}
	}
	if errors.Is(err, cluster.ErrControlCrashed) {
		s.dead = true
	}
	return err
}

// BeginJoin starts pulling a registered node into the placement. The
// transition is journaled and pushed before any stream runs.
func (s *Supervisor) BeginJoin(m cluster.Member) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ctl.BeginJoin(m)
}

// BeginLeave starts a graceful departure: the member keeps serving while
// its ranges stream to their new owners.
func (s *Supervisor) BeginLeave(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ctl.BeginLeave(id)
}

// driver is the supervisor's side of the control-plane core, called with
// s.mu held (or during New, before the supervisor is shared).
type driver struct{ s *Supervisor }

// Persist writes the journal durably (temp file + rename) before the state
// it records takes effect anywhere.
func (d driver) Persist(data []byte) error {
	path := d.s.cfg.JournalPath
	if path == "" {
		return nil
	}
	if err := os.WriteFile(path+".tmp", data, 0o644); err != nil {
		return err
	}
	return os.Rename(path+".tmp", path)
}

// Push installs a table on every registered node and routes the
// supervisor's own streams by its Cur. Failures are left to the per-tick
// re-push.
func (d driver) Push(t *cluster.Table) {
	for _, id := range d.s.registeredIDs() {
		_ = d.s.nodes[id].Push(t)
	}
	if d.s.fl != nil {
		d.s.refreshFleet(t.Cur)
	}
}

// Stream moves one range with fleet.StreamMove, never sourcing from a
// quarantined copy.
func (d driver) Stream(t *cluster.Table, mv cluster.Move) error {
	err := d.s.fl.StreamMove(t.Cur, t.Next, mv, d.s.quarantinedLocked)
	if errors.Is(err, netblock.ErrStaleEpoch) {
		d.s.refreshFleet(t.Cur)
	}
	return err
}

func (d driver) Registered(id string) bool {
	_, ok := d.s.nodes[id]
	return ok
}

func (d driver) Healthy(id string) bool { return d.s.healthyLocked(id) }

func (d driver) Usable(id string, rng int) bool {
	return d.s.healthyLocked(id) && !d.s.quarantinedLocked(id, rng)
}

// Written is true for every range: the daemon cannot see which ranges
// hold acknowledged data, so every range needs a clean copy.
func (d driver) Written(int) bool { return true }

// Quarantine takes a moved copy out of service until repair verifies it:
// writes that landed between its stream and the commit may have missed it
// (a chain forward failure never reaches the supervisor).
func (d driver) Quarantine(k cluster.DegKey) { d.s.quarantineLocked(k) }

// repairLocked schedules hash-verified repairs for quarantined copies
// whose node answers pings, with bounded concurrency and per-repair
// retry/backoff. A node that no longer owns the range sheds its mark
// without traffic (membership moved on).
func (s *Supervisor) repairLocked() {
	keys := make([]cluster.DegKey, 0, len(s.quar))
	for k := range s.quar {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Node != keys[j].Node {
			return keys[i].Node < keys[j].Node
		}
		return keys[i].Range < keys[j].Range
	})

	cur := s.ctl.Table().Cur
	var eligible []cluster.DegKey
	for _, k := range keys {
		if !cur.OwnedBy(k.Range, k.Node) {
			delete(s.quar, k)
			continue
		}
		if !s.healthyLocked(k.Node) {
			continue // still down or departing; repair when it answers
		}
		eligible = append(eligible, k)
		if len(eligible) >= maxRepairsPerTick {
			break
		}
	}
	if len(eligible) == 0 {
		return
	}

	type result struct {
		key cluster.DegKey
		err error
	}
	// Captured under s.mu; workers must not take it. The quarantine set
	// is the source veto: a quarantined copy never heals another.
	quar := make(map[cluster.DegKey]bool, len(s.quar))
	for k := range s.quar {
		quar[k] = true
	}
	stale := func(node string, rng int) bool { return quar[cluster.DegKey{Node: node, Range: rng}] }
	results := make([]result, len(eligible))
	sem := make(chan struct{}, repairConcurrency)
	var wg sync.WaitGroup
	for i, k := range eligible {
		wg.Add(1)
		go func(i int, k cluster.DegKey) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			var err error
			for attempt := 0; attempt < repairAttempts; attempt++ {
				if err = s.fl.RepairRange(k.Node, k.Range, stale); err == nil {
					break
				}
				if errors.Is(err, netblock.ErrStaleEpoch) {
					s.refreshFleet(cur)
				}
				s.cfg.Sleep(repairBackoff << attempt)
			}
			results[i] = result{key: k, err: err}
		}(i, k)
	}
	wg.Wait()

	now := time.Now()
	for _, r := range results {
		if r.err != nil {
			s.quar[r.key]++
			reason := HoldRepairFailed
			if strings.Contains(r.err.Error(), "no source replica") {
				reason = HoldNoCleanSource
			}
			s.holdLocked(reason, r.key.Node, r.key.Range)
			continue
		}
		delete(s.quar, r.key)
		s.repairs++
		if since, ok := s.downSince[r.key.Node]; ok && s.nodeClearLocked(r.key.Node) {
			s.repairLat = now.Sub(since)
			delete(s.downSince, r.key.Node)
		}
	}
}

// nodeClearLocked reports whether a node has no quarantined copies left.
func (s *Supervisor) nodeClearLocked(id string) bool {
	for k := range s.quar {
		if k.Node == id {
			return false
		}
	}
	return true
}

// quarantinedLocked reports whether a copy is quarantined — the source
// veto for moves.
func (s *Supervisor) quarantinedLocked(node string, rng int) bool {
	_, ok := s.quar[cluster.DegKey{Node: node, Range: rng}]
	return ok
}

// Status snapshots the supervisor's current view.
func (s *Supervisor) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statusLocked()
}

func (s *Supervisor) statusLocked() Status {
	phase := cluster.SupStable
	if s.ctl.Rebalancing() {
		phase = cluster.SupTransition
	}
	st := Status{
		Epoch:           s.ctl.Table().Epoch,
		Phase:           phase,
		Pending:         len(s.ctl.PendingMoves()),
		Detections:      s.detections,
		Repairs:         s.repairs,
		Commits:         s.commits,
		Aborts:          s.aborts,
		Resumes:         s.resumes,
		RecoveredPushes: s.recoveredPushes,
		DetectLatency:   s.detectLat,
		RepairLatency:   s.repairLat,
		Holds:           append([]Hold(nil), s.holds...),
	}
	for k := range s.quar {
		st.Quarantined = append(st.Quarantined, k)
	}
	sort.Slice(st.Quarantined, func(i, j int) bool {
		if st.Quarantined[i].Node != st.Quarantined[j].Node {
			return st.Quarantined[i].Node < st.Quarantined[j].Node
		}
		return st.Quarantined[i].Range < st.Quarantined[j].Range
	})
	for id := range s.departing {
		st.Departing = append(st.Departing, id)
	}
	sort.Strings(st.Departing)
	down, slow := s.det.Classified()
	st.Down, st.Slow = down, slow
	return st
}
