package cluster

import (
	"errors"
	"fmt"
)

// Control is the control plane's transition core: the one implementation of
// the epoch-versioned membership protocol, shared by the churn simulation
// and the real-TCP supervisor. It is deterministic and clock-free; the
// driver it runs under supplies every observation (health, usable copies)
// and every effect (journal writes, table pushes, range streams).
//
// A rebalance is a three-epoch transition. From stable epoch E:
//
//	E+1  transition — the table carries Cur and Next; nodes accept writes
//	     for the Cur∪Next union and serve reads on Cur. The core streams
//	     each moved range from a clean Cur owner to its new owner while
//	     both keep serving.
//	E+2  commit — Cur becomes Next; nodes drop ranges they no longer own.
//	     Abort instead returns to the old placement at a fresh epoch.
//
// Every table is journaled (SupJournal) before it is pushed, so a
// successor recovering from the journal never finds a node holding an
// epoch the journal does not record: it resumes a transition, finishes an
// interrupted push, or aborts — it never re-decides.
type Control struct {
	d       Driver
	table   *Table
	pending []Move
	decided *Table // a journaled commit/abort whose push never ran
	held    int    // consecutive ticks without progress
	dead    bool

	// Failpoint, when set, is consulted between journaling a decision and
	// pushing it ("commit-push", "abort-push"). Returning true kills the
	// core there, as a crash would; recovery from the journal finishes the
	// push.
	Failpoint func(point string) bool
}

// Driver is what the core needs from the world it runs in. Methods are
// called synchronously from the core's own calls.
type Driver interface {
	// Persist writes an encoded journal record durably.
	Persist(data []byte) error
	// Push installs a table on every node the driver manages. Nodes it
	// cannot reach catch up later (the driver's re-push or restart path).
	Push(t *Table)
	// Stream copies range mv.Range onto mv.Target from a clean Cur owner
	// of t. An error leaves the move pending.
	Stream(t *Table, mv Move) error
	// Registered reports whether the driver can manage node id.
	Registered(id string) bool
	// Healthy reports whether id can act in a transition now: alive,
	// answering, and not departing.
	Healthy(id string) bool
	// Usable reports whether id holds a clean copy of rng reads may trust.
	Usable(id string, rng int) bool
	// Written reports whether rng may hold acknowledged data.
	Written(rng int) bool
	// Quarantine marks a copy that must pass a verified repair before it
	// serves reads — the commit catch-up for moved copies.
	Quarantine(k DegKey)
}

// Tuning shared by both drivers.
const (
	// DefaultStepsPerTick is how many moves one Tick streams.
	DefaultStepsPerTick = 2
	// AbortAfterHeldTicks is how many consecutive ticks without progress a
	// transition survives before the core aborts it.
	AbortAfterHeldTicks = 16
)

// ErrControlCrashed is returned once a Failpoint has killed the core.
var ErrControlCrashed = errors.New("cluster: control plane crashed at failpoint")

// Recovery names what RecoverControl did with the journal it found.
type Recovery int

const (
	RecoveredStable Recovery = iota // re-pushed the committed table
	RecoveredResume                 // resumed an in-flight transition
	RecoveredAbort                  // aborted a transition it cannot resume
	RecoveredPush                   // finished an interrupted commit/abort push
)

// Report is what one Tick did, for the driver's holds and counters.
type Report struct {
	TargetDown []Move // re-queued: the target was not healthy
	Failed     []Move // re-queued: the stream failed
	Refused    error  // the commit guard's refusal, when every move streamed
	Committed  bool
	Aborted    bool
}

// NewControl starts a core at a stable ring, epoch 1, journaling and
// pushing it.
func NewControl(ring *Ring, d Driver) (*Control, error) {
	c := &Control{d: d, table: &Table{Epoch: 1, Cur: ring}}
	if err := c.record(c.table, nil, SupStable); err != nil {
		return nil, err
	}
	d.Push(c.table)
	return c, nil
}

// RecoverControl rebuilds a core from an encoded journal. A stable journal
// is re-pushed; a transition resumes (re-pushing its table) unless its
// target placement names a node the driver cannot manage, in which case it
// aborts at a fresh epoch; a push journal finishes installing the decided
// table and re-quarantines the moved copies it records.
func RecoverControl(data []byte, d Driver) (*Control, Recovery, error) {
	j, err := DecodeSupJournal(data)
	if err != nil {
		return nil, 0, err
	}
	t, pending, err := j.Table()
	if err != nil {
		return nil, 0, err
	}
	c := &Control{d: d, table: t, pending: pending}
	switch j.Phase {
	case SupPush:
		c.decided = t
		return c, RecoveredPush, c.finish(pending)
	case SupTransition:
		for _, m := range t.Next.Members() {
			if !d.Registered(m.ID) {
				return c, RecoveredAbort, c.Abort()
			}
		}
		d.Push(t)
		return c, RecoveredResume, nil
	default:
		d.Push(t)
		return c, RecoveredStable, nil
	}
}

// Table returns the current routing table — the last one pushed.
func (c *Control) Table() *Table { return c.table }

// Decided returns a commit or abort that was journaled but never pushed
// (the core died at a failpoint), or nil. Recovery will install it, so
// guards must already protect its owners.
func (c *Control) Decided() *Table { return c.decided }

// Rebalancing reports whether a membership transition is in flight.
func (c *Control) Rebalancing() bool { return !c.table.Stable() }

// PendingMoves returns the transfers the in-flight rebalance still owes.
func (c *Control) PendingMoves() []Move { return append([]Move(nil), c.pending...) }

// BeginJoin starts pulling registered member m into the ring.
func (c *Control) BeginJoin(m Member) error {
	if !c.d.Registered(m.ID) {
		return fmt.Errorf("cluster: joining node %q not registered", m.ID)
	}
	next, err := c.table.Cur.WithJoin(m)
	if err != nil {
		return err
	}
	return c.begin(next)
}

// BeginLeave starts a graceful departure: id keeps serving while its
// ranges stream to their new owners, and drains only after commit.
func (c *Control) BeginLeave(id string) error {
	next, err := c.table.Cur.WithLeave(id)
	if err != nil {
		return err
	}
	return c.begin(next)
}

func (c *Control) begin(next *Ring) error {
	if c.dead {
		return ErrControlCrashed
	}
	if c.Rebalancing() {
		return fmt.Errorf("cluster: rebalance already in flight")
	}
	t := &Table{Epoch: c.table.Epoch + 1, Cur: c.table.Cur, Next: next}
	pending := Moves(t.Cur, next)
	if err := c.record(t, pending, SupTransition); err != nil {
		return err
	}
	c.table, c.pending, c.held = t, pending, 0
	c.d.Push(t)
	return nil
}

// Tick advances an in-flight transition: stream up to steps pending moves
// (journaling after each), commit once none remain and the commit guard
// passes, and abort after AbortAfterHeldTicks ticks without progress. A
// move whose target is unhealthy or whose stream fails goes to the back of
// the queue.
func (c *Control) Tick(steps int) (Report, error) {
	var r Report
	if c.dead {
		return r, ErrControlCrashed
	}
	if !c.Rebalancing() {
		return r, nil
	}
	progressed := false
	for i := 0; i < steps && len(c.pending) > 0; i++ {
		mv := c.pending[0]
		c.pending = c.pending[1:]
		if !c.d.Healthy(mv.Target) {
			c.pending = append(c.pending, mv)
			r.TargetDown = append(r.TargetDown, mv)
			break
		}
		if err := c.d.Stream(c.table, mv); err != nil {
			c.pending = append(c.pending, mv)
			r.Failed = append(r.Failed, mv)
			continue
		}
		progressed = true
		if err := c.record(c.table, c.pending, SupTransition); err != nil {
			return r, err
		}
	}
	if len(c.pending) == 0 {
		if r.Refused = c.CommitGuard(); r.Refused == nil {
			err := c.commit()
			r.Committed = err == nil
			return r, err
		}
	}
	if progressed {
		c.held = 0
		return r, nil
	}
	if c.held++; c.held > AbortAfterHeldTicks {
		err := c.Abort()
		r.Aborted = err == nil
		return r, err
	}
	return r, nil
}

// CommitGuard is the one commit-safety rule, returning why the in-flight
// transition may not commit yet (nil: it may). Every move must have
// streamed; every Next member must be healthy and staying; and every
// written range must keep a usable Next owner that is not a move target
// of this transition — commit quarantines the moved copies for catch-up,
// so a range served only by them would have no clean copy left.
func (c *Control) CommitGuard() error {
	if !c.Rebalancing() {
		return fmt.Errorf("cluster: no rebalance to commit")
	}
	if len(c.pending) > 0 {
		return fmt.Errorf("cluster: %d moves still pending", len(c.pending))
	}
	next := c.table.Next
	for _, m := range next.Members() {
		if !c.d.Healthy(m.ID) {
			return fmt.Errorf("cluster: next member %q not healthy", m.ID)
		}
	}
	moved := make(map[DegKey]bool)
	for _, mv := range Moves(c.table.Cur, next) {
		moved[DegKey{mv.Target, mv.Range}] = true
	}
	for rng := 0; rng < next.Ranges; rng++ {
		if !c.d.Written(rng) {
			continue
		}
		ok := false
		for _, id := range next.Owners(rng) {
			if !moved[DegKey{id, rng}] && c.d.Usable(id, rng) {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("cluster: range %d keeps no usable unmoved owner under the next placement", rng)
		}
	}
	return nil
}

// Commit finishes the rebalance once the commit guard passes: the new
// placement becomes Cur at a fresh epoch and every moved copy is
// quarantined until a verified repair confirms it.
func (c *Control) Commit() error {
	if c.dead {
		return ErrControlCrashed
	}
	if err := c.CommitGuard(); err != nil {
		return err
	}
	return c.commit()
}

func (c *Control) commit() error {
	t := &Table{Epoch: c.table.Epoch + 1, Cur: c.table.Next}
	return c.decide(t, Moves(c.table.Cur, c.table.Next), "commit-push")
}

// Abort cancels an in-flight rebalance, returning to the old placement at
// a fresh epoch. Ranges already streamed stay on their targets as garbage
// the old ring never routes to.
func (c *Control) Abort() error {
	if c.dead {
		return ErrControlCrashed
	}
	if !c.Rebalancing() {
		return fmt.Errorf("cluster: no rebalance to abort")
	}
	return c.decide(&Table{Epoch: c.table.Epoch + 1, Cur: c.table.Cur}, nil, "abort-push")
}

// decide journals a commit or abort as a push record, then installs it —
// unless the failpoint kills the core in between, leaving the push to
// recovery.
func (c *Control) decide(t *Table, moved []Move, point string) error {
	if err := c.record(t, moved, SupPush); err != nil {
		return err
	}
	c.decided = t
	if c.Failpoint != nil && c.Failpoint(point) {
		c.dead = true
		return ErrControlCrashed
	}
	return c.finish(moved)
}

// finish installs the decided table, quarantines the moved copies, and
// journals the stable state. Re-running it is idempotent.
func (c *Control) finish(moved []Move) error {
	c.table, c.pending, c.decided, c.held = c.decided, nil, nil, 0
	c.d.Push(c.table)
	for _, mv := range moved {
		c.d.Quarantine(DegKey{mv.Target, mv.Range})
	}
	return c.record(c.table, nil, SupStable)
}

// record encodes and persists one journal record.
func (c *Control) record(t *Table, pending []Move, phase SupPhase) error {
	data, err := SnapshotSupJournal(t, pending, phase).Encode()
	if err != nil {
		return err
	}
	return c.d.Persist(data)
}
