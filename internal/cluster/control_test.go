package cluster

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// fakeDriver is a scripted world for the control-plane core: every
// observation is a lookup, every effect a recorded call.
type fakeDriver struct {
	journal     []byte
	pushed      []*Table
	streamed    []Move
	quarantined []DegKey

	unregistered map[string]bool
	unhealthy    map[string]bool
	unusable     map[DegKey]bool
	unwritten    map[int]bool
}

func newFakeDriver() *fakeDriver {
	return &fakeDriver{
		unregistered: map[string]bool{},
		unhealthy:    map[string]bool{},
		unusable:     map[DegKey]bool{},
		unwritten:    map[int]bool{},
	}
}

func (d *fakeDriver) Persist(data []byte) error {
	d.journal = append([]byte(nil), data...)
	return nil
}
func (d *fakeDriver) Push(t *Table) { d.pushed = append(d.pushed, t) }
func (d *fakeDriver) Stream(_ *Table, mv Move) error {
	d.streamed = append(d.streamed, mv)
	return nil
}
func (d *fakeDriver) Registered(id string) bool      { return !d.unregistered[id] }
func (d *fakeDriver) Healthy(id string) bool         { return !d.unhealthy[id] }
func (d *fakeDriver) Usable(id string, rng int) bool { return !d.unusable[DegKey{id, rng}] }
func (d *fakeDriver) Written(rng int) bool           { return !d.unwritten[rng] }
func (d *fakeDriver) Quarantine(k DegKey)            { d.quarantined = append(d.quarantined, k) }

func (d *fakeDriver) lastPush(t *testing.T) *Table {
	t.Helper()
	if len(d.pushed) == 0 {
		t.Fatal("nothing pushed")
	}
	return d.pushed[len(d.pushed)-1]
}

func (d *fakeDriver) journaled(t *testing.T) SupJournal {
	t.Helper()
	j, err := DecodeSupJournal(d.journal)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// controlRings is a 4-member, 2-way ring and its successor with "e" joined.
func controlRings(t *testing.T) (*Ring, *Ring) {
	t.Helper()
	var ms []Member
	for _, id := range []string{"a", "b", "c", "d"} {
		ms = append(ms, Member{ID: id, Addr: id + ":1"})
	}
	cur, err := NewRing(2, 16, 4096, ms)
	if err != nil {
		t.Fatal(err)
	}
	next, err := cur.WithJoin(Member{ID: "e", Addr: "e:1"})
	if err != nil {
		t.Fatal(err)
	}
	return cur, next
}

// joining starts a core and begins joining "e".
func joining(t *testing.T, d *fakeDriver) *Control {
	t.Helper()
	cur, _ := controlRings(t)
	c, err := NewControl(cur, d)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.BeginJoin(Member{ID: "e", Addr: "e:1"}); err != nil {
		t.Fatal(err)
	}
	return c
}

func movedKeys(moves []Move) []DegKey {
	var keys []DegKey
	for _, mv := range moves {
		keys = append(keys, DegKey{mv.Target, mv.Range})
	}
	return keys
}

// TestControlCommitPushesEveryTable: begin journals and pushes the
// transition table itself, and the commit lands two epochs up with every
// moved copy quarantined for catch-up.
func TestControlCommitPushesEveryTable(t *testing.T) {
	d := newFakeDriver()
	c := joining(t, d)
	if got := d.lastPush(t); got.Epoch != 2 || got.Stable() {
		t.Fatalf("begin pushed %+v, want the epoch-2 transition table", got)
	}
	if j := d.journaled(t); j.Phase != SupTransition || j.Epoch != 2 {
		t.Fatalf("begin journaled %+v", j)
	}
	moves := c.PendingMoves()
	if len(moves) == 0 {
		t.Fatal("join moved nothing")
	}
	for c.Rebalancing() {
		if _, err := c.Tick(DefaultStepsPerTick); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Table(); got.Epoch != 3 || !got.Stable() || d.lastPush(t) != got {
		t.Fatalf("commit table %+v not pushed at epoch 3", got)
	}
	if _, ok := c.Table().Cur.Member("e"); !ok {
		t.Fatal("joiner missing after commit")
	}
	if !reflect.DeepEqual(d.streamed, moves) {
		t.Fatalf("streamed %v, want %v", d.streamed, moves)
	}
	if !reflect.DeepEqual(d.quarantined, movedKeys(moves)) {
		t.Fatalf("quarantined %v, want the moved set", d.quarantined)
	}
	if j := d.journaled(t); j.Phase != SupStable || j.Epoch != 3 {
		t.Fatalf("final journal %+v", j)
	}
}

// TestControlRecoverFromJournal recovers from each journal shape a crash
// can leave behind.
func TestControlRecoverFromJournal(t *testing.T) {
	cur, next := controlRings(t)
	moves := Moves(cur, next)
	cases := []struct {
		name string
		// journal produces the journal a dead predecessor left.
		journal        func(t *testing.T) []byte
		unregistered   string
		want           Recovery
		epoch          uint64
		rebalancing    bool
		joined         bool
		wantQuarantine []DegKey
	}{
		{
			name: "stable",
			journal: func(t *testing.T) []byte {
				d := newFakeDriver()
				if _, err := NewControl(cur, d); err != nil {
					t.Fatal(err)
				}
				return d.journal
			},
			want: RecoveredStable, epoch: 1,
		},
		{
			name: "transition resumes",
			journal: func(t *testing.T) []byte {
				d := newFakeDriver()
				joining(t, d)
				return d.journal
			},
			want: RecoveredResume, epoch: 2, rebalancing: true,
		},
		{
			name: "transition naming an unregistered member aborts",
			journal: func(t *testing.T) []byte {
				d := newFakeDriver()
				joining(t, d)
				return d.journal
			},
			unregistered: "e",
			want:         RecoveredAbort, epoch: 3,
		},
		{
			name: "push after commit",
			journal: func(t *testing.T) []byte {
				d := newFakeDriver()
				c := joining(t, d)
				c.Failpoint = func(p string) bool { return p == "commit-push" }
				var err error
				for err == nil && c.Rebalancing() {
					_, err = c.Tick(DefaultStepsPerTick)
				}
				if !errors.Is(err, ErrControlCrashed) {
					t.Fatalf("commit failpoint did not fire: %v", err)
				}
				if dec := c.Decided(); dec == nil || dec.Epoch != 3 {
					t.Fatalf("decided %+v", dec)
				}
				return d.journal
			},
			want: RecoveredPush, epoch: 3, joined: true, wantQuarantine: movedKeys(moves),
		},
		{
			name: "push after abort",
			journal: func(t *testing.T) []byte {
				d := newFakeDriver()
				c := joining(t, d)
				c.Failpoint = func(p string) bool { return p == "abort-push" }
				if err := c.Abort(); !errors.Is(err, ErrControlCrashed) {
					t.Fatalf("abort failpoint did not fire: %v", err)
				}
				if _, err := c.Tick(1); !errors.Is(err, ErrControlCrashed) {
					t.Fatalf("dead core ticked: %v", err)
				}
				return d.journal
			},
			want: RecoveredPush, epoch: 3,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.journal(t)
			d := newFakeDriver()
			if tc.unregistered != "" {
				d.unregistered[tc.unregistered] = true
			}
			c, rec, err := RecoverControl(data, d)
			if err != nil {
				t.Fatal(err)
			}
			if rec != tc.want {
				t.Fatalf("recovery %v, want %v", rec, tc.want)
			}
			got := c.Table()
			if got.Epoch != tc.epoch || c.Rebalancing() != tc.rebalancing {
				t.Fatalf("recovered table epoch %d rebalancing %v", got.Epoch, c.Rebalancing())
			}
			if d.lastPush(t) != got {
				t.Fatal("recovered table not pushed")
			}
			if _, ok := got.Cur.Member("e"); ok != tc.joined {
				t.Fatalf("joiner in Cur = %v, want %v", ok, tc.joined)
			}
			if tc.rebalancing && !reflect.DeepEqual(c.PendingMoves(), moves) {
				t.Fatalf("resumed pending %v, want %v", c.PendingMoves(), moves)
			}
			if !reflect.DeepEqual(d.quarantined, tc.wantQuarantine) {
				t.Fatalf("quarantined %v, want %v", d.quarantined, tc.wantQuarantine)
			}
			// Stable and resumed journals need no rewrite; every decision
			// recovery completes ends journaled stable at its epoch.
			if d.journal != nil {
				if j := d.journaled(t); j.Epoch != tc.epoch || j.Phase != SupStable {
					t.Fatalf("recovery journaled %+v", j)
				}
			}
		})
	}
}

// TestControlCommitGuardRefusals covers each reason the one commit guard
// holds a transition back.
func TestControlCommitGuardRefusals(t *testing.T) {
	t.Run("pending move", func(t *testing.T) {
		c := joining(t, newFakeDriver())
		if err := c.CommitGuard(); err == nil || !strings.Contains(err.Error(), "pending") {
			t.Fatalf("guard = %v", err)
		}
		if err := c.Commit(); err == nil {
			t.Fatal("commit accepted with moves pending")
		}
	})
	t.Run("unhealthy next member", func(t *testing.T) {
		d := newFakeDriver()
		c := joining(t, d)
		d.unhealthy["a"] = true // not a move target: every move still streams
		r, err := c.Tick(len(c.PendingMoves()))
		if err != nil {
			t.Fatal(err)
		}
		if r.Committed || r.Refused == nil || !strings.Contains(r.Refused.Error(), `"a" not healthy`) {
			t.Fatalf("tick %+v", r)
		}
		delete(d.unhealthy, "a")
		if r, err := c.Tick(1); err != nil || !r.Committed {
			t.Fatalf("healed tick %+v, %v", r, err)
		}
	})
	t.Run("only usable owner is a move target", func(t *testing.T) {
		d := newFakeDriver()
		c := joining(t, d)
		mv := c.PendingMoves()[0]
		_, next := controlRings(t)
		for _, id := range next.Owners(mv.Range) {
			if id != mv.Target {
				d.unusable[DegKey{id, mv.Range}] = true
			}
		}
		r, err := c.Tick(len(c.PendingMoves()))
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("range %d keeps no usable unmoved owner", mv.Range)
		if r.Committed || r.Refused == nil || !strings.Contains(r.Refused.Error(), want) {
			t.Fatalf("tick %+v", r)
		}
		// A range nothing was ever written to needs no clean copy.
		d.unwritten[mv.Range] = true
		if err := c.CommitGuard(); err != nil {
			t.Fatalf("guard on unwritten range = %v", err)
		}
	})
}

// TestControlAbortsAfterHeldTicks: a transition that cannot progress is
// abandoned at a fresh epoch on the old placement.
func TestControlAbortsAfterHeldTicks(t *testing.T) {
	d := newFakeDriver()
	c := joining(t, d)
	d.unhealthy["e"] = true
	for i := 0; i < AbortAfterHeldTicks; i++ {
		r, err := c.Tick(DefaultStepsPerTick)
		if err != nil || r.Aborted || len(r.TargetDown) != 1 {
			t.Fatalf("held tick %d: %+v, %v", i, r, err)
		}
	}
	r, err := c.Tick(DefaultStepsPerTick)
	if err != nil || !r.Aborted {
		t.Fatalf("tick past the hold budget: %+v, %v", r, err)
	}
	if got := c.Table(); got.Epoch != 3 || !got.Stable() || d.lastPush(t) != got {
		t.Fatalf("abort table %+v", got)
	}
	if _, ok := c.Table().Cur.Member("e"); ok || len(d.quarantined) != 0 {
		t.Fatal("abort kept the joiner or quarantined copies")
	}
}

// TestControlRecoversV1Journal: a journal as the v1 encoder wrote it
// before the core existed still resumes, byte for byte.
func TestControlRecoversV1Journal(t *testing.T) {
	const v1 = "srccache-supervisor-journal/v1\nphase transition\nepoch 2\ngeometry 2 16 4096\n" +
		"cur a=a:1 b=b:1 c=c:1 d=d:1\nnext a=a:1 b=b:1 c=c:1 d=d:1 e=e:1\npending 3=e 5=e 6=e 9=e 10=e 14=e\n"
	d := newFakeDriver()
	c, rec, err := RecoverControl([]byte(v1), d)
	if err != nil || rec != RecoveredResume {
		t.Fatalf("recover = %v, %v", rec, err)
	}
	cur, next := controlRings(t)
	if want := Moves(cur, next)[1:]; !reflect.DeepEqual(c.PendingMoves(), want) {
		t.Fatalf("pending %v, want %v", c.PendingMoves(), want)
	}
	data, err := SnapshotSupJournal(c.Table(), c.PendingMoves(), SupTransition).Encode()
	if err != nil || string(data) != v1 {
		t.Fatalf("re-encoded journal differs:\n%q", data)
	}
}
