package cluster

// Supervised simulation: the same deterministic churn schedule and the same
// control-plane core, but the supervisor running it can itself die and
// restart — including at the worst spot, between journaling a commit and
// pushing it. A dead supervisor's core stops ticking; its successor is a
// fresh core recovered from the in-memory journal (RecoverControl), exactly
// as the daemon recovers from its journal file: resume a transition, or
// finish an interrupted push.
//
// The composed-failure matrix rides on the seed class (Seed % 3):
//
//	0  supervisor death mid-commit — every commit decision crashes the
//	   supervisor after the journal write, before the push.
//	1  node crash during repair during rebalance — while moves are in
//	   flight and copies are quarantined, members keep fail-stopping.
//	2  fail-slow head during join — range heads degrade while a joiner
//	   is being pulled in.
//
// Background supervisor kills and restarts run in every class on top of
// the forced scenario. All chaos remains guarded, so zero failed ops and
// zero lost writes stay absolute invariants even while the control plane
// is dead.

// simSup injects the supervisor's own faults around the shared core.
type simSup struct {
	s     *sim
	alive bool

	// crashAtCommit arms the mid-commit failpoint: the next commit
	// decision journals, then dies before pushing.
	crashAtCommit bool
}

func newSimSup(s *sim) *simSup {
	p := &simSup{s: s, alive: true}
	s.ctrl.Failpoint = p.failpoint
	return p
}

func (p *simSup) failpoint(point string) bool {
	if point != "commit-push" || !p.crashAtCommit {
		return false
	}
	p.crashAtCommit = false
	return true
}

// crashed books a failpoint death: nodes stay on the transition epoch
// (union writes, reads on Cur) until a successor recovers the journal and
// finishes the push.
func (p *simSup) crashed() {
	p.alive = false
	p.s.res.SupKills++
	p.s.res.MidCommitCrashes++
}

// kill fail-stops the supervisor between ticks. Only the journal survives.
func (p *simSup) kill() {
	if !p.alive {
		return
	}
	p.alive = false
	p.crashAtCommit = false
	p.s.res.SupKills++
}

// restart recovers a fresh core from the journal.
func (p *simSup) restart() {
	if p.alive {
		return
	}
	s := p.s
	ctrl, rec, err := RecoverControl(s.drv.journal, s.drv)
	if err != nil {
		panic("cluster: sim supervisor recovery: " + err.Error())
	}
	ctrl.Failpoint = p.failpoint
	s.ctrl = ctrl
	p.alive = true
	s.res.SupRestarts++
	switch rec {
	case RecoveredResume:
		s.res.SupResumes++
	case RecoveredPush:
		s.res.SupRecoverPushes++
	}
	s.settle()
}

// chaos runs the supervisor-layer fault injection for this tick: the
// seed-class composed scenario plus background supervisor kills and
// restarts.
func (p *simSup) chaos() {
	s := p.s
	if !p.alive {
		// A dead control plane usually comes back; sometimes it stays down
		// a while longer, leaving the data plane to ride on its own.
		if s.rng.Intn(3) != 0 {
			p.restart()
		}
		return
	}
	switch s.cfg.Seed % 3 {
	case 0: // supervisor death mid-commit
		if s.ctrl.Rebalancing() {
			p.crashAtCommit = true
		}
	case 1: // node crash during repair during rebalance
		if s.ctrl.Rebalancing() && s.client.DegradedCount() > 0 {
			s.composedKill()
		}
	case 2: // fail-slow head during join
		if s.joining != "" {
			s.composedSlowHead()
		}
	}
	if s.rng.Intn(12) == 0 {
		p.kill()
	}
}

// composedKill fail-stops a member specifically while a rebalance and a
// repair are both in flight — the guarded triple-fault of scenario 1.
func (s *sim) composedKill() {
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
	s.res.RepairRebalanceCrashes++
}

// composedSlowHead degrades the link of an acknowledged range's head owner
// while a join is pulling data through it — scenario 2's fail-slow.
func (s *sim) composedSlowHead() {
	if len(s.ackedList) == 0 {
		return
	}
	rng := s.ackedList[s.rng.Intn(len(s.ackedList))]
	owners := s.ctrl.Table().Cur.Owners(rng)
	if len(owners) == 0 {
		return
	}
	head := owners[0]
	if nd := s.net.nodes[head]; nd == nil || !nd.alive {
		return
	}
	s.net.Link(head).Degrade(float64(10 + s.rng.Intn(20)))
	s.slowed = append(s.slowed, head)
	s.res.Degrades++
	s.res.SlowJoinHeads++
}
