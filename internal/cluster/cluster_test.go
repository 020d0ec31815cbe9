package cluster

import (
	"bytes"
	"errors"
	"testing"

	"srccache/internal/netlink"
	"srccache/internal/vtime"
)

// testCluster wires a small fleet for scenario tests.
type testCluster struct {
	net    *Net
	ctrl   *Control
	client *Client
}

func newTestCluster(t *testing.T, nodes, replicas, ranges int) *testCluster {
	t.Helper()
	n, err := NewNet(netlink.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var ms []Member
	for i := 0; i < nodes; i++ {
		id := string(rune('a' + i))
		if _, err := NewNode(n, id); err != nil {
			t.Fatal(err)
		}
		ms = append(ms, Member{ID: id})
	}
	ring, err := NewRing(replicas, ranges, 4096, ms)
	if err != nil {
		t.Fatal(err)
	}
	drv := &simDriver{net: n}
	ctrl, err := NewControl(ring, drv)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := NewClient(n, ctrl.Table, nil)
	if err != nil {
		t.Fatal(err)
	}
	drv.client = cli
	return &testCluster{net: n, ctrl: ctrl, client: cli}
}

func (tc *testCluster) node(id string) *Node { return tc.net.nodes[id] }

// restart revives a killed node at the current epoch.
func (tc *testCluster) restart(id string) {
	tc.node(id).Restart()
	tc.node(id).SetTable(tc.ctrl.Table())
}

// step ticks the core one move forward; the tick that streams the last
// move also commits. Any held move or refused commit fails the test.
func (tc *testCluster) step(t *testing.T) {
	t.Helper()
	r, err := tc.ctrl.Tick(1)
	if err != nil || len(r.TargetDown)+len(r.Failed) > 0 || r.Refused != nil {
		t.Fatalf("tick: %v %+v", err, r)
	}
}

func (tc *testCluster) write(t *testing.T, off int64, p []byte) {
	t.Helper()
	if err := tc.client.WriteAt(p, off); err != nil {
		t.Fatalf("WriteAt(%d): %v", off, err)
	}
}

func (tc *testCluster) readBack(t *testing.T, off int64, want []byte) {
	t.Helper()
	got := make([]byte, len(want))
	if err := tc.client.ReadAt(got, off); err != nil {
		t.Fatalf("ReadAt(%d): %v", off, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("ReadAt(%d) = %q, want %q", off, got[:16], want[:16])
	}
}

func TestClusterWriteReadAcrossRanges(t *testing.T) {
	tc := newTestCluster(t, 3, 2, 8)
	p := bytes.Repeat([]byte("0123456789abcdef"), 512) // 8 KiB: spans 2 ranges
	tc.write(t, 2048, p)
	tc.readBack(t, 2048, p)
	// Every write owner applied: no partial writes, nothing quarantined.
	if s := tc.client.Stats(); s.PartialWrites != 0 || tc.client.DegradedCount() != 0 {
		t.Fatalf("healthy write was partial: %+v, %d degraded", s, tc.client.DegradedCount())
	}
	if err := tc.client.ReadAt(make([]byte, 1), tc.ctrl.Table().Cur.Size()); err == nil {
		t.Fatal("read past end of volume accepted")
	}
}

func TestClusterReplicasByteIdentical(t *testing.T) {
	tc := newTestCluster(t, 3, 3, 4)
	p := bytes.Repeat([]byte{0xAB}, 4096)
	tc.write(t, 0, p)
	owners := tc.ctrl.Table().Cur.Owners(0)
	if len(owners) != 3 {
		t.Fatalf("owners = %v", owners)
	}
	want, ok := tc.node(owners[0]).HashRange(0)
	if !ok {
		t.Fatal("head holds no data")
	}
	for _, id := range owners[1:] {
		got, ok := tc.node(id).HashRange(0)
		if !ok || got != want {
			t.Fatalf("replica %s diverges after chain write", id)
		}
	}
}

func TestClusterReadFailsOverWhenHeadDies(t *testing.T) {
	tc := newTestCluster(t, 3, 2, 4)
	p := bytes.Repeat([]byte{7}, 1024)
	tc.write(t, 0, p)
	head := tc.ctrl.Table().Cur.Owners(0)[0]
	tc.node(head).Kill()
	tc.readBack(t, 0, p)
	if s := tc.client.Stats(); s.Failovers == 0 {
		t.Fatal("read served without recorded failover despite a dead head")
	}
}

func TestClusterWriteSkipsDeadReplicaAndRepairHeals(t *testing.T) {
	tc := newTestCluster(t, 3, 2, 4)
	owners := tc.ctrl.Table().Cur.Owners(0)
	tail := owners[1]
	tc.node(tail).Kill()

	p := bytes.Repeat([]byte{9}, 2048)
	tc.write(t, 0, p) // acks on the head alone
	if !tc.client.Degraded(tail, 0) {
		t.Fatal("replica that missed the write not quarantined")
	}
	if s := tc.client.Stats(); s.PartialWrites != 1 {
		t.Fatalf("PartialWrites = %d", s.PartialWrites)
	}
	tc.readBack(t, 0, p)

	// Rejoin: restart resyncs the table; anti-entropy streams the range
	// back until byte-identical, then lifts the quarantine.
	tc.restart(tail)
	healed, err := tc.client.Repair()
	if err != nil {
		t.Fatal(err)
	}
	if healed != 1 || tc.client.DegradedCount() != 0 {
		t.Fatalf("Repair healed %d, %d still degraded", healed, tc.client.DegradedCount())
	}
	a, _ := tc.node(owners[0]).HashRange(0)
	b, ok := tc.node(tail).HashRange(0)
	if !ok || a != b {
		t.Fatal("rejoined replica not byte-identical after repair")
	}
}

func TestClusterNoReplicaIsHardError(t *testing.T) {
	tc := newTestCluster(t, 2, 2, 2)
	p := []byte("xx")
	tc.write(t, 0, p)
	for _, id := range tc.ctrl.Table().Cur.Owners(0) {
		tc.node(id).Kill()
	}
	if err := tc.client.ReadAt(make([]byte, 2), 0); !errors.Is(err, ErrNoReplica) {
		t.Fatalf("read with all replicas dead = %v, want ErrNoReplica", err)
	}
	if err := tc.client.WriteAt(p, 0); !errors.Is(err, ErrNoReplica) {
		t.Fatalf("write with all replicas dead = %v, want ErrNoReplica", err)
	}
}

func TestClusterStaleEpochTriggersRefetch(t *testing.T) {
	tc := newTestCluster(t, 4, 2, 8)
	p := []byte("epoch")
	tc.write(t, 0, p)

	// Bump the epoch behind the client's back: the next op is rejected with
	// ErrStaleEpoch, refetches, and succeeds at the new epoch.
	if err := tc.ctrl.BeginLeave(tc.ctrl.Table().Cur.Members()[3].ID); err != nil {
		t.Fatal(err)
	}
	for tc.ctrl.Rebalancing() {
		tc.step(t)
	}
	before := tc.client.Stats().Refetches
	tc.readBack(t, 0, p)
	if tc.client.Stats().Refetches != before+1 {
		t.Fatalf("Refetches went %d -> %d across an epoch bump", before, tc.client.Stats().Refetches)
	}
	if tc.client.Table().Epoch != tc.ctrl.Table().Epoch {
		t.Fatal("client table still stale after refetch")
	}
}

func TestClusterReadsRouteAroundFailSlow(t *testing.T) {
	tc := newTestCluster(t, 3, 2, 1)
	p := bytes.Repeat([]byte{3}, 512)
	tc.write(t, 0, p)
	owners := tc.ctrl.Table().Cur.Owners(0)
	head := owners[0]

	// Make the head fail-slow and let the detector see it via ping sweeps.
	tc.net.Link(head).Degrade(50)
	for i := 0; i < 6; i++ {
		tc.client.PingAll()
	}
	if st := tc.client.Detector().State(head); st != Slow {
		t.Fatalf("detector sees head as %v after degrade", st)
	}
	_, slow := tc.client.Detector().Classified()
	if len(slow) != 1 || slow[0] != head {
		t.Fatalf("Classified slow = %v", slow)
	}

	r0, _, _, _ := tc.node(owners[1]).Stats()
	tc.readBack(t, 0, p)
	r1, _, _, _ := tc.node(owners[1]).Stats()
	if r1 != r0+1 {
		t.Fatal("read did not route around the fail-slow head")
	}
}

func TestClusterJoinRebalanceServesThroughout(t *testing.T) {
	tc := newTestCluster(t, 3, 2, 8)
	nd, err := NewNode(tc.net, "x")
	if err != nil {
		t.Fatal(err)
	}
	nd.SetTable(tc.ctrl.Table())

	payload := func(b byte) []byte { return bytes.Repeat([]byte{b}, 4096) }
	for rng := 0; rng < 8; rng++ {
		tc.write(t, int64(rng)*4096, payload(byte(rng+1)))
	}
	if err := tc.ctrl.BeginJoin(Member{ID: "x"}); err != nil {
		t.Fatal(err)
	}
	// Quarantine the join target for every acknowledged range it now
	// write-owns, exactly as the harness does, until each range streams.
	for _, mv := range tc.ctrl.PendingMoves() {
		tc.client.MarkDegraded(mv.Target, mv.Range)
	}
	moved := len(tc.ctrl.PendingMoves())
	if moved == 0 {
		t.Fatal("join moved nothing")
	}
	// Serve while streaming: writes go to the union, reads stay on Cur.
	step := 0
	for tc.ctrl.Rebalancing() {
		tc.step(t)
		rng := step % 8
		tc.write(t, int64(rng)*4096, payload(byte(0x80+step)))
		tc.readBack(t, int64(rng)*4096, payload(byte(0x80+step)))
		step++
	}
	if tc.client.DegradedCount() != 0 {
		t.Fatalf("%d copies still quarantined after commit", tc.client.DegradedCount())
	}
	// The new node now serves reads for the ranges it owns, byte-identical.
	for rng := 0; rng < 8; rng++ {
		owners := tc.ctrl.Table().Cur.Owners(rng)
		want, _ := tc.node(owners[0]).HashRange(rng)
		for _, id := range owners[1:] {
			got, ok := tc.node(id).HashRange(rng)
			if !ok || got != want {
				t.Fatalf("range %d replica %s diverges after join", rng, id)
			}
		}
	}
}

func TestClusterLeaveDrainsNode(t *testing.T) {
	tc := newTestCluster(t, 4, 2, 8)
	p := bytes.Repeat([]byte{5}, 4096)
	for rng := 0; rng < 8; rng++ {
		tc.write(t, int64(rng)*4096, p)
	}
	leaver := tc.ctrl.Table().Cur.Members()[0].ID
	if err := tc.ctrl.BeginLeave(leaver); err != nil {
		t.Fatal(err)
	}
	for _, mv := range tc.ctrl.PendingMoves() {
		tc.client.MarkDegraded(mv.Target, mv.Range)
	}
	for tc.ctrl.Rebalancing() {
		tc.step(t)
	}
	nd := tc.node(leaver)
	if !nd.Draining() {
		t.Fatal("left node not draining")
	}
	if len(nd.data) != 0 {
		t.Fatalf("left node still holds %d ranges", len(nd.data))
	}
	for rng := 0; rng < 8; rng++ {
		tc.readBack(t, int64(rng)*4096, p)
		if tc.ctrl.Table().Cur.OwnedBy(rng, leaver) {
			t.Fatalf("range %d still owned by leaver", rng)
		}
	}
}

func TestClusterWipeRestartRoundTripsThroughRepair(t *testing.T) {
	tc := newTestCluster(t, 3, 2, 4)
	var payloads [4][]byte
	for rng := 0; rng < 4; rng++ {
		payloads[rng] = bytes.Repeat([]byte{byte(0x10 + rng)}, 4096)
		tc.write(t, int64(rng)*4096, payloads[rng])
	}
	victim := tc.ctrl.Table().Cur.Members()[1].ID
	tc.node(victim).Wipe()
	for rng := 0; rng < 4; rng++ {
		if tc.ctrl.Table().writeOwned(rng, victim) {
			tc.client.MarkDegraded(victim, rng)
		}
	}
	// Reads never touch the wiped copies, and repair restores them to
	// byte-identical contents.
	for rng := 0; rng < 4; rng++ {
		tc.readBack(t, int64(rng)*4096, payloads[rng])
	}
	if _, err := tc.client.Repair(); err != nil {
		t.Fatal(err)
	}
	if tc.client.DegradedCount() != 0 {
		t.Fatalf("%d copies quarantined after repair", tc.client.DegradedCount())
	}
	for rng := 0; rng < 4; rng++ {
		owners := tc.ctrl.Table().Cur.Owners(rng)
		want, _ := tc.node(owners[0]).HashRange(rng)
		for _, id := range owners[1:] {
			got, ok := tc.node(id).HashRange(rng)
			if !ok || got != want {
				t.Fatalf("range %d replica %s diverges after wipe+repair", rng, id)
			}
		}
	}
}

func TestClusterPartitionedReplicaQuarantinedOnWrite(t *testing.T) {
	tc := newTestCluster(t, 3, 2, 1)
	owners := tc.ctrl.Table().Cur.Owners(0)
	head, tail := owners[0], owners[1]
	tc.net.Partition(head, tail) // chain forward path cut, client fine

	p := bytes.Repeat([]byte{1}, 512)
	tc.write(t, 0, p)
	if !tc.client.Degraded(tail, 0) {
		t.Fatal("replica behind a partition not quarantined after missed write")
	}
	tc.readBack(t, 0, p)
	tc.net.Heal(head, tail)
	if _, err := tc.client.Repair(); err != nil {
		t.Fatal(err)
	}
	if tc.client.Degraded(tail, 0) {
		t.Fatal("quarantine survived repair")
	}
	tc.readBack(t, 0, p)
}

func TestClusterUnreachableCostsVirtualTime(t *testing.T) {
	tc := newTestCluster(t, 2, 2, 1)
	tc.write(t, 0, []byte("t"))
	head := tc.ctrl.Table().Cur.Owners(0)[0]
	tc.node(head).Kill()
	before := tc.net.Now()
	tc.readBack(t, 0, []byte("t"))
	if elapsed := tc.net.Now().Sub(before); elapsed < unreachableTimeout {
		t.Fatalf("failover read took %v, less than one unreachable timeout %v", elapsed, unreachableTimeout)
	}
	if vtime.Duration(tc.net.Now()) == 0 {
		t.Fatal("virtual clock never advanced")
	}
}
