// Scaleout: the paper's §6 roadmap item — "expand or contract the number
// of SSDs in RAID-5 in a smooth and seamless manner" — exercised end to
// end, at both tiers where the repository can grow.
//
// Act one scales the array inside one node: a 3-drive SRC array runs a
// skewed workload, is expanded to 5 drives under content verification, then
// contracted back to 3, with no data lost at any step.
//
// Act two scales the fleet across nodes: three live netblock servers on
// loopback form a consistent-hash ring with 2-way chained replication, a
// node is killed (reads and writes fail over), restarted with a wiped disk
// (anti-entropy repair restores byte-identical contents), and a fourth node
// joins with a graceful rebalance streaming its ranges while the old owners
// keep serving — node loss as column loss writ large.
//
// Act three replays act two's faults with nobody at the keyboard: a
// supervisor daemon owns the routing table, detects the kill from its own
// ping latencies, quarantines the stale replica, repairs it hash-verified
// once the node returns, and runs the join rebalance through its
// crash-safe journal — the client only reads and writes.
//
// -small shrinks the acts for CI smoke runs.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"srccache"
	"srccache/internal/cluster"
	"srccache/internal/cluster/fleet"
	"srccache/internal/cluster/supervisor"
	"srccache/internal/netblock"
)

const (
	ssdCap  = 64 << 20
	egs     = 4 << 20
	primCap = 512 << 20
)

func main() {
	small := flag.Bool("small", false, "shrink the workload for CI smoke runs")
	flag.Parse()
	if err := runArray(*small); err != nil {
		log.Fatal(err)
	}
	if err := runFleet(*small); err != nil {
		log.Fatal(err)
	}
	if err := runSupervised(*small); err != nil {
		log.Fatal(err)
	}
}

func runArray(small bool) error {
	span := int64(24000) // working-set pages, beyond one array's capacity
	warm, extra := 20000, 10000
	if small {
		span, warm, extra = 6000, 4000, 2000
	}
	mkDrive := func(name string) (srccache.Device, error) {
		cfg := srccache.SATAMLCConfig(name, ssdCap)
		cfg.EraseGroupSize = egs
		cfg.WriteCacheBytes = 4 << 20
		return srccache.NewSSD(cfg)
	}
	drives := make([]srccache.Device, 3)
	for i := range drives {
		d, err := mkDrive(fmt.Sprintf("ssd%d", i))
		if err != nil {
			return err
		}
		drives[i] = d
	}
	prim, err := srccache.NewPrimary(srccache.PrimaryConfig{DiskCapacity: primCap / 4})
	if err != nil {
		return err
	}
	cache, err := srccache.NewCache(srccache.CacheConfig{
		SSDs:           drives,
		Primary:        prim,
		EraseGroupSize: egs,
		SegmentColumn:  64 << 10,
		TrackContent:   true,
	})
	if err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(7))
	versions := make(map[int64]uint64)
	var at srccache.Time
	apply := func(n int, label string) error {
		for i := 0; i < n; i++ {
			lba := rng.Int63n(span)
			done, err := cache.Submit(at, srccache.Request{
				Op: srccache.OpWrite, Off: lba * srccache.PageSize, Len: srccache.PageSize,
			})
			if err != nil {
				return fmt.Errorf("%s write: %w", label, err)
			}
			versions[lba]++
			if done > at {
				at = done
			}
		}
		return nil
	}
	verify := func(label string) error {
		for lba, v := range versions {
			want := srccache.DataTag(lba, v)
			if tag, _, err := cache.ReadCheck(at, lba); err == nil {
				if tag != want {
					return fmt.Errorf("%s: page %d wrong in cache", label, lba)
				}
				continue
			}
			// Not cached: the latest version must be safe on primary.
			got, err := prim.Content().ReadTag(lba)
			if err != nil {
				return err
			}
			if got != want {
				return fmt.Errorf("%s: page %d neither cached nor destaged", label, lba)
			}
		}
		fmt.Printf("%-22s %6d pages cached, %d groups, all content verified\n",
			label, cache.CachedPages(), cache.Groups())
		return nil
	}

	if err := apply(warm, "warmup"); err != nil {
		return err
	}
	if err := verify("3-drive RAID-5:"); err != nil {
		return err
	}

	// Expand to 5 drives (two new ones join; the existing three stay).
	bigger := append(append([]srccache.Device{}, drives...), nil, nil)
	for i := 3; i < 5; i++ {
		d, err := mkDrive(fmt.Sprintf("ssd%d", i))
		if err != nil {
			return err
		}
		bigger[i] = d
	}
	done, err := cache.Resize(at, bigger)
	if err != nil {
		return err
	}
	fmt.Printf("expanded to 5 drives in %v of virtual time\n", done.Sub(at))
	at = done
	if err := apply(extra, "post-expand"); err != nil {
		return err
	}
	if err := verify("5-drive RAID-5:"); err != nil {
		return err
	}

	// Contract back to 3 drives: overflow destages to primary, nothing is
	// lost.
	done, err = cache.Resize(at, bigger[:3])
	if err != nil {
		return err
	}
	fmt.Printf("contracted to 3 drives in %v of virtual time\n", done.Sub(at))
	at = done
	if err := verify("3-drive again:"); err != nil {
		return err
	}
	fmt.Println("scale-out/scale-in round trip complete — no data lost")
	return nil
}

// fleetNode is one live server plus the in-process handles the demo uses to
// kill, restart, and verify it.
type fleetNode struct {
	id    string
	addr  string
	back  netblock.Backend
	chain *fleet.ChainBackend
	srv   *netblock.Server
}

func dialOpts() netblock.ClientOptions {
	return netblock.ClientOptions{DialTimeout: 2 * time.Second, Timeout: 5 * time.Second}
}

func startFleetNode(id string, ring *cluster.Ring) (*fleetNode, error) {
	back, err := netblock.MemBackend(ring.Size())
	if err != nil {
		return nil, err
	}
	chain, err := fleet.NewChainBackend(back, id, ring, dialOpts())
	if err != nil {
		return nil, err
	}
	srv, err := netblock.NewServerWith(chain)
	if err != nil {
		return nil, err
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return &fleetNode{id: id, addr: addr.String(), back: back, chain: chain, srv: srv}, nil
}

func runFleet(small bool) error {
	ranges, rangeBytes := 32, int64(64<<10)
	if small {
		ranges, rangeBytes = 16, int64(16<<10)
	}

	// Boot three nodes, then rebuild the ring with their bound addresses —
	// the bootstrap a deployment's config file provides up front.
	ids := []string{"alpha", "beta", "gamma"}
	var boot []cluster.Member
	for _, id := range ids {
		boot = append(boot, cluster.Member{ID: id})
	}
	bootRing, err := cluster.NewRing(2, ranges, rangeBytes, boot)
	if err != nil {
		return err
	}
	nodes := make(map[string]*fleetNode)
	var members []cluster.Member
	for _, id := range ids {
		n, err := startFleetNode(id, bootRing)
		if err != nil {
			return err
		}
		defer n.srv.Close()
		defer n.chain.Close()
		nodes[id] = n
		members = append(members, cluster.Member{ID: id, Addr: n.addr})
	}
	ring, err := cluster.NewRing(2, ranges, rangeBytes, members)
	if err != nil {
		return err
	}
	for _, n := range nodes {
		if err := n.chain.SetRing(ring); err != nil {
			return err
		}
		n.srv.SetEpoch(1)
	}
	fl, err := fleet.New(ring, dialOpts())
	if err != nil {
		return err
	}
	defer fl.Close()

	model := make([]byte, ring.Size())
	rand.New(rand.NewSource(11)).Read(model)
	if err := fl.WriteAt(model, 0); err != nil {
		return err
	}
	readBack := func(r *cluster.Ring, label string) error {
		got := make([]byte, r.Size())
		if err := fl.ReadAt(got, 0); err != nil {
			return fmt.Errorf("%s: %w", label, err)
		}
		if !bytes.Equal(got, model) {
			return fmt.Errorf("%s: volume diverges from model", label)
		}
		return nil
	}
	if err := readBack(ring, "initial readback"); err != nil {
		return err
	}
	fmt.Printf("fleet of %d nodes serving %d KiB, 2-way chained replication: content verified\n",
		len(ids), ring.Size()>>10)

	// Kill beta. Every range it headed fails over to the surviving replica,
	// for reads and writes both.
	nodes["beta"].srv.Close()
	if err := readBack(ring, "degraded readback"); err != nil {
		return err
	}
	patch := bytes.Repeat([]byte{0xAB}, 2048)
	copy(model[0:], patch)
	if err := fl.WriteAt(patch, 0); err != nil {
		return fmt.Errorf("degraded write: %w", err)
	}
	fmt.Printf("beta killed: reads and writes fail over (%d failovers so far)\n", fl.Stats().Failovers)

	// Restart beta with a wiped disk and repair every range it owns from
	// the surviving replicas — anti-entropy restores byte identity.
	old := nodes["beta"]
	old.chain.Close()
	back, err := netblock.MemBackend(ring.Size())
	if err != nil {
		return err
	}
	chain, err := fleet.NewChainBackend(back, "beta", ring, dialOpts())
	if err != nil {
		return err
	}
	srv, err := netblock.NewServerWith(chain)
	if err != nil {
		return err
	}
	if _, err := srv.Listen(old.addr); err != nil {
		return err
	}
	srv.SetEpoch(1)
	nodes["beta"] = &fleetNode{id: "beta", addr: old.addr, back: back, chain: chain, srv: srv}
	defer srv.Close()
	defer chain.Close()

	repaired := 0
	for rng := 0; rng < ranges; rng++ {
		if !ring.OwnedBy(rng, "beta") {
			continue
		}
		if err := fl.RepairRange("beta", rng, nil); err != nil {
			return fmt.Errorf("repair range %d: %w", rng, err)
		}
		base := int64(rng) * rangeBytes
		got := make([]byte, rangeBytes)
		if err := back.ReadAt(got, base); err != nil {
			return err
		}
		if !bytes.Equal(got, model[base:base+rangeBytes]) {
			return fmt.Errorf("range %d on beta not byte-identical after repair", rng)
		}
		repaired++
	}
	if err := readBack(ring, "post-repair readback"); err != nil {
		return err
	}
	fmt.Printf("beta wiped and restarted: %d ranges repaired from replicas, byte-identical\n", repaired)

	// A fourth node joins: its ranges stream from the old owners while they
	// keep serving, then the whole fleet swaps to the new ring at epoch 2.
	joiner, err := startFleetNode("delta", bootRing)
	if err != nil {
		return err
	}
	defer joiner.srv.Close()
	defer joiner.chain.Close()
	nodes["delta"] = joiner
	next, err := ring.WithJoin(cluster.Member{ID: "delta", Addr: joiner.addr})
	if err != nil {
		return err
	}
	moves := cluster.Moves(ring, next)
	if err := fl.Rebalance(ring, next); err != nil {
		return err
	}
	for _, n := range nodes {
		if err := n.chain.SetRing(next); err != nil {
			return err
		}
		n.srv.SetEpoch(2)
	}
	if err := fl.SetRing(next); err != nil {
		return err
	}
	if err := readBack(next, "post-join readback"); err != nil {
		return err
	}
	st := fl.Stats()
	fmt.Printf("delta joined: %d ranges streamed, fleet at epoch 2; %d reads, %d writes, %d repairs total\n",
		len(moves), st.Reads, st.Writes, st.Repairs)
	fmt.Println("fleet scale-out complete — no acknowledged data lost at any step")
	return nil
}

// runSupervised is act three: act two's faults, healed autonomously. The
// supervisor daemon owns the table; the "operator" only kills a node,
// brings it back wiped, and asks for a join. Detection, quarantine,
// repair, and the rebalance all happen inside Tick.
func runSupervised(small bool) error {
	ranges, rangeBytes := 32, int64(64<<10)
	if small {
		ranges, rangeBytes = 16, int64(16<<10)
	}
	ids := []string{"east", "west", "north"}
	var boot []cluster.Member
	for _, id := range ids {
		boot = append(boot, cluster.Member{ID: id})
	}
	bootRing, err := cluster.NewRing(2, ranges, rangeBytes, boot)
	if err != nil {
		return err
	}
	nodes := make(map[string]*fleetNode)
	var members []cluster.Member
	for _, id := range ids {
		n, err := startFleetNode(id, bootRing)
		if err != nil {
			return err
		}
		defer n.srv.Close()
		defer n.chain.Close()
		nodes[id] = n
		members = append(members, cluster.Member{ID: id, Addr: n.addr})
	}
	ring, err := cluster.NewRing(2, ranges, rangeBytes, members)
	if err != nil {
		return err
	}

	// The supervisor's journal survives its own crashes; the push closure
	// resolves the node through the map so a restarted node (new chain,
	// new server, same address) keeps receiving epochs.
	dir, err := os.MkdirTemp("", "scaleout-supervisor")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	supNode := func(id, addr string) supervisor.Node {
		return supervisor.Node{
			Member: cluster.Member{ID: id, Addr: addr},
			Push: func(t *cluster.Table) error {
				n := nodes[id]
				if err := n.chain.SetTable(t); err != nil {
					return err
				}
				n.srv.SetEpoch(t.Epoch)
				return nil
			},
		}
	}
	var supNodes []supervisor.Node
	for _, m := range members {
		supNodes = append(supNodes, supNode(m.ID, m.Addr))
	}
	sup, err := supervisor.New(supervisor.Config{
		Ring:        ring,
		Nodes:       supNodes,
		JournalPath: filepath.Join(dir, "table.journal"),
		Detector:    cluster.DetectorConfig{FailAfter: 2},
		Client:      dialOpts(),
	})
	if err != nil {
		return err
	}
	defer sup.Close()
	tickUntil := func(what string, cond func(supervisor.Status) bool) (supervisor.Status, error) {
		var st supervisor.Status
		for i := 0; i < 60; i++ {
			var err error
			if st, err = sup.Tick(); err != nil {
				return st, err
			}
			if cond(st) {
				return st, nil
			}
		}
		return st, fmt.Errorf("supervisor never reached %s: %+v", what, st)
	}

	fl, err := fleet.New(ring, dialOpts())
	if err != nil {
		return err
	}
	defer fl.Close()
	fl.SetRefetch(sup.Ring)

	model := make([]byte, ring.Size())
	rand.New(rand.NewSource(23)).Read(model)
	if err := fl.WriteAt(model, 0); err != nil {
		return err
	}
	fmt.Printf("supervised fleet of %d nodes at epoch %d: content written\n", len(ids), sup.Epoch())

	// Kill west. The supervisor notices from its own pings — no operator
	// report — and quarantines every range west owned.
	nodes["west"].srv.Close()
	st, err := tickUntil("detection", func(st supervisor.Status) bool {
		return len(st.Quarantined) > 0
	})
	if err != nil {
		return err
	}
	fmt.Printf("west killed: detected down in %v, %d range copies quarantined\n",
		st.DetectLatency, len(st.Quarantined))
	patch := bytes.Repeat([]byte{0xC7}, 4096)
	copy(model[0:], patch)
	if err := fl.WriteAt(patch, 0); err != nil {
		return fmt.Errorf("write during quarantine: %w", err)
	}

	// Bring west back with an empty disk. The supervisor streams every
	// quarantined range back hash-verified, then lifts the quarantine.
	old := nodes["west"]
	old.chain.Close()
	back, err := netblock.MemBackend(ring.Size())
	if err != nil {
		return err
	}
	chain, err := fleet.NewChainBackend(back, "west", sup.Ring(), dialOpts())
	if err != nil {
		return err
	}
	srv, err := netblock.NewServerWith(chain)
	if err != nil {
		return err
	}
	if _, err := srv.Listen(old.addr); err != nil {
		return err
	}
	srv.SetEpoch(sup.Epoch())
	nodes["west"] = &fleetNode{id: "west", addr: old.addr, back: back, chain: chain, srv: srv}
	defer srv.Close()
	defer chain.Close()
	st, err = tickUntil("repair", func(st supervisor.Status) bool {
		return len(st.Quarantined) == 0 && st.Repairs > 0
	})
	if err != nil {
		return err
	}
	fmt.Printf("west restarted wiped: %d repairs streamed, quarantine empty, MTTR %v\n",
		st.Repairs, st.RepairLatency)

	// Ask for a join; the supervisor journals the transition, streams the
	// moves, and commits the new epoch on its own ticks.
	joiner, err := startFleetNode("south", sup.Ring())
	if err != nil {
		return err
	}
	defer joiner.srv.Close()
	defer joiner.chain.Close()
	nodes["south"] = joiner
	if err := sup.Register(supNode("south", joiner.addr)); err != nil {
		return err
	}
	if err := sup.BeginJoin(cluster.Member{ID: "south", Addr: joiner.addr}); err != nil {
		return err
	}
	st, err = tickUntil("join commit", func(st supervisor.Status) bool {
		return st.Phase == cluster.SupStable && st.Commits > 0 && len(st.Quarantined) == 0
	})
	if err != nil {
		return err
	}
	got := make([]byte, len(model))
	if err := fl.ReadAt(got, 0); err != nil {
		return err
	}
	if !bytes.Equal(got, model) {
		return fmt.Errorf("supervised volume diverges from model after join")
	}
	fmt.Printf("south joined autonomously: epoch %d, %d commits, content verified\n",
		st.Epoch, st.Commits)
	fmt.Println("supervised scale-out complete — detect, quarantine, repair, rebalance: zero operator steps")
	return nil
}
