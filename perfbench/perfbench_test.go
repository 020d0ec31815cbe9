package main

import (
	"context"
	"testing"
	"time"

	"srccache/internal/netblock"
)

// TestShortWorkloads runs every workload at a tiny size, untraced and
// traced, and checks that each run is correct and reports every metric
// its mode promises, with the promised unit.
func TestShortWorkloads(t *testing.T) {
	for name := range workloads {
		for _, traced := range []bool{false, true} {
			p := params{Workload: name, Seed: 7, Window: 300 * time.Millisecond, Trace: traced, Short: true, OutDir: t.TempDir()}
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			res, cfg, err := execute(ctx, p)
			cancel()
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, traced, d.name, m, d.unit)
				}
			}
			if !traced {
				for _, d := range endToEnd {
					if res.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want positive", name, d.name, res.Metrics[d.name].Value)
					}
				}
			}
			for _, key := range []string{"seed", "gomaxprocs", "nproc", "clients", "loop"} {
				if _, ok := cfg[key]; !ok {
					t.Errorf("%s: configuration record lacks %s", name, key)
				}
			}
		}
	}
}

// corruptingBackend flips one byte of every read of every seventh page.
type corruptingBackend struct{ netblock.Backend }

func (b corruptingBackend) ReadAt(p []byte, off int64) error {
	if err := b.Backend.ReadAt(p, off); err != nil {
		return err
	}
	for i := int64(0); i < int64(len(p)); i += blockSize {
		if (off+i)/blockSize%7 == 3 {
			p[i+100] ^= 0x5a
		}
	}
	return nil
}

// TestPlantedCorruption proves the read oracle fires: with a corrupting
// Backend under each server, the run must report failed operations and an
// incorrect result.
func TestPlantedCorruption(t *testing.T) {
	hook := func(b netblock.Backend) netblock.Backend { return corruptingBackend{b} }
	for _, cfg := range []servedConfig{servedZipfConfig(true), fleetWriteConfig(true)} {
		cfg.Trials = 1
		p := params{Workload: "served-zipf", Seed: 3, Window: 200 * time.Millisecond}
		out, err := runServed(context.Background(), p, cfg, hook)
		if err != nil {
			t.Fatal(err)
		}
		if out.failed == 0 {
			t.Errorf("nodes=%d: corrupted reads went unnoticed (%d attempted)", cfg.Nodes, out.attempted)
		}
	}
}

func TestStamp(t *testing.T) {
	b := make([]byte, blockSize)
	if !intact(b, 1, 9, 0) {
		t.Fatal("zero page not accepted as never written")
	}
	stamp(b, 1, 9, 4)
	if !intact(b, 1, 9, 4) {
		t.Fatal("fresh stamp rejected")
	}
	for _, c := range []struct {
		client int
		page   int64
		ver    uint64
	}{{0, 9, 4}, {1, 8, 4}, {1, 9, 3}, {1, 9, 0}} {
		if intact(b, c.client, c.page, c.ver) {
			t.Errorf("stamp of (1,9,4) accepted as %+v", c)
		}
	}
	b[2000] ^= 1
	if intact(b, 1, 9, 4) {
		t.Error("flipped payload bit not detected")
	}
}

// TestLink checks that spans nest into requests by time containment.
func TestLink(t *testing.T) {
	tr := newTracer(1)
	add := func(kind spanKind, start, end int64, req int64) {
		tr.record(0, span{start: start, end: end, req: req, parent: -1, kind: kind})
	}
	add(kEngine, 12, 20, -1) // head engine, inside the head server span
	add(kClient, 0, 100, 1)
	add(kServer, 10, 90, -1) // head server
	add(kServer, 30, 60, -1) // tail server, forwarded from the head
	add(kEngine, 35, 50, -1) // tail engine
	add(kClient, 110, 150, 2)
	add(kServer, 120, 140, -1)
	add(kServer, 200, 210, -1) // no request encloses it
	if n := tr.link(0, func(s *span) bool { return s.kind == kClient }); n != 1 {
		t.Fatalf("unpaired = %d, want 1", n)
	}
	ss := tr.bufs[0].spans
	wantParent := []int32{2, -1, 1, 2, 3, -1, 5, -1}
	wantReq := []int64{1, 1, 1, 1, 1, 2, 2, -1}
	for i := range ss {
		if ss[i].parent != wantParent[i] || ss[i].req != wantReq[i] {
			t.Errorf("span %d: parent %d req %d, want %d %d", i, ss[i].parent, ss[i].req, wantParent[i], wantReq[i])
		}
	}
}
