package netblock

import (
	"io"
	"runtime"
	"testing"
)

const benchBlock = 4096

// BenchmarkRoundTrip measures one synchronous 4 KiB request over loopback
// TCP: client framing, two socket hops and the server loop over the flat
// in-memory volume.
func BenchmarkRoundTrip(b *testing.B) {
	for _, bc := range []struct {
		name string
		op   func(c *Client, p []byte, off int64) error
	}{
		{"read4k", func(c *Client, p []byte, off int64) error { _, err := c.ReadAt(p, off); return err }},
		{"write4k", func(c *Client, p []byte, off int64) error { _, err := c.WriteAt(p, off); return err }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			_, cli := startPair(b, 1<<20)
			p := make([]byte, benchBlock)
			b.ReportAllocs()
			b.SetBytes(benchBlock)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := bc.op(cli, p, int64(i%256)*benchBlock); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// cyclicReader replays one encoded request frame n times, then reports
// EOF: an endless pipelined request stream without the memory for it.
type cyclicReader struct {
	frame []byte
	pos   int
	n     int
}

func (r *cyclicReader) Read(p []byte) (int, error) {
	total := 0
	for total < len(p) && r.n > 0 {
		c := copy(p[total:], r.frame[r.pos:])
		total += c
		r.pos += c
		if r.pos == len(r.frame) {
			r.pos = 0
			r.n--
		}
	}
	if total == 0 {
		return 0, io.EOF
	}
	return total, nil
}

// BenchmarkServeConn measures the server's per-request work alone —
// decode, execute against the flat volume, encode — over an in-memory
// stream of pipelined 4 KiB requests, with no socket in the way.
func BenchmarkServeConn(b *testing.B) {
	for _, bc := range []struct {
		name  string
		frame []byte
	}{
		{"read4k", frame(opRead, 0, benchBlock, nil)},
		{"write4k", frame(opWrite, 0, benchBlock, make([]byte, benchBlock))},
	} {
		b.Run(bc.name, func(b *testing.B) {
			srv, err := NewServer(1 << 20)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.SetBytes(benchBlock)
			b.ResetTimer()
			if err := srv.ServeConn(rwPair{&cyclicReader{frame: bc.frame, n: b.N}, io.Discard}); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// roundTripAllocs reports the mean allocations and allocated bytes, across
// both client and server, of one call of op.
func roundTripAllocs(t *testing.T, op func() error) (allocs, bytes float64) {
	t.Helper()
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs = testing.AllocsPerRun(runs, func() {
		if err := op(); err != nil {
			t.Fatal(err)
		}
	})
	runtime.ReadMemStats(&after)
	// AllocsPerRun makes one warm-up call beyond runs.
	return allocs, float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
}

// TestRoundTripAllocs pins the allocation-free wire path: a 4 KiB
// Client.ReadAt or WriteAt round trip, counted across client and server
// together, allocates nothing per call (measured: 0 allocs and under 32 B
// on average; the unbuffered framing this replaced made 6-7 allocations
// and 4-8 KiB). The bounds leave room for runtime noise but none for a
// payload-sized buffer on either side.
func TestRoundTripAllocs(t *testing.T) {
	_, cli := startPair(t, 1<<20)
	p := make([]byte, benchBlock)
	for _, tc := range []struct {
		name string
		op   func() error
	}{
		{"read4k", func() error { _, err := cli.ReadAt(p, benchBlock); return err }},
		{"write4k", func() error { _, err := cli.WriteAt(p, benchBlock); return err }},
	} {
		allocs, bytes := roundTripAllocs(t, tc.op)
		if allocs > 1 || bytes >= 1024 {
			t.Errorf("%s: %.2f allocs, %.0f B per round trip; want at most 1 alloc and under 1 KiB", tc.name, allocs, bytes)
		}
	}
}
