package netblock

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// silentListener accepts connections and never answers, simulating a hung
// peer.
func silentListener(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
		}
	}()
	return ln
}

func TestClientTimeoutOnSilentPeer(t *testing.T) {
	ln := silentListener(t)
	start := time.Now()
	_, err := DialOptions(ln.Addr().String(), ClientOptions{
		DialTimeout: time.Second,
		Timeout:     50 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("handshake against a silent peer succeeded")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("err = %v, want a timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timed out only after %v", elapsed)
	}
}

func TestClientRequestTimeout(t *testing.T) {
	// A served handshake followed by silence: the per-request deadline must
	// unblock the read instead of hanging forever.
	srv, err := NewServer(4096)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cli, err := DialOptions(addr.String(), ClientOptions{Timeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	srv.Close() // server gone; the next request gets no response
	_, err = cli.ReadAt(make([]byte, 1), 0)
	if err == nil {
		t.Fatal("request against a dead server succeeded")
	}
}

func TestClientReconnectsAfterDrop(t *testing.T) {
	srv, err := NewServer(4096)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var slept []time.Duration
	cli, err := DialOptions(addr.String(), ClientOptions{
		RetryLimit: 2,
		RetryDelay: time.Millisecond,
		Sleep:      func(d time.Duration) { slept = append(slept, d) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.WriteAt([]byte("persist"), 0); err != nil {
		t.Fatal(err)
	}
	// Kill the connection out from under the client: the next request hits
	// a transport error, reconnects, and retries transparently.
	cli.conn.Close()
	got := make([]byte, 7)
	if _, err := cli.ReadAt(got, 0); err != nil {
		t.Fatalf("read after drop: %v", err)
	}
	if string(got) != "persist" {
		t.Fatalf("read %q after reconnect", got)
	}
	if len(slept) == 0 {
		t.Fatal("retry path did not back off")
	}
}

func TestClientNoRetryWithoutLimit(t *testing.T) {
	srv, cli := startPair(t, 4096)
	defer srv.Close()
	cli.conn.Close()
	if _, err := cli.ReadAt(make([]byte, 1), 0); err == nil {
		t.Fatal("read on a closed connection succeeded with RetryLimit 0")
	}
}

func TestWrappedClientFailsFast(t *testing.T) {
	// NewClient has no address to redial, so even with a retry budget a
	// transport error surfaces immediately.
	srv, err := NewServer(4096)
	if err != nil {
		t.Fatal(err)
	}
	a, b := net.Pipe()
	go func() { _ = srv.ServeConn(a) }()
	cli, err := NewClient(b)
	if err != nil {
		t.Fatal(err)
	}
	cli.opts.RetryLimit = 3
	cli.opts.Sleep = func(time.Duration) { t.Error("wrapped client slept for a retry") }
	cli.conn.Close()
	if _, err := cli.ReadAt(make([]byte, 1), 0); err == nil {
		t.Fatal("read on a closed pipe succeeded")
	}
}

func TestDialRetryExhaustionDeterministic(t *testing.T) {
	// A freed port: every dial is refused, so the retry budget is consumed
	// entirely by backoff sleeps. Same seed, same schedule; a different
	// seed jitters differently.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	schedule := func(seed int64) []time.Duration {
		var slept []time.Duration
		_, err := DialOptions(addr, ClientOptions{
			DialTimeout: time.Second,
			RetryLimit:  4,
			RetryDelay:  time.Millisecond,
			Seed:        seed,
			Sleep:       func(d time.Duration) { slept = append(slept, d) },
		})
		if err == nil {
			t.Fatal("dial of a closed port succeeded")
		}
		return slept
	}
	a, b, c := schedule(1), schedule(1), schedule(2)
	if len(a) != 4 {
		t.Fatalf("%d backoffs for RetryLimit 4", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged: %v vs %v", a, b)
		}
		if a[i] < time.Millisecond<<i {
			t.Fatalf("backoff %d = %v below base %v", i, a[i], time.Millisecond<<i)
		}
	}
	same := len(a) == len(c)
	for i := 0; same && i < len(a); i++ {
		same = a[i] == c[i]
	}
	if same {
		t.Fatalf("different seeds produced identical jitter: %v", a)
	}
}

// fakeClock pairs ClientOptions.Now and Sleep: sleeping advances the
// clock, so retry-budget accounting runs entirely on injected time.
type fakeClock struct {
	t      time.Time
	sleeps int
}

func (c *fakeClock) Now() time.Time { return c.t }
func (c *fakeClock) Sleep(d time.Duration) {
	c.t = c.t.Add(d)
	c.sleeps++
}

func TestRetryBudgetBoundsElapsedTime(t *testing.T) {
	// A freed port: every dial is refused instantly, so with RetryLimit
	// 1000 the old behavior would grind through a thousand backoffs. The
	// budget must cut the operation off once the injected clock has
	// consumed it — attempts stop on elapsed time, not attempt count.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	clk := &fakeClock{}
	_, err = DialOptions(addr, ClientOptions{
		DialTimeout: time.Second,
		RetryLimit:  1000,
		RetryDelay:  10 * time.Millisecond,
		RetryBudget: 200 * time.Millisecond,
		Sleep:       clk.Sleep,
		Now:         clk.Now,
	})
	if err == nil {
		t.Fatal("dial of a closed port succeeded")
	}
	if !errors.Is(err, ErrRetryBudget) {
		t.Fatalf("err = %v, want ErrRetryBudget", err)
	}
	// Exponential backoff: 10+20+40+80+160ms crosses 200ms after at most 5
	// sleeps; nowhere near the 1000 the limit alone would permit.
	if clk.sleeps == 0 || clk.sleeps > 6 {
		t.Fatalf("%d backoff sleeps under a 200ms budget", clk.sleeps)
	}
}

// handshakeOnlyListener serves the opSize handshake on every connection
// and then swallows all further requests without answering — the fail-slow
// peer whose timeouts chain: every reconnect succeeds, every data request
// burns the full Timeout.
func handshakeOnlyListener(t *testing.T) net.Addr {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				sc := newServerConn(c)
				for {
					if err := readRequest(sc.br, &sc.req); err != nil {
						return
					}
					if sc.req.op != opSize {
						continue // swallow: the client's deadline must fire
					}
					var buf [8]byte
					binary.BigEndian.PutUint64(buf[:], 4096)
					if err := writeResponse(sc.bw, statusOK, buf[:]); err != nil {
						return
					}
					if err := sc.bw.Flush(); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr()
}

func TestRetryBudgetBoundsRequestRetries(t *testing.T) {
	// The satellite bug in miniature: a peer that accepts reconnects but
	// never answers data requests. RetryLimit 1000 alone would chain a
	// thousand timeouts; the budget must cut the operation off.
	addr := handshakeOnlyListener(t)
	clk := &fakeClock{}
	cli, err := DialOptions(addr.String(), ClientOptions{
		DialTimeout: time.Second,
		Timeout:     20 * time.Millisecond,
		RetryLimit:  1000,
		RetryDelay:  10 * time.Millisecond,
		RetryBudget: 100 * time.Millisecond,
		Sleep:       clk.Sleep,
		Now:         clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	_, err = cli.ReadAt(make([]byte, 1), 0)
	if err == nil {
		t.Fatal("read against a silent server succeeded")
	}
	if !errors.Is(err, ErrRetryBudget) {
		t.Fatalf("err = %v, want ErrRetryBudget", err)
	}
	// Backoffs 10+20+40+80ms cross the 100ms budget after at most 4
	// sleeps; without the budget this loop would take 1000.
	if clk.sleeps == 0 || clk.sleeps > 5 {
		t.Fatalf("%d backoff sleeps under a 100ms budget", clk.sleeps)
	}
}

func TestRemoteErrorNotTransient(t *testing.T) {
	if transient(ErrRemote) {
		t.Fatal("remote errors must not be retried")
	}
	if !transient(errors.New("connection reset")) {
		t.Fatal("transport errors must be retryable")
	}
	if transient(nil) {
		t.Fatal("nil error classified transient")
	}
}

// staleBackend plays the server side of the staleepoch contract: a ring
// member that no longer owns the extent, refusing every read and write
// with the wire marker a ChainBackend would use.
type staleBackend struct {
	Backend
	reads atomic.Int32
}

func (b *staleBackend) ReadAt(p []byte, off int64) error {
	b.reads.Add(1)
	return fmt.Errorf("backend: %s: read [%d,%d) not owned here", StaleEpochText, off, off+int64(len(p)))
}

func (b *staleBackend) WriteAt(p []byte, off int64) error {
	return fmt.Errorf("backend: %s: write [%d,%d) not owned here", StaleEpochText, off, off+int64(len(p)))
}

// TestClientClassifiesStaleEpochRefusal pins the wire classification: a
// refusal payload carrying StaleEpochText must come back as ErrStaleEpoch,
// must still read as a remote answer (ErrRemote) so the transport retry
// loop does not repeat the refusal, and must not consume retry attempts.
func TestClientClassifiesStaleEpochRefusal(t *testing.T) {
	mem, err := MemBackend(4096)
	if err != nil {
		t.Fatal(err)
	}
	sb := &staleBackend{Backend: mem}
	srv, err := NewServerWith(sb)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := DialOptions(addr.String(), ClientOptions{
		RetryLimit: 3,
		RetryDelay: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	_, err = cli.ReadAt(make([]byte, 8), 0)
	if !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("read refusal = %v, want ErrStaleEpoch", err)
	}
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("stale refusal must remain a remote answer, got %v", err)
	}
	if n := sb.reads.Load(); n != 1 {
		t.Errorf("refused read reached the backend %d times; remote refusals must not be retried", n)
	}

	if _, err := cli.WriteAt([]byte("x"), 0); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("write refusal = %v, want ErrStaleEpoch", err)
	}
}

// TestClientOrdinaryRefusalIsNotStale guards the classifier's precision:
// a remote refusal without the marker stays a plain ErrRemote.
func TestClientOrdinaryRefusalIsNotStale(t *testing.T) {
	srv, cli := startPair(t, 4096)
	defer srv.Close()
	defer cli.Close()
	// Reads beyond the volume are refused remotely by check().
	_, err := cli.ReadAt(make([]byte, 16), 4096-8)
	if err == nil {
		t.Fatal("out-of-volume read succeeded")
	}
	if errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("ordinary refusal misclassified as stale epoch: %v", err)
	}
}

// lateBackend answers its first read only after delay, long past the
// client's timeout, and signals done when that read returns.
type lateBackend struct {
	Backend
	delay time.Duration
	first atomic.Bool
	done  chan struct{}
}

func (b *lateBackend) ReadAt(p []byte, off int64) error {
	if b.first.CompareAndSwap(false, true) {
		time.Sleep(b.delay)
		defer close(b.done)
	}
	return b.Backend.ReadAt(p, off)
}

// TestLateResponseNotReadAsNext is the regression test for a timed-out
// request poisoning its connection: the server answers ReadAt(page 1)
// after the client gave up, and that late response must never be taken
// as the answer to the next ReadAt(page 2). A Dial client redials and
// reads page 2; a wrapped client cannot redial and fails from then on.
func TestLateResponseNotReadAsNext(t *testing.T) {
	const page = 4096
	newServer := func(t *testing.T) (*Server, *lateBackend) {
		mem, err := MemBackend(4 * page)
		if err != nil {
			t.Fatal(err)
		}
		for i := byte(1); i <= 2; i++ {
			if err := mem.WriteAt(bytes.Repeat([]byte{i}, page), int64(i)*page); err != nil {
				t.Fatal(err)
			}
		}
		lb := &lateBackend{Backend: mem, delay: 150 * time.Millisecond, done: make(chan struct{})}
		srv, err := NewServerWith(lb)
		if err != nil {
			t.Fatal(err)
		}
		return srv, lb
	}
	// readTwice times out reading page 1, waits until the server has
	// produced its late answer, then reads page 2.
	readTwice := func(t *testing.T, cli *Client, lb *lateBackend) (p []byte, first, second error) {
		p = make([]byte, page)
		if _, first = cli.ReadAt(p, page); first == nil {
			t.Fatal("read of page 1 beat the 50ms timeout")
		}
		<-lb.done
		time.Sleep(20 * time.Millisecond) // let the late response reach the client
		_, second = cli.ReadAt(p, 2*page)
		return p, first, second
	}

	t.Run("dial", func(t *testing.T) {
		srv, lb := newServer(t)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		cli, err := DialOptions(addr.String(), ClientOptions{Timeout: 50 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		p, _, err := readTwice(t, cli, lb)
		if err != nil {
			t.Fatalf("read of page 2 after a timeout: %v", err)
		}
		if !bytes.Equal(p, bytes.Repeat([]byte{2}, page)) {
			t.Fatalf("read of page 2 returned bytes starting %v", p[:8])
		}
	})

	t.Run("wrapped", func(t *testing.T) {
		srv, lb := newServer(t)
		a, b := net.Pipe()
		go func() { _ = srv.ServeConn(a) }()
		cli, err := NewClient(b)
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		cli.opts.Timeout = 50 * time.Millisecond
		p, first, err := readTwice(t, cli, lb)
		if err == nil {
			t.Fatalf("wrapped client answered page 2 with bytes starting %v after losing its connection", p[:8])
		}
		if !errors.Is(err, first) {
			t.Fatalf("second read = %v, want the sticky failure of the first (%v)", err, first)
		}
	})
}

// TestClientCloseDuringRoundTrips shares one redialing client among
// several goroutines and closes it under them: every round trip in flight
// or started afterwards fails with net.ErrClosed, and none redials.
func TestClientCloseDuringRoundTrips(t *testing.T) {
	srv, err := NewServer(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := DialOptions(addr.String(), ClientOptions{RetryLimit: 2, RetryDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	var served atomic.Int64
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			p := bytes.Repeat([]byte{byte(w)}, 4096)
			for {
				if _, err := cli.WriteAt(p, int64(w)*4096); err != nil {
					errs <- err
					return
				}
				if _, err := cli.ReadAt(p, int64(w)*4096); err != nil {
					errs <- err
					return
				}
				served.Add(1)
			}
		}(w)
	}
	for served.Load() < 100 {
		time.Sleep(time.Millisecond)
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; !errors.Is(err, net.ErrClosed) {
			t.Errorf("round trip ended by Close = %v, want net.ErrClosed", err)
		}
	}
	if _, err := cli.ReadAt(make([]byte, 1), 0); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("read after Close = %v, want net.ErrClosed", err)
	}
}
