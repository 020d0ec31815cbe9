package netblock

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"time"
)

// ErrRetryBudget reports that an operation gave up because its
// ClientOptions.RetryBudget elapsed, with retry attempts still available.
var ErrRetryBudget = errors.New("netblock: retry budget exhausted")

// StaleEpochText is the substring a server-side refusal carries across the
// wire to signal a stale-epoch condition; attempt maps refusal payloads
// containing it to ErrStaleEpoch.
const StaleEpochText = "stale routing epoch"

// ErrStaleEpoch reports that the server refused a request because it was
// routed with an outdated placement table: the server is a ring member
// that no longer owns the requested range. The caller must refetch its
// routing table and retry against the current owner — see the staleepoch
// contract in DESIGN.md §8. Reads, writes, and trims can all surface it;
// the refusal mirrors the simulation's epoch check, where serving (or
// applying) under rules the routing no longer grants would strand data on
// a non-owner.
//
//srclint:contracterr staleepoch
var ErrStaleEpoch = errors.New("netblock: " + StaleEpochText)

// ClientOptions tune the client's failure behavior. The zero value keeps
// the original semantics: block forever on a dead peer, fail on the first
// error.
type ClientOptions struct {
	// DialTimeout bounds the TCP connect (0 = no bound).
	DialTimeout time.Duration
	// Timeout bounds each request round trip: one deadline covers the
	// request write and the response read (0 = no bound). Applied only to
	// connections that expose deadlines (net.Conn, net.Pipe). A timed-out
	// round trip closes the connection, like any transport error.
	Timeout time.Duration
	// RetryLimit is how many times a transient failure — a timeout, a
	// dropped connection — is retried after reconnecting. Remote errors
	// (the server answered) are never retried. Dial-created clients
	// reconnect between attempts, and with no retries left they redial on
	// the next call; wrapped connections (NewClient) cannot, so their ops
	// fail on the first transport error regardless, and every later call
	// reports that error.
	RetryLimit int
	// RetryBudget bounds the total elapsed time one operation may spend
	// across all its attempts (0 = unbounded). RetryLimit alone bounds the
	// attempt count, not the wall clock: with a slow Timeout each retry
	// can burn the full deadline and a modest limit stalls the caller for
	// minutes. When the budget is exhausted the operation fails with
	// ErrRetryBudget wrapping the last transport error, instead of
	// starting another attempt. Measured via Now, so tests pairing Now
	// with Sleep stay wallclock-free.
	RetryBudget time.Duration
	// RetryDelay is the backoff base: attempt i sleeps RetryDelay<<i plus
	// seeded jitter. Defaults to 10ms when RetryLimit is set.
	RetryDelay time.Duration
	// Seed makes the retry jitter deterministic for tests.
	Seed int64
	// Sleep replaces time.Sleep for the backoff, keeping tests
	// wallclock-free. Nil means time.Sleep.
	Sleep func(time.Duration)
	// Now replaces time.Now for the RetryBudget accounting; tests inject a
	// fake clock advanced by their Sleep. Nil means time.Now.
	Now func() time.Time
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.RetryLimit > 0 && o.RetryDelay <= 0 {
		o.RetryDelay = 10 * time.Millisecond
	}
	if o.Sleep == nil {
		o.Sleep = time.Sleep
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// Client is a synchronous remote block device over one connection. Methods
// are safe for concurrent use (requests serialize on the connection).
type Client struct {
	// mu serializes round trips and guards the framing state below it.
	mu sync.Mutex
	// br and bw buffer the live connection; both are nil while there is
	// none, and rebuilt whenever the connection is replaced.
	br *bufio.Reader
	bw *bufio.Writer
	dc deadliner // the live connection's deadlines, if it has them
	// lost is a wrapped client's sticky failure: it cannot redial, so once
	// a transport error has closed its connection every call reports it.
	lost error

	// cmu guards conn and closed. Close takes only cmu, so it can
	// interrupt a round trip blocked on the connection.
	cmu    sync.Mutex
	conn   io.ReadWriteCloser
	closed bool

	size int64
	opts ClientOptions
	addr string // non-empty when the client can reconnect
	rng  *rand.Rand
}

// Dial connects to a server and fetches the volume size.
func Dial(addr string) (*Client, error) {
	return DialOptions(addr, ClientOptions{})
}

// DialOptions is Dial with explicit timeout and retry behavior. The
// initial connect (and its size handshake) participates in the retry
// budget like any other operation.
func DialOptions(addr string, o ClientOptions) (*Client, error) {
	c := &Client{opts: o.withDefaults(), addr: addr}
	c.rng = rand.New(rand.NewSource(c.opts.Seed))
	return c.handshake()
}

// NewClient wraps an established connection (e.g. one side of net.Pipe).
func NewClient(conn io.ReadWriteCloser) (*Client, error) {
	c := &Client{opts: ClientOptions{}.withDefaults()}
	c.rng = rand.New(rand.NewSource(0))
	c.attach(conn)
	return c.handshake()
}

// handshake fetches the volume size, closing the client if that fails.
func (c *Client) handshake() (*Client, error) {
	var size [8]byte
	if err := c.roundTrip(opSize, 0, 0, nil, size[:]); err != nil {
		c.Close()
		return nil, err
	}
	c.size = int64(binary.BigEndian.Uint64(size[:]))
	return c, nil
}

// Size reports the remote volume size in bytes.
func (c *Client) Size() int64 { return c.size }

// Close closes the connection. A round trip in flight fails, and later
// calls fail without redialing.
func (c *Client) Close() error {
	c.cmu.Lock()
	defer c.cmu.Unlock()
	c.closed = true
	if c.conn == nil {
		return nil
	}
	return c.conn.Close()
}

// attach makes conn the live connection with fresh buffers, so no byte
// buffered from an earlier connection can be parsed on it. It reports
// false, closing conn, when the client has been closed meanwhile. Callers
// hold c.mu.
func (c *Client) attach(conn io.ReadWriteCloser) bool {
	c.cmu.Lock()
	defer c.cmu.Unlock()
	if c.closed {
		conn.Close()
		return false
	}
	c.conn = conn
	c.br = bufio.NewReaderSize(conn, connBufSize)
	c.bw = bufio.NewWriterSize(conn, connBufSize)
	c.dc, _ = conn.(deadliner)
	return true
}

// disconnect closes the live connection after a transport error: the
// stream may hold a late or partial response, so it is never reused.
// Callers hold c.mu.
func (c *Client) disconnect(cause error) {
	c.cmu.Lock()
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
	c.cmu.Unlock()
	c.br, c.bw, c.dc = nil, nil, nil
	if c.addr == "" {
		c.lost = fmt.Errorf("netblock: connection closed after transport error: %w", cause)
	}
}

// connect gives the client a live connection, redialing when a transport
// error closed the last one. Callers hold c.mu.
func (c *Client) connect() error {
	if c.br != nil {
		return nil
	}
	if c.lost != nil {
		return c.lost
	}
	if c.isClosed() {
		return errClientClosed
	}
	conn, err := c.dial()
	if err != nil {
		return err
	}
	if !c.attach(conn) {
		return errClientClosed
	}
	return nil
}

// errClientClosed reports a call on a client after Close.
var errClientClosed = fmt.Errorf("netblock: client closed: %w", net.ErrClosed)

func (c *Client) isClosed() bool {
	c.cmu.Lock()
	defer c.cmu.Unlock()
	return c.closed
}

func (c *Client) dial() (net.Conn, error) {
	if c.opts.DialTimeout > 0 {
		return net.DialTimeout("tcp", c.addr, c.opts.DialTimeout)
	}
	return net.Dial("tcp", c.addr)
}

// transient reports whether an error is worth a reconnect-and-retry: any
// transport-level failure qualifies; a remote error means the server
// received and answered the request, so retrying would repeat the refusal.
func transient(err error) bool {
	return err != nil && !errors.Is(err, ErrRemote)
}

// overBudget enforces RetryBudget: called before committing to another
// attempt, it returns ErrRetryBudget (wrapping the attempt's error) once
// the elapsed time since start has consumed the budget.
func (c *Client) overBudget(start time.Time, lastErr error) error {
	if c.opts.RetryBudget <= 0 {
		return nil
	}
	if elapsed := c.opts.Now().Sub(start); elapsed >= c.opts.RetryBudget {
		return fmt.Errorf("%w (%v elapsed of %v): %w",
			ErrRetryBudget, elapsed, c.opts.RetryBudget, lastErr)
	}
	return nil
}

// backoff sleeps RetryDelay<<attempt plus up to 50% seeded jitter.
func (c *Client) backoff(attempt int) {
	d := c.opts.RetryDelay << attempt
	if d <= 0 {
		return
	}
	d += time.Duration(c.rng.Int63n(int64(d)/2 + 1))
	c.opts.Sleep(d)
}

// roundTrip performs one operation, reconnecting and retrying transient
// transport failures up to RetryLimit times. All protocol operations are
// idempotent (same bytes at the same offset; barrier; size), so retrying
// after an ambiguous failure is safe. A successful response's payload is
// read into dst, which must be exactly its size.
func (c *Client) roundTrip(op uint8, off uint64, length uint32, payload, dst []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	start := c.opts.Now()
	for attempt := 0; ; attempt++ {
		err := c.attempt(op, off, length, payload, dst)
		if err == nil {
			return nil
		}
		if !transient(err) || c.addr == "" || attempt >= c.opts.RetryLimit || c.isClosed() {
			return err
		}
		if berr := c.overBudget(start, err); berr != nil {
			return berr
		}
		c.backoff(attempt)
	}
}

// attempt sends one request and reads its response on the live connection,
// dialing one first if needed, under a single deadline for the whole round
// trip when the transport supports it. Any transport error closes the
// connection. Callers hold c.mu.
func (c *Client) attempt(op uint8, off uint64, length uint32, payload, dst []byte) error {
	if err := c.connect(); err != nil {
		return err
	}
	err := c.exchange(op, off, length, payload, dst)
	if transient(err) {
		c.disconnect(err)
	}
	return err
}

// exchange is one request/response on the live connection: the request
// leaves in one flush, and an OK response's payload is read straight into
// dst.
func (c *Client) exchange(op uint8, off uint64, length uint32, payload, dst []byte) error {
	if c.dc != nil && c.opts.Timeout > 0 {
		_ = c.dc.SetDeadline(time.Now().Add(c.opts.Timeout))
	}
	if err := writeRequest(c.bw, op, off, length, payload); err != nil {
		return err
	}
	if err := c.bw.Flush(); err != nil {
		return err
	}
	status, n, err := readResponseHeader(c.br)
	if err != nil {
		return err
	}
	if status != statusOK {
		msg := make([]byte, n)
		if _, err := io.ReadFull(c.br, msg); err != nil {
			return err
		}
		// A stale-epoch refusal is still a remote answer (ErrRemote keeps
		// the retry logic from pointlessly repeating the refusal), but it
		// additionally carries the routing contract for callers to handle.
		if strings.Contains(string(msg), StaleEpochText) {
			return fmt.Errorf("%w (%w): %s", ErrStaleEpoch, ErrRemote, msg)
		}
		return fmt.Errorf("%w: %s", ErrRemote, msg)
	}
	if int(n) != len(dst) {
		return fmt.Errorf("%w: response payload %d bytes, want %d", ErrProtocol, n, len(dst))
	}
	_, err = io.ReadFull(c.br, dst)
	return err
}

func (c *Client) check(off int64, n int) error {
	switch {
	case off < 0 || n < 0:
		return fmt.Errorf("%w: negative range", ErrProtocol)
	case n > MaxPayload:
		return fmt.Errorf("%w: transfer %d exceeds limit %d", ErrProtocol, n, MaxPayload)
	case off+int64(n) > c.size:
		return fmt.Errorf("%w: [%d,%d) outside volume of %d", ErrRemote, off, off+int64(n), c.size)
	}
	return nil
}

// ReadAt fills p from the volume at off. It implements io.ReaderAt. When
// the remote refuses the read because the caller's routing table is stale
// (a ring member that no longer owns the range), the error wraps
// ErrStaleEpoch: the caller must refetch its table and retry against the
// current owner.
//
//srclint:surfaces staleepoch
func (c *Client) ReadAt(p []byte, off int64) (int, error) {
	if err := c.check(off, len(p)); err != nil {
		return 0, err
	}
	if err := c.roundTrip(opRead, uint64(off), uint32(len(p)), nil, p); err != nil {
		return 0, err
	}
	return len(p), nil
}

// WriteAt stores p at off. It implements io.WriterAt. A stale-routed
// write is refused with ErrStaleEpoch just like a read: accepting it
// would strand the bytes on a member the current chain no longer reads.
//
//srclint:surfaces staleepoch
func (c *Client) WriteAt(p []byte, off int64) (int, error) {
	if err := c.check(off, len(p)); err != nil {
		return 0, err
	}
	if err := c.roundTrip(opWrite, uint64(off), uint32(len(p)), p, nil); err != nil {
		return 0, err
	}
	return len(p), nil
}

// Trim zeroes [off, off+n). Like WriteAt it is a mutation, so a stale
// route is refused with ErrStaleEpoch.
//
//srclint:surfaces staleepoch
func (c *Client) Trim(off, n int64) error {
	if err := c.check(off, int(n)); err != nil {
		return err
	}
	return c.roundTrip(opTrim, uint64(off), uint32(n), nil, nil)
}

// Flush is a durability barrier.
func (c *Client) Flush() error {
	return c.roundTrip(opFlush, 0, 0, nil, nil)
}

// PingInfo is a ping response: the server's volume size, its advertised
// ring epoch, and whether it is draining for shutdown.
type PingInfo struct {
	Size     int64
	Epoch    uint64
	Draining bool
}

// Ping probes the server's health: a successful round trip proves
// liveness, and the payload carries the routing handshake (size, ring
// epoch, drain state). Failure detectors also time this call.
func (c *Client) Ping() (PingInfo, error) {
	var resp [17]byte
	if err := c.roundTrip(opPing, 0, 0, nil, resp[:]); err != nil {
		return PingInfo{}, err
	}
	return PingInfo{
		Size:     int64(binary.BigEndian.Uint64(resp[0:])),
		Epoch:    binary.BigEndian.Uint64(resp[8:]),
		Draining: resp[16]&pingDraining != 0,
	}, nil
}
