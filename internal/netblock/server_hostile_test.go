package netblock

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// rwPair glues a request stream and a response sink into the io.ReadWriter
// ServeConn wants, with no network involved.
type rwPair struct {
	io.Reader
	io.Writer
}

// frame encodes one request header (+ payload) exactly as a client would,
// but with no client-side validation — the hostile path.
func frame(op uint8, off uint64, length uint32, payload []byte) []byte {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := writeRequest(w, op, off, length, payload); err != nil {
		panic(err)
	}
	if err := w.Flush(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// decodeResponse reads one whole response frame: its status and a copy of
// its payload.
func decodeResponse(r *bufio.Reader) (status uint8, payload []byte, err error) {
	status, n, err := readResponseHeader(r)
	if err != nil {
		return 0, nil, err
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return status, payload, nil
}

// readStatuses decodes every response in r and returns the status bytes.
func readStatuses(t *testing.T, r io.Reader) []uint8 {
	t.Helper()
	br := bufio.NewReader(r)
	var out []uint8
	for {
		status, _, err := decodeResponse(br)
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatalf("decoding response %d: %v", len(out), err)
		}
		out = append(out, status)
	}
}

// TestHostileOffsetOverflowRejected is the regression test for the
// remote-panic bug: an offset with the top bit set went negative in int64,
// passed the old range check, and panicked the data-slice expression —
// one corrupt frame killing the server. The same applies to off+length
// wrapping uint64. Both must now produce statusErr and leave the
// connection serving.
func TestHostileOffsetOverflowRejected(t *testing.T) {
	srv, err := NewServer(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	var in bytes.Buffer
	in.Write(frame(opRead, 1<<63, 4096, nil))                      // off > 2^63: old check saw a negative int64
	in.Write(frame(opRead, ^uint64(0)-100, 200, nil))              // off+length wraps uint64
	in.Write(frame(opWrite, 1<<63, 8, []byte("hostile!")))         // write flavor of the same
	in.Write(frame(opTrim, uint64(1<<20), 1, nil))                 // off == size, length 1: one past the end
	in.Write(frame(opRead, uint64(1<<20)-4, 4, nil))               // still-valid tail read
	in.Write(frame(opPing, 1<<63, ^uint32(0)&(MaxPayload-1), nil)) // hostile ping: off/len ignored, must answer OK
	in.Write(frame(opWrite, 0, 4, []byte("good")))                 // server must still serve
	var out bytes.Buffer
	if err := srv.ServeConn(rwPair{&in, &out}); err != nil {
		t.Fatalf("ServeConn: %v", err)
	}
	got := readStatuses(t, &out)
	want := []uint8{statusErr, statusErr, statusErr, statusErr, statusOK, statusOK, statusOK}
	if len(got) != len(want) {
		t.Fatalf("got %d responses %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("response %d: status %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
}

// scriptedListener returns the scripted errors first, then delegates to the
// real listener (or blocks forever when nil until Close).
type scriptedListener struct {
	mu     sync.Mutex
	errs   []error
	real   net.Listener
	closed chan struct{}
	once   sync.Once
}

func (l *scriptedListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	if len(l.errs) > 0 {
		err := l.errs[0]
		l.errs = l.errs[1:]
		l.mu.Unlock()
		return nil, err
	}
	l.mu.Unlock()
	if l.real != nil {
		return l.real.Accept()
	}
	<-l.closed
	return nil, net.ErrClosed
}

func (l *scriptedListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	if l.real != nil {
		return l.real.Close()
	}
	return nil
}

func (l *scriptedListener) Addr() net.Addr {
	if l.real != nil {
		return l.real.Addr()
	}
	return &net.TCPAddr{}
}

// wrapErrno mirrors how the net package surfaces accept(2) errnos.
func wrapErrno(errno syscall.Errno) error {
	return &net.OpError{Op: "accept", Net: "tcp", Err: os.NewSyscallError("accept", errno)}
}

// TestAcceptLoopRetriesTemporaryErrors proves a burst of EMFILE/ECONNABORTED
// no longer kills the listener: after the scripted failures drain, a real
// client connects and round-trips, and Close reports success.
func TestAcceptLoopRetriesTemporaryErrors(t *testing.T) {
	real, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lis := &scriptedListener{
		errs: []error{
			wrapErrno(syscall.EMFILE),
			wrapErrno(syscall.ECONNABORTED),
			wrapErrno(syscall.ENFILE),
		},
		real:   real,
		closed: make(chan struct{}),
	}
	srv, err := NewServer(4096)
	if err != nil {
		t.Fatal(err)
	}
	srv.lis = lis
	srv.wg.Add(1)
	go srv.acceptLoop(lis)

	cli, err := Dial(real.Addr().String())
	if err != nil {
		t.Fatalf("dial after transient accept errors: %v", err)
	}
	if _, err := cli.WriteAt([]byte("ok"), 0); err != nil {
		t.Fatal(err)
	}
	cli.Close()
	if err := srv.Close(); err != nil {
		t.Fatalf("Close after recovered accept loop: %v", err)
	}
}

// TestAcceptLoopTerminalErrorSurfacedFromClose proves a non-temporary
// accept failure is recorded: the loop exits, and Close — which previously
// reported nil while the listener was long dead — returns the failure.
func TestAcceptLoopTerminalErrorSurfacedFromClose(t *testing.T) {
	boom := errors.New("permanent socket failure")
	lis := &scriptedListener{errs: []error{boom}, closed: make(chan struct{})}
	srv, err := NewServer(4096)
	if err != nil {
		t.Fatal(err)
	}
	srv.lis = lis
	srv.wg.Add(1)
	go srv.acceptLoop(lis)

	deadline := time.Now().Add(5 * time.Second)
	for {
		srv.emu.Lock()
		recorded := srv.listenErr
		srv.emu.Unlock()
		if recorded != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("terminal accept error never recorded")
		}
		time.Sleep(time.Millisecond)
	}
	err = srv.Close()
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("Close = %v, want wrapped %v", err, boom)
	}
	if !strings.Contains(err.Error(), "accept loop terminated") {
		t.Fatalf("Close error %q lacks accept-loop context", err)
	}
}

// TestBackendServerRejectsNil pins NewServerWith's validation.
func TestBackendServerRejectsNil(t *testing.T) {
	if _, err := NewServerWith(nil); err == nil {
		t.Fatal("nil backend accepted")
	}
}

// TestTruncatedTailAnswersCompleteFrames pins that buffered responses
// reach the wire: a stream that ends inside a frame must still get an
// answer to every complete frame before it. Two complete frames plus a
// truncated third give exactly two responses.
func TestTruncatedTailAnswersCompleteFrames(t *testing.T) {
	srv, err := NewServer(4096)
	if err != nil {
		t.Fatal(err)
	}
	in := join(frame(opWrite, 0, 4, []byte("abcd")), frame(opRead, 0, 4, nil), frame(opRead, 0, 4, nil)[:9])
	var out bytes.Buffer
	if err := srv.ServeConn(rwPair{bytes.NewReader(in), &out}); err != nil {
		t.Fatalf("ServeConn: %v", err)
	}
	br := bufio.NewReader(&out)
	for i, want := range []string{"", "abcd"} {
		status, payload, err := decodeResponse(br)
		if err != nil || status != statusOK || string(payload) != want {
			t.Fatalf("response %d: status %d payload %q err %v, want OK %q", i, status, payload, err, want)
		}
	}
	if n := br.Buffered(); n != 0 {
		t.Fatalf("%d bytes after the two responses", n)
	}
}

// closingBackend shuts its server down from inside the first read, so the
// connection loop sees the drain with a second request already buffered.
type closingBackend struct {
	Backend
	srv *Server
}

func (b *closingBackend) ReadAt(p []byte, off int64) error {
	if err := b.srv.Close(); err != nil {
		return err
	}
	return b.Backend.ReadAt(p, off)
}

// TestDrainExitFlushesAnswered pins the drain path: a request answered
// just before shutdown reaches the wire, while the pipelined request
// behind it is left unserved.
func TestDrainExitFlushesAnswered(t *testing.T) {
	mem, err := MemBackend(4096)
	if err != nil {
		t.Fatal(err)
	}
	cb := &closingBackend{Backend: mem}
	srv, err := NewServerWith(cb)
	if err != nil {
		t.Fatal(err)
	}
	cb.srv = srv
	in := join(frame(opRead, 0, 4, nil), frame(opRead, 4, 4, nil))
	var out bytes.Buffer
	if err := srv.ServeConn(rwPair{bytes.NewReader(in), &out}); err != nil {
		t.Fatalf("ServeConn: %v", err)
	}
	got := readStatuses(t, &out)
	if len(got) != 1 || got[0] != statusOK {
		t.Fatalf("responses %v, want the one read answered before the drain", got)
	}
}
