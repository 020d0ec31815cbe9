package netblock

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"testing"
)

// header assembles a 17-byte request header from its fields; the fuzz
// corpora below seed the interesting boundary frames and the engine mutates
// from there.
func header(magic uint32, op uint8, off uint64, length uint32) []byte {
	var hdr [17]byte
	binary.BigEndian.PutUint32(hdr[0:], magic)
	hdr[4] = op
	binary.BigEndian.PutUint64(hdr[5:], off)
	binary.BigEndian.PutUint32(hdr[13:], length)
	return hdr[:]
}

// FuzzReadRequest throws arbitrary byte streams at the frame decoder,
// decoding every frame of the stream into one reused request value as the
// server does. The decoder must never panic, and each accepted frame must
// satisfy the invariants the server relies on: bounded length, a write's
// payload equal to the bytes on the wire, nil payload otherwise — even
// when an earlier frame left a larger payload in the reused buffer — and
// no more than one page of payload storage kept between frames.
func FuzzReadRequest(f *testing.F) {
	f.Add(header(reqMagic, opRead, 0, 4096))
	f.Add(header(reqMagic, opRead, 1<<63, 4096))          // the remote-panic seed
	f.Add(header(reqMagic, opWrite, ^uint64(0)-100, 200)) // off+length uint64 wrap
	f.Add(header(reqMagic, opTrim, 1<<62, MaxPayload))
	f.Add(header(reqMagic, opPing, ^uint64(0), 1))
	f.Add(header(reqMagic, opWrite, 0, MaxPayload+1)) // oversized length
	f.Add(append(header(reqMagic, opWrite, 8, 4), 'd', 'a', 't', 'a'))
	f.Add(header(0xdeadbeef, opRead, 0, 0)) // bad magic
	f.Add([]byte("short"))
	// A long write, a short one reusing its buffer, then a read.
	f.Add(join(frame(opWrite, 0, 6, []byte("longer")), frame(opWrite, 8, 2, []byte("ab")), frame(opRead, 0, 4, nil)))
	// A write larger than a page, then a page-sized one.
	f.Add(join(frame(opWrite, 0, 2*pageSize, make([]byte, 2*pageSize)), frame(opWrite, 0, pageSize, make([]byte, pageSize))))
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReaderSize(bytes.NewReader(data), connBufSize)
		var req request
		pos := 0
		for readRequest(br, &req) == nil {
			if cap(req.buf) > pageSize {
				t.Fatalf("connection keeps %d bytes of payload storage, more than a page", cap(req.buf))
			}
			pos += reqHeaderLen
			if req.length > MaxPayload {
				t.Fatalf("accepted length %d over MaxPayload", req.length)
			}
			if req.op != opWrite {
				if req.payload != nil {
					t.Fatalf("non-write op %d carried payload", req.op)
				}
				continue
			}
			if uint32(len(req.payload)) != req.length {
				t.Fatalf("write payload %d bytes, header said %d", len(req.payload), req.length)
			}
			if !bytes.Equal(req.payload, data[pos:pos+len(req.payload)]) {
				t.Fatalf("write payload at byte %d differs from the wire", pos)
			}
			pos += len(req.payload)
		}
	})
}

// join concatenates frames into one stream.
func join(frames ...[]byte) []byte { return bytes.Join(frames, nil) }

// completeFrames counts the request frames at the head of data that a
// server decodes and answers: whole frames with a valid magic and length,
// up to the first malformed or truncated one.
func completeFrames(data []byte) int {
	n := 0
	for len(data) >= reqHeaderLen && binary.BigEndian.Uint32(data) == reqMagic {
		length := binary.BigEndian.Uint32(data[13:])
		if length > MaxPayload {
			break
		}
		size := reqHeaderLen
		if data[4] == opWrite {
			size += int(length)
		}
		if len(data) < size {
			break
		}
		data = data[size:]
		n++
	}
	return n
}

// countResponses parses every response frame in out and counts them,
// failing on bytes that are not whole, well-formed responses.
func countResponses(t *testing.T, out []byte) int {
	t.Helper()
	br := bufio.NewReader(bytes.NewReader(out))
	n := 0
	for {
		status, _, err := decodeResponse(br)
		if err == io.EOF {
			return n
		}
		if err != nil {
			t.Fatalf("server emitted unparseable response bytes after %d responses: %v", n, err)
		}
		if status != statusOK && status != statusErr {
			t.Fatalf("server emitted unknown status %d", status)
		}
		n++
	}
}

// pacedReader feeds a request stream to the server a few bytes per Read.
// A Read is where a server on a real socket may block, so before serving
// one it checks the flush rule: every complete frame delivered so far has
// its response in out already.
type pacedReader struct {
	t         *testing.T
	data      []byte
	delivered int
	chunk     int
	out       *bytes.Buffer
}

func (r *pacedReader) Read(p []byte) (int, error) {
	if got, want := countResponses(r.t, r.out.Bytes()), completeFrames(r.data[:r.delivered]); got != want {
		r.t.Fatalf("server read more input with %d responses flushed for %d complete frames", got, want)
	}
	if r.delivered == len(r.data) {
		return 0, io.EOF
	}
	n := copy(p, r.data[r.delivered:min(r.delivered+r.chunk, len(r.data))])
	r.delivered += n
	return n, nil
}

// FuzzHandle drives the full server request loop with arbitrary frames,
// proving no 17-byte header — hostile offsets, wrapped lengths, unknown
// ops — can panic the server or corrupt its framing: every byte the server
// emits must parse as well-formed responses, one per complete frame in the
// input, and the responses to complete frames must be flushed before the
// server reads further (the input arrives in small pieces, split at a
// point that varies with its length).
func FuzzHandle(f *testing.F) {
	f.Add(header(reqMagic, opRead, 0, 4096))
	f.Add(header(reqMagic, opRead, 1<<63, 4096)) // the remote-panic regression seed
	f.Add(header(reqMagic, opWrite, ^uint64(0)-4095, 4096))
	f.Add(header(reqMagic, opTrim, ^uint64(0), ^uint32(0)&(MaxPayload-1)))
	f.Add(header(reqMagic, opSize, 1<<63, 0))
	f.Add(header(reqMagic, opPing, 0, 0))                // health probe
	f.Add(header(reqMagic, opPing, 1<<63, MaxPayload-1)) // hostile ping: off/len must be ignored
	f.Add(header(reqMagic, 0xff, 123, 1))                // unknown op
	f.Add(append(header(reqMagic, opWrite, 0, 8), []byte("payload!")...))
	f.Add(append(header(reqMagic, opRead, 4096, 16), header(reqMagic, opRead, 1<<63, 1)...))
	// Several frames in one stream: pipelined requests, each answered
	// before the next is read.
	f.Add(join(frame(opWrite, 0, 8, []byte("pipeline")), frame(opRead, 0, 8, nil), frame(opPing, 0, 0, nil), frame(opFlush, 0, 0, nil)))
	// Two complete frames and a truncated third: both must be answered.
	f.Add(join(frame(opWrite, 0, 4, []byte("abcd")), frame(opRead, 0, 4, nil), frame(opRead, 0, 4, nil)[:9]))
	// A complete frame followed by a write cut off inside its payload.
	f.Add(join(frame(opRead, 0, 4096, nil), frame(opWrite, 0, 4096, make([]byte, 4096))[:2000]))
	// A complete frame followed by a bad magic.
	f.Add(join(frame(opSize, 0, 0, nil), header(0xdeadbeef, opRead, 0, 0)))
	f.Fuzz(func(t *testing.T, data []byte) {
		srv, err := NewServer(64 << 10)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		in := &pacedReader{t: t, data: data, chunk: 1 + len(data)%61, out: &out}
		// ServeConn returns an error only for protocol violations; it must
		// never panic regardless of input.
		_ = srv.ServeConn(rwPair{in, &out})
		if got, want := countResponses(t, out.Bytes()), completeFrames(data); got != want {
			t.Fatalf("%d responses for %d complete frames", got, want)
		}
	})
}
