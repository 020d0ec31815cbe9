// Package netblock implements a minimal remote block-device protocol over
// TCP — the repository's stand-in for the iSCSI transport the paper's
// testbed used between host and primary storage (Table 1). Unlike the
// virtual-time simulation, this is a real network service moving real
// bytes: Server exports an in-memory volume, Client gives random-access
// reads/writes/trims/flushes over a connection.
//
// Wire format (all integers big-endian):
//
//	request:  magic u32 | op u8 | offset u64 | length u32 | payload (writes)
//	response: magic u32 | status u8 | length u32 | payload (reads)
//
// The opPing health op ignores offset and length and answers with a
// 17-byte payload — size u64 | epoch u64 | flags u8 — the cluster layer's
// health probe and handshake: volume size, the server's ring epoch, and
// whether it is draining for shutdown.
//
// Framing is buffered on both sides; the bytes on the wire are the same as
// an unbuffered writer would send, so peers of either kind interoperate.
// The client sends each request (header and payload) with one flush and
// reads a read's payload straight into the caller's slice. The server
// decodes every frame of a connection into one reused request value and
// flushes each response as soon as it is encoded, before it reads the
// next request. Clients send one request at a time and wait for its
// answer, so this is one write per response; coalescing the replies to
// pipelined requests waits for a client that pipelines. Each connection
// holds a reader and a writer of connBufSize bytes apiece on each side,
// plus on the server one page-sized payload buffer; a transfer larger
// than a page gets a buffer of its own that is freed with the request.
//
// A client that hits a transport error — a timeout, a reset, a malformed
// response — closes its connection, because a late response would
// otherwise be read as the answer to the next request. A Dial client
// redials on its next call; a wrapped one (NewClient) fails from then on.
package netblock

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Protocol constants.
const (
	reqMagic  uint32 = 0x53524351 // "SRCQ"
	respMagic uint32 = 0x53524352 // "SRCR"

	opRead  uint8 = 1
	opWrite uint8 = 2
	opTrim  uint8 = 3
	opFlush uint8 = 4
	opSize  uint8 = 5
	opPing  uint8 = 6

	statusOK  uint8 = 0
	statusErr uint8 = 1

	// pingDraining is the flag bit set in a ping response while the server
	// is shutting down — a routing hint, not an error: in-flight requests
	// still complete under DrainGrace.
	pingDraining uint8 = 1 << 0

	// MaxPayload bounds one transfer.
	MaxPayload = 4 << 20
)

// Errors.
var (
	// ErrProtocol reports a malformed frame.
	ErrProtocol = errors.New("netblock: protocol error")
	// ErrRemote reports a server-side failure.
	ErrRemote = errors.New("netblock: remote error")
)

// Frame header sizes, the largest payload a server connection keeps a
// buffer for, and the size of each connection's bufio reader and writer:
// one fill or one flush carries a request header plus one 4 KiB cache
// page. Larger transfers pass through in pieces.
const (
	reqHeaderLen  = 17
	respHeaderLen = 9
	pageSize      = 4096
	connBufSize   = reqHeaderLen + pageSize
)

// request is one decoded command frame. The server decodes every frame of
// a connection into the same value, so payload storage is reused.
type request struct {
	op     uint8
	off    uint64
	length uint32
	// payload is a write's data; it aliases buf and is valid until the
	// next decode. Nil for every other op.
	payload []byte
	// buf is the connection's page of payload storage, allocated on first
	// use: decoded write data and the read data the server answers with.
	buf []byte
}

// reuse returns n bytes of payload storage. Transfers of up to one page
// share the request's buffer; a larger one gets a buffer of its own, freed
// after the request, so a connection never holds more than a page however
// large its transfers have been.
func (r *request) reuse(n uint32) []byte {
	if n > pageSize {
		return make([]byte, n)
	}
	if r.buf == nil {
		r.buf = make([]byte, pageSize)
	}
	return r.buf[:n]
}

// readHeader consumes the next n header bytes of r and returns them
// without copying; the slice is valid until the next read from r. A stream
// that ends inside the header reports io.ErrUnexpectedEOF, as io.ReadFull
// does, and one that ends before it reports io.EOF.
func readHeader(r *bufio.Reader, n int) ([]byte, error) {
	hdr, err := r.Peek(n)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	_, err = r.Discard(n)
	return hdr, err
}

// readRequest decodes the next command frame from r into req, reading a
// write's payload into req's reusable buffer.
func readRequest(r *bufio.Reader, req *request) error {
	hdr, err := readHeader(r, reqHeaderLen)
	if err != nil {
		return err
	}
	if binary.BigEndian.Uint32(hdr[0:]) != reqMagic {
		return fmt.Errorf("%w: bad request magic", ErrProtocol)
	}
	req.op = hdr[4]
	req.off = binary.BigEndian.Uint64(hdr[5:])
	req.length = binary.BigEndian.Uint32(hdr[13:])
	req.payload = nil
	if req.length > MaxPayload {
		return fmt.Errorf("%w: length %d exceeds limit", ErrProtocol, req.length)
	}
	if req.op == opWrite {
		req.payload = req.reuse(req.length)
		if _, err := io.ReadFull(r, req.payload); err != nil {
			return err
		}
	}
	return nil
}

// writeRequest encodes one command frame into w's buffer; the caller
// flushes.
func writeRequest(w *bufio.Writer, op uint8, off uint64, length uint32, payload []byte) error {
	hdr := w.AvailableBuffer()
	hdr = binary.BigEndian.AppendUint32(hdr, reqMagic)
	hdr = append(hdr, op)
	hdr = binary.BigEndian.AppendUint64(hdr, off)
	hdr = binary.BigEndian.AppendUint32(hdr, length)
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// writeResponse encodes one response frame into w's buffer; the caller
// flushes.
func writeResponse(w *bufio.Writer, status uint8, payload []byte) error {
	hdr := w.AvailableBuffer()
	hdr = binary.BigEndian.AppendUint32(hdr, respMagic)
	hdr = append(hdr, status)
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(len(payload)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readResponseHeader decodes the next response header from r and returns
// its status and payload length; the payload itself is left in r for the
// caller to read into its own buffer.
func readResponseHeader(r *bufio.Reader) (status uint8, n uint32, err error) {
	hdr, err := readHeader(r, respHeaderLen)
	if err != nil {
		return 0, 0, err
	}
	if binary.BigEndian.Uint32(hdr[0:]) != respMagic {
		return 0, 0, fmt.Errorf("%w: bad response magic", ErrProtocol)
	}
	n = binary.BigEndian.Uint32(hdr[5:])
	if n > MaxPayload {
		return 0, 0, fmt.Errorf("%w: length %d exceeds limit", ErrProtocol, n)
	}
	return hdr[4], n, nil
}
