package ipc

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"

	"github.com/ccp-repro/ccp/internal/bufpool"
)

// MaxFrame bounds a single message on stream transports; larger frames are
// rejected on both send and receive so a corrupt length prefix cannot drive
// unbounded allocation.
const MaxFrame = 1 << 20

// streamTransport frames messages over a reliable byte stream with a 4-byte
// little-endian length prefix.
type streamTransport struct {
	conn net.Conn

	sendMu sync.Mutex
	recvMu sync.Mutex
	hdr    [4]byte
	rhdr   [4]byte
}

// NewStream wraps a connected byte-stream connection (Unix or TCP) in a
// framing Transport.
func NewStream(conn net.Conn) Transport {
	return &streamTransport{conn: conn}
}

func (s *streamTransport) Send(msg []byte) error {
	if len(msg) > MaxFrame {
		return fmt.Errorf("ipc: frame too large (%d bytes)", len(msg))
	}
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	binary.LittleEndian.PutUint32(s.hdr[:], uint32(len(msg)))
	if _, err := s.conn.Write(s.hdr[:]); err != nil {
		return err
	}
	_, err := s.conn.Write(msg)
	return err
}

// RecvFrame reads one message into a pooled frame owned by the caller until
// Release.
func (s *streamTransport) RecvFrame() (*bufpool.Buf, error) {
	s.recvMu.Lock()
	defer s.recvMu.Unlock()
	if _, err := io.ReadFull(s.conn, s.rhdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(s.rhdr[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("ipc: oversized frame (%d bytes)", n)
	}
	f := bufpool.Get(int(n))
	f.B = f.B[:n]
	if _, err := io.ReadFull(s.conn, f.B); err != nil {
		f.Release()
		return nil, err
	}
	return f, nil
}

func (s *streamTransport) Recv() ([]byte, error) { return CopyFrame(s) }

func (s *streamTransport) Close() error { return s.conn.Close() }

// ListenUnix listens on a Unix stream socket at path. The caller accepts
// connections and wraps each with NewStream.
func ListenUnix(path string) (*net.UnixListener, error) {
	addr, err := net.ResolveUnixAddr("unix", path)
	if err != nil {
		return nil, err
	}
	return net.ListenUnix("unix", addr)
}

// DialUnix connects to a Unix stream socket and returns a framing Transport.
func DialUnix(path string) (Transport, error) {
	conn, err := net.Dial("unix", path)
	if err != nil {
		return nil, err
	}
	return NewStream(conn), nil
}

// dgramTransport is a Unix datagram socket endpoint: one datagram per
// message, preserving boundaries without framing — the same semantics as the
// Netlink sockets the paper's kernel datapath used. The socket is bound
// locally and every Send is addressed to the fixed peer.
type dgramTransport struct {
	conn *net.UnixConn
	peer *net.UnixAddr
}

func newDgram(conn *net.UnixConn, peer *net.UnixAddr) Transport {
	return &dgramTransport{conn: conn, peer: peer}
}

func (d *dgramTransport) Send(msg []byte) error {
	if len(msg) > MaxFrame {
		return fmt.Errorf("ipc: datagram too large (%d bytes)", len(msg))
	}
	_, err := d.conn.WriteToUnix(msg, d.peer)
	return err
}

// RecvFrame reads one datagram straight into a pooled frame — no per-message
// copy. The caller owns the frame until Release.
func (d *dgramTransport) RecvFrame() (*bufpool.Buf, error) {
	f := bufpool.Get(MaxFrame)
	f.B = f.B[:MaxFrame]
	n, _, err := d.conn.ReadFromUnix(f.B)
	if err != nil {
		f.Release()
		return nil, err
	}
	f.B = f.B[:n]
	return f, nil
}

func (d *dgramTransport) Recv() ([]byte, error) { return CopyFrame(d) }

func (d *dgramTransport) Close() error { return d.conn.Close() }

// BindDgram binds a Unix datagram socket at local whose Sends are addressed
// to peer. The peer socket need not exist yet; Sends fail until it does.
func BindDgram(local, peer string) (Transport, error) {
	laddr, err := net.ResolveUnixAddr("unixgram", local)
	if err != nil {
		return nil, err
	}
	paddr, err := net.ResolveUnixAddr("unixgram", peer)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUnixgram("unixgram", laddr)
	if err != nil {
		return nil, err
	}
	return newDgram(conn, paddr), nil
}
