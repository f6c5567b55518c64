// Package shmring is the fast lane between the agent and a datapath: a pair
// of lock-free single-producer/single-consumer byte rings over one mmap-ed
// file, one ring per direction. It exists because the paper's whole argument
// (Figure 2: IPC is cheap enough to move congestion control off the
// datapath) deserves the production-grade channel its SIGCOMM'18 follow-up
// actually shipped — a shared-memory queue — rather than only the Unix
// sockets the stdlib hands us.
//
// # Layout
//
// The ring file holds a 64-byte header followed by two ring blocks, each a
// 256-byte control area plus a power-of-two data area:
//
//	[file header][ctrl A→B][data A→B][ctrl B→A][data B→A]
//
// The creator (Create) is endpoint A and produces into the first ring; the
// opener (Open) is endpoint B and produces into the second. Each control
// area keeps the ring's two free-running byte cursors on their own cache
// lines — head (written only by the producer) and tail (written only by the
// consumer) — so the hot path never false-shares, plus the consumer's park
// flag and registered doorbell address.
//
// # Framing
//
// Messages are length-prefixed: a 4-byte little-endian size, then the
// payload. Records are written at head&mask with wrap-aware copies, so a
// frame (or even its size header) may straddle the ring boundary; both sides
// split their copies accordingly. A size header that fails validation
// (larger than ipc.MaxFrame, larger than the ring, or extending past the
// published head) can only mean corrupted shared memory, and the endpoint
// fails the connection rather than walking garbage.
//
// # Memory ordering
//
// Publication is release/acquire through the cursors: the producer writes
// the record bytes with plain stores and then publishes them with an atomic
// store of head; the consumer loads head atomically before reading record
// bytes, and returns space with an atomic store of tail that the producer
// loads before reusing it. Go's sync/atomic operations are sequentially
// consistent, which is stronger than the release/acquire edge this needs;
// across processes the same machine operations provide the same ordering on
// the shared mapping. See DESIGN.md §11 for the full argument.
//
// # Waiting
//
// Receivers spin briefly (yielding the scheduler, and periodically the OS,
// so a single-CPU host can run the peer), then park: set the ring's park
// flag, re-check emptiness, and block on a datagram-socket doorbell with a
// bounded timeout. A producer that observes the park flag after publishing
// clears it with a CAS and sends one datagram to the consumer's registered
// doorbell — so a saturated ring costs zero syscalls and an idle one costs
// one wakeup per park. Producers facing a full ring never use the doorbell;
// they yield and then sleep in bounded steps (backpressure is already the
// slow path). Close always wakes both sides: the closer raises its shared
// closed flag, rings the peer's doorbell, and closes its own.
package shmring

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"github.com/ccp-repro/ccp/internal/bufpool"
)

const (
	// magic is "CCPSHMR1" as a little-endian uint64; it is stored last during
	// Create so an Open racing the creator sees either no magic or a fully
	// initialized header.
	magic   = uint64(0x31524d4853504343)
	version = uint32(1)

	fileHdrSize = 64
	ctrlSize    = 256

	// File-header field offsets.
	offMagic   = 0
	offVersion = 8
	offRing    = 12 // ring data bytes per direction
	offClosedA = 16
	offClosedB = 20
	offPidA    = 24 // creator's pid, stored at map time (0 = not attached yet)
	offPidB    = 28 // opener's pid

	// Control-block field offsets (relative to the block).
	offHead     = 0   // producer cursor, own cache line
	offTail     = 64  // consumer cursor, own cache line
	offParked   = 128 // consumer park flag
	offBellLen  = 136 // doorbell path length; nonzero publishes the path
	offBellPath = 140

	// bellPathMax bounds a registered doorbell socket path (the control
	// block reserves ctrlSize-offBellPath bytes; Unix socket paths are
	// shorter than this anyway).
	bellPathMax = ctrlSize - offBellPath

	// DefaultRingBytes is the per-direction data size (256 KiB: a few
	// thousand one-report frames, deep enough that a burst of reports does
	// not stall the sender, small enough that a connection costs ~half a
	// MiB of address space).
	DefaultRingBytes = 1 << 18

	minRingBytes = 1 << 12
	maxRingBytes = 1 << 30
)

// Options configures an endpoint.
type Options struct {
	// RingBytes is the data size per direction (power of two, default
	// DefaultRingBytes). Only Create uses it; Open adopts the file's size.
	RingBytes int
	// SpinYields is how many scheduler yields a receiver burns before
	// parking on the doorbell (default 192). Every fourth yield is an OS
	// yield so a busy single-CPU host still lets the peer process run.
	SpinYields int
	// ParkTimeout bounds one doorbell wait (default 20ms). It is a liveness
	// backstop — a parked receiver whose peer dies without closing re-checks
	// the shared flags this often — not a correctness mechanism.
	ParkTimeout time.Duration
	// Bell, when non-nil, is a shared doorbell (a Mux's): the endpoint
	// registers it instead of creating a private one, so one serve loop can
	// park for many connections. The endpoint does not close a shared bell.
	// A private bell is the socket "<ring path>.a.bell" or ".b.bell" by role.
	Bell *Bell
}

func (o Options) withDefaults() Options {
	if o.RingBytes == 0 {
		o.RingBytes = DefaultRingBytes
	}
	if o.SpinYields == 0 {
		o.SpinYields = 192
	}
	if o.ParkTimeout == 0 {
		o.ParkTimeout = 20 * time.Millisecond
	}
	return o
}

// ring is one direction's view of the shared mapping.
type ring struct {
	head     *uint64 // atomic; written by the producer only
	tail     *uint64 // atomic; written by the consumer only
	parked   *uint32 // atomic; consumer arms, producer disarms with CAS
	bellLen  *uint32 // atomic publish flag for bellPath
	bellPath []byte
	data     []byte
	size     uint64
	mask     uint64
}

// avail returns the bytes of published, unconsumed records.
func (r *ring) avail() uint64 {
	return atomic.LoadUint64(r.head) - atomic.LoadUint64(r.tail)
}

// write copies p into the data area at free-running index at, splitting the
// copy at the ring boundary when the record straddles it.
func (r *ring) write(at uint64, p []byte) {
	pos := at & r.mask
	n := copy(r.data[pos:], p)
	if n < len(p) {
		copy(r.data, p[n:])
	}
}

// read copies len(p) bytes out of the data area at free-running index at,
// splitting at the boundary like write.
func (r *ring) read(at uint64, p []byte) {
	pos := at & r.mask
	n := copy(p, r.data[pos:])
	if n < len(p) {
		copy(p[n:], r.data[:len(p)-n])
	}
}

// Endpoint is one side of a shared-memory connection. It implements
// ipc.Transport, and its RecvFrame/TryRecvFrame hand out zero-copy views of
// ring memory: the view is valid only until its Release, which is what
// advances the consumer cursor and lets the producer reuse the region. At
// most one received frame may be outstanding per endpoint.
type Endpoint struct {
	mem  []byte
	path string
	role byte // 'a' (creator) or 'b' (opener)

	sendR ring // we produce
	recvR ring // we consume

	localClosed *uint32 // our shared closed flag
	peerClosed  *uint32
	peerPid     *uint32 // peer's pid slot in the header (0 until it attaches)

	opts    Options
	bell    *Bell
	ownBell bool

	// peerMu guards the cached dial to the peer's doorbell.
	peerMu   sync.Mutex
	peerConn doorbellConn

	sendMu sync.Mutex
	recvMu sync.Mutex

	// Adaptive spin state (recvMu-guarded). spinStarved is set when a
	// blocking receive had to park or outlasted starveWait: on a saturated
	// CPU scheduler yields starve behind runnable in-process busy work, so
	// subsequent waits replace the spin phase with a few direct OS yields
	// (handing the CPU to the peer process) and then the park. parkStreak
	// lets an occasional wait re-probe spinning so an idle host climbs back
	// onto the ~µs path. The mode only ever engages for a cross-process
	// peer (see peerInProcess): for a same-process peer a Gosched reaches
	// the peer goroutine directly, sched_yield reaches nothing, and fd
	// parks cost 10× the spin path.
	spinStarved bool
	parkStreak  int
	// peerLocal caches the peer-pid comparison once the peer has attached
	// (recvMu-guarded; the slot is written once and never changes).
	peerLocal, peerLocalKnown bool

	// view is the reusable zero-copy hand-out; pending is the bytes
	// (header+payload) its Release will advance the cursor by — nonzero
	// means a frame is outstanding and the next receive must wait.
	view    *bufpool.Buf
	pending atomic.Uint32
	scratch []byte // staging for records that straddle the ring boundary

	closed    atomic.Bool
	closeOnce sync.Once
	// corrupt records the first shared-memory validation failure; once set,
	// every operation returns it (the mapping is no longer trustworthy).
	corrupt atomic.Pointer[error]
}

// Create creates the ring file at path (which must not exist) and returns
// endpoint A. The file is fully initialized before Create returns, so a
// peer may Open it at any later moment.
func Create(path string, o Options) (*Endpoint, error) {
	o = o.withDefaults()
	if err := checkRingBytes(o.RingBytes); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600)
	if err != nil {
		return nil, fmt.Errorf("shmring: create: %w", err)
	}
	total := fileSize(o.RingBytes)
	if err := f.Truncate(int64(total)); err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("shmring: size ring file: %w", err)
	}
	mem, err := syscall.Mmap(int(f.Fd()), 0, total, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	f.Close()
	if err != nil {
		os.Remove(path)
		return nil, fmt.Errorf("shmring: mmap: %w", err)
	}
	binary.LittleEndian.PutUint32(mem[offVersion:], version)
	binary.LittleEndian.PutUint32(mem[offRing:], uint32(o.RingBytes))
	// Publish the header: Open validates the magic before trusting anything
	// else, so store it last, atomically.
	atomic.StoreUint64(u64at(mem, offMagic), magic)
	return newEndpoint(mem, path, 'a', o)
}

// Open maps an existing ring file and returns endpoint B. It fails (rather
// than blocking) when the file is absent or not yet initialized; dialers
// retry, exactly as they would a socket that is not listening yet.
func Open(path string, o Options) (*Endpoint, error) {
	o = o.withDefaults()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("shmring: open: %w", err)
	}
	var hdr [fileHdrSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("shmring: read header: %w", err)
	}
	if binary.LittleEndian.Uint64(hdr[offMagic:]) != magic {
		f.Close()
		return nil, fmt.Errorf("shmring: %s: not a shmring file (or not initialized yet)", path)
	}
	if v := binary.LittleEndian.Uint32(hdr[offVersion:]); v != version {
		f.Close()
		return nil, fmt.Errorf("shmring: %s: version %d, want %d", path, v, version)
	}
	ringBytes := int(binary.LittleEndian.Uint32(hdr[offRing:]))
	if err := checkRingBytes(ringBytes); err != nil {
		f.Close()
		return nil, err
	}
	total := fileSize(ringBytes)
	if st, err := f.Stat(); err != nil || st.Size() < int64(total) {
		f.Close()
		return nil, fmt.Errorf("shmring: %s: truncated ring file", path)
	}
	mem, err := syscall.Mmap(int(f.Fd()), 0, total, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("shmring: mmap: %w", err)
	}
	o.RingBytes = ringBytes
	return newEndpoint(mem, path, 'b', o)
}

// Pair creates the ring file at path and opens both endpoints in-process:
// the A side with aOpts, the B side with bOpts. It exists for tests,
// benchmarks, and single-process deployments (./benchmark) — the shared
// memory is real either way.
func Pair(path string, aOpts, bOpts Options) (a, b *Endpoint, err error) {
	a, err = Create(path, aOpts)
	if err != nil {
		return nil, nil, err
	}
	b, err = Open(path, bOpts)
	if err != nil {
		a.Close()
		return nil, nil, err
	}
	return a, b, nil
}

func newEndpoint(mem []byte, path string, role byte, o Options) (*Endpoint, error) {
	ringBytes := o.RingBytes
	r0 := ringAt(mem, fileHdrSize, ringBytes)
	r1 := ringAt(mem, fileHdrSize+ctrlSize+ringBytes, ringBytes)
	e := &Endpoint{mem: mem, path: path, role: role, opts: o}
	if role == 'a' {
		e.sendR, e.recvR = r0, r1
		e.localClosed = u32at(mem, offClosedA)
		e.peerClosed = u32at(mem, offClosedB)
		atomic.StoreUint32(u32at(mem, offPidA), uint32(os.Getpid()))
		e.peerPid = u32at(mem, offPidB)
	} else {
		e.sendR, e.recvR = r1, r0
		e.localClosed = u32at(mem, offClosedB)
		e.peerClosed = u32at(mem, offClosedA)
		atomic.StoreUint32(u32at(mem, offPidB), uint32(os.Getpid()))
		e.peerPid = u32at(mem, offPidA)
	}
	e.view = bufpool.NewView(e.releaseView)
	if o.Bell != nil {
		e.bell = o.Bell
	} else {
		bell, err := NewBell(path + "." + string(role) + ".bell")
		if err != nil {
			syscall.Munmap(mem)
			return nil, err
		}
		e.bell, e.ownBell = bell, true
	}
	if err := e.register(); err != nil {
		if e.ownBell {
			e.bell.Close()
		}
		syscall.Munmap(mem)
		return nil, err
	}
	// The mapping is reclaimed when the endpoint becomes unreachable — not
	// in Close, which would race operations (and views) still in flight.
	runtime.SetFinalizer(e, func(e *Endpoint) { syscall.Munmap(e.mem) })
	return e, nil
}

// register publishes our doorbell path in the ring we consume, so the
// producer on the far side knows whom to wake. The path bytes go first,
// the length last with an atomic store: a nonzero length is the publish.
func (e *Endpoint) register() error {
	p := e.bell.Path()
	if len(p) > bellPathMax {
		return fmt.Errorf("shmring: doorbell path %q longer than %d bytes", p, bellPathMax)
	}
	copy(e.recvR.bellPath, p)
	atomic.StoreUint32(e.recvR.bellLen, uint32(len(p)))
	return nil
}

// Close marks this side closed, wakes a parked peer and any parked local
// receiver, and releases the private doorbell. The shared mapping itself is
// reclaimed when the endpoint is garbage collected (see newEndpoint); the
// ring file stays on disk for the creator's directory cleanup.
func (e *Endpoint) Close() error {
	e.closeOnce.Do(func() {
		e.closed.Store(true)
		atomic.StoreUint32(e.localClosed, 1)
		// A peer parked on our send ring must wake to observe the flag.
		if atomic.CompareAndSwapUint32(e.sendR.parked, 1, 0) {
			e.wakePeer()
		}
		if e.ownBell {
			e.bell.Close() // unblocks our own parked receiver immediately
		}
		e.peerMu.Lock()
		if e.peerConn != nil {
			e.peerConn.Close()
			e.peerConn = nil
		}
		e.peerMu.Unlock()
	})
	return nil
}

func (e *Endpoint) failAndClose(format string, args ...any) error {
	err := fmt.Errorf("shmring: "+format, args...)
	e.corrupt.CompareAndSwap(nil, &err)
	e.Close()
	return *e.corrupt.Load()
}

func checkRingBytes(n int) error {
	if n < minRingBytes || n > maxRingBytes || n&(n-1) != 0 {
		return fmt.Errorf("shmring: ring size %d not a power of two in [%d, %d]", n, minRingBytes, maxRingBytes)
	}
	return nil
}

func fileSize(ringBytes int) int {
	return fileHdrSize + 2*(ctrlSize+ringBytes)
}

func ringAt(mem []byte, ctrl, ringBytes int) ring {
	return ring{
		head:     u64at(mem, ctrl+offHead),
		tail:     u64at(mem, ctrl+offTail),
		parked:   u32at(mem, ctrl+offParked),
		bellLen:  u32at(mem, ctrl+offBellLen),
		bellPath: mem[ctrl+offBellPath : ctrl+ctrlSize],
		data:     mem[ctrl+ctrlSize : ctrl+ctrlSize+ringBytes],
		size:     uint64(ringBytes),
		mask:     uint64(ringBytes) - 1,
	}
}

// u64at and u32at view a mapped offset as an atomically accessible word.
// The mapping is page-aligned and every cursor offset is 64-byte aligned,
// satisfying the 64-bit alignment requirement on every platform.
func u64at(mem []byte, off int) *uint64 { return (*uint64)(unsafe.Pointer(&mem[off])) }
func u32at(mem []byte, off int) *uint32 { return (*uint32)(unsafe.Pointer(&mem[off])) }
