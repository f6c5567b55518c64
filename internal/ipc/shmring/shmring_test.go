package shmring

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"github.com/ccp-repro/ccp/internal/ipc"
)

// Interface conformance, checked at compile time.
var (
	_ ipc.Transport   = (*Endpoint)(nil)
	_ ipc.FrameRecver = (*Endpoint)(nil)
	_ ipc.TryRecver   = (*Endpoint)(nil)
	_ ipc.RecvSet     = (*Mux)(nil)
)

// testPair returns both ends of a ring of size data bytes per direction.
func testPair(t *testing.T, size int) (*Endpoint, *Endpoint) {
	t.Helper()
	a, b, err := PairSized(filepath.Join(t.TempDir(), "ring"), size, Options{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func TestRoundTrip(t *testing.T) {
	a, b := testPair(t, ringBytes)
	for _, size := range []int{1, 2, 3, 64, 1024, 65536} {
		msg := make([]byte, size)
		for i := range msg {
			msg[i] = byte(i * 7)
		}
		if err := a.Send(msg); err != nil {
			t.Fatalf("send %d bytes: %v", size, err)
		}
		got, err := b.Recv()
		if err != nil {
			t.Fatalf("recv %d bytes: %v", size, err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("%d-byte message corrupted in transit", size)
		}
		// And the reverse direction through the other ring.
		if err := b.Send(msg); err != nil {
			t.Fatalf("reverse send %d bytes: %v", size, err)
		}
		got, err = a.Recv()
		if err != nil {
			t.Fatalf("reverse recv %d bytes: %v", size, err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("%d-byte reverse message corrupted in transit", size)
		}
	}
}

func TestBoundariesPreserved(t *testing.T) {
	a, b := testPair(t, ringBytes)
	sizes := []int{5, 1, 300, 7, 64}
	for i, n := range sizes {
		msg := bytes.Repeat([]byte{byte(i + 1)}, n)
		if err := a.Send(msg); err != nil {
			t.Fatal(err)
		}
	}
	for i, n := range sizes {
		got, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != n || got[0] != byte(i+1) {
			t.Fatalf("message %d: got %d bytes first=%#x, want %d bytes of %#x",
				i, len(got), got[0], n, i+1)
		}
	}
}

// TestWrapAroundEveryOffset walks records whose size is coprime to the ring
// size across the whole ring, twice: once with a record shorter than the
// 4-byte header is wide (so even the size header straddles the boundary) and
// once with a record a quarter of the ring (so payloads straddle). Every
// byte offset of the ring hosts a record start in the first walk.
func TestWrapAroundEveryOffset(t *testing.T) {
	for _, payload := range []int{3, 1001} { // records of 7 and 1005 bytes; gcd with 4096 is 1
		a, b := testPair(t, 4096)
		msg := make([]byte, payload)
		iters := 2 * 4096 / (4 + payload) * (4 + payload) // at least two full ring trips
		if payload == 3 {
			iters = 2 * 4096 // every offset
		}
		for i := 0; i < iters; i++ {
			for j := range msg {
				msg[j] = byte(i + j)
			}
			if err := a.Send(msg); err != nil {
				t.Fatalf("payload %d iter %d: send: %v", payload, i, err)
			}
			f, err := b.RecvFrame()
			if err != nil {
				t.Fatalf("payload %d iter %d: recv: %v", payload, i, err)
			}
			if !bytes.Equal(f.B, msg) {
				t.Fatalf("payload %d iter %d: corrupted across wrap (got %x... want %x...)",
					payload, i, f.B[:min(8, len(f.B))], msg[:min(8, len(msg))])
			}
			f.Release()
		}
		a.Close()
		b.Close()
	}
}

// TestFullRingBackpressure fills a tiny ring and checks that Send blocks
// (rather than dropping or erroring) until the consumer frees space, and
// that every message survives in order.
func TestFullRingBackpressure(t *testing.T) {
	a, b := testPair(t, 4096)
	const total = 200
	var sent atomic.Int32
	errc := make(chan error, 1)
	go func() {
		msg := make([]byte, 512)
		for i := 0; i < total; i++ {
			msg[0], msg[1] = byte(i>>8), byte(i)
			if err := a.Send(msg); err != nil {
				errc <- err
				return
			}
			sent.Add(1)
		}
		errc <- nil
	}()
	time.Sleep(30 * time.Millisecond)
	if n := sent.Load(); n >= total {
		t.Fatalf("producer pushed all %d 512-byte messages into a 4 KiB ring without backpressure", total)
	}
	for i := 0; i < total; i++ {
		got, err := b.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if want := []byte{byte(i >> 8), byte(i)}; !bytes.Equal(got[:2], want) {
			t.Fatalf("message %d out of order: header %x, want %x", i, got[:2], want)
		}
	}
	if err := <-errc; err != nil {
		t.Fatalf("producer failed: %v", err)
	}
}

// TestCloseWhileParkedLocal closes an endpoint whose receiver is parked on
// its own doorbell; the receiver must wake promptly with ErrClosed.
func TestCloseWhileParkedLocal(t *testing.T) {
	a, _ := testPair(t, ringBytes)
	done := make(chan error, 1)
	go func() {
		_, err := a.RecvFrame()
		done <- err
	}()
	time.Sleep(30 * time.Millisecond) // let the receiver burn its spin budget and park
	start := time.Now()
	a.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ipc.ErrClosed) {
			t.Fatalf("parked recv returned %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("parked receiver did not wake after local Close")
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("wakeup took %v; closing the bell should interrupt the park immediately", d)
	}
}

// TestCloseWhileParkedPeer closes the far endpoint instead: the closer must
// ring the parked receiver's doorbell so it observes the shared closed flag
// without waiting out the park timeout.
func TestCloseWhileParkedPeer(t *testing.T) {
	a, b := testPair(t, ringBytes)
	a.SetWait(spinYields, 10*time.Second)
	done := make(chan error, 1)
	go func() {
		_, err := a.RecvFrame()
		done <- err
	}()
	time.Sleep(30 * time.Millisecond)
	b.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ipc.ErrClosed) {
			t.Fatalf("parked recv returned %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("receiver parked with a 10s timeout was not woken by the peer's Close")
	}
}

func TestDrainAfterPeerClose(t *testing.T) {
	a, b := testPair(t, ringBytes)
	for i := 0; i < 3; i++ {
		if err := a.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	a.Close()
	for i := 0; i < 3; i++ {
		got, err := b.Recv()
		if err != nil {
			t.Fatalf("queued message %d lost to peer close: %v", i, err)
		}
		if got[0] != byte(i) {
			t.Fatalf("queued message %d: got %#x", i, got[0])
		}
	}
	if _, err := b.Recv(); !errors.Is(err, ipc.ErrClosed) {
		t.Fatalf("recv after drain returned %v, want ErrClosed", err)
	}
	if err := b.Send([]byte{9}); !errors.Is(err, ipc.ErrClosed) {
		t.Fatalf("send to closed peer returned %v, want ErrClosed", err)
	}
}

// TestTornSizeHeader corrupts the shared mapping the ways a crashed or
// hostile peer could and checks the consumer refuses to walk garbage: it
// fails the connection instead of handing out a frame.
func TestTornSizeHeader(t *testing.T) {
	t.Run("short header", func(t *testing.T) {
		a, b := testPair(t, ringBytes)
		// Publish 2 bytes: less than a size header.
		atomic.StoreUint64(a.sendR.head, 2)
		_, err := b.TryRecvFrame()
		if err == nil || errors.Is(err, ipc.ErrClosed) {
			t.Fatalf("torn header accepted: err=%v", err)
		}
		// The endpoint is failed, not just this read.
		if _, err2 := b.TryRecvFrame(); err2 == nil {
			t.Fatal("endpoint still serving frames after corruption")
		}
		if err3 := b.Send([]byte{1}); err3 == nil {
			t.Fatal("send still working after corruption")
		}
	})
	t.Run("absurd length", func(t *testing.T) {
		a, b := testPair(t, ringBytes)
		hdr := []byte{0xff, 0xff, 0xff, 0x7f} // ~2 GiB record
		a.sendR.write(0, hdr)
		atomic.StoreUint64(a.sendR.head, 8)
		if _, err := b.TryRecvFrame(); err == nil || errors.Is(err, ipc.ErrClosed) {
			t.Fatalf("absurd length accepted: err=%v", err)
		}
	})
	t.Run("length past head", func(t *testing.T) {
		a, b := testPair(t, ringBytes)
		hdr := []byte{100, 0, 0, 0} // claims 100 bytes; only 6 published
		a.sendR.write(0, hdr)
		atomic.StoreUint64(a.sendR.head, 10)
		if _, err := b.TryRecvFrame(); err == nil || errors.Is(err, ipc.ErrClosed) {
			t.Fatalf("header pointing past published data accepted: err=%v", err)
		}
	})
}

// TestSingleOutstandingFrame pins the view-ownership contract: the ring
// hands out one frame at a time, and the next receive fails until Release
// advances the cursor.
func TestSingleOutstandingFrame(t *testing.T) {
	a, b := testPair(t, ringBytes)
	a.Send([]byte("one"))
	a.Send([]byte("two"))
	f1, err := b.RecvFrame()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.TryRecvFrame(); err == nil {
		t.Fatal("second frame handed out while the first was outstanding")
	}
	if string(f1.B) != "one" {
		t.Fatalf("first frame = %q", f1.B)
	}
	f1.Release()
	f2, err := b.RecvFrame()
	if err != nil {
		t.Fatal(err)
	}
	if string(f2.B) != "two" {
		t.Fatalf("second frame = %q", f2.B)
	}
	f2.Release()
}

// TestReleaseFreesSpace checks Release is what returns ring space: a ring
// sized for one record accepts the next Send only after the view is
// released.
func TestReleaseFreesSpace(t *testing.T) {
	a, b := testPair(t, 4096)
	big := make([]byte, 3000)
	if err := a.Send(big); err != nil {
		t.Fatal(err)
	}
	f, err := b.RecvFrame()
	if err != nil {
		t.Fatal(err)
	}
	sent := make(chan error, 1)
	go func() { sent <- a.Send(big) }()
	select {
	case err := <-sent:
		t.Fatalf("send of a second 3000-byte record into a 4 KiB ring returned %v before the first was released", err)
	case <-time.After(20 * time.Millisecond):
	}
	f.Release()
	select {
	case err := <-sent:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("send still blocked after the outstanding view was released")
	}
	f2, err := b.RecvFrame()
	if err != nil {
		t.Fatal(err)
	}
	f2.Release()
}

func TestOversizedFrameRejected(t *testing.T) {
	a, _ := testPair(t, 4096)
	if err := a.Send(make([]byte, ipc.MaxFrame+1)); err == nil {
		t.Fatal("frame above ipc.MaxFrame accepted")
	}
	// Also: a frame under MaxFrame but larger than this ring can ever hold
	// must fail fast, not deadlock in the backpressure loop.
	if err := a.Send(make([]byte, 8000)); err == nil {
		t.Fatal("frame larger than the ring accepted")
	}
}

// TestCreateOpenValidation checks Open refuses a file whose header is not a
// ring's — the file comes from another process — one check at a time, and
// that two live endpoints cannot share a path's doorbell name.
func TestCreateOpenValidation(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := PairSized(filepath.Join(dir, "r1"), 1000, Options{}, Options{}); err == nil {
		t.Fatal("non-power-of-two ring size accepted")
	}
	blank, err := os.CreateTemp(dir, "blank")
	if err != nil {
		t.Fatal(err)
	}
	defer blank.Close()
	if err := blank.Truncate(int64(fileSize(4096))); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(blank, filepath.Join(dir, "r2"), Options{}); err == nil {
		t.Fatal("Open of an uninitialized file succeeded")
	}
	for _, c := range []struct {
		what string
		off  int64
		val  uint32
	}{
		{"no magic", offMagic, 0},
		{"another version", offVersion, version + 1},
		{"a ring size that is not a power of two", offRing, 1000},
		{"a ring larger than the file", offRing, 8192},
	} {
		a, f, err := create(filepath.Join(dir, "r3"), 4096, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var word [4]byte
		binary.LittleEndian.PutUint32(word[:], c.val)
		if _, err := f.WriteAt(word[:], c.off); err != nil {
			t.Fatal(err)
		}
		if b, err := Open(f, filepath.Join(dir, "r4"), Options{}); err == nil {
			b.Close()
			t.Errorf("Open accepted a header with %s", c.what)
		}
		f.Close()
		a.Close()
	}
	a, f, err := Create(filepath.Join(dir, "r5"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	defer a.Close()
	if _, _, err := Create(filepath.Join(dir, "r5"), Options{}); err == nil {
		t.Fatal("a second Create on a live endpoint's doorbell name succeeded")
	}
}

// ringFiles lists the ring backing files in ringDir.
func ringFiles(t *testing.T) map[string]bool {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(ringDir, ringPattern))
	if err != nil {
		t.Fatal(err)
	}
	set := make(map[string]bool, len(names))
	for _, n := range names {
		set[n] = true
	}
	return set
}

// checkNoNewRingFiles fails if ringDir holds a ring file that was not in
// before. Rings other test binaries create meanwhile have a name there only
// inside Create, so a new name is given a second to go.
func checkNoNewRingFiles(t *testing.T, before map[string]bool) {
	t.Helper()
	var added []string
	for deadline := time.Now().Add(time.Second); ; time.Sleep(10 * time.Millisecond) {
		added = added[:0]
		for n := range ringFiles(t) {
			if !before[n] {
				added = append(added, n)
			}
		}
		if len(added) == 0 || time.Now().After(deadline) {
			break
		}
	}
	if len(added) != 0 {
		t.Fatalf("ring files left in %s: %v", ringDir, added)
	}
}

// TestFailedCreateLeavesNothing is the regression test for a Create that
// failed after making its ring file and left it behind. A 101-byte path makes
// the private doorbell's address one byte too long to bind, after the ring
// is mapped.
func TestFailedCreateLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	if len(dir) > 99 {
		t.Skipf("temporary directory %s too long for a 101-byte path", dir)
	}
	path := filepath.Join(dir, strings.Repeat("r", 100-len(dir)))
	before := ringFiles(t)
	if _, _, err := Create(path, Options{}); err == nil {
		t.Fatal("Create succeeded with a doorbell address too long to bind")
	}
	if _, err := os.Lstat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("failed Create left something at its path: %v", err)
	}
	checkNoNewRingFiles(t, before)
}

// TestRingMemoryIsNotOnDisk pins where a ring's memory lives: on Linux in
// tmpfs, in a file that has no name from the moment Create returns — not in
// ringDir, and not at the path Create was given.
func TestRingMemoryIsNotOnDisk(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("ring memory is tmpfs only on Linux")
	}
	const tmpfsMagic = 0x01021994
	path := filepath.Join(t.TempDir(), "ring")
	a, f, err := Create(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer f.Close()
	var fs syscall.Statfs_t
	if err := syscall.Fstatfs(int(f.Fd()), &fs); err != nil {
		t.Fatal(err)
	}
	if fs.Type != tmpfsMagic {
		t.Fatalf("ring memory is on filesystem type %#x, want tmpfs", fs.Type)
	}
	st, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if n := st.Sys().(*syscall.Stat_t).Nlink; n != 0 {
		t.Fatalf("ring memory has %d names, want none", n)
	}
	for _, name := range []string{f.Name(), path} {
		if _, err := os.Lstat(name); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s exists after Create: %v", name, err)
		}
	}
	b, err := Open(f, path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b.Close()
}

// TestClosedRingsAreUnmapped is the regression test for a finalizer that
// never ran: closed, unreachable endpoints must give their mappings back,
// or every ring a long-lived process builds holds its memory until exit.
func TestClosedRingsAreUnmapped(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("reads /proc/self/maps")
	}
	mapped := func() int {
		maps, err := os.ReadFile("/proc/self/maps")
		if err != nil {
			t.Fatal(err)
		}
		return strings.Count(string(maps), "/ccp-ring-")
	}
	before := mapped()
	dir := t.TempDir()
	var eps []*Endpoint
	for i := 0; i < 50; i++ {
		a, b, err := Pair(filepath.Join(dir, "ring"+strconv.Itoa(i)), Options{}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		a.Close()
		b.Close()
		eps = append(eps, a, b)
	}
	if n := mapped(); n < len(eps) {
		t.Fatalf("%d ring mappings while %d endpoints are reachable", n, len(eps))
	}
	runtime.KeepAlive(eps)
	for deadline := time.Now().Add(5 * time.Second); mapped() > before; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d ring mappings left after closing 50 rings, want at most %d", mapped(), before)
		}
		runtime.GC()
	}
}

// TestBellNameFreedOnClose checks a doorbell's name is free the moment its
// bell closes, and that a file left at the path — here the socket file of a
// bound socket closed without unlinking, as a crashed process leaves one —
// does not refuse the next bind (on Linux, where bells make no file).
func TestBellNameFreedOnClose(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.bell")
	first, err := NewBell(path)
	if err != nil {
		t.Fatal(err)
	}
	first.Close()
	second, err := NewBell(path)
	if err != nil {
		t.Fatalf("bind after the previous bell closed: %v", err)
	}
	second.Close()

	if runtime.GOOS != "linux" {
		return
	}
	stale := filepath.Join(dir, "stale.bell")
	conn, err := net.ListenUnixgram("unixgram", &net.UnixAddr{Name: stale, Net: "unixgram"})
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if _, err := os.Lstat(stale); err != nil {
		t.Fatalf("closed socket left no file to test against: %v", err)
	}
	b, err := NewBell(stale)
	if err != nil {
		t.Fatalf("bind on a path holding a stale socket file: %v", err)
	}
	b.Close()
}

// TestEchoMeasureRTT runs the Figure 2 measurement machinery end to end over
// the ring: the generic Echo server and MeasureRTT client exercise exactly
// the Transport+FrameRecver surface the experiment uses.
func TestEchoMeasureRTT(t *testing.T) {
	a, b := testPair(t, ringBytes)
	go ipc.Echo(b)
	s, err := ipc.MeasureRTT(a, 32, 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 32 {
		t.Fatalf("got %d samples, want 32", s.Len())
	}
}

// TestStressProducerConsumer hammers both directions concurrently with
// varied record sizes; run under -race (make test-race-robust) it is the
// memory-ordering check for the SPSC cursor protocol, the park/wake
// doorbell, and the view hand-off.
func TestStressProducerConsumer(t *testing.T) {
	const total = 20000
	a, b := testPair(t, 1<<14)
	a.SetWait(16, parkTimeout)
	b.SetWait(16, parkTimeout)
	run := func(src, dst *Endpoint, dir string, wg *sync.WaitGroup) {
		defer wg.Done()
		var inner sync.WaitGroup
		inner.Add(1)
		go func() {
			defer inner.Done()
			msg := make([]byte, 1024)
			for i := 0; i < total; i++ {
				n := 2 + (i*31)%700
				m := msg[:n]
				m[0], m[1] = byte(i>>8), byte(i)
				for j := 2; j < n; j++ {
					m[j] = byte(i + j)
				}
				if err := src.Send(m); err != nil {
					t.Errorf("%s send %d: %v", dir, i, err)
					return
				}
			}
		}()
		for i := 0; i < total; i++ {
			f, err := dst.RecvFrame()
			if err != nil {
				t.Errorf("%s recv %d: %v", dir, i, err)
				return
			}
			n := 2 + (i*31)%700
			if len(f.B) != n || f.B[0] != byte(i>>8) || f.B[1] != byte(i) {
				t.Errorf("%s recv %d: got %d bytes hdr %x%x", dir, i, len(f.B), f.B[0], f.B[1])
				f.Release()
				return
			}
			for j := 2; j < n; j++ {
				if f.B[j] != byte(i+j) {
					t.Errorf("%s recv %d: byte %d corrupted", dir, i, j)
					break
				}
			}
			f.Release()
		}
		inner.Wait()
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go run(a, b, "a->b", &wg)
	go run(b, a, "b->a", &wg)
	wg.Wait()
}

func TestMuxServesMany(t *testing.T) {
	dir := t.TempDir()
	mux, err := NewMux(filepath.Join(dir, "mux.bell"))
	if err != nil {
		t.Fatal(err)
	}
	defer mux.Close()
	const conns, perConn = 4, 500
	producers := make([]*Endpoint, conns)
	consumers := make([]*Endpoint, conns)
	for i := range producers {
		a, b, err := Pair(filepath.Join(dir, "ring"+string(rune('0'+i))),
			Options{}, Options{Bell: mux.Bell()})
		if err != nil {
			t.Fatal(err)
		}
		if err := mux.Adopt(b); err != nil {
			t.Fatal(err)
		}
		producers[i], consumers[i] = a, b
		defer a.Close()
		defer b.Close()
	}
	// A foreign endpoint (private bell) must be refused.
	fa, fb, err := Pair(filepath.Join(dir, "foreign"), Options{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fa.Close()
	defer fb.Close()
	if err := mux.Adopt(fb); err == nil {
		t.Fatal("mux adopted an endpoint bound to a different doorbell")
	}

	var wg sync.WaitGroup
	for ci, p := range producers {
		wg.Add(1)
		go func(ci int, p *Endpoint) {
			defer wg.Done()
			for i := 0; i < perConn; i++ {
				if err := p.Send([]byte{byte(ci), byte(i >> 8), byte(i)}); err != nil {
					t.Errorf("conn %d send %d: %v", ci, i, err)
					return
				}
				if i%97 == 0 {
					time.Sleep(time.Millisecond) // force idle gaps so the loop actually parks
				}
			}
		}(ci, p)
	}
	got := make([]int, conns)
	received := 0
	deadline := time.Now().Add(30 * time.Second)
	for received < conns*perConn {
		if time.Now().After(deadline) {
			t.Fatalf("mux loop stalled: %d/%d received", received, conns*perConn)
		}
		progress := false
		for ci, c := range consumers {
			for {
				f, err := c.TryRecvFrame()
				if err != nil {
					t.Fatalf("conn %d: %v", ci, err)
				}
				if f == nil {
					break
				}
				if int(f.B[0]) != ci || int(f.B[1])<<8|int(f.B[2]) != got[ci] {
					t.Fatalf("conn %d: out-of-order or cross-wired message % x (want seq %d)", ci, f.B, got[ci])
				}
				got[ci]++
				received++
				progress = true
				f.Release()
			}
		}
		if !progress {
			if err := mux.WaitAny(); err != nil {
				t.Fatalf("WaitAny: %v", err)
			}
		}
	}
	wg.Wait()
	for _, c := range consumers {
		c.Close()
	}
	if err := mux.WaitAny(); !errors.Is(err, ipc.ErrClosed) {
		t.Fatalf("WaitAny over all-closed endpoints returned %v, want ErrClosed", err)
	}
}
