package ipc

import (
	"bytes"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestUnixStreamRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ccp.sock")
	ln, err := ListenUnix(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	var server Transport
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := ln.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		server = NewStream(conn)
		go Echo(server)
	}()

	client, err := DialUnix(path)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	wg.Wait()
	defer server.Close()

	for _, size := range []int{1, 100, 65536} {
		msg := bytes.Repeat([]byte{0x5A}, size)
		if err := client.Send(msg); err != nil {
			t.Fatal(err)
		}
		got, err := client.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("size %d: echo mismatch", size)
		}
	}
}

func TestUnixStreamPreservesBoundaries(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "b.sock")
	ln, err := ListenUnix(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	acceptedc := make(chan Transport, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		acceptedc <- NewStream(conn)
	}()
	client, err := DialUnix(path)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server := <-acceptedc
	defer server.Close()

	// Several back-to-back sends must arrive as distinct messages.
	msgs := [][]byte{[]byte("a"), []byte("bb"), []byte("ccc")}
	for _, m := range msgs {
		if err := client.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range msgs {
		got, err := server.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("got %q, want %q", got, want)
		}
	}
}

func TestStreamRejectsOversizedFrame(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	tr := NewStream(c1)
	big := make([]byte, MaxFrame+1)
	if err := tr.Send(big); err == nil {
		t.Fatal("oversized send accepted")
	}
	// A corrupt length prefix must be rejected without huge allocation.
	go c2.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := tr.Recv(); err == nil {
		t.Fatal("oversized frame header accepted")
	}
}

// dgramPair binds two Unix datagram sockets in a fresh directory, each
// addressed at the other.
func dgramPair(t *testing.T) (Transport, Transport) {
	t.Helper()
	dir := t.TempDir()
	pa, pb := filepath.Join(dir, "a.sock"), filepath.Join(dir, "b.sock")
	a, err := BindDgram(pa, pb)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err := BindDgram(pb, pa)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return a, b
}

func TestDgramRoundTrip(t *testing.T) {
	a, b := dgramPair(t)
	if err := a.Send([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv()
	if err != nil || string(got) != "ping" {
		t.Fatalf("got %q, %v", got, err)
	}
	if err := b.Send([]byte("pong")); err != nil {
		t.Fatal(err)
	}
	got, err = a.Recv()
	if err != nil || string(got) != "pong" {
		t.Fatalf("got %q, %v", got, err)
	}
}

func TestDgramPreservesBoundaries(t *testing.T) {
	a, b := dgramPair(t)
	for _, m := range []string{"x", "yy", "zzz"} {
		if err := a.Send([]byte(m)); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range []string{"x", "yy", "zzz"} {
		got, err := b.Recv()
		if err != nil || string(got) != want {
			t.Fatalf("got %q, %v; want %q", got, err, want)
		}
	}
}

func TestBindDgramPathCollision(t *testing.T) {
	dir := t.TempDir()
	pa, pb := filepath.Join(dir, "a.sock"), filepath.Join(dir, "b.sock")
	a, err := BindDgram(pa, pb)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if _, err := BindDgram(pa, pb); err == nil {
		t.Fatal("rebinding a bound path succeeded")
	}
}

func TestMeasureRTTUnixgram(t *testing.T) {
	a, b := dgramPair(t)
	go Echo(b)
	s, err := MeasureRTT(a, 200, 20, 64)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 200 {
		t.Fatalf("samples=%d", s.Len())
	}
	if s.Percentile(0) <= 0 {
		t.Fatalf("non-positive RTT %v", s.Percentile(0))
	}
	if s.Percentile(50) > float64(50*time.Millisecond) {
		t.Fatalf("implausible local RTT median %v", time.Duration(s.Percentile(50)))
	}
}

// TestMeasureRTTRejectsAlteredEcho: an echo that differs from what was sent
// by one byte fails the measurement rather than counting as a sample.
func TestMeasureRTTRejectsAlteredEcho(t *testing.T) {
	a, b := dgramPair(t)
	go func() {
		for n := 0; ; n++ {
			msg, err := b.Recv()
			if err != nil {
				return
			}
			if n == 5 {
				msg[len(msg)-1] ^= 1
			}
			if b.Send(msg) != nil {
				return
			}
		}
	}()
	if _, err := MeasureRTT(a, 10, 0, 16); err == nil || !strings.Contains(err.Error(), "echo 5") {
		t.Fatalf("MeasureRTT over a peer that alters echo 5 returned %v", err)
	}
}

func TestMeasureRTTUnixStream(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rtt.sock")
	ln, err := ListenUnix(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		Echo(NewStream(conn))
	}()
	client, err := DialUnix(path)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	s, err := MeasureRTT(client, 100, 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 100 || s.Percentile(0) <= 0 {
		t.Fatalf("bad samples: n=%d min=%v", s.Len(), s.Percentile(0))
	}
}

func TestBusyLoadStops(t *testing.T) {
	stop := BusyLoad(2)
	time.Sleep(20 * time.Millisecond)
	done := make(chan struct{})
	go func() {
		stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("BusyLoad did not stop")
	}
}

func TestMeasureRTTErrorOnClosed(t *testing.T) {
	c1, c2 := net.Pipe()
	c2.Close()
	a := NewStream(c1)
	a.Close()
	if _, err := MeasureRTT(a, 1, 0, 8); err == nil {
		t.Fatal("expected error on closed transport")
	}
}
