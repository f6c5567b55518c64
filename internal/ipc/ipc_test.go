package ipc

import (
	"bytes"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func TestChanPairRoundTrip(t *testing.T) {
	a, b := ChanPair(4)
	defer a.Close()
	defer b.Close()
	if err := a.Send([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Fatalf("got %q", got)
	}
	if err := b.Send([]byte("world")); err != nil {
		t.Fatal(err)
	}
	got, err = a.Recv()
	if err != nil || string(got) != "world" {
		t.Fatalf("got %q, %v", got, err)
	}
}

func TestChanPairCopiesOnSend(t *testing.T) {
	a, b := ChanPair(1)
	defer a.Close()
	defer b.Close()
	msg := []byte("abc")
	if err := a.Send(msg); err != nil {
		t.Fatal(err)
	}
	msg[0] = 'X'
	got, _ := b.Recv()
	if string(got) != "abc" {
		t.Fatalf("send did not copy: %q", got)
	}
}

func TestChanPairClose(t *testing.T) {
	a, b := ChanPair(0)
	a.Close()
	if err := a.Send([]byte("x")); err != ErrClosed {
		t.Fatalf("send on closed: %v", err)
	}
	if _, err := b.Recv(); err != ErrClosed {
		t.Fatalf("recv from closed peer: %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestChanPairCloseUnblocksRecv(t *testing.T) {
	a, b := ChanPair(0)
	defer b.Close()
	errc := make(chan error, 1)
	go func() {
		_, err := a.Recv()
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	a.Close()
	select {
	case err := <-errc:
		if err != ErrClosed {
			t.Fatalf("err=%v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Recv did not unblock on Close")
	}
}

func TestChanPairDrainsQueuedAfterPeerClose(t *testing.T) {
	a, b := ChanPair(4)
	defer b.Close()
	if err := a.Send([]byte("queued")); err != nil {
		t.Fatal(err)
	}
	a.Close()
	got, err := b.Recv()
	if err != nil || string(got) != "queued" {
		t.Fatalf("got %q, %v", got, err)
	}
}

func TestChanPairDrainsEveryQueuedAfterPeerClose(t *testing.T) {
	// Regression: with several messages in flight at close time, every one
	// must be delivered before ErrClosed — none may be lost to the race
	// between the queued-message and peer-closed select cases. Repeat to
	// cover select's random case choice.
	for trial := 0; trial < 200; trial++ {
		a, b := ChanPair(8)
		for i := byte(0); i < 5; i++ {
			if err := a.Send([]byte{i}); err != nil {
				t.Fatal(err)
			}
		}
		a.Close()
		for i := byte(0); i < 5; i++ {
			got, err := b.Recv()
			if err != nil {
				t.Fatalf("trial %d: lost message %d: %v", trial, i, err)
			}
			if len(got) != 1 || got[0] != i {
				t.Fatalf("trial %d: got %v, want [%d]", trial, got, i)
			}
		}
		if _, err := b.Recv(); err != ErrClosed {
			t.Fatalf("trial %d: drained transport returned %v", trial, err)
		}
		b.Close()
	}
}

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

func TestDgramPairRoundTrip(t *testing.T) {
	dir := t.TempDir()
	a, b, err := DgramPair(filepath.Join(dir, "a.sock"), filepath.Join(dir, "b.sock"))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()
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
	dir := t.TempDir()
	a, b, err := DgramPair(filepath.Join(dir, "a.sock"), filepath.Join(dir, "b.sock"))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()
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

func TestDgramPairPathCollision(t *testing.T) {
	dir := t.TempDir()
	pa, pb := filepath.Join(dir, "a.sock"), filepath.Join(dir, "b.sock")
	a, b, err := DgramPair(pa, pb)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()
	if _, _, err := DgramPair(pa, pb); err == nil {
		t.Fatal("rebinding bound paths succeeded")
	}
}

func TestMeasureRTTChan(t *testing.T) {
	a, b := ChanPair(1)
	defer a.Close()
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
		t.Fatalf("implausible in-process RTT median %v", time.Duration(s.Percentile(50)))
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
	a, b := ChanPair(0)
	b.Close()
	a.Close()
	if _, err := MeasureRTT(a, 1, 0, 8); err == nil {
		t.Fatal("expected error on closed transport")
	}
}
