package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestDrainClosesSilentConnections: a connection that never sends a
// request must not hold the drain (net/http alone waits 5 s for it),
// while a request already in flight is still answered.
func TestDrainClosesSilentConnections(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	s := startServer(ln, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(started)
		time.Sleep(100 * time.Millisecond)
		io.WriteString(w, "done")
	}))

	silent, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	// Wait until the server has accepted it, so the drain has a fresh
	// connection to deal with rather than one still in the backlog.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		s.mu.Lock()
		n := len(s.fresh)
		s.mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server tracks %d fresh connections, want 1", n)
		}
	}

	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	type answer struct {
		body string
		err  error
	}
	inflight := make(chan answer, 1)
	go func() {
		resp, err := client.Get("http://" + ln.Addr().String() + "/")
		if err != nil {
			inflight <- answer{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		inflight <- answer{string(body), err}
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	t0 := time.Now()
	if err := s.drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if d := time.Since(t0); d >= time.Second {
		t.Errorf("drain took %v with a silent connection open; want < 1s", d)
	}
	if a := <-inflight; a.err != nil || a.body != "done" {
		t.Errorf("in-flight request: body %q, err %v; want %q", a.body, a.err, "done")
	}
	silent.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := silent.Read(make([]byte, 1)); err == nil {
		t.Errorf("silent connection read %d bytes after the drain; want it closed", n)
	}
}
