package main

import (
	"bufio"
	"errors"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"hzccl/serve"
)

// A mesh needs two ranks: an empty or one-address -peers is refused
// before anything listens.
func TestRunRefusesFewerThanTwoPeers(t *testing.T) {
	for _, peers := range []string{"", "127.0.0.1:1"} {
		if err := run(serve.Options{Peers: strings.Split(peers, ",")}, "", io.Discard, nil); !errors.Is(err, errPeers) {
			t.Errorf("-peers %q: %v, want the two-address refusal", peers, err)
		}
	}
}

// Two ranks on loopback ephemeral ports form a service, serve one job
// submitted through serve.Client with the digests serve.Run gives in
// process, and each returns cleanly on its shutdown signal.
func TestRunServesAJobThenStops(t *testing.T) {
	const n = 2
	lns := make([]net.Listener, n)
	peers := make([]string, n)
	for i := range n {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], peers[i] = ln, ln.Addr().String()
	}
	stops := make([]chan os.Signal, n)
	ended := make([]chan error, n)
	out, rank0Out := io.Pipe()
	for i := range n {
		stops[i], ended[i] = make(chan os.Signal, 1), make(chan error, 1)
		w := io.Discard
		if i == 0 {
			w = rank0Out
		}
		go func() {
			ended[i] <- run(serve.Options{Rank: i, Peers: peers, Listener: lns[i], DialTimeout: 10 * time.Second}, "", w, stops[i])
		}()
	}
	t.Cleanup(func() {
		for _, stop := range stops {
			select {
			case stop <- syscall.SIGTERM:
			default:
			}
		}
	})

	lines := make(chan string, 1)
	go func() {
		line, _ := bufio.NewReader(out).ReadString('\n')
		lines <- line
	}()
	var addr string
	select {
	case line := <-lines:
		addr = strings.TrimPrefix(strings.TrimSpace(line), "client protocol on ")
	case err := <-ended[0]:
		t.Fatalf("rank 0 ended before serving: %v", err)
	case <-time.After(20 * time.Second):
		t.Fatal("rank 0 never printed its client address")
	}

	spec := serve.JobSpec{MessageBytes: 1 << 14}
	want, _, err := serve.Run(spec, n, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := serve.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Submit(spec)
	c.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Digests) != n {
		t.Fatalf("%d digests, want %d", len(res.Digests), n)
	}
	for r, d := range want {
		if got := res.Digests[strconv.Itoa(r)]; got != d {
			t.Errorf("rank %d: served digest %s, in-process %s", r, got, d)
		}
	}

	for i := range n {
		stops[i] <- syscall.SIGTERM
		select {
		case err := <-ended[i]:
			if err != nil {
				t.Errorf("rank %d: %v", i, err)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("rank %d did not stop on its signal", i)
		}
	}
}
