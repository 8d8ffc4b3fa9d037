package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"sync"
	"testing"
	"time"
)

// startMesh forms an n-rank TCP mesh on loopback ephemeral ports, every
// rank in its own goroutine (standing in for its own process). It returns
// the connected transports indexed by rank.
func startMesh(t *testing.T, n int) []*TCPTransport {
	t.Helper()
	lns := make([]net.Listener, n)
	peers := make([]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen rank %d: %v", i, err)
		}
		lns[i] = ln
		peers[i] = ln.Addr().String()
	}
	trs := make([]*TCPTransport, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			trs[i], errs[i] = NewTCPTransport(TCPOptions{
				Rank: i, Peers: peers, Listener: lns[i], DialTimeout: 10 * time.Second,
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d mesh: %v", i, err)
		}
	}
	t.Cleanup(func() {
		for _, tr := range trs {
			if tr != nil {
				tr.Close()
			}
		}
	})
	return trs
}

// runMesh executes body once per rank, each rank against its own Cluster
// bound to its own TCPTransport — the in-test equivalent of N processes.
// It returns the per-rank results and the first error.
func runMesh(t *testing.T, cfg Config, trs []*TCPTransport, body func(*Rank) error) ([]*Result, error) {
	t.Helper()
	n := len(trs)
	results := make([]*Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := cfg
			c.Transport = trs[i]
			results[i], errs[i] = Run(c, body)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

func TestTCPMeshExchange(t *testing.T) {
	trs := startMesh(t, 2)
	cfg := Config{Ranks: 2}
	results, err := runMesh(t, cfg, trs, func(r *Rank) error {
		if r.ID == 0 {
			return r.Send(1, []byte("over the wire"))
		}
		got, err := r.Recv(0)
		if err != nil {
			return err
		}
		if string(got) != "over the wire" {
			return fmt.Errorf("payload %q", got)
		}
		if r.Now() <= 0 {
			return fmt.Errorf("virtual clock did not advance (%v)", r.Now())
		}
		return nil
	})
	if err != nil {
		t.Fatalf("exchange: %v", err)
	}
	// The (α, β) model charges the receiver: α + 13 bytes / β.
	c := cfg.withDefaults()
	want := c.Latency.Seconds() + 13/c.BandwidthBytes
	if got := results[1].Time; math.Abs(got-want) > 1e-15 {
		t.Fatalf("rank 1 virtual time %v, want %v", got, want)
	}
	if results[1].WallSeconds <= 0 {
		t.Fatalf("wall-clock time not measured")
	}
}

// ringBody is a deterministic 4-rank ring reduction used to compare the
// two fabrics: N-1 SendRecv rounds accumulating uint32 sums, then an
// AgreeMax. It uses only modeled time (no measured compute), so its
// virtual clocks must be bit-identical on any transport.
func ringBody(acc *[]uint32) func(*Rank) error {
	return func(r *Rank) error {
		buf := make([]byte, 8*4)
		vals := make([]uint32, 8)
		for i := range vals {
			vals[i] = uint32(r.ID + 1)
		}
		for round := 0; round < r.N-1; round++ {
			for i, v := range vals {
				binary.LittleEndian.PutUint32(buf[4*i:], v)
			}
			got, err := r.SendRecv((r.ID+1)%r.N, buf, (r.ID+r.N-1)%r.N)
			if err != nil {
				return err
			}
			for i := range vals {
				vals[i] += binary.LittleEndian.Uint32(got[4*i:])
			}
			r.Elapse(CatHPR, 1e-6)
		}
		if _, err := r.AgreeMax(r.ID); err != nil {
			return err
		}
		*acc = vals
		return nil
	}
}

func TestTCPRingMatchesInProcess(t *testing.T) {
	const n = 4
	cfg := Config{Ranks: n}

	// Reference run on the default in-process fabric.
	refVals := make([][]uint32, n)
	var mu sync.Mutex
	refRes, err := Run(cfg, func(r *Rank) error {
		var v []uint32
		err := ringBody(&v)(r)
		mu.Lock()
		refVals[r.ID] = v
		mu.Unlock()
		return err
	})
	if err != nil {
		t.Fatalf("in-process run: %v", err)
	}

	// Same program over the TCP mesh.
	trs := startMesh(t, n)
	tcpVals := make([][]uint32, n)
	tcpRes, err := runMesh(t, cfg, trs, func(r *Rank) error {
		var v []uint32
		err := ringBody(&v)(r)
		mu.Lock()
		tcpVals[r.ID] = v
		mu.Unlock()
		return err
	})
	if err != nil {
		t.Fatalf("tcp run: %v", err)
	}

	for i := 0; i < n; i++ {
		if len(tcpVals[i]) != len(refVals[i]) {
			t.Fatalf("rank %d: value length %d vs %d", i, len(tcpVals[i]), len(refVals[i]))
		}
		for j := range refVals[i] {
			if tcpVals[i][j] != refVals[i][j] {
				t.Fatalf("rank %d elem %d: tcp %d, in-process %d", i, j, tcpVals[i][j], refVals[i][j])
			}
		}
		// Virtual clocks are modeled, not measured: bit-identical across
		// fabrics.
		if tcpRes[i].Time != refRes.RankTimes[i] {
			t.Fatalf("rank %d virtual time: tcp %v, in-process %v", i, tcpRes[i].Time, refRes.RankTimes[i])
		}
		if len(tcpRes[i].RankTimes) != 1 {
			t.Fatalf("rank %d: multi-process result should carry one local rank time, got %d", i, len(tcpRes[i].RankTimes))
		}
	}
}

func TestTCPReliableCorruptRecovery(t *testing.T) {
	trs := startMesh(t, 2)
	cfg := Config{
		Ranks: 2, Reliable: true,
		RecvTimeout: 2 * time.Second,
		Fault: FaultOn(func(fc FaultContext) bool {
			return fc.From == 0 && fc.To == 1 && fc.Seq == 1 && fc.Attempt == 0
		}, FaultCorrupt, 0),
	}
	_, err := runMesh(t, cfg, trs, func(r *Rank) error {
		if r.ID == 0 {
			for s := 0; s < 3; s++ {
				if err := r.Send(1, []byte(fmt.Sprintf("payload-%d", s))); err != nil {
					return err
				}
			}
			// Unlike the in-process fabric, a TCP sender must outlive the
			// NACK it services: wait for the receiver's ack before exiting.
			_, err := r.Recv(1)
			return err
		}
		for s := 0; s < 3; s++ {
			got, err := r.Recv(0)
			if err != nil {
				return fmt.Errorf("recv %d: %w", s, err)
			}
			if want := fmt.Sprintf("payload-%d", s); string(got) != want {
				return fmt.Errorf("recv %d: %q, want %q", s, got, want)
			}
		}
		return r.Send(0, []byte("ack"))
	})
	if err != nil {
		t.Fatalf("corrupt recovery over tcp: %v", err)
	}
}

func TestTCPReliableDropRecovery(t *testing.T) {
	trs := startMesh(t, 2)
	cfg := Config{
		Ranks: 2, Reliable: true,
		RecvTimeout:  200 * time.Millisecond,
		RetryBackoff: time.Microsecond,
		Fault: FaultOn(func(fc FaultContext) bool {
			return fc.From == 0 && fc.To == 1 && fc.Seq == 0 && fc.Attempt == 0
		}, FaultDrop, 0),
	}
	_, err := runMesh(t, cfg, trs, func(r *Rank) error {
		if r.ID == 0 {
			if err := r.Send(1, []byte("dropped then replayed")); err != nil {
				return err
			}
			// Stay alive until the receiver has NACKed and recovered: the
			// replay is serviced by this process's reader goroutine, but the
			// transport must not be closed under it.
			if _, err := r.Recv(1); err != nil {
				return err
			}
			return r.Barrier()
		}
		got, err := r.Recv(0)
		if err != nil {
			return err
		}
		if string(got) != "dropped then replayed" {
			return fmt.Errorf("payload %q", got)
		}
		if err := r.Send(0, []byte("done")); err != nil {
			return err
		}
		// Both receive deadlines expire together, so rank 0 may be NACKing
		// for "done" at this very moment; leaving before it has the message
		// would close the connection under that NACK.
		return r.Barrier()
	})
	if err != nil {
		t.Fatalf("drop recovery over tcp: %v", err)
	}
}

func TestTCPWorldSizeMismatch(t *testing.T) {
	ln0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{ln0.Addr().String(), ln1.Addr().String()}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		tr, err := NewTCPTransport(TCPOptions{Rank: 0, Peers: addrs, Listener: ln0, DialTimeout: 3 * time.Second})
		if tr != nil {
			tr.Close()
		}
		errs[0] = err
	}()
	go func() {
		defer wg.Done()
		// Rank 1 believes the world has three ranks.
		tr, err := NewTCPTransport(TCPOptions{
			Rank: 1, Peers: []string{addrs[0], addrs[1], "127.0.0.1:1"},
			Listener: ln1, DialTimeout: 3 * time.Second,
		})
		if tr != nil {
			tr.Close()
		}
		errs[1] = err
	}()
	wg.Wait()
	if errs[0] == nil && errs[1] == nil {
		t.Fatalf("mismatched world sizes formed a mesh")
	}
}

func TestTCPOptionValidation(t *testing.T) {
	if _, err := NewTCPTransport(TCPOptions{Rank: 0, Peers: nil}); err == nil {
		t.Fatalf("empty peer list accepted")
	}
	if _, err := NewTCPTransport(TCPOptions{Rank: 5, Peers: []string{"a", "b"}}); err == nil {
		t.Fatalf("out-of-range rank accepted")
	}
	tr := startMesh(t, 2)[0]
	if _, err := New(Config{Ranks: 3, Transport: tr}); err == nil {
		t.Fatalf("Ranks/world mismatch accepted at bind")
	}
}

func TestTCPPeerFailureSurfaces(t *testing.T) {
	trs := startMesh(t, 2)
	cfg := Config{Ranks: 2}
	var recvErr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		c := cfg
		c.Transport = trs[0]
		// Rank 0 exits immediately without sending.
		Run(c, func(r *Rank) error { return nil })
	}()
	go func() {
		defer wg.Done()
		c := cfg
		c.Transport = trs[1]
		_, recvErr = Run(c, func(r *Rank) error {
			_, err := r.Recv(0)
			return err
		})
	}()
	wg.Wait()
	if !errors.Is(recvErr, ErrPeerFailed) {
		t.Fatalf("recv from exited tcp peer: %v, want ErrPeerFailed", recvErr)
	}
}

// TestTCPConnResetFeedsDetector is the regression test for the
// connection-death classification: killing one side of a loopback pair
// mid-Recv must surface as a typed *RankFailedError whose cause wraps
// ErrConnReset — fed through the failure detector, not a generic timeout
// — and with fail-fast armed the blocked Recv must abort well before the
// receive deadline.
func TestTCPConnResetFeedsDetector(t *testing.T) {
	trs := startMesh(t, 2)
	// Rank 0 never runs a cluster: after a beat, its side of the pair is
	// torn down abruptly, as if the process died.
	go func() {
		time.Sleep(100 * time.Millisecond)
		if err := trs[0].DropConn(1); err != nil {
			t.Errorf("drop conn: %v", err)
		}
	}()
	cfg := Config{Ranks: 2, RecvTimeout: 30 * time.Second, Transport: trs[1]}
	start := time.Now()
	var recvErr error
	_, err := Run(cfg, func(r *Rank) error {
		r.SetFailFast(true)
		_, recvErr = r.Recv(0)
		return nil // swallow so Run reports cleanly; recvErr is asserted below
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !errors.Is(recvErr, ErrRankFailed) || !errors.Is(recvErr, ErrPeerFailed) {
		t.Fatalf("recv after conn reset: %v, want ErrRankFailed (and ErrPeerFailed compat)", recvErr)
	}
	var rf *RankFailedError
	if !errors.As(recvErr, &rf) {
		t.Fatalf("recv error %v is not a *RankFailedError", recvErr)
	}
	if rf.Rank != 0 {
		t.Fatalf("failed rank = %d, want 0", rf.Rank)
	}
	if !errors.Is(rf.Cause, ErrConnReset) {
		t.Fatalf("cause = %v, want ErrConnReset", rf.Cause)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cooperative abort took %v, should beat the 30s RecvTimeout by far", elapsed)
	}
}

// runSessions executes body once per rank over an arbitrary Transport
// set (job sessions in these tests), mirroring runMesh.
func runSessions(t *testing.T, cfg Config, sess []Transport, body func(*Rank) error) ([]*Result, error) {
	t.Helper()
	n := len(sess)
	results := make([]*Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := cfg
			c.Transport = sess[i]
			results[i], errs[i] = Run(c, body)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// TestTCPSessionsConcurrentJobs is the core multiplexing property: two
// jobs running *simultaneously* over one handshaked mesh must each
// produce exactly the results and virtual clocks of a dedicated
// single-job fabric — no cross-delivery of data, replay or barrier
// traffic between jobs sharing the connections.
func TestTCPSessionsConcurrentJobs(t *testing.T) {
	const n = 4
	cfg := Config{Ranks: n}

	// Reference: the same program on the in-process fabric.
	refVals := make([][]uint32, n)
	var mu sync.Mutex
	refRes, err := Run(cfg, func(r *Rank) error {
		var v []uint32
		err := ringBody(&v)(r)
		mu.Lock()
		refVals[r.ID] = v
		mu.Unlock()
		return err
	})
	if err != nil {
		t.Fatalf("in-process run: %v", err)
	}

	trs := startMesh(t, n)
	const jobs = 2
	sess := make([][]Transport, jobs)
	for j := 0; j < jobs; j++ {
		sess[j] = make([]Transport, n)
		for i, tr := range trs {
			s, err := tr.Session(uint32(j + 1))
			if err != nil {
				t.Fatalf("rank %d job %d session: %v", i, j+1, err)
			}
			sess[j][i] = s
		}
	}

	vals := make([][][]uint32, jobs)
	res := make([][]*Result, jobs)
	jobErrs := make([]error, jobs)
	var jwg sync.WaitGroup
	for j := 0; j < jobs; j++ {
		jwg.Add(1)
		go func(j int) {
			defer jwg.Done()
			vals[j] = make([][]uint32, n)
			res[j], jobErrs[j] = runSessions(t, cfg, sess[j], func(r *Rank) error {
				var v []uint32
				err := ringBody(&v)(r)
				mu.Lock()
				vals[j][r.ID] = v
				mu.Unlock()
				return err
			})
		}(j)
	}
	jwg.Wait()
	for j := 0; j < jobs; j++ {
		if jobErrs[j] != nil {
			t.Fatalf("job %d: %v", j+1, jobErrs[j])
		}
		for i := 0; i < n; i++ {
			for k := range refVals[i] {
				if vals[j][i][k] != refVals[i][k] {
					t.Fatalf("job %d rank %d elem %d: %d, want %d", j+1, i, k, vals[j][i][k], refVals[i][k])
				}
			}
			if res[j][i].Time != refRes.RankTimes[i] {
				t.Fatalf("job %d rank %d virtual time %v, want %v", j+1, i, res[j][i].Time, refRes.RankTimes[i])
			}
		}
	}
}

// Job IDs are a monotonic namespace: 0 is reserved, duplicates and
// reuse are rejected, and a closed transport hands out nothing.
func TestTCPSessionIDRules(t *testing.T) {
	trs := startMesh(t, 2)
	tr := trs[0]
	if _, err := tr.Session(0); err == nil {
		t.Fatal("job 0 (the built-in session) was claimable")
	}
	s5, err := tr.Session(5)
	if err != nil {
		t.Fatalf("job 5: %v", err)
	}
	if _, err := tr.Session(5); err == nil {
		t.Fatal("duplicate job ID accepted")
	}
	if _, err := tr.Session(3); err == nil {
		t.Fatal("non-monotonic job ID accepted")
	}
	s5.(*tcpSession).end()
	if _, err := tr.Session(5); err == nil {
		t.Fatal("job ID reused after its session ended")
	}
	tr.Close()
	if _, err := tr.Session(9); !errors.Is(err, ErrTransportClosed) {
		t.Fatalf("session on closed transport: %v, want ErrTransportClosed", err)
	}
}

// Ending a session on one side must unblock the peer's receivers for
// that job — and only that job: the bye broadcast closes the job's
// mailboxes remotely while other jobs keep flowing.
func TestTCPSessionEndUnblocksPeerJob(t *testing.T) {
	trs := startMesh(t, 2)
	sa := make([]Transport, 2)
	sb := make([]Transport, 2)
	for i, tr := range trs {
		a, err := tr.Session(1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := tr.Session(2)
		if err != nil {
			t.Fatal(err)
		}
		sa[i], sb[i] = a, b
	}
	cfg := Config{Ranks: 2, RecvTimeout: 30 * time.Second}
	var wg sync.WaitGroup
	var recvErr error
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := cfg
		c.Transport = sa[1]
		_, recvErr = Run(c, func(r *Rank) error {
			_, err := r.Recv(0)
			return err
		})
	}()
	// Job 1 on rank 0 ends without sending; its bye must abort the
	// peer's blocked Recv long before the 30s timeout.
	time.Sleep(50 * time.Millisecond)
	c := cfg
	c.Transport = sa[0]
	Run(c, func(r *Rank) error { return nil })
	wg.Wait()
	if !errors.Is(recvErr, ErrPeerFailed) {
		t.Fatalf("recv on ended job: %v, want ErrPeerFailed", recvErr)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("job end took %v to unblock the peer", elapsed)
	}
	// Job 2 is untouched: a normal exchange still works on the same mesh.
	_, err := runSessions(t, Config{Ranks: 2}, sb, func(r *Rank) error {
		if r.ID == 0 {
			return r.Send(1, []byte("job 2 lives"))
		}
		got, err := r.Recv(0)
		if err != nil {
			return err
		}
		if string(got) != "job 2 lives" {
			return fmt.Errorf("payload %q", got)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("sibling job after bye: %v", err)
	}
}

// SendJob/SetJobHandler carry daemon control traffic over the mesh
// outside any session.
func TestTCPJobFrames(t *testing.T) {
	trs := startMesh(t, 2)
	type jf struct {
		from    int
		job     uint32
		kind    byte
		payload string
	}
	got := make(chan jf, 1)
	trs[1].SetJobHandler(func(from int, job uint32, kind byte, payload []byte) {
		got <- jf{from, job, kind, string(payload)}
	})
	if err := trs[0].SendJob(1, 7, 3, []byte("submit")); err != nil {
		t.Fatal(err)
	}
	select {
	case f := <-got:
		if f.from != 0 || f.job != 7 || f.kind != 3 || f.payload != "submit" {
			t.Fatalf("job frame %+v", f)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("job frame never delivered")
	}
	if err := trs[0].SendJob(1, 7, jobByeKind, nil); err == nil {
		t.Fatal("reserved job-frame kind accepted")
	}
}

// TestTCPFormationUnreachablePeer is the regression test for the
// mesh-formation resource leak: a dial that can never succeed must fail
// promptly at the deadline AND leave no live listener behind — before
// the fix the listener (and any already-accepted conns) stayed open on
// the error path.
func TestTCPFormationUnreachablePeer(t *testing.T) {
	// A port that refuses connections: listen, grab the address, close.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	tr, err := NewTCPTransport(TCPOptions{
		Rank: 1, Peers: []string{deadAddr, ln.Addr().String()},
		Listener: ln, DialTimeout: 500 * time.Millisecond,
	})
	if err == nil {
		tr.Close()
		t.Fatal("mesh with an unreachable peer formed")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("unreachable-peer failure took %v", elapsed)
	}
	// The listener must be closed on the failure path.
	if _, aerr := ln.Accept(); !errors.Is(aerr, net.ErrClosed) {
		t.Fatalf("listener still live after failed formation: Accept returned %v", aerr)
	}
}

// TestTCPFormationEarlyAbort: a failure on the accept side (garbage
// handshake) must abort the dial side immediately instead of letting it
// retry an absent peer until the full deadline.
func TestTCPFormationEarlyAbort(t *testing.T) {
	// Rank 0 never exists: its port refuses connections.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// A client that speaks garbage instead of the handshake.
	go func() {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return
		}
		defer conn.Close()
		conn.Write([]byte("not-the-protocol-you-expect-"))
		buf := make([]byte, 256)
		for {
			if _, err := conn.Read(buf); err != nil {
				return
			}
		}
	}()
	start := time.Now()
	tr, err := NewTCPTransport(TCPOptions{
		Rank: 1, Peers: []string{deadAddr, ln.Addr().String(), "127.0.0.1:1"},
		Listener: ln, DialTimeout: 30 * time.Second,
	})
	if err == nil {
		tr.Close()
		t.Fatal("mesh formed against a garbage handshake")
	}
	// The handshake rejection must cascade: well under the 30s dial
	// deadline (the handshake itself has a 5s bound).
	if elapsed := time.Since(start); elapsed > 15*time.Second {
		t.Fatalf("accept-side failure took %v to abort the dial side", elapsed)
	}
}

// TestTCPFormationClosesAcceptedConns: when formation fails, peers that
// DID complete their handshake must be disconnected, not leaked.
func TestTCPFormationClosesAcceptedConns(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Rank 0 of a 3-rank world: accepts ranks 1 and 2. Only "rank 2"
	// shows up (this test), so formation times out.
	done := make(chan struct{})
	go func() {
		defer close(done)
		tr, err := NewTCPTransport(TCPOptions{
			Rank: 0, Peers: []string{ln.Addr().String(), "127.0.0.1:1", "127.0.0.1:1"},
			Listener: ln, DialTimeout: 700 * time.Millisecond,
		})
		if err == nil {
			tr.Close()
			t.Error("2-of-3 mesh formed")
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var hello [tcpHelloLen]byte
	copy(hello[:4], tcpMagic)
	hello[4] = tcpVersion
	binary.LittleEndian.PutUint32(hello[5:9], 2)  // rank 2
	binary.LittleEndian.PutUint32(hello[9:13], 3) // world 3
	binary.LittleEndian.PutUint64(hello[13:21], uint64(time.Now().UnixNano()))
	if _, err := conn.Write(hello[:]); err != nil {
		t.Fatal(err)
	}
	// Read rank 0's hello back, then wait: the failed formation must
	// close our accepted connection (EOF), not leave it dangling.
	var peerHello [tcpHelloLen]byte
	if _, err := io.ReadFull(conn, peerHello[:]); err != nil {
		t.Fatalf("handshake reply: %v", err)
	}
	<-done
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(peerHello[:1]); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("accepted conn still open after failed formation (read err %v)", err)
	}
}

// A killed rank's bye can reach a peer before that peer has bound its
// session (or even opened it): the reader then finds no failure callback
// and no mailbox. The evidence must survive until bind and reach the
// failure detector there — otherwise a survivor blocked on a live but
// stalled neighbour burns its whole RecvTimeout and ends up suspecting,
// and evicting, the wrong rank.
func TestTCPByeBeforeBindReachesDetector(t *testing.T) {
	for _, opened := range []bool{true, false} {
		name := "no session yet"
		if opened {
			name = "session open, not bound"
		}
		t.Run(name, func(t *testing.T) {
			trs := startMesh(t, 3)
			const job = 9
			var s1 Transport
			if opened {
				var err error
				if s1, err = trs[1].Session(job); err != nil {
					t.Fatal(err)
				}
			}
			// Rank 0 runs its side of the job to the end; nothing else has
			// touched the job on rank 1 yet.
			s0, err := trs[0].Session(job)
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{Ranks: 3, RecvTimeout: 30 * time.Second}
			c0 := cfg
			c0.Transport = s0
			if _, err := Run(c0, func(r *Rank) error { return nil }); err != nil {
				t.Fatal(err)
			}
			for deadline := time.Now().Add(10 * time.Second); !trs[1].peers[0].jobEnded(job); {
				if time.Now().After(deadline) {
					t.Fatal("rank 0's bye never reached rank 1")
				}
				time.Sleep(time.Millisecond)
			}
			if !opened {
				if s1, err = trs[1].Session(job); err != nil {
					t.Fatal(err)
				}
			}
			// Rank 1 now binds and waits on rank 2, which is alive and
			// silent. Only the detector can end this wait early.
			c1 := cfg
			c1.Transport = s1
			start := time.Now()
			_, err = Run(c1, func(r *Rank) error {
				r.SetFailFast(true)
				_, err := r.Recv(2)
				return err
			})
			var failed *RankFailedError
			if !errors.As(err, &failed) || failed.Rank != 0 {
				t.Fatalf("recv from the stalled neighbour: %v, want RankFailedError for rank 0", err)
			}
			if elapsed := time.Since(start); elapsed > 10*time.Second {
				t.Fatalf("took %v to hear of a death that preceded bind", elapsed)
			}
		})
	}
}

// A rank that ends mid-collective says bye on each of its connections. The
// bye must reach the survivors' failure detectors before it closes the
// job's mailboxes: a receiver blocked on that rank and woken by the closing
// must find the recorded cause and return a *RankFailedError, not the
// untyped ErrPeerFailed wrap a detector without a cause leaves it.
func TestTCPByeMidCollectiveIsTyped(t *testing.T) {
	runs := 200
	if testing.Short() {
		runs = 20
	}
	trs := startMesh(t, 3)
	cfg := Config{Ranks: 3, RecvTimeout: 30 * time.Second}
	for i := 0; i < runs; i++ {
		job := uint32(100 + i)
		sess := make([]Transport, 3)
		for k := range sess {
			var err error
			if sess[k], err = trs[k].Session(job); err != nil {
				t.Fatal(err)
			}
		}
		var waitErr [2]error
		_, err := runSessions(t, cfg, sess, func(r *Rank) error {
			// One ring step, then rank 2 leaves while both others wait on it.
			if err := r.Send((r.ID+1)%3, []byte{byte(r.ID)}); err != nil {
				return err
			}
			if _, err := r.Recv((r.ID + 2) % 3); err != nil {
				return err
			}
			if r.ID == 2 {
				return nil
			}
			_, waitErr[r.ID] = r.Recv(2)
			return nil
		})
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		for id, err := range waitErr {
			var failed *RankFailedError
			if !errors.As(err, &failed) || failed.Rank != 2 {
				t.Fatalf("run %d: rank %d's Recv(2) after rank 2 left: %v, want a *RankFailedError for rank 2", i, id, err)
			}
		}
	}
}

// faultClasses names the error classes a receive can end in, so a
// delivery compares across fabrics by class rather than by message text.
var faultClasses = []struct {
	err  error
	name string
}{
	{ErrMessageCorrupt, "corrupt"},
	{ErrMessageLost, "lost"},
	{ErrMessageDuplicate, "duplicate"},
	{ErrRecvTimeout, "timeout"},
	{ErrRetryBudgetExhausted, "budget"},
	{ErrRetransmitGone, "gone"},
	{ErrPeerFailed, "peer-failed"},
}

// delivery is one Recv's outcome: its error class, or its payload and
// the receiver's virtual clock after it.
type delivery struct {
	got   string
	clock float64
}

func deliveryOf(data []byte, err error, clock float64) delivery {
	if err == nil {
		return delivery{got: string(data), clock: clock}
	}
	for _, c := range faultClasses {
		if errors.Is(err, c.err) {
			return delivery{got: c.name}
		}
	}
	return delivery{got: err.Error()}
}

// TestTCPFaultsMatchInProcess injects the same fault into the same
// two-rank exchange on the in-process fabric and on a loopback TCP mesh,
// under strict and reliable delivery, and requires the same outcome on
// both: every Recv ends in the same error class, or delivers the same
// payload at the same receiver virtual clock. The one documented
// difference is asserted as such: the in-process replay window outlives
// its sender, so reliable delivery salvages a message from an exited
// sender there, while over TCP the window died with the sender's process
// and the receive fails typed.
func TestTCPFaultsMatchInProcess(t *testing.T) {
	onSeq0 := func(action FaultAction, delay float64) Fault {
		return FaultOn(func(fc FaultContext) bool {
			return fc.From == 0 && fc.To == 1 && fc.Seq == 0 && fc.Attempt == 0
		}, action, delay)
	}
	cases := []struct {
		name  string
		fault Fault
		sends []string
		// stale: both ranks leave epoch 0 between the first send and the
		// receives. exit: the sender returns right after its sends.
		stale, exit bool
		// strict and reliable are the expected outcomes, in order.
		strict, reliable []string
	}{
		{name: "drop", fault: onSeq0(FaultDrop, 0), sends: []string{"a", "b"},
			strict: []string{"lost", "b"}, reliable: []string{"a", "b"}},
		{name: "duplicate", fault: onSeq0(FaultDuplicate, 0), sends: []string{"a", "b"},
			strict: []string{"a", "duplicate", "b"}, reliable: []string{"a", "b"}},
		{name: "corrupt", fault: onSeq0(FaultCorrupt, 0), sends: []string{"a", "b"},
			strict: []string{"corrupt", "b"}, reliable: []string{"a", "b"}},
		{name: "delay", fault: onSeq0(FaultDelay, 0.25), sends: []string{"a", "b"},
			strict: []string{"a", "b"}, reliable: []string{"a", "b"}},
		{name: "stale-epoch", sends: []string{"a", "b"}, stale: true,
			strict: []string{"b"}, reliable: []string{"b"}},
		{name: "sender-exit", fault: onSeq0(FaultDrop, 0), sends: []string{"a"}, exit: true,
			strict: []string{"peer-failed"}, reliable: []string{"a"}},
	}
	for _, c := range cases {
		for _, reliable := range []bool{false, true} {
			mode, want := "strict", c.strict
			if reliable {
				mode, want = "reliable", c.reliable
			}
			t.Run(c.name+"/"+mode, func(t *testing.T) {
				cfg := Config{Ranks: 2, Reliable: reliable, RecvTimeout: 2 * time.Second, Fault: c.fault}
				body := func(got *[]delivery) func(*Rank) error {
					return func(r *Rank) error {
						if r.ID == 0 {
							for i, p := range c.sends {
								if c.stale && i == 1 {
									if err := r.Barrier(); err != nil {
										return err
									}
									r.AdvanceEpoch()
								}
								if err := r.Send(1, []byte(p)); err != nil {
									return err
								}
							}
							if c.exit {
								return nil
							}
							return r.Barrier()
						}
						if c.stale {
							if err := r.Barrier(); err != nil {
								return err
							}
							r.AdvanceEpoch()
						}
						last := c.sends[len(c.sends)-1]
						for i := 0; i <= len(c.sends); i++ {
							data, err := r.Recv(0)
							*got = append(*got, deliveryOf(data, err, r.Now()))
							if string(data) == last || errors.Is(err, ErrPeerFailed) {
								break
							}
						}
						if c.exit {
							return nil
						}
						return r.Barrier()
					}
				}
				var inproc, tcp []delivery
				if _, err := Run(cfg, body(&inproc)); err != nil {
					t.Fatalf("in-process run: %v", err)
				}
				if _, err := runMesh(t, cfg, startMesh(t, 2), body(&tcp)); err != nil {
					t.Fatalf("tcp run: %v", err)
				}
				names := func(ds []delivery) []string {
					out := make([]string, len(ds))
					for i, d := range ds {
						out[i] = d.got
					}
					return out
				}
				if fmt.Sprint(names(inproc)) != fmt.Sprint(want) {
					t.Fatalf("in-process outcome %v, want %v", names(inproc), want)
				}
				if c.exit && reliable {
					// The documented difference: no window survives a TCP
					// sender's exit.
					if fmt.Sprint(names(tcp)) != "[peer-failed]" {
						t.Fatalf("tcp outcome %v, want [peer-failed] (the window died with the sender)", names(tcp))
					}
					return
				}
				if fmt.Sprint(inproc) != fmt.Sprint(tcp) {
					t.Fatalf("fabrics disagree:\n in-process %v\n tcp        %v", inproc, tcp)
				}
			})
		}
	}
}

// mailJobs lists the jobs that hold a mailbox on any of tr's connections.
func mailJobs(tr *TCPTransport) map[uint32]bool {
	jobs := make(map[uint32]bool)
	for _, p := range tr.peers {
		if p == nil {
			continue
		}
		p.mu.Lock()
		for job := range p.mail {
			jobs[job] = true
		}
		p.mu.Unlock()
	}
	return jobs
}

// waitMail waits until every transport's mailboxes belong to the live
// jobs alone, and fails with what is left otherwise.
func waitMail(t *testing.T, trs []*TCPTransport, live map[uint32]bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		left := ""
		for i, tr := range trs {
			for job := range mailJobs(tr) {
				if !live[job] {
					left += fmt.Sprintf(" rank %d job %d;", i, job)
				}
			}
		}
		if left == "" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("mailboxes of ended jobs remain:%s", left)
		}
		time.Sleep(time.Millisecond)
	}
}

// exchangeAll sends one byte to every peer and receives one from each, so
// every (peer, job) pair of the session has a mailbox on both sides.
func exchangeAll(r *Rank) error {
	for p := 0; p < r.N; p++ {
		if p != r.ID {
			if err := r.Send(p, []byte{byte(r.ID)}); err != nil {
				return err
			}
		}
	}
	for p := 0; p < r.N; p++ {
		if p != r.ID {
			if _, err := r.Recv(p); err != nil {
				return err
			}
		}
	}
	return nil
}

// startJob opens job on every rank and runs exchangeAll on each; a rank's
// session ends when its leave channel closes. The returned wait blocks
// until rank i's session has ended and returns its run error.
func startJob(t *testing.T, trs []*TCPTransport, job uint32, leave []chan struct{}) (wait func(i int) error) {
	t.Helper()
	ended := make([]chan struct{}, len(trs))
	errs := make([]error, len(trs))
	for i, tr := range trs {
		sess, err := tr.Session(job)
		if err != nil {
			t.Fatal(err)
		}
		ended[i] = make(chan struct{})
		go func() {
			defer close(ended[i])
			_, errs[i] = Run(Config{Ranks: len(trs), RecvTimeout: 30 * time.Second, Transport: sess}, func(r *Rank) error {
				err := exchangeAll(r)
				<-leave[r.ID]
				return err
			})
		}()
	}
	return func(i int) error {
		<-ended[i]
		return errs[i]
	}
}

func leaveChans(n int) []chan struct{} {
	leave := make([]chan struct{}, n)
	for i := range leave {
		leave[i] = make(chan struct{})
	}
	return leave
}

// An ended job session leaves no mailbox behind: once the local session
// has ended and the peer's bye (or its reader's exit) has closed the
// mailbox, the (peer, job) entry goes. Back-to-back jobs on a 3-rank mesh
// then leave only the live session's mailboxes, whichever comes first on
// a rank — the peer's bye or its own end — and when a connection dies
// mid-job.
func TestTCPEndedSessionsLeaveNoMailboxes(t *testing.T) {
	const n, k = 3, 8
	for _, order := range []string{"bye before local end", "local end before bye"} {
		t.Run(order, func(t *testing.T) {
			trs := startMesh(t, n)
			// Job 1 stays live throughout; its mailboxes must stay too.
			liveLeave := leaveChans(n)
			liveWait := startJob(t, trs, 1, liveLeave)
			for job := uint32(2); job < 2+k; job++ {
				leave := leaveChans(n)
				wait := startJob(t, trs, job, leave)
				if order == "bye before local end" {
					// Ranks 0 and 1 leave; rank 2 ends after both byes.
					close(leave[0])
					close(leave[1])
					for deadline := time.Now().Add(10 * time.Second); !trs[2].peers[0].jobEnded(job) || !trs[2].peers[1].jobEnded(job); time.Sleep(time.Millisecond) {
						if time.Now().After(deadline) {
							t.Fatalf("job %d: the byes never reached rank 2", job)
						}
					}
					close(leave[2])
				} else {
					// Rank 2 ends before either peer says bye.
					close(leave[2])
					wait(2)
					close(leave[0])
					close(leave[1])
				}
				for i := range n {
					if err := wait(i); err != nil {
						t.Fatalf("job %d rank %d: %v", job, i, err)
					}
				}
			}
			waitMail(t, trs, map[uint32]bool{1: true})
			for i, tr := range trs {
				if !mailJobs(tr)[1] {
					t.Fatalf("rank %d lost the live job's mailboxes", i)
				}
			}
			for i := range liveLeave {
				close(liveLeave[i])
				if err := liveWait(i); err != nil {
					t.Fatalf("live job rank %d: %v", i, err)
				}
			}
			waitMail(t, trs, nil)
		})
	}
	t.Run("reader exit mid-job", func(t *testing.T) {
		trs := startMesh(t, n)
		leave := make([][]chan struct{}, k)
		wait := make([]func(int) error, k)
		for j := range k {
			leave[j] = leaveChans(n)
			wait[j] = startJob(t, trs, uint32(j+1), leave[j])
		}
		waitFor := func(what string, cond func() bool) {
			for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal(what)
				}
			}
		}
		locked := func(p *tcpPeer, f func() bool) bool {
			p.mu.Lock()
			defer p.mu.Unlock()
			return f()
		}
		// Once every job has its mailboxes on both ends of the 0–1
		// connection, the connection dies under them.
		p01, p10 := trs[0].peers[1], trs[1].peers[0]
		waitFor("the jobs never opened their mailboxes", func() bool {
			return locked(p01, func() bool { return len(p01.mail) == k }) && locked(p10, func() bool { return len(p10.mail) == k })
		})
		if err := trs[0].DropConn(1); err != nil {
			t.Fatal(err)
		}
		waitFor("the readers never exited", func() bool {
			return locked(p01, func() bool { return p01.dead }) && locked(p10, func() bool { return p10.dead })
		})
		for j := range k {
			for i := range n {
				close(leave[j][i])
			}
			for i := range n {
				wait[j](i) // a rank that lost its link may fail; only its mailboxes count here
			}
		}
		waitMail(t, trs, nil)
	})
}
