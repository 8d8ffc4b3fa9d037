package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"hzccl/internal/bufpool"
)

// onFabric runs body on a fresh n-rank world of the named fabric.
func onFabric(t *testing.T, fabric string, n int, cfg Config, body func(*Rank) error) error {
	t.Helper()
	cfg.Ranks = n
	if fabric == "chan" {
		_, err := Run(cfg, body)
		return err
	}
	_, err := runMesh(t, cfg, startMesh(t, n), body)
	return err
}

// pooled reports whether bufpool now hands out buf's memory: it draws a
// handful of buffers of buf's size class and looks for buf's address among
// them. (Only a test may ask a buffer for its address.)
func pooled(buf []byte) bool {
	var drawn [][]byte
	defer func() {
		for _, b := range drawn {
			if &b[0] != &buf[0] {
				bufpool.PutBytes(b)
			}
		}
	}()
	for i := 0; i < 16; i++ {
		b := bufpool.Bytes(len(buf))
		drawn = append(drawn, b)
		if &b[0] == &buf[0] {
			return true
		}
	}
	return false
}

// TestSendLeavesTheCallersBufferAlone is the ownership rule, fabric by
// fabric and fault by fault: Send neither modifies nor recycles the caller's
// bytes and is done with them when it returns, so the sender scribbles over
// its buffer at once — and the receiver still gets the pristine payload
// (healthy, duplicated, or replayed from the reliable window), or a typed
// error when the fault is unrecoverable. On the in-process fabric that can
// only hold because the fabric copies; the payload a receiver gets there
// never aliases the sender's buffer.
func TestSendLeavesTheCallersBufferAlone(t *testing.T) {
	faults := []struct {
		name    string
		action  FaultAction
		pattern *CorruptPattern
		strict  error // what a strict (Reliable off) receiver sees; nil = the payload
	}{
		{"healthy", FaultDeliver, nil, nil},
		{"corrupt", FaultCorrupt, nil, ErrMessageCorrupt},
		{"corrupt-pattern", FaultCorrupt, &CorruptPattern{Offset: 3, Mask: 0xff, Burst: 64}, ErrMessageCorrupt},
		{"duplicate", FaultDuplicate, nil, nil},
		{"drop", FaultDrop, nil, ErrMessageLost},
		{"kill", FaultKill, nil, ErrPeerFailed},
	}
	const size = 4096 // a bufpool size class of its own in this test
	pristine := bytes.Repeat([]byte{0x5a, 0xc3, 0x0f, 0x99}, size/4)
	for _, fabric := range []string{"tcp", "chan"} {
		for _, reliable := range []bool{true, false} {
			for _, f := range faults {
				t.Run(fmt.Sprintf("%s/reliable=%v/%s", fabric, reliable, f.name), func(t *testing.T) {
					cfg := Config{
						Reliable: reliable, RecvTimeout: 300 * time.Millisecond, RetryBackoff: time.Microsecond, Corrupt: f.pattern,
						Fault: FaultOn(func(fc FaultContext) bool { return fc.From == 0 && fc.Seq == 0 && fc.Attempt == 0 }, f.action, 0),
					}
					var sendErr, recvErr, broken error
					var got []byte
					err := onFabric(t, fabric, 2, cfg, func(r *Rank) error {
						if r.ID == 0 {
							buf := bytes.Clone(pristine)
							sendErr = r.Send(1, buf)
							if !bytes.Equal(buf, pristine) {
								broken = fmt.Errorf("Send modified the caller's buffer")
							} else if pooled(buf) {
								broken = fmt.Errorf("Send recycled the caller's buffer")
							}
							for i := range buf {
								buf[i] = 0xee // the caller's again: anything still reading it shows
							}
							if sendErr != nil {
								return nil // killed: the rank is gone
							}
							// A fence so a drop shows as a gap, then stay for the
							// receiver's NACK: a TCP sender serves replays itself.
							if err := r.Send(1, []byte("fence")); err != nil {
								return err
							}
							_, err := r.Recv(1)
							return err
						}
						if got, recvErr = r.Recv(0); recvErr != nil {
							return nil
						}
						if f.action == FaultDuplicate && !reliable {
							if _, err := r.Recv(0); !errors.Is(err, ErrMessageDuplicate) {
								return fmt.Errorf("second delivery: %v, want ErrMessageDuplicate", err)
							}
						}
						if fence, err := r.Recv(0); err != nil || string(fence) != "fence" {
							return fmt.Errorf("fence: %q, %v", fence, err)
						}
						return r.Send(0, []byte("ack"))
					})
					if broken != nil {
						t.Fatal(broken)
					}
					if f.action == FaultKill {
						if !errors.Is(sendErr, ErrRankKilled) || recvErr == nil {
							t.Fatalf("kill: send %v, recv %v", sendErr, recvErr)
						}
						return
					}
					want := f.strict
					if reliable {
						want = nil // recovered from the window's own pristine copy
					}
					if want != nil {
						if !errors.Is(recvErr, want) {
							t.Fatalf("receiver got %v, want %v", recvErr, want)
						}
						return
					}
					if err != nil || sendErr != nil || recvErr != nil {
						t.Fatalf("run %v, send %v, recv %v", err, sendErr, recvErr)
					}
					if !bytes.Equal(got, pristine) {
						t.Fatalf("receiver did not get the pristine payload (first bytes % x)", got[:8])
					}
				})
			}
		}
	}
}

// allocsPerPass counts the allocations of one pass of a lockstep exchange
// on the world run starts: rank 0 measures with testing.AllocsPerRun while
// every other rank runs as many passes, and a pass that fails stops that
// rank's passes and fails the test.
func allocsPerPass(t *testing.T, run func(body func(*Rank) error) error, pass func(*Rank) error) float64 {
	t.Helper()
	const runs = 400
	var perPass float64
	err := run(func(r *Rank) error {
		var err error
		step := func() {
			if err == nil {
				err = pass(r)
			}
		}
		if r.ID != 0 {
			for i := 0; i < runs+1; i++ { // AllocsPerRun warms up with one extra call
				step()
			}
			return err
		}
		perPass = testing.AllocsPerRun(runs, step)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return perPass
}

// roundTripAllocs counts the allocations of one ping-pong round trip of
// an 8-byte message between ranks 0 and 1 of the world run starts, each
// receiver handing the payload back to bufpool as the collectives do.
func roundTripAllocs(t *testing.T, run func(body func(*Rank) error) error) float64 {
	t.Helper()
	ball := make([]byte, 8)
	return allocsPerPass(t, run, func(r *Rank) error {
		if r.ID == 0 {
			if err := r.Send(1, ball); err != nil {
				return err
			}
		}
		got, err := r.Recv(1 - r.ID)
		if err != nil {
			return err
		}
		bufpool.PutBytes(got)
		if r.ID == 1 {
			return r.Send(0, ball)
		}
		return nil
	})
}

// TestTCPAllocsPerMessage pins the steady-state allocation cost of one data
// frame, send side plus receive side, on a loopback ping-pong with a receive
// timeout armed (as every benchmark and daemon mesh has): the frame scratch
// lives on the peer, the timeout timer on the mailbox and the payload in
// bufpool, so what is left is the runtime's own per-wakeup state. It read 10
// before those moved.
func TestTCPAllocsPerMessage(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	trs := startMesh(t, 2)
	cfg := Config{Ranks: 2, RecvTimeout: 5 * time.Second}
	perRoundTrip := roundTripAllocs(t, func(body func(*Rank) error) error {
		_, err := runMesh(t, cfg, trs, body)
		return err
	})
	if perRoundTrip > 2 {
		t.Fatalf("%.1f allocations per message, want ≤ 1", perRoundTrip/2)
	}
}

// TestChanAllocsPerMessage pins the same round trip on the in-process
// fabric at zero allocations, with and without a receive deadline: the
// payload copy comes from bufpool and the deadline is the link's reusable
// timer. A timer made per wait read 5 per round trip with the deadline.
func TestChanAllocsPerMessage(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	for _, timeout := range []time.Duration{0, 5 * time.Second} {
		cfg := Config{Ranks: 2, RecvTimeout: timeout}
		perRoundTrip := roundTripAllocs(t, func(body func(*Rank) error) error {
			_, err := Run(cfg, body)
			return err
		})
		if perRoundTrip != 0 {
			t.Errorf("RecvTimeout %v: %.1f allocations per round trip, want 0", timeout, perRoundTrip)
		}
	}
}

// TestBarrierAllocs pins an agreement round at zero allocations on both
// fabrics, with and without a receive deadline: control records travel by
// value and every wait runs on its link's reusable timer. On 4 ranks it
// read 2 in-process (10 with the deadline) and 16 over TCP when each
// fabric had its own round.
func TestBarrierAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	for _, fabric := range []string{"chan", "tcp"} {
		for _, timeout := range []time.Duration{0, 5 * time.Second} {
			perRound := allocsPerPass(t, func(body func(*Rank) error) error {
				return onFabric(t, fabric, 4, Config{RecvTimeout: timeout}, body)
			}, (*Rank).Barrier)
			if perRound != 0 {
				t.Errorf("%s, RecvTimeout %v: %.1f allocations per Barrier round, want 0", fabric, timeout, perRound)
			}
		}
	}
}
